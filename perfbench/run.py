#!/usr/bin/env python3
"""Benchmark of the foolkit pipeline, from problem text to verdict.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads (see ``gen.py``): ``verify`` (parse, sort check, lowering,
enumeration oracle), ``prove`` (parse, lowering, clausify, saturation in
both boolean modes) and ``lower`` (parse, sort check, lowering, emit,
clausify on large inputs).

Load model: one client in a closed loop, in one single-threaded
process; each problem starts when the previous one has finished.  A run
repeats whole passes over the workload's cases, at least two, until
``--seconds`` is about used up, so every run sees the same mix.

Every time is scaled to a fixed machine speed (``calibrate.py``): a
reference routine is timed around and during each problem, so a busy
host slows the reference and the problem alike and the scaled time
stays.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans
of the traced ones: self time and work counts per layer, per pass.  It
also reports the tracing overhead and writes the spans to
``.perfbench/``.  Every output is checked; a problem that raises, gives
a wrong answer, hits the time limit or fails its check counts as failed
and the run goes on.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Modules a set-up imports afresh: the program and the benchmark's own.
SETUP_MODULES = ("foolkit", "fixed_problems", "gen", "spans", "workloads")
MODES = ("axiom", "rule")

END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "semantics.verify_s": "s",
    "semantics.interpretations": "count",
    "semantics.interpretations_per_s": "1/s",
    **{
        f"saturate.{name}.{mode}": unit
        for mode in MODES
        for name, unit in (
            ("s", "s"),
            ("generated_per_s", "1/s"),
            ("generated", "count"),
            ("kept", "count"),
            ("subsumed", "count"),
            ("tautologies", "count"),
            ("processed", "count"),
            ("kept_ratio", "ratio"),
        )
    },
    "translate.run_s": "s",
    "translate.steps": "count",
    "translate.steps_per_s": "1/s",
    "translate.defs": "count",
    "translate.to_fol_s": "s",
    "tptp.parse_s": "s",
    "tptp.parse_bytes_per_s": "B/s",
    "typecheck.check_s": "s",
    "tptp.emit_s": "s",
    "tptp.emit_bytes": "B",
    "clausify.s": "s",
    "clausify.clauses": "count",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer time metrics: the span they sum, and for saturation the mode.
SPAN_TIMES = {
    "semantics.verify_s": ("semantics.check_model_preservation", None),
    "saturate.s.axiom": ("prover.saturate", "axiom"),
    "saturate.s.rule": ("prover.saturate", "rule"),
    "translate.run_s": ("translate.run_translation", None),
    "translate.to_fol_s": ("translate.to_fol", None),
    "tptp.parse_s": ("tptp.parse_problem", None),
    "typecheck.check_s": ("typecheck.check_formula", None),
    "tptp.emit_s": ("tptp.print_fol_tff0", None),
    "clausify.s": ("prover.clausify", None),
    "harness.self_s": ("problem", None),
}

# Rates: (count metric, time metric).
RATES = {
    "semantics.interpretations_per_s": ("semantics.interpretations", "semantics.verify_s"),
    "saturate.generated_per_s.axiom": ("saturate.generated.axiom", "saturate.s.axiom"),
    "saturate.generated_per_s.rule": ("saturate.generated.rule", "saturate.s.rule"),
    "translate.steps_per_s": ("translate.steps", "translate.run_s"),
    "tptp.parse_bytes_per_s": ("tptp.parse_bytes", "tptp.parse_s"),
}


@dataclass
class Record:
    """One problem in one pass."""

    case: str
    timing: calibrate.Timing
    status: str  # ok | wrong | limit | error
    detail: str = ""
    fingerprint: tuple = ()
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.timing.seconds

    @property
    def scale(self) -> float:
        """Turns a wall-clock interval inside the problem into scaled seconds."""
        return self.timing.seconds / self.timing.elapsed


@dataclass
class Pass:
    records: list[Record]
    tracer: object | None
    unit_s: float  # median time of the reference unit over the pass

    @property
    def seconds(self) -> float:
        """Scaled time of the pass's problems."""
        return sum(r.seconds for r in self.records)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "prove", "lower"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _where(err: BaseException) -> tuple[str, str]:
    """The outermost and innermost program frames an exception passed."""
    frames = [
        f"{Path(f.filename).stem}.{f.name}"
        for f in traceback.extract_tb(err.__traceback__)
        if "foolkit" in Path(f.filename).parts
    ] or ["the benchmark"]
    return frames[0], frames[-1]


def run_pass(workloads, spans, workload, cases, traced, order) -> Pass:
    """One pass over the cases in the given order.  Cheap and costly
    problems are mixed, so every kind samples the whole pass."""
    pipeline = workloads.PIPELINES[workload]
    tracer = spans.Tracer() if traced else None
    call = tracer.call if traced else spans.direct
    records = []
    clock = calibrate.Clock()
    for case in order.sample(cases, len(cases)):
        # Every problem starts from an empty collector, so the collections
        # inside it do not depend on what ran before it.
        gc.collect()
        failure = None
        with clock.timed() as timing:
            if traced:
                tracer.open_problem(case.id)
            try:
                out = pipeline(case, call)
            except Exception as err:  # a failing problem is counted; the run goes on
                failure = err
            finally:
                if traced:
                    tracer.close_problem()
        if failure:
            name = type(failure).__name__
            outer, inner = _where(failure)
            detail = f"{name} in {outer}" + (f" (innermost {inner})" if inner != outer else "")
            # Not the innermost frame: the clock's timer runs code at any
            # depth, so where a RecursionError surfaces is not repeatable.
            fingerprint = ("error", name, outer)
            records.append(Record(case.id, timing, "error", detail, fingerprint))
            continue
        found = workloads.counts(workload, case, out)
        fingerprint = (workloads.signature(workload, out), sorted(found.items()))
        problem = workloads.check(workload, case, out)
        status, detail = problem if problem else ("ok", "")
        records.append(Record(case.id, timing, status, detail, fingerprint, found))
    return Pass(records, tracer, statistics.median(clock.units))


def measure(workloads, spans, workload, cases, seed, seconds, trace) -> list[Pass]:
    """Whole passes, at least MIN_PASSES (untraced/traced pairs when
    tracing), stopping when one more would end past ``seconds`` by more
    than half a pass.  The order of each pass is drawn from the seed."""
    order = random.Random(seed)
    passes: list[Pass] = []
    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workloads, spans, workload, cases, traced, order))
        if len(passes) < MIN_PASSES or (trace and len(passes) % 2):
            continue
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def check_repeats(passes: list[Pass]) -> None:
    """Every pass must give every problem the same output and counts; a
    problem that does not is wrong in every pass."""
    first = {r.case: r.fingerprint for r in passes[0].records}
    differ = {r.case for p in passes for r in p.records if r.fingerprint != first[r.case]}
    for p in passes:
        for r in p.records:
            if r.case in differ:
                r.status, r.detail = "wrong", "output or counts differ between passes"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(samples: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples * (1 - p / 100) >= 10:
            return p
    return 50.0


def end_to_end(passes, cases, setup_s, lines) -> dict[str, float]:
    """Latency quantiles are taken over problems, each at its median over
    the run's passes, so one slow stretch of the machine moves a quantile
    only when it covers most passes of a problem.  Throughput is correct
    answers per second of the problems' own (scaled) time."""
    records = [r for p in passes for r in p.records]
    answered = sum(r.status == "ok" for r in records)
    # Fixed by the samples of the shortest run, so every run of a
    # workload reports the same percentile.
    tail = tail_percentile(MIN_PASSES * len(cases))

    def figures(seconds_of) -> tuple[float, float, float]:
        by_case: dict[str, list[float]] = {}
        for r in records:
            if r.status == "ok":
                by_case.setdefault(r.case, []).append(seconds_of(r) * 1000)
        latencies = [statistics.median(v) for v in by_case.values()] or [0.0]
        return (
            answered / sum(seconds_of(r) for r in records),
            percentile(latencies, 50),
            percentile(latencies, tail),
        )

    per_s, p50, p_tail = figures(lambda r: r.seconds)
    metrics = {
        "setup_s": setup_s,
        "problems_per_s": per_s,
        "latency_p50_ms": p50,
        "latency_tail_ms": p_tail,
        "correct_ratio": answered / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    problems = len({r.case for r in records if r.status == "ok"})
    lines.append(
        f"latency_tail_ms is p{tail:g} over {problems} problems x "
        f"{len(passes)} passes ({answered} samples)"
    )
    lines.append(
        "as measured, before scaling: problems_per_s %.4f, latency_p50_ms %.4f, "
        "latency_tail_ms %.4f" % figures(lambda r: r.timing.measured)
    )
    lines.append(
        f"error_ratio {1 - metrics['correct_ratio']!r} "
        f"({len(records) - answered} of {len(records)} failed)"
    )
    return metrics


def per_layer(workloads, passes, cases, lines) -> dict[str, float]:
    """Per-pass layer metrics: times are medians over the traced passes,
    counts come from one pass (every pass repeats them exactly)."""
    mode_of = {c.id: c.mode for c in cases}
    traced = [p for p in passes if p.tracer is not None]
    per_pass = []
    layer_self = []
    for p in traced:
        found: dict[str, float] = {}
        for r in p.records:
            for key, value in (r.counts or {}).items():
                found[key] = found.get(key, 0) + value
        scale = {r.case: r.scale for r in p.records}
        selfs = {
            (span, problem): t * scale[problem]
            for (span, problem), t in p.tracer.self_times().items()
        }
        for metric, (name, mode) in SPAN_TIMES.items():
            found[metric] = sum(
                t for (span, problem), t in selfs.items()
                if span == name and (mode is None or mode_of[problem] == mode)
            )
        by_layer: dict[str, float] = {}
        for (span, _), t in selfs.items():
            layer = workloads.CALLS.get(span, "harness")
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        for rate, (count, time) in RATES.items():
            found[rate] = found.get(count, 0) / found[time] if found[time] else 0.0
        layer_self.append(by_layer)
        per_pass.append(found)

    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        values = [found.get(name, 0) for found in per_pass]
        timed = name in SPAN_TIMES or name in RATES
        metrics[name] = statistics.median(values) if timed else values[0]
    for mode in MODES:
        generated = metrics[f"saturate.generated.{mode}"]
        metrics[f"saturate.kept_ratio.{mode}"] = (
            metrics[f"saturate.kept.{mode}"] / generated if generated else 0.0
        )
    # passes alternate untraced, traced: compare each pair
    metrics["trace.overhead_s"] = statistics.median(
        t.seconds - u.seconds for u, t in zip(passes[::2], passes[1::2])
    )

    layers = {
        layer: statistics.median(by.get(layer, 0.0) for by in layer_self)
        for layer in sorted({layer for by in layer_self for layer in by})
    }
    total = sum(layers.values())
    lines.append("layer self time per traced pass (median):")
    for layer, t in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:10s} {t:10.4f} s {100 * t / total:6.2f} %")
    lines.append(f"largest self time: {max(layers, key=layers.get)}")
    lines.append(f"tracing overhead per pass: {metrics['trace.overhead_s']:.4f} s")
    return metrics


def write_trace(passes, workload, seed) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    traced = [
        {"pass": i, "spans": [asdict(s) for s in p.tracer.spans]}
        for i, p in enumerate(passes)
        if p.tracer is not None
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "passes": traced}, handle)
    return path


def set_up(workload: str, seed: int):
    """Import the program and the benchmark's modules afresh, make the
    inputs and run the first problem once; returns the modules and the
    cases."""
    for name in list(sys.modules):
        if name.split(".")[0] in SETUP_MODULES:
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    gen, spans = sys.modules["gen"], importlib.import_module("spans")
    cases = gen.CASES[workload](seed)
    workloads.PIPELINES[workload](cases[0], spans.direct)
    return workloads, spans, cases


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    clock = calibrate.Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        try:
            with clock.timed() as timing:
                workloads, spans, cases = set_up(args.workload, args.seed)
        except ImportError as err:
            print(f"error: cannot import the program from {ROOT / 'src'}: {err}", file=sys.stderr)
            return 2
        setups.append(timing)
    setup_s = statistics.median(t.seconds for t in setups)

    passes = measure(workloads, spans, args.workload, cases, args.seed, args.seconds, args.trace)
    check_repeats(passes)

    lines = [
        f"workload {args.workload} seed {args.seed}: {len(cases)} problems per pass, "
        f"{len(passes)} passes, problems took {sum(p.seconds for p in passes):.2f} s scaled, "
        f"{sum(r.timing.measured for p in passes for r in p.records):.2f} s measured",
        f"set-up (import, generate, warm-up) x {SETUP_REPEATS}: "
        + " ".join(f"{t.seconds:.4f}" for t in setups) + " s scaled, "
        + " ".join(f"{t.measured:.4f}" for t in setups) + " s measured",
        "reference unit: median "
        + " ".join(f"{p.unit_s * 1e6:.1f}" for p in passes)
        + f" us in the passes, {statistics.median(clock.units) * 1e6:.1f} us in set-up; "
        f"times are scaled to {calibrate.NOMINAL_UNIT_S * 1e6:g} us",
    ]
    if args.trace:
        metrics = per_layer(workloads, passes, cases, lines)
        units = PER_LAYER
        lines.append(f"spans written to {write_trace(passes, args.workload, args.seed)}")
    else:
        metrics = end_to_end(passes, cases, setup_s, lines)
        units = END_TO_END
    failures: dict[str, str] = {}
    for p in passes:
        for r in p.records:
            if r.status != "ok":
                failures.setdefault(r.case, f"{r.status}: {r.detail}")
    for case, detail in failures.items():
        lines.append(f"failed {case}: {detail}")
    for name, unit in units.items():
        lines.append(f"{name} {metrics[name]!r} {unit}")
    print("\n".join(lines))

    records = [r for p in passes for r in p.records]
    result = {
        "correct": all(r.status != "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
