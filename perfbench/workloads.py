"""The three pipelines, their output checks and their per-problem counts.

Each pipeline takes a case and a ``call(name, fn, *args)`` function and
goes from the problem text to a verdict or an output through the
program's public functions only.  ``call`` is ``spans.direct`` in an
untraced pass and ``Tracer.call`` in a traced one, so both passes run
exactly the same calls.

Checks and counts run after the timed region, on the objects the
pipeline returned.  A check never takes its expected answer from the
translation or the prover being measured: the interpretation count is
recomputed from the signatures, the verdicts come from how each case
was built.
"""

from __future__ import annotations

import hashlib
from math import prod

from foolkit import (
    DomainSpec,
    ParseError,
    SortError,
    check_formula,
    check_model_preservation,
    parse_problem,
    print_fol_tff0,
    run_translation,
    to_fol,
)
from foolkit.prover import ProverConfig, clausify, saturate
from foolkit.terms import BUILTIN_FNS, free_fns

from gen import RULE, Case

# A clause cap bounds every search, so each run is deterministic.  The
# time limit is far above the slowest capped search; hitting it fails.
MAX_CLAUSES = 2000
MAX_SECONDS = 60.0

CALLS = {
    "tptp.parse_problem": "tptp",
    "typecheck.check_formula": "typecheck",
    "translate.run_translation": "translate",
    "translate.to_fol": "translate",
    "tptp.print_fol_tff0": "tptp",
    "semantics.check_model_preservation": "semantics",
    "prover.clausify": "clausify",
    "prover.saturate": "saturate",
}


def _domain_spec(problem, sizes: dict) -> DomainSpec:
    return DomainSpec(
        {
            sort: sizes.get(name, 2)
            for name, sort in problem.signature.sorts.items()
            if not sort.is_bool and not name.startswith("$")
        }
    )


# ---------------------------------------------------------------------------
# pipelines: text in, the objects each public call returned out


def verify(case: Case, call) -> dict:
    problem = call("tptp.parse_problem", parse_problem, case.text)
    phi = problem.goal_formula()
    call("typecheck.check_formula", check_formula, problem.ctx, phi)
    state = call("translate.run_translation", run_translation, phi, problem.ctx)
    spec = _domain_spec(problem, case.sizes)
    report = call(
        "semantics.check_model_preservation", check_model_preservation, phi, state, spec
    )
    return {"problem": problem, "phi": phi, "state": state, "spec": spec, "report": report}


def prove(case: Case, call) -> dict:
    problem = call("tptp.parse_problem", parse_problem, case.text)
    phi = problem.goal_formula()
    state = call("translate.run_translation", run_translation, phi, problem.ctx)
    fol = call("translate.to_fol", to_fol, state)
    clauses = call("prover.clausify", clausify, fol)
    config = ProverConfig(bool_mode=case.mode, max_clauses=MAX_CLAUSES, max_seconds=MAX_SECONDS)
    outcome = call("prover.saturate", saturate, clauses.clauses, clauses.ctx, config)
    return {"state": state, "clauses": clauses, "outcome": outcome}


def lower(case: Case, call) -> dict:
    problem = call("tptp.parse_problem", parse_problem, case.text)
    phi = problem.goal_formula()
    call("typecheck.check_formula", check_formula, problem.ctx, phi)
    state = call("translate.run_translation", run_translation, phi, problem.ctx)
    fol = call("translate.to_fol", to_fol, state)
    text = call("tptp.print_fol_tff0", print_fol_tff0, fol)
    clauses = call("prover.clausify", clausify, fol)
    return {"state": state, "text": text, "clauses": clauses}


PIPELINES = {"verify": verify, "prove": prove, "lower": lower}

# ---------------------------------------------------------------------------
# counts, recorded for every problem at the boundaries of its calls


def counts(workload: str, case: Case, out: dict) -> dict[str, int]:
    """Work done by each layer on one problem; identical on every pass."""
    found = {"tptp.parse_bytes": len(case.text.encode())}
    state = out["state"]
    found["translate.steps"] = len(state.steps)
    found["translate.defs"] = len(state.defs)
    if workload == "verify":
        found["semantics.interpretations"] = out["report"].checked
    if "clauses" in out:
        found["clausify.clauses"] = len(out["clauses"].clauses)
    if "text" in out:
        found["tptp.emit_bytes"] = len(out["text"].encode())
    if "outcome" in out:
        stats = out["outcome"].stats
        for key in ("generated", "kept", "subsumed", "tautologies", "processed"):
            found[f"saturate.{key}.{case.mode}"] = int(stats[key])
    return found


def signature(workload: str, out: dict) -> tuple:
    """What every pass must reproduce exactly for one problem."""
    if workload == "verify":
        return (out["report"].render(),)
    if workload == "prove":
        return (out["outcome"].verdict, out["outcome"].render_proof())
    return (hashlib.sha256(out["text"].encode()).hexdigest(),)


# ---------------------------------------------------------------------------
# checks: None when the output is right, else what is wrong


def expected_interpretations(out: dict) -> int:
    """Tables of the source formula's symbols times tables of the fresh
    symbols, computed here from their signatures."""
    spec, state = out["spec"], out["state"]

    def tables(sig_of, names) -> int:
        total = 1
        for name in names:
            sig = sig_of(name)
            points = prod(spec.sizes[arg] for arg in sig.args)
            total *= spec.sizes[sig.result] ** points
        return total

    base = sorted(fn for fn in free_fns(out["phi"]) if fn not in BUILTIN_FNS)
    return tables(out["problem"].signature.fn_sig, base) * tables(
        state.ctx.fn_sig, state.fresh_symbols
    )


def check(workload: str, case: Case, out: dict) -> tuple[str, str] | None:
    """(kind, detail) for a wrong or failed output; kind is ``wrong`` or
    ``limit``.  None when the output is right."""
    if workload == "verify":
        report = out["report"]
        if not report.ok:
            return "wrong", f"expected ok, got {report.render()[:200]}"
        want = expected_interpretations(out)
        if report.checked != want:
            return "wrong", f"checked {report.checked} interpretations, expected {want}"
        return None
    if workload == "prove":
        outcome = out["outcome"]
        verdict = outcome.verdict
        if verdict == "limit" and outcome.stats["generated"] < MAX_CLAUSES:
            return "limit", f"time limit of {MAX_SECONDS} s hit"
        if case.expect == "refuted" and verdict != "refuted":
            return "wrong", f"expected refuted, got {verdict}"
        if case.expect == "satisfiable":
            if verdict == "refuted":
                return "wrong", "satisfiable problem refuted"
            if case.mode == RULE and verdict != "saturated":
                return "wrong", f"rule mode must saturate, got {verdict}"
        return None
    try:
        parse_problem(out["text"], strict=True)
    except (ParseError, SortError, RecursionError) as err:
        return "wrong", f"emitted text does not re-parse strictly: {type(err).__name__}: {err}"
    return None
