"""Command-line front door: check, translate, verify, prove, bench.

Exit codes are a stable contract: 0 success, 1 logic error (syntax, sort
or verification failure, or input nested too deeply), 2 I/O error
(including input that is not UTF-8 text), 3 enumeration overflow, 4
search limit hit.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import run_bench
from .prover import AXIOM_MODE, ClauseExplosion, ProverConfig, RULE_MODE, clausify, saturate
from .semantics import DEFAULT_CAP, DomainSpec, EnumerationOverflow, check_model_preservation
from .translate import run_translation, to_fol
from .tptp import ParseError, parse_problem, print_fol_tff0
from .typecheck import SortError

EXIT_OK = 0
EXIT_LOGIC = 1
EXIT_IO = 2
EXIT_OVERFLOW = 3
EXIT_LIMIT = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err
    except UnicodeDecodeError as err:
        print(f"error: {path}: not UTF-8 text: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err


def _load(path: str, strict: bool):
    text = _read(path)
    try:
        return parse_problem(text, strict=strict)
    except (ParseError, SortError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_LOGIC) from err


def _parse_domains(spec_text: str | None, problem) -> DomainSpec:
    sorts = {name: sort for name, sort in problem.signature.sorts.items() if not sort.is_bool}
    named = {}
    if spec_text:
        for chunk in spec_text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, sep, size = chunk.partition("=")
            name = name.strip()
            if not sep or not size.strip().isdecimal() or int(size) < 1:
                print(f"error: bad domain spec {chunk!r}, expected sort=size with size >= 1", file=sys.stderr)
                raise SystemExit(EXIT_IO)
            if name not in sorts:
                declared = ", ".join(sorts) or "none"
                print(
                    f"error: bad domain spec {chunk!r}, {name!r} is not a declared "
                    f"non-boolean sort (declared: {declared})",
                    file=sys.stderr,
                )
                raise SystemExit(EXIT_IO)
            if name in named:
                print(f"error: bad domain spec {chunk!r}, sort {name!r} is given twice", file=sys.stderr)
                raise SystemExit(EXIT_IO)
            named[name] = int(size)
    return DomainSpec({sort: named.get(name, 2) for name, sort in sorts.items()})


def cmd_check(args) -> int:
    problem = _load(args.input, args.strict)
    formulas = sum(1 for f in problem.formulas if f.role != "type")
    print(f"ok: {len(problem.formulas)} annotated formulas ({formulas} non-type)")
    return EXIT_OK


def _translate_problem(problem):
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    return state, to_fol(state)


def cmd_translate(args) -> int:
    problem = _load(args.input, args.strict)
    state, fol = _translate_problem(problem)
    text = print_fol_tff0(fol)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    counts = state.step_counts()
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none"
    print(f"steps: total={len(state.steps)} {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _load(args.input, args.strict)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    spec = _parse_domains(args.domains, problem)
    try:
        report = check_model_preservation(phi, state, spec, cap=args.cap)
    except EnumerationOverflow as err:
        print(f"error: enumeration overflow: {err}", file=sys.stderr)
        return EXIT_OVERFLOW
    print(report.render())
    return EXIT_OK if report.ok else EXIT_LOGIC


def cmd_prove(args) -> int:
    problem = _load(args.input, args.strict)
    _, fol = _translate_problem(problem)
    try:
        result = clausify(fol)
    except ClauseExplosion as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT
    config = ProverConfig(
        bool_mode=args.mode,
        max_clauses=args.max_clauses,
        max_seconds=args.max_seconds,
    )
    outcome = saturate(result.clauses, result.ctx, config)
    print(f"verdict={outcome.verdict}")
    print(outcome.render_stats())
    if outcome.verdict == "refuted":
        print("proof:")
        print(outcome.render_proof())
    return EXIT_LIMIT if outcome.verdict == "limit" else EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    rows = run_bench(args.k, args.max_clauses, args.max_seconds)
    header = (
        "k axiom_generated axiom_kept axiom_seconds rule_generated rule_kept rule_seconds"
    )
    print(header)
    for row in rows:
        a, r = row[AXIOM_MODE], row[RULE_MODE]
        print(
            f"{row['k']} {a['generated']} {a['kept']} {a['seconds']:.3f} "
            f"{r['generated']} {r['kept']} {r['seconds']:.3f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def _positive(convert):
    """An argparse type: ``convert`` the text and reject values <= 0."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
        return value

    return parse


def _sizes(text: str) -> list[int]:
    """An argparse type: comma-separated fixture sizes, each >= 0."""
    try:
        sizes = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        sizes = None
    if sizes is None or any(k < 0 for k in sizes):
        raise argparse.ArgumentTypeError(f"expected sizes >= 0, got {text!r}")
    return sizes


MAX_CLAUSES_HELP = (
    "cap on generated clauses; it is checked before each given clause, so "
    "the last given clause's inferences can overshoot it"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foolkit",
        description="Check, translate, verify and refute problems with a "
        "first-class boolean sort.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--strict", action="store_true", help="strict grammar, no dialect extensions")

    p_check = sub.add_parser("check", help="parse and sort-check a problem")
    p_check.add_argument("input")
    add_common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_tr = sub.add_parser("translate", help="lower to standard typed first-order text")
    p_tr.add_argument("input")
    p_tr.add_argument("--out", help="output path (default: stdout)")
    add_common(p_tr)
    p_tr.set_defaults(fn=cmd_translate)

    p_ver = sub.add_parser("verify", help="check model preservation by enumeration")
    p_ver.add_argument("input")
    p_ver.add_argument("--domains", help="carrier sizes, e.g. s=2,list=3 (default 2)")
    p_ver.add_argument("--cap", type=_positive(int), default=DEFAULT_CAP, help="interpretation cap")
    add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_prove = sub.add_parser("prove", help="translate, clausify and saturate")
    p_prove.add_argument("input")
    p_prove.add_argument("--mode", choices=[AXIOM_MODE, RULE_MODE], default=RULE_MODE)
    p_prove.add_argument(
        "--max-clauses", type=_positive(int), default=ProverConfig.max_clauses, help=MAX_CLAUSES_HELP
    )
    p_prove.add_argument("--max-seconds", type=_positive(float), default=ProverConfig.max_seconds)
    add_common(p_prove)
    p_prove.set_defaults(fn=cmd_prove)

    p_bench = sub.add_parser("bench", help="compare the boolean handling modes")
    p_bench.add_argument("--k", type=_sizes, default="1,2,3,4,5", help="comma-separated sizes")
    p_bench.add_argument(
        "--max-clauses", type=_positive(int), default=2_000, help=MAX_CLAUSES_HELP
    )
    p_bench.add_argument("--max-seconds", type=_positive(float), default=ProverConfig.max_seconds)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except SystemExit as err:
        return int(err.code or 0)
    except RecursionError:
        # some walkers recurse once per nesting level of the input
        print("error: input is nested too deeply (maximum recursion depth exceeded)", file=sys.stderr)
        return EXIT_LOGIC
    except BrokenPipeError:
        # the reader closed standard output; point it at the null device
        # so the interpreter's own flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
