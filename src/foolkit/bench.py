"""The mode comparison behind ``foolkit bench``: a fixture family whose
only difference between the two boolean treatments is the boolean
handling, run in both modes under equal limits."""

from __future__ import annotations

import time

from .prover import AXIOM_MODE, Clause, Literal, ProverConfig, RULE_MODE, saturate
from .terms import App, BOOL, FALSE, Signature, TRUE, TypeContext, TypeSig, Var


def bench_fixture(k: int) -> tuple[list[Clause], TypeContext]:
    """k hypotheses P(f_i(c)) over boolean-valued f_i plus an unprovable
    goal, so the search saturates and the boolean handling is the only
    difference between the modes."""
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("c", TypeSig((), s))
    sig.declare_fn("p", TypeSig((BOOL,), BOOL))
    sig.declare_fn("goal_p", TypeSig((), BOOL))
    clauses = []
    for i in range(1, k + 1):
        sig.declare_fn(f"f{i}", TypeSig((s,), BOOL))
        atom = App("p", (App(f"f{i}", (App("c"),)),))
        clauses.append(Clause((Literal(True, atom),), {}))
    clauses.append(Clause((Literal(False, App("goal_p")),), {}))
    return clauses, TypeContext.of(sig)


def _support_clauses(mode: str) -> list[Clause]:
    """Distinctness of the truth constants, plus the two-element domain
    clause in axiom mode (rule mode replaces it with the inference rule)."""
    x = Var("X0")
    distinct = Clause((Literal(False, TRUE, FALSE),), {})
    if mode == AXIOM_MODE:
        domain = Clause(
            (Literal(True, x, TRUE), Literal(True, x, FALSE)), {"X0": BOOL}
        )
        return [domain, distinct]
    return [distinct]


def run_bench(k_values, max_clauses: int, max_seconds: float):
    """Run both modes on the fixture family under equal limits.

    Each mode gets a given-clause budget of its own input count plus
    2k + 2: enough for the rule treatment to saturate the whole family,
    while the axiom treatment's generated-clause counts stay deterministic
    (it would otherwise run away on its derived variable equations).
    """
    rows = []
    for k in k_values:
        row = {"k": k}
        base, ctx = bench_fixture(k)
        # the fixture mentions a boolean term exactly when it has hypotheses
        needs_bool = k > 0
        for mode in (AXIOM_MODE, RULE_MODE):
            clauses = list(base)
            if needs_bool:
                clauses.extend(_support_clauses(mode))
            config = ProverConfig(
                bool_mode=mode,
                max_clauses=max_clauses,
                max_seconds=max_seconds,
                max_processed=len(clauses) + 2 * k + 2,
            )
            started = time.monotonic()
            outcome = saturate(clauses, ctx, config)
            elapsed = time.monotonic() - started
            row[mode] = {
                "generated": int(outcome.stats["generated"]),
                "kept": int(outcome.stats["kept"]),
                "var_var_equations": int(outcome.stats["var_var_equation_clauses"]),
                "verdict": outcome.verdict,
                "seconds": elapsed,
            }
        rows.append(row)
    return rows
