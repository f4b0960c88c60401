#!/usr/bin/env python3
"""Check translations against the brute-force semantics oracle.

For every interpretation over small finite carriers: a model of the
input must extend to a model of the definitions plus the rewritten
formula, and every model of those must already satisfy the input.  A
deliberately corrupted translation shows the oracle has teeth.
"""

import copy

from foolkit import (
    DomainSpec,
    check_model_preservation,
    parse_problem,
    run_translation,
    term_to_str,
)

FORMULAS = [
    "tff(f, axiom, ![X : $o] : (X | ~X)).",
    "tff(f, axiom, $let(u : $o, u := ~$false, u & u)).",
    "tff(s, type, srt : $tType). tff(c, type, c0 : srt). tff(d, type, c1 : srt)."
    " tff(p, type, pp : $o)."
    " tff(f, axiom, $let(k : $o, k := pp, $ite(k, c0, c1)) = $ite(pp, c0, c1)).",
]

for text in FORMULAS:
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    sizes = {
        sort: 2
        for name, sort in problem.signature.sorts.items()
        if not sort.is_bool and not name.startswith("$")
    }
    report = check_model_preservation(phi, state, DomainSpec(sizes))
    print(f"{term_to_str(phi)[:60]:60s} -> {report.render()}")

# Now corrupt a translation: drop its definition and watch the oracle
# produce a concrete counterexample interpretation.
text = (
    "tff(s, type, srt : $tType). tff(d, type, f : $o > srt)."
    " tff(p, type, pp : $o). tff(q, type, qq : $o)."
    " tff(f1, axiom, f(pp & qq) = f($false))."
)
problem = parse_problem(text)
phi = problem.goal_formula()
state = run_translation(phi, problem.ctx)
sizes = {problem.signature.sort("srt"): 2}
print()
print("honest: ", check_model_preservation(phi, state, DomainSpec(sizes)).render())
corrupted = copy.copy(state)
corrupted.defs = []
report = check_model_preservation(phi, corrupted, DomainSpec(sizes))
print("corrupted:")
print(report.render())
