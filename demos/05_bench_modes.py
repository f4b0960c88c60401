#!/usr/bin/env python3
"""Measure how the two boolean treatments scale.

The fixture family has k hypotheses p(f_i(c)) over boolean-valued f_i
and an unprovable goal, so saturation runs until a budget is hit.  With
the domain clause present, every boolean subterm is a paramodulation
target and derived variable equations multiply the damage; the dedicated
rule generates a linear number of clauses instead.
"""

from foolkit.bench import run_bench

rows = run_bench([0, 1, 2, 3, 4, 5], max_clauses=100_000, max_seconds=60)

print(f"{'k':>2} {'axiom generated':>16} {'rule generated':>15}   verdicts")
for row in rows:
    axiom, rule = row["axiom"], row["rule"]
    print(
        f"{row['k']:>2} {axiom['generated']:>16} {rule['generated']:>15}"
        f"   {axiom['verdict']}/{rule['verdict']}"
    )

print()
print("rule mode saturates with O(k) clauses; axiom mode runs into its")
print("budget as soon as a single boolean subterm exists (k >= 1).")
