"""Knuth-Bendix ordering with the truth constants pinned smallest.

Unit weights throughout; precedence is false, then true, then all other
symbols by arity and name.  Both are fixed, not configurable.  That
makes true and false the two smallest ground terms of every sort and
orients ``anything = true`` the way the boolean handling needs.
"""

from __future__ import annotations

from collections import Counter

from ..terms import App, FALSE_NAME, Term, TRUE_NAME, Var
from .clauses import Clause, Literal, term_vars


def term_weight(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    total = 1
    for a in t.args:
        total += term_weight(a)
    return total


def _precedence(t: App):
    if t.fn == FALSE_NAME:
        return (0, 0, "")
    if t.fn == TRUE_NAME:
        return (1, 0, "")
    return (2, len(t.args), t.fn)


def kbo_greater(s: Term, t: Term) -> bool:
    """s > t in the Knuth-Bendix ordering."""
    if s == t:
        return False
    # each variable must occur in s at least as often as in t
    unmatched = term_vars(s, [])
    for var in term_vars(t, []):
        if var not in unmatched:
            return False
        unmatched.remove(var)
    ws, wt = term_weight(s), term_weight(t)
    if ws > wt:
        return True
    if ws < wt:
        return False
    if isinstance(s, Var) or isinstance(t, Var):
        # Equal weight with a variable on either side never orients.
        return False
    ks, kt = _precedence(s), _precedence(t)
    if ks > kt:
        return True
    if ks < kt:
        return False
    for a, b in zip(s.args, t.args):
        if a != b:
            return kbo_greater(a, b)
    return False


def kbo_greater_or_equal(s: Term, t: Term) -> bool:
    return s == t or kbo_greater(s, t)


# ---------------------------------------------------------------------------
# literal ordering: multiset extension over equation encodings


def _literal_multiset(lit: Literal) -> Counter:
    """Positive s=t compares as {s, t}; negative as {s, s, t, t}.
    Predicate atoms compare via their atom-equals-true encoding."""
    rhs = lit.rhs if lit.rhs is not None else App(TRUE_NAME)
    sides = [lit.lhs, rhs]
    ms: Counter = Counter()
    for side in sides:
        ms[side] += 1 if lit.positive else 2
    return ms


def multiset_greater(a: Counter, b: Counter) -> bool:
    if a == b:
        return False
    only_a = a - b
    only_b = b - a
    for y in only_b:
        if not any(kbo_greater(x, y) for x in only_a):
            return False
    return True


def literal_greater(l1: Literal, l2: Literal) -> bool:
    return multiset_greater(_literal_multiset(l1), _literal_multiset(l2))


def maximal_literal_indices(clause: Clause) -> list[int]:
    """Indices of literals with no strictly greater literal in the clause.

    With no selection function, exactly these literals are eligible for
    inferences.
    """
    out = []
    for i, lit in enumerate(clause.literals):
        if not any(
            literal_greater(other, lit)
            for j, other in enumerate(clause.literals)
            if j != i
        ):
            out.append(i)
    return out
