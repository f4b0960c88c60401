"""Knuth-Bendix ordering with the truth constants pinned smallest.

Unit weights throughout; precedence is false, then true, then all other
symbols by arity and name.  Both are fixed, not configurable.  That
makes true and false the two smallest ground terms of every sort and
orients ``anything = true`` the way the boolean handling needs.

Literals compare by the multiset extension of the KBO over their
equation sides.  A multiset is a plain list, built once per literal when
``maximal_literal_indices`` orders a clause, and ``multiset_greater``
cancels common elements by list removal; the eligible literals are those
of counting multisets.

``maximal_literal_indices`` also takes each literal's variable set once
and compares a pair only when the smaller candidate's variables are a
subset of the larger's.  The filter is exact: ``s > t`` in the KBO
implies vars(t) ⊆ vars(s), so a literal is greater than another only if
it has all of the other's variables (Löchner, "Things to Know when
Implementing KBO", JAR 2006).  Every pair it skips would compare False.
"""

from __future__ import annotations

from ..terms import App, FALSE_NAME, TRUE, Term, TRUE_NAME, Var
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


def _literal_multiset(lit: Literal) -> list[Term]:
    """Positive s=t compares as {s, t}; negative as {s, s, t, t}.
    Predicate atoms compare via their atom-equals-true encoding."""
    rhs = lit.rhs if lit.rhs is not None else TRUE
    if lit.positive:
        return [lit.lhs, rhs]
    return [lit.lhs, lit.lhs, rhs, rhs]


def multiset_greater(a: list[Term], b: list[Term]) -> bool:
    """a > b in the multiset extension of the KBO: after cancelling the
    elements a and b have in common, every element left in b is below
    some element left in a, and something is left."""
    only_b = list(b)
    only_a = []
    for x in a:
        if x in only_b:
            only_b.remove(x)
        else:
            only_a.append(x)
    if not only_a and not only_b:
        return False
    return all(any(kbo_greater(x, y) for x in only_a) for y in only_b)


def literal_greater(l1: Literal, l2: Literal) -> bool:
    return multiset_greater(_literal_multiset(l1), _literal_multiset(l2))


def maximal_literal_indices(clause: Clause) -> list[int]:
    """Indices of literals with no strictly greater literal in the clause.

    With no selection function, exactly these literals are eligible for
    inferences.  Each literal's multiset and variable set are built once
    per call, and only a literal with all of lit's variables is compared
    with lit: no other can be greater.
    """
    multisets = [_literal_multiset(lit) for lit in clause.literals]
    variables = [{v for t in lit.terms() for v in term_vars(t, [])} for lit in clause.literals]
    maximal = []
    for i, ms in enumerate(multisets):
        below = variables[i]
        for j, other in enumerate(multisets):
            if j != i and below <= variables[j] and multiset_greater(other, ms):
                break
        else:
            maximal.append(i)
    return maximal
