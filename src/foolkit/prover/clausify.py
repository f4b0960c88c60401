"""Clause normal form for lowered problems.

One polarity-directed walk gives the skolemized negation normal form
(skolem arguments are the universal variables in scope), then naive
or-over-and distribution.  The result is equisatisfiable; skolem symbols
are the first ``sk_fool_<n>`` names, counted from 0, that the problem's
context does not hold, so they never collide with a symbol of the
lowered problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..terms import (
    AND,
    App,
    Eq,
    Exists,
    FALSE_NAME,
    Forall,
    IFF,
    IMPLIES,
    NOT,
    OR,
    FRESH_PREFIX,
    Sort,
    Term,
    TRUE_NAME,
    TypeContext,
    TypeSig,
    Var,
    subst_free_vars,
)
from ..translate import FolProblem
from .clauses import Clause, Literal, judge_literals
from .unification import apply_subst_literal


class ClauseExplosion(Exception):
    """Distribution exceeded the configured clause cap."""


@dataclass
class ClausifyResult:
    clauses: list[Clause]
    ctx: TypeContext


def clausify(problem: FolProblem, max_clauses: int = 10_000) -> ClausifyResult:
    """Clauses for the problem's axioms and goal, with the extended
    context covering the introduced skolem symbols."""
    state = _Clausifier(problem.ctx, max_clauses)
    clauses: list[Clause] = []
    for formula in [*problem.axioms, problem.goal]:
        clauses.extend(state.formula_clauses(formula))
        if len(clauses) > max_clauses:
            raise ClauseExplosion(f"more than {max_clauses} clauses")
    return ClausifyResult(clauses, state.ctx)


class _Clausifier:
    def __init__(self, ctx: TypeContext, max_clauses: int) -> None:
        self.ctx = ctx
        self.counter = 0
        self.max_clauses = max_clauses
        self.var_counter = 0
        self.var_sorts: dict[str, Sort] = {}

    def fresh_skolem(self) -> str:
        while True:
            name = f"{FRESH_PREFIX}{self.counter}"
            self.counter += 1
            if self.ctx.fn_sig(name) is None:
                return name

    def fresh_var(self, sort: Sort) -> str:
        name = f"V{self.var_counter}"
        self.var_counter += 1
        self.var_sorts[name] = sort
        return name

    # -- negation normal form and skolemization ------------------------

    def skolemize(
        self, t: Term, positive: bool, univ: list[tuple[str, Sort]], subst: dict[str, Term]
    ) -> Term:
        """The negation normal form of t (of its negation when not
        positive), universal variables renamed to fresh ones, existential
        ones replaced by skolem terms over the universal variables in
        scope.  Fresh names follow the normal form left to right: an
        equivalence's sides are visited twice, once per polarity."""
        if isinstance(t, App) and t.fn == NOT:
            return self.skolemize(t.args[0], not positive, univ, subst)
        if isinstance(t, App) and t.fn in (AND, OR, IMPLIES):
            a, b = t.args
            left = self.skolemize(a, positive != (t.fn == IMPLIES), univ, subst)
            right = self.skolemize(b, positive, univ, subst)
            return App(AND if (t.fn == AND) == positive else OR, (left, right))
        if isinstance(t, App) and t.fn == IFF:
            a, b = t.args
            first, second = (
                App(OR, (self.skolemize(a, pa, univ, subst), self.skolemize(b, pb, univ, subst)))
                for pa, pb in ((not positive, True), (positive, False))
            )
            return App(AND, (first, second))
        if isinstance(t, (Forall, Exists)):
            if isinstance(t, Forall) == positive:
                fresh = self.fresh_var(t.sort)
                inner = {**subst, t.var: Var(fresh)}
                return self.skolemize(t.body, positive, univ + [(fresh, t.sort)], inner)
            sk = self.fresh_skolem()
            self.ctx = self.ctx.with_fn(sk, TypeSig(tuple(s for _, s in univ), t.sort))
            witness = App(sk, tuple(Var(v) for v, _ in univ))
            return self.skolemize(t.body, positive, univ, {**subst, t.var: witness})
        if isinstance(t, (Eq, App, Var)):
            # an atom: predicate application, equation or truth constant (a
            # boolean variable cannot occur here after translation)
            atom = subst_free_vars(t, subst)
            return atom if positive else App(NOT, (atom,))
        raise TypeError(f"clausification expects first-order input, got {t!r}")

    # -- distribution ------------------------------------------------------

    def distribute(self, t: Term) -> list[list[Term]]:
        if isinstance(t, App) and t.fn == AND:
            out = []
            for part in t.args:
                out.extend(self.distribute(part))
                if len(out) > self.max_clauses:
                    raise ClauseExplosion(f"more than {self.max_clauses} clauses")
            return out
        if isinstance(t, App) and t.fn == OR:
            left = self.distribute(t.args[0])
            right = self.distribute(t.args[1])
            if len(left) * len(right) > self.max_clauses:
                raise ClauseExplosion(f"more than {self.max_clauses} clauses")
            return [a + b for a in left for b in right]
        return [[t]]

    # -- literal conversion -------------------------------------------------

    def to_clause(self, leaves: list[Term]) -> Clause | None:
        """None when the clause is trivially valid (contains a true atom)."""
        literals: list[Literal] = []
        for leaf in leaves:
            positive = True
            atom = leaf
            if isinstance(atom, App) and atom.fn == NOT:
                positive = False
                atom = atom.args[0]
            if isinstance(atom, App) and atom.fn == TRUE_NAME:
                if positive:
                    return None
                continue
            if isinstance(atom, App) and atom.fn == FALSE_NAME:
                if positive:
                    continue
                return None
            if isinstance(atom, Eq):
                literals.append(Literal(positive, atom.left, atom.right))
            elif isinstance(atom, App):
                literals.append(Literal(positive, atom))
            else:
                raise TypeError(f"unexpected clause atom {atom!r}")
        # _canonicalize keeps only the sorts of the variables that occur
        return Clause(judge_literals(literals)[0], self.var_sorts)

    def formula_clauses(self, formula: Term) -> list[Clause]:
        tree = self.skolemize(formula, True, [], {})
        out = []
        for leaves in self.distribute(tree):
            clause = self.to_clause(leaves)
            if clause is not None:
                out.append(_canonicalize(clause))
        return out


def _canonicalize(clause: Clause) -> Clause:
    """Rename clause variables to X0, X1, ... by first occurrence."""
    order = dict.fromkeys(clause.variable_occurrences())
    mapping = {v: Var(f"X{i}") for i, v in enumerate(order)}
    sorts = {f"X{i}": clause.var_sorts[v] for i, v in enumerate(order)}
    literals = tuple(apply_subst_literal(lit, mapping) for lit in clause.literals)
    return Clause(literals, sorts)
