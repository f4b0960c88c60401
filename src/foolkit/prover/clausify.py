"""Clause normal form for lowered problems.

One polarity-directed walk per formula gives its clauses: it skolemizes
(skolem arguments are the universal variables in scope), takes the
negation normal form and distributes or over and as it goes, and leaves
each clause as a list of ``(sign, atom, subst)`` leaves, the atom not yet
substituted.  Fresh ``V<k>`` and skolem names follow the normal form left
to right.  One renaming walk per clause then applies each leaf's
substitution and names the variables ``X0, X1, ...`` by first
occurrence.  The result is equisatisfiable; skolem symbols are the first
``sk_fool_<n>`` names, counted from 0, that the problem's context does
not hold, so they never collide with a symbol of the lowered problem.
"""

from __future__ import annotations

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
    Record,
    Sort,
    Term,
    TRUE_NAME,
    TypeContext,
    TypeSig,
    Var,
)
from ..translate import FolProblem
from .clauses import Clause, Literal, judge_literals

# a literal before renaming: its sign, its atom and the substitution of
# the atom's bound variables
Leaf = tuple[bool, Term, dict[str, Term]]


class ClauseExplosion(Exception):
    """Distribution exceeded the configured clause cap."""


class ClausifyResult(Record):
    __slots__ = _fields = ("clauses", "ctx")

    def __init__(self, clauses: list[Clause], ctx: TypeContext) -> None:
        self.clauses, self.ctx = clauses, ctx


def clausify(problem: FolProblem, max_clauses: int = 10_000) -> ClausifyResult:
    """Clauses for the problem's axioms and goal, with the extended
    context covering the introduced skolem symbols.  Every formula must
    be closed, as a lowered problem's are: a free variable, which has no
    sort, raises ``ValueError``."""
    state = _Clausifier(problem.ctx, max_clauses)
    clauses: list[Clause] = []
    for formula in [*problem.axioms, problem.goal]:
        for leaves in state.cnf(formula, True, [], {}):
            clause = state.clause(leaves)
            if clause is not None:
                clauses.append(clause)
        state.check(len(clauses))
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

    def check(self, count: int) -> None:
        if count > self.max_clauses:
            raise ClauseExplosion(f"more than {self.max_clauses} clauses")

    # -- skolemized, distributed negation normal form ------------------

    def cnf(
        self, t: Term, positive: bool, univ: list[tuple[str, Sort]], subst: dict[str, Term]
    ) -> list[list[Leaf]]:
        """The clauses of t (of its negation when not positive) as leaf
        lists: universal variables renamed to fresh ones, existential ones
        replaced by skolem terms over the universal variables in scope.
        Negations and quantifiers unwind in place; a conjunction's clause
        count is checked after each side, a disjunction's product before
        it is built.  An equivalence's sides are visited twice, once per
        polarity."""
        while True:
            kind = type(t)
            if kind is App and t.fn == NOT:
                t, positive = t.args[0], not positive
            elif kind is Forall or kind is Exists:
                if (kind is Forall) == positive:
                    fresh = self.fresh_var(t.sort)
                    subst = {**subst, t.var: Var(fresh)}
                    univ = univ + [(fresh, t.sort)]
                else:
                    sk = self.fresh_skolem()
                    self.ctx = self.ctx.with_fn(sk, TypeSig(tuple(s for _, s in univ), t.sort))
                    subst = {**subst, t.var: App(sk, tuple(Var(v) for v, _ in univ))}
                t = t.body
            else:
                break
        if kind is App and t.fn == IFF:
            a, b = t.args
            out = self.disjoin(self.cnf(a, not positive, univ, subst), self.cnf(b, True, univ, subst))
            self.check(len(out))
            out += self.disjoin(self.cnf(a, positive, univ, subst), self.cnf(b, False, univ, subst))
            self.check(len(out))
            return out
        if kind is App and t.fn in (AND, OR, IMPLIES):
            a, b = t.args
            left = self.cnf(a, positive != (t.fn == IMPLIES), univ, subst)
            if (t.fn == AND) != positive:
                return self.disjoin(left, self.cnf(b, positive, univ, subst))
            self.check(len(left))
            left += self.cnf(b, positive, univ, subst)
            self.check(len(left))
            return left
        if kind is Eq or kind is App:
            # an atom: predicate application, equation or truth constant (a
            # boolean variable in formula context is a redex translation removes)
            return [[(positive, t, subst)]]
        raise TypeError(f"clausification expects first-order input, got {t!r}")

    def disjoin(self, left: list[list[Leaf]], right: list[list[Leaf]]) -> list[list[Leaf]]:
        self.check(len(left) * len(right))
        return [a + b for a in left for b in right]

    # -- literals and canonical variable names -------------------------

    def clause(self, leaves: list[Leaf]) -> Clause | None:
        """The clause of the leaves, its variables named X0, X1, ... by
        first occurrence; None when it is trivially valid (contains a true
        atom)."""
        names: dict[str, Var] = {}
        sorts: dict[str, Sort] = {}
        literals: list[Literal] = []
        for positive, atom, subst in leaves:
            if type(atom) is Eq:
                left = self.rename(atom.left, subst, names, sorts)
                literals.append(Literal(positive, left, self.rename(atom.right, subst, names, sorts)))
            elif type(atom) is not App:
                raise TypeError(f"unexpected clause atom {atom!r}")
            elif atom.fn == TRUE_NAME or atom.fn == FALSE_NAME:
                if positive == (atom.fn == TRUE_NAME):
                    return None
            else:
                literals.append(Literal(positive, self.rename(atom, subst, names, sorts)))
        # renaming is injective and a dropped repeat names no new variable
        return Clause(judge_literals(literals)[0], sorts)

    def rename(
        self, t: Term, subst: dict[str, Term], names: dict[str, Var], sorts: dict[str, Sort]
    ) -> Term:
        """t under subst, each variable of the result renamed through
        names, which gains the next ``X<i>`` for a variable met first.  A
        substituted value is renamed, not substituted again; a ground
        subterm comes back as the same object."""
        kind = type(t)
        if kind is Var:
            value = subst.get(t.name)
            if value is not None:
                return self.rename(value, {}, names, sorts)
            new = names.get(t.name)
            if new is None:
                new = names[t.name] = Var(f"X{len(names)}")
                try:
                    sorts[new.name] = self.var_sorts[t.name]
                except KeyError:
                    raise ValueError(f"free variable {t.name!r}: clausify takes closed formulas") from None
            return new
        if kind is not App:
            raise TypeError("clause terms contain only variables and applications")
        args = None
        for k, a in enumerate(t.args):
            new = self.rename(a, subst, names, sorts)
            if new is not a:
                args = args or list(t.args)
                args[k] = new
        return t if args is None else App(t.fn, args)
