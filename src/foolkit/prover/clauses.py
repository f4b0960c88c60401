"""Clauses of equational and predicate literals."""

from __future__ import annotations

from collections.abc import Iterable

from ..terms import App, Record, Sort, Term, Value, Var, subterm_positions, term_to_str

_set = object.__setattr__


class Literal(Value):
    """An equation ``lhs = rhs`` or, when rhs is None, a predicate atom.

    Predicate atoms keep the symbols that the emission step classified as
    predicates; everything else travels as an equation.
    """

    __slots__ = _fields = ("positive", "lhs", "rhs")

    def __init__(self, positive: bool, lhs: Term, rhs: Term | None = None) -> None:
        _set(self, "positive", positive)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    @property
    def is_equation(self) -> bool:
        return self.rhs is not None

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.lhs, self.rhs)

    def terms(self) -> tuple[Term, ...]:
        if self.rhs is None:
            return (self.lhs,)
        return (self.lhs, self.rhs)

    def atom(self) -> Term | frozenset[Term]:
        """The predicate term, or the set of the two equation sides: the
        one key under which literals have the same atom."""
        return self.lhs if self.rhs is None else frozenset((self.lhs, self.rhs))

    def render(self) -> str:
        if self.is_equation:
            op = "=" if self.positive else "!="
            return f"{term_to_str(self.lhs)} {op} {term_to_str(self.rhs)}"
        text = term_to_str(self.lhs)
        return text if self.positive else f"~{text}"


class Clause(Record):
    """A multiset of literals; the empty clause is the refutation witness."""

    __slots__ = _fields = ("literals", "var_sorts", "id", "rule", "parents")

    def __init__(
        self,
        literals: tuple[Literal, ...],
        var_sorts: dict[str, Sort] | None = None,
        id: int = -1,
        rule: str = "input",
        parents: tuple[int, ...] = (),
    ) -> None:
        self.literals, self.id, self.rule, self.parents = literals, id, rule, parents
        self.var_sorts = {} if var_sorts is None else var_sorts

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def variable_occurrences(self) -> list[str]:
        """Every variable occurrence, literal by literal, leftmost first."""
        out: list[str] = []
        for lit in self.literals:
            for t in lit.terms():
                term_vars(t, out)
        return out

    def variables(self) -> set[str]:
        return set(self.variable_occurrences())

    def trimmed_var_sorts(self) -> dict[str, Sort]:
        occurring = self.variables()
        return {v: s for v, s in self.var_sorts.items() if v in occurring}

    def render(self) -> str:
        if not self.literals:
            return "$false"
        return " | ".join(lit.render() for lit in self.literals)


def term_vars(t: Term, out: list[str]) -> list[str]:
    """Append every variable occurrence in t to out, leftmost first.

    The one variable walker over clause terms: callers take a set, a
    count or the first-occurrence order of the result.
    """
    if isinstance(t, Var):
        out.append(t.name)
    elif isinstance(t, App):
        for a in t.args:
            term_vars(a, out)
    else:
        raise TypeError("clause terms contain only variables and applications")
    return out


def term_positions(lit: Literal):
    """(side index, path, subterm) for every term position of the literal,
    side by side, each in pre-order: a predicate atom itself is not a
    term position, its arguments are."""
    for side, term in enumerate(lit.terms()):
        for path, sub in subterm_positions(term):
            if path or lit.is_equation:
                yield side, path, sub


def judge_literals(literals: Iterable[Literal]) -> tuple[tuple[Literal, ...], bool]:
    """The literals without repeats of a sign and atom, first kept, and
    whether they form a tautology: some literal is ``t = t``, or some atom
    occurs with both signs.

    One pass with one ``atom()`` per literal; ``t = t`` is the equation
    whose atom holds one term.
    """
    signs: dict = {}
    kept = []
    tautology = False
    for lit in literals:
        atom = lit.atom()
        sign = 1 if lit.positive else 2
        seen = signs.get(atom, 0)
        if seen & sign:
            continue
        if seen or (lit.positive and lit.rhs is not None and len(atom) == 1):
            tautology = True
        signs[atom] = seen | sign
        kept.append(lit)
    return tuple(kept), tautology
