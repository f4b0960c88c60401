"""Clauses of equational and predicate literals."""

from __future__ import annotations

from collections.abc import Iterable

from ..terms import App, Record, Sort, Term, Value, Var, subterm_positions, term_to_str


class Literal(Value):
    """An equation ``lhs = rhs`` or, when rhs is None, a predicate atom.

    Predicate atoms keep the symbols that the emission step classified as
    predicates; everything else travels as an equation.  ``__init__`` sets
    the slots through their descriptors, which ``Value.__setattr__`` does
    not guard, so a literal is built without an ``object.__setattr__``
    call per field and is still immutable.
    """

    __slots__ = _fields = ("positive", "lhs", "rhs")

    def __init__(self, positive: bool, lhs: Term, rhs: Term | None = None) -> None:
        _set_positive(self, positive)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)

    @property
    def is_equation(self) -> bool:
        return self.rhs is not None

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.lhs, self.rhs)

    def terms(self) -> tuple[Term, ...]:
        if self.rhs is None:
            return (self.lhs,)
        return (self.lhs, self.rhs)

    def render(self) -> str:
        if self.is_equation:
            op = "=" if self.positive else "!="
            return f"{term_to_str(self.lhs)} {op} {term_to_str(self.rhs)}"
        text = term_to_str(self.lhs)
        return text if self.positive else f"~{text}"


_set_positive, _set_lhs, _set_rhs = (getattr(Literal, f).__set__ for f in Literal._fields)


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


def judge_literals(literals: Iterable[Literal]) -> tuple[tuple[Literal, ...], bool, bool]:
    """The literals without repeats of a sign and atom, first kept; whether
    they form a tautology: some literal is ``t = t``, or some atom occurs
    with both signs; and whether some literal equates two distinct
    variables.

    Atoms are the same when their predicate terms, or their equation sides
    either way round, are equal.  A literal is compared only with kept ones
    of its head symbols, a variable's being its name: no term is hashed.
    A dropped repeat has the sides of a kept literal, so the last flag
    reads the same on the kept literals as on all of them.
    """
    kept, out = [], []  # (head symbols, literal) pairs, and the literals
    tautology = var_var = False
    for lit in literals:
        lhs, rhs = lit.lhs, lit.rhs
        a = lhs.name if lhs.__class__ is Var else lhs.fn
        if rhs is None:
            head = (a, None)
        else:
            if rhs.__class__ is Var:
                b = rhs.name
                if lhs.__class__ is Var and a != b:
                    var_var = True
            else:
                b = rhs.fn
            head = (a, b) if a <= b else (b, a)
        for other_head, other in kept:
            if other_head == head and (other.lhs, other.rhs) in ((lhs, rhs), (rhs, lhs)):
                if other.positive == lit.positive:
                    break
                tautology = True
        else:
            # sides of different head symbols differ
            if lit.positive and rhs is not None and a == b and (lhs is rhs or lhs == rhs):
                tautology = True
            kept.append((head, lit))
            out.append(lit)
    return tuple(out), tautology, var_var
