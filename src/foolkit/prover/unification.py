"""Unification, matching and renaming over clause-level terms, and the
literal-shape index that finds subsumption-by-variant candidates.

Clause terms are variables and applications; unification is sort-free.

Substitution returns a subterm in which it binds no variable as the same
object, so ground and untouched arguments are shared, not rebuilt.  The
kernels every conclusion pays for are plain loops with exact-class tests
that walk nothing under an empty substitution; ``unify_atoms`` hands
each orientation's pairs to ``unify`` itself.

The variant test backtracks over both orientations of an equation: a
literal ``Y != X`` maps onto ``U != V`` as ``Y -> U, X -> V`` or as
``Y -> V, X -> U``, and the other literals decide which.
"""

from __future__ import annotations

from ..terms import App, Sort, Term, Var
from .clauses import Clause, Literal

Subst = dict[str, Term]


def apply_subst(t: Term, subst: Subst) -> Term:
    """t under subst.  A subterm in which subst binds no variable comes
    back as the same object, so ground and untouched arguments are shared,
    not rebuilt."""
    if t.__class__ is Var:
        return subst.get(t.name, t)
    if not subst:
        return t
    args = None
    for k, a in enumerate(t.args):
        new = subst.get(a.name, a) if a.__class__ is Var else apply_subst(a, subst)
        if new is not a:
            args = args or list(t.args)
            args[k] = new
    return t if args is None else App(t.fn, args)


def apply_subst_literal(lit: Literal, subst: Subst) -> Literal:
    lhs = apply_subst(lit.lhs, subst)
    rhs = apply_subst(lit.rhs, subst) if lit.rhs is not None else None
    if lhs is lit.lhs and rhs is lit.rhs:
        return lit
    return Literal(lit.positive, lhs, rhs)


def occurs(name: str, t: Term) -> bool:
    if t.__class__ is Var:
        return t.name == name
    for a in t.args:
        if occurs(name, a):
            return True
    return False


def unify(pairs: list[tuple[Term, Term]]) -> Subst | None:
    """Idempotent most general simultaneous unifier of the pairs, with
    occurs check, or None.

    The pairs are solved first to last on one stack, so the bindings,
    and with them the names in every conclusion, follow that order.
    """
    subst: Subst = {}
    stack = pairs[::-1]
    while stack:
        a, b = stack.pop()
        if subst:
            a, b = apply_subst(a, subst), apply_subst(b, subst)
        if a.__class__ is not Var:
            if b.__class__ is not Var:
                if a.fn != b.fn or len(a.args) != len(b.args):
                    return None
                stack.extend(zip(a.args, b.args))
                continue
            a, b = b, a
        elif b.__class__ is Var and a.name == b.name:
            continue
        if occurs(a.name, b):
            return None
        for key, value in subst.items():
            subst[key] = apply_subst(value, {a.name: b})
        subst[a.name] = b
    return subst


def mgu(s: Term, t: Term) -> Subst | None:
    """``unify`` of the one pair."""
    return unify([(s, t)])


def unify_atoms(l1: Literal, l2: Literal) -> list[Subst]:
    """Unifiers of two atoms, ignoring polarity; equations try both
    orientations."""
    if l1.rhs is None:
        if l2.rhs is not None or l1.lhs.fn != l2.lhs.fn:
            return []
        tries = (list(zip(l1.lhs.args, l2.lhs.args)),)
    elif l2.rhs is None:
        return []
    else:
        tries = ([(l1.lhs, l2.lhs), (l1.rhs, l2.rhs)], [(l1.lhs, l2.rhs), (l1.rhs, l2.lhs)])
    out = []
    for pairs in tries:
        theta = unify(pairs)
        if theta is not None:
            out.append(theta)
    return out


# ---------------------------------------------------------------------------
# renaming and variant subsumption


def rename_clause(clause: Clause, start: int) -> tuple[Clause, int]:
    """Rename the clause's variables, in sorted order, to fresh V<k> names."""
    return rename_variables(clause, sorted(clause.variables()), start)


def rename_variables(clause: Clause, names: list[str], start: int) -> tuple[Clause, int]:
    """Rename ``names``, which must list every variable of the clause, to
    ``V<start>, V<start+1>, ...`` in list order."""
    mapping: Subst = {}
    sorts: dict[str, Sort] = {}
    for k, var in enumerate(names, start):
        fresh = f"V{k}"
        mapping[var] = Var(fresh)
        sorts[fresh] = clause.var_sorts[var]
    literals = tuple(apply_subst_literal(lit, mapping) for lit in clause.literals)
    renamed = Clause(literals, sorts, clause.id, clause.rule, clause.parents)
    return renamed, start + len(names)


def _match_term(x: Term, y: Term, ren: dict[str, str]) -> dict[str, str] | None:
    """Extend an injective variable renaming so x maps onto y exactly."""
    if isinstance(x, Var):
        if not isinstance(y, Var):
            return None
        bound = ren.get(x.name)
        if bound is not None:
            return ren if bound == y.name else None
        if y.name in ren.values():
            return None
        return {**ren, x.name: y.name}
    if not isinstance(y, App) or x.fn != y.fn or len(x.args) != len(y.args):
        return None
    for xa, ya in zip(x.args, y.args):
        got = _match_term(xa, ya, ren)
        if got is None:
            return None
        ren = got
    return ren


def _match_literal(a: Literal, b: Literal, renaming: dict[str, str]) -> list[dict[str, str]]:
    """Every extension of an injective variable renaming that maps a onto
    b exactly: one at most for a predicate atom, one per orientation of
    b for an equation."""
    if a.positive != b.positive or a.is_equation != b.is_equation:
        return []
    if not a.is_equation:
        ren = _match_term(a.lhs, b.lhs, renaming)
        return [] if ren is None else [ren]
    out = []
    for left, right in ((b.lhs, b.rhs), (b.rhs, b.lhs)):
        ren = _match_term(a.lhs, left, renaming)
        if ren is not None:
            ren = _match_term(a.rhs, right, ren)
            if ren is not None:
                out.append(ren)
    return out


def _renames_into(
    c: tuple[Literal, ...], shapes: list[str], d: tuple[Literal, ...], slots: dict[str, list[int]]
) -> bool:
    """True when a variable renaming maps the literals c injectively into
    d.  ``shapes`` are the shapes of c's literals, ``slots`` the positions
    of d's literals by shape: a literal is tried only against the
    literals of its own shape, the only ones ``_match_literal`` can map
    it onto, in their order in d, and an equation both ways round."""

    def assign(i: int, used: frozenset[int], renaming: dict[str, str]) -> bool:
        if i == len(c):
            return True
        for j in slots.get(shapes[i], ()):
            if j in used:
                continue
            for got in _match_literal(c[i], d[j], renaming):
                if assign(i + 1, used | {j}, got):
                    return True
        return False

    return assign(0, frozenset(), {})


def _shapes(clause: Clause) -> list[str]:
    return [_literal_shape(lit) for lit in clause.literals]


def _slots(shapes: list[str]) -> dict[str, list[int]]:
    slots: dict[str, list[int]] = {}
    for j, shape in enumerate(shapes):
        slots.setdefault(shape, []).append(j)
    return slots


def subsumes_by_variant(c: Clause, d: Clause) -> bool:
    """True when a variable renaming maps c's literals injectively into d.

    This is the deliberately bounded subsumption test: variants and
    renamed sub-multisets only, no general substitution matching.
    """
    if len(c.literals) > len(d.literals):
        return False
    return _renames_into(c.literals, _shapes(c), d.literals, _slots(_shapes(d)))


def _skeleton(t: Term) -> str:
    if isinstance(t, Var):
        return "_"
    if not t.args:
        return t.fn
    return t.fn + "(" + ",".join(_skeleton(a) for a in t.args) + ")"


def _literal_shape(lit: Literal) -> str:
    """The literal's polarity and term skeleton, every variable written
    ``_``, with the two sides of an equation in sorted order.

    Literals that are variants of each other have equal shapes, so a
    clause subsumes another by variant only if its multiset of literal
    shapes is contained in the other's.
    """
    sign = "+" if lit.positive else "-"
    if lit.rhs is None:
        return sign + _skeleton(lit.lhs)
    a, b = sorted((_skeleton(lit.lhs), _skeleton(lit.rhs)))
    return f"{sign}{a}={b}"


class VariantIndex:
    """Clauses in a trie keyed by their sorted literal shapes, for forward
    subsumption by variant.

    Each clause is stored with its literal shapes, and a query's shapes
    are computed once per lookup; ``find_or_add`` stores the shapes its
    lookup computed.  A lookup walks only the paths spelled
    by sub-multisets of the query's shapes, so it reaches exactly the
    indexed clauses whose shape multiset the query's contains, and decides
    each by the search of ``subsumes_by_variant``, which pairs literals of
    equal shape only.  Shape equality is necessary for a literal to map
    onto another, so the answer is the same as trying every indexed clause
    against every literal.
    """

    def __init__(self) -> None:
        # a node is (clauses ending here with their shapes, children by next shape)
        self._root: tuple[list[tuple[Clause, list[str]]], dict] = ([], {})

    def add(self, clause: Clause) -> None:
        self._add(clause, _shapes(clause))

    def find(self, clause: Clause) -> Clause | None:
        """An indexed clause that subsumes ``clause`` by variant, or None."""
        return self._find(clause, _shapes(clause))

    def find_or_add(self, clause: Clause) -> Clause | None:
        """Like ``find``, but index ``clause`` when nothing subsumes it; its
        shapes are computed once for both."""
        shapes = _shapes(clause)
        found = self._find(clause, shapes)
        if found is None:
            self._add(clause, shapes)
        return found

    def _add(self, clause: Clause, shapes: list[str]) -> None:
        node = self._root
        for shape in sorted(shapes):
            node = node[1].setdefault(shape, ([], {}))
        node[0].append((clause, shapes))

    def _find(self, clause: Clause, shapes: list[str]) -> Clause | None:
        slots = _slots(shapes)
        ordered = sorted(shapes)
        stack = [(self._root, 0)]
        while stack:
            (ending, children), start = stack.pop()
            for other, other_shapes in ending:
                if _renames_into(other.literals, other_shapes, clause.literals, slots):
                    return other
            for i in range(start, len(ordered)):
                if i > start and ordered[i] == ordered[i - 1]:
                    continue  # each sub-multiset is spelled once
                child = children.get(ordered[i])
                if child is not None:
                    stack.append((child, i + 1))
        return None


def is_variant(c: Clause, d: Clause) -> bool:
    return (
        len(c.literals) == len(d.literals)
        and subsumes_by_variant(c, d)
        and subsumes_by_variant(d, c)
    )
