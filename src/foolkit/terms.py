"""Sorts, signatures, and the unified term language.

Formulas are not a separate syntactic category: a formula is any term of
the boolean sort.  Connectives and the truth constants are ordinary
function symbols applied through ``App``; binders (quantifiers and let
definitions) annotate their bound names with sorts, so sort checking is
pure bottom-up synthesis.

This module is also the one occurrence classifier: ``child_context``
says which context a position puts the subterm there in (a formula
context, a term context, or none, for the root and a let's children),
and ``binders`` says what a node binds in each child (a quantifier its
variable in its body, a let its formals in its body and its symbol in
its scope).  ``child_occurrence`` reads both, and through ``redex_kind``
they say which lowering step applies to a subterm: the lowering driver
and the single-step API in ``translate`` apply a step only where it
names one.  ``subst_free_vars`` (which also rewrites the applications of
a lifted let symbol), the let lift's renaming and the driver's clash
sets read ``binders`` too.  Two walks read the classifier:

* ``contexts`` yields each subterm with its context and nothing else.
  The terminated-check and predicate-split scan of ``translate.to_fol``
  and the strict-mode equality check in ``tptp`` run on it;
* ``occurrences`` also builds each subterm's path and binders.  The
  first-order check runs on it, so its witness is the path of the first
  occurrence where a step applies.  ``occurrence_at`` follows one path.

A formula is syntactically first-order when no lowering step applies at
any occurrence.

Some walks keep their own loops, and their own copy of a rule, because a
shared walk would slow them down.  ``contexts`` keeps its own copy of
``child_context``: it dispatches once per node and pushes every child
with its context, in about 0.4 of the time of one ``children`` and one
``child_context`` call per child (a helper that returned every child's
contexts saved nothing); ``test_context_walk_agrees_with_occurrences``
checks it against ``occurrences``.  ``subterm_positions`` (clause terms
in the prover, about half the cost per node), ``free_vars_ordered`` (run
on every lowering step), ``free_fns`` and ``all_names`` keep their own
copy of the binding rule; one shared scope walk, or one ``binders`` call
per child, made these three 1.5-5 times slower per call.  A property
test checks their copies against ``occurrences``.  ``subterm_positions``
and ``all_names`` loop on an explicit stack, so they walk any depth; a
translation state calls ``all_names`` when it is built.
``tptp._render`` carries one formula/term flag and is no shorter when
driven by the classifier.

``with_children`` keeps a node whose children are all unchanged, so the
rewrites built on it (``subst_free_vars``, the let lift in
``translate``) return an untouched subtree as the same object.

Terms are immutable values.  All operations here are pure and safe to
call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Iterable, Iterator, NamedTuple


# ---------------------------------------------------------------------------
# sorts and types


@dataclass(frozen=True)
class Sort:
    """A sort.  Exactly one sort in a signature carries the boolean flag."""

    name: str
    is_bool: bool = False

    def __str__(self) -> str:
        return self.name


BOOL = Sort("$o", is_bool=True)
INT = Sort("$int")
INDIVIDUAL = Sort("$i")


@dataclass(frozen=True)
class TypeSig:
    """Argument sorts and result sort of a function symbol."""

    args: tuple[Sort, ...]
    result: Sort

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        if not self.args:
            return str(self.result)
        if len(self.args) == 1:
            return f"{self.args[0]} > {self.result}"
        return "(" + " * ".join(str(a) for a in self.args) + f") > {self.result}"


# Connectives and truth constants are ordinary function symbols.  Their
# names live in the $-namespace so they can never collide with user symbols.
NOT = "$not"
AND = "$and"
OR = "$or"
IMPLIES = "$implies"
IFF = "$iff"
TRUE_NAME = "$true"
FALSE_NAME = "$false"

CONNECTIVES = frozenset({NOT, AND, OR, IMPLIES, IFF})
# the binary connectives as they are written, in the input and the output
INFIX = {AND: "&", OR: "|", IMPLIES: "=>", IFF: "<=>"}
BUILTIN_FNS = frozenset(CONNECTIVES | {TRUE_NAME, FALSE_NAME})

# Prefix of the symbols introduced by translation and clausification; each
# generator skips the names its problem already uses, so input may use it too.
FRESH_PREFIX = "sk_fool_"


class Signature:
    """Sorts plus typed function symbols.

    Every signature contains the boolean sort, the binary connectives,
    negation and the truth constants with their fixed types.
    """

    def __init__(self) -> None:
        self.sorts: dict[str, Sort] = {BOOL.name: BOOL}
        self.fns: dict[str, TypeSig] = {}
        bb = (BOOL, BOOL)
        for name in INFIX:
            self.fns[name] = TypeSig(bb, BOOL)
        self.fns[NOT] = TypeSig((BOOL,), BOOL)
        self.fns[TRUE_NAME] = TypeSig((), BOOL)
        self.fns[FALSE_NAME] = TypeSig((), BOOL)

    def declare_sort(self, name: str) -> Sort:
        if name in self.sorts:
            raise ValueError(f"sort {name!r} already declared")
        sort = Sort(name)
        self.sorts[name] = sort
        return sort

    def add_sort(self, sort: Sort) -> Sort:
        """Register an existing Sort object (e.g. the builtins $int, $i)."""
        if sort.name in self.sorts:
            if self.sorts[sort.name] != sort:
                raise ValueError(f"conflicting sort {sort.name!r}")
            return sort
        if sort.is_bool:
            raise ValueError("a signature has exactly one boolean sort")
        self.sorts[sort.name] = sort
        return sort

    def declare_fn(self, name: str, sig: TypeSig) -> None:
        if name in BUILTIN_FNS:
            raise ValueError(f"cannot redeclare the reserved connective {name!r}")
        if name in self.fns:
            raise ValueError(f"function symbol {name!r} already declared")
        self.fns[name] = sig

    def sort(self, name: str) -> Sort | None:
        return self.sorts.get(name)

    def fn_sig(self, name: str) -> TypeSig | None:
        return self.fns.get(name)

    def user_fns(self) -> Iterator[str]:
        """Declared symbols other than connectives and truth constants."""
        for name in self.fns:
            if name not in BUILTIN_FNS:
                yield name


class TypeContext:
    """A signature extended with shadowing variable and symbol bindings.

    Extension returns a new context; lookups resolve the innermost
    binding first.
    """

    __slots__ = ("sig", "var_binds", "fn_binds")

    def __init__(
        self,
        sig: Signature,
        var_binds: dict[str, Sort] | None = None,
        fn_binds: dict[str, TypeSig] | None = None,
    ) -> None:
        self.sig = sig
        self.var_binds = var_binds or {}
        self.fn_binds = fn_binds or {}

    @classmethod
    def of(cls, sig: Signature) -> "TypeContext":
        return cls(sig)

    def with_var(self, name: str, sort: Sort) -> "TypeContext":
        binds = dict(self.var_binds)
        binds[name] = sort
        return TypeContext(self.sig, binds, self.fn_binds)

    def with_vars(self, pairs: Iterable[tuple[str, Sort]]) -> "TypeContext":
        binds = dict(self.var_binds)
        binds.update(pairs)
        return TypeContext(self.sig, binds, self.fn_binds)

    def with_fn(self, name: str, sig: TypeSig) -> "TypeContext":
        binds = dict(self.fn_binds)
        binds[name] = sig
        return TypeContext(self.sig, self.var_binds, binds)

    def var_sort(self, name: str) -> Sort | None:
        return self.var_binds.get(name)

    def fn_sig(self, name: str) -> TypeSig | None:
        got = self.fn_binds.get(name)
        if got is not None:
            return got
        return self.sig.fn_sig(name)


# ---------------------------------------------------------------------------
# terms


class Term:
    """Base class of the unified term/formula tree."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    fn: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    els: Term


@dataclass(frozen=True)
class Let(Term):
    """Non-recursive local definition of one function symbol."""

    fn: str
    params: tuple[tuple[str, Sort], ...]
    body: Term
    scope: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        names = [x for x, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("let formal parameters must be pairwise distinct")
        if self.fn in BUILTIN_FNS:
            raise ValueError(f"cannot let-bind the reserved symbol {self.fn!r}")


@dataclass(frozen=True)
class Eq(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Forall(Term):
    var: str
    sort: Sort
    body: Term


@dataclass(frozen=True)
class Exists(Term):
    var: str
    sort: Sort
    body: Term


TRUE = App(TRUE_NAME)
FALSE = App(FALSE_NAME)


def lnot(a: Term) -> Term:
    return App(NOT, (a,))


def land(a: Term, b: Term, *more: Term) -> Term:
    out = App(AND, (a, b))
    for m in more:
        out = App(AND, (out, m))
    return out


def lor(a: Term, b: Term, *more: Term) -> Term:
    out = App(OR, (a, b))
    for m in more:
        out = App(OR, (out, m))
    return out


def limplies(a: Term, b: Term) -> Term:
    return App(IMPLIES, (a, b))


def liff(a: Term, b: Term) -> Term:
    return App(IFF, (a, b))


def forall_prefix(bindings: Iterable[tuple[str, Sort]], body: Term) -> Term:
    out = body
    for name, sort in reversed(list(bindings)):
        out = Forall(name, sort, out)
    return out


# ---------------------------------------------------------------------------
# paths and traversal
#
# An occurrence path is the sequence of child indices from the root.
# Child order: App/Ite/Eq follow field order, Let is (body, scope),
# quantifiers have the single child (body,).


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Var):
        return ()
    if isinstance(t, App):
        return t.args
    if isinstance(t, Ite):
        return (t.cond, t.then, t.els)
    if isinstance(t, Let):
        return (t.body, t.scope)
    if isinstance(t, Eq):
        return (t.left, t.right)
    if isinstance(t, (Forall, Exists)):
        return (t.body,)
    raise TypeError(f"not a term: {t!r}")


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    """``t`` with the children ``new``; ``t`` itself when each of them is
    the child already there."""
    kids = children(t)
    if len(new) == len(kids) and all(map(is_, new, kids)):
        return t
    if isinstance(t, Var):
        if new:
            raise ValueError("a variable has no children")
        return t
    if isinstance(t, App):
        return App(t.fn, new)
    if isinstance(t, Ite):
        return Ite(*new)
    if isinstance(t, Let):
        return Let(t.fn, t.params, new[0], new[1])
    if isinstance(t, Eq):
        return Eq(*new)
    if isinstance(t, Forall):
        return Forall(t.var, t.sort, new[0])
    if isinstance(t, Exists):
        return Exists(t.var, t.sort, new[0])
    raise TypeError(f"not a term: {t!r}")


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    cur = t
    for i in path:
        kids = children(cur)
        if not 0 <= i < len(kids):
            raise ValueError(f"invalid path {path!r} at {i}")
        cur = kids[i]
    return cur


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    kids = list(children(t))
    i = path[0]
    if not 0 <= i < len(kids):
        raise ValueError(f"invalid path step {i}")
    kids[i] = replace_at(kids[i], path[1:], new)
    return with_children(t, tuple(kids))


def subterm_positions(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All (path, subterm) pairs in pre-order, leftmost first."""
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        kids = children(cur)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def all_names(t: Term) -> set[str]:
    """Every variable, binder and function symbol name occurring in t, at
    any depth."""
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u.name)
        elif isinstance(u, App):
            out.add(u.fn)
        elif isinstance(u, Let):
            out.add(u.fn)
            out.update(x for x, _ in u.params)
        elif isinstance(u, (Forall, Exists)):
            out.add(u.var)
        stack.extend(children(u))
    return out


# ---------------------------------------------------------------------------
# free and bound occurrences
#
# Bound occurrences: a quantifier binds its variable in its body; a let
# binds its formals in the head and in the definition body; a let binds
# its function symbol in the head and in the scope.  Occurrences of the
# let-bound symbol inside its own definition body are free (lets are not
# recursive).


def binders(t: Term, i: int) -> tuple[tuple[tuple[str, Sort], ...], str | None]:
    """The variables, with their sorts, and the let symbol that ``t`` binds
    in its child ``i``: the one binding rule."""
    if isinstance(t, (Forall, Exists)):
        return ((t.var, t.sort),), None
    if isinstance(t, Let):
        return (t.params, None) if i == 0 else ((), t.fn)
    return (), None


def free_vars(t: Term) -> set[str]:
    return set(free_vars_ordered(t))


def free_vars_ordered(t: Term) -> list[str]:
    """Free variables in order of first free occurrence (leftmost-outermost)."""
    seen: dict[str, None] = {}

    def go(u: Term, bound: frozenset[str]) -> None:
        kind = type(u)
        if kind is App:
            for a in u.args:
                go(a, bound)
        elif kind is Var:
            if u.name not in bound:
                seen[u.name] = None
        elif kind is Forall or kind is Exists:
            go(u.body, bound | {u.var})
        elif kind is Let:
            go(u.body, bound | {x for x, _ in u.params})
            go(u.scope, bound)
        else:
            for k in children(u):
                go(k, bound)

    go(t, frozenset())
    return list(seen)


def free_fns(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    if isinstance(t, App):
        out = {t.fn}
        for a in t.args:
            out |= free_fns(a)
        return out
    if isinstance(t, Let):
        return free_fns(t.body) | (free_fns(t.scope) - {t.fn})
    out = set()
    for k in children(t):
        out |= free_fns(k)
    return out


# ---------------------------------------------------------------------------
# occurrences: the one classifier (see the module docstring)

FORMULA_CONTEXT = "formula-context"
TERM_CONTEXT = "term-context"
NO_CONTEXT = "not-applicable"


class Occurrence(NamedTuple):
    """A subterm and what its position says about it; the defaults
    describe the root of a formula."""

    term: Term
    # formula-context for arguments of connectives, quantifier bodies and
    # if-then-else conditions; term-context for arguments of other
    # symbols, equality operands and if-then-else branches (they end up as
    # equation sides); not-applicable for the root and the children of a let
    context: str = NO_CONTEXT
    # bound above the subterm: (name, sort) of each variable, outermost
    # first, and the let-bound symbols
    variables: tuple[tuple[str, Sort], ...] = ()
    lets: frozenset[str] = frozenset()


def child_context(t: Term, i: int) -> str:
    """The context that ``t`` puts its child ``i`` in."""
    if isinstance(t, App):
        return FORMULA_CONTEXT if t.fn in CONNECTIVES else TERM_CONTEXT
    if isinstance(t, Let):
        return NO_CONTEXT
    if isinstance(t, (Forall, Exists)) or (i == 0 and isinstance(t, Ite)):
        return FORMULA_CONTEXT
    return TERM_CONTEXT  # Eq, and the branches of an Ite


def child_occurrence(occ: Occurrence, i: int, kid: Term) -> Occurrence:
    """``kid``, child ``i`` of the occurrence, with its context and
    binders."""
    t = occ.term
    variables, fn = binders(t, i)
    lets = occ.lets if fn is None else occ.lets | {fn}
    return Occurrence(kid, child_context(t, i), occ.variables + variables, lets)


def contexts(t: Term) -> Iterator[tuple[Term, str]]:
    """Every subterm of ``t`` with its context, in the order of
    ``occurrences``; iterative, with no paths and no binders.  One
    dispatch per node pushes all the children with their contexts, so
    this is a second copy of ``child_context``'s rule: change both."""
    stack = [(t, NO_CONTEXT)]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        yield item
        cur = item[0]
        kind = type(cur)
        if kind is App:
            if cur.args:
                arg = FORMULA_CONTEXT if cur.fn in CONNECTIVES else TERM_CONTEXT
                for a in reversed(cur.args):
                    push((a, arg))
        elif kind is Eq:
            push((cur.right, TERM_CONTEXT))
            push((cur.left, TERM_CONTEXT))
        elif kind is Forall or kind is Exists:
            push((cur.body, FORMULA_CONTEXT))
        elif kind is Ite:
            push((cur.els, TERM_CONTEXT))
            push((cur.then, TERM_CONTEXT))
            push((cur.cond, FORMULA_CONTEXT))
        elif kind is Let:
            push((cur.scope, NO_CONTEXT))
            push((cur.body, NO_CONTEXT))
        elif kind is not Var:
            raise TypeError(f"not a term: {cur!r}")


def occurrences(t: Term) -> Iterator[tuple[tuple[int, ...], Occurrence]]:
    """Every occurrence in ``t`` with its path, in pre-order, leftmost
    first; iterative, so nesting depth is not bounded by the stack."""
    stack = [((), Occurrence(t))]
    while stack:
        path, occ = stack.pop()
        yield path, occ
        kids = children(occ.term)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), child_occurrence(occ, i, kids[i])))


def occurrence_at(t: Term, path: tuple[int, ...]) -> Occurrence:
    """Walk ``path`` from the root of ``t``."""
    occ = Occurrence(t)
    for i in path:
        kids = children(occ.term)
        if not 0 <= i < len(kids):
            raise ValueError(f"path {path!r} does not address a subterm")
        occ = child_occurrence(occ, i, kids[i])
    return occ


def redex_kind(t: Term, context: str) -> str | None:
    """The lowering step for ``t`` in the context, eligible or not: a let, an
    if-then-else, a variable in a formula context (boolean in a
    well-sorted formula), or a connective application, equality or
    quantification in a term context.  A bare variable or a truth
    constant in a term context is a legal first-order term over the
    boolean sort."""
    if isinstance(t, App):
        if context == TERM_CONTEXT and t.fn in CONNECTIVES:
            return "formula-in-term"
        return None
    if isinstance(t, Var):
        return "bool-var" if context == FORMULA_CONTEXT else None
    if isinstance(t, Let):
        return "let"
    if isinstance(t, Ite):
        return "ite"
    # Eq, Forall, Exists
    return "formula-in-term" if context == TERM_CONTEXT else None


@dataclass(frozen=True)
class OccurrenceClass:
    """Binding kind and context of one subterm occurrence.

    ``kind`` is "bound"/"free" for variable occurrences and applications
    (judged on the head symbol) and None for other node kinds.
    """

    kind: str | None
    context: str


def classify_occurrence(t: Term, path: tuple[int, ...]) -> OccurrenceClass:
    """Classify the subterm occurrence addressed by path."""
    occ = occurrence_at(t, path)
    cur = occ.term
    if isinstance(cur, Var):
        bound = any(name == cur.name for name, _ in occ.variables)
    elif isinstance(cur, App):
        bound = cur.fn in occ.lets
    else:
        return OccurrenceClass(None, occ.context)
    return OccurrenceClass("bound" if bound else "free", occ.context)


@dataclass(frozen=True)
class FirstOrderCheck:
    ok: bool
    witness: tuple[int, ...] | None = None
    reason: str | None = None


_REASONS = {
    "let": "let expression",
    "ite": "ite expression",
    "bool-var": "variable in formula context",
    "formula-in-term": "formula in term context",
}


def is_syntactically_first_order(t: Term) -> FirstOrderCheck:
    """No lowering step applies anywhere in ``t``; otherwise the witness is
    the leftmost-outermost occurrence where one does."""
    for path, occ in occurrences(t):
        kind = redex_kind(occ.term, occ.context)
        if kind is not None:
            return FirstOrderCheck(False, path, _REASONS[kind])
    return FirstOrderCheck(True)


# ---------------------------------------------------------------------------
# substitution


def subst_free_vars(
    t: Term, mapping: dict[str, Term], fns: dict[str, tuple[str, tuple[Term, ...]]] = {}
) -> Term:
    """Replace free variable occurrences, and turn each free application
    ``f(args)`` of a symbol ``f`` that ``fns`` maps to ``(g, extra)`` into
    ``g(args, extra)``; both stop at shadowing binders.

    Replacement terms are inserted as-is, so the caller must ensure they
    cannot be captured (the translation only inserts fresh variables).
    A subtree with nothing to replace is returned as the same object.
    """
    if not mapping and not fns:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    new = []
    for i, kid in enumerate(children(t)):
        variables, fn = binders(t, i)
        inner = mapping
        if variables:  # most nodes bind nothing, so build no set for them
            bound = {x for x, _ in variables}
            inner = {k: v for k, v in mapping.items() if k not in bound}
        inner_fns = {k: v for k, v in fns.items() if k != fn} if fn in fns else fns
        new.append(subst_free_vars(kid, inner, inner_fns))
    if isinstance(t, App) and t.fn in fns:
        g, extra = fns[t.fn]
        return App(g, tuple(new) + extra)
    return with_children(t, tuple(new))


# ---------------------------------------------------------------------------
# debug rendering


def term_to_str(t: Term) -> str:
    """Compact single-line rendering for diagnostics and clause display."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        if t.fn == NOT:
            return f"~{_wrap(t.args[0])}"
        if t.fn in INFIX:
            op = INFIX[t.fn]
            return f"({_wrap(t.args[0])} {op} {_wrap(t.args[1])})"
        if not t.args:
            return t.fn
        return f"{t.fn}(" + ", ".join(term_to_str(a) for a in t.args) + ")"
    if isinstance(t, Ite):
        return f"$ite({term_to_str(t.cond)}, {term_to_str(t.then)}, {term_to_str(t.els)})"
    if isinstance(t, Let):
        head = t.fn
        if t.params:
            head += "(" + ", ".join(f"{x} : {s}" for x, s in t.params) + ")"
        return f"$let({head} := {term_to_str(t.body)}, {term_to_str(t.scope)})"
    if isinstance(t, Eq):
        return f"{_wrap(t.left)} = {_wrap(t.right)}"
    if isinstance(t, Forall):
        return f"![{t.var} : {t.sort}]: {_wrap(t.body)}"
    if isinstance(t, Exists):
        return f"?[{t.var} : {t.sort}]: {_wrap(t.body)}"
    raise TypeError(f"not a term: {t!r}")


def _wrap(t: Term) -> str:
    s = term_to_str(t)
    if isinstance(t, (Eq, Forall, Exists)):
        return f"({s})"
    return s
