"""Finite interpretations, evaluation, and the enumeration oracle.

Carriers are index ranges 0..n-1 with the boolean carrier fixed to
{0, 1}; truth constants and connectives have their standard meaning and
are never stored in tables.  Enumeration is lexicographic over symbol
tables, symbols sorted by name, so counterexamples are reproducible.

There is one evaluator: a term is compiled once into nested closures
over a slot-indexed variable assignment and a list of tables, one slot
per free symbol and per let.  ``eval_term`` compiles and runs a term
once; the oracle compiles the input formula, each definition and the
rewritten formula once per check and then only refills table slots.

The oracle's extension search enumerates the fresh symbols in sorted
order, runs each definition (and the rewritten formula) as soon as every
fresh symbol it mentions has a table, and drops the branch when one
fails; when the input formula holds it stops at the first extension.
Every branch that could yield a counterexample is still enumerated, so
the reports are those of the full product.  What is checked depends only
on which fresh symbols each definition mentions, never on what the
translation claims about them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from .terms import (
    AND,
    App,
    BOOL,
    BUILTIN_FNS,
    Eq,
    Exists,
    FALSE_NAME,
    Forall,
    IFF,
    IMPLIES,
    Ite,
    Let,
    NOT,
    OR,
    Sort,
    Term,
    TRUE_NAME,
    TypeContext,
    Var,
    free_fns,
    land,
)

DEFAULT_CAP = 10_000_000


class EnumerationOverflow(Exception):
    """The requested interpretation space, or the table of one symbol,
    exceeds the configured cap."""

    def __init__(self, cap: int, what: str = "interpretations") -> None:
        super().__init__(f"more than {cap} {what}")
        self.cap = cap


@dataclass
class DomainSpec:
    """Carrier sizes per sort; the boolean carrier is always {0, 1}."""

    sizes: dict[Sort, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sort, n in self.sizes.items():
            if n < 1:
                raise ValueError(f"carrier of {sort} must be nonempty")
            if sort.is_bool and n != 2:
                raise ValueError("the boolean carrier has exactly two elements")
        self.sizes = dict(self.sizes)
        self.sizes[BOOL] = 2

    def size(self, sort: Sort) -> int:
        try:
            return self.sizes[sort]
        except KeyError:
            raise KeyError(f"no carrier size given for sort {sort}") from None


@dataclass
class Interpretation:
    """Carrier sizes, total function tables and a variable assignment."""

    sizes: dict[Sort, int]
    tables: dict[str, Mapping[tuple[int, ...], int]]
    assign: dict[str, int] = field(default_factory=dict)

    def with_var(self, name: str, value: int) -> "Interpretation":
        assign = dict(self.assign)
        assign[name] = value
        return Interpretation(self.sizes, self.tables, assign)

    def with_fn(self, name: str, table: dict[tuple[int, ...], int]) -> "Interpretation":
        tables = dict(self.tables)
        tables[name] = table
        return Interpretation(self.sizes, tables, self.assign)

    def dump(self) -> str:
        """Deterministic one-line rendering, used in counterexample reports."""
        parts = []
        for name in sorted(self.tables):
            entries = ",".join(
                f"{'' if not args else ':'.join(map(str, args))}->{val}"
                for args, val in sorted(self.tables[name].items())
            )
            parts.append(f"{name}{{{entries}}}")
        for name in sorted(self.assign):
            parts.append(f"{name}={self.assign[name]}")
        return " ".join(parts)


# closure makers for the connectives; equality shares the one for <=>
_CONNECTIVES = {
    NOT: lambda a: lambda: 1 - a(),
    AND: lambda a, b: lambda: a() and b(),
    OR: lambda a, b: lambda: a() or b(),
    IMPLIES: lambda a, b: lambda: b() if a() else 1,
    IFF: lambda a, b: lambda: 1 if a() == b() else 0,
}


class _Program:
    """Terms compiled to closures over one slot-indexed assignment list
    and one table list.

    Each quantifier, let parameter and free variable owns an assignment
    slot; each free function symbol and each let owns a table slot.  A
    closure returns the value its term has under what the slots hold, so
    a term compiled once is re-evaluated by refilling slots, not by
    walking it again.
    """

    def __init__(self, sizes: dict[Sort, int]) -> None:
        self.sizes = sizes
        self.assign: list[int] = []
        self.tables: list = []
        self.free_vars: dict[str, int] = {}
        self.fns: dict[str, int] = {}

    def fn_slot(self, fn: str) -> int:
        if fn not in self.fns:
            self.fns[fn] = len(self.tables)
            self.tables.append(None)
        return self.fns[fn]

    def compile(self, t: Term):
        return self._term(t, {}, {})

    def _term(self, t: Term, bound: dict[str, int], lets: dict[str, int]):
        A, T = self.assign, self.tables
        if isinstance(t, Var):
            i = bound.get(t.name)
            if i is None:
                if t.name not in self.free_vars:
                    self.free_vars[t.name] = len(A)
                    A.append(0)
                i = self.free_vars[t.name]
            return lambda: A[i]

        if isinstance(t, App):
            if t.fn == TRUE_NAME:
                return lambda: 1
            if t.fn == FALSE_NAME:
                return lambda: 0
            args = [self._term(a, bound, lets) for a in t.args]
            if t.fn in _CONNECTIVES:
                return _CONNECTIVES[t.fn](*args)
            k = lets[t.fn] if t.fn in lets else self.fn_slot(t.fn)
            if not args:
                return lambda: T[k][()]
            if len(args) == 1:
                (a,) = args
                return lambda: T[k][(a(),)]
            if len(args) == 2:
                a, b = args
                return lambda: T[k][(a(), b())]
            return lambda: T[k][tuple([f() for f in args])]

        if isinstance(t, Ite):
            c = self._term(t.cond, bound, lets)
            a = self._term(t.then, bound, lets)
            b = self._term(t.els, bound, lets)
            return lambda: a() if c() else b()

        if isinstance(t, Eq):
            a = self._term(t.left, bound, lets)
            b = self._term(t.right, bound, lets)
            return _CONNECTIVES[IFF](a, b)

        if isinstance(t, (Forall, Exists)):
            i = len(A)
            A.append(0)
            body = self._term(t.body, {**bound, t.var: i}, lets)
            carrier = range(self.sizes[t.sort])
            decisive = int(isinstance(t, Exists))  # the body value that ends the loop

            def quantifier():
                for A[i] in carrier:
                    if body() == decisive:
                        return decisive
                return 1 - decisive
            return quantifier

        if isinstance(t, Let):
            slots = list(range(len(A), len(A) + len(t.params)))
            A.extend(0 for _ in slots)
            inner = {**bound, **{x: i for (x, _), i in zip(t.params, slots)}}
            # the body sees the outer meaning of the let's own symbol
            body = self._term(t.body, inner, lets)
            k = len(T)
            T.append(None)
            scope = self._term(t.scope, bound, {**lets, t.fn: k})
            points = list(itertools.product(*(range(self.sizes[s]) for _, s in t.params)))

            def let():
                table = {}
                for point in points:
                    for i, value in zip(slots, point):
                        A[i] = value
                    table[point] = body()
                T[k] = table
                return scope()
            return let

        raise TypeError(f"not a term: {t!r}")


def _fill(slots: dict[str, int], values: dict, into: list, kind: str) -> None:
    for name, i in slots.items():
        try:
            into[i] = values[name]
        except KeyError:
            raise KeyError(f"{kind} {name!r} not interpreted") from None


def eval_term(interp: Interpretation, t: Term) -> int:
    """The value of t, an element of the carrier of t's sort.

    The interpretation must cover every free variable and free function
    symbol of t; a missing entry raises KeyError.
    """
    program = _Program(interp.sizes)
    run = program.compile(t)
    _fill(program.free_vars, interp.assign, program.assign, "variable")
    _fill(program.fns, interp.tables, program.tables, "function symbol")
    return run()


def models(interp: Interpretation, phi: Term) -> bool:
    """True iff the formula evaluates to 1."""
    return eval_term(interp, phi) == 1


# ---------------------------------------------------------------------------
# enumeration


def _signature(ctx: TypeContext, fn: str):
    sig = ctx.fn_sig(fn)
    if sig is None:
        raise KeyError(f"symbol {fn!r} not declared")
    return sig


class _ZeroTable(Mapping):
    """The one table of a symbol into a one-element carrier: it stores
    nothing, answers 0 for every lookup, and lists the same entries as a
    stored table would."""

    def __init__(self, sizes: list[int]) -> None:
        self.sizes = sizes

    def __getitem__(self, args: tuple[int, ...]) -> int:
        return 0

    def __iter__(self):
        return itertools.product(*map(range, self.sizes))

    def __len__(self) -> int:
        return math.prod(self.sizes)


def _table_space(ctx: TypeContext, spec: DomainSpec, fn: str, cap: int):
    """A function giving every table of the symbol, in lexicographic order.

    A symbol into a one-element carrier has one table however many
    entries it has, so the interpretation count does not bound those.
    """
    sig = _signature(ctx, fn)
    sizes = [spec.size(s) for s in sig.args]
    if math.prod(sizes) > cap:
        raise EnumerationOverflow(cap, "table entries")
    rng = spec.size(sig.result)
    if rng == 1:
        return lambda: (_ZeroTable(sizes),)
    points = list(itertools.product(*map(range, sizes)))
    # map and zip, not a generator expression: no Python frame per table
    every = itertools.repeat(points)
    return lambda: map(dict, map(zip, every, itertools.product(range(rng), repeat=len(points))))


def table_count(ctx: TypeContext, spec: DomainSpec, symbols, cap: int = DEFAULT_CAP) -> int:
    """Number of distinct joint table assignments for the given symbols,
    or cap + 1 when there are more than cap.

    Counted from carrier sizes alone, and never multiplied past the cap.
    """
    total = 1
    for fn in symbols:
        sig = _signature(ctx, fn)
        rng = spec.size(sig.result)
        if rng == 1:
            continue
        points = 1
        for s in sig.args:
            points *= spec.size(s)
            if points >= cap.bit_length():  # rng ** points >= 2 ** points > cap
                return cap + 1
        total *= rng**points
        if total > cap:
            return cap + 1
    return total


def _search(spaces, tables: list, checks):
    """Yield once per joint table assignment that passes every check.

    ``spaces[i]`` is (slot, tables) of one symbol, with ``tables`` from
    ``_table_space``; ``tables[slot]`` receives each of its tables in
    lexicographic order, the first symbol varying slowest.  ``checks[i]``
    runs once the first i symbols have tables, and a branch is dropped as
    soon as one returns 0.
    """

    def rec(level: int):
        if level == len(spaces):
            yield
            return
        slot, tables_of = spaces[level]
        check = checks[level + 1]
        for tables[slot] in tables_of():
            if check():
                yield from rec(level + 1)

    if checks[0]():
        yield from rec(0)


def _always() -> int:
    return 1


def enumerate_interpretations(
    ctx: TypeContext,
    spec: DomainSpec,
    symbols,
    cap: int = DEFAULT_CAP,
):
    """Every interpretation of exactly the listed symbols over the spec's
    carriers, deterministically ordered; raises EnumerationOverflow when
    the total count exceeds the cap.

    The result set is a pure function of (ctx, spec, symbols); it may be
    partitioned by table prefix without changing the union.
    """
    names = sorted(symbols)
    if table_count(ctx, spec, names, cap) > cap:
        raise EnumerationOverflow(cap)
    sizes = dict(spec.sizes)
    spaces = [(i, _table_space(ctx, spec, fn, cap)) for i, fn in enumerate(names)]
    tables = [None] * len(names)
    for _ in _search(spaces, tables, [_always] * (len(names) + 1)):
        yield Interpretation(sizes, dict(zip(names, tables)))


# ---------------------------------------------------------------------------
# model preservation


@dataclass
class PreservationReport:
    checked: int
    counterexamples: list[tuple[str, Interpretation]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        if self.ok:
            return f"OK {self.checked}"
        lines = [
            f"COUNTEREXAMPLE {direction} {interp.dump()}"
            for direction, interp in self.counterexamples
        ]
        return "\n".join(lines)


def check_model_preservation(
    phi: Term,
    translated,
    spec: DomainSpec,
    cap: int = DEFAULT_CAP,
) -> PreservationReport:
    """Exhaustively compare models of phi with models of the translation.

    ``translated`` is a finished translation state carrying the rewritten
    formula (.current), the definitions (.defs), the extended context
    (.ctx) and the introduced symbols (.fresh_symbols).  Two directions
    are checked over all interpretations within the spec:

      extension: every model of phi extends (by tables for the new
        symbols) to a model of the definitions plus the rewritten formula;
      reduct: every model of the definitions plus the rewritten formula
        is a model of phi.

    Original-symbol tables stay fixed during the extension search; only
    the translation-introduced symbols are enumerated, pruned as the
    module docstring says.  ``checked`` is the size of the full product.
    """
    ctx = translated.ctx
    fresh = sorted(translated.fresh_symbols)
    checks = [*translated.defs, translated.current]
    base_symbols = sorted(
        fn
        for fn in free_fns(phi).union(*map(free_fns, checks))
        if fn not in BUILTIN_FNS and fn not in fresh
    )
    total = table_count(ctx, spec, base_symbols + fresh, cap)
    if total > cap:
        raise EnumerationOverflow(cap)

    sizes = dict(spec.sizes)
    program = _Program(sizes)
    phi_holds = program.compile(phi)
    # a check runs as soon as every fresh symbol it mentions has a table
    level_of = {fn: i + 1 for i, fn in enumerate(fresh)}
    by_level: list[list[Term]] = [[] for _ in range(len(fresh) + 1)]
    for d in checks:
        by_level[max((level_of[fn] for fn in free_fns(d) if fn in level_of), default=0)].append(d)
    ext_checks = [
        program.compile(functools.reduce(land, ds)) if ds else _always for ds in by_level
    ]
    _fill(program.free_vars, {}, program.assign, "variable")  # all are closed

    tables = program.tables
    base_spaces = [(program.fn_slot(fn), _table_space(ctx, spec, fn, cap)) for fn in base_symbols]
    ext_spaces = [(program.fn_slot(fn), _table_space(ctx, spec, fn, cap)) for fn in fresh]
    no_checks = [_always] * (len(base_symbols) + 1)
    report = PreservationReport(checked=total)

    def snapshot(names) -> Interpretation:
        return Interpretation(sizes, {fn: tables[program.fns[fn]] for fn in names})

    for _ in _search(base_spaces, tables, no_checks):
        extensions = _search(ext_spaces, tables, ext_checks)
        if phi_holds():
            if not any(True for _ in extensions):  # one extension is enough
                report.counterexamples.append(("extension", snapshot(base_symbols)))
        else:
            for _ in extensions:
                report.counterexamples.append(("reduct", snapshot(base_symbols + fresh)))
    return report
