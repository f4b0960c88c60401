"""Finite interpretations, evaluation, and the enumeration oracle.

Carriers are index ranges 0..n-1 with the boolean carrier fixed to
{0, 1}; truth constants and connectives have their standard meaning and
are never stored in tables.  Enumeration is lexicographic over symbol
tables, symbols sorted by name, so counterexamples are reproducible.

There is one evaluator: a term is compiled once into nested closures
over a slot-indexed variable assignment and one cell store, where the
entry of the symbol or let in table slot k at a point is the cell
(k, *point).  ``eval_term`` compiles a term, stores every table entry
and runs it once; the oracle compiles the input formula, each
definition and the rewritten formula once per check and then only sets
cells.

The oracle searches table cells depth-first as SEM does (Zhang and
Zhang, IJCAI 1995): its cell store decides a cell when a closure first
reads it, giving it the first value of its carrier and putting it on the
trail of the search that owns its table slot.  Once a run ends, the
search advances the last cell on its trail that has a value left,
forgets the cells decided after it and resumes at the step that first
read it.  A run that finishes stands for the block of every
interpretation agreeing with it on the cells it read, because the
closures are deterministic and saw no other cell.  The search is for-all
over the symbols of the input and there-exists over the fresh symbols of
the translation, and each of the two keeps its own trail: a base cell
first read inside the extension search joins the base trail, so the
extension search goes on, and the base search later re-runs the whole
base run once per other value of that cell.  What is pruned depends only
on which cells the oracle's own closures read, never on what the
translation claims.
"""

from __future__ import annotations

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
)

DEFAULT_CAP = 10_000_000


class EnumerationOverflow(Exception):
    """The requested interpretation space, or the table of one symbol,
    exceeds the configured cap; the message names the cap."""

    def __init__(self, cap: int, what: str = "interpretations") -> None:
        super().__init__(f"more than {cap} {what}")


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
    and one cell store.

    Each quantifier, let parameter and free variable owns an assignment
    slot; each free function symbol and each let owns a table slot k, and
    ``cells[(k, *point)]`` is its entry at the point.  A closure returns
    the value its term has under what the slots and cells hold, so a term
    compiled once is re-evaluated by refilling them, not by walking it
    again.  Symbols in ``zero`` map into a one-element carrier: they are
    compiled to 0 and own no cells.
    """

    def __init__(self, sizes: dict[Sort, int], zero: frozenset[str] = frozenset()) -> None:
        self.sizes = sizes
        self.zero = zero
        self.assign: list[int] = []
        self.cells: dict[tuple[int, ...], int] = {}
        self.free_vars: dict[str, int] = {}
        self.fns: dict[str, int] = {}
        self.slots = itertools.count()

    def fn_slot(self, fn: str) -> int:
        if fn not in self.fns:
            self.fns[fn] = next(self.slots)
        return self.fns[fn]

    def compile(self, t: Term):
        return self._term(t, {}, {})

    def compile_points(self, t: Term, limit: int) -> list:
        """t as one closure per point of its leading universal quantifiers,
        as far as they have at most ``limit`` points, in the order their
        loops visit them; t holds iff each closure returns 1."""
        A = self.assign
        bound: dict[str, int] = {}
        carriers = []
        first = len(A)  # the quantifiers' slots are A[first:last]
        while isinstance(t, Forall) and math.prod(map(len, carriers)) * self.sizes[t.sort] <= limit:
            bound[t.var] = len(A)
            A.append(0)
            carriers.append(range(self.sizes[t.sort]))
            t = t.body
        last = len(A)
        body = self._term(t, bound, {})
        if not carriers:
            return [body]

        def at(point):
            def step():
                A[first:last] = point
                return body()
            return step
        return [at(point) for point in itertools.product(*carriers)]

    def _term(self, t: Term, bound: dict[str, int], lets: dict[str, int]):
        A, C = self.assign, self.cells
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
            if t.fn in self.zero and t.fn not in lets:
                return lambda: 0
            args = []
            for a in t.args:  # a comprehension would take a second frame per level
                args.append(self._term(a, bound, lets))
            if t.fn in _CONNECTIVES:
                return _CONNECTIVES[t.fn](*args)
            k = lets[t.fn] if t.fn in lets else self.fn_slot(t.fn)
            if not args:
                cell = (k,)
                return lambda: C[cell]
            if len(args) == 1:
                (a,) = args
                return lambda: C[k, a()]
            if len(args) == 2:
                a, b = args
                return lambda: C[k, a(), b()]
            return lambda: C[(k, *[f() for f in args])]

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
            k = next(self.slots)
            scope = self._term(t.scope, bound, {**lets, t.fn: k})
            points = list(itertools.product(*(range(self.sizes[s]) for _, s in t.params)))
            entries = [((k, *point), point) for point in points]

            def let():
                for cell, point in entries:
                    for i, value in zip(slots, point):
                        A[i] = value
                    C[cell] = body()
                return scope()
            return let

        raise TypeError(f"not a term: {t!r}")


def _fill(slots: dict[str, int], values: Mapping, into, kind: str) -> None:
    for name, i in slots.items():
        try:
            into[i] = values[name]
        except KeyError:
            raise KeyError(f"{kind} {name!r} not interpreted") from None


class _TableCells(dict):
    """A cell store whose missing cells ``(k, *args)`` read ``tables[k][args]``."""

    def __init__(self) -> None:
        super().__init__()
        self.tables: dict[int, Mapping] = {}

    def __missing__(self, cell: tuple[int, ...]) -> int:
        return self.tables[cell[0]][cell[1:]]


def eval_term(interp: Interpretation, t: Term) -> int:
    """The value of t, an element of the carrier of t's sort.

    The interpretation must cover every free variable and free function
    symbol of t; a missing entry raises KeyError.  The closures read the
    interpretation's tables in place, so no entry is copied.
    """
    program = _Program(interp.sizes)
    cells = program.cells = _TableCells()
    run = program.compile(t)
    _fill(program.free_vars, interp.assign, program.assign, "variable")
    _fill(program.fns, interp.tables, cells.tables, "function symbol")
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


def _shape(ctx: TypeContext, spec: DomainSpec, fn: str, cap: int):
    """The carrier sizes of the symbol's arguments and of its result.

    A symbol into a one-element carrier has one table however many
    entries it has, so the interpretation count does not bound those.
    """
    sig = _signature(ctx, fn)
    sizes = [spec.size(s) for s in sig.args]
    if math.prod(sizes) > cap:
        raise EnumerationOverflow(cap, "table entries")
    return sizes, spec.size(sig.result)


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


def _tables(layout, fixed: dict):
    """Every joint table of the symbols that agrees with ``fixed``, in
    lexicographic order, as (entries, tables by name).

    ``layout`` lists (name, table slot, argument sizes, result size), names
    sorted; ``fixed`` maps cells (slot, *point) to values.  ``entries`` is
    the value of every cell, symbol by symbol and point by point, so
    members compare in the order they are listed.
    """
    shapes = []
    ranges = []
    for fn, slot, sizes, rng in layout:
        if rng == 1:
            shapes.append((fn, _ZeroTable(sizes), None))
            continue
        points = list(itertools.product(*map(range, sizes)))
        shapes.append((fn, None, points))
        cells = [(slot, *point) for point in points]
        ranges.extend((fixed[cell],) if cell in fixed else range(rng) for cell in cells)
    for entries in itertools.product(*ranges):
        values = iter(entries)  # each table takes its entries off the front
        yield entries, {
            fn: zero if points is None else dict(zip(points, values))
            for fn, zero, points in shapes
        }


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
    layout = [(fn, None, *_shape(ctx, spec, fn, cap)) for fn in names]
    for _, tables in _tables(layout, {}):
        yield Interpretation(sizes, tables)


class _Search:
    """A running search: the value ranges of its table slots, the index of
    the step it is running, and its trail of (cell, the values the cell
    has left, the index of the step that first read it), in the order the
    cells were decided."""

    __slots__ = ("ranges", "step", "trail")

    def __init__(self, ranges: dict) -> None:
        self.ranges = ranges
        self.step = 0
        self.trail: list = []


class _SearchCells(dict):
    """The oracle's cell store.  A read of a missing cell whose table slot
    a running search owns decides the cell: it takes the first value of
    its carrier and goes on that search's trail.  A missing cell of any
    other slot raises KeyError."""

    def __init__(self) -> None:
        super().__init__()
        self.searches: dict[int, _Search] = {}  # table slot -> its running search

    def __missing__(self, cell: tuple[int, ...]) -> int:
        search = self.searches.get(cell[0])
        if search is None:
            raise KeyError(cell)
        values = iter(search.ranges[cell[0]])
        value = self[cell] = next(values)
        search.trail.append((cell, values, search.step))
        return value


def _split(steps, cells: _SearchCells, ranges: dict, leaf) -> bool:
    """Run the steps in order under every way of giving values to the
    cells they read among those of the table slots in ``ranges``.

    A step that returns a false value ends its run, and the value of the
    last step run goes to ``leaf``; once ``leaf`` returns a true value the
    search stops and returns True.  Each cell of these slots is decided
    when a step first reads it.  After a run the search advances the last
    cell on its trail that has a value left, forgets the cells decided
    after it and resumes at the step that first read it: the steps before
    that one read only cells that stay as they were.  When no cell has a
    value left it returns False.  Either way it forgets every cell it
    decided.
    """
    search = _Search(ranges)
    cells.searches.update(dict.fromkeys(ranges, search))
    trail = search.trail
    start = 0
    try:
        while True:
            result = 1
            for i in range(start, len(steps)):
                search.step = i
                result = steps[i]()
                if not result:
                    break
            if leaf(result):
                return True
            while trail:
                cell, values, start = trail[-1]
                value = next(values, None)
                if value is not None:
                    cells[cell] = value
                    break
                del cells[cell]
                trail.pop()
            else:
                return False
    finally:
        for cell, _, _ in trail:
            del cells[cell]
        for slot in ranges:
            del cells.searches[slot]


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

    The search branches on table cells as the module docstring says.  A
    base run evaluates phi and then searches the fresh cells for models
    of the translation: when phi holds it stops at the first, otherwise
    it collects them all.  A block that fails a direction is expanded
    into its members only to list them, sorted into lexicographic order:
    base symbols by name, then fresh ones, each point by point.
    ``checked`` is the size of the full product.
    """
    ctx = translated.ctx
    fresh = sorted(translated.fresh_symbols)
    checks = [*translated.defs, translated.current]
    base = sorted(
        fn
        for fn in free_fns(phi).union(*map(free_fns, checks))
        if fn not in BUILTIN_FNS and fn not in fresh
    )
    total = table_count(ctx, spec, base + fresh, cap)
    if total > cap:
        raise EnumerationOverflow(cap)
    shape = {fn: _shape(ctx, spec, fn, cap) for fn in base + fresh}

    sizes = dict(spec.sizes)
    program = _Program(sizes, frozenset(fn for fn, (_, rng) in shape.items() if rng == 1))
    cells = program.cells = _SearchCells()
    phi_holds = program.compile(phi)
    # each check runs as one step per point of its leading universal
    # quantifiers, so a new cell value resumes at the point that read it; a
    # check gets no more steps than the fresh tables have cells
    fresh_cells = sum(math.prod(args) for args, rng in map(shape.get, fresh) if rng > 1)
    translation = [step for d in checks for step in program.compile_points(d, fresh_cells)]
    _fill(program.free_vars, {}, program.assign, "variable")  # all are closed
    base_ranges, fresh_ranges = (
        {program.fns[fn]: range(shape[fn][1]) for fn in names if fn in program.fns}
        for names in (base, fresh)
    )

    def read(ranges) -> dict:
        return {cell: value for cell, value in cells.items() if cell[0] in ranges}

    def base_run():
        holds = phi_holds()
        blocks = []  # the fresh cells of each block of models of the translation

        def model(ok):
            if ok:
                blocks.append(None if holds else read(fresh_ranges))
            return ok and holds  # when phi holds, one extension is enough

        _split(translation, cells, fresh_ranges, model)
        return holds, blocks

    base_layout, fresh_layout = (
        [(fn, program.fns.get(fn), *shape[fn]) for fn in names] for names in (base, fresh)
    )
    found = []  # (entries, direction, interpretation) of each failing member

    def judge(result):
        holds, blocks = result
        if bool(holds) == bool(blocks):  # both directions hold on the block
            return
        if holds:
            direction, tails = "extension", [((), {})]
        else:
            direction = "reduct"
            tails = [member for block in blocks for member in _tables(fresh_layout, block)]
        for entries, tables in _tables(base_layout, read(base_ranges)):
            for tail_entries, tail in tails:
                interp = Interpretation(sizes, {**tables, **tail})
                found.append((entries + tail_entries, direction, interp))

    _split([base_run], cells, base_ranges, judge)
    found.sort(key=lambda member: member[0])
    return PreservationReport(total, [(direction, interp) for _, direction, interp in found])
