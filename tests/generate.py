"""Seeded random generation of well-sorted terms and interpretations.

Used by the property and acceptance tests; everything is driven by
an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from foolkit.semantics import DomainSpec, Interpretation
from foolkit.terms import (
    App,
    BOOL,
    Eq,
    Exists,
    Forall,
    Ite,
    Let,
    Signature,
    Sort,
    Term,
    TypeContext,
    TypeSig,
    Var,
    land,
    liff,
    limplies,
    lnot,
    lor,
    FALSE,
    TRUE,
)


TRUE_MARK = "$true"
FALSE_MARK = "$false"


def small_signature() -> Signature:
    """Two uninterpreted sorts and a handful of symbols of arity <= 2."""
    sig = Signature()
    s = sig.declare_sort("alpha")
    t = sig.declare_sort("beta")
    sig.declare_fn("c0", TypeSig((), s))
    sig.declare_fn("c1", TypeSig((), s))
    sig.declare_fn("d0", TypeSig((), t))
    sig.declare_fn("b0", TypeSig((), BOOL))
    sig.declare_fn("f", TypeSig((s,), s))
    sig.declare_fn("h", TypeSig((s, t), t))
    sig.declare_fn("p", TypeSig((s,), BOOL))
    sig.declare_fn("q", TypeSig((s, t), BOOL))
    sig.declare_fn("w", TypeSig((BOOL,), s))
    return sig


@dataclass
class TermGen:
    """Random well-sorted terms over a fixed signature.

    ``free_pool`` variables may occur free in generated terms, which the
    weakening and irrelevance properties need.
    """

    rng: random.Random
    sig: Signature | None = None
    max_depth: int = 4

    def __post_init__(self) -> None:
        if self.sig is None:
            self.sig = small_signature()
        self.sorts = [s for s in self.sig.sorts.values()]
        self.free_pool = {
            "U0": self.sig.sort("alpha") or BOOL,
            "U1": self.sig.sort("beta") or BOOL,
            "U2": BOOL,
        }
        self._counter = 0

    def context(self) -> TypeContext:
        return TypeContext.of(self.sig).with_vars(self.free_pool.items())

    def domain_spec(self, max_size: int = 3) -> DomainSpec:
        sizes = {
            sort: self.rng.randint(1, max_size)
            for sort in self.sorts
            if not sort.is_bool
        }
        return DomainSpec(sizes)

    def _fresh_var(self) -> str:
        self._counter += 1
        return f"V{self._counter}"

    def term(self, sort: Sort, env: dict[str, Sort], depth: int) -> Term:
        """A term of the requested sort under env (variable sorts)."""
        rng = self.rng
        candidates = [name for name, s in env.items() if s == sort]
        producers = [
            name
            for name, fs in self.sig.fns.items()
            if fs.result == sort and not name.startswith("$")
        ]
        if depth <= 0:
            leaves = [name for name in producers if self.sig.fn_sig(name).arity == 0]
            if sort == BOOL:
                leaves.extend([TRUE_MARK, FALSE_MARK])
            if candidates and (not leaves or rng.random() < 0.5):
                return Var(rng.choice(candidates))
            if leaves:
                pick = rng.choice(leaves)
                if pick == TRUE_MARK:
                    return TRUE
                if pick == FALSE_MARK:
                    return FALSE
                return App(pick, ())
            if candidates:
                return Var(rng.choice(candidates))
            # No nullary producer: fall through to an application.
            depth = 1

        roll = rng.random()
        if sort == BOOL:
            if roll < 0.18:
                op = rng.choice([land, lor, limplies, liff])
                return op(
                    self.term(BOOL, env, depth - 1), self.term(BOOL, env, depth - 1)
                )
            if roll < 0.26:
                return lnot(self.term(BOOL, env, depth - 1))
            if roll < 0.36:
                inner = rng.choice([s for s in self.sorts])
                return Eq(
                    self.term(inner, env, depth - 1), self.term(inner, env, depth - 1)
                )
            if roll < 0.48:
                var = self._fresh_var()
                var_sort = rng.choice(self.sorts)
                node = Forall if rng.random() < 0.5 else Exists
                return node(
                    var, var_sort, self.term(BOOL, {**env, var: var_sort}, depth - 1)
                )
        if roll < 0.58 and depth >= 2:
            return Ite(
                self.term(BOOL, env, depth - 1),
                self.term(sort, env, depth - 1),
                self.term(sort, env, depth - 1),
            )
        if roll < 0.68 and depth >= 2:
            return self._let(sort, env, depth)
        if producers:
            name = rng.choice(producers)
            fs = self.sig.fn_sig(name)
            args = tuple(self.term(a, env, depth - 1) for a in fs.args)
            return App(name, args)
        if candidates:
            return Var(rng.choice(candidates))
        return self.term(sort, env, 0)

    def _let(self, sort: Sort, env: dict[str, Sort], depth: int) -> Term:
        rng = self.rng
        arity = rng.randint(0, 2)
        params = tuple(
            (self._fresh_var(), rng.choice(self.sorts)) for _ in range(arity)
        )
        body_sort = rng.choice(self.sorts)
        body_env = {**env, **dict(params)}
        body = self.term(body_sort, body_env, depth - 1)
        fn = f"loc{self._counter}"
        self._counter += 1
        # The bound symbol is usable in the scope through the env trick:
        # generate the scope over an extended signature view is overkill,
        # so the scope simply may or may not mention fn by construction.
        scope = self.term(sort, env, depth - 1)
        if rng.random() < 0.7:
            args = tuple(self.term(s, env, 0) for _, s in params)
            use = App(fn, args)
            if body_sort == sort:
                scope = use
            elif body_sort == BOOL and sort == BOOL:
                scope = use
            elif sort == BOOL:
                scope = Eq(use, self.term(body_sort, env, 0))
        return Let(fn, params, body, scope)

    def formula(self, depth: int | None = None) -> Term:
        return self.term(BOOL, dict(self.free_pool), depth or self.max_depth)

    def interpretation(self, ctx: TypeContext, spec: DomainSpec) -> Interpretation:
        """Random total tables for every declared symbol plus assignments
        for the free variable pool."""
        rng = self.rng
        tables: dict[str, dict[tuple[int, ...], int]] = {}
        for name in self.sig.user_fns():
            fs = self.sig.fn_sig(name)
            points = list(
                itertools.product(*(range(spec.size(s)) for s in fs.args))
            )
            size = spec.size(fs.result)
            tables[name] = {pt: rng.randrange(size) for pt in points}
        assign = {
            name: rng.randrange(spec.size(sort))
            for name, sort in self.free_pool.items()
        }
        return Interpretation(dict(spec.sizes), tables, assign)


# ---------------------------------------------------------------------------
# lowering shapes: problem texts whose lowering is dominated by one kind
# of step, at a range of sizes

SHAPE_DECLS = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_d, type, d : s).
tff(d_f, type, f : s > s).
tff(d_h, type, h : (s * s) > s).
tff(d_g, type, g : ($o * s) > s).
tff(d_w, type, w : $o > s).
tff(d_p, type, p : s > $o).
tff(d_q, type, q : (s * s) > $o).
"""


def _shape_conditions(n: int) -> str:
    return "".join(f"tff(d_b{i}, type, b{i} : $o).\n" for i in range(n))


def _shape_literal(rng: random.Random, atom: str) -> str:
    return atom if rng.random() < 0.5 else f"~{atom}"


def let_nest_text(rng: random.Random, depth: int, quantified: bool) -> str:
    """``depth`` nested lets, each defining a constant or a unary symbol
    from the previous one.  Quantified nests sit under ``![X : s]``, so the
    lifted symbols take X as an extra argument, and some scopes rebind X,
    which the lift must rename."""
    other = "X" if quantified else "d"

    def build(i: int, prev: str) -> str:
        if i == depth:
            return _shape_literal(rng, f"p({prev})")
        name = f"a{i}"
        rhs = f"f({prev})" if rng.random() < 0.5 else f"h({prev}, {other})"
        if rng.random() < 0.3:
            head, sig, body, use = f"{name}(Y)", "s > s", f"h(Y, {prev})", f"{name}({other})"
        else:
            head, sig, body, use = name, "s", rhs, name
        scope = build(i + 1, use)
        if quantified and rng.random() < 0.3:
            scope = f"(q({use}, X) {rng.choice('&|')} ![X : s] : {scope})"
        return f"$let({name} : {sig}, {head} := {body}, {scope})"

    body = build(0, "c")
    if quantified:
        body = f"![X : s] : {body}"
    return SHAPE_DECLS + f"tff(a, axiom, {body}).\n"


def mixed_let_text(rng: random.Random, depth: int) -> str:
    """Nested lets under ``![X : s]`` whose bodies hold if-then-else terms
    and whose scopes hold formulas in term contexts and if-then-else
    conditions that mention the let's symbol, so those redexes are lowered
    only once the let is lifted."""

    def build(i: int, prev: str) -> str:
        if i == depth:
            return _shape_literal(rng, f"p({prev})")
        name = f"a{i}"
        body = rng.choice([f"$ite(b{i}, {prev}, f({prev}))", f"h({prev}, X)"])
        if rng.random() < 0.5:
            use = f"q(w(p({name}) {rng.choice('&|')} b{i}), {name})"
        else:
            use = f"p($ite(p({name}), X, {name}))"
        return f"$let({name} : s, {name} := {body}, ({use} & {build(i + 1, name)}))"

    return SHAPE_DECLS + _shape_conditions(depth) + f"tff(a, axiom, ![X : s] : {build(0, 'c')}).\n"


def ite_chain_text(rng: random.Random, n: int, quantified: bool) -> str:
    """``g(b_i & b_{i+1}, $ite(b_i, ..., c)) = c`` with n nested levels; a
    quantified chain ends in X, so every named if-then-else takes X."""
    term = "X" if quantified else "c"
    for i in range(n - 1, -1, -1):
        guard = f"b{i} {rng.choice('&|')} b{i + 1}"
        els = rng.choice(["c", "d"])
        term = f"g({guard}, $ite({_shape_literal(rng, f'b{i}')}, {term}, {els}))"
    body = f"{term} = c"
    if quantified:
        body = f"![X : s] : ({body})"
    return SHAPE_DECLS + _shape_conditions(n + 1) + f"tff(a, axiom, {body}).\n"


def ite_tree_text(rng: random.Random, depth: int) -> str:
    """A balanced if-then-else tree with 2^depth leaves under f."""

    def build(level: int) -> str:
        if level == depth:
            return rng.choice(["c", "d", "f(c)", "h(c, d)"])
        cond = _shape_literal(rng, rng.choice([f"b{level}", f"p({rng.choice('cd')})"]))
        return f"$ite({cond}, {build(level + 1)}, {build(level + 1)})"

    return SHAPE_DECLS + _shape_conditions(depth) + f"tff(a, axiom, f({build(0)}) = c).\n"


def naming_text(rng: random.Random, count: int) -> str:
    """count conjuncts w(A) = w(B) over one variable, so every side is a
    formula in a term context."""
    ops = ("&", "|", "=>", "<=>")
    atoms = ["p(X)", "q(X, c)"]
    parts = []
    for _ in range(count):
        left = f"({_shape_literal(rng, atoms[0])} {rng.choice(ops)} {_shape_literal(rng, atoms[1])})"
        right = f"({_shape_literal(rng, atoms[1])} {rng.choice(ops)} {_shape_literal(rng, atoms[0])})"
        parts.append(f"(w({left}) = w({right}))")
    return SHAPE_DECLS + "tff(a, axiom, ![X : s] : (" + " & ".join(parts) + ")).\n"


def lowering_shapes(seed: int = 0):
    """(name, problem text) for let nests of depth 5 to 40, lets mixed with
    the other redexes, if-then-else
    chains of 10 to 100 levels, if-then-else trees and naming problems.
    The parser takes about 8 frames per chain level, so a 120-level chain
    does not parse under pytest at the default recursion limit."""
    rng = random.Random(seed)
    for depth in (5, 10, 20, 30, 40):
        for quantified in (False, True):
            yield f"let-{depth}{'-forall' if quantified else ''}", let_nest_text(rng, depth, quantified)
    for depth in (5, 10, 20):
        yield f"mixed-let-{depth}", mixed_let_text(rng, depth)
    for n in (10, 30, 60, 100):
        for quantified in (False, True):
            yield f"chain-{n}{'-forall' if quantified else ''}", ite_chain_text(rng, n, quantified)
    for depth in (3, 5, 7):
        yield f"tree-{depth}", ite_tree_text(rng, depth)
    for count in (5, 20, 40):
        yield f"naming-{count}", naming_text(rng, count)
