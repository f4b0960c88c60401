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
