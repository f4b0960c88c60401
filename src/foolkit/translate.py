"""Model-preserving lowering to syntactically first-order form.

The rewriting maintains a growing list of closed definition formulas that
pin the meaning of every fresh symbol, so models of the input and models
of (definitions and rewritten formula) correspond exactly.  Four local
steps do all the work:

  1. a boolean variable in a formula context becomes ``x = true``;
  2. a non-atomic boolean term in a term context is named by a fresh
     symbol defined through an equivalence;
  3. an if-then-else is named by a fresh symbol with two guarded
     equations;
  4. a let definition is lifted to a fresh top-level symbol that takes
     the let term's free variables as extra arguments.

A step applies where ``terms.redex_kind`` names it, in the driver and
the single-step API alike.  Steps 2-4 name their term by one
``_fresh_symbol``, and the let lift reads what a let binds from
``terms.binders``.

Steps 2 and 3 name each distinct term once per state: an occurrence of
a term already named, over the same free variables with the same sorts,
gets the first occurrence's symbol applied to the same variables, and
adds no symbol and no definition; the step is still logged.  This keeps
the models: a symbol's definitions fix its value, as a function of
those variables, in every interpretation of the input, and a step
applies only where no let symbol bound above occurs free, so the term
means the same at every occurrence.  Alpha-variants and let lifts are
not shared.  The single-step API uses the state's table too.

The driver lowers ``current``, then each definition a let step adds (in
order, including those added meanwhile), in one post-order pass each: a
node's children first, then the node itself if it is an eligible redex,
logged as ``(kind, target, path)`` with the node's path at that moment.
The other steps define their symbols with subterms already lowered, which
keep their contexts in the definition, so their definitions need no pass.
The pass records, by identity, what it returned inside a let's scope with
its clash set: the let symbols bound above it that occur free in it.  The
lift hands these records to the symbol rewrite, which goes down only into
subtrees whose record names the let's symbol and keeps every other subtree
as the same object; a subtree with no usable record (all of them in the
single-step API) is rewritten whole.  After a let is lifted its scope is
lowered again in the let's context, since redexes that used the let's
symbol are eligible now, and the second lowering visits only the paths the
lift changed.  So steps come innermost-leftmost, runs are deterministic
and every definition stays closed.

The driver applies at most as many steps as the input has redexes
(if-then-else and let nodes, boolean variables in formula contexts and
non-atomic boolean terms in term contexts) and leaves every formula
first-order.  Both are proved, and the tests check them on every pinned
input, so ``run_translation`` does not check them again.  ``to_fol``
makes one ``terms.contexts`` walk per formula, which refuses a residue
and collects the symbols the formula applies in formula contexts and in
term contexts; it decides the predicate split from those, then turns the
atoms of function-split symbols into equations with true in one rebuild
that carries the contexts down.
"""

from __future__ import annotations

from operator import is_not
from typing import Union

from .terms import (
    App,
    BOOL,
    BUILTIN_FNS,
    Eq,
    FALSE,
    Forall,
    Let,
    NO_CONTEXT,
    FRESH_PREFIX,
    Record,
    Sort,
    TERM_CONTEXT,
    TRUE,
    Term,
    TypeContext,
    TypeSig,
    Var,
    Occurrence,
    all_names,
    binders,
    child_context,
    child_occurrence,
    children,
    contexts,
    forall_prefix,
    free_fns,
    free_vars_ordered,
    is_syntactically_first_order,
    liff,
    limplies,
    lnot,
    lor,
    occurrence_at,
    redex_kind,
    replace_at,
    subst_free_vars,
    with_children,
)
from .typecheck import check_formula, infer_sort

Target = Union[str, int]  # "current" or an index into defs
# what a driver pass returned inside a let's scope, by identity: the term
# and its clash set, or None for a term returned at two places with
# different clash sets (see ``_Pass``)
_Records = dict[int, tuple[Term, frozenset | None]]
_new_tuple = tuple.__new__  # an Occurrence without the NamedTuple's Python-level __new__
# the symbols a first-order formula applies in formula contexts, and in
# term contexts
_Applied = tuple[set[str], set[str]]


class TranslationState(Record):
    """The formula being rewritten, the definitions produced so far, and
    the context extended with the fresh symbols.

    ``current`` and ``ctx`` are the state's inputs.  The definitions, the
    fresh symbols, the step log and the table of named terms start empty,
    the two name counters at 0, and ``used_names`` starts as every name
    in ``current``, so fresh variables and symbols avoid them.  The table
    of named terms is left out of equality and repr."""

    _fields = (
        "current", "ctx", "defs", "fresh_symbols", "steps", "fn_counter", "var_counter", "used_names"
    )
    __slots__ = (*_fields, "named")

    def __init__(self, current: Term, ctx: TypeContext) -> None:
        self.current, self.ctx = current, ctx
        self.defs: list[Term] = []
        self.fresh_symbols: list[str] = []
        self.steps: list[tuple[str, Target, tuple[int, ...]]] = []
        self.fn_counter = self.var_counter = 0
        self.used_names = all_names(current)
        # each term steps 2 and 3 named, with its free variables and their
        # sorts in ``free_vars_ordered`` order, to its symbol applied to them
        self.named: dict[tuple[Term, tuple[tuple[str, Sort], ...]], App] = {}

    def formula_at(self, target: Target) -> Term:
        if target == "current":
            return self.current
        return self.defs[target]

    def _set_formula(self, target: Target, value: Term) -> None:
        if target == "current":
            self.current = value
        else:
            self.defs[target] = value

    def fresh_fn(self) -> str:
        while True:
            name = f"{FRESH_PREFIX}{self.fn_counter}"
            self.fn_counter += 1
            if name not in self.used_names and self.ctx.fn_sig(name) is None:
                self.used_names.add(name)
                return name

    def fresh_var(self, base: str = "Z") -> str:
        while True:
            name = f"{base}{self.var_counter}"
            self.var_counter += 1
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def step_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rule, _, _ in self.steps:
            out[rule] = out.get(rule, 0) + 1
        return out


# ---------------------------------------------------------------------------
# the four steps: each core adds the fresh symbol and its definitions to
# the state and returns the occurrence's replacement; the caller has
# checked that ``redex_kind`` names the core's step and nothing clashes


def _free_vars_with_sorts(t: Term, ctx: TypeContext) -> list[tuple[str, Sort]]:
    out = []
    for name in free_vars_ordered(t):
        sort = ctx.var_sort(name)
        if sort is None:
            raise ValueError(f"free variable {name!r} has no sort in scope")
        out.append((name, sort))
    return out


def _bool_var(state: TranslationState, occ: Occurrence) -> Term:
    t = occ.term
    if state.ctx.with_vars(occ.variables).var_sort(t.name) != BOOL:
        raise ValueError("variable is not boolean")
    return Eq(t, TRUE)


def _fresh_symbol(state: TranslationState, binds: list[tuple[str, Sort]], sort: Sort) -> App:
    """A fresh symbol from the sorts of ``binds`` to ``sort``, added to the
    state's context and fresh symbols, applied to the variables of
    ``binds``."""
    g = state.fresh_fn()
    state.ctx = state.ctx.with_fn(g, TypeSig(tuple(s for _, s in binds), sort))
    state.fresh_symbols.append(g)
    return App(g, tuple(Var(x) for x, _ in binds))


def _formula_in_term(state: TranslationState, occ: Occurrence) -> Term:
    psi = occ.term
    binds = _free_vars_with_sorts(psi, state.ctx.with_vars(occ.variables))
    key = (psi, tuple(binds))
    gapp = state.named.get(key)
    if gapp is None:
        gapp = state.named[key] = _fresh_symbol(state, binds, BOOL)
        state.defs.append(forall_prefix(binds, liff(psi, Eq(gapp, TRUE))))
    return gapp


def _ite(state: TranslationState, occ: Occurrence) -> Term:
    t = occ.term
    ctx = state.ctx.with_vars(occ.variables)
    binds = _free_vars_with_sorts(t, ctx)
    key = (t, tuple(binds))
    gapp = state.named.get(key)
    if gapp is None:
        gapp = state.named[key] = _fresh_symbol(state, binds, infer_sort(ctx, t.then))
        state.defs.append(forall_prefix(binds, limplies(t.cond, Eq(gapp, t.then))))
        state.defs.append(forall_prefix(binds, limplies(lnot(t.cond), Eq(gapp, t.els))))
    return gapp


def _rename_bound_in(t: Term, names: set[str], state: TranslationState) -> Term:
    """Rename binders whose bound name lies in ``names`` to fresh
    variables, innermost first; a subtree with no such binder is returned
    as the same object."""
    if not names:
        return t
    t = with_children(t, tuple(_rename_bound_in(kid, names, state) for kid in children(t)))
    variables, _ = binders(t, 0)  # quantifiers and lets bind variables in child 0, .body
    fresh = {x: state.fresh_var(base="Y") for x, _ in variables if x in names}
    if not fresh:
        return t
    renamed = tuple((fresh.get(x, x), s) for x, s in variables)
    body = subst_free_vars(t.body, {x: Var(y) for x, y in fresh.items()})
    if isinstance(t, Let):
        return Let(t.fn, renamed, body, t.scope)
    ((var, sort),) = renamed
    return type(t)(var, sort, body)


def _lift_apps(t: Term, fn: str, head: tuple[str, tuple[Term, ...]], returned: _Records) -> Term:
    """``subst_free_vars(t, {}, {fn: head})``, read off the pass's records:
    a subtree whose recorded clash set lacks ``fn`` does not mention it and
    is kept as the same object, and the scope of a let that binds ``fn``
    again is kept too.  A subtree with no record, or with the record of
    one term returned at two places (None), is rewritten whole."""
    known = returned.get(id(t))
    if known is None or known[1] is None:
        return subst_free_vars(t, {}, {fn: head})
    if fn not in known[1]:
        return t
    kids = children(t)
    new = tuple(
        kid if binders(t, i)[1] == fn else _lift_apps(kid, fn, head, returned)
        for i, kid in enumerate(kids)
    )
    if type(t) is App and t.fn == fn:
        return App(head[0], new + head[1])
    return with_children(t, new)


def _let(state: TranslationState, occ: Occurrence, returned: _Records | None = None) -> Term:
    """The lift; ``returned`` holds the driver pass's records of the
    scope's subtrees, and the single-step API has none."""
    t = occ.term
    ctx = state.ctx.with_vars(occ.variables)
    outer = _free_vars_with_sorts(t, ctx)  # the ys with their sorts
    # the checks come first, so a failed step takes no fresh name
    sort = infer_sort(ctx.with_vars(t.params), t.body)
    zs = [(state.fresh_var(), s) for _, s in t.params]
    s_prime = subst_free_vars(
        t.body, {x: Var(z) for (x, _), (z, _) in zip(t.params, zs)}
    )
    gapp = _fresh_symbol(state, zs + outer, sort)
    state.defs.append(forall_prefix(zs + outer, Eq(gapp, s_prime)))
    scope = _rename_bound_in(t.scope, {y for y, _ in outer}, state)
    return _lift_apps(scope, t.fn, (gapp.fn, gapp.args[len(zs):]), returned or {})


_CORES = {
    "bool-var": _bool_var,
    "formula-in-term": _formula_in_term,
    "ite": _ite,
    "let": _let,
}


def _single_step(state: TranslationState, kind: str, path: tuple[int, ...], target: Target) -> TranslationState:
    chi = state.formula_at(target)
    occ = occurrence_at(chi, path)
    if redex_kind(occ.term, occ.context) != kind:
        raise ValueError(f"no {kind} step applies at {path!r}")
    # a step applies only where no let symbol bound above occurs free, so
    # its context needs only the variables bound above it
    clash = free_fns(occ.term) & occ.lets
    if clash:
        raise ValueError(f"term has free occurrences of locally bound symbols {sorted(clash)}")
    new = _CORES[kind](state, occ)
    state._set_formula(target, replace_at(chi, path, new))
    state.steps.append((kind, target, path))
    return state


def step1_bool_var(state: TranslationState, path: tuple[int, ...], target: Target = "current") -> TranslationState:
    """Replace a boolean variable in a formula context by ``x = true``."""
    return _single_step(state, "bool-var", path, target)


def step2_formula_in_term_ctx(
    state: TranslationState, path: tuple[int, ...], target: Target = "current"
) -> TranslationState:
    """Name a non-atomic formula standing in a term context by a fresh
    symbol; atoms, truth constants and bare variables stay in place.  A
    formula the state has named already, over the same variables at the
    same sorts, gets that symbol and no new definition."""
    return _single_step(state, "formula-in-term", path, target)


def step3_ite(state: TranslationState, path: tuple[int, ...], target: Target = "current") -> TranslationState:
    """Name an if-then-else by a fresh symbol with two guarded equations;
    one the state has named already, over the same variables at the same
    sorts, gets that symbol and no new definitions."""
    return _single_step(state, "ite", path, target)


def step4_let(state: TranslationState, path: tuple[int, ...], target: Target = "current") -> TranslationState:
    """Lift a let definition to a fresh top-level symbol.

    The definition body is copied once with the formals renamed to fresh
    variables; the scope is rewritten so every application of the bound
    symbol passes the let term's free variables as extra arguments.
    """
    return _single_step(state, "let", path, target)


# ---------------------------------------------------------------------------
# the driver


class _Pass:
    """One post-order pass over one target.

    ``returned`` holds, by identity, each term the pass has returned
    inside a let's scope with its clash set, or None when the term was
    returned at two places with different clash sets; a let step hands it
    to the lift, whose rewrite of the scope reads it.  ``targets`` is the
    job's list of targets still to lower, to which a let step adds its
    definition."""

    def __init__(self, state: TranslationState, target: Target, targets: list[Target]) -> None:
        self.state = state
        self.target = target
        self.targets = targets
        self.returned: _Records = {}

    def lower(
        self, occ: Occurrence, path: tuple[int, ...], again: bool = False
    ) -> tuple[Term, frozenset[str]]:
        """Lower the occurrence's children left to right, then the
        occurrence itself if it is an eligible redex; return the lowered
        term and the let symbols bound above it that occur free in it,
        which it clashes with: a step applies only where there are none.

        ``again`` is set below a lifted let, whose scope now stands in the
        let's place.  The lift leaves every subtree it does not change as
        the same object, in the same place, so a child the pass has
        returned before has nothing left to lower and is returned again
        with its recorded clash set, unvisited.  That set is unchanged: the
        only binder that went away is the let's own symbol, which the
        child does not mention.  Only the scope's root changes context,
        and it is always visited."""
        t = occ.term
        kids = children(t)
        new = []
        clash = frozenset()
        for i, kid in enumerate(kids):
            known = self.returned.get(id(kid)) if again else None
            if known is not None and known[1] is not None:
                lowered, kid_clash = known
            else:
                lowered, kid_clash = self.lower(child_occurrence(occ, i, kid), path + (i,), again)
            new.append(lowered)
            if kid_clash:
                clash |= kid_clash - {binders(t, i)[1]}
        if isinstance(t, App) and t.fn in occ.lets:
            clash |= {t.fn}
        if any(map(is_not, new, kids)):  # untouched subtrees are kept
            occ = _new_tuple(Occurrence, (with_children(t, tuple(new)), *occ[1:]))
        kind = redex_kind(occ.term, occ.context)
        if kind is None or clash:
            return self.note(occ, clash)
        if kind != "let":
            lowered = _CORES[kind](self.state, occ)
            self.state.steps.append((kind, self.target, path))
            # nothing clashed, and the replacement adds only a fresh symbol
            return self.note(_new_tuple(Occurrence, (lowered, *occ[1:])), frozenset())
        lowered = _let(self.state, occ, self.returned)
        self.state.steps.append((kind, self.target, path))
        self.targets.append(len(self.state.defs) - 1)
        # the let's symbol no longer binds anything, so redexes in the
        # scope that mention it are eligible now, in the let's own context
        return self.lower(_new_tuple(Occurrence, (lowered, *occ[1:])), path, again=True)

    def note(self, occ: Occurrence, clash: frozenset) -> tuple[Term, frozenset[str]]:
        """Return the occurrence's term and clash set, recorded if it lies
        in a let's scope, the only place that is lowered again."""
        if occ.lets:
            known = self.returned.get(id(occ.term))
            same = known is None or known[1] == clash
            self.returned[id(occ.term)] = (occ.term, clash if same else None)
        return occ.term, clash


def _lower_targets(state: TranslationState) -> None:
    """One pass over ``current``, then over each definition the state
    already has, then over each definition a let step adds, in order,
    including those added while the passes run.  The other steps build
    their definitions from lowered terms that keep their contexts, so a
    pass over those would find nothing to do."""
    targets: list[Target] = ["current", *range(len(state.defs))]
    for target in targets:  # grows while it runs
        lowered, _ = _Pass(state, target, targets).lower(Occurrence(state.formula_at(target)), ())
        state._set_formula(target, lowered)


def run_translation(phi: Term, ctx: TypeContext) -> TranslationState:
    """Drive the steps to a fixpoint; the result and every definition are
    syntactically first-order.

    The input must be a closed formula: it is sort-checked without the
    variables ``ctx`` binds, so an open one raises ``SortError``.  The
    number of applied steps never exceeds the input's redex measure, so
    the run terminates; the tests check that bound, and first-orderness,
    on every pinned input.
    """
    check_formula(TypeContext(ctx.sig, fn_binds=ctx.fn_binds), phi)
    state = TranslationState(current=phi, ctx=ctx)
    _lower_targets(state)
    return state


# ---------------------------------------------------------------------------
# conversion to a legal first-order problem


class FolProblem(Record):
    """A syntactically first-order problem with explicit boolean axioms.

    Truth constants standing in a formula context are the always-true /
    always-false atoms (printed ``$true``/``$false``); in a term context
    they are the two constants of the boolean sort.  ``predicate_split``
    records which boolean-resulting symbols are emitted as predicates and
    which as functions into the boolean sort.  The two boolean axioms,
    the two-element domain and the distinctness of the constants, are the
    same in every problem, so they are class constants; ``axioms``
    appends them to the definitions.
    """

    __slots__ = _fields = ("definitions", "goal", "ctx", "predicate_split")
    domain_axiom = Forall("X", BOOL, lor(Eq(Var("X"), TRUE), Eq(Var("X"), FALSE)))
    distinct_axiom = lnot(Eq(TRUE, FALSE))

    def __init__(
        self, definitions: tuple[Term, ...], goal: Term, ctx: TypeContext, predicate_split: dict[str, str]
    ) -> None:
        self.definitions, self.goal, self.ctx, self.predicate_split = definitions, goal, ctx, predicate_split

    @property
    def axioms(self) -> tuple[Term, ...]:
        return self.definitions + (self.domain_axiom, self.distinct_axiom)


def _equate_atoms(t: Term, context: str, rewrite: set[str]) -> Term:
    """``t``, standing in ``context``, with each atom of a symbol in
    ``rewrite`` turned into an equation with true; one frame per level,
    and an untouched subtree is returned as the same object."""
    new = []
    for i, kid in enumerate(children(t)):
        new.append(_equate_atoms(kid, child_context(t, i), rewrite))
    t = with_children(t, tuple(new))
    if context != TERM_CONTEXT and isinstance(t, App) and t.fn in rewrite:
        return Eq(t, TRUE)
    return t


def _applied_symbols(formula: Term) -> _Applied | None:
    """The symbols ``formula`` applies in formula positions (the root
    included), and those it applies in term contexts, on one
    ``terms.contexts`` walk; None as soon as a lowering step applies
    somewhere, so the formula is not first-order."""
    atoms: set[str] = set()
    terms: set[str] = set()
    for t, context in contexts(formula):
        if redex_kind(t, context) is not None:
            return None
        if type(t) is App:
            (terms if context == TERM_CONTEXT else atoms).add(t.fn)
    return atoms, terms


def to_fol(state: TranslationState) -> FolProblem:
    """Turn a terminated translation state into a legal many-sorted
    first-order problem: apply the predicate split; the problem's
    ``axioms`` add the two boolean axioms.

    One walk per formula refuses a state that is not terminated, naming
    the formula and the residue's path, and collects the symbols the
    split reads."""
    formulas = [*state.defs, state.current]
    applied = []
    for k, formula in enumerate(formulas):
        got = _applied_symbols(formula)
        if got is None:
            where = "current" if k == len(state.defs) else f"defs[{k}]"
            verdict = is_syntactically_first_order(formula)
            raise ValueError(
                f"to_fol requires a terminated translation state: {where} is not "
                f"first-order at {verdict.witness}: {verdict.reason}"
            )
        applied.append(got)
    as_terms = frozenset().union(*(terms for _, terms in applied))
    split = {}
    for fn in sorted(as_terms.union(*(atoms for atoms, _ in applied)) - BUILTIN_FNS):
        sig = state.ctx.fn_sig(fn)
        if sig is not None and sig.result == BOOL:
            split[fn] = "function" if fn in as_terms else "predicate"
    functions = {fn for fn, kind in split.items() if kind == "function"}
    for k, (atoms, _) in enumerate(applied):
        rewrite = atoms & functions
        if rewrite:
            formulas[k] = _equate_atoms(formulas[k], NO_CONTEXT, rewrite)
    *definitions, goal = formulas
    return FolProblem(definitions=tuple(definitions), goal=goal, ctx=state.ctx, predicate_split=split)
