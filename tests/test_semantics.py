"""Evaluation, enumeration, and the model-preservation oracle."""

import functools
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foolkit import (
    App,
    BOOL,
    DomainSpec,
    EnumerationOverflow,
    Eq,
    Exists,
    Forall,
    Interpretation,
    Ite,
    Let,
    Signature,
    TypeContext,
    TypeSig,
    Var,
    check_model_preservation,
    enumerate_interpretations,
    eval_term,
    land,
    lnot,
    lor,
    models,
    parse_formula,
    run_translation,
)
from generate import TermGen
from foolkit import semantics
from foolkit.semantics import DEFAULT_CAP, table_count
from foolkit.terms import BUILTIN_FNS, FALSE, TRUE, Sort, free_fns, subst_free_vars, term_to_str
from test_acceptance import MUTATION_FIXTURES, MUTATIONS, translate_problem
from test_properties import closed, lean_generator

import helpers

S = Sort("s")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def interp(sizes=None, tables=None, assign=None):
    sizes = {BOOL: 2, **(sizes or {})}
    return Interpretation(sizes, tables or {}, assign or {})


def test_truth_constants():
    i = interp()
    assert eval_term(i, TRUE) == 1
    assert eval_term(i, FALSE) == 0
    assert models(i, TRUE)
    assert not models(i, FALSE)


def test_connectives_standard():
    i = interp()
    for a, b in itertools.product((TRUE, FALSE), repeat=2):
        va, vb = eval_term(i, a), eval_term(i, b)
        assert eval_term(i, land(a, b)) == (va & vb)
        assert eval_term(i, lor(a, b)) == (va | vb)
        assert eval_term(i, App("$implies", (a, b))) == ((1 - va) | vb)
        assert eval_term(i, App("$iff", (a, b))) == int(va == vb)
    assert eval_term(i, lnot(TRUE)) == 0


def test_let_identity_binding():
    i = interp({S: 3}, {"c": {(): 2}})
    t = Let("g", (("X", S),), Var("X"), App("g", (App("c"),)))
    assert eval_term(i, t) == eval_term(i, App("c")) == 2


def test_ite_picks_false_branch():
    # Two-element carrier; the condition compares a false constant to
    # true, so the else branch is taken (hand-checked).
    i = interp({S: 2}, {"cb": {(): 0}, "a": {(): 1}, "b": {(): 0}})
    t = Ite(Eq(App("cb"), TRUE), App("a"), App("b"))
    assert eval_term(i, t) == i.tables["b"][()] == 0


def test_let_shadows_outer_table():
    i = interp({S: 2}, {"c": {(): 1}, "f": {(0,): 0, (1,): 0}})
    t = Let("c", (), App("f", (App("c"),)), App("c"))
    # body sees the outer c=1, so the bound c is f(1)=0
    assert eval_term(i, t) == 0


def test_equality_is_boolean():
    i = interp({S: 2}, {"c": {(): 1}, "d": {(): 1}})
    assert eval_term(i, Eq(App("c"), App("d"))) == 1
    i2 = interp({S: 2}, {"c": {(): 1}, "d": {(): 0}})
    assert eval_term(i2, Eq(App("c"), App("d"))) == 0


def test_quantifiers_over_bool_carrier():
    i = interp()
    both = Forall("X", BOOL, lor(Eq(Var("X"), TRUE), Eq(Var("X"), FALSE)))
    assert models(i, both)
    assert models(i, Exists("X", BOOL, Eq(Var("X"), TRUE)))


def test_missing_interpretation_entries():
    i = interp()
    with pytest.raises(KeyError):
        eval_term(i, Var("X"))
    with pytest.raises(KeyError):
        eval_term(i, App("mystery"))
    # f is interpreted, but its table has no entry at c's value
    i = interp({S: 2}, {"c": {(): 1}, "f": {(0,): 1}})
    with pytest.raises(KeyError):
        eval_term(i, App("f", (App("c"),)))


# ---------------------------------------------------------------------------
# enumeration


def stage(symbols):
    sig = Signature()
    s = sig.declare_sort("s")
    for name, tsig in symbols.items():
        sig.declare_fn(name, tsig)
    return TypeContext.of(sig), s


def test_enumerate_counts_nullary():
    ctx, s = stage({"c": TypeSig((), S)})
    spec = DomainSpec({S: 3})
    got = list(enumerate_interpretations(ctx, spec, ["c"]))
    assert len(got) == 3
    assert [i.tables["c"][()] for i in got] == [0, 1, 2]


def test_enumerate_counts_predicate():
    ctx, s = stage({"p": TypeSig((S,), BOOL)})
    spec = DomainSpec({S: 2})
    got = list(enumerate_interpretations(ctx, spec, ["p"]))
    assert len(got) == 4


def test_enumerate_counts_binary_function():
    ctx, s = stage({"f": TypeSig((S, S), S)})
    spec = DomainSpec({S: 2})
    assert table_count(ctx, spec, ["f"]) == 16
    assert len(list(enumerate_interpretations(ctx, spec, ["f"]))) == 16


def test_enumerate_one_valued_symbol_lists_every_entry():
    one = Sort("one")
    ctx, s = stage({"u": TypeSig((S, S), one), "c": TypeSig((), S)})
    got = list(enumerate_interpretations(ctx, DomainSpec({S: 2, one: 1}), ["u", "c"]))
    full = {(a, b): 0 for a in range(2) for b in range(2)}
    assert [i.tables["u"] for i in got] == [full, full]
    assert [i.dump() for i in got] == [
        "c{->0} u{0:0->0,0:1->0,1:0->0,1:1->0}",
        "c{->1} u{0:0->0,0:1->0,1:0->0,1:1->0}",
    ]


def test_enumerate_cap():
    ctx, s = stage({"f": TypeSig((S, S), S)})
    spec = DomainSpec({S: 3})
    with pytest.raises(EnumerationOverflow):
        list(enumerate_interpretations(ctx, spec, ["f"], cap=100))


def test_enumeration_deterministic():
    ctx, s = stage({"c": TypeSig((), S), "p": TypeSig((S,), BOOL)})
    spec = DomainSpec({S: 2})
    a = [i.dump() for i in enumerate_interpretations(ctx, spec, ["c", "p"])]
    b = [i.dump() for i in enumerate_interpretations(ctx, spec, ["p", "c"])]
    assert a == b  # symbols sorted internally
    assert len(a) == len(set(a)) == 8


def test_two_element_axiom_true_everywhere():
    ctx, s = stage({"c": TypeSig((), BOOL)})
    spec = DomainSpec({})
    axiom = land(
        Forall("X", BOOL, lor(Eq(Var("X"), TRUE), Eq(Var("X"), FALSE))),
        lnot(Eq(TRUE, FALSE)),
    )
    for i in enumerate_interpretations(ctx, spec, ["c"]):
        assert models(i, axiom)


# ---------------------------------------------------------------------------
# model preservation


def test_preservation_identity():
    ctx, s = stage({"p": TypeSig((S,), BOOL), "a": TypeSig((), S)})
    phi = App("p", (App("a"),))
    state = run_translation(phi, ctx)
    assert state.defs == [] and state.current == phi
    report = check_model_preservation(phi, state, DomainSpec({S: 2}))
    assert report.ok
    assert report.render() == f"OK {report.checked}"


def test_preservation_step1():
    sig = Signature()
    ctx = TypeContext.of(sig)
    phi = Forall("X", BOOL, lor(Var("X"), lnot(Var("X"))))
    state = run_translation(phi, ctx)
    report = check_model_preservation(phi, state, DomainSpec({}))
    assert report.ok


def test_preservation_step2_definition_forces_table():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("f", TypeSig((BOOL,), s))
    sig.declare_fn("cc", TypeSig((), s))
    sig.declare_fn("pp", TypeSig((), BOOL))
    sig.declare_fn("qq", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    phi = parse_formula("f(pp & qq) = cc", ctx)
    state = run_translation(phi, ctx)
    assert len(state.defs) == 1
    report = check_model_preservation(phi, state, DomainSpec({s: 2}))
    assert report.ok


def test_preservation_catches_mutations():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("f", TypeSig((BOOL,), s))
    sig.declare_fn("pp", TypeSig((), BOOL))
    sig.declare_fn("qq", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    phi = parse_formula("f(pp & qq) = f($false)", ctx)
    state = run_translation(phi, ctx)
    report = check_model_preservation(phi, state, DomainSpec({s: 2}))
    assert report.ok
    mutated = helpers.with_defs(state, [])
    broken = check_model_preservation(phi, mutated, DomainSpec({s: 2}))
    assert not broken.ok
    assert broken.render().startswith("COUNTEREXAMPLE")


def test_irrelevance_of_non_free_updates():
    gen = TermGen(random.Random(20))
    ctx = gen.context()
    spec = gen.domain_spec()
    for _ in range(150):
        phi = gen.formula()
        interp = gen.interpretation(ctx, spec)
        base = eval_term(interp, phi)
        # a variable that is not free in phi
        fresh = interp.with_var("w_not_free", 0)
        assert eval_term(fresh, phi) == base
        # a function symbol that is not free in phi
        fresh_fn = interp.with_fn("g_not_free", {(): 0})
        assert eval_term(fresh_fn, phi) == base


def test_let_semantics_against_substitution_expansion():
    """Independent oracle: non-shadowing lets agree with textual
    beta-expansion of the bound symbol."""
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("h", TypeSig((S, S), S))
    sig.declare_fn("c", TypeSig((), S))
    sig.declare_fn("p", TypeSig((S,), BOOL))
    ctx = TypeContext.of(sig)

    def expand(t):
        if isinstance(t, Let):
            scope = expand(t.scope)
            body = expand(t.body)

            def beta(u):
                if isinstance(u, App):
                    args = tuple(beta(a) for a in u.args)
                    if u.fn == t.fn:
                        mapping = {x: arg for (x, _), arg in zip(t.params, args)}
                        return subst_free_vars(body, mapping)
                    return App(u.fn, args)
                if isinstance(u, (Forall, Exists)):
                    return type(u)(u.var, u.sort, beta(u.body))
                if isinstance(u, Eq):
                    return Eq(beta(u.left), beta(u.right))
                if isinstance(u, Ite):
                    return Ite(beta(u.cond), beta(u.then), beta(u.els))
                return u
            return beta(scope)
        return t

    fixtures = [
        Let("g", (("X", S),), App("h", (Var("X"), Var("X"))),
            App("p", (App("g", (App("c"),)),))),
        Let("k", (), App("c"), Eq(App("k"), App("c"))),
        Let("g", (("X", S), ("Y", S)), App("h", (Var("Y"), Var("X"))),
            Eq(App("g", (App("c"), App("h", (App("c"), App("c"))))), App("c"))),
        Let("g", (("X", S),), Var("X"),
            Forall("Z", S, App("p", (App("g", (Var("Z"),)),)))),
    ]
    rng = random.Random(5)
    spec = DomainSpec({S: 2})
    for t in fixtures:
        expanded = expand(t)
        assert not isinstance(expanded, Let)
        for _ in range(20):
            tables = {
                "h": {(i, j): rng.randrange(2) for i in range(2) for j in range(2)},
                "c": {(): rng.randrange(2)},
                "p": {(i,): rng.randrange(2) for i in range(2)},
            }
            i = Interpretation(dict(spec.sizes), tables)
            assert eval_term(i, t) == eval_term(i, expanded)


def test_quantifier_clauses_match_finite_expansion():
    gen = TermGen(random.Random(31))
    ctx = gen.context()
    for size in (1, 2, 3):
        spec = DomainSpec({sort: size for sort in gen.sorts if not sort.is_bool})
        for _ in range(40):
            body = gen.term(BOOL, {**gen.free_pool, "Q": gen.sorts[1]}, 2)
            interp = gen.interpretation(ctx, spec)
            sort = gen.sorts[1]
            forall = Forall("Q", sort, body)
            exists = Exists("Q", sort, body)
            points = [
                eval_term(interp.with_var("Q", a), body)
                for a in range(spec.size(sort))
            ]
            assert eval_term(interp, forall) == min(points)
            assert eval_term(interp, exists) == max(points)


# ---------------------------------------------------------------------------
# pinned reports


def _pinned(report):
    return {"checked": report.checked, "render": report.render().split("\n")}


def oracle_reports():
    """The reports ``golden/preservation.json`` holds: every corpus
    problem, every seeded mutation and the random closed formulas of the
    property suite, each with its count and counterexample lines."""
    import corpus

    corpus_reports = {}
    for name, text, sizes in corpus.PRESERVATION:
        problem, phi, state = translate_problem(text)
        report = check_model_preservation(phi, state, helpers.domain_spec_for(problem, sizes))
        corpus_reports[name] = _pinned(report)

    states = {}
    for name, text in MUTATION_FIXTURES.items():
        problem, phi, state = translate_problem(text)
        states[name] = (phi, state, helpers.domain_spec_for(problem))
    mutations = []
    for name, mutate, args in MUTATIONS:
        phi, state, spec = states[name]
        report = check_model_preservation(phi, mutate(state, *args), spec)
        mutations.append({"fixture": name, "mutation": mutate.__name__, "args": list(args), **_pinned(report)})

    gen, s = lean_generator(99)
    ctx = TypeContext.of(gen.sig)
    spec = DomainSpec({s: 2})
    random_reports = []
    checked = 0
    # the same draws as test_random_formulas_translate_and_preserve
    while checked < 60 and len(random_reports) < 400:
        phi = closed(gen, gen.formula())
        state = run_translation(phi, ctx)
        item = {"formula": term_to_str(phi)}
        try:
            item.update(_pinned(check_model_preservation(phi, state, spec, cap=40_000)))
            checked += 1
        except EnumerationOverflow:
            item["overflow"] = True
        random_reports.append(item)
    return {"corpus": corpus_reports, "mutations": mutations, "random": random_reports}


def test_oracle_reports_are_pinned():
    """Each report is the recorded one: the same verdict, count and
    counterexample lines in the same order."""
    got = oracle_reports()
    golden = json.loads((GOLDEN / "preservation.json").read_text())
    assert got.keys() == golden.keys()
    for part in golden:
        assert got[part] == golden[part], part


# ---------------------------------------------------------------------------
# the oracle against brute force


def brute_force_report(phi, state, spec):
    """``(checked, render())`` of check_model_preservation, by definition:
    every joint table of the base and fresh symbols, in lexicographic
    order, each judged with ``models``."""
    ctx = state.ctx
    fresh = sorted(state.fresh_symbols)
    translation = functools.reduce(land, [*state.defs, state.current])
    base = sorted(
        fn
        for fn in free_fns(phi) | free_fns(translation)
        if fn not in BUILTIN_FNS and fn not in fresh
    )

    def tables(fn):
        sig = ctx.fn_sig(fn)
        points = list(itertools.product(*(range(spec.size(s)) for s in sig.args)))
        values = itertools.product(range(spec.size(sig.result)), repeat=len(points))
        return [dict(zip(points, row)) for row in values]

    base_tables = [tables(fn) for fn in base]
    fresh_tables = [tables(fn) for fn in fresh]
    checked = math.prod(map(len, base_tables + fresh_tables))
    found = []
    for row in itertools.product(*base_tables):
        b = Interpretation(dict(spec.sizes), dict(zip(base, row)))
        models_of_translation = [
            i
            for i in (
                Interpretation(b.sizes, {**b.tables, **dict(zip(fresh, ext))})
                for ext in itertools.product(*fresh_tables)
            )
            if models(i, translation)
        ]
        if models(b, phi):
            if not models_of_translation:
                found.append(("extension", b))
        else:
            found.extend(("reduct", i) for i in models_of_translation)
    lines = [f"COUNTEREXAMPLE {direction} {i.dump()}" for direction, i in found]
    return checked, "\n".join(lines) or f"OK {checked}"


def spec_of(state, size):
    sorts = state.ctx.sig.sorts.values()
    return DomainSpec({s: size for s in sorts if not s.is_bool and not s.name.startswith("$")})


def _random_case(seed):
    gen, _ = lean_generator(seed)
    phi = closed(gen, gen.formula())
    return phi, run_translation(phi, TypeContext.of(gen.sig))


def _mutation_case(mutation):
    name, mutate, args = mutation
    _, phi, state = translate_problem(MUTATION_FIXTURES[name])
    return phi, mutate(state, *args)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    case=st.one_of(
        st.integers(0, 2**32).map(_random_case),
        st.sampled_from(MUTATIONS).map(_mutation_case),
    ),
    size=st.sampled_from([2, 3]),
)
def test_oracle_agrees_with_brute_force(case, size):
    """On random closed formulas and on the seeded mutations, the oracle
    gives exactly the report and count of the brute-force definition."""
    phi, state = case
    spec = spec_of(state, size)
    symbols = (free_fns(phi) | set().union(*map(free_fns, [*state.defs, state.current]))) - BUILTIN_FNS
    assume(table_count(state.ctx, spec, symbols) <= 3000)
    report = check_model_preservation(phi, state, spec)
    assert (report.checked, report.render()) == brute_force_report(phi, state, spec)


@pytest.mark.parametrize("mutate", [None, helpers.mutate_drop, helpers.mutate_negate_named])
def test_shadowed_leading_quantifiers_agree_with_brute_force(mutate):
    """The inner X shadows the outer one and ranges over another carrier."""
    problem, phi, state = translate_problem(
        "tff(s_s, type, s : $tType).\ntff(s_t, type, t : $tType).\n"
        "tff(d_w, type, w : $o > s).\ntff(d_p, type, p : t > $o).\n"
        "tff(f1, axiom, ![X : s] : ![X : t] : (w(p(X) & p(X)) = w(~p(X) | ~p(X)))).\n"
    )
    translated = mutate(state, 0) if mutate else state
    spec = helpers.domain_spec_for(problem, {"s": 2, "t": 3})
    report = check_model_preservation(phi, translated, spec)
    assert report.ok == (mutate is None)
    assert (report.checked, report.render()) == brute_force_report(phi, translated, spec)


# p is binary over a 3-element carrier, and only p(c, c) is ever read
UNREAD_CELLS = (
    "tff(s_s, type, s : $tType).\ntff(s_t, type, t : $tType).\n"
    "tff(d_c, type, c : s).\ntff(d_p, type, p : (s * s) > $o).\n"
    "tff(d_w, type, w : $o > t).\n"
    "tff(f1, axiom, w(~p(c, c)) = w($true)).\n"
)


@pytest.mark.parametrize(
    "mutate, directions",
    [(helpers.mutate_drop, {"reduct"}), (helpers.mutate_negate_named, {"reduct", "extension"})],
)
def test_failing_blocks_list_every_member_in_order(mutate, directions):
    """A counterexample that leaves cells of p unread stands for every
    table of p that agrees on the cells read; each one is listed, and the
    list is in lexicographic order."""
    problem, phi, state = translate_problem(UNREAD_CELLS)
    mutated = mutate(state, 0)
    spec = helpers.domain_spec_for(problem, {"s": 3})
    report = check_model_preservation(phi, mutated, spec)
    lines = report.render().split("\n")
    # c, p(c, c) and w are read; the 8 other cells of p are not
    for direction in directions:
        assert sum(line.split()[1] == direction for line in lines) == 6 * 2**8
    assert len(lines) == len(directions) * 6 * 2**8
    assert (report.checked, report.render()) == brute_force_report(phi, mutated, spec)


def test_pinned_mutations_reach_depth_two():
    """Two pinned mutations have two fresh symbols, so the extension
    search prunes at depth 1 and 2: one reports in both directions, one
    reports several extensions of one base interpretation in order."""
    golden = json.loads((GOLDEN / "preservation.json").read_text())
    pair, apart = [m["render"] for m in golden["mutations"] if m["fixture"].startswith("step2-pair")]
    directions = [line.split()[1] for line in pair]
    assert directions.count("reduct") >= 2 and directions.count("extension") >= 1
    bases = [line.split(" sk_fool_0")[0] for line in apart]
    assert len(set(bases)) < len(bases)


def test_table_count_stops_at_the_cap():
    ctx, s = stage({"f": TypeSig((S, S), S), "c": TypeSig((), S)})
    assert table_count(ctx, DomainSpec({S: 3}), ["f", "c"]) == 3**9 * 3
    assert table_count(ctx, DomainSpec({S: 3}), ["f"], cap=100) == 101
    assert table_count(ctx, DomainSpec({S: 3}), ["f", "c"], cap=3**9) == 3**9 + 1
    # 100 ** 10_000 has 20_001 digits; it is never built
    assert table_count(ctx, DomainSpec({S: 100}), ["f"]) == DEFAULT_CAP + 1
    assert table_count(ctx, DomainSpec({S: 10**6}), ["c"], cap=10**6) == 10**6
    ones = stage({"u": TypeSig((S, S), Sort("one"))})[0]
    assert table_count(ones, DomainSpec({S: 10**5, Sort("one"): 1}), ["u"]) == 1


# ---------------------------------------------------------------------------
# the cell search


def _forall_p(size):
    """``![X : s] : p(X)``, its (empty) translation and a spec of ``size``."""
    problem, phi, state = translate_problem(
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, ![X : s] : p(X)).\n"
    )
    return phi, state, helpers.domain_spec_for(problem, {"s": size})


def test_a_deep_search_takes_no_stack_frame_per_cell():
    """Each of the 1200 cells of p is decided in a loop, not a recursion,
    so a search far deeper than the recursion limit still answers."""
    phi, state, spec = _forall_p(1200)
    report = check_model_preservation(phi, state, spec, cap=10**1000)
    assert report.render() == f"OK {2**1200}"
    assert report.checked == 2**1200


@pytest.fixture
def runs(monkeypatch):
    """Counts the runs of phi's closure ("phi"), of each translation step
    (0, 1, ... in order) and the calls of ``_split`` ("split") made by
    check_model_preservation."""
    counter = {}
    numbers = itertools.count()

    def counted(key, f):
        counter.setdefault(key, 0)

        def run(*args):
            counter[key] += 1
            return f(*args)
        return run

    compile_phi, compile_points = semantics._Program.compile, semantics._Program.compile_points
    monkeypatch.setattr(semantics._Program, "compile", lambda *a: counted("phi", compile_phi(*a)))
    monkeypatch.setattr(
        semantics._Program,
        "compile_points",
        lambda *a: [counted(next(numbers), step) for step in compile_points(*a)],
    )
    monkeypatch.setattr(semantics, "_split", counted("split", semantics._split))
    return counter


def test_phi_runs_once_per_block(runs):
    """p(0) = 0, then p(0) = 1 and p(1) = 0, and so on: four blocks, each
    run once, and no run cut short at the first read of a cell."""
    phi, state, spec = _forall_p(3)
    assert check_model_preservation(phi, state, spec).render() == "OK 8"
    # one translation step, run once per block; one search over the
    # base cells and one over the (absent) fresh cells per block
    assert runs == {"phi": 4, 0: 4, "split": 5}


# aa & ... short-circuits past bb, which the naming definition of
# bb & cc reads inside the extension search
SHORT_CIRCUIT = (
    "tff(s_s, type, s : $tType).\ntff(d_f, type, f : $o > s).\n"
    "tff(d_aa, type, aa : $o).\ntff(d_bb, type, bb : $o).\ntff(d_cc, type, cc : $o).\n"
    "tff(f1, axiom, aa & f(bb & cc) = f($false)).\n"
)


@pytest.mark.parametrize(
    "text, counts",
    [
        (SHORT_CIRCUIT, {"phi": 11, 0: 18, 1: 11, "split": 12}),
        (MUTATION_FIXTURES["step2-pair"], {"phi": 12, 0: 18, 1: 22, 2: 12, "split": 13}),
    ],
    ids=["short-circuit", "step2-pair"],
)
def test_each_step_runs_once_per_leaf_of_its_search(runs, text, counts):
    """Each base block runs phi once and searches the fresh cells once.
    A step runs once per way the search reaches it, as far as the search
    goes, and is never re-run for a cell it read first: a cell first read
    by the second definition resumes the search there, not at the first.

    In the short circuit, 11 blocks run the definition once per value of
    the fresh cell it reads, 18 times, and the rewritten formula once per
    run where the definition holds."""
    problem, phi, state = translate_problem(text)
    assert check_model_preservation(phi, state, helpers.domain_spec_for(problem)).ok
    assert runs == counts


@pytest.mark.parametrize(
    "mutate, directions",
    [(None, set()), (helpers.mutate_negate_named, {"extension", "reduct"})],
)
def test_a_base_cell_first_read_in_the_extension_search(monkeypatch, mutate, directions):
    """When aa is false phi never reads bb, the definition does: bb is
    decided by the base search while the extension search runs, and the
    report is still the brute-force one."""
    late = []
    missing = semantics._SearchCells.__missing__

    def decide(cells, cell):
        # the search that owns the cell is not the one that started last
        late.append(cells.searches[cell[0]] is not [*cells.searches.values()][-1])
        return missing(cells, cell)
    monkeypatch.setattr(semantics._SearchCells, "__missing__", decide)

    problem, phi, state = translate_problem(SHORT_CIRCUIT)
    translated = mutate(state, 0) if mutate else state
    spec = helpers.domain_spec_for(problem)
    report = check_model_preservation(phi, translated, spec)
    assert any(late)
    lines = report.render().split("\n")
    assert {line.split()[1] for line in lines if line.startswith("COUNTEREXAMPLE")} == directions
    assert (report.checked, report.render()) == brute_force_report(phi, translated, spec)
