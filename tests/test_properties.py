"""Randomized properties over generated terms: end-to-end preservation,
printer/parser agreement, and ordering laws."""

import itertools
import random

from foolkit import (
    App,
    BOOL,
    DomainSpec,
    EnumerationOverflow,
    Signature,
    TypeContext,
    TypeSig,
    Var,
    check_model_preservation,
    free_vars,
    infer_sort,
    is_syntactically_first_order,
    parse_problem,
    print_dialect,
    run_translation,
)
from generate import TermGen
from helpers import redex_measure
from foolkit.prover import kbo_greater
from foolkit.prover.unification import apply_subst
from foolkit.terms import (
    FALSE,
    TRUE,
    forall_prefix,
    free_fns,
)
from foolkit.tptp import Problem, SymbolDecl, AnnotatedFormula


def closed(gen, phi):
    binds = [(v, gen.free_pool[v]) for v in sorted(free_vars(phi))]
    return forall_prefix(binds, phi)


def lean_generator(seed):
    """A three-symbol signature keeps the oracle's table space small."""
    sig = Signature()
    s = sig.declare_sort("alpha")
    sig.declare_fn("c0", TypeSig((), s))
    sig.declare_fn("p", TypeSig((s,), BOOL))
    sig.declare_fn("w", TypeSig((BOOL,), s))
    gen = TermGen(random.Random(seed), sig=sig, max_depth=3)
    gen.free_pool = {"U0": s, "U2": BOOL}
    return gen, s


def test_random_formulas_translate_and_preserve():
    """Random closed formulas: the driver terminates within its measure,
    produces first-order output, and the oracle confirms preservation."""
    gen, s = lean_generator(99)
    ctx = TypeContext.of(gen.sig)
    spec = DomainSpec({s: 2})
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 400:
        attempts += 1
        phi = closed(gen, gen.formula())
        state = run_translation(phi, ctx)
        assert len(state.steps) <= redex_measure(phi)
        assert is_syntactically_first_order(state.current).ok
        for d in state.defs:
            assert free_vars(d) == set()
            assert is_syntactically_first_order(d).ok
        try:
            report = check_model_preservation(phi, state, spec, cap=40_000)
        except EnumerationOverflow:
            continue
        assert report.ok, report.render()
        checked += 1
    assert checked >= 60


def test_random_formulas_roundtrip_through_printer():
    from foolkit.tptp import SortDecl

    gen, s = lean_generator(7)
    checked = 0
    for index in range(120):
        phi = closed(gen, gen.formula())
        problem = Problem()
        problem.signature = gen.sig
        problem.formulas = [
            AnnotatedFormula("s_alpha", "type", SortDecl("alpha")),
            AnnotatedFormula("d_c0", "type", SymbolDecl("c0", TypeSig((), s))),
            AnnotatedFormula("d_p", "type", SymbolDecl("p", TypeSig((s,), BOOL))),
            AnnotatedFormula("d_w", "type", SymbolDecl("w", TypeSig((BOOL,), s))),
            AnnotatedFormula("f", "axiom", phi),
        ]
        rendered = print_dialect(problem)
        again = parse_problem(rendered)
        assert again.formulas[-1].payload == phi, rendered
        checked += 1
    assert checked == 120


def test_free_vars_ordered_agrees_with_free_vars():
    """``free_vars_ordered``, ``free_fns`` and ``all_names`` keep their own
    copies of the binding rule; they agree with ``occurrences``, which
    reads it from ``terms.binders``."""
    from foolkit.terms import all_names, free_vars_ordered, occurrences
    from test_translate import _translation_inputs

    gen = TermGen(random.Random(41))
    draws = [gen.formula() for _ in range(200)]
    for t in draws + [phi for _, phi, _ in _translation_inputs()]:
        ordered = free_vars_ordered(t)
        assert set(ordered) == free_vars(t)
        assert len(ordered) == len(set(ordered))
        occs = [occ for _, occ in occurrences(t)]
        # first free occurrences, pre-order, as the classifier sees them
        firsts = dict.fromkeys(
            o.term.name for o in occs if isinstance(o.term, Var) and o.term.name not in dict(o.variables)
        )
        assert ordered == list(firsts)
        apps = [o for o in occs if isinstance(o.term, App)]
        assert free_fns(t) == {o.term.fn for o in apps if o.term.fn not in o.lets}
        names = {o.term.name for o in occs if isinstance(o.term, Var)} | {o.term.fn for o in apps}
        for o in occs:
            names |= o.lets | {x for x, _ in o.variables}
        assert all_names(t) == names


def test_translation_leaves_base_symbols_alone():
    """Fresh symbols all carry the generated prefix; the base signature is
    never touched."""
    gen, s = lean_generator(23)
    ctx = TypeContext.of(gen.sig)
    for _ in range(80):
        phi = closed(gen, gen.formula())
        state = run_translation(phi, ctx)
        for name in state.fresh_symbols:
            assert name.startswith("sk_fool_")
        assert (free_fns(state.current) - set(state.fresh_symbols)).issubset(
            free_fns(phi) | {"$and", "$or", "$not", "$implies", "$iff", "$true", "$false"}
        )


def test_random_pipeline_verdicts_match_oracle():
    """Translate, clausify and saturate random closed formulas: refuted
    ones must have no model at any small size, saturated ones must have
    one (sound and, at desk scale, complete)."""
    from foolkit.prover import ClauseExplosion, ProverConfig, RULE_MODE, clausify, saturate
    from foolkit import EnumerationOverflow, run_translation, to_fol
    import helpers

    def sat_small(clauses, ctx):
        for size in (1, 2, 3):
            try:
                if helpers.oracle_satisfiable(clauses, ctx, size=size, cap=200_000):
                    return True
            except EnumerationOverflow:
                return None
        return False

    gen, s = lean_generator(515)
    gen.max_depth = 2
    ctx = TypeContext.of(gen.sig)
    decided = 0
    for _ in range(120):
        phi = closed(gen, gen.formula())
        try:
            res = clausify(to_fol(run_translation(phi, ctx)), max_clauses=300)
        except ClauseExplosion:
            continue
        outcome = saturate(
            res.clauses, res.ctx, ProverConfig(bool_mode=RULE_MODE, max_clauses=800, max_seconds=5)
        )
        if outcome.verdict == "limit":
            continue
        sat = sat_small(res.clauses, res.ctx)
        if sat is None:
            continue
        assert sat == (outcome.verdict == "saturated"), phi
        decided += 1
    assert decided >= 80


# ---------------------------------------------------------------------------
# ordering laws


def ground_terms(depth=2):
    """All ground terms over a tiny signature up to the given depth."""
    out = [App("a"), App("b"), TRUE, FALSE]
    for _ in range(depth):
        out = out + [App("f", (t,)) for t in out[:6]]
    return out[:24]


def test_kbo_irreflexive_and_asymmetric():
    terms = ground_terms()
    for t in terms:
        assert not kbo_greater(t, t)
    for a, b in itertools.combinations(terms, 2):
        assert not (kbo_greater(a, b) and kbo_greater(b, a))


def test_kbo_total_on_ground_terms():
    terms = ground_terms()
    for a, b in itertools.combinations(terms, 2):
        if a != b:
            assert kbo_greater(a, b) or kbo_greater(b, a)


def test_kbo_transitive_on_sample():
    terms = ground_terms()
    rng = random.Random(3)
    for _ in range(500):
        a, b, c = rng.sample(terms, 3)
        if kbo_greater(a, b) and kbo_greater(b, c):
            assert kbo_greater(a, c)


def test_kbo_stable_under_substitution():
    rng = random.Random(9)
    ground = ground_terms()
    pairs = [
        (App("f", (Var("X"),)), Var("X")),
        (App("g2", (Var("X"), Var("Y"))), App("f", (Var("Y"),))),
        (App("f", (App("f", (Var("X"),)),)), App("f", (Var("X"),))),
    ]
    for s, t in pairs:
        if not kbo_greater(s, t):
            continue
        for _ in range(50):
            theta = {"X": rng.choice(ground), "Y": rng.choice(ground)}
            assert kbo_greater(apply_subst(s, theta), apply_subst(t, theta))
