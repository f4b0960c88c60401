"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured runtimes.
"""

import pathlib
import random
import time

from foolkit import (
    BOOL,
    DomainSpec,
    Exists,
    FALSE,
    Forall,
    TRUE,
    Var,
    check_model_preservation,
    eval_term,
    infer_sort,
    parse_problem,
    print_fol_tff0,
    run_translation,
    to_fol,
)
from foolkit.bench import run_bench
from generate import TermGen
from foolkit.prover import (
    AXIOM_MODE,
    Clause,
    Literal,
    ProverConfig,
    RULE_MODE,
    clausify,
    is_bool_domain_clause,
    is_variant,
    saturate,
)
from foolkit.terms import TypeSig

import corpus
import helpers
from fixtures import VERIFICATION_LISTING

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(criterion, label, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {criterion} ({label}): PASS{timing}")


def translate_problem(text):
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    return problem, phi, state


def test_criterion_1_fixture_fidelity():
    started = time.monotonic()
    problem, phi, state = translate_problem(VERIFICATION_LISTING)
    assert len(problem.formulas) == 9
    out = print_fol_tff0(to_fol(state))
    # the emitted standard text re-parses under the strict grammar
    reparsed = parse_problem(out, strict=True)
    assert reparsed.formulas
    # byte-exact determinism across independent runs
    _, _, state2 = translate_problem(VERIFICATION_LISTING)
    assert print_fol_tff0(to_fol(state2)) == out
    # stable against the audited golden files
    assert out == (GOLDEN / "verification_listing.tff0").read_text()
    from fixtures import CONTAINS_ITE

    _, _, state3 = translate_problem(CONTAINS_ITE)
    assert print_fol_tff0(to_fol(state3)) == (GOLDEN / "contains_ite.tff0").read_text()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "fixture fidelity", elapsed)


def test_criterion_2_model_preservation_corpus():
    started = time.monotonic()
    assert len(corpus.PRESERVATION) >= 30
    step_kinds = set()
    for name, text, sizes in corpus.PRESERVATION:
        problem, phi, state = translate_problem(text)
        # corpus discipline: small signatures and small carriers only
        user = [
            fn
            for fn in problem.signature.user_fns()
            if not fn.startswith("$") and not fn.isdigit()
        ]
        assert len(user) <= 3, name
        assert all(problem.signature.fn_sig(fn).arity <= 2 for fn in user), name
        assert all(size <= 3 for size in sizes.values()), name
        step_kinds.update(state.step_counts())
        spec = helpers.domain_spec_for(problem, sizes)
        assert all(n <= 3 for n in spec.sizes.values()), name
        outcome = check_model_preservation(phi, state, spec)
        assert outcome.ok, f"{name}: {outcome.render()}"
    # the corpus exercises all four translation steps
    assert step_kinds == {"bool-var", "formula-in-term", "ite", "let"}
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(2, f"model preservation on {len(corpus.PRESERVATION)} formulas", elapsed)


MUTATION_FIXTURES = {
    "step2-conj": "tff(s_s, type, s : $tType).\ntff(d_f, type, f : $o > s).\n"
    "tff(d_pp, type, pp : $o).\ntff(d_qq, type, qq : $o).\n"
    "tff(f1, axiom, f(pp & qq) = f($false)).\n",
    "ite-falsifiable": "tff(s_s, type, s : $tType).\ntff(d_f0, type, f0 : $o > s).\n"
    "tff(d_pp, type, pp : $o).\n"
    "tff(f1, axiom, f0($ite(pp, $true, $false)) = f0($false)).\n",
    "let-nullary": "tff(s_s, type, s : $tType).\ntff(d_f, type, f : s > s).\n"
    "tff(d_c, type, c : s).\ntff(d_p, type, p : s > $o).\n"
    "tff(f1, axiom, $let(d : s, d := f(c), p(d))).\n",
    "step2-open": "tff(s_s, type, s : $tType).\ntff(d_w, type, w : $o > s).\n"
    "tff(d_p, type, p : s > $o).\n"
    "tff(f1, axiom, ![X : s] : (w(p(X) & p(X)) = w($false))).\n",
    "ite-open": "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
    "tff(d_c, type, c : s).\n"
    "tff(f1, axiom, ![X : s] : ($ite(p(X), X, c) = X)).\n",
    # two fresh symbols, each named by its own definition; with both
    # definitions dropped, the order of the reported extensions shows
    "step2-pair": "tff(s_s, type, s : $tType).\ntff(d_f, type, f : $o > s).\n"
    "tff(d_pp, type, pp : $o).\ntff(d_qq, type, qq : $o).\n"
    "tff(f1, axiom, f(pp & qq) = f(pp | qq)).\n",
    "step2-pair-apart": "tff(s_s, type, s : $tType).\ntff(d_f, type, f : $o > s).\n"
    "tff(d_pp, type, pp : $o).\ntff(d_qq, type, qq : $o).\n"
    "tff(f1, axiom, f(pp & qq) != f(pp | qq)).\n",
}

# (fixture, mutation, arguments): a fixed seeded set covering dropped
# definitions, flipped guards, swapped branches, and corrupted namings.
MUTATIONS = [
    ("step2-conj", helpers.mutate_drop, (0,)),
    ("step2-conj", helpers.mutate_negate_named, (0,)),
    ("step2-conj", helpers.mutate_wrong_constant, (0,)),
    ("ite-falsifiable", helpers.mutate_drop, (0,)),
    ("ite-falsifiable", helpers.mutate_flip_guard, (0,)),
    ("ite-falsifiable", helpers.mutate_flip_guard, (1,)),
    ("ite-falsifiable", helpers.mutate_swap_branches, (0, 1)),
    ("let-nullary", helpers.mutate_drop, (0,)),
    ("step2-open", helpers.mutate_drop, (0,)),
    ("step2-open", helpers.mutate_negate_named, (0,)),
    ("step2-open", helpers.mutate_wrong_constant, (0,)),
    ("ite-open", helpers.mutate_drop, (1,)),
    ("ite-open", helpers.mutate_flip_guard, (1,)),
    ("ite-open", helpers.mutate_swap_branches, (0, 1)),
    ("step2-pair", helpers.mutate_negate_named, (0,)),
    ("step2-pair-apart", helpers.mutate_drop, (0, 1)),
]


def test_criterion_3_mutation_sensitivity():
    started = time.monotonic()
    assert len(MUTATIONS) >= 10
    states = {}
    for name, text in MUTATION_FIXTURES.items():
        problem, phi, state = translate_problem(text)
        spec = helpers.domain_spec_for(problem)
        assert check_model_preservation(phi, state, spec).ok
        states[name] = (phi, state, spec)
    for name, mutate, args in MUTATIONS:
        phi, state, spec = states[name]
        mutated = mutate(state, *args)
        outcome = check_model_preservation(phi, mutated, spec)
        assert not outcome.ok, f"{name}/{mutate.__name__}{args} went undetected"
    elapsed = time.monotonic() - started
    report(3, f"{len(MUTATIONS)} translation mutations all detected", elapsed)


def test_criterion_4_typing_properties():
    started = time.monotonic()
    gen = TermGen(random.Random(1234))
    ctx = gen.context()
    alpha = gen.sig.sort("alpha")
    beta = gen.sig.sort("beta")
    for index in range(1000):
        t = gen.formula()
        first = infer_sort(ctx, t)
        assert first == BOOL
        assert infer_sort(ctx, t) == first  # uniqueness / determinism
        # weakening by a variable and by a function symbol not free in t
        assert infer_sort(ctx.with_var("w_fresh_var", alpha), t) == first
        assert (
            infer_sort(ctx.with_fn("w_fresh_fn", TypeSig((beta,), alpha)), t) == first
        )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(4, "typing weakening and uniqueness on 1000 terms", elapsed)


def test_criterion_5_semantics_properties():
    started = time.monotonic()
    gen = TermGen(random.Random(4321))
    ctx = gen.context()
    for index in range(1000):
        spec = gen.domain_spec(max_size=3)
        phi = gen.formula(depth=3)
        interp = gen.interpretation(ctx, spec)
        value = eval_term(interp, phi)
        assert eval_term(interp.with_var("w_unused", 0), phi) == value
        assert eval_term(interp.with_fn("g_unused", {(): 0}), phi) == value
    # quantifier clauses match explicit expansion on carriers up to 3
    for size in (1, 2, 3):
        spec = DomainSpec({s: size for s in gen.sorts if not s.is_bool})
        sort = gen.sorts[1]
        for _ in range(60):
            body = gen.term(BOOL, {**gen.free_pool, "Q": sort}, 2)
            interp = gen.interpretation(ctx, spec)
            points = [
                eval_term(interp.with_var("Q", a), body) for a in range(size)
            ]
            assert eval_term(interp, Forall("Q", sort, body)) == min(points)
            assert eval_term(interp, Exists("Q", sort, body)) == max(points)
    elapsed = time.monotonic() - started
    report(5, "evaluation irrelevance and quantifier expansion", elapsed)


def test_criterion_6_self_paramodulation_reproduction():
    started = time.monotonic()
    clause4 = Clause(
        (Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)),
        {"X": BOOL},
    )
    from foolkit import Signature, TypeContext

    ctx = TypeContext.of(Signature())
    axiom_run = saturate(
        [clause4], ctx, ProverConfig(bool_mode=AXIOM_MODE, max_clauses=60, max_seconds=10)
    )
    target = Clause(
        (
            Literal(True, Var("A"), Var("B")),
            Literal(True, Var("A"), FALSE),
            Literal(True, Var("B"), FALSE),
        ),
        {"A": BOOL, "B": BOOL},
    )
    assert any(is_variant(c, target) for c in axiom_run.clauses.values())
    rule_run = saturate(
        [clause4], ctx, ProverConfig(bool_mode=RULE_MODE, max_clauses=60, max_seconds=10)
    )
    assert rule_run.stats["bool_axiom_clauses_removed"] == 1
    assert rule_run.stats["var_var_equation_clauses"] == 0
    elapsed = time.monotonic() - started
    report(6, "self-paramodulation conclusion derived exactly", elapsed)


def test_criterion_7_mode_comparison_direction():
    started = time.monotonic()
    rows = run_bench([1, 2, 3, 4, 5], max_clauses=100_000, max_seconds=60)
    for row in rows:
        k = row["k"]
        axiom = row[AXIOM_MODE]["generated"]
        rule = row[RULE_MODE]["generated"]
        assert rule <= axiom, f"k={k}"
        if k >= 2:
            assert rule < axiom, f"k={k}"
    elapsed = time.monotonic() - started
    report(7, "rule mode generates no more clauses for k in 1..5", elapsed)


def test_criterion_8_refutation_agreement_and_soundness():
    started = time.monotonic()
    assert len(corpus.REFUTATION) == 20
    for name, text in corpus.REFUTATION:
        problem, phi, state = translate_problem(text)
        result = clausify(to_fol(state))
        user = [
            c
            for c in result.clauses
            if not is_bool_domain_clause(c) and c.render() != "$true != $false"
        ]
        assert len(user) <= 6, f"{name}: {len(user)} clauses"
        for mode in (AXIOM_MODE, RULE_MODE):
            outcome = saturate(
                result.clauses,
                result.ctx,
                ProverConfig(bool_mode=mode, max_clauses=5000, max_seconds=20),
            )
            assert outcome.verdict == "refuted", f"{name} in {mode} mode"
        assert not helpers.oracle_satisfiable(result.clauses, result.ctx), name
    # satisfiable problems: rule mode saturates and the oracle finds a
    # model; axiom mode must never refute them (its clause-(4) junk may
    # keep it from terminating, which is the motivating pathology).
    for name, text in corpus.SATISFIABLE:
        problem, phi, state = translate_problem(text)
        result = clausify(to_fol(state))
        rule_run = saturate(
            result.clauses,
            result.ctx,
            ProverConfig(bool_mode=RULE_MODE, max_clauses=5000, max_seconds=20),
        )
        assert rule_run.verdict == "saturated", name
        axiom_run = saturate(
            result.clauses,
            result.ctx,
            ProverConfig(bool_mode=AXIOM_MODE, max_clauses=2000, max_seconds=20),
        )
        assert axiom_run.verdict != "refuted", name
        assert helpers.oracle_satisfiable(result.clauses, result.ctx), name
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(8, "20 refutations agree across modes and match the oracle", elapsed)
