"""The four lowering steps, the driver, and conversion to legal
first-order problems."""

import contextlib
import copy
import hashlib
import json
import pathlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foolkit import (
    App,
    BOOL,
    DomainSpec,
    Eq,
    Exists,
    Forall,
    Ite,
    Let,
    Signature,
    TypeContext,
    TypeSig,
    Var,
    check_model_preservation,
    enumerate_interpretations,
    free_vars,
    is_syntactically_first_order,
    land,
    liff,
    limplies,
    lnot,
    lor,
    models,
    parse_formula,
    parse_problem,
    run_translation,
    step1_bool_var,
    step2_formula_in_term_ctx,
    step3_ite,
    step4_let,
    to_fol,
)
from foolkit import translate
from foolkit.prover import clausify
from foolkit.semantics import DEFAULT_CAP, EnumerationOverflow, table_count
from foolkit.tptp import print_fol_tff0
from foolkit.terms import (
    ARITHMETIC_PREDICATES,
    FALSE,
    FORMULA_CONTEXT,
    NO_CONTEXT,
    TERM_CONTEXT,
    TRUE,
    children,
    classify_occurrence,
    contexts,
    forall_prefix,
    free_fns,
    occurrences,
    redex_kind,
    subst_free_vars,
    subterm_positions,
    term_to_str,
)
from foolkit.translate import (
    TranslationState,
    _Pass,
    _rename_bound_in,
)
from foolkit.typecheck import SortError

import corpus
from fixtures import CONTAINS_ITE, SUBSET_SORTED, VERIFICATION_LISTING
from generate import TermGen, let_nest_text, lowering_shapes
from helpers import redex_measure

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def ctx():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("p0", TypeSig((), BOOL))
    sig.declare_fn("q0", TypeSig((), BOOL))
    sig.declare_fn("f", TypeSig((BOOL,), s))
    sig.declare_fn("h", TypeSig((s,), s))
    sig.declare_fn("c", TypeSig((), s))
    sig.declare_fn("pr", TypeSig((s,), BOOL))
    return TypeContext.of(sig)


# ---------------------------------------------------------------------------
# step 1


def test_step1_rewrites_bool_var(ctx):
    phi = Forall("X", BOOL, lor(Var("X"), App("p0")))
    state = TranslationState(phi, ctx)
    step1_bool_var(state, (0, 0))
    assert state.current == Forall("X", BOOL, lor(Eq(Var("X"), TRUE), App("p0")))
    assert state.defs == []


def test_step1_inside_implication(ctx):
    phi = Forall("P", BOOL, limplies(Var("P"), App("pr", (App("c"),))))
    state = TranslationState(phi, ctx)
    step1_bool_var(state, (0, 0))
    assert state.current == Forall(
        "P", BOOL, limplies(Eq(Var("P"), TRUE), App("pr", (App("c"),)))
    )


def test_step1_rejects_term_context(ctx):
    phi = Forall("X", BOOL, Eq(App("f", (Var("X"),)), App("c")))
    state = TranslationState(phi, ctx)
    with pytest.raises(ValueError):
        step1_bool_var(state, (0, 0, 0))


# ---------------------------------------------------------------------------
# step 2


def test_step2_closed_formula_gets_nullary_name(ctx):
    phi = Eq(App("h", (App("f", (lor(App("p0"), App("q0")),)),)), App("c"))
    state = TranslationState(phi, ctx)
    step2_formula_in_term_ctx(state, (0, 0, 0))
    g = state.fresh_symbols[0]
    assert g == "sk_fool_0"
    assert state.current == Eq(App("h", (App("f", (App(g),)),)), App("c"))
    assert state.defs == [liff(lor(App("p0"), App("q0")), Eq(App(g), TRUE))]
    assert state.ctx.fn_sig(g) == TypeSig((), BOOL)


def test_step2_open_formula_quantifies_free_vars(ctx):
    s = ctx.sig.sort("s")
    phi = Forall("X", s, Eq(App("f", (lnot(App("pr", (Var("X"),))),)), App("c")))
    state = TranslationState(phi, ctx)
    step2_formula_in_term_ctx(state, (0, 0, 0))
    g = state.fresh_symbols[0]
    definition = state.defs[0]
    assert definition == Forall(
        "X", s, liff(lnot(App("pr", (Var("X"),))), Eq(App(g, (Var("X"),)), TRUE))
    )
    assert free_vars(definition) == set()
    assert state.ctx.fn_sig(g) == TypeSig((s,), BOOL)


def test_step2_refuses_truth_constants(ctx):
    phi = Eq(App("f", (TRUE,)), App("c"))
    state = TranslationState(phi, ctx)
    with pytest.raises(ValueError):
        step2_formula_in_term_ctx(state, (0, 0))


# ---------------------------------------------------------------------------
# step 3


def test_step3_ground_ite(ctx):
    # ite over constants: nullary fresh symbol, two guarded equations.
    phi = Eq(App("h", (Ite(App("pr", (App("c"),)), App("c"), App("h", (App("c"),))),)), App("c"))
    state = TranslationState(phi, ctx)
    step3_ite(state, (0, 0))
    g = state.fresh_symbols[0]
    cond = App("pr", (App("c"),))
    assert state.defs[0] == limplies(cond, Eq(App(g), App("c")))
    assert state.defs[1] == limplies(lnot(cond), Eq(App(g), App("h", (App("c"),))))
    assert state.current == Eq(App("h", (App(g),)), App("c"))


def test_step3_open_ite_with_bool_condition(ctx):
    s = ctx.sig.sort("s")
    phi = Forall(
        "P", BOOL, Forall("X", s, Forall("Y", s,
            Eq(Ite(Eq(Var("P"), TRUE), Var("X"), Var("Y")), Var("X")))))
    state = TranslationState(phi, ctx)
    step3_ite(state, (0, 0, 0, 0))
    g = state.fresh_symbols[0]
    assert state.ctx.fn_sig(g) == TypeSig((BOOL, s, s), s)
    gapp = App(g, (Var("P"), Var("X"), Var("Y")))
    want = Forall("P", BOOL, Forall("X", s, Forall("Y", s,
        limplies(Eq(Var("P"), TRUE), Eq(gapp, Var("X"))))))
    assert state.defs[0] == want
    # preservation of this single step, checked by enumeration
    spec = DomainSpec({s: 2})
    report = check_model_preservation(phi, state, spec)
    assert report.ok


def test_step3_requires_ite(ctx):
    state = TranslationState(App("p0"), ctx)
    with pytest.raises(ValueError):
        step3_ite(state, ())


# ---------------------------------------------------------------------------
# step 4


def test_step4_nullary_binding(ctx):
    s = ctx.sig.sort("s")
    # let k = h(c) in pr(k): constant binding, no free variables.
    phi = Let("k", (), App("h", (App("c"),)), App("pr", (App("k"),)))
    state = TranslationState(phi, ctx)
    step4_let(state, ())
    g = state.fresh_symbols[0]
    assert state.defs == [Eq(App(g), App("h", (App("c"),)))]
    assert state.current == App("pr", (App(g),))
    assert state.ctx.fn_sig(g) == TypeSig((), s)


def test_step4_parameters_renamed_fresh(ctx):
    s = ctx.sig.sort("s")
    # let g(X : s) = c in g(g(d)): formals rename to fresh variables.
    phi = Let("g", (("X", s),), App("c"), App("g", (App("g", (App("c"),)),)))
    state = TranslationState(phi, ctx)
    step4_let(state, ())
    gname = state.fresh_symbols[0]
    [definition] = state.defs
    assert isinstance(definition, Forall)
    z = definition.var
    assert definition == Forall(z, s, Eq(App(gname, (Var(z),)), App("c")))
    assert state.current == App(gname, (App(gname, (App("c"),)),))


def test_step4_free_vars_become_extra_arguments(ctx):
    s = ctx.sig.sort("s")
    sig2 = ctx.sig
    sig2.declare_fn("p2", TypeSig((s, s), BOOL))
    # forall Y. (let f(X) = p2(X, Y) in f(c)): Y rides along as an argument.
    phi = Forall(
        "Y", s,
        Let("fl", (("X", s),), App("p2", (Var("X"), Var("Y"))), App("fl", (App("c"),))),
    )
    state = TranslationState(phi, ctx)
    step4_let(state, (0,))
    g = state.fresh_symbols[0]
    [definition] = state.defs
    # (forall Z)(forall Y)(g(Z, Y) = p2(Z, Y)) up to the fresh Z's name
    assert isinstance(definition, Forall)
    z = definition.var
    assert definition == Forall(z, s, Forall("Y", s,
        Eq(App(g, (Var(z), Var("Y"))), App("p2", (Var(z), Var("Y"))))))
    assert state.current == Forall("Y", s, App(g, (App("c"), Var("Y"))))
    assert state.ctx.fn_sig(g) == TypeSig((s, s), BOOL)


def test_step4_renames_captured_binders(ctx):
    s = ctx.sig.sort("s")
    # The let term has free Y, and its scope quantifies another Y: the
    # bound Y must be renamed before Y is appended to applications.
    inner = Forall("Y", s, Eq(App("fl", (Var("Y"),)), App("c")))
    phi = Forall("Y", s, Let("fl", (("X", s),), App("h", (Var("Y"),)), land(App("pr", (App("fl", (Var("Y"),)),)), inner)))
    state = TranslationState(phi, ctx)
    step4_let(state, (0,))
    current = state.current
    assert isinstance(current, Forall)
    conj = current.body
    bound_part = conj.args[1]
    assert isinstance(bound_part, Forall)
    assert bound_part.var != "Y"  # renamed apart
    g = state.fresh_symbols[0]
    assert bound_part.body == Eq(App(g, (Var(bound_part.var), Var("Y"))), App("c"))


def test_step4_renames_nested_binders_innermost_first(ctx):
    s = ctx.sig.sort("s")
    fl = lambda a: App("fl", (a,))
    scope = land(
        Forall("Y", s, Exists("Y", s, Eq(fl(Var("Y")), App("c")))),
        Let("k", (("Y", s),), fl(Var("Y")), App("pr", (App("k", (Var("Y"),)),))),
    )
    phi = Forall("Y", s, Let("fl", (("X", s),), App("h", (Var("Y"),)), scope))
    state = step4_let(TranslationState(phi, ctx), (0,))
    # Z0 names the formal; Y1, Y2, Y3 are drawn bottom-up, left to right
    assert term_to_str(state.current) == (
        "![Y : s]: ((![Y2 : s]: (?[Y1 : s]: (sk_fool_0(Y1, Y) = c)))"
        " & $let(k(Y3 : s) := sk_fool_0(Y3, Y), pr(k(Y))))"
    )


def test_step4_fresh_formal_avoids_names_of_a_directly_built_state(ctx):
    """A state built from the formula alone knows the formula's names, so
    the lifted formal does not capture the body's bound ``Z0``."""
    s = ctx.sig.sort("s")
    ctx.sig.declare_fn("p2", TypeSig((s, s), BOOL))
    phi = parse_formula("$let(f : s > $o, f(X) := ![Z0 : s] : p2(X, Z0), f(c))", ctx)
    state = step4_let(TranslationState(current=phi, ctx=ctx), ())
    assert isinstance(state.defs[0], Forall)
    assert state.defs[0].var != "Z0"
    assert check_model_preservation(phi, state, DomainSpec({s: 2})).render() == "OK 128"


def test_a_failed_let_step_leaves_the_state_as_it_was(ctx):
    """An ill-sorted let body fails the step before it takes a fresh
    formal or symbol name."""
    s = ctx.sig.sort("s")
    phi = Let("k", (("A", s),), App("pr", (App("nosuch"),)), App("pr", (App("c"),)))
    state = TranslationState(phi, ctx)
    before = (state.var_counter, state.fn_counter, set(state.used_names), list(state.steps))
    with pytest.raises(SortError, match="nosuch"):
        step4_let(state, ())
    assert (state.var_counter, state.fn_counter, state.used_names, state.steps) == before
    assert state.current is phi and state.defs == [] and state.fresh_symbols == []


def test_steps_reject_locally_bound_symbols(ctx):
    s = ctx.sig.sort("s")
    # the inner let's body mentions fl, which is bound by the outer let
    inner = Let("k", (), App("fl", (App("c"),)), App("k"))
    phi = Let("fl", (("X", s),), App("h", (Var("X"),)), App("pr", (inner,)))
    state = TranslationState(phi, ctx)
    with pytest.raises(ValueError) as err:
        step4_let(state, (1, 0))
    assert "bound symbols" in str(err.value)
    # same side condition guards the naming and conditional steps
    ite_phi = Let(
        "fl", (("X", s),), App("h", (Var("X"),)),
        Eq(Ite(App("p0"), App("fl", (App("c"),)), App("c")), App("c")),
    )
    state2 = TranslationState(ite_phi, ctx)
    with pytest.raises(ValueError):
        step3_ite(state2, (1, 0))


def test_step4_shadowed_rebinding_not_rewritten(ctx):
    s = ctx.sig.sort("s")
    inner = Let("fl", (), App("c"), App("fl"))
    phi = Let("fl", (("X", s),), App("h", (Var("X"),)), Eq(App("fl", (App("c"),)), inner))
    state = TranslationState(phi, ctx)
    step4_let(state, ())
    g = state.fresh_symbols[0]
    # outer application rewritten, inner let untouched (it rebinds fl)
    assert state.current == Eq(App(g, (App("c"),)), inner)


# ---------------------------------------------------------------------------
# the driver


def test_driver_leaves_first_order_input_alone(ctx):
    phi = land(App("pr", (App("c"),)), App("p0"))
    state = run_translation(phi, ctx)
    assert state.current == phi
    assert state.defs == []
    assert state.steps == []


def test_driver_on_verification_listing():
    problem = parse_problem(VERIFICATION_LISTING)
    state = run_translation(problem.goal_formula(), problem.ctx)
    counts = state.step_counts()
    assert counts == {"let": 2, "ite": 1}
    assert len(state.defs) == 4  # one equation per let, two for the ite
    for d in state.defs:
        assert free_vars(d) == set()
        assert is_syntactically_first_order(d).ok
    assert is_syntactically_first_order(state.current).ok


def test_driver_on_contains_ite_pattern():
    problem = parse_problem(CONTAINS_ITE)
    state = run_translation(problem.goal_formula(), problem.ctx)
    counts = state.step_counts()
    # the boolean variable fires (condition and both implications), the
    # conditional fires once, and the right-hand side is named once
    assert counts["ite"] == 1
    assert counts["bool-var"] == 3
    assert counts["formula-in-term"] == 1
    for d in state.defs:
        assert free_vars(d) == set()


def test_driver_on_subset_sorted():
    problem = parse_problem(SUBSET_SORTED)
    state = run_translation(problem.goal_formula(), problem.ctx)
    assert state.step_counts()["ite"] == 2
    assert is_syntactically_first_order(state.current).ok


@pytest.mark.parametrize(
    "formula, measure",
    [
        # the let, its body, and its scope, which stands in q's argument
        ("q($let(c : $o, c := a & b, c | d))", 3),
        # the let and its body; the scope stands in a formula context
        ("$let(c : $o, c := a & b, c | d)", 2),
    ],
)
def test_redex_measure_reads_a_lets_children_in_their_lifted_contexts(formula, measure):
    """A let's body stands in a term context and its scope in the let's
    own context, and the driver applies exactly the measured steps."""
    sig = Signature()
    sig.declare_fn("q", TypeSig((BOOL,), BOOL))
    for name in "abd":
        sig.declare_fn(name, TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    phi = parse_formula(formula, ctx)
    assert redex_measure(phi) == measure
    assert len(run_translation(phi, ctx).steps) == measure


def test_driver_step_count_bounded_by_measure():
    """On every pinned input and lowering shape the driver applies at most
    the input's redex measure of steps and leaves a state ``to_fol``
    accepts."""
    for name, phi, state in _translated_states():
        assert len(state.steps) <= redex_measure(phi), name
        to_fol(state)


def test_driver_rejects_open_formulas(ctx):
    """An open formula fails the sort check, also when ``ctx`` binds its
    variable."""
    phi = App("pr", (Var("X"),))
    for given in (ctx, ctx.with_var("X", ctx.sig.sort("s"))):
        with pytest.raises(SortError, match=r"^unbound variable 'X'$"):
            run_translation(phi, given)


def _assert_step_locally_equivalent(phi, state):
    """The definitions added by the applied step force the old and new
    formula to agree in every interpretation of the extended context."""
    s = state.ctx.sig.sort("s")
    spec = DomainSpec({s: 2})
    builtin = {"$and", "$or", "$not", "$implies", "$iff", "$true", "$false"}
    symbols = sorted((free_fns(phi) | free_fns(state.current)) - builtin)
    agreements = 0
    for interp in enumerate_interpretations(state.ctx, spec, symbols):
        if all(models(interp, d) for d in state.defs):
            assert models(interp, phi) == models(interp, state.current)
            agreements += 1
    assert agreements > 0  # the side condition is satisfiable


def test_step_local_equivalence_all_steps(ctx):
    s = ctx.sig.sort("s")
    # step 1 adds no definition: the rewrite itself is an equivalence
    phi1 = Forall("X", BOOL, lor(Var("X"), App("p0")))
    state1 = step1_bool_var(TranslationState(phi1, ctx), (0, 0))
    _assert_step_locally_equivalent(phi1, state1)
    # step 2
    phi2 = Eq(App("f", (land(App("p0"), App("q0")),)), App("c"))
    state2 = step2_formula_in_term_ctx(TranslationState(phi2, ctx), (0, 0))
    _assert_step_locally_equivalent(phi2, state2)
    # step 3 adds a guarded pair
    phi3 = Eq(Ite(App("p0"), App("c"), App("h", (App("c"),))), App("c"))
    state3 = step3_ite(TranslationState(phi3, ctx), (0,))
    _assert_step_locally_equivalent(phi3, state3)
    # step 4 adds one lifted equation
    phi4 = Let("k", (("X", s),), App("h", (Var("X"),)), App("pr", (App("k", (App("c"),)),)))
    state4 = step4_let(TranslationState(phi4, ctx), ())
    _assert_step_locally_equivalent(phi4, state4)


def test_translation_preserves_on_ites_and_lets(ctx):
    s = ctx.sig.sort("s")
    phi = parse_formula("$let(k : s, k := h(c), pr(k) & pr($ite(p0, k, c)))", ctx)
    state = run_translation(phi, ctx)
    report = check_model_preservation(phi, state, DomainSpec({s: 2}))
    assert report.ok


def test_out_of_order_steps_leave_work_inside_definitions(ctx):
    """Applying the conditional step before the naming step copies a
    non-first-order residue into a definition; the driver, resumed on
    that state, finds it there and the naming step fires with the
    definition as target."""
    from foolkit.translate import _lower_targets

    s = ctx.sig.sort("s")
    phi = Eq(
        App("h", (Ite(App("p0"), App("f", (land(App("q0"), App("q0")),)), App("c")),)),
        App("c"),
    )
    state = TranslationState(phi, ctx)
    step3_ite(state, (0, 0))  # out of order: the branch still holds (q0 & q0)
    assert not is_syntactically_first_order(state.defs[0]).ok
    _lower_targets(state)
    assert len(state.steps) == 2  # exactly one further step
    kind, target, _ = state.steps[1]
    assert kind == "formula-in-term"
    assert target == 0  # inside the first definition
    for formula in (state.current, *state.defs):
        assert is_syntactically_first_order(formula).ok
    spec = DomainSpec({s: 2})
    assert check_model_preservation(phi, state, spec).ok


def test_nested_lets_rebinding_at_different_sorts():
    text = (
        "tff(s_s, type, srt : $tType). tff(d_c, type, c : srt)."
        " tff(d_p, type, p : srt > $o)."
        " tff(f1, axiom, $let(k : $o, k := $true, $let(k : srt, k := c, p(k))))."
    )
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    assert state.step_counts() == {"let": 2}
    srt = problem.signature.sort("srt")
    assert check_model_preservation(phi, state, DomainSpec({srt: 2})).ok


def test_inner_let_waits_for_outer_elimination():
    # The inner binding mentions the outer bound symbol, so it is not
    # eligible until the outer let has been lifted.
    text = (
        "tff(s_s, type, srt : $tType). tff(d_c, type, c : srt)."
        " tff(d_q, type, q : srt > srt). tff(d_p, type, p : srt > $o)."
        " tff(f1, axiom, $let(f : srt > srt, f(X) := q(X),"
        " p($let(k : srt, k := f(c), k))))."
    )
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    assert [rule for rule, _, _ in state.steps] == ["let", "let"]
    assert state.current == App("p", (App("sk_fool_1"),))
    assert state.defs[1] == Eq(App("sk_fool_1"), App("sk_fool_0", (App("c"),)))
    srt = problem.signature.sort("srt")
    assert check_model_preservation(phi, state, DomainSpec({srt: 2})).ok


def test_ite_inside_let_body():
    text = (
        "tff(s_s, type, srt : $tType). tff(d_c, type, c : srt)."
        " tff(d_q, type, q : srt > srt). tff(d_pp, type, pp : $o)."
        " tff(f1, axiom, $let(f : srt > srt, f(X) := $ite(pp, X, q(X)),"
        " f(c) = $ite(pp, c, q(c))))."
    )
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    assert state.step_counts() == {"ite": 2, "let": 1}
    srt = problem.signature.sort("srt")
    assert check_model_preservation(phi, state, DomainSpec({srt: 2})).ok


# ---------------------------------------------------------------------------
# one symbol per distinct named term


_SORTS_S_T = (
    "tff(s_s, type, s : $tType). tff(s_t, type, t : $tType)."
    " tff(d_c, type, c : s). tff(d_pr, type, pr : s > $o). tff(d_w, type, w : $o > s)."
    " tff(d_a, type, a : $o). tff(d_b, type, b : $o)."
)


def _lowered(text):
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    spec = DomainSpec({sort: 2 for sort in problem.signature.sorts.values()})
    assert check_model_preservation(phi, state, spec).ok
    return state


@pytest.mark.parametrize("predicate", ARITHMETIC_PREDICATES)
def test_an_arithmetic_predicate_in_a_term_context_is_named(predicate):
    """An arithmetic predicate application is a formula, so as the argument
    of ``q : $o > $o`` step 2 names it; the split cannot make the reader's
    predicate a function, and the output reads back under the strict
    grammar."""
    state = _lowered(f"tff(q, type, q : $o > $o). tff(a, axiom, q({predicate}(1, 2))).")
    assert state.step_counts() == {"formula-in-term": 1}
    assert state.current == App("q", (App("sk_fool_0"),))
    fol = to_fol(state)
    assert fol.predicate_split[predicate] == "predicate"
    assert parse_problem(print_fol_tff0(fol), strict=True).formulas


def test_a_repeated_formula_in_a_term_context_is_named_once(ctx):
    """Both occurrences are still steps, but the second reuses the first
    one's symbol and adds no definition; the single-step API shares too."""
    state = _lowered(_SORTS_S_T + " tff(g, conjecture, w(a | b) = w(a | b)).")
    assert state.step_counts() == {"formula-in-term": 2}
    assert state.fresh_symbols == ["sk_fool_0"]
    assert len(state.defs) == 1
    assert state.current == lnot(Eq(App("w", (App("sk_fool_0"),)), App("w", (App("sk_fool_0"),))))

    phi = Eq(App("f", (lor(App("p0"), App("q0")),)), App("f", (lor(App("p0"), App("q0")),)))
    state = TranslationState(phi, ctx)
    step2_formula_in_term_ctx(state, (0, 0))
    step2_formula_in_term_ctx(state, (1, 0))
    assert state.fresh_symbols == ["sk_fool_0"]
    assert state.current == Eq(App("f", (App("sk_fool_0"),)), App("f", (App("sk_fool_0"),)))
    assert len(state.defs) == 1


def test_a_repeated_ite_under_two_binders_is_named_once():
    state = _lowered(
        _SORTS_S_T + " tff(g, axiom, (![X : s] : pr($ite(pr(X), X, c)))"
        " & (![X : s] : pr($ite(pr(X), X, c))))."
    )
    assert state.step_counts() == {"ite": 2}
    assert state.fresh_symbols == ["sk_fool_0"]
    assert len(state.defs) == 2
    named = App("pr", (App("sk_fool_0", (Var("X"),)),))
    s = state.ctx.sig.sort("s")
    assert state.current == land(Forall("X", s, named), Forall("X", s, named))


def test_the_same_text_over_other_sorts_or_other_variables_is_named_apart():
    """The key carries each free variable's sort, and alpha-variants are
    not identified."""
    sorts = _lowered(
        _SORTS_S_T + " tff(g, axiom, (![X : s] : X = $ite(a, X, X))"
        " & (![X : t] : X = $ite(a, X, X)))."
    )
    assert sorts.step_counts() == {"ite": 2}
    assert sorts.fresh_symbols == ["sk_fool_0", "sk_fool_1"]
    assert [str(sorts.ctx.fn_sig(g)) for g in sorts.fresh_symbols] == ["s > s", "t > t"]
    variants = _lowered(_SORTS_S_T + " tff(g, axiom, w(![Y : s] : pr(Y)) = w(![Z : s] : pr(Z))).")
    assert variants.step_counts() == {"formula-in-term": 2}
    assert variants.fresh_symbols == ["sk_fool_0", "sk_fool_1"]


def test_lets_of_one_name_keep_their_named_terms_apart():
    """Two scopes bind ``k`` to different bodies; the named terms that
    mention ``k`` wait for the lifts, which make them different."""
    state = _lowered(
        _SORTS_S_T + " tff(g, axiom, $let(k : $o, k := a, w(k | b) = c)"
        " & $let(k : $o, k := b, w(k | b) = c))."
    )
    assert state.step_counts() == {"let": 2, "formula-in-term": 2}
    assert len(state.fresh_symbols) == 4
    assert len(state.defs) == 4


def _definitions_by_symbol(state):
    """Each fresh symbol's definitions, with the symbol renamed to one
    placeholder: the left side of the equation each definition ends in."""
    out = {}
    for d in state.defs:
        body = d
        while isinstance(body, Forall):
            body = body.body
        eq = body.args[1] if isinstance(body, App) else body  # <=> and => end in it
        g = eq.left.fn
        out.setdefault(g, []).append(subst_free_vars(d, {}, {g: ("_", ())}))
    return out


def test_no_two_fresh_symbols_share_their_definitions():
    for name, _, state in _translated_states():
        by_symbol = _definitions_by_symbol(state)
        assert sorted(by_symbol) == sorted(state.fresh_symbols), name
        distinct = {tuple(map(term_to_str, defs)) for defs in by_symbol.values()}
        assert len(distinct) == len(by_symbol), name


def test_lowering_shapes_keep_their_models():
    """At size 2: the if-then-else trees and the naming problems, the
    shapes with repeated named terms, under a cap that takes them all, and
    every other shape wherever the default cap allows."""
    checked = []
    for name, text in lowering_shapes():
        problem = parse_problem(text)
        phi = problem.goal_formula()
        state = run_translation(phi, problem.ctx)
        spec = DomainSpec({sort: 2 for sort in problem.signature.sorts.values()})
        cap = 10**40 if name.startswith(("tree-", "naming-")) else DEFAULT_CAP
        try:
            report = check_model_preservation(phi, state, spec, cap=cap)
        except EnumerationOverflow:
            continue
        assert report.ok, name
        checked.append(name)
    assert {"tree-3", "tree-5", "tree-7", "naming-5", "naming-20", "naming-40"} <= set(checked)


# ---------------------------------------------------------------------------
# conversion to FOL


def test_to_fol_appends_boolean_axioms(ctx):
    phi = Eq(App("c"), App("c"))
    fol = to_fol(run_translation(phi, ctx))
    assert fol.goal == phi
    assert fol.domain_axiom == Forall(
        "X", BOOL, lor(Eq(Var("X"), TRUE), Eq(Var("X"), FALSE))
    )
    assert fol.distinct_axiom == lnot(Eq(TRUE, FALSE))
    assert fol.axioms == (fol.domain_axiom, fol.distinct_axiom)


def test_to_fol_keeps_goal_true_atom(ctx):
    fol = to_fol(run_translation(TRUE, ctx))
    assert fol.goal == TRUE  # printed as the always-true atom


def test_predicate_split(ctx):
    # pr only ever an atom: predicate.  p0 also under f(...): function,
    # and its atoms become equations with true.
    phi = land(App("pr", (App("c"),)), land(App("p0"), Eq(App("f", (App("p0"),)), App("c"))))
    state = run_translation(phi, ctx)
    fol = to_fol(state)
    assert fol.predicate_split["pr"] == "predicate"
    assert fol.predicate_split["p0"] == "function"
    assert fol.goal == land(
        App("pr", (App("c"),)),
        land(Eq(App("p0"), TRUE), Eq(App("f", (App("p0"),)), App("c"))),
    )


def test_predicate_split_preserves_models(ctx):
    s = ctx.sig.sort("s")
    phi = land(App("p0"), Eq(App("f", (App("p0"),)), App("c")))
    state = run_translation(phi, ctx)
    fol = to_fol(state)
    # the split rewriting is a semantic no-op
    spec = DomainSpec({s: 2})
    symbols = ["p0", "f", "c"]
    for interp in enumerate_interpretations(state.ctx, spec, symbols):
        assert models(interp, phi) == models(interp, fol.goal)


def test_to_fol_output_is_first_order(ctx):
    for text in (VERIFICATION_LISTING, CONTAINS_ITE, SUBSET_SORTED):
        problem = parse_problem(text)
        fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
        for formula in (*fol.axioms, fol.goal):
            assert is_syntactically_first_order(formula).ok


def test_to_fol_requires_terminated_state(ctx):
    in_term = Eq(App("f", (land(App("p0"), App("q0")),)), App("c"))
    ite = Eq(Ite(App("p0"), App("c"), App("h", (App("c"),))), App("c"))
    for phi, residue in ((in_term, "(0, 0): formula in term context"), (ite, "(0,): ite expression")):
        with pytest.raises(ValueError, match=re.escape(f"current is not first-order at {residue}")):
            to_fol(TranslationState(phi, ctx))
        # also when the residue sits in a definition behind a first-order goal
        state = TranslationState(Eq(App("c"), App("c")), ctx)
        state.defs.append(phi)
        with pytest.raises(ValueError, match=re.escape(f"defs[0] is not first-order at {residue}")):
            to_fol(state)


# ---------------------------------------------------------------------------
# pinned and replayed runs


def _translation_inputs():
    """(name, closed formula, context) for the corpus, the fixtures and
    seeded random formulas."""
    groups = [
        ("PRESERVATION", corpus.PRESERVATION),
        ("REFUTATION", corpus.REFUTATION),
        ("SATISFIABLE", corpus.SATISFIABLE),
        ("fixtures", [
            ("VERIFICATION_LISTING", VERIFICATION_LISTING),
            ("CONTAINS_ITE", CONTAINS_ITE),
            ("SUBSET_SORTED", SUBSET_SORTED),
        ]),
    ]
    for group, entries in groups:
        for name, text, *_ in entries:
            problem = parse_problem(text)
            yield f"{group}/{name}", problem.goal_formula(), problem.ctx
    for seed in range(200):
        gen = TermGen(random.Random(seed))
        phi = gen.formula()
        binds = [(v, gen.free_pool[v]) for v in sorted(free_vars(phi))]
        yield f"termgen/{seed}", forall_prefix(binds, phi), TypeContext.of(gen.sig)


def _record(state):
    return {
        "steps": [[kind, target, list(path)] for kind, target, path in state.steps],
        "fresh_symbols": list(state.fresh_symbols),
        "current": term_to_str(state.current),
        "defs": [term_to_str(d) for d in state.defs],
        "fn_counter": state.fn_counter,
        "var_counter": state.var_counter,
    }


def pinned_translations():
    """``golden/translation.json``: the record of every pinned input's run."""
    return {name: _record(run_translation(phi, ctx)) for name, phi, ctx in _translation_inputs()}


def test_translation_is_pinned():
    """Steps, their paths, fresh names and output text of every run."""
    assert pinned_translations() == json.loads((GOLDEN / "translation.json").read_text())


def _clauses(phi, ctx):
    return [
        [c.render(), {v: str(s) for v, s in c.var_sorts.items()}]
        for c in clausify(to_fol(run_translation(phi, ctx))).clauses
    ]


def generated_clauses():
    """``golden/clausify_generated.json``: the clauses of the pinned inputs
    that ``clausify.json`` does not pin, the fixtures and the seeded
    formulas."""
    return {
        name: _clauses(phi, ctx)
        for name, phi, ctx in _translation_inputs()
        if name.startswith(("fixtures/", "termgen/"))
    }


def test_generated_clausify_is_pinned():
    """Clause text and variable sorts for the inputs that
    ``clausify.json`` does not pin: the fixtures and the seeded formulas."""
    assert generated_clauses() == json.loads((GOLDEN / "clausify_generated.json").read_text())


def _emitted(phi, ctx):
    fol = to_fol(run_translation(phi, ctx))
    text = print_fol_tff0(fol).encode()
    return {"predicate_split": fol.predicate_split, "sha256": hashlib.sha256(text).hexdigest()}


def emitted_problems():
    """``golden/emitted.json``: what every pinned input emits."""
    return {name: _emitted(phi, ctx) for name, phi, ctx in _translation_inputs()}


def test_emitted_problems_are_pinned():
    """The predicate split and the SHA-256 of the emitted standard text
    of every pinned input."""
    assert emitted_problems() == json.loads((GOLDEN / "emitted.json").read_text())


def _shape_run(text):
    """What lowering a problem text gives: the translation record, the
    goal's redex measure, the predicate split and the emitted SHA-256."""
    problem = parse_problem(text)
    phi = problem.goal_formula()
    state = run_translation(phi, problem.ctx)
    fol = to_fol(state)
    text = print_fol_tff0(fol).encode()
    return {
        **_record(state),
        "redex_measure": redex_measure(phi),
        "predicate_split": fol.predicate_split,
        "sha256": hashlib.sha256(text).hexdigest(),
    }


def lowering_shape_runs():
    """``golden/lowering_shapes.json``: what lowering each shape gives."""
    return {name: _shape_run(text) for name, text in lowering_shapes()}


def test_lowering_shapes_are_pinned():
    """Let nests, lets mixed with other redexes, if-then-else chains and
    trees, and naming problems, each at a range of sizes."""
    assert lowering_shape_runs() == json.loads((GOLDEN / "lowering_shapes.json").read_text())


def _clausify_shape(text):
    """The clause count of a lowered problem and the SHA-256 of its
    clauses, one per line: the rendered clause, then its variable sorts."""
    problem = parse_problem(text)
    clauses = clausify(to_fol(run_translation(problem.goal_formula(), problem.ctx))).clauses
    lines = "".join(
        f"{c.render()} {json.dumps({v: str(s) for v, s in c.var_sorts.items()})}\n" for c in clauses
    )
    return {"clauses": len(clauses), "sha256": hashlib.sha256(lines.encode()).hexdigest()}


def clausify_shape_runs():
    """``golden/clausify_shapes.json``: the clauses of each shape."""
    return {name: _clausify_shape(text) for name, text in lowering_shapes()}


def test_clausify_shapes_are_pinned():
    """The clauses of the lowering shapes: the large equivalence naming
    definitions and the if-then-else chain definitions."""
    assert clausify_shape_runs() == json.loads((GOLDEN / "clausify_shapes.json").read_text())


_LETTERS = {
    "bound": "b", "free": "f", None: "-",
    FORMULA_CONTEXT: "F", TERM_CONTEXT: "T", NO_CONTEXT: "N",
    "ite expression": "i", "let expression": "l",
    "variable in formula context": "v", "formula in term context": "t",
}


def _occurrences(phi):
    """Per position, in ``subterm_positions`` order: the occurrence's kind
    and context as two letters, and the first-order check of the subterm
    there, "" when it passes, else the reason's letter and the witness."""
    classes, checks = [], []
    for path, sub in subterm_positions(phi):
        occ = classify_occurrence(phi, path)
        classes.append(_LETTERS[occ.kind] + _LETTERS[occ.context])
        got = is_syntactically_first_order(sub)
        if got.ok:
            assert got.witness is None and got.reason is None
            checks.append("")
        else:
            checks.append(_LETTERS[got.reason] + ".".join(map(str, got.witness)))
    return {"classes": "".join(classes), "first_order": checks}


def pinned_occurrences():
    """``golden/occurrences.json``: the occurrences of every pinned input."""
    return {name: _occurrences(phi) for name, phi, _ in _translation_inputs()}


def test_occurrences_are_pinned():
    """The classifier and the first-order check at every position of
    every pinned input."""
    assert pinned_occurrences() == json.loads((GOLDEN / "occurrences.json").read_text())


_STEPS = {
    "bool-var": step1_bool_var,
    "formula-in-term": step2_formula_in_term_ctx,
    "ite": step3_ite,
    "let": step4_let,
}


def test_recorded_steps_replay_through_single_step_api():
    """The driver's log, applied step by step to a fresh state, rebuilds
    the driver's result exactly."""
    for name, phi, ctx in _translation_inputs():
        state = run_translation(phi, ctx)
        replay = TranslationState(phi, ctx)
        for kind, target, path in state.steps:
            _STEPS[kind](replay, path, target)
        assert replay.current == state.current, name
        assert replay.defs == state.defs, name
        assert replay.fresh_symbols == state.fresh_symbols, name
        assert replay.steps == state.steps, name


def test_single_steps_apply_exactly_where_the_classifier_says():
    """Each of the four steps at every path of every pinned input, on a
    fresh state: it applies where ``redex_kind`` names it and no let symbol
    bound above occurs free, and raises ``ValueError`` everywhere else."""
    for name, phi, ctx in _translation_inputs():
        for path, occ in occurrences(phi):
            eligible = not free_fns(occ.term) & occ.lets
            for kind, step in _STEPS.items():
                state = TranslationState(phi, ctx)
                if eligible and redex_kind(occ.term, occ.context) == kind:
                    step(state, path)
                    assert state.steps == [(kind, "current", path)], name
                else:
                    with pytest.raises(ValueError):
                        step(state, path)


def test_step1_refuses_a_variable_that_is_not_boolean(ctx):
    """The state does not sort-check its formula, so step 1 checks the
    variable's sort itself."""
    s = ctx.sig.sort("s")
    state = TranslationState(Forall("X", s, lor(Var("X"), App("p0"))), ctx)
    with pytest.raises(ValueError, match="^variable is not boolean$"):
        step1_bool_var(state, (0, 0))


# ---------------------------------------------------------------------------
# the context walk, and lowering a let's scope again after the lift


def _replayed_states():
    """(name, state) for every pinned input before its first step and after
    each single step of the driver's log; the state is updated in place."""
    for name, phi, ctx in _translation_inputs():
        steps = run_translation(phi, ctx).steps
        state = TranslationState(phi, ctx)
        yield name, state
        for kind, target, path in steps:
            _STEPS[kind](state, path, target)
            yield name, state


def test_context_walk_agrees_with_occurrences():
    """``contexts`` yields the subterm and context of each occurrence, in
    the order of ``occurrences``."""
    for name, state in _replayed_states():
        for formula in [state.current, *state.defs]:
            walked = [(id(t), context) for t, context in contexts(formula)]
            expected = [(id(occ.term), occ.context) for _, occ in occurrences(formula)]
            assert walked == expected, name


_REASON_OF = {
    "let": "let expression",
    "ite": "ite expression",
    "bool-var": "variable in formula context",
    "formula-in-term": "formula in term context",
}


def _first_order_by_occurrences(t):
    """(ok, witness, reason) of the first-order check, as one scan of
    ``occurrences``."""
    for path, occ in occurrences(t):
        kind = redex_kind(occ.term, occ.context)
        if kind is not None:
            return False, path, _REASON_OF[kind]
    return True, None, None


def test_first_order_check_and_to_fol_agree_with_an_occurrence_scan():
    """The same verdicts and witnesses on every intermediate state, and
    ``to_fol`` refuses exactly the states that are not first-order yet."""
    for name, state in _replayed_states():
        terminated = True
        for formula in [state.current, *state.defs]:
            got = is_syntactically_first_order(formula)
            assert (got.ok, got.witness, got.reason) == _first_order_by_occurrences(formula), name
            terminated &= got.ok
        if terminated:
            to_fol(state)
        else:
            with pytest.raises(ValueError, match="^to_fol requires a terminated translation state: "):
                to_fol(state)


@pytest.mark.parametrize("quantified", [False, True])
def test_let_nest_is_lowered_in_calls_linear_in_its_output(monkeypatch, quantified):
    """After a lift only the subtrees the lift changed are lowered again.
    A 40-deep let nest takes under 3 ``lower`` calls per output node; when
    each lift revisited its whole scope it took about 17 (4.7 under a
    quantifier)."""
    problem = parse_problem(let_nest_text(random.Random(0), 40, quantified))
    calls = []
    lower = _Pass.lower

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return lower(self, *args, **kwargs)

    monkeypatch.setattr(_Pass, "lower", counting)
    state = run_translation(problem.goal_formula(), problem.ctx)
    nodes = sum(1 for formula in [state.current, *state.defs] for _ in subterm_positions(formula))
    assert state.step_counts() == {"let": 40}
    assert len(calls) < 3 * nodes


def _translated_states():
    """(name, input, state) for what ``run_translation`` returns on every
    pinned input and every lowering shape."""
    for name, phi, ctx in _translation_inputs():
        yield name, phi, run_translation(phi, ctx)
    for name, text in lowering_shapes():
        problem = parse_problem(text)
        phi = problem.goal_formula()
        yield name, phi, run_translation(phi, problem.ctx)


def test_to_fol_refuses_a_residue_added_after_the_run():
    """A residue put into a state after its run is refused: in an appended
    definition, in a replaced ``current``, and after a step applied since."""
    residue = Forall("X", BOOL, land(Var("X"), Var("X")))  # two variables in formula contexts
    for _, _, state in _translated_states():
        k = len(state.defs)
        appended = copy.copy(state)
        appended.defs = [*state.defs, residue]
        with pytest.raises(ValueError, match=re.escape(f"defs[{k}] is not first-order at (0, 0)")):
            to_fol(appended)
        replaced = copy.copy(state)
        replaced.current = residue
        with pytest.raises(ValueError, match=re.escape("current is not first-order at (0, 0)")):
            to_fol(replaced)
        state.defs.append(residue)
        step1_bool_var(state, (0, 0), k)
        with pytest.raises(ValueError, match=re.escape(f"defs[{k}] is not first-order at (0, 1)")):
            to_fol(state)
        step1_bool_var(state, (0, 1), k)
        to_fol(state)


def _kept_alike(scope, got, want):
    """Wherever ``want`` keeps a subtree of ``scope`` as the same object,
    ``got`` keeps it too."""
    stack = [(scope, got, want)]
    while stack:
        t, got, want = stack.pop()
        if want is t:
            if got is not t:
                return False
        else:
            stack.extend(zip(children(t), children(got), children(want)))
    return True


@contextlib.contextmanager
def _lifts_checked_against_the_whole_scope():
    """Check each call of the guided lift rewrite, the lift's own and its
    recursive ones, against the whole-scope reference
    ``subst_free_vars(scope, {}, {fn: head})``: the same term, with every
    subtree the reference keeps kept as the same object.  Yields a list
    that names, per call, what the pass's records said of its subtree."""
    guided = translate._lift_apps
    taken = []

    def checked(t, fn, head, returned):
        got = guided(t, fn, head, returned)
        want = subst_free_vars(t, {}, {fn: head})
        assert got == want
        assert _kept_alike(t, got, want)
        known = returned.get(id(t))
        if known is None:
            taken.append("no record")
        elif known[1] is None:
            taken.append("returned at two places")
        elif fn not in known[1]:
            taken.append("does not mention")
        else:
            taken.append("rebinds" if isinstance(t, Let) and t.fn == fn else "mentions")
        return got

    with mock.patch.object(translate, "_lift_apps", checked):
        yield taken


def test_lift_rewrite_agrees_with_the_whole_scope_reference(ctx):
    s = ctx.sig.sort("s")
    ctx.sig.declare_fn("b", TypeSig((), s))
    # the inner let binds k again: its scope is left alone, and so is
    # pr(c), which does not mention k
    rebinds = parse_formula(
        "$let(k : s, k := c, (pr(c) & pr(k)) & $let(k : s, k := h(k), pr(k)))", ctx
    )
    # X is free in the let, so the scope's binder of X is renamed first,
    # and the rebuilt scope has no record
    renames = parse_formula(
        "![X : s] : $let(k : s, k := h(X), pr(k) & ![X : s] : pr(h(X)))", ctx
    )
    # one term object at two places of the outer let's scope, with two
    # clash sets: its record is None
    shared = App("pr", (App("b"),))
    inner = Let("b", (), App("h", (App("a"),)), land(shared, App("pr", (App("b"),))))
    twice = Eq(App("f", (Let("a", (), App("c"), land(shared, inner)),)), App("c"))
    seen = set()
    for phi, case in ((rebinds, "rebinds"), (renames, "no record"), (twice, "returned at two places")):
        with _lifts_checked_against_the_whole_scope() as taken:
            run_translation(phi, ctx)
        assert case in taken
        seen.update(taken)
    assert "does not mention" in seen


def test_lift_rewrite_agrees_with_the_whole_scope_reference_on_let_nests():
    for name, text in lowering_shapes():
        if "let" in name:
            problem = parse_problem(text)
            with _lifts_checked_against_the_whole_scope() as taken:
                state = run_translation(problem.goal_formula(), problem.ctx)
            assert len(taken) >= state.step_counts()["let"], name  # each lift was checked


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(2, 6))
def test_lift_rewrite_agrees_with_the_whole_scope_reference_on_random_formulas(seed, depth):
    gen = TermGen(random.Random(seed), max_depth=depth)
    phi = gen.formula()
    phi = forall_prefix([(v, gen.free_pool[v]) for v in sorted(free_vars(phi))], phi)
    with _lifts_checked_against_the_whole_scope():
        run_translation(phi, TypeContext.of(gen.sig))


def test_lift_rewrites_keep_untouched_subtrees(ctx):
    s = ctx.sig.sort("s")
    state = TranslationState(TRUE, ctx)
    kept = Forall("Y", s, App("pr", (App("h", (Var("Y"),)),)))
    touched = App("pr", (App("k"),))
    scope = land(touched, kept)
    lifted = {"k": ("g", (Var("X"),))}
    got = subst_free_vars(scope, {}, lifted)
    assert got == land(App("pr", (App("g", (Var("X"),)),)), kept)
    assert got.args[1] is kept
    assert subst_free_vars(kept, {}, lifted) is kept
    # a let that binds the symbol again shadows it in its scope, not in its body
    shadowed = subst_free_vars(Let("k", (), App("k"), touched), {}, lifted)
    assert shadowed == Let("k", (), App("g", (Var("X"),)), touched)
    assert shadowed.scope is touched
    renamed = _rename_bound_in(scope, {"Y"}, state)
    assert renamed.args[0] is touched
    assert renamed.args[1].var != "Y"
    assert _rename_bound_in(scope, {"Z"}, state) is scope


def test_a_term_shared_inside_and_outside_a_let_is_lowered_at_each_place(ctx):
    """One term object stands both outside and inside the scope of a let
    that binds a symbol it reads, so it clashes at one place and not at
    the other.  Lowering the outer let's scope again after its lift must
    not take one place's clash set for the other's: the run gives what
    it gives on a copy of the term."""
    s = ctx.sig.sort("s")
    ctx.sig.declare_fn("b", TypeSig((), s))

    def phi(first, second):
        inner = Let("b", (), App("h", (App("a"),)), land(second, App("pr", (App("b"),))))
        return Eq(App("f", (Let("a", (), App("c"), land(first, inner)),)), App("c"))

    shared = App("pr", (App("b"),))
    got = _record(run_translation(phi(shared, shared), ctx))
    assert got == _record(run_translation(phi(shared, App("pr", (App("b"),))), ctx))
    assert [kind for kind, _, _ in got["steps"]] == ["let", "let", "formula-in-term"]


def test_a_variable_shared_by_a_term_and_a_formula_place_is_lowered_at_each(ctx):
    """One variable object is an argument and a conjunct in a let's scope:
    what the pass returned for it at the first place is no answer for the
    second, where it is a formula."""
    x = Var("X")

    def phi(first, second):
        scope = land(Eq(App("f", (first,)), App("a")), second)
        return Forall("X", BOOL, Let("a", (), App("c"), scope))

    got = _record(run_translation(phi(x, x), ctx))
    assert got == _record(run_translation(phi(x, Var("X")), ctx))
    assert [kind for kind, _, _ in got["steps"]] == ["bool-var", "let"]


def test_deep_nest_around_one_ite(ctx):
    """A 900-deep nest of applications lowers without exhausting the
    stack: one frame per tree level."""
    t = Ite(App("p0"), App("c"), App("h", (App("c"),)))
    for _ in range(900):
        t = App("h", (t,))
    state = run_translation(Eq(t, App("c")), ctx)
    assert state.step_counts() == {"ite": 1}
    assert state.steps[0][2] == (0,) * 901


def test_deep_first_order_nest_needs_no_stack(ctx):
    """The first-order check, the redex measure and to_fol walk a nest
    far deeper than the recursion limit.  Deep terms are compared by
    identity: ``==`` on them would recurse once per level."""
    t = App("c")
    for _ in range(5000):
        t = App("h", (t,))
    phi = App("pr", (t,))
    state = TranslationState(current=phi, ctx=ctx)
    assert is_syntactically_first_order(phi).ok
    assert redex_measure(phi) == 0
    fol = to_fol(state)
    assert fol.goal is phi
    assert fol.definitions == ()
    assert fol.predicate_split == {"pr": "predicate"}


def test_fresh_symbols_are_in_scope_after_a_let(ctx):
    """After the let is lifted, the if-then-else in its scope mentions
    both the let's fresh symbol and an earlier one; its step must see
    both in the context."""
    ctx.sig.declare_fn("b0", TypeSig((), BOOL))
    phi = parse_formula(
        "$let(k : s, k := c, pr($ite(q0, f(p0 & b0), k)) & pr(h(k)))", ctx
    )
    state = run_translation(phi, ctx)
    assert [rule for rule, _, _ in state.steps] == ["formula-in-term", "let", "ite"]
    s = ctx.sig.sort("s")
    assert check_model_preservation(phi, state, DomainSpec({s: 2})).ok
