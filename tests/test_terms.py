"""Occurrence analysis, renaming and the first-order fragment check."""

import pytest

from foolkit import (
    App,
    BOOL,
    Eq,
    Exists,
    Forall,
    Ite,
    Let,
    Signature,
    TypeContext,
    TypeSig,
    Var,
    classify_occurrence,
    free_fns,
    free_vars,
    is_syntactically_first_order,
    land,
    lnot,
    lor,
    parse_problem,
)
from foolkit.terms import (
    FORMULA_CONTEXT,
    NO_CONTEXT,
    TERM_CONTEXT,
    Sort,
    subst_free_vars,
    subterm_at,
    subterm_positions,
    with_children,
)

from fixtures import SUBSET_SORTED, VERIFICATION_LISTING

S = Sort("s")


def test_signature_has_required_connectives():
    sig = Signature()
    assert sig.fn_sig("$and") == TypeSig((BOOL, BOOL), BOOL)
    assert sig.fn_sig("$or") == TypeSig((BOOL, BOOL), BOOL)
    assert sig.fn_sig("$implies") == TypeSig((BOOL, BOOL), BOOL)
    assert sig.fn_sig("$iff") == TypeSig((BOOL, BOOL), BOOL)
    assert sig.fn_sig("$not") == TypeSig((BOOL,), BOOL)
    assert sig.fn_sig("$true") == TypeSig((), BOOL)
    assert sig.fn_sig("$false") == TypeSig((), BOOL)
    with pytest.raises(ValueError):
        sig.declare_fn("$and", TypeSig((), BOOL))


def test_exactly_one_bool_sort():
    sig = Signature()
    sig.declare_sort("s")
    bools = [s for s in sig.sorts.values() if s.is_bool]
    assert len(bools) == 1
    with pytest.raises(ValueError):
        sig.add_sort(Sort("other_bool", is_bool=True))


def test_let_params_must_be_distinct():
    with pytest.raises(ValueError):
        Let("f", (("X", S), ("X", S)), Var("X"), App("c"))


def test_free_vars_quantifier_binds():
    t = Forall("X", S, App("p", (Var("X"),)))
    assert free_vars(t) == set()


def test_free_vars_let_mixed():
    # let f(X) = g(X, Y) in f(Z): the formal is bound, Y and Z stay free.
    t = Let(
        "f",
        (("X", S),),
        App("g", (Var("X"), Var("Y"))),
        App("f", (Var("Z"),)),
    )
    assert free_vars(t) == {"Y", "Z"}


def test_free_vars_whole_fixture_formula_closed():
    problem = parse_problem(SUBSET_SORTED)
    formula = problem.formulas[-1].payload
    assert free_vars(formula) == set()


def test_free_fns_let_binds_in_scope_only():
    t = Let("f", (("X", S),), App("c"), App("f", (App("d"),)))
    assert free_fns(t) == {"c", "d"}


def test_free_fns_body_occurrence_is_free():
    # Lets are not recursive: f inside its own definition body refers to
    # an outer f.
    t = Let("f", (("X", S),), App("f", (Var("X"),)), App("f", (App("c"),)))
    assert free_fns(t) == {"f", "c"}


def test_free_fns_plain_application():
    assert free_fns(App("p", (App("a"),))) == {"p", "a"}


def test_classify_connective_argument_is_formula_context():
    t = lnot(App("s0"))
    got = classify_occurrence(t, (0,))
    assert got.context == FORMULA_CONTEXT


def test_classify_function_argument_is_term_context():
    t = App("f", (App("s0"),))
    assert classify_occurrence(t, (0,)).context == TERM_CONTEXT


def test_classify_equality_operand_is_term_context():
    t = Eq(App("s0"), App("t0"))
    assert classify_occurrence(t, (0,)).context == TERM_CONTEXT
    assert classify_occurrence(t, (1,)).context == TERM_CONTEXT


def test_classify_quantifier_body_and_root():
    t = Forall("X", S, App("p", (Var("X"),)))
    assert classify_occurrence(t, (0,)).context == FORMULA_CONTEXT
    assert classify_occurrence(t, ()).context == NO_CONTEXT


def test_classify_bound_and_free_kinds():
    t = Forall("X", S, App("p", (Var("X"), Var("Y"))))
    assert classify_occurrence(t, (0, 0)).kind == "bound"
    assert classify_occurrence(t, (0, 1)).kind == "free"
    let = Let("f", (("X", S),), App("f", (Var("X"),)), App("f", (App("c"),)))
    assert classify_occurrence(let, (1,)).kind == "bound"  # scope use of f
    assert classify_occurrence(let, (0,)).kind == "free"  # body use of f


def test_classify_invalid_path():
    with pytest.raises(ValueError):
        classify_occurrence(Var("X"), (0,))


def test_classification_total_over_positions():
    problem = parse_problem(SUBSET_SORTED)
    formula = problem.formulas[-1].payload
    for path, sub in subterm_positions(formula):
        got = classify_occurrence(formula, path)
        assert got.context in (FORMULA_CONTEXT, TERM_CONTEXT, NO_CONTEXT)
        if isinstance(sub, (Var, App)):
            # every variable and symbol occurrence is exactly one of the two
            assert got.kind in ("bound", "free")
        else:
            assert got.kind is None


def test_first_order_accepts_plain_formula():
    t = land(App("p", (App("a"),)), App("q", (App("b"),)))
    assert is_syntactically_first_order(t).ok


def test_first_order_rejects_formula_in_term_context():
    inner = lor(App("p", (App("a"),)), App("q", (App("b"),)))
    t = App("f", (inner,))
    got = is_syntactically_first_order(t)
    assert not got.ok
    assert got.witness == (0,)
    assert subterm_at(t, got.witness) == inner


def test_first_order_rejects_ite_in_listing():
    problem = parse_problem(VERIFICATION_LISTING)
    hypothesis8 = problem.formulas[7].payload
    got = is_syntactically_first_order(hypothesis8)
    assert not got.ok
    assert "ite" in got.reason
    assert isinstance(subterm_at(hypothesis8, got.witness), Ite)


def test_first_order_rejects_variable_in_formula_context():
    t = Forall("X", BOOL, lor(Var("X"), App("p0")))
    got = is_syntactically_first_order(t)
    assert not got.ok
    assert got.reason == "variable in formula context"


def test_first_order_accepts_bool_var_in_term_context():
    t = Forall("X", BOOL, Eq(App("f", (Var("X"),)), App("c")))
    assert is_syntactically_first_order(t).ok


def test_quantified_boolean_formulas_are_terms():
    # Quantifiers over bool, connectives, bool variables only.
    sig = Signature()
    ctx = TypeContext.of(sig)
    qbf = Forall("X", BOOL, Exists("Y", BOOL, lor(Var("X"), lnot(Var("Y")))))
    from foolkit import check_formula

    check_formula(ctx, qbf)  # does not raise


def test_with_children_keeps_a_node_whose_children_are_unchanged():
    t = App("f", (App("c"), Var("X")))
    assert with_children(t, t.args) is t
    rebuilt = with_children(t, (App("c"), Var("X")))
    assert rebuilt == t and rebuilt is not t
    with pytest.raises(ValueError):
        with_children(Var("X"), (App("c"),))


def test_subst_free_vars_returns_untouched_subtrees():
    """Only the path to a replaced variable is rebuilt; a subtree in which
    nothing is replaced, or where a binder shadows the variable, is the
    same object."""
    untouched = App("p", (Var("Y"),))
    shadowed = Forall("X", S, App("p", (Var("X"),)))
    t = land(land(App("p", (Var("X"),)), untouched), shadowed)
    got = subst_free_vars(t, {"X": Var("Z")})
    assert got == land(land(App("p", (Var("Z"),)), untouched), shadowed)
    assert got.args[0].args[1] is untouched
    assert got.args[1] is shadowed
    assert subst_free_vars(t, {"W": Var("Z")}) is t
