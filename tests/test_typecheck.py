"""Sort synthesis: the checker rules, error kinds, and the weakening
properties over generated terms."""

import random

import pytest

from foolkit import (
    App,
    BOOL,
    Eq,
    Forall,
    Ite,
    Let,
    Signature,
    SortError,
    TypeContext,
    TypeSig,
    Var,
    check_formula,
    infer_sort,
    is_predicate_symbol,
    parse_problem,
)
from generate import TermGen
from foolkit.terms import INT, free_fns, free_vars
from foolkit.typecheck import (
    ARGUMENT_SORT_MISMATCH,
    ARITY_MISMATCH,
    EQUALITY_SORT_MISMATCH,
    ITE_BRANCH_MISMATCH,
    ITE_CONDITION_NOT_BOOL,
    NOT_A_FORMULA,
    QUANTIFIER_BODY_NOT_BOOL,
    UNBOUND_FUNCTION,
    UNBOUND_VARIABLE,
)

from fixtures import CONTAINS_ITE, SUBSET_SORTED, VERIFICATION_LISTING


@pytest.fixture
def ctx():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.add_sort(INT)
    sig.declare_fn("p", TypeSig((INT,), BOOL))
    sig.declare_fn("a", TypeSig((), INT))
    sig.declare_fn("c", TypeSig((), s))
    sig.declare_fn("f", TypeSig((s,), s))
    return TypeContext.of(sig)


def test_predicate_application_is_bool(ctx):
    assert infer_sort(ctx, App("p", (App("a"),))) == BOOL


def test_ite_takes_the_branch_sort(ctx):
    s = ctx.sig.sort("s")
    t = Ite(App("p", (App("a"),)), App("c"), App("f", (App("c"),)))
    assert infer_sort(ctx, t) == s


def test_ite_branch_mismatch(ctx):
    t = Ite(App("p", (App("a"),)), App("c"), App("a"))
    with pytest.raises(SortError) as err:
        infer_sort(ctx, t)
    assert err.value.kind == ITE_BRANCH_MISMATCH


def test_ite_condition_must_be_bool(ctx):
    t = Ite(App("a"), App("c"), App("c"))
    with pytest.raises(SortError) as err:
        infer_sort(ctx, t)
    assert err.value.kind == ITE_CONDITION_NOT_BOOL
    assert err.value.path == (0,)


def test_unbound_variable_and_function(ctx):
    with pytest.raises(SortError) as err:
        infer_sort(ctx, Var("X"))
    assert err.value.kind == UNBOUND_VARIABLE
    with pytest.raises(SortError) as err:
        infer_sort(ctx, App("nope"))
    assert err.value.kind == UNBOUND_FUNCTION


def test_arity_and_argument_mismatch(ctx):
    with pytest.raises(SortError) as err:
        infer_sort(ctx, App("p", ()))
    assert err.value.kind == ARITY_MISMATCH
    with pytest.raises(SortError) as err:
        infer_sort(ctx, App("p", (App("c"),)))
    assert err.value.kind == ARGUMENT_SORT_MISMATCH
    assert err.value.path == (0,)


def test_equality_needs_shared_sort(ctx):
    with pytest.raises(SortError) as err:
        infer_sort(ctx, Eq(App("a"), App("c")))
    assert err.value.kind == EQUALITY_SORT_MISMATCH


def test_quantifier_body_must_be_bool(ctx):
    with pytest.raises(SortError) as err:
        infer_sort(ctx, Forall("X", INT, Var("X")))
    assert err.value.kind == QUANTIFIER_BODY_NOT_BOOL


def test_let_types_body_then_scope(ctx):
    s = ctx.sig.sort("s")
    # let g(X : s) = f(X) in g(c) : s
    t = Let("g", (("X", s),), App("f", (Var("X"),)), App("g", (App("c"),)))
    assert infer_sort(ctx, t) == s
    # the binding shadows for the scope only: body sees the outer c
    shadowing = Let("c", (), App("f", (App("c"),)), App("c"))
    assert infer_sort(ctx, shadowing) == s


def test_check_formula(ctx):
    check_formula(ctx, App("p", (App("a"),)))
    with pytest.raises(SortError) as err:
        check_formula(ctx, App("a"))
    assert err.value.kind == NOT_A_FORMULA


def test_fixture_formulas_are_formulas():
    for text in (CONTAINS_ITE, SUBSET_SORTED, VERIFICATION_LISTING):
        problem = parse_problem(text)
        check_formula(problem.ctx, problem.goal_formula())


def test_is_predicate_symbol():
    problem = parse_problem(CONTAINS_ITE)
    assert is_predicate_symbol(problem.signature, "contains")
    listing = parse_problem(VERIFICATION_LISTING)
    assert not is_predicate_symbol(listing.signature, "q")
    assert is_predicate_symbol(listing.signature, "$true")
    with pytest.raises(SortError):
        is_predicate_symbol(listing.signature, "missing")


def test_sort_inference_unique_and_deterministic():
    gen = TermGen(random.Random(7))
    ctx = gen.context()
    for _ in range(200):
        t = gen.formula()
        assert infer_sort(ctx, t) == BOOL
        assert infer_sort(ctx, t) == infer_sort(ctx, t)


def test_weakening_variables_and_symbols():
    gen = TermGen(random.Random(11))
    ctx = gen.context()
    alpha = gen.sig.sort("alpha")
    for _ in range(200):
        t = gen.formula()
        base = infer_sort(ctx, t)
        extended = ctx.with_var("unused_fresh_w", alpha)
        assert infer_sort(extended, t) == base
        extended2 = ctx.with_fn("unused_fresh_fn", TypeSig((alpha,), BOOL))
        assert infer_sort(extended2, t) == base


def test_definedness_on_free_names():
    gen = TermGen(random.Random(13))
    ctx = gen.context()
    for _ in range(100):
        t = gen.formula()
        infer_sort(ctx, t)
        for var in free_vars(t):
            assert ctx.var_sort(var) is not None
        for fn in free_fns(t):
            assert ctx.fn_sig(fn) is not None


# Each fault with the kind, the path below the fault and the message of
# its error; each surrounding with the path of its hole.
_FAULTS = [
    (Var("Y"), UNBOUND_VARIABLE, (), "unbound variable 'Y'"),
    (App("nope"), UNBOUND_FUNCTION, (), "unbound function symbol 'nope'"),
    (App("f"), ARITY_MISMATCH, (), "f expects 1 arguments, got 0"),
    (
        App("f", (App("a"),)),
        ARGUMENT_SORT_MISMATCH,
        (0,),
        "argument 1 of f has sort $int, expected s",
    ),
    (
        Ite(App("p", (App("a"),)), App("c"), App("a")),
        ITE_BRANCH_MISMATCH,
        (),
        "if-then-else branches have sorts s and $int",
    ),
    (
        Ite(App("a"), App("c"), App("c")),
        ITE_CONDITION_NOT_BOOL,
        (0,),
        "if-then-else condition has sort $int, expected $o",
    ),
    (Eq(App("a"), App("c")), EQUALITY_SORT_MISMATCH, (), "equality between sorts $int and s"),
    (
        Forall("X", INT, Var("X")),
        QUANTIFIER_BODY_NOT_BOOL,
        (0,),
        "quantifier body has sort $int, expected $o",
    ),
]


def _surroundings(s):
    c, pa = App("c"), App("p", (App("a"),))
    return [
        # under the second argument of q and of g
        (lambda hole: App("q", (c, App("f", (App("g", (c, hole)),)))), (1, 0, 1)),
        # under both sides of an equation
        (lambda hole: Eq(App("g", (c, App("f", (hole,)))), c), (0, 1, 0)),
        (lambda hole: Eq(c, App("f", (App("g", (hole, c)),))), (1, 0, 0)),
        # under both branches of an if-then-else
        (lambda hole: App("q", (c, Ite(pa, App("f", (hole,)), c))), (1, 1, 0)),
        (lambda hole: App("q", (c, Ite(pa, c, App("f", (hole,))))), (1, 2, 0)),
        # under a quantifier body
        (lambda hole: Forall("X", s, Forall("Z", s, App("q", (Var("X"), hole)))), (0, 0, 1)),
        # under the definition body and the scope of a let
        (
            lambda hole: Let(
                "h", (("X", s),), App("f", (App("g", (Var("X"), hole)),)), App("q", (App("h", (c,)), c))
            ),
            (0, 0, 1),
        ),
        (lambda hole: Let("k", (), c, App("q", (App("k"), App("f", (hole,))))), (1, 1, 0)),
    ]


def test_nested_errors_carry_their_paths(ctx):
    """Every error kind reports the path of its subterm at depth three
    and more, under each kind of node."""
    s = ctx.sig.sort("s")
    ctx = ctx.with_fn("g", TypeSig((s, s), s)).with_fn("q", TypeSig((s, s), BOOL))
    for surround, hole in _surroundings(s):
        for fault, kind, below, message in _FAULTS:
            with pytest.raises(SortError) as err:
                infer_sort(ctx, surround(fault))
            assert (err.value.kind, err.value.path, str(err.value)) == (kind, hole + below, message)
