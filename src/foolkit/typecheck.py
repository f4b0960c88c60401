"""Bottom-up sort synthesis for the unified term language.

All binders are sort-annotated, so checking is plain structural
recursion: every well-formed term has exactly one sort and the first
violation aborts the judgement.
"""

from __future__ import annotations

from .terms import (
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
)

UNBOUND_VARIABLE = "unbound-variable"
UNBOUND_FUNCTION = "unbound-function"
ARITY_MISMATCH = "arity-mismatch"
ARGUMENT_SORT_MISMATCH = "argument-sort-mismatch"
ITE_BRANCH_MISMATCH = "ite-branch-mismatch"
ITE_CONDITION_NOT_BOOL = "ite-condition-not-bool"
EQUALITY_SORT_MISMATCH = "equality-sort-mismatch"
DUPLICATE_LET_FORMAL = "duplicate-let-formal"
QUANTIFIER_BODY_NOT_BOOL = "quantifier-body-not-bool"
NOT_A_FORMULA = "not-a-formula"


class SortError(Exception):
    """A term that has no sort under the context.

    Carries the violation kind and the occurrence path of the offending
    subterm; the message names the sorts involved.
    """

    def __init__(self, kind: str, message: str, path: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.kind = kind
        self.path = path


def infer_sort(ctx: TypeContext, t: Term) -> Sort:
    """The unique sort of t under ctx, or a SortError."""
    return _infer(ctx, t, ())


def _infer(ctx: TypeContext, t: Term, path: tuple[int, ...]) -> Sort:
    if isinstance(t, Var):
        sort = ctx.var_sort(t.name)
        if sort is None:
            raise SortError(UNBOUND_VARIABLE, f"unbound variable {t.name!r}", path)
        return sort

    if isinstance(t, App):
        sig = ctx.fn_sig(t.fn)
        if sig is None:
            raise SortError(UNBOUND_FUNCTION, f"unbound function symbol {t.fn!r}", path)
        if len(t.args) != sig.arity:
            raise SortError(ARITY_MISMATCH, f"{t.fn} expects {sig.arity} arguments, got {len(t.args)}", path)
        for i, (arg, want) in enumerate(zip(t.args, sig.args)):
            got = _infer(ctx, arg, path + (i,))
            if got != want:
                raise SortError(
                    ARGUMENT_SORT_MISMATCH,
                    f"argument {i + 1} of {t.fn} has sort {got}, expected {want}",
                    path + (i,),
                )
        return sig.result

    if isinstance(t, Ite):
        cond = _infer(ctx, t.cond, path + (0,))
        if cond != BOOL:
            raise SortError(
                ITE_CONDITION_NOT_BOOL,
                f"if-then-else condition has sort {cond}, expected {BOOL}",
                path + (0,),
            )
        then = _infer(ctx, t.then, path + (1,))
        els = _infer(ctx, t.els, path + (2,))
        if then != els:
            raise SortError(ITE_BRANCH_MISMATCH, f"if-then-else branches have sorts {then} and {els}", path)
        return then

    if isinstance(t, Let):
        # The Let constructor already rejects duplicate formals; parsers
        # report DUPLICATE_LET_FORMAL before constructing the node.
        body_ctx = ctx.with_vars(t.params)
        body_sort = _infer(body_ctx, t.body, path + (0,))
        fn_sig = TypeSig(tuple(s for _, s in t.params), body_sort)
        scope_ctx = ctx.with_fn(t.fn, fn_sig)
        return _infer(scope_ctx, t.scope, path + (1,))

    if isinstance(t, Eq):
        left = _infer(ctx, t.left, path + (0,))
        right = _infer(ctx, t.right, path + (1,))
        if left != right:
            raise SortError(EQUALITY_SORT_MISMATCH, f"equality between sorts {left} and {right}", path)
        return BOOL

    if isinstance(t, (Forall, Exists)):
        body = _infer(ctx.with_var(t.var, t.sort), t.body, path + (0,))
        if body != BOOL:
            raise SortError(
                QUANTIFIER_BODY_NOT_BOOL,
                f"quantifier body has sort {body}, expected {BOOL}",
                path + (0,),
            )
        return BOOL

    raise TypeError(f"not a term: {t!r}")


def check_formula(ctx: TypeContext, t: Term) -> None:
    """Accept exactly the terms of the boolean sort; raise otherwise."""
    sort = infer_sort(ctx, t)
    if sort != BOOL:
        raise SortError(NOT_A_FORMULA, f"term has sort {sort}, not a formula")


def is_predicate_symbol(sig: Signature | TypeContext, fn: str) -> bool:
    """True iff fn is declared with boolean result sort."""
    tsig = sig.fn_sig(fn)
    if tsig is None:
        raise SortError(UNBOUND_FUNCTION, f"unbound function symbol {fn!r}")
    return tsig.result == BOOL
