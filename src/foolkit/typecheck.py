"""Bottom-up sort synthesis for the unified term language.

All binders are sort-annotated, so checking is plain structural
recursion: every well-formed term has exactly one sort and the first
violation aborts the judgement.

The walk dispatches on the exact node type and compares sorts by
identity before equality.  It carries the occurrence path of a node as
a linked pair ``(i, parent)``, ``None`` at the root, so going down a
level builds one pair instead of copying a tuple; ``_path`` turns the
pair into the tuple ``SortError.path`` only when an error is raised.
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
    return _infer(ctx, t, None)


def _path(link: tuple | None) -> tuple[int, ...]:
    """The occurrence path that a linked ``(i, parent)`` pair spells."""
    out: list[int] = []
    while link is not None:
        i, link = link
        out.append(i)
    return tuple(reversed(out))


def _infer(ctx: TypeContext, t: Term, path: tuple | None) -> Sort:
    kind = type(t)
    if kind is App:
        sig = ctx.fn_sig(t.fn)
        if sig is None:
            raise SortError(UNBOUND_FUNCTION, f"unbound function symbol {t.fn!r}", _path(path))
        args, wants = t.args, sig.args
        if len(args) != len(wants):
            message = f"{t.fn} expects {len(wants)} arguments, got {len(args)}"
            raise SortError(ARITY_MISMATCH, message, _path(path))
        for i, arg in enumerate(args):
            got, want = _infer(ctx, arg, (i, path)), wants[i]
            if got is not want and got != want:
                raise SortError(
                    ARGUMENT_SORT_MISMATCH,
                    f"argument {i + 1} of {t.fn} has sort {got}, expected {want}",
                    _path((i, path)),
                )
        return sig.result

    if kind is Var:
        sort = ctx.var_sort(t.name)
        if sort is None:
            raise SortError(UNBOUND_VARIABLE, f"unbound variable {t.name!r}", _path(path))
        return sort

    if kind is Eq:
        left = _infer(ctx, t.left, (0, path))
        right = _infer(ctx, t.right, (1, path))
        if left is not right and left != right:
            raise SortError(EQUALITY_SORT_MISMATCH, f"equality between sorts {left} and {right}", _path(path))
        return BOOL

    if kind is Forall or kind is Exists:
        body = _infer(ctx.with_var(t.var, t.sort), t.body, (0, path))
        if body is not BOOL and body != BOOL:
            raise SortError(
                QUANTIFIER_BODY_NOT_BOOL,
                f"quantifier body has sort {body}, expected {BOOL}",
                _path((0, path)),
            )
        return BOOL

    if kind is Ite:
        cond = _infer(ctx, t.cond, (0, path))
        if cond is not BOOL and cond != BOOL:
            raise SortError(
                ITE_CONDITION_NOT_BOOL,
                f"if-then-else condition has sort {cond}, expected {BOOL}",
                _path((0, path)),
            )
        then = _infer(ctx, t.then, (1, path))
        els = _infer(ctx, t.els, (2, path))
        if then is not els and then != els:
            raise SortError(ITE_BRANCH_MISMATCH, f"if-then-else branches have sorts {then} and {els}", _path(path))
        return then

    if kind is Let:
        # The Let constructor already rejects duplicate formals; parsers
        # report DUPLICATE_LET_FORMAL before constructing the node.
        body_ctx = ctx.with_vars(t.params)
        body_sort = _infer(body_ctx, t.body, (0, path))
        fn_sig = TypeSig(tuple(s for _, s in t.params), body_sort)
        scope_ctx = ctx.with_fn(t.fn, fn_sig)
        return _infer(scope_ctx, t.scope, (1, path))

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
