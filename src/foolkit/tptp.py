"""Reader and printers for a typed first-order dialect with a first-class
boolean sort.

The dialect extends plain monomorphic typed input with:

  * ``$o`` usable like any other sort: argument positions, variable
    sorts, and equality operands;
  * unified conditional and binding forms ``$ite(c, s, t)`` and
    ``$let(f : type, f(X1, ..., Xn) := body, scope)`` (nullary form
    ``$let(c : sort, c := body, scope)``);
  * the legacy forms ``$ite_t``/``$ite_f`` and ``$let_tt``/``$let_tf``/
    ``$let_ft``/``$let_ff``, normalized to the unified nodes on parse.

Arithmetic tokens (``$int``, ``$sum``, ``$greater``, ...) are accepted as
an uninterpreted sort and uninterpreted typed symbols; there is no
arithmetic semantics.  ``include`` directives are rejected.

Strict mode turns off every extension and checks the usual restrictions
on ``$o``, so emitted standard problems can be re-checked with the same
grammar.  No name is reserved beyond the ``$`` words: every generated
symbol is chosen among the names the problem does not use, and so are
the printer's names for the boolean sort and its constants.

The lexer is one ``findall`` of one regular expression, which skips
whitespace, ``%`` line comments and ``/* ... */`` block comments.  A
token is ``(kind, text, pos)`` with ``pos`` its offset into the text;
the line and column of an offset are worked out (``_line_col``) only
when an error is raised, and a formula's line is counted forward from
the previous formula's.  ``_name`` is the one place that unquotes a name.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .terms import (
    AND,
    ARITHMETIC_PREDICATES,
    App,
    BOOL,
    BUILTIN_FNS,
    Eq,
    Exists,
    FALSE,
    FALSE_NAME,
    Forall,
    INDIVIDUAL,
    INFIX,
    INT,
    Ite,
    Let,
    NOT,
    OR,
    Record,
    Signature,
    Sort,
    TRUE,
    TRUE_NAME,
    Term,
    TypeContext,
    TypeSig,
    Var,
    children,
    contexts,
    free_vars,
    land,
    lnot,
)
from .typecheck import DUPLICATE_LET_FORMAL, SortError, check_formula, infer_sort

ARITHMETIC_FNS: dict[str, TypeSig] = {
    "$sum": TypeSig((INT, INT), INT),
    "$difference": TypeSig((INT, INT), INT),
    "$product": TypeSig((INT, INT), INT),
    "$uminus": TypeSig((INT,), INT),
    **dict.fromkeys(ARITHMETIC_PREDICATES, TypeSig((INT, INT), BOOL)),
}

ROLES = ("type", "axiom", "hypothesis", "conjecture")

class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer

# One match per token: group 1 is the whitespace and comments before it,
# group 2 the token.  Where no token starts, group 2 is empty and the rest
# of the text is consumed, so the first empty token is the end of the text
# or the character no token starts with.
_TOKEN_RE = re.compile(
    r"""((?:\s+|%[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*)
      (?:(\$[a-z][A-Za-z0-9_]*|[A-Za-z][A-Za-z0-9_]*|\d+|'(?:[^'\\]|\\.)*'
         |<=>|<~>|=>|<=|!=|:=|[()\[\],.:~&|=!?*>])
       |[\s\S]*)
    """,
    re.X,
)

# The kind of a token by its first character.  A token that starts with
# any other character is a run of the non-ASCII digits ``\d`` matches.
_KIND = {
    "$": "dollar",
    "'": "quoted",
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "lower"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "upper"),
    **dict.fromkeys("0123456789", "int"),
    **dict.fromkeys("()[],.:~&|=!?*<>", "op"),
}


class Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset into the text; see _line_col


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str) -> list[Token]:
    tokens = []
    pos = 0
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    for skip, tok in _TOKEN_RE.findall(text):
        pos += len(skip)
        if not tok:
            break
        tokens.append(new(Token, (_KIND.get(tok[0], "int"), tok, pos)))
        pos += len(tok)
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    tokens.append(Token("eof", "", pos))
    return tokens


_ESCAPE = re.compile(r"\\(.)", re.S)


def _name(tok: Token) -> str:
    """The symbol a lower, int or quoted token spells."""
    return _ESCAPE.sub(r"\1", tok.text[1:-1]) if tok.kind == "quoted" else tok.text


_LOWER_WORD = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _atom_str(name: str, bare: bool = False) -> str:
    """``name`` bare when it is a lower word or its position reads it back
    as itself (``bare``), else single-quoted."""
    if bare or _LOWER_WORD.match(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


# the sorts the reader defines itself
_READER_SORTS = frozenset({BOOL.name, INT.name, INDIVIDUAL.name})


# ---------------------------------------------------------------------------
# problem structure


class SortDecl(Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class SymbolDecl(Record):
    __slots__ = _fields = ("name", "sig")

    def __init__(self, name: str, sig: TypeSig) -> None:
        self.name, self.sig = name, sig


class AnnotatedFormula(Record):
    __slots__ = _fields = ("name", "role", "payload", "line")

    def __init__(self, name: str, role: str, payload: SortDecl | SymbolDecl | Term, line: int = 0) -> None:
        self.name, self.role, self.payload, self.line = name, role, payload, line


class Problem(Record):
    """An ordered list of annotated formulas plus the derived signature.

    For refutation the goal is the conjunction of axioms and hypotheses
    together with the negated conjecture.
    """

    __slots__ = _fields = ("formulas", "signature")

    def __init__(
        self, formulas: list[AnnotatedFormula] | None = None, signature: Signature | None = None
    ) -> None:
        self.formulas = [] if formulas is None else formulas
        self.signature = Signature() if signature is None else signature

    @property
    def ctx(self) -> TypeContext:
        return TypeContext.of(self.signature)

    def goal_formula(self) -> Term:
        parts = [
            f.payload
            for f in self.formulas
            if f.role in ("axiom", "hypothesis") and isinstance(f.payload, Term)
        ]
        conjectures = [f.payload for f in self.formulas if f.role == "conjecture"]
        if conjectures:
            parts.append(lnot(conjectures[0]))
        if len(parts) < 2:
            return parts[0] if parts else TRUE
        return land(*parts)


# ---------------------------------------------------------------------------
# parser / loader

_CONNECTIVE_OF = {op: fn for fn, op in INFIX.items()}
_LEGACY_ITE = {"$ite", "$ite_t", "$ite_f"}
_LEGACY_LET = {"$let", "$let_tt", "$let_tf", "$let_ft", "$let_ff"}


class _Parser:
    def __init__(self, text: str, strict: bool) -> None:
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.strict = strict
        self.signature = Signature()
        self.signature.add_sort(INT)
        self.signature.add_sort(INDIVIDUAL)
        for name, sig in ARITHMETIC_FNS.items():
            self.signature.fns[name] = sig
        self.numbers: set[str] = set()
        self.formula_names: set[str] = set()
        # the line of the last formula start, counted forward from there
        self.line, self.line_pos = 1, 0

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``."""
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, *_line_col(self.text, tok.pos))

    def parse_symbol(self, what: str) -> str:
        """A lower-case or quoted symbol, unquoted."""
        tok = self.next()
        if tok.kind not in ("lower", "quoted"):
            raise self.error(f"invalid {what} {tok.text!r}", tok)
        return _name(tok)

    # grammar

    def parse_problem(self) -> Problem:
        problem = Problem(signature=self.signature)
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "include":
                raise self.error("include directives are not supported", tok)
            if tok.text != "tff":
                raise self.error(f"expected a tff annotated formula, found {tok.text!r}", tok)
            problem.formulas.append(self.parse_annotated())
        self._load(problem)
        return problem

    def parse_annotated(self) -> AnnotatedFormula:
        start = self.expect("tff")
        self.line += self.text.count("\n", self.line_pos, start.pos)
        self.line_pos = start.pos
        self.expect("(")
        name = self.parse_name()
        self.expect(",")
        role_tok = self.next()
        if role_tok.text not in ROLES:
            raise self.error(f"unsupported role {role_tok.text!r}", role_tok)
        self.expect(",")
        if role_tok.text == "type":
            payload: SortDecl | SymbolDecl | Term = self.parse_type_payload()
            # Declarations take effect immediately: later formulas (and
            # later declarations) may refer to them.
            if isinstance(payload, SortDecl):
                if self.signature.sort(payload.name) is not None:
                    raise self.error(f"duplicate sort declaration {payload.name!r}", start)
                self.signature.declare_sort(payload.name)
            else:
                if self.signature.fn_sig(payload.name) is not None:
                    raise self.error(f"duplicate symbol declaration {payload.name!r}", start)
                self.signature.declare_fn(payload.name, payload.sig)
        else:
            payload = self.parse_expr()
        self.expect(")")
        self.expect(".")
        return AnnotatedFormula(name, role_tok.text, payload, line=self.line)

    def parse_name(self) -> str:
        tok = self.next()
        if tok.kind not in ("lower", "int", "quoted"):
            raise self.error(f"invalid formula name {tok.text!r}", tok)
        name = _name(tok)
        if name in self.formula_names:
            raise self.error(f"duplicate formula name {name!r}", tok)
        self.formula_names.add(name)
        return name

    def parse_type_payload(self) -> SortDecl | SymbolDecl:
        wrapped = self.accept("(")
        name = self.parse_symbol("declared name")
        self.expect(":")
        if self.accept("$tType"):
            decl: SortDecl | SymbolDecl = SortDecl(name)
        else:
            decl = SymbolDecl(name, self.parse_type())
        if wrapped:
            self.expect(")")
        return decl

    def parse_sort(self) -> Sort:
        tok = self.next()
        if tok.kind == "dollar":
            if tok.text == "$o":
                return BOOL
            got = self.signature.sort(tok.text)
            if got is None:
                raise self.error(f"unknown sort {tok.text}", tok)
            return got
        if tok.kind in ("lower", "quoted"):
            name = _name(tok)
            got = self.signature.sort(name)
            if got is None:
                raise self.error(f"unknown sort {name!r}", tok)
            return got
        raise self.error(f"expected a sort, found {tok.text!r}", tok)

    def parse_type(self) -> TypeSig:
        where = self.peek()
        wrapped = self.accept("(")
        args = [self.parse_sort()]
        while self.accept("*"):
            args.append(self.parse_sort())
        if wrapped:
            self.expect(")")
        if self.accept(">"):
            result = self.parse_sort()
            sig = TypeSig(tuple(args), result)
        else:
            if len(args) > 1:
                raise self.error("product type without a result sort", where)
            sig = TypeSig((), args[0])
        if self.strict and any(s == BOOL for s in sig.args):
            raise self.error("$o may only be a result sort in strict mode", where)
        return sig

    # formulas / terms (one unified expression grammar)

    def parse_expr(self) -> Term:
        first = self.parse_unit()
        tok = self.peek()
        if tok.text in ("&", "|"):
            op = tok.text
            items = [first]
            while self.peek().text == op:
                self.next()
                items.append(self.parse_unit())
            nxt = self.peek()
            if nxt.text in _CONNECTIVE_OF:
                raise self.error("mixing binary operators requires parentheses", nxt)
            out = items[0]
            for item in items[1:]:
                out = App(_CONNECTIVE_OF[op], (out, item))
            return out
        if tok.text in ("=>", "<=>"):
            self.next()
            right = self.parse_unit()
            nxt = self.peek()
            if nxt.text in _CONNECTIVE_OF:
                raise self.error(f"{tok.text} is not associative; use parentheses", nxt)
            return App(_CONNECTIVE_OF[tok.text], (first, right))
        if tok.text == "<~>":
            raise self.error("the <~> connective is not supported", tok)
        return first

    def parse_unit(self) -> Term:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return lnot(self.parse_unit())
        if tok.text in ("!", "?"):
            return self.parse_quantified(tok.text)
        left = self.parse_atomic()
        nxt = self.peek()
        if nxt.text == "=":
            self.next()
            return Eq(left, self.parse_atomic())
        if nxt.text == "!=":
            self.next()
            return lnot(Eq(left, self.parse_atomic()))
        return left

    def parse_quantified(self, which: str) -> Term:
        head = self.next()
        self.expect("[")
        binds: list[tuple[str, Sort]] = []
        while True:
            var_tok = self.next()
            if var_tok.kind != "upper":
                raise self.error(f"expected a variable, found {var_tok.text!r}", var_tok)
            self.expect(":")
            sort = self.parse_sort()
            if self.strict and sort == BOOL:
                raise self.error("boolean variables are not allowed in strict mode", var_tok)
            binds.append((var_tok.text, sort))
            if not self.accept(","):
                break
        self.expect("]")
        self.expect(":")
        body = self.parse_unit()
        node = Forall if which == "!" else Exists
        for var, sort in reversed(binds):
            body = node(var, sort, body)
        return body

    def parse_atomic(self) -> Term:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "dollar":
            return self.parse_dollar()
        if tok.kind == "upper":
            self.next()
            return Var(tok.text)
        if tok.kind == "int":
            self.next()
            self.numbers.add(tok.text)
            return App(tok.text, ())
        if tok.kind in ("lower", "quoted"):
            self.next()
            return App(_name(tok), self.parse_optional_args())
        raise self.error(f"unexpected token {tok.text!r}", tok)

    def parse_optional_args(self) -> tuple[Term, ...]:
        if not self.accept("("):
            return ()
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        return tuple(args)

    def parse_dollar(self) -> Term:
        tok = self.next()
        word = tok.text
        if word == "$true":
            return TRUE
        if word == "$false":
            return FALSE
        if word in _LEGACY_ITE:
            if self.strict:
                raise self.error(f"{word} is not allowed in strict mode", tok)
            self.expect("(")
            cond = self.parse_expr()
            self.expect(",")
            then = self.parse_expr()
            self.expect(",")
            els = self.parse_expr()
            self.expect(")")
            return Ite(cond, then, els)
        if word in _LEGACY_LET:
            if self.strict:
                raise self.error(f"{word} is not allowed in strict mode", tok)
            return self.parse_let(word, tok)
        if word in ARITHMETIC_FNS:
            return App(word, self.parse_optional_args())
        raise self.error(f"unsupported builtin {word}", tok)

    def parse_let(self, word: str, where: Token) -> Term:
        self.expect("(")
        fn_tok = self.peek()
        fn = self.parse_symbol("let-bound symbol")
        if fn in BUILTIN_FNS:
            raise self.error(f"cannot let-bind the reserved symbol {fn!r}", fn_tok)
        if word == "$let":
            self.expect(":")
            sig = self.parse_type()
            self.expect(",")
            head_tok = self.next()
            head = _name(head_tok)
            if head != fn:
                raise self.error(
                    f"let head {head!r} does not match the declared symbol {fn!r}", head_tok
                )
            formals: list[str] = []
            if self.accept("("):
                while True:
                    var_tok = self.next()
                    if var_tok.kind != "upper":
                        raise self.error(
                            f"let formals must be variables, found {var_tok.text!r}", var_tok
                        )
                    formals.append(var_tok.text)
                    if not self.accept(","):
                        break
                self.expect(")")
            if len(formals) != len(set(formals)):
                raise self.error(
                    f"{DUPLICATE_LET_FORMAL}: let formals must be pairwise distinct", head_tok
                )
            if len(formals) != sig.arity:
                raise self.error(
                    f"let head has {len(formals)} formals but the type declares "
                    f"{sig.arity} arguments",
                    head_tok,
                )
            params = tuple(zip(formals, sig.args))
            self.expect(":=")
        else:
            # Legacy form: no type annotation, so only constant bindings
            # (the bound symbol's sort is inferred from the body).
            if self.peek().text == "(":
                raise self.error(
                    f"{word} with parameters is not supported; use $let with a type annotation",
                    where,
                )
            params = ()
            self.expect(",")
        body = self.parse_expr()
        self.expect(",")
        scope = self.parse_expr()
        self.expect(")")
        return Let(fn, params, body, scope)

    # ------------------------------------------------------------------
    # loading: declarations, inference for undeclared constants, checking

    def _load(self, problem: Problem) -> None:
        sig = problem.signature
        conjectures = 0
        for af in problem.formulas:
            if isinstance(af.payload, Term) and af.role == "conjecture":
                conjectures += 1
                if conjectures > 1:
                    raise ParseError("at most one conjecture is allowed", af.line)
        _declare_numbers(sig, self.numbers)

        # ctx binds no variables, so an open formula fails the check; its
        # free variables are looked up only to name them.  Constants are
        # inferred once, at the first failure, which is then checked again;
        # inference only adds declarations, so earlier formulas stay checked.
        ctx, inferred = TypeContext.of(sig), False
        for af in problem.formulas:
            if not isinstance(af.payload, Term):
                continue
            try:
                try:
                    check_formula(ctx, af.payload)
                except SortError:
                    if inferred:
                        raise
                    inferred = True
                    self._infer_undeclared_constants(problem)
                    ctx = TypeContext.of(sig)
                    check_formula(ctx, af.payload)
            except SortError as err:
                free = free_vars(af.payload)
                if free:
                    raise ParseError(
                        f"formula {af.name!r} has unquantified variables {sorted(free)}",
                        af.line,
                    ) from err
                raise ParseError(
                    f"in formula {af.name!r}: {err.kind}: {err}", af.line
                ) from err
            if self.strict:
                self._strict_check(af)

    def _infer_undeclared_constants(self, problem: Problem) -> None:
        """Give undeclared nullary symbols the sort forced by their use.

        Handles the common idiom of equating a fresh constant with a term
        of known sort; anything still undeclared surfaces as an unbound
        symbol during checking.
        """
        sig = problem.signature

        def try_sort(ctx: TypeContext, t: Term) -> Sort | None:
            try:
                return infer_sort(ctx, t)
            except SortError:
                return None

        def is_orphan(ctx: TypeContext, t: Term) -> bool:
            return isinstance(t, App) and not t.args and ctx.fn_sig(t.fn) is None

        def walk(ctx: TypeContext, t: Term) -> bool:
            changed = False
            if isinstance(t, Eq):
                # an orphan has no sort, so only the other side is inferred
                for orphan, other in ((t.right, t.left), (t.left, t.right)):
                    if is_orphan(ctx, orphan):
                        known = try_sort(ctx, other)
                        if known is not None:
                            sig.declare_fn(orphan.fn, TypeSig((), known))
                            changed = True
                        break
            if isinstance(t, App):
                fsig = ctx.fn_sig(t.fn)
                if fsig is not None and len(t.args) == fsig.arity:
                    for arg, want in zip(t.args, fsig.args):
                        if is_orphan(ctx, arg):
                            sig.declare_fn(arg.fn, TypeSig((), want))
                            changed = True
            if isinstance(t, (Forall, Exists)):
                return changed | walk(ctx.with_var(t.var, t.sort), t.body)
            if isinstance(t, Let):
                changed |= walk(ctx.with_vars(t.params), t.body)
                body_sort = try_sort(ctx.with_vars(t.params), t.body)
                if body_sort is not None:
                    scope_ctx = ctx.with_fn(
                        t.fn, TypeSig(tuple(s for _, s in t.params), body_sort)
                    )
                    changed |= walk(scope_ctx, t.scope)
                return changed
            for kid in children(t):
                changed |= walk(ctx, kid)
            return changed

        progress = True
        while progress:
            progress = False
            ctx = TypeContext.of(sig)
            for af in problem.formulas:
                if isinstance(af.payload, Term):
                    progress |= walk(ctx, af.payload)

    def _strict_check(self, af: AnnotatedFormula) -> None:
        # Strict input binds no boolean variable and has no let or ite, so
        # an equation side is boolean exactly when it is an equation, a
        # quantifier, or an application whose result sort is $o; the two
        # sides of a checked equation have one sort, so the left decides.
        for t, _ in contexts(af.payload):  # type: ignore[arg-type]
            if isinstance(t, Eq) and (
                isinstance(t.left, (Eq, Forall, Exists))
                or (isinstance(t.left, App) and self.signature.fns[t.left.fn].result == BOOL)
            ):
                raise ParseError(
                    f"in formula {af.name!r}: boolean equality is not allowed "
                    "in strict mode",
                    af.line,
                )


def _declare_numbers(sig: Signature, numbers: set[str]) -> None:
    """Give each numeral that is not declared otherwise the sort $int, in
    sorted order."""
    for number in sorted(numbers):
        if sig.fn_sig(number) is None:
            sig.fns[number] = TypeSig((), INT)


def parse_problem(text: str, strict: bool = False) -> Problem:
    """Parse and load a whole problem; errors carry source locations."""
    return _Parser(text, strict).parse_problem()


def parse_formula(text: str, ctx: TypeContext) -> Term:
    """Parse one standalone dialect formula against an existing context.

    Convenience for tests and fixtures; the formula is checked to be a
    well-sorted term but may contain free variables.
    """
    parser = _Parser(text, strict=False)
    parser.signature = ctx.sig
    term = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"trailing input {tok.text!r}", tok)
    _declare_numbers(ctx.sig, parser.numbers)
    infer_sort(ctx, term)
    return term


# ---------------------------------------------------------------------------
# printing: dialect


class _BoolNames(NamedTuple):
    """How strict output spells the boolean sort and its two constants."""

    sort: str
    true: str
    false: str


def _sort_str(sort: Sort, strict: _BoolNames | None) -> str:
    if sort.is_bool:
        return strict.sort if strict else "$o"
    return _atom_str(sort.name, sort.name in _READER_SORTS)


def _typesig_str(sig: TypeSig, strict: _BoolNames | None, predicate: bool = False) -> str:
    result = "$o" if (strict and predicate) else _sort_str(sig.result, strict)
    if not sig.args:
        return result
    args = [_sort_str(s, strict) for s in sig.args]
    if len(args) == 1:
        return f"{args[0]} > {result}"
    return "(" + " * ".join(args) + f") > {result}"


def _is_equality_shaped(t: Term) -> bool:
    kind = type(t)
    return kind is Eq or (
        kind is App and t.fn == NOT and len(t.args) == 1 and type(t.args[0]) is Eq
    )


def _needs_operand_parens(t: Term) -> bool:
    kind = type(t)
    return kind is Eq or kind is Forall or kind is Exists or (kind is App and t.fn == NOT)


def _render(t: Term, ctx: TypeContext | None, strict: _BoolNames | None, in_formula: bool) -> str:
    """One renderer for both modes; ``strict`` is None in dialect mode.
    Dialect mode needs a context to re-derive let signatures; strict mode
    renders the truth constants by position and refuses $ite/$let.  One
    dispatch per node on the exact node type, applications first."""
    kind = type(t)
    if kind is App:
        fn = t.fn
        if fn == TRUE_NAME:
            return "$true" if (in_formula or not strict) else strict.true
        if fn == FALSE_NAME:
            return "$false" if (in_formula or not strict) else strict.false
        if fn == NOT:
            arg = t.args[0]
            arg_kind = type(arg)
            if arg_kind is Eq:
                return _render_equation(arg, "!=", ctx, strict)
            inner = _render(arg, ctx, strict, True)
            if arg_kind is Forall or arg_kind is Exists or _is_equality_shaped(arg):
                return f"~({inner})"
            return f"~{inner}"
        if fn in INFIX:
            items = _flatten_chain(fn, t) if fn in (AND, OR) else t.args
            return "(" + f" {INFIX[fn]} ".join([_render(x, ctx, strict, True) for x in items]) + ")"
        # a term reads a decimal numeral and an arithmetic symbol bare too,
        # but not a let-bound numeral in its scope (it would read as a
        # global $int); most names are lower words, so that test comes first
        if _LOWER_WORD.match(fn):
            name = fn
        else:
            numeral = fn.isdecimal() and (ctx is None or fn not in ctx.fn_binds)
            name = _atom_str(fn, numeral or fn in ARITHMETIC_FNS)
        if not t.args:
            return name
        return f"{name}(" + ", ".join([_render(a, ctx, strict, False) for a in t.args]) + ")"

    if kind is Var:
        return t.name

    if kind is Eq:
        return _render_equation(t, "=", ctx, strict)

    if kind is Forall or kind is Exists:
        symbol = "!" if kind is Forall else "?"
        binds = []
        body: Term = t
        local = ctx
        while type(body) is kind:
            binds.append(f"{body.var} : {_sort_str(body.sort, strict)}")
            if local is not None:
                local = local.with_var(body.var, body.sort)
            body = body.body
        return f"{symbol}[" + ", ".join(binds) + "] : " + _render(body, local, strict, True)

    if kind is Ite:
        if strict:
            raise ValueError("$ite cannot appear in strict output")
        cond = _render(t.cond, ctx, strict, True)
        then = _render(t.then, ctx, strict, False)
        els = _render(t.els, ctx, strict, False)
        return f"$ite({cond}, {then}, {els})"

    if kind is Let:
        if strict:
            raise ValueError("$let cannot appear in strict output")
        body_ctx = ctx.with_vars(t.params)
        sig = TypeSig(tuple(s for _, s in t.params), infer_sort(body_ctx, t.body))
        name = _atom_str(t.fn)
        head = name
        if t.params:
            head = name + "(" + ", ".join(x for x, _ in t.params) + ")"
        body = _render(t.body, body_ctx, strict, False)
        scope = _render(t.scope, ctx.with_fn(t.fn, sig), strict, False)
        return f"$let({name} : {_typesig_str(sig, strict)}, {head} := {body}, {scope})"

    raise TypeError(f"not a term: {t!r}")


def _render_equation(eq: Eq, op: str, ctx: TypeContext | None, strict: _BoolNames | None) -> str:
    """``=`` or ``!=`` between the two sides, each parenthesized where
    the reader would otherwise take it apart."""
    sides = []
    for side in (eq.left, eq.right):
        text = _render(side, ctx, strict, False)
        sides.append(f"({text})" if _needs_operand_parens(side) else text)
    return f"{sides[0]} {op} {sides[1]}"


def _flatten_chain(fn: str, t: Term) -> list[Term]:
    """The operands of the left-deep ``fn`` chain ``t``, left to right."""
    right = []
    while type(t) is App and t.fn == fn:
        right.append(t.args[1])
        t = t.args[0]
    return [t, *reversed(right)]


_NAME_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _tff_name(prefix: str, name: str) -> str:
    safe = _NAME_SAFE.sub("_", name)
    return f"{prefix}_{safe}"


def _unused(base: str, used: set[str]) -> str:
    """``base``, or the first of ``base_1``, ``base_2``, ... not in
    ``used``; added to ``used``."""
    name, k = base, 0
    while name in used:
        k += 1
        name = f"{base}_{k}"
    used.add(name)
    return name


def print_dialect(problem: Problem) -> str:
    """Render a problem in the dialect.

    Round-trip contract: parsing the output yields the same annotated
    formulas, declarations and terms (variable and symbol names must be
    lexically valid, which holds for everything the parser produced).
    """
    lines = []
    ctx = problem.ctx
    for af in problem.formulas:
        if isinstance(af.payload, SortDecl):
            body = f"{_atom_str(af.payload.name)} : $tType"
        elif isinstance(af.payload, SymbolDecl):
            body = f"{_atom_str(af.payload.name)} : {_typesig_str(af.payload.sig, strict=None)}"
        else:
            body = _render(af.payload, ctx, strict=None, in_formula=True)
        lines.append(f"tff({_atom_str(af.name, af.name.isdecimal())}, {af.role}, {body}).")
    return "\n".join(lines) + ("\n" if lines else "")


def print_fol_tff0(fol) -> str:
    """Print a lowered problem as standard monomorphic typed first-order
    text: no $o argument positions, no boolean variables, the boolean
    sort rendered as the user sort 'fool_bool' with constants 'fool_true'
    and 'fool_false', and the two boolean axioms appended.  A name the
    problem already uses as a sort or symbol is not taken for the boolean
    sort or a constant, and an annotated formula whose name is taken
    gets the first free suffix (see ``_unused``).

    The output re-parses under the strict grammar; declarations come
    first in original order, then definitions, the goal, and the two
    boolean axioms.
    """
    ctx = fol.ctx
    used = {*ctx.sig.sorts, *ctx.sig.fns, *ctx.fn_binds}
    bool_sort, true, false = (_unused(base, used) for base in ("fool_bool", "fool_true", "fool_false"))
    strict = _BoolNames(f"'{bool_sort}'", f"'{true}'", f"'{false}'")
    labels: set[str] = set()
    lines = []

    def emit(label: str, role: str, body: str) -> None:
        lines.append(f"tff({_unused(label, labels)}, {role}, {body}).")

    for name in ctx.sig.sorts:
        if name not in _READER_SORTS:
            emit(_tff_name("sort", name), "type", f"{_atom_str(name)} : $tType")
    emit(_tff_name("sort", bool_sort), "type", f"{strict.sort} : $tType")
    emit(_tff_name("decl", true), "type", f"{strict.true} : {strict.sort}")
    emit(_tff_name("decl", false), "type", f"{strict.false} : {strict.sort}")

    def declare(name: str, sig: TypeSig) -> None:
        # the reader declares the builtins, the arithmetic symbols and a
        # numeral of sort $int alike itself
        numeral = name.isdecimal() and sig == TypeSig((), INT)
        if numeral or name in BUILTIN_FNS or ARITHMETIC_FNS.get(name) == sig:
            return
        predicate = sig.result == BOOL and fol.predicate_split.get(name, "predicate") == "predicate"
        emit(_tff_name("decl", name), "type", f"{_atom_str(name)} : {_typesig_str(sig, strict, predicate)}")

    for name, sig in ctx.sig.fns.items():
        declare(name, sig)
    for name, sig in ctx.fn_binds.items():
        if ctx.sig.fn_sig(name) is None:
            declare(name, sig)

    for i, definition in enumerate(fol.definitions):
        emit(f"def_{i}", "axiom", _render(definition, None, strict, True))
    emit("goal", "hypothesis", _render(fol.goal, None, strict, True))
    emit("fool_bool_dom", "axiom", _render(fol.domain_axiom, None, strict, True))
    emit("fool_bool_distinct", "axiom", _render(fol.distinct_axiom, None, strict, True))
    return "\n".join(lines) + "\n"
