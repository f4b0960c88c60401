"""Dialect parsing, both printers, and the strict-mode checks."""

import dataclasses
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foolkit import (
    BOOL,
    Eq,
    Ite,
    Let,
    ParseError,
    Signature,
    TypeContext,
    TypeSig,
    parse_formula,
    parse_problem,
    print_dialect,
    print_fol_tff0,
    run_translation,
    to_fol,
)
from foolkit.terms import BUILTIN_FNS, INT, TRUE, App, land
from foolkit.tptp import (
    ARITHMETIC_FNS,
    AnnotatedFormula,
    Problem,
    SortDecl,
    SymbolDecl,
    Token,
    _lex,
    _line_col,
)
from foolkit.translate import TranslationState

from fixtures import CONTAINS_ITE, SUBSET_SORTED, VERIFICATION_LISTING
from helpers import mutate_text, named_texts

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_empty_input():
    problem = parse_problem("")
    assert problem.formulas == []
    assert problem.goal_formula() == TRUE
    assert print_dialect(problem) == ""


def test_comments_and_whitespace():
    problem = parse_problem("% a comment\n  tff(a1, axiom, $true). % trailing\n")
    assert len(problem.formulas) == 1


@pytest.mark.parametrize("strict", [False, True])
def test_block_comments(strict):
    """``/* ... */`` comments may span lines and hold ``*``, ``/`` and
    ``%``; an unterminated one is an error at its ``/``."""
    text = (
        "/* a block\n comment */\n"
        "tff(a, axiom, $true). /* one ** with / and % inside\n"
        "*/ /**/ /***/\n"
        "tff(b, axiom, /* inline */ $false).\n"
    )
    problem = parse_problem(text, strict=strict)
    assert [(f.name, f.line) for f in problem.formulas] == [("a", 3), ("b", 5)]
    with pytest.raises(ParseError, match=r"^6:9: unexpected character '/'$"):
        parse_problem(text + "/* x */ /* unterminated\n", strict=strict)


def test_verification_listing_parses_and_normalizes():
    problem = parse_problem(VERIFICATION_LISTING)
    assert len(problem.formulas) == 9
    roles = [f.role for f in problem.formulas]
    assert roles == ["type"] * 4 + ["hypothesis"] * 4 + ["conjecture"]
    hypothesis8 = problem.formulas[7].payload
    assert isinstance(hypothesis8, Eq)
    ite = hypothesis8.right
    assert isinstance(ite, Ite)
    assert isinstance(ite.then, Let) and isinstance(ite.els, Let)
    assert ite.then.params == ()  # constant binding
    # a1 was not declared: its sort is inferred from the equation
    assert problem.signature.fn_sig("a1") == TypeSig((), INT)


def test_bool_argument_position_dialect_vs_strict():
    text = "tff(t, type, b : $o > $int).\n"
    problem = parse_problem(text)
    assert problem.signature.fn_sig("b") == TypeSig((BOOL,), INT)
    with pytest.raises(ParseError):
        parse_problem(text, strict=True)


def test_bool_variables_strict():
    text = "tff(f, axiom, ![X : $o] : (X | ~X)).\n"
    parse_problem(text)
    with pytest.raises(ParseError):
        parse_problem(text, strict=True)


_STRICT_DECLS = (
    "tff(s_s, type, s : $tType).\n"
    "tff(d_p, type, p : s > $o).\n"
    "tff(d_q, type, q : $o).\n"
    "tff(d_f, type, f : s > s).\n"
)


@pytest.mark.parametrize(
    "body",
    ["q = q", "![X : s] : (p(X) = q)", "~(q = q)", "![X : s] : ~(p(X) = q)"],
)
def test_boolean_equality_rejected_in_strict_mode(body):
    text = _STRICT_DECLS + f"tff(a, axiom, {body}).\n"
    parse_problem(text)
    with pytest.raises(ParseError) as err:
        parse_problem(text, strict=True)
    assert "boolean equality is not allowed in strict mode" in str(err.value)
    assert "'a'" in str(err.value)


def test_non_boolean_equality_under_a_quantifier_accepted_in_strict_mode():
    problem = parse_problem(_STRICT_DECLS + "tff(a, axiom, ![X : s] : (f(X) = X)).\n", strict=True)
    assert len(problem.formulas) == 5


def test_unified_ite_and_let_forms():
    text = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_f, type, f : s > s).
tff(d_p, type, p : s > $o).
tff(a1, axiom, p($ite(p(c), f(c), c))).
tff(a2, axiom, p($let(g : s > s, g(X) := f(X), g(c)))).
tff(a3, axiom, p($let(k : s, k := f(c), k))).
"""
    problem = parse_problem(text)
    ite = problem.formulas[4].payload.args[0]
    assert isinstance(ite, Ite)
    let = problem.formulas[5].payload.args[0]
    assert isinstance(let, Let)
    assert let.params == (("X", problem.signature.sort("s")),)


def test_legacy_let_with_parameters_rejected():
    text = """\
tff(s_s, type, s : $tType).
tff(d_f, type, f : s > s).
tff(d_c, type, c : s).
tff(a, axiom, $let_tt(g(X), f(X), g(c)) = c).
"""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "type annotation" in str(err.value)


def test_let_arity_mismatch_and_duplicate_formals():
    base = "tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\n"
    with pytest.raises(ParseError):
        parse_problem(base + "tff(a, axiom, $let(g : s > s, g := c, c) = c).\n")
    with pytest.raises(ParseError) as err:
        parse_problem(
            base + "tff(a, axiom, $let(g : (s * s) > s, g(X, X) := c, g(c, c)) = c).\n"
        )
    assert "duplicate-let-formal" in str(err.value)


@pytest.mark.parametrize(
    "decl",
    ["sk_fool_0 : $int", "fool_bool : $tType", "fool_true : s", "fool_false : s", "'fool_true' : $o"],
)
def test_generated_and_emitted_names_declared_in_both_modes(decl):
    """Generated symbols and the emitted boolean names are chosen among the
    names a problem does not use, so input may declare any of them."""
    text = f"tff(s_s, type, s : $tType).\ntff(t, type, {decl}).\n"
    for strict in (False, True):
        problem = parse_problem(text, strict=strict)
        assert problem.formulas[-1].payload.name == decl.split(" :")[0].strip("'")


@pytest.mark.parametrize("name", ["fool_bool", "fool_true", "fool_false", "sk_fool_3"])
def test_generated_and_emitted_names_are_inferred_as_constants(name):
    base = "tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\n"
    for strict in (False, True):
        sig = parse_problem(base + f"tff(a, axiom, c = {name}).\n", strict=strict).signature
        assert sig.fn_sig(name) == TypeSig((), sig.sort("s"))


_INFERENCE_DECLS = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_f, type, f : s > s).
tff(d_p, type, p : s > $o).
"""


@pytest.fixture
def inference_calls(monkeypatch):
    """The problems the loader ran constant inference on."""
    from foolkit.tptp import _Parser

    calls = []
    infer = _Parser._infer_undeclared_constants

    def counting(self, problem):
        calls.append(problem)
        infer(self, problem)

    monkeypatch.setattr(_Parser, "_infer_undeclared_constants", counting)
    return calls


def test_all_declared_problem_skips_constant_inference(inference_calls):
    """Every nullary symbol is declared, let-bound where it is read, a
    numeral or a truth constant: nothing can be inferred, so the loader
    does not look, and the signature is the declarations in order."""
    problem = parse_problem(
        _INFERENCE_DECLS
        + "tff(a, axiom, $let(k : s, k := f(c), p(k) & $let(m : s, m := k, p(m))))."
        + "tff(b, axiom, $greater(3, 2) & $true)."
    )
    assert inference_calls == []
    user = [name for name in problem.signature.fns if name not in BUILTIN_FNS | ARITHMETIC_FNS.keys()]
    assert user == ["c", "f", "p", "2", "3"]


@pytest.mark.parametrize(
    "axiom, name, sort",
    [
        ("e = c", "e", "s"),
        ("$let(k : s, k := c, p(k) & e = k)", "e", "s"),  # read in a let's scope
        ("$let(k : s, k := c, p(k)) & k = c", "k", "s"),  # read outside its let
        ("$let(m : s, m := f(m), p(m))", "m", "s"),  # a let body reads the outer m
        ("e = 3", "e", "$int"),
    ],
)
def test_undeclared_constants_are_still_inferred(inference_calls, axiom, name, sort):
    problem = parse_problem(_INFERENCE_DECLS + f"tff(a, axiom, {axiom}).")
    assert len(inference_calls) == 1
    assert problem.signature.fn_sig(name) == TypeSig((), problem.signature.sort(sort))


def test_a_sort_error_before_an_inferred_constant_is_reported(inference_calls):
    """Inference runs at the first failing formula, at most once, and a
    formula that still fails is the one reported."""
    with pytest.raises(ParseError) as err:
        parse_problem(_INFERENCE_DECLS + "tff(a, axiom, p(f)).\ntff(b, axiom, e = c).\n")
    assert "in formula 'a'" in str(err.value)
    assert len(inference_calls) <= 1


def test_includes_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("include('Axioms/foo.ax').\n")
    assert "include" in str(err.value)


def test_duplicate_declarations_rejected():
    text = "tff(t1, type, c : $int).\ntff(t2, type, c : $int).\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "duplicate" in str(err.value)


def test_multiple_conjectures_rejected():
    text = "tff(c1, conjecture, $true).\ntff(c2, conjecture, $true).\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "one conjecture" in str(err.value)


def test_unquantified_variables_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("tff(a, axiom, p(X)).\n")
    assert "unquantified" in str(err.value)


def test_type_errors_carry_formula_location():
    text = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(bad, axiom, $ite(c, c, c) = c).
"""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "bad" in str(err.value)


def test_mixed_operators_need_parentheses():
    with pytest.raises(ParseError):
        parse_problem("tff(a, axiom, $true & $true | $true).\n")
    with pytest.raises(ParseError):
        parse_problem("tff(a, axiom, $true => $true => $true).\n")


def test_parse_formula_declares_numerals_in_sorted_order():
    """Numerals are declared in one order whatever the string hash seed,
    as the problem loader declares them."""
    child = (
        "from foolkit import BOOL, Signature, TypeContext, TypeSig, parse_formula\n"
        "from foolkit.terms import INT\n"
        "sig = Signature()\n"
        "sig.declare_fn('p', TypeSig((INT,), BOOL))\n"
        "parse_formula(' & '.join(f'p({n})' for n in range(15, 9, -1)), TypeContext.of(sig))\n"
        "print(*sig.user_fns())\n"
    )
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        )
        assert done.stdout == "p 10 11 12 13 14 15\n", (seed, done.stderr[-500:])


def _reader_inputs():
    """(name, text) for the corpus and fixture problems, the golden
    standard files and the emitted text of every corpus problem, each
    as written and with eight seeded mutations."""
    dialect = named_texts()
    golden = [(f"golden/{path.name}", path.read_text()) for path in sorted(GOLDEN.glob("*.tff0"))]
    emitted = []
    for name, text in dialect:
        problem = parse_problem(text)
        fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
        emitted.append((f"emitted/{name}", print_fol_tff0(fol)))
    for name, text in dialect + golden + emitted:
        yield name, text
        rng = random.Random(name)
        for i in range(8):
            yield f"{name}#{i}", mutate_text(rng, text)


def _reading(text, strict):
    """The error with its location, or each formula's name, role and
    line and the order of the declared sorts and symbols."""
    try:
        problem = parse_problem(text, strict=strict)
    except ParseError as err:
        return [str(err), err.line, err.col]
    sig = problem.signature
    return {
        "formulas": [[f.name, f.role, f.line] for f in problem.formulas],
        "sorts": list(sig.sorts),
        "fns": [n for n in sig.fns if n not in BUILTIN_FNS and n not in ARITHMETIC_FNS],
    }


def test_parse_errors_are_pinned():
    """Messages, lines and columns of the reader's errors, and formula
    lines and signature order where it succeeds, in both modes."""
    golden = json.loads((GOLDEN / "parse_errors.json").read_text())
    got = {
        name: {"dialect": _reading(text, False), "strict": _reading(text, True)}
        for name, text in _reader_inputs()
    }
    assert got == golden


# The reference lexer: one ``finditer`` match per token and per skipped
# run, the kind from the name of the group that matched.  ``_lex`` must
# give the same tokens, or the same error.
_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|%[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
      | (?P<dollar>\$[a-z][A-Za-z0-9_]*)
      | (?P<lower>[a-z][A-Za-z0-9_]*)
      | (?P<upper>[A-Z][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<op><=>|<~>|=>|<=|!=|:=|[()\[\],.:~&|=!?*>])
      | (?P<bad>.)
    """,
    re.X,
)


def _reference_lex(text):
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_line_col(text, m.start()))
        if kind != "skip":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _lexing(lex, text):
    """The tokens as ``(kind, text, pos)`` triples, or the error message."""
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as err:
        return str(err)


def test_lexer_agrees_with_the_reference_on_reader_inputs():
    for name, text in _reader_inputs():
        assert _lexing(_lex, text) == _lexing(_reference_lex, text), name


# Letters, digits and the characters that start or end more than one
# token kind, whitespace (a Unicode space among it), a Unicode digit and
# one byte no token starts with.
_LEXER_CHARS = "aqzAQZ09_$'\\%<=>~/*!:.,()[]&|? \n\t\xa0\u0660\x00"


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=_LEXER_CHARS, max_size=24))
def test_lexer_agrees_with_the_reference_on_tptp_characters(text):
    assert _lexing(_lex, text) == _lexing(_reference_lex, text)


# ---------------------------------------------------------------------------
# printing


def ast_equal(p1, p2):
    if len(p1.formulas) != len(p2.formulas):
        return False
    for a, b in zip(p1.formulas, p2.formulas):
        if (a.name, a.role) != (b.name, b.role):
            return False
        if isinstance(a.payload, (SortDecl, SymbolDecl)):
            if type(a.payload) is not type(b.payload):
                return False
            if isinstance(a.payload, SortDecl):
                if a.payload.name != b.payload.name:
                    return False
            elif (a.payload.name, a.payload.sig) != (b.payload.name, b.payload.sig):
                return False
        elif a.payload != b.payload:
            return False
    return True


@pytest.mark.parametrize("text", [VERIFICATION_LISTING, CONTAINS_ITE, SUBSET_SORTED])
def test_dialect_roundtrip(text):
    problem = parse_problem(text)
    rendered = print_dialect(problem)
    again = parse_problem(rendered)
    assert ast_equal(problem, again)
    assert print_dialect(again) == rendered


def test_roundtrip_unified_ite_term():
    text = "tff(a, axiom, $ite($true, $false, $true)).\n"
    problem = parse_problem(text)
    rendered = print_dialect(problem)
    assert "$ite($true, $false, $true)" in rendered
    assert ast_equal(problem, parse_problem(rendered))


def test_quoted_names_roundtrip():
    text = "tff(q1, type, 'Weird Name' : $int).\ntff(q2, axiom, 'Weird Name' = 'Weird Name').\n"
    problem = parse_problem(text)
    rendered = print_dialect(problem)
    assert "'Weird Name'" in rendered
    assert ast_equal(problem, parse_problem(rendered))


def _quoted(name):
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _names_read_back(text):
    """The problem, its dialect rendering read back, and its translation
    read back under the strict grammar, with the same formulas and
    signature."""
    problem = parse_problem(text)
    rendered = print_dialect(problem)
    again = parse_problem(rendered)
    assert ast_equal(problem, again)
    assert list(again.signature.sorts.items()) == list(problem.signature.sorts.items())
    assert list(again.signature.fns.items()) == list(problem.signature.fns.items())
    assert print_dialect(again) == rendered
    fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
    assert parse_problem(print_fol_tff0(fol), strict=True).formulas


@pytest.mark.parametrize(
    "text",
    [
        "tff(t, type, p : $i > $o).\ntff(a, axiom, p('\u00b2')).\n",
        "tff(t, type, p : $i > $o).\ntff(c, type, '$foo' : $i).\ntff(a, axiom, p('$foo')).\n",
        "tff(s, type, '$s' : $tType).\ntff(c, type, c : '$s').\ntff(a, axiom, c = c).\n",
        "tff(s, type, s : $tType).\ntff(c, type, c : s).\ntff(o, type, '1' : s).\n"
        "tff(a, axiom, '1' = c).\n",
    ],
)
def test_emitted_names_read_back_as_themselves(text):
    """A name that is not a lower word is quoted where it is declared, a
    name in a term stands bare only where it reads back as itself, and
    every symbol the reader would not declare alike is declared."""
    _names_read_back(text)


# Names the reader accepts quoted: spaces, quotes and backslashes, a
# leading $, decimal and other digits.  A name the reader refuses to
# declare (a builtin sort or symbol, or p) is skipped.
_ODD_NAMES = st.one_of(
    st.sampled_from(["1", "07", "\u0663", "\u00b2", "$foo", "$s", "$", "a b", "it's", "a\\b", "Up", "s"]),
    st.text(alphabet="ab $'\\_Z19\u0663\u00b2", min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ODD_NAMES, _ODD_NAMES)
def test_any_declared_sort_and_constant_name_reads_back(sort, const):
    s, c = _quoted(sort), _quoted(const)
    text = (
        f"tff(d_s, type, {s} : $tType).\n"
        f"tff(d_c, type, {c} : {s}).\n"
        f"tff(d_p, type, p : {s} > $o).\n"
        f"tff(a, axiom, p({c}) & $ite(p({c}), {c}, {c}) = {c}).\n"
    )
    try:
        parse_problem(text)
    except ParseError:
        assume(False)
    _names_read_back(text)


def test_fol_printer_boolean_axioms_exact():
    sig = Signature()
    ctx = TypeContext.of(sig)
    fol = to_fol(run_translation(Eq(TRUE, TRUE), ctx))
    out = print_fol_tff0(fol)
    assert (
        "tff(fool_bool_dom, axiom, ![X : 'fool_bool'] : "
        "(X = 'fool_true' | X = 'fool_false'))." in out
    )
    assert "tff(fool_bool_distinct, axiom, 'fool_true' != 'fool_false')." in out


def test_fol_printer_predicate_split_rendering():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("q1", TypeSig((s,), BOOL))
    sig.declare_fn("f", TypeSig((BOOL,), s))
    sig.declare_fn("c", TypeSig((), s))
    ctx = TypeContext.of(sig)
    phi = parse_formula("q1(c) & f(q1(c)) = c", ctx)
    fol = to_fol(run_translation(phi, ctx))
    out = print_fol_tff0(fol)
    assert "tff(decl_q1, type, q1 : s > 'fool_bool')." in out
    assert "q1(c) = 'fool_true'" in out
    # bool-argument positions use the emitted sort
    assert "tff(decl_f, type, f : 'fool_bool' > s)." in out


def test_fol_printer_keeps_plain_predicates():
    problem = parse_problem(VERIFICATION_LISTING)
    fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
    out = print_fol_tff0(fol)
    assert "tff(decl_p, type, p : $int > $o)." in out
    assert "p(a)" in out


def test_fol_printer_true_atom_by_context():
    sig = Signature()
    sig.declare_fn("w", TypeSig((BOOL,), BOOL))
    ctx = TypeContext.of(sig)
    phi = parse_formula("$true & w($false) = $true", ctx)
    fol = to_fol(run_translation(phi, ctx))
    out = print_fol_tff0(fol)
    # formula context stays an atom; term context becomes the constant
    assert "($true & w('fool_false') = 'fool_true')" in out


@pytest.mark.parametrize("text", [VERIFICATION_LISTING, CONTAINS_ITE, SUBSET_SORTED])
def test_fol_output_reparses_strict(text):
    problem = parse_problem(text)
    fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
    out = print_fol_tff0(fol)
    reparsed = parse_problem(out, strict=True)
    assert len(reparsed.formulas) > 0


def test_fol_output_stable_across_runs():
    problem1 = parse_problem(CONTAINS_ITE)
    problem2 = parse_problem(CONTAINS_ITE)
    out1 = print_fol_tff0(to_fol(run_translation(problem1.goal_formula(), problem1.ctx)))
    out2 = print_fol_tff0(to_fol(run_translation(problem2.goal_formula(), problem2.ctx)))
    assert out1 == out2


def test_whole_corpus_output_reparses_strict():
    import corpus

    for name, text, _sizes in corpus.PRESERVATION:
        problem = parse_problem(text)
        fol = to_fol(run_translation(problem.goal_formula(), problem.ctx))
        out = print_fol_tff0(fol)
        reparsed = parse_problem(out, strict=True)
        assert reparsed.formulas, name


def test_pure_fo_input_prints_with_two_axioms_appended():
    text = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_p, type, p : s > $o).
tff(a, axiom, p(c)).
"""
    problem = parse_problem(text)
    state = run_translation(problem.goal_formula(), problem.ctx)
    assert state.steps == []
    out = print_fol_tff0(to_fol(state))
    lines = [l for l in out.splitlines() if not l.startswith(("tff(sort_", "tff(decl_"))]
    assert lines == [
        "tff(goal, hypothesis, p(c)).",
        "tff(fool_bool_dom, axiom, ![X : 'fool_bool'] : (X = 'fool_true' | X = 'fool_false')).",
        "tff(fool_bool_distinct, axiom, 'fool_true' != 'fool_false').",
    ]


def test_emitted_formula_names_are_distinct():
    # 'a b' and a_b both make the name decl_a_b
    problem = parse_problem("tff(d1, type, 'a b' : $o).\ntff(d2, type, a_b : $o).\ntff(a, axiom, 'a b' | a_b).\n")
    out = print_fol_tff0(to_fol(run_translation(problem.goal_formula(), problem.ctx)))
    names = [line[len("tff("):line.index(",")] for line in out.splitlines()]
    assert len(names) == len(set(names)), names
    assert "tff(decl_a_b, type, 'a b' : $o)." in out
    assert "tff(decl_a_b_1, type, a_b : $o)." in out


def test_printers_take_a_long_conjunction_chain():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("c", TypeSig((), s))
    sig.declare_fn("p", TypeSig((s,), BOOL))
    n = 100_000
    chain = land(*[App("p", (App("c"),))] * n)
    conjunction = "(" + " & ".join(["p(c)"] * n) + ")"
    dialect = print_dialect(Problem([AnnotatedFormula("a", "axiom", chain)], sig))
    assert dialect == f"tff(a, axiom, {conjunction}).\n"
    fol = to_fol(TranslationState(current=chain, ctx=TypeContext.of(sig)))
    assert f"tff(goal, hypothesis, {conjunction})." in print_fol_tff0(fol)


@pytest.mark.parametrize(
    "goal, message",
    [
        (Ite(App("q"), App("p", (App("c"),)), App("p", (App("c"),))), "$ite cannot appear in strict output"),
        (Let("k", (), App("c"), App("p", (App("k"),))), "$let cannot appear in strict output"),
    ],
)
def test_strict_printer_refuses_ite_and_let(goal, message):
    """``print_fol_tff0`` prints only lowered problems: a goal that still
    holds an ``$ite`` or a ``$let`` is refused with a ``ValueError``."""
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("c", TypeSig((), s))
    sig.declare_fn("p", TypeSig((s,), BOOL))
    sig.declare_fn("q", TypeSig((), BOOL))
    fol = dataclasses.replace(to_fol(TranslationState(current=TRUE, ctx=TypeContext.of(sig))), goal=goal)
    with pytest.raises(ValueError) as err:
        print_fol_tff0(fol)
    assert str(err.value) == message
