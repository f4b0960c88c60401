"""Fixed problems of the benchmark, with their expected answers.

Copied verbatim from the regression corpus in ``tests/corpus.py`` when
the benchmark was defined, so that an edit to the test corpus never
silently changes a workload.  Where each list came from:

* ``PRESERVATION``: the 34 hand-written model-preservation formulas of
  acceptance criterion 2, as (name, text, carrier sizes by sort name);
  sorts not listed get carriers of size 2.  Expected answer: the
  preservation report is ``ok``.
* ``REFUTATION``: the 20 validities posed as conjectures of acceptance
  criterion 8.  Expected answer: refuted in both boolean modes.
* ``SATISFIABLE``: the 3 satisfiable problems of acceptance criterion 8,
  each with a small model.  Expected answer: never refuted; rule mode
  saturates.
"""

_S = "tff(s_s, type, s : $tType).\n"

PRESERVATION = [
    # boolean variables in formula contexts
    ("excluded-middle", "tff(f, axiom, ![X : $o] : (X | ~X)).\n", {}),
    ("implication-self", "tff(f, axiom, ![X : $o] : (X => X)).\n", {}),
    ("and-elim", "tff(f, axiom, ![X : $o, Y : $o] : ((X & Y) => X)).\n", {}),
    ("exists-bool", "tff(f, axiom, ?[X : $o] : X).\n", {}),
    ("two-element", "tff(f, axiom, ![X : $o] : (X = $true | X = $false)).\n", {}),
    (
        "pred-excluded-middle",
        _S + "tff(d_p, type, p : s > $o).\n"
        "tff(f, axiom, ![X : s] : (p(X) | ~p(X))).\n",
        {},
    ),
    # formulas in term contexts
    (
        "named-contradiction",
        _S + "tff(d_f, type, f : $o > s).\ntff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, f(pp & ~pp) = f($false)).\n",
        {},
    ),
    (
        "named-disjunction",
        "tff(d_g1, type, g1 : $o > $o).\ntff(d_pp, type, pp : $o).\n"
        "tff(d_qq, type, qq : $o).\n"
        "tff(f1, axiom, g1(pp | qq) = $true <=> (pp | qq)).\n",
        {},
    ),
    (
        "equation-in-term-context",
        _S + "tff(d_w, type, w : $o > s).\ntff(d_c0, type, c0 : s).\n"
        "tff(d_c1, type, c1 : s).\n"
        "tff(f1, axiom, w(c0 = c1) = w($false) | c0 = c1).\n",
        {},
    ),
    (
        "open-formula-named",
        _S + "tff(d_w, type, w : $o > s).\ntff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, ![X : s] : (w(p(X) & p(X)) = w(p(X)))).\n",
        {},
    ),
    (
        "quantified-formula-named",
        _S + "tff(d_w, type, w : $o > s).\ntff(d_p, type, p : s > $o).\n"
        "tff(d_c0, type, c0 : s).\n"
        "tff(f1, axiom, w(![X : s] : p(X)) = c0).\n",
        {},
    ),
    (
        "nested-equation-named",
        _S + "tff(d_f0, type, f0 : $o > s).\ntff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, f0(f0(pp) = f0($true)) = f0(pp)).\n",
        {},
    ),
    # conditionals
    (
        "contains-ite",
        "tff(s_list, type, list : $tType).\ntff(s_item, type, item : $tType).\n"
        "tff(d_contains, type, contains : (list * item) > $o).\n"
        "tff(f1, axiom, ![P : $o, L : list, X : item, Y : item] :"
        " (contains(L, $ite(P, X, Y)) ="
        " ((P => contains(L, X)) & (~P => contains(L, Y))))).\n",
        {"list": 1, "item": 2},
    ),
    (
        "ite-same-branches",
        _S + "tff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, ![X : s] : ($ite(p(X), X, X) = X)).\n",
        {},
    ),
    (
        "ite-reifies-bool",
        _S + "tff(d_f0, type, f0 : $o > s).\ntff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, f0($ite(pp, $true, $false)) = f0(pp)).\n",
        {},
    ),
    (
        "ite-as-formula",
        "tff(d_pp, type, pp : $o).\ntff(d_qq, type, qq : $o).\n"
        "tff(f1, axiom, $ite(pp, qq, ~qq) <=> (pp <=> qq)).\n",
        {},
    ),
    (
        "ite-under-negated-exists",
        _S + "tff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, ~?[X : s] : (p(X) & $ite(p(X), $false, $true))).\n",
        {},
    ),
    (
        "ite-with-quantified-condition",
        _S + "tff(d_p2, type, p2 : (s * s) > $o).\n"
        "tff(f1, axiom, ![X : s] : ($ite(?[Y : s] : p2(X, Y), X, X) = X)).\n",
        {},
    ),
    (
        "bool-var-reified",
        _S + "tff(d_f0, type, f0 : $o > s).\n"
        "tff(f1, axiom, ![X : $o] : (f0(X) = f0($ite(X, $true, $false)))).\n",
        {},
    ),
    # let bindings
    (
        "let-nullary",
        "tff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, $let(u : $o, u := pp, u & u) <=> pp).\n",
        {},
    ),
    (
        "let-shadows-constant",
        _S + "tff(d_c, type, c : s).\ntff(d_f, type, f : s > s).\n"
        "tff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, $let(c : s, c := f(c), p(c))).\n",
        {},
    ),
    (
        "let-identity",
        _S + "tff(d_c, type, c : s).\n"
        "tff(f1, axiom, $let(id : s > s, id(X) := X, id(c) = c)).\n",
        {},
    ),
    (
        "let-with-free-variable",
        _S + "tff(d_h, type, h : (s * s) > s).\n"
        "tff(f1, axiom, ![Y : s] :"
        " ($let(g : s > s, g(X) := h(X, Y), g(Y) = h(Y, Y)))).\n",
        {},
    ),
    (
        "let-used-twice",
        _S + "tff(d_f, type, f : s > s).\ntff(d_c, type, c : s).\n"
        "tff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, $let(d : s, d := f(c), p(f(d)) | p(d))).\n",
        {},
    ),
    (
        "nested-lets",
        "tff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, $let(a0 : $o, a0 := pp,"
        " $let(b0 : $o, b0 := (a0 & pp), b0 | a0))).\n",
        {},
    ),
    (
        "let-defines-predicate",
        _S + "tff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, $let(q : s > $o, q(X) := ~p(X), ?[X : s] : q(X))"
        " <=> ?[X : s] : ~p(X)).\n",
        {},
    ),
    (
        "let-rebinds-own-name",
        "tff(d_pp, type, pp : $o).\n"
        "tff(f1, axiom, $let(pp : $o, pp := ~pp, pp) <=> ~pp).\n",
        {},
    ),
    (
        "let-unused",
        _S + "tff(d_c, type, c : s).\ntff(d_p, type, p : s > $o).\n"
        "tff(f1, axiom, $let(u : s, u := c, p(c))).\n",
        {},
    ),
    (
        "let-binary",
        _S + "tff(d_h, type, h : (s * s) > s).\ntff(d_c, type, c : s).\n"
        "tff(f1, axiom, $let(m : (s * s) > s, m(X, Y) := h(Y, X),"
        " m(c, h(c, c)) = h(h(c, c), c))).\n",
        {},
    ),
    (
        "let-feeds-ite",
        _S + "tff(d_p0, type, p0 : $o).\ntff(d_c0, type, c0 : s).\n"
        "tff(d_c1, type, c1 : s).\n"
        "tff(f1, axiom, $let(k : $o, k := p0, $ite(k, c0, c1)) = $ite(p0, c0, c1)).\n",
        {},
    ),
    # plain first-order material and combinations
    (
        "bool-eq-is-iff",
        "tff(f1, axiom, ![X : $o, Y : $o] : ((X = Y) <=> (X <=> Y))).\n",
        {},
    ),
    (
        "bool-var-in-term-context",
        _S + "tff(d_f0, type, f0 : $o > s).\n"
        "tff(f1, axiom, ![X : $o] : (f0(X) = f0(X))).\n",
        {},
    ),
    (
        "exists-bool-witness",
        _S + "tff(d_f0, type, f0 : $o > s).\ntff(d_c0, type, c0 : s).\n"
        "tff(f1, axiom, ?[X : $o] : (f0(X) = c0)).\n",
        {},
    ),
    (
        "axiom-and-conjecture",
        _S + "tff(d_p, type, p : s > $o).\ntff(d_c, type, c : s).\n"
        "tff(a1, axiom, p(c)).\ntff(c1, conjecture, ?[X : s] : p(X)).\n",
        {},
    ),
]

# Validities posed as conjectures; the goal (axioms and the negated
# conjecture) must be refuted by both boolean handling modes, and the
# clause sets stay small (at most six clauses besides the two standard
# boolean clauses).
REFUTATION = [
    ("excluded-middle", "tff(c, conjecture, ![X : $o] : (X | ~X)).\n"),
    ("truth", "tff(c, conjecture, $true).\n"),
    ("not-false", "tff(c, conjecture, ~$false).\n"),
    ("two-element", "tff(c, conjecture, ![X : $o] : (X = $true | X = $false)).\n"),
    ("eq-true-iff-self", "tff(c, conjecture, ![X : $o] : ((X = $true) <=> X)).\n"),
    (
        "assumption",
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(d_c, type, c : s).\n"
        "tff(a, axiom, p(c)).\ntff(c1, conjecture, p(c)).\n",
    ),
    (
        "fixpoint-iteration",
        "tff(s_s, type, s : $tType).\ntff(d_f, type, f : s > s).\n"
        "tff(d_c, type, c : s).\n"
        "tff(a, axiom, f(c) = c).\ntff(c1, conjecture, f(f(c)) = c).\n",
    ),
    (
        "ite-under-assumption",
        "tff(s_s, type, s : $tType).\ntff(d_p0, type, p0 : $o).\n"
        "tff(d_c0, type, c0 : s).\ntff(d_c1, type, c1 : s).\n"
        "tff(a, axiom, p0).\n"
        "tff(c1, conjecture, $ite(p0, c0, c1) = c0).\n",
    ),
    (
        "bool-case-split",
        "tff(d_p, type, p : $o > $o).\n"
        "tff(a1, axiom, p($true)).\ntff(a2, axiom, p($false)).\n"
        "tff(c1, conjecture, ![X : $o] : p(X)).\n",
    ),
    (
        "commuted-conjunction",
        "tff(d_p0, type, p0 : $o).\ntff(d_q0, type, q0 : $o).\n"
        "tff(c1, conjecture, (p0 & q0) => (q0 & p0)).\n",
    ),
    (
        "implication-reflexive",
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(c1, conjecture, ![X : s] : (p(X) => p(X))).\n",
    ),
    ("exists-true-witness", "tff(c, conjecture, ?[X : $o] : (X = $true)).\n"),
    (
        "let-constant-identity",
        "tff(d_p0, type, p0 : $o).\n"
        "tff(c1, conjecture, $let(u : $o, u := p0, u) <=> p0).\n",
    ),
    (
        "instance-of-universal",
        "tff(s_s, type, s : $tType).\ntff(d_f, type, f : s > s).\n"
        "tff(d_c, type, c : s).\n"
        "tff(c1, conjecture, (![X : s] : (f(X) = X)) => f(c) = c).\n",
    ),
    (
        "symmetry",
        "tff(s_s, type, s : $tType).\ntff(d_c0, type, c0 : s).\n"
        "tff(d_c1, type, c1 : s).\n"
        "tff(a, axiom, c0 = c1).\ntff(c1, conjecture, c1 = c0).\n",
    ),
    (
        "transitivity",
        "tff(s_s, type, s : $tType).\ntff(d_c0, type, c0 : s).\n"
        "tff(d_c1, type, c1 : s).\ntff(d_c2, type, c2 : s).\n"
        "tff(a1, axiom, c0 = c1).\ntff(a2, axiom, c1 = c2).\n"
        "tff(c1, conjecture, c0 = c2).\n",
    ),
    (
        "reflexive-witness",
        "tff(s_s, type, s : $tType).\ntff(d_f, type, f : s > s).\n"
        "tff(d_c, type, c : s).\n"
        "tff(c1, conjecture, ?[X : s] : (f(X) = f(c))).\n",
    ),
    (
        "bool-valued-function-totality",
        "tff(s_s, type, s : $tType).\ntff(d_q1, type, q1 : s > $o).\n"
        "tff(c1, conjecture, ?[X0 : s] :"
        " (q1(X0) = $true | q1(X0) = $false)).\n",
    ),
    (
        "modus-ponens-on-bool-var",
        "tff(d_p, type, p : $o > $o).\n"
        "tff(a1, axiom, p($true)).\n"
        "tff(c1, conjecture, ![X : $o] : (~X | p(X))).\n",
    ),
    (
        "disjunctive-witness",
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(d_c, type, c : s).\n"
        "tff(c1, conjecture, ?[X : s] : (p(X) | ~p(c))).\n",
    ),
]

# Satisfiable problems: the kernel must saturate and the oracle must find
# a model within small carriers.
SATISFIABLE = [
    (
        "independent-facts",
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(d_q, type, q : s > $o).\ntff(d_c, type, c : s).\n"
        "tff(a1, axiom, p(c)).\ntff(c1, conjecture, q(c)).\n",
    ),
    (
        "distinct-constants",
        "tff(s_s, type, s : $tType).\ntff(d_c0, type, c0 : s).\n"
        "tff(d_c1, type, c1 : s).\n"
        "tff(a, axiom, c0 = c0).\ntff(c1, conjecture, c0 = c1).\n",
    ),
    (
        "boolean-flag",
        "tff(s_s, type, s : $tType).\ntff(d_fb, type, fb : s > $o).\n"
        "tff(d_c, type, c : s).\ntff(d_p, type, p : $o > $o).\n"
        "tff(a, axiom, p(fb(c))).\ntff(c1, conjecture, p($true)).\n",
    ),
]
