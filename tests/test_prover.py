"""Ordering, unification, clausification and the saturation kernel."""

import hashlib
import itertools
import json
import pathlib
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from generate import TermGen
from foolkit import (
    App,
    BOOL,
    DomainSpec,
    Eq,
    FolProblem,
    Signature,
    TypeContext,
    TypeSig,
    Var,
    enumerate_interpretations,
    models,
    parse_problem,
    run_translation,
    to_fol,
)
from foolkit.prover import (
    AXIOM_MODE,
    Clause,
    ClauseExplosion,
    ClausifyResult,
    Literal,
    ProverConfig,
    RULE_MODE,
    clausify,
    is_bool_domain_clause,
    is_variant,
    kbo_greater,
    mgu,
    saturate,
)
from foolkit.bench import _support_clauses, bench_fixture
from foolkit.prover import saturation
from foolkit.prover.ordering import literal_greater, maximal_literal_indices
from foolkit.prover.clauses import judge_literals, term_positions, term_vars
from foolkit.prover.unification import (
    VariantIndex,
    apply_subst,
    apply_subst_literal,
    occurs,
    rename_clause,
    subsumes_by_variant,
    unify_atoms,
)
from foolkit.terms import (
    AND,
    Exists,
    FALSE,
    FRESH_PREFIX,
    Forall,
    IFF,
    IMPLIES,
    NOT,
    OR,
    TRUE,
    Sort,
    forall_prefix,
    free_vars,
    land,
    lnot,
    lor,
    replace_at,
    subst_free_vars,
)


S = Sort("s")


def base_ctx():
    sig = Signature()
    sig.add_sort(S)
    sig.declare_fn("a", TypeSig((), S))
    sig.declare_fn("b", TypeSig((), S))
    sig.declare_fn("f", TypeSig((S,), S))
    sig.declare_fn("g2", TypeSig((S, S), S))
    sig.declare_fn("p", TypeSig((S,), BOOL))
    sig.declare_fn("fb", TypeSig((S,), BOOL))
    sig.declare_fn("ab", TypeSig((), BOOL))
    return TypeContext.of(sig)


# ---------------------------------------------------------------------------
# unification


def test_mgu_binds_variable():
    assert mgu(Var("X"), TRUE) == {"X": TRUE}


def test_mgu_decomposes_applications():
    got = mgu(App("f", (Var("X"),)), App("f", (App("g", (Var("Y"),)),)))
    assert got == {"X": App("g", (Var("Y"),))}


def test_mgu_occurs_check():
    assert mgu(Var("X"), App("f", (Var("X"),))) is None


def test_mgu_idempotent():
    got = mgu(App("g2", (Var("X"), Var("Y"))), App("g2", (Var("Y"), App("a"))))
    assert got == {"X": App("a"), "Y": App("a")}


# ---------------------------------------------------------------------------
# ordering


def test_truth_constants_are_smallest():
    ground_terms = [App("a"), App("b"), App("f", (App("a"),)), App("ab"),
                    App("g2", (App("a"), App("b")))]
    for t in ground_terms:
        assert kbo_greater(t, TRUE)
        assert kbo_greater(t, FALSE)
    assert kbo_greater(TRUE, FALSE)
    assert not kbo_greater(FALSE, TRUE)


def test_kbo_weight_dominates():
    assert kbo_greater(App("f", (App("a"),)), App("b"))
    assert not kbo_greater(App("b"), App("f", (App("a"),)))


def test_kbo_variable_condition():
    # f(X) > X, but g2(a, a) and f(Y) are incomparable
    assert kbo_greater(App("f", (Var("X"),)), Var("X"))
    assert not kbo_greater(App("g2", (App("a"), App("a"))), App("f", (Var("Y"),)))
    assert not kbo_greater(Var("X"), TRUE)
    assert not kbo_greater(TRUE, Var("X"))


def test_kbo_precedence_breaks_weight_ties():
    # equal weight: higher arity wins, then the symbol name, then the
    # arguments left to right
    a, b = App("a"), App("b")
    pairs = [
        (App("h2", (a, b)), App("g", (App("f", (a,)),))),
        (App("g", (a,)), App("f", (a,))),
        (App("f", (b,)), App("f", (a,))),
        (b, a),
    ]
    for bigger, smaller in pairs:
        assert kbo_greater(bigger, smaller)
        assert not kbo_greater(smaller, bigger)


def test_maximal_literal_in_domain_clause():
    # x = true | x = false: the true-side literal is strictly maximal.
    clause = Clause(
        (Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)),
        {"X": BOOL},
    )
    assert maximal_literal_indices(clause) == [0]
    assert literal_greater(clause.literals[0], clause.literals[1])


# ---------------------------------------------------------------------------
# clausification


def translate_text(text):
    problem = parse_problem(text)
    return to_fol(run_translation(problem.goal_formula(), problem.ctx))


def test_clausify_domain_axiom_gives_bool_clause():
    fol = translate_text("tff(a, axiom, $true).\n")
    result = clausify(fol)
    domain = [c for c in result.clauses if is_bool_domain_clause(c)]
    assert len(domain) == 1
    assert domain[0].literals[0].is_equation


def test_clausify_negated_goal_unit():
    text = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_p, type, p : s > $o).
tff(c1, conjecture, p(c)).
"""
    fol = translate_text(text)
    result = clausify(fol)
    units = [c for c in result.clauses if c.literals == (Literal(False, App("p", (App("c"),))),)]
    assert len(units) == 1


def test_clausify_splits_equivalence_definitions():
    text = """\
tff(s_s, type, s : $tType).
tff(d_w, type, w : $o > s).
tff(d_c, type, c : s).
tff(d_p, type, p : s > $o).
tff(a, axiom, ![X : s] : (w(~p(X)) = c)).
"""
    fol = translate_text(text)
    assert len(fol.definitions) == 1
    # clausify the (forall X)(p(X) <=> g(X) = true) definition alone: the
    # equivalence splits into exactly two clauses
    alone = FolProblem((fol.definitions[0],), TRUE, fol.ctx, fol.predicate_split)
    result = clausify(alone)
    def_clauses = [c for c in result.clauses if not is_bool_domain_clause(c)]
    def_clauses = [c for c in def_clauses if c.render() != "$true != $false"]
    assert len(def_clauses) == 2
    assert {len(c.literals) for c in def_clauses} == {2}


def test_clausify_skolemizes_existentials():
    text = """\
tff(s_s, type, s : $tType).
tff(d_p, type, p : s > $o).
tff(a, axiom, ?[X : s] : p(X)).
tff(c, conjecture, ![Y : s] : p(Y)).
"""
    fol = translate_text(text)
    result = clausify(fol)
    rendered = [c.render() for c in result.clauses]
    skolems = [r for r in rendered if "sk_fool_" in r]
    assert len(skolems) == 2  # the witness and the counterexample constant
    for name in ("sk_fool_0", "sk_fool_1"):
        assert result.ctx.fn_sig(name) is not None


class _ReferenceClausifier:
    """``clausify`` as first written, in four walks: the skolemized
    negation normal form as a tree, or-over-and distribution of that tree,
    literals from each distributed leaf list, and the first-occurrence
    renaming of each clause."""

    def __init__(self, ctx, max_clauses):
        self.ctx = ctx
        self.counter = 0
        self.max_clauses = max_clauses
        self.var_counter = 0
        self.var_sorts = {}

    def fresh_skolem(self):
        while True:
            name = f"{FRESH_PREFIX}{self.counter}"
            self.counter += 1
            if self.ctx.fn_sig(name) is None:
                return name

    def fresh_var(self, sort):
        name = f"V{self.var_counter}"
        self.var_counter += 1
        self.var_sorts[name] = sort
        return name

    def explode(self, count):
        if count > self.max_clauses:
            raise ClauseExplosion(f"more than {self.max_clauses} clauses")

    def skolemize(self, t, positive, univ, subst):
        if isinstance(t, App) and t.fn == NOT:
            return self.skolemize(t.args[0], not positive, univ, subst)
        if isinstance(t, App) and t.fn in (AND, OR, IMPLIES):
            a, b = t.args
            left = self.skolemize(a, positive != (t.fn == IMPLIES), univ, subst)
            right = self.skolemize(b, positive, univ, subst)
            return App(AND if (t.fn == AND) == positive else OR, (left, right))
        if isinstance(t, App) and t.fn == IFF:
            a, b = t.args
            first, second = (
                App(OR, (self.skolemize(a, pa, univ, subst), self.skolemize(b, pb, univ, subst)))
                for pa, pb in ((not positive, True), (positive, False))
            )
            return App(AND, (first, second))
        if isinstance(t, (Forall, Exists)):
            if isinstance(t, Forall) == positive:
                fresh = self.fresh_var(t.sort)
                inner = {**subst, t.var: Var(fresh)}
                return self.skolemize(t.body, positive, univ + [(fresh, t.sort)], inner)
            sk = self.fresh_skolem()
            self.ctx = self.ctx.with_fn(sk, TypeSig(tuple(s for _, s in univ), t.sort))
            witness = App(sk, tuple(Var(v) for v, _ in univ))
            return self.skolemize(t.body, positive, univ, {**subst, t.var: witness})
        atom = subst_free_vars(t, subst)
        return atom if positive else App(NOT, (atom,))

    def distribute(self, t):
        if isinstance(t, App) and t.fn == AND:
            out = []
            for part in t.args:
                out.extend(self.distribute(part))
                self.explode(len(out))
            return out
        if isinstance(t, App) and t.fn == OR:
            left = self.distribute(t.args[0])
            right = self.distribute(t.args[1])
            self.explode(len(left) * len(right))
            return [a + b for a in left for b in right]
        return [[t]]

    def to_clause(self, leaves):
        literals = []
        for leaf in leaves:
            positive = not (isinstance(leaf, App) and leaf.fn == NOT)
            atom = leaf if positive else leaf.args[0]
            if atom in (TRUE, FALSE):
                if positive == (atom == TRUE):
                    return None
                continue
            if isinstance(atom, Eq):
                literals.append(Literal(positive, atom.left, atom.right))
            else:
                literals.append(Literal(positive, atom))
        return Clause(judge_literals(literals)[0], self.var_sorts)

    def canonicalize(self, clause):
        order = dict.fromkeys(clause.variable_occurrences())
        mapping = {v: Var(f"X{i}") for i, v in enumerate(order)}
        sorts = {f"X{i}": clause.var_sorts[v] for i, v in enumerate(order)}
        return Clause(tuple(apply_subst_literal(lit, mapping) for lit in clause.literals), sorts)


def _reference_clausify(problem, max_clauses):
    state = _ReferenceClausifier(problem.ctx, max_clauses)
    clauses = []
    for formula in [*problem.axioms, problem.goal]:
        for leaves in state.distribute(state.skolemize(formula, True, [], {})):
            clause = state.to_clause(leaves)
            if clause is not None:
                clauses.append(state.canonicalize(clause))
        state.explode(len(clauses))
    return ClausifyResult(clauses, state.ctx)


def _clausify_outcome(clausify_fn, fol, max_clauses):
    """The rendered clauses with their variable sorts and the symbols of
    the extended context, skolems included, in order; or the explosion
    message."""
    try:
        result = clausify_fn(fol, max_clauses)
    except ClauseExplosion as exc:
        return str(exc)
    rendered = [(c.render(), list(c.var_sorts.items())) for c in result.clauses]
    return rendered, list(result.ctx.fn_binds.items())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(2, 6), st.sampled_from([1, 2, 3, 5, 8, 10_000]))
def test_clausify_agrees_with_the_four_walks(seed, depth, max_clauses):
    gen = TermGen(random.Random(seed), max_depth=depth)
    phi = gen.formula()
    phi = forall_prefix([(v, gen.free_pool[v]) for v in sorted(free_vars(phi))], phi)
    fol = to_fol(run_translation(phi, TypeContext.of(gen.sig)))
    got = _clausify_outcome(clausify, fol, max_clauses)
    assert got == _clausify_outcome(_reference_clausify, fol, max_clauses)


# ---------------------------------------------------------------------------
# inference rules through saturation


def run_clauses(clauses, mode, ctx=None, **limits):
    config = ProverConfig(bool_mode=mode, **{"max_clauses": 2000, "max_seconds": 10, **limits})
    return saturate(clauses, ctx or base_ctx(), config)


def test_config_rejects_an_unknown_bool_mode():
    for mode in ("rules", "axioms", ""):
        with pytest.raises(ValueError, match="'axiom' or 'rule'"):
            ProverConfig(bool_mode=mode)


def test_ground_rewrite_paramodulation():
    # from a = true into p(a): p(true)
    clauses = [
        Clause((Literal(True, App("ab"), TRUE),), {}),
        Clause((Literal(False, App("p2", (App("ab"),))),), {}),
    ]
    sig = Signature()
    sig.declare_fn("ab", TypeSig((), BOOL))
    sig.declare_fn("p2", TypeSig((BOOL,), BOOL))
    ctx = TypeContext.of(sig)
    result = run_clauses(clauses, AXIOM_MODE, ctx=ctx)
    rendered = {c.render() for c in result.clauses.values()}
    assert "~p2($true)" in rendered


def test_self_paramodulation_of_domain_clause():
    clause4 = Clause(
        (Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)), {"X": BOOL}
    )
    result = run_clauses([clause4], AXIOM_MODE, max_clauses=60)
    target = Clause(
        (
            Literal(True, Var("A"), Var("B")),
            Literal(True, Var("A"), FALSE),
            Literal(True, Var("B"), FALSE),
        ),
        {"A": BOOL, "B": BOOL},
    )
    assert any(is_variant(c, target) for c in result.clauses.values())
    assert result.stats["var_var_equation_clauses"] > 0


def test_orientation_blocks_bad_paramodulation():
    # from true = ab (oriented the small way) nothing may rewrite true
    # inside true != false; saturation of these two must keep quiet.
    clauses = [
        Clause((Literal(True, App("ab"), TRUE),), {}),
        Clause((Literal(False, TRUE, FALSE),), {}),
    ]
    sig = Signature()
    sig.declare_fn("ab", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    result = run_clauses(clauses, AXIOM_MODE, ctx=ctx)
    assert result.verdict == "saturated"
    # ab = true rewrites the true in the disequation is blocked since
    # replacing true by ab would go upward in the ordering
    rendered = {c.render() for c in result.clauses.values()}
    assert "ab != $false" not in rendered


def test_fool_rule_on_predicate_argument():
    clauses = [Clause((Literal(True, App("p2", (App("fb", (App("c0"),)),))),), {})]
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("c0", TypeSig((), s))
    sig.declare_fn("fb", TypeSig((s,), BOOL))
    sig.declare_fn("p2", TypeSig((BOOL,), BOOL))
    ctx = TypeContext.of(sig)
    result = run_clauses(clauses, RULE_MODE, ctx=ctx)
    rendered = {c.render() for c in result.clauses.values()}
    assert "p2($true) | fb(c0) = $false" in rendered


def test_fool_rule_skips_truth_constants_and_non_bool():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("c0", TypeSig((), s))
    sig.declare_fn("p2", TypeSig((BOOL,), BOOL))
    sig.declare_fn("h", TypeSig((s,), s))
    ctx = TypeContext.of(sig)
    quiet = [
        Clause((Literal(True, App("p2", (TRUE,))),), {}),
        Clause((Literal(False, App("h", (App("c0"),)), App("c0")),), {}),
    ]
    result = run_clauses(quiet, RULE_MODE, ctx=ctx)
    assert result.stats["fool_paramodulation"] == 0
    assert result.verdict == "saturated"


def test_resolution_and_factoring():
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("a", TypeSig((), s))
    sig.declare_fn("p", TypeSig((s,), BOOL))
    ctx = TypeContext.of(sig)
    resolved = run_clauses(
        [
            Clause((Literal(True, App("p", (Var("X"),))),), {"X": s}),
            Clause((Literal(False, App("p", (App("a"),))),), {}),
        ],
        AXIOM_MODE,
        ctx=ctx,
    )
    assert resolved.verdict == "refuted"

    factored = run_clauses(
        [
            Clause(
                (
                    Literal(True, App("p", (Var("X"),))),
                    Literal(True, App("p", (App("a"),))),
                ),
                {"X": s},
            )
        ],
        AXIOM_MODE,
        ctx=ctx,
    )
    rendered = {c.render() for c in factored.clauses.values()}
    assert "p(a)" in rendered
    assert factored.stats["factoring"] >= 1


def test_equality_resolution_closes_identical_sides():
    sig = Signature()
    sig.declare_fn("ab", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    result = run_clauses(
        [
            Clause((Literal(True, App("ab"), TRUE),), {}),
            Clause((Literal(False, App("ab"), TRUE),), {}),
        ],
        AXIOM_MODE,
        ctx=ctx,
    )
    assert result.verdict == "refuted"


def test_saturate_two_rewrites_and_conflict():
    sig = Signature()
    sig.declare_fn("ab", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    clauses = [
        Clause((Literal(True, App("ab"), TRUE),), {}),
        Clause((Literal(True, App("ab"), FALSE),), {}),
        Clause((Literal(False, TRUE, FALSE),), {}),
    ]
    for mode in (AXIOM_MODE, RULE_MODE):
        result = run_clauses(clauses, mode, ctx=ctx)
        assert result.verdict == "refuted"


def test_limit_verdict():
    clause4 = Clause(
        (Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)), {"X": BOOL}
    )
    result = run_clauses([clause4], AXIOM_MODE, max_clauses=5)
    assert result.verdict == "limit"


def test_a_shorter_later_clause_subsumes_a_passive_one():
    """p(X) | fb(X) enters the passive set first; p(Y), rewritten from
    p(f(Y)) by f(X) = X, is generated later and selected before it, so
    the longer clause is dropped at selection and never processed."""
    clauses = [
        Clause(
            (Literal(True, App("p", (Var("X"),))), Literal(True, App("fb", (Var("X"),)))),
            {"X": S},
        ),
        Clause((Literal(True, App("f", (Var("X"),)), Var("X")),), {"X": S}),
        Clause((Literal(True, App("p", (App("f", (Var("Y"),)),))),), {"Y": S}),
    ]
    result = run_clauses(clauses, AXIOM_MODE)
    kept = [c.render() for c in result.clauses.values()]
    assert kept == ["f(X) = X", "p(f(Y))", "p(V1)"]
    assert result.verdict == "saturated"
    assert (result.stats["subsumed"], result.stats["processed"]) == (1, 3)


def test_rule_mode_drops_domain_clause_keeps_distinctness():
    clause4 = Clause(
        (Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)), {"X": BOOL}
    )
    distinct = Clause((Literal(False, TRUE, FALSE),), {})
    result = run_clauses([clause4, distinct], RULE_MODE)
    assert result.stats["bool_axiom_clauses_removed"] == 1
    assert result.stats["var_var_equation_clauses"] == 0
    kept = [c.render() for c in result.clauses.values()]
    assert kept == ["$true != $false"]


def test_proof_dag_well_formed():
    sig = Signature()
    sig.declare_fn("ab", TypeSig((), BOOL))
    ctx = TypeContext.of(sig)
    clauses = [
        Clause((Literal(True, App("ab"), TRUE),), {}),
        Clause((Literal(True, App("ab"), FALSE),), {}),
        Clause((Literal(False, TRUE, FALSE),), {}),
    ]
    result = run_clauses(clauses, AXIOM_MODE, ctx=ctx)
    proof = result.proof()
    assert proof[-1].is_empty
    seen = set()
    for clause in proof:
        for parent in clause.parents:
            assert parent in seen
        if not clause.is_empty:
            seen.add(clause.id)
    text = result.render_proof()
    assert text.splitlines()[-1].startswith("0. $false [")


def test_derived_clauses_are_consequences():
    """Soundness spot-check by enumeration: every model of the input
    clauses satisfies every derived clause (ground fixture)."""
    sig = Signature()
    s = sig.declare_sort("s")
    sig.declare_fn("a", TypeSig((), s))
    sig.declare_fn("fb", TypeSig((s,), BOOL))
    sig.declare_fn("p2", TypeSig((BOOL,), BOOL))
    ctx = TypeContext.of(sig)
    inputs = [
        Clause((Literal(True, App("p2", (App("fb", (App("a"),)),))),), {}),
        Clause((Literal(True, App("fb", (App("a"),)), TRUE),), {}),
        Clause((Literal(False, App("p2", (TRUE,))),), {}),
    ]
    result = run_clauses(inputs, RULE_MODE, ctx=ctx)
    spec = DomainSpec({s: 2})

    def clause_formula(clause):
        parts = []
        for lit in clause.literals:
            atom = Eq(lit.lhs, lit.rhs) if lit.is_equation else lit.lhs
            parts.append(atom if lit.positive else lnot(atom))
        if not parts:
            return Eq(TRUE, FALSE)
        out = parts[0]
        for p in parts[1:]:
            out = lor(out, p)
        binds = sorted(clause.variables())
        return forall_prefix([(v, clause.var_sorts[v]) for v in binds], out)

    inputs_formula = clause_formula(inputs[0])
    for c in inputs[1:]:
        inputs_formula = land(inputs_formula, clause_formula(c))

    for interp in enumerate_interpretations(ctx, spec, ["a", "fb", "p2"]):
        if models(interp, inputs_formula):
            for clause in result.clauses.values():
                assert models(interp, clause_formula(clause))


def test_refutation_agreement_with_oracle():
    """A refuted pipeline problem is genuinely unsatisfiable: the oracle
    finds no model of its clause set."""
    text = """\
tff(s_s, type, s : $tType).
tff(d_c, type, c : s).
tff(d_p, type, p : $o > $o).
tff(a1, axiom, p($true)).
tff(a2, axiom, p($false)).
tff(c1, conjecture, ![X : $o] : p(X)).
"""
    fol = translate_text(text)
    result = clausify(fol)
    for mode in (AXIOM_MODE, RULE_MODE):
        outcome = saturate(result.clauses, result.ctx, ProverConfig(bool_mode=mode))
        assert outcome.verdict == "refuted"


# ---------------------------------------------------------------------------
# the search itself is pinned: verdicts, counters and proofs, recorded by
# tests/record_prover_search.py

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEARCH = json.loads((GOLDEN / "prover_search.json").read_text())
# the clause cap of the pinned counters, by mode
PINNED_CAP = {AXIOM_MODE: 500, RULE_MODE: 5000}


def _clausified(entries):
    out = []
    for name, text in entries:
        result = clausify(translate_text(text))
        out.append((name, result.clauses, result.ctx))
    return out


def _pinned_problems(mode, entries):
    """The corpus ``entries`` clausified, then bench k = 1, 2, 3 with the
    mode's support clauses."""
    problems = _clausified(entries)
    for k in (1, 2, 3):
        clauses, ctx = bench_fixture(k)
        problems.append((f"bench-k{k}", clauses + _support_clauses(mode), ctx))
    return problems


def _pinned_search(mode, clauses, ctx, max_clauses=None):
    config = ProverConfig(
        bool_mode=mode, max_clauses=max_clauses or PINNED_CAP[mode], max_seconds=60
    )
    return saturate(clauses, ctx, config)


def pinned_counters(mode, entries) -> dict:
    """Verdict and stats of each problem ``_pinned_problems`` lists, in
    its order, at the mode's pinned cap."""
    out = {}
    for name, clauses, ctx in _pinned_problems(mode, entries):
        outcome = _pinned_search(mode, clauses, ctx)
        out[name] = [outcome.verdict, outcome.stats]
    return out


def refutation_proofs() -> dict:
    """The proof of each refutation problem in both modes, at a
    5000-clause cap."""
    out = {}
    for name, clauses, ctx in _clausified(corpus.REFUTATION):
        for mode in (AXIOM_MODE, RULE_MODE):
            outcome = _pinned_search(mode, clauses, ctx, max_clauses=5000)
            out[f"{name}/{mode}"] = outcome.render_proof()
    return out


def test_axiom_mode_counters_are_pinned():
    assert pinned_counters(AXIOM_MODE, corpus.SATISFIABLE) == SEARCH["stats"]


def test_rule_mode_counters_are_pinned():
    got = pinned_counters(RULE_MODE, corpus.SATISFIABLE + corpus.REFUTATION)
    assert got == SEARCH["rule_stats"]


def test_refutation_proofs_are_pinned():
    assert refutation_proofs() == SEARCH["proofs"]


def _ill_sorted(clause, ctx) -> list[str]:
    """The variables of ``clause`` in an argument position of another
    sort, and its equations between two sorts."""

    def sort(t):
        return clause.var_sorts[t.name] if isinstance(t, Var) else ctx.fn_sig(t.fn).result

    faults = []
    for lit in clause.literals:
        if lit.is_equation and sort(lit.lhs) != sort(lit.rhs):
            faults.append(lit.render())
        stack = [lit.lhs, lit.rhs] if lit.is_equation else [lit.lhs]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                continue
            for arg, want in zip(t.args, ctx.fn_sig(t.fn).args):
                if isinstance(arg, Var) and clause.var_sorts[arg.name] != want:
                    faults.append(f"{arg.name} in {t.fn}")
            stack.extend(t.args)
    return faults


def test_kept_clauses_are_well_sorted():
    """Unification compares no sorts, so every kept clause is well-sorted
    only because saturation compares them where a variable meets a term
    at a root; without that, the domain clause rewrites terms of sort s."""
    for mode in (AXIOM_MODE, RULE_MODE):
        for name, clauses, ctx in _pinned_problems(mode, corpus.SATISFIABLE + corpus.REFUTATION):
            for clause in _pinned_search(mode, clauses, ctx).clauses.values():
                assert not _ill_sorted(clause, ctx), (name, mode, clause.render())


def corpus_clauses():
    """``golden/clausify.json``: the clauses of every corpus problem."""
    groups = [
        ("PRESERVATION", corpus.PRESERVATION),
        ("REFUTATION", corpus.REFUTATION),
        ("SATISFIABLE", corpus.SATISFIABLE),
    ]
    got = {}
    for group, entries in groups:
        for name, text, *_ in entries:
            clauses = clausify(translate_text(text)).clauses
            got[f"{group}/{name}"] = [
                [c.render(), {v: str(s) for v, s in c.var_sorts.items()}] for c in clauses
            ]
    return got


def test_clausify_output_is_pinned():
    """Canonical variable names, clause order and variable sorts."""
    assert corpus_clauses() == json.loads((GOLDEN / "clausify.json").read_text())


CAPPED = json.loads((GOLDEN / "prover_search_capped.json").read_text())


def search_digest(outcome) -> str:
    """A sha256 of every kept clause, one ``id. clause [rule, parents]``
    line each, in id order."""
    lines = []
    for cid in sorted(outcome.clauses):
        clause = outcome.clauses[cid]
        note = ", ".join([clause.rule, *map(str, clause.parents)])
        lines.append(f"{cid}. {clause.render()} [{note}]\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _searches_at_the_cap(problems_of) -> dict:
    """Verdict, stats and kept-clause digest of each problem that
    ``problems_of(mode)`` lists, in both modes at the 2000-clause cap."""
    out = {}
    for mode in (AXIOM_MODE, RULE_MODE):
        for name, clauses, ctx in problems_of(mode):
            config = ProverConfig(bool_mode=mode, max_clauses=2000, max_seconds=600)
            outcome = saturate(clauses, ctx, config)
            out[f"{name}/{mode}"] = [outcome.verdict, outcome.stats, search_digest(outcome)]
    return out


def _capped_problems(mode):
    """The satisfiable problems and bench k = 1, 2, 3."""
    problems = _clausified(corpus.SATISFIABLE)
    for k in (1, 2, 3):
        clauses, ctx = bench_fixture(k)
        problems.append((f"bench-k{k}", clauses + _support_clauses(mode), ctx))
    return problems


def _refutation_problems(mode):
    return _clausified(corpus.REFUTATION)


def capped_searches() -> dict:
    """The satisfiable problems and bench k = 1, 2, 3 in both modes, at the
    benchmark's 2000-clause cap."""
    return _searches_at_the_cap(_capped_problems)


def refutation_searches() -> dict:
    """The refutation problems in both modes, at the benchmark's
    2000-clause cap: axiom mode's counters are pinned nowhere else."""
    return _searches_at_the_cap(_refutation_problems)


def test_capped_searches_are_pinned():
    assert capped_searches() == CAPPED


def test_refutation_searches_are_pinned():
    golden = json.loads((GOLDEN / "prover_search_refutation.json").read_text())
    assert refutation_searches() == golden


def test_pinned_capped_searches_end_at_their_cap():
    """The cap is checked on every counted conclusion, so a search that
    hits it has generated exactly ``max_clauses``, never more."""
    refutation = json.loads((GOLDEN / "prover_search_refutation.json").read_text())
    pins = [
        (PINNED_CAP[AXIOM_MODE], SEARCH["stats"].values()),
        (PINNED_CAP[RULE_MODE], SEARCH["rule_stats"].values()),
        (2000, [entry[:2] for entry in CAPPED.values()]),
        (2000, [entry[:2] for entry in refutation.values()]),
    ]
    capped = 0
    for cap, entries in pins:
        for verdict, stats in entries:
            assert (verdict == "limit") == (stats["generated"] == cap), (verdict, stats)
            capped += verdict == "limit"
    assert capped >= 12


def test_a_capped_search_stops_at_its_cap_whatever_the_last_conclusion():
    """At each cap from 2 to 150, bench k = 1 in axiom mode stops with
    exactly the cap generated, whether its last conclusion was a
    tautology or went to the passive set."""
    clauses, ctx = bench_fixture(1)
    inputs = clauses + _support_clauses(AXIOM_MODE)
    last_fates = set()
    tautologies = None
    for cap in range(2, 151):
        outcome = run_clauses(inputs, AXIOM_MODE, ctx=ctx, max_clauses=cap)
        assert (outcome.verdict, outcome.stats["generated"]) == ("limit", cap)
        if tautologies is not None:
            last_fates.add(outcome.stats["tautologies"] - tautologies)
        tautologies = outcome.stats["tautologies"]
    assert last_fates == {0, 1}


def test_an_empty_clause_counted_at_the_cap_still_refutes():
    """``a != b`` and ``X = Y`` resolve to the empty clause as the 7th and,
    with ``X = Y`` read the other way round, the 8th conclusion: a cap of
    7 ends the search with the first of them, and a larger cap with the
    round that found it."""
    inputs = [
        Clause((Literal(False, App("a"), App("b")),), {}),
        Clause((Literal(True, Var("X"), Var("Y")),), {"X": S, "Y": S}),
    ]
    for cap in range(1, 11):
        outcome = run_clauses(inputs, AXIOM_MODE, max_clauses=cap)
        want = ("limit", cap) if cap < 7 else ("refuted", min(cap, 8))
        assert (outcome.verdict, outcome.stats["generated"]) == want, cap
    # each pinned refutation refutes with its last conclusion: at a cap of
    # that many conclusions it still does, and one fewer is a limit
    golden = json.loads((GOLDEN / "prover_search_refutation.json").read_text())
    for name, clauses, ctx in _refutation_problems(None):
        for mode in (AXIOM_MODE, RULE_MODE):
            generated = golden[f"{name}/{mode}"][1]["generated"]
            for cap, verdict in ((generated, "refuted"), (generated - 1, "limit")):
                outcome = run_clauses(clauses, mode, ctx=ctx, max_clauses=cap)
                assert (outcome.verdict, outcome.stats["generated"]) == (verdict, cap), name


@pytest.mark.parametrize("problems_of", [_capped_problems, _refutation_problems])
def test_activation_is_exact(problems_of):
    """Each pinned search processes exactly the clauses it keeps, and no
    processed clause is subsumed by one processed before it."""
    for mode in (AXIOM_MODE, RULE_MODE):
        config = ProverConfig(bool_mode=mode, max_clauses=2000, max_seconds=600)
        for name, clauses, ctx in problems_of(mode):
            engine = saturation._Saturation(ctx, config)
            outcome = engine.run(clauses)
            processed = [copy.clause.id for copy, _ in engine.processed]
            assert len(set(processed)) == len(processed)
            assert set(outcome.clauses) == set(processed), (name, mode)
            earlier = []
            for cid in processed:
                clause = outcome.clauses[cid]
                assert not any(subsumes_by_variant(d, clause) for d in earlier), (
                    name, mode, clause.render()
                )
                earlier.append(clause)


class _Forgetful(dict):
    """A cache that stores nothing."""

    def __setitem__(self, key, value):
        pass


def test_each_renamed_copy_is_made_once_per_run(monkeypatch):
    """The loop renames a kept clause at most once per first V number,
    walks each eligible literal of a copy at most once, and searches as a
    run that renames afresh for every pair does."""
    clauses, ctx = bench_fixture(2)
    inputs = clauses + _support_clauses(AXIOM_MODE)
    config = ProverConfig(bool_mode=AXIOM_MODE, max_clauses=2000, max_seconds=600)
    rename = saturation.rename_variables
    positions = saturation.term_positions

    def run(cache):
        keys = []
        walks = []

        def recording(clause, names, start):
            keys.append((clause.id, start))
            return rename(clause, names, start)

        def walking(lit):
            # axiom mode walks terms for copies only, each after its renaming
            walks.append((keys[-1], lit))
            return positions(lit)

        monkeypatch.setattr(saturation, "rename_variables", recording)
        monkeypatch.setattr(saturation, "term_positions", walking)
        engine = saturation._Saturation(ctx, config)
        if cache is not None:
            engine.copies = cache
        outcome = engine.run(inputs)
        return [outcome.verdict, outcome.stats, search_digest(outcome)], keys, walks, engine

    cached, keys, walks, engine = run(None)
    reference, reference_keys, _, _ = run(_Forgetful())
    assert len(keys) == len(set(keys))
    assert len(set(reference_keys)) == len(set(keys)) < len(reference_keys)
    assert walks and len(walks) == len(set(walks))
    for (cid, start), lit in walks:
        copy = engine.copies[cid, start].clause
        assert lit in [copy.literals[i] for i in engine.eligible[cid]]
    assert cached == reference == CAPPED["bench-k2/axiom"]


def test_deadline_is_checked_between_partners(monkeypatch):
    clauses, ctx = bench_fixture(3)
    inputs = clauses + _support_clauses(AXIOM_MODE)
    config = ProverConfig(bool_mode=AXIOM_MODE, max_clauses=10**9, max_seconds=0.2)
    started = time.monotonic()
    assert saturate(inputs, ctx, config).verdict == "limit"
    assert time.monotonic() - started < 1.0
    # With a clock that ticks once per reading, a limit of 20 ticks is
    # hit inside the partner loop of the fifth given clause; checked only
    # between given clauses, it would be hit after the twentieth.
    ticks = itertools.count()
    monkeypatch.setattr(saturation, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    config = ProverConfig(bool_mode=AXIOM_MODE, max_clauses=10**9, max_seconds=20)
    outcome = saturate(inputs, ctx, config)
    assert (outcome.verdict, outcome.stats["processed"]) == ("limit", 5)


# ---------------------------------------------------------------------------
# the subsumption index answers exactly as a scan with subsumes_by_variant

_terms = st.recursive(
    st.sampled_from([Var("X"), Var("Y"), Var("Z"), App("a"), App("b")]),
    lambda sub: st.one_of(
        st.builds(lambda t: App("f", (t,)), sub),
        st.builds(lambda x, y: App("g2", (x, y)), sub, sub),
    ),
    max_leaves=4,
)
_variables = st.sampled_from([Var("X"), Var("Y"), Var("Z")])
# the last two strategies draw few shapes, such as p(X) and p(Y) or X = a
# and Y = a, so that clauses often have several literals of one shape
_literals = st.one_of(
    st.builds(Literal, st.booleans(), _terms, _terms),
    st.builds(lambda positive, t: Literal(positive, App("p", (t,))), st.booleans(), _terms),
    st.builds(lambda positive, x: Literal(positive, App("p", (x,))), st.booleans(), _variables),
    st.builds(Literal, st.booleans(), _variables, st.sampled_from([App("a"), App("b")])),
)
_clauses = st.lists(_literals, min_size=1, max_size=3).map(lambda lits: Clause(tuple(lits)))


def _disguised(data, clause):
    """The clause with its variables renamed, some equations swapped, more
    literals added and the literals shuffled: still subsumed by clause."""
    fresh = data.draw(st.permutations(["U", "V", "W"]))
    renaming = {name: Var(fresh[i]) for i, name in enumerate(sorted(clause.variables()))}
    literals = []
    for lit in clause.literals:
        lit = apply_subst_literal(lit, renaming)
        if lit.is_equation and data.draw(st.booleans()):
            lit = Literal(lit.positive, lit.rhs, lit.lhs)
        literals.append(lit)
    literals += data.draw(st.lists(_literals, max_size=2))
    return Clause(tuple(data.draw(st.permutations(literals))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_variant_index_agrees_with_scan(data):
    kept = data.draw(st.lists(_clauses, min_size=1, max_size=6))
    index = VariantIndex()
    for clause in kept:
        index.add(clause)
    disguised = _disguised(data, data.draw(st.sampled_from(kept)))
    assert index.find(disguised) is not None
    for query in (data.draw(_clauses), disguised):
        found = index.find(query)
        assert (found is not None) == any(subsumes_by_variant(c, query) for c in kept)
        assert found is None or (found in kept and subsumes_by_variant(found, query))


def _reference_match_literal(a, b, renaming):
    """Every extension of an injective variable renaming that maps a onto
    b exactly, an equation's sides either way round."""
    if a.positive != b.positive or a.is_equation != b.is_equation:
        return []

    def match_term(x, y, ren):
        if isinstance(x, Var):
            if not isinstance(y, Var):
                return None
            bound = ren.get(x.name)
            if bound is not None:
                return ren if bound == y.name else None
            if y.name in ren.values():
                return None
            return {**ren, x.name: y.name}
        if not isinstance(y, App) or x.fn != y.fn or len(x.args) != len(y.args):
            return None
        for xa, ya in zip(x.args, y.args):
            ren = match_term(xa, ya, ren)
            if ren is None:
                return None
        return ren

    orientations = [(b.lhs, b.rhs), (b.rhs, b.lhs)] if a.is_equation else [(b.lhs, b.rhs)]
    out = []
    for left, right in orientations:
        ren = match_term(a.lhs, left, renaming)
        if ren is not None and a.is_equation:
            ren = match_term(a.rhs, right, ren)
        if ren is not None:
            out.append(ren)
    return out


def _reference_subsumes(c, d):
    """``subsumes_by_variant`` as first written: every literal of c is
    tried against every unused literal of d, whatever its shape."""
    if len(c.literals) > len(d.literals):
        return False

    def assign(i, used, renaming):
        if i == len(c.literals):
            return True
        for j, target in enumerate(d.literals):
            if j in used:
                continue
            for got in _reference_match_literal(c.literals[i], target, renaming):
                if assign(i + 1, used | {j}, got):
                    return True
        return False

    return assign(0, set(), {})


def test_variant_test_tries_both_orientations_of_an_equation():
    """``Y != X`` maps onto ``U != V`` only as ``X -> U, Y -> V``, which the
    second literal needs; the first orientation that matches is not it."""
    c = Clause((Literal(False, Var("Y"), Var("X")), Literal(False, App("p", (Var("X"),)))))
    d = Clause((Literal(False, Var("U"), Var("V")), Literal(False, App("p", (Var("U"),)))))
    assert subsumes_by_variant(c, d) and subsumes_by_variant(d, c) and is_variant(c, d)
    index = VariantIndex()
    index.add(c)
    assert index.find(d) is c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_subsumes_by_variant_agrees_with_the_unfiltered_search(data):
    c = data.draw(_clauses)
    for d in (data.draw(_clauses), _disguised(data, c), c):
        assert subsumes_by_variant(c, d) == _reference_subsumes(c, d)
        assert subsumes_by_variant(d, c) == _reference_subsumes(d, c)


# ---------------------------------------------------------------------------
# the literal ordering agrees with its Counter-based definition


def _counter_multiset(lit):
    rhs = lit.rhs if lit.rhs is not None else TRUE
    ms = Counter()
    for side in (lit.lhs, rhs):
        ms[side] += 1 if lit.positive else 2
    return ms


def _counter_multiset_greater(a, b):
    if a == b:
        return False
    only_a = a - b
    only_b = b - a
    return all(any(kbo_greater(x, y) for x in only_a) for y in only_b)


def _reference_literal_greater(l1, l2):
    return _counter_multiset_greater(_counter_multiset(l1), _counter_multiset(l2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_literals, _literals)
def test_literal_greater_agrees_with_counter_multisets(l1, l2):
    assert literal_greater(l1, l2) == _reference_literal_greater(l1, l2)
    assert literal_greater(l1, l1) is False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_literals, _literals)
def test_a_greater_literal_has_all_variables_of_the_smaller(l1, l2):
    """The premise of the variable-set filter in maximal_literal_indices."""
    if literal_greater(l1, l2):
        assert Clause((l2,)).variables() <= Clause((l1,)).variables()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_literals, min_size=1, max_size=7))
def test_maximal_literals_agree_with_counter_multisets(literals):
    expected = [
        i
        for i, lit in enumerate(literals)
        if not any(
            _reference_literal_greater(other, lit)
            for j, other in enumerate(literals)
            if j != i
        )
    ]
    assert maximal_literal_indices(Clause(tuple(literals))) == expected


# ---------------------------------------------------------------------------
# substitution shares what it leaves unchanged; renaming numbers as before


def test_apply_subst_returns_unbound_subterms_unchanged():
    ground = App("g2", (App("f", (App("a"),)), App("b")))
    term = App("g2", (ground, App("f", (Var("X"),))))
    assert apply_subst(term, {"Y": App("a")}) is term
    assert apply_subst(ground, {"X": App("b")}) is ground
    got = apply_subst(term, {"X": App("b")})
    assert got == App("g2", (ground, App("f", (App("b"),))))
    assert got.args[0] is ground
    lit = Literal(True, ground, Var("X"))
    assert apply_subst_literal(lit, {"Y": App("a")}) is lit
    assert apply_subst_literal(lit, {"X": App("a")}).lhs is ground


def _naive_subst(t, subst):
    """t under subst, every application rebuilt."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    return App(t.fn, [_naive_subst(a, subst) for a in t.args])


def _assert_unbound_shared(t, got, subst):
    """Every subterm of t holding no variable that subst binds is, in got,
    the same object."""
    if not any(name in subst for name in term_vars(t, [])):
        assert got is t
    elif isinstance(t, App):
        for a, b in zip(t.args, got.args):
            _assert_unbound_shared(a, b, subst)


# W is never bound, so results also hold variables the substitution leaves
_subst_terms = st.recursive(
    st.sampled_from([Var("X"), Var("Y"), Var("Z"), Var("W"), App("a"), App("b")]),
    lambda sub: st.one_of(
        st.builds(lambda t: App("f", (t,)), sub),
        st.builds(lambda x, y: App("g2", (x, y)), sub, sub),
    ),
    max_leaves=10,
)
_substs = st.dictionaries(st.sampled_from(["X", "Y", "Z"]), _subst_terms, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_subst_terms, _subst_terms, st.booleans(), st.booleans(), _substs)
def test_apply_subst_agrees_with_a_naive_reference(s, t, positive, equation, subst):
    got = apply_subst(s, subst)
    assert got == _naive_subst(s, subst)
    _assert_unbound_shared(s, got, subst)
    lit = Literal(positive, s, t) if equation else Literal(positive, App("p", (s,)))
    got = apply_subst_literal(lit, subst)
    assert got == Literal(positive, *(_naive_subst(side, subst) for side in lit.terms()))
    if not any(name in subst for side in lit.terms() for name in term_vars(side, [])):
        assert got is lit
    for side, new in zip(lit.terms(), got.terms()):
        _assert_unbound_shared(side, new, subst)
    for name in ("X", "Y", "Z", "W"):
        assert occurs(name, s) == (name in term_vars(s, []))


def _reference_replace_in_literal(lit, side, path, new):
    if side == 0:
        return Literal(lit.positive, replace_at(lit.lhs, path, new), lit.rhs)
    return Literal(lit.positive, lit.lhs, replace_at(lit.rhs, path, new))


def _reference_rest(literals, skip, theta):
    return [apply_subst_literal(x, theta) for k, x in enumerate(literals) if k != skip]


def _terms_over(names):
    leaves = [App("a"), App("b"), *(Var(name) for name in names)]
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda t: App("f", (t,)), sub),
            st.builds(lambda x, y: App("g2", (x, y)), sub, sub),
        ),
        max_leaves=4,
    )


_sorted_clauses = _clauses.map(lambda c: Clause(c.literals, {v: S for v in "XYZ"}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_pass_conclusions_agree_with_substituting_afterwards(data):
    """A paramodulant built as ``paramodulate`` builds it, in one pass with
    ``r`` substituted once, equals the target literal with ``r`` put in
    and then substituted, beside the other literals of both premises
    substituted; resolvents and the rest are the last two parts alone.
    Every literal that theta leaves unchanged comes back as itself."""
    first, count = rename_clause(data.draw(_sorted_clauses), 0)
    second, _ = rename_clause(data.draw(_sorted_clauses), count)
    names = sorted({**first.var_sorts, **second.var_sorts})
    fi = data.draw(st.integers(0, len(first.literals) - 1))
    ii = data.draw(st.integers(0, len(second.literals) - 1))
    ilit = second.literals[ii]
    side, path, sub = data.draw(st.sampled_from(list(term_positions(ilit))))
    source = first.literals[fi]
    l, r = (source.lhs, source.rhs) if source.is_equation else (source.lhs, data.draw(_terms_over(names)))
    thetas = [{}]
    if names:
        thetas.append(data.draw(st.dictionaries(st.sampled_from(names), _terms_over(names), max_size=3)))
    unifier = mgu(l, sub)
    if unifier is not None:
        thetas.append(unifier)
    theta = data.draw(st.sampled_from(thetas))

    got = [saturation._rewritten(ilit, side, path, apply_subst(r, theta), theta)]
    saturation._add_rest(got, first, fi, theta)
    saturation._add_rest(got, second, ii, theta)
    want = [
        apply_subst_literal(_reference_replace_in_literal(ilit, side, path, r), theta),
        *_reference_rest(first.literals, fi, theta),
        *_reference_rest(second.literals, ii, theta),
    ]
    assert got == want
    others = [x for k, x in enumerate(first.literals) if k != fi]
    others += [x for k, x in enumerate(second.literals) if k != ii]
    for lit, new in zip(others, got[1:]):
        if not any(name in theta for t in lit.terms() for name in term_vars(t, [])):
            assert new is lit


def test_rename_clause_numbers_only_occurring_variables_in_sorted_order():
    # B is listed but does not occur; the variables are numbered A, Y
    clause = Clause(
        (Literal(True, App("g2", (Var("Y"), Var("A"))), App("f", (Var("Y"),))),),
        {"Y": S, "B": BOOL, "A": S},
        id=7,
    )
    renamed, count = rename_clause(clause, 3)
    assert count == 5
    assert renamed.render() == "g2(V4, V3) = f(V4)"
    assert renamed.var_sorts == {"V3": S, "V4": S}
    assert renamed.id == 7


# ---------------------------------------------------------------------------
# clause-level rules against their pairwise definitions


def _mgu_fold(pairs):
    """Unify the pairs one after another with ``mgu``, composing as it goes."""
    subst = {}
    for a, b in pairs:
        got = mgu(apply_subst(a, subst), apply_subst(b, subst))
        if got is None:
            return None
        subst = {key: apply_subst(value, got) for key, value in subst.items()}
        subst.update(got)
    return subst


def _unifiers(l1, l2):
    if l1.is_equation != l2.is_equation:
        return []
    if l1.is_equation:
        candidates = [[(l1.lhs, l2.lhs), (l1.rhs, l2.rhs)], [(l1.lhs, l2.rhs), (l1.rhs, l2.lhs)]]
    elif l1.lhs.fn == l2.lhs.fn:
        candidates = [list(zip(l1.lhs.args, l2.lhs.args))]
    else:
        candidates = []
    return [got for pairs in candidates if (got := _mgu_fold(pairs)) is not None]


def _equal_atoms(x, y):
    if x.is_equation != y.is_equation:
        return False
    return (x.lhs, x.rhs) == (y.lhs, y.rhs) or (x.is_equation and (x.lhs, x.rhs) == (y.rhs, y.lhs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_literals, _literals)
def test_unify_atoms_agrees_with_an_mgu_fold(l1, l2):
    assert unify_atoms(l1, l2) == _unifiers(l1, l2)


# besides the literals above: t = t and t != t, and equations between
# two variables, equal or not
_judged_literals = st.one_of(
    _literals,
    st.builds(lambda positive, t: Literal(positive, t, t), st.booleans(), _terms),
    st.builds(Literal, st.booleans(), _variables, _variables),
)


def _echo(lit, how):
    """The literal again, its complement, or its equation sides swapped."""
    if how == "complement":
        return lit.negated()
    if how == "swapped" and lit.is_equation:
        return Literal(lit.positive, lit.rhs, lit.lhs)
    return lit


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_tautology_and_dedup_agree_with_pairwise_definitions(data):
    # up to 12 literals; the pooled ones share their predicate symbol and
    # their equation sides, drawn from a few terms, so atoms often meet
    pool = data.draw(st.lists(_terms, min_size=1, max_size=3))
    side = st.sampled_from(pool)
    pooled = st.one_of(
        st.builds(Literal, st.booleans(), side, side),
        st.builds(lambda positive, t: Literal(positive, App("p", (t,))), st.booleans(), side),
    )
    literals = data.draw(st.lists(st.one_of(_judged_literals, pooled), max_size=9))
    if literals:
        kinds = st.sampled_from(["same", "complement", "swapped"])
        echoes = st.tuples(st.sampled_from(literals), kinds)
        literals += [_echo(lit, how) for lit, how in data.draw(st.lists(echoes, max_size=3))]
    literals = data.draw(st.permutations(literals))
    reflexive = any(x.positive and x.is_equation and x.lhs == x.rhs for x in literals)
    complementary = any(
        x.positive != y.positive and _equal_atoms(x, y)
        for x, y in itertools.combinations(literals, 2)
    )
    kept = []
    for x in literals:
        if not any(x.positive == y.positive and _equal_atoms(x, y) for y in kept):
            kept.append(x)
    var_var = any(
        x.is_equation and isinstance(x.lhs, Var) and isinstance(x.rhs, Var) and x.lhs != x.rhs
        for x in literals
    )
    assert judge_literals(literals) == (tuple(kept), reflexive or complementary, var_var)
    assert var_var == saturation.has_var_var_equation(Clause(tuple(kept)))


def test_judge_literals_keeps_the_first_of_a_swapped_repeat():
    first = Literal(True, App("a"), Var("X"))
    middle = Literal(False, App("p", (Var("X"),)))
    swapped = Literal(True, Var("X"), App("a"))
    kept, tautology, var_var = judge_literals([first, middle, swapped])
    assert kept == (first, middle) and kept[0] is first and not tautology and not var_var
    kept, tautology, _ = judge_literals([swapped, middle, first, first.negated()])
    assert kept == (swapped, middle, first.negated()) and tautology


def _domain_shaped(clause):
    """``x = true | x = false`` up to the variable's name and the order
    of literals and sides."""
    if len(clause.literals) != 2:
        return False
    variables, constants = set(), set()
    for lit in clause.literals:
        if not (lit.positive and lit.is_equation):
            return False
        sides = (lit.lhs, lit.rhs)
        vs = [x for x in sides if isinstance(x, Var)]
        cs = [x for x in sides if isinstance(x, App) and not x.args]
        if len(vs) != 1 or len(cs) != 1:
            return False
        variables.add(vs[0].name)
        constants.add(cs[0])
    return len(variables) == 1 and constants == {TRUE, FALSE}


_domain_sides = st.sampled_from([Var("X"), Var("Y"), TRUE, FALSE, App("a"), App("f", (Var("X"),))])
# two of the four literal strategies give X = true or X = false, either
# way round, so that domain clauses occur beside their near misses
_domain_halves = st.builds(
    lambda c, swap: Literal(True, c, Var("X")) if swap else Literal(True, Var("X"), c),
    st.sampled_from([TRUE, FALSE]),
    st.booleans(),
)
_domain_literals = st.one_of(
    _domain_halves,
    _domain_halves,
    st.builds(Literal, st.booleans(), _domain_sides, _domain_sides),
    st.builds(lambda positive, t: Literal(positive, App("p", (t,))), st.booleans(), _domain_sides),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_domain_literals, _domain_literals)
def test_bool_domain_clause_agrees_with_its_shape(x, y):
    clause = Clause((x, y), {"X": BOOL, "Y": BOOL})
    assert is_bool_domain_clause(clause) == _domain_shaped(clause)


# ---------------------------------------------------------------------------
# public names


def test_public_names_resolve():
    import foolkit
    import foolkit.prover

    for module in (foolkit, foolkit.prover):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace: dict = {}
    exec("from foolkit import *\nfrom foolkit.prover import *", namespace)
    assert set(foolkit.__all__) | set(foolkit.prover.__all__) <= set(namespace)
