"""Helpers shared by the corpus-driven and acceptance tests."""

import copy

from foolkit import DomainSpec, Eq, enumerate_interpretations, models
from foolkit.terms import (
    App,
    BUILTIN_FNS,
    FALSE,
    FORMULA_CONTEXT,
    Forall,
    Let,
    TERM_CONTEXT,
    TRUE,
    child_context,
    children,
    forall_prefix,
    free_fns,
    land,
    lnot,
    lor,
    redex_kind,
)


def domain_spec_for(problem, sizes=None, default=2):
    """Carrier sizes for every user sort of a parsed problem."""
    sizes = sizes or {}
    out = {}
    for name, sort in problem.signature.sorts.items():
        if not sort.is_bool and not name.startswith("$"):
            out[sort] = sizes.get(name, default)
    return DomainSpec(out)


def clause_to_formula(clause):
    """A clause as a closed universally quantified disjunction."""
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


def clauses_to_formula(clauses):
    out = clause_to_formula(clauses[0])
    for c in clauses[1:]:
        out = land(out, clause_to_formula(c))
    return out


def oracle_satisfiable(clauses, ctx, size=2, cap=2_000_000):
    """Exhaustively search for a model of the clause set."""
    phi = clauses_to_formula(clauses)
    symbols = sorted(fn for fn in free_fns(phi) if fn not in BUILTIN_FNS)
    spec_sizes = {
        s: size
        for s in ctx.sig.sorts.values()
        if not s.is_bool and not s.name.startswith("$")
    }
    spec = DomainSpec(spec_sizes)
    for interp in enumerate_interpretations(ctx, spec, symbols, cap=cap):
        if models(interp, phi):
            return True
    return False


def redex_measure(phi):
    """Upper bound on the number of translation steps: if-then-else and
    let nodes, boolean variables in formula contexts, and non-atomic
    boolean terms in term contexts, each read in the context it has once
    the lets above it are lifted: a let's body stands in a term context
    (it becomes an equation side) and its scope in the let's own context
    (it replaces the let in place)."""
    count = 0
    stack = [(phi, FORMULA_CONTEXT)]
    while stack:
        t, context = stack.pop()
        count += redex_kind(t, context) is not None
        for i, kid in enumerate(children(t)):
            if isinstance(t, Let):
                stack.append((kid, TERM_CONTEXT if i == 0 else context))
            else:
                stack.append((kid, child_context(t, i)))
    return count


# ---------------------------------------------------------------------------
# translation-state mutations for the oracle sensitivity checks


def _strip_prefix(d):
    binds = []
    while isinstance(d, Forall):
        binds.append((d.var, d.sort))
        d = d.body
    return binds, d


def with_defs(state, defs):
    """A copy of ``state`` whose definitions are ``defs``."""
    mutated = copy.copy(state)
    mutated.defs = defs
    return mutated


def _with_def(state, i, binds, body):
    defs = list(state.defs)
    defs[i] = forall_prefix(binds, body)
    return with_defs(state, defs)


def mutate_drop(state, *indices):
    """Remove the given definitions entirely."""
    return with_defs(state, [d for i, d in enumerate(state.defs) if i not in indices])


def mutate_flip_guard(state, i):
    """Negate the guard of a conditional definition."""
    binds, body = _strip_prefix(state.defs[i])
    assert isinstance(body, App) and body.fn == "$implies"
    return _with_def(state, i, binds, App("$implies", (lnot(body.args[0]), body.args[1])))


def mutate_swap_branches(state, i, j):
    """Exchange the right-hand sides of a guarded equation pair."""
    bi, bodyi = _strip_prefix(state.defs[i])
    bj, bodyj = _strip_prefix(state.defs[j])
    eqi, eqj = bodyi.args[1], bodyj.args[1]
    state = _with_def(
        state, i, bi, App("$implies", (bodyi.args[0], Eq(eqi.left, eqj.right)))
    )
    return _with_def(
        state, j, bj, App("$implies", (bodyj.args[0], Eq(eqj.left, eqi.right)))
    )


def mutate_negate_named(state, i):
    """Negate the formula captured by a naming definition."""
    binds, body = _strip_prefix(state.defs[i])
    assert isinstance(body, App) and body.fn == "$iff"
    return _with_def(state, i, binds, App("$iff", (lnot(body.args[0]), body.args[1])))


def mutate_wrong_constant(state, i):
    """Point a naming definition at false instead of true."""
    binds, body = _strip_prefix(state.defs[i])
    atom = body.args[1]
    return _with_def(
        state, i, binds, App(body.fn, (body.args[0], Eq(atom.left, FALSE)))
    )


def named_texts():
    """(name, text) for every corpus problem and fixture."""
    import corpus
    import fixtures

    groups = [
        ("PRESERVATION", corpus.PRESERVATION),
        ("REFUTATION", corpus.REFUTATION),
        ("SATISFIABLE", corpus.SATISFIABLE),
        ("fixtures", [
            ("VERIFICATION_LISTING", fixtures.VERIFICATION_LISTING),
            ("CONTAINS_ITE", fixtures.CONTAINS_ITE),
            ("SUBSET_SORTED", fixtures.SUBSET_SORTED),
        ]),
    ]
    return [(f"{group}/{name}", text) for group, entries in groups for name, text, *_ in entries]


# Pieces a text mutation inserts: tokens of every kind, tokens the
# dialect reserves or rejects, characters the lexer rejects, and the
# shapes that make an emitted problem compare booleans.
TEXT_SNIPPETS = (
    "(", ")", ",", ".", ":", "[", "]", "=", "!=", "~", "&", "|", "=>", "<=>",
    "<~>", "!", "?", "*", ">", ":=", "$o", "$i", "$int", "$tType", "$true",
    "$false", "$ite", "$let", "$ite_t", "$let_tt", "$sum", "$greater", "$foo",
    "X", "Y", "x", "c", "f(", "p(c)", "'q r'", "'", "\\", "12", "@", "%", "\n",
    " ", "tff(", "include", "axiom", "type", "conjecture", "lemma",
    " = $true", "$true = ", " = p(c)", "sk_fool_1", "'fool_bool'",
)


def mutate_text(rng, text):
    """One seeded truncation, insertion, deletion or replacement, or an
    equation with a truth constant after a closing parenthesis, where an
    atom may end."""
    kind = rng.randrange(5)
    at = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:at]
    if kind == 1:
        return text[:at] + rng.choice(TEXT_SNIPPETS) + text[at:]
    if kind == 4:
        ends = [i + 1 for i, char in enumerate(text) if char == ")"] or [at]
        at = rng.choice(ends)
        return text[:at] + rng.choice((" = $true", " != $false")) + text[at:]
    end = min(len(text), at + rng.randint(1, 8))
    if kind == 2:
        return text[:at] + text[end:]
    return text[:at] + rng.choice(TEXT_SNIPPETS) + text[end:]
