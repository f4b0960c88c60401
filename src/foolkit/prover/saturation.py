"""Given-clause saturation with ordered paramodulation and a dedicated
boolean inference rule.

Two ways to handle the two-element boolean domain:

  * axiom mode keeps the clause ``x = true | x = false`` (and pays for
    its self-paramodulation);
  * rule mode drops that clause and instead derives, from any clause
    containing a non-variable boolean subterm s other than a truth
    constant, the clause ``C[true] | s = false``.

The loop is the DISCOUNT loop (Denzinger, Kronenburg and Schulz, JAR
1997): a clause is judged when it is selected, not when it is generated.
``record_new`` counts a conclusion and, in one pass over its literals,
drops repeats and finds a tautology and a variable-variable equation;
any other clause but the empty one goes onto the passive heap with its
id, unjudged.  The cap ``max_clauses`` is checked there, on every
conclusion counted, so a capped search ends with exactly that many
generated; an empty clause counted by then still wins.  ``activate``
tests a popped clause against the active clauses only.  A survivor's
literal data is derived once, there: its variable sorts trimmed to the
variables that occur, its eligible literals, its sorted variable names
and, in the index, its literal shapes.

Each conclusion is built in one pass.  A paramodulant's rewritten
literal is the target literal under the unifier with the instance of
the rewriting side, made once for the ordering check, put at the
rewritten position (``_rewritten``).  The other literals of a premise
are taken as they are when the unifier binds none of its variables
(``_add_rest``); premises are renamed apart, so that is often the case.

The given-clause loop alone renames premises apart, from those variable
names: each given clause to ``V0, V1, ...``, and per pair a copy of the
other side shifted past it, so paramodulation and resolution rename
nothing.  A copy is kept by clause and first V number for the rest of
the run, so each is made once however many pairs use it.  It carries
what paramodulation needs of it, derived when it is made: its
paramodulation sources, each eligible positive equation in both
orientations, and its targets, each non-variable term position of each
eligible literal.  A pair of copies then pairs sources with targets and
walks no term.

Literal selection is select-nothing: all maximal literals are eligible.
The renamed copies the binary rules work on have the same ones as the
active clause, because the ordering does not change under an injective
renaming of variables.

Unification is sort-free.  Without subsorts, well-sorted terms unify
ill-sortedly only at a root pair of a variable and a term of another
sort, so ``_Saturation.sort_of`` compares sorts there alone: a variable
paramodulation source with its target, and two paired equations.

Redundancy handling is tautology deletion plus subsumption by variable
renaming at selection, nothing stronger.  The heap pops the fewest
literals, then the lowest id, so a subsumer is selected before what it
subsumes, and a passive clause that a shorter later one subsumes is
dropped too.  Candidates come from an index over the active clauses'
literal shapes (``VariantIndex``).
"""

from __future__ import annotations

import heapq
import time
from typing import NamedTuple

from ..terms import (
    App,
    BOOL,
    FALSE,
    FALSE_NAME,
    Record,
    Sort,
    TRUE,
    Term,
    TRUE_NAME,
    TypeContext,
    Var,
)
from .clauses import Clause, Literal, judge_literals, term_positions
from .ordering import kbo_greater_or_equal, maximal_literal_indices
from .unification import (
    Subst,
    VariantIndex,
    apply_subst,
    apply_subst_literal,
    is_variant,
    mgu,
    rename_variables,
    unify,
    unify_atoms,
)

AXIOM_MODE = "axiom"
RULE_MODE = "rule"


class ProverConfig(Record):
    """The defaults of ``max_clauses`` and ``max_seconds`` are class
    attributes, so the command line can show them."""

    _fields = ("bool_mode", "max_clauses", "max_seconds", "max_processed")
    # cap on generated clauses, input clauses included, checked on each
    # one counted: a capped search ends with exactly this many generated
    max_clauses = 100_000
    max_seconds = 10.0

    def __init__(
        self,
        bool_mode: str = RULE_MODE,
        max_clauses: int = max_clauses,
        max_seconds: float = max_seconds,
        max_processed: int | None = None,  # given-clause budget; None = unlimited
    ) -> None:
        if bool_mode not in (AXIOM_MODE, RULE_MODE):
            raise ValueError(f"bool_mode must be 'axiom' or 'rule', not {bool_mode!r}")
        self.bool_mode, self.max_clauses, self.max_seconds = bool_mode, max_clauses, max_seconds
        self.max_processed = max_processed


class SaturationResult(Record):
    __slots__ = _fields = ("verdict", "empty_clause", "clauses", "stats")

    def __init__(
        self, verdict: str, empty_clause: Clause | None, clauses: dict[int, Clause], stats: dict[str, float]
    ) -> None:
        self.verdict = verdict  # refuted | saturated | limit
        self.empty_clause, self.clauses, self.stats = empty_clause, clauses, stats

    def proof(self) -> list[Clause]:
        """Ancestors of the empty clause, parents before children."""
        if self.empty_clause is None:
            return []
        needed: set[int] = set()
        queue = list(self.empty_clause.parents)
        while queue:
            cid = queue.pop()
            if cid in needed:
                continue
            needed.add(cid)
            queue.extend(self.clauses[cid].parents)
        lines = [self.clauses[cid] for cid in sorted(needed)]
        lines.append(self.empty_clause)
        return lines

    def render_proof(self) -> str:
        out = []
        for clause in self.proof():
            ref = ", ".join(str(p) for p in clause.parents)
            note = f"[{clause.rule}, {ref}]" if ref else f"[{clause.rule}]"
            shown_id = 0 if clause.is_empty else clause.id
            out.append(f"{shown_id}. {clause.render()} {note}")
        return "\n".join(out)

    def render_stats(self) -> str:
        return "\n".join(f"{key}={self.stats[key]}" for key in sorted(self.stats))


_DOMAIN_CLAUSE = Clause((Literal(True, Var("X"), TRUE), Literal(True, Var("X"), FALSE)))


def is_bool_domain_clause(clause: Clause) -> bool:
    """A variant of ``x = true | x = false`` over one boolean variable."""
    return is_variant(clause, _DOMAIN_CLAUSE)


def has_var_var_equation(clause: Clause) -> bool:
    return judge_literals(clause.literals)[2]


# ---------------------------------------------------------------------------
# the parts of a conclusion


def _add_rest(out: list[Literal], clause: Clause, skip: int, theta: Subst) -> None:
    """Append the literals of clause other than ``literals[skip]`` to out,
    under theta: as they are when theta binds none of the clause's
    variables, which for a copy renamed apart is when it binds only the
    other premise's."""
    var_sorts = clause.var_sorts
    for name in theta:
        if name in var_sorts:
            for k, lit in enumerate(clause.literals):
                if k != skip:
                    out.append(apply_subst_literal(lit, theta))
            return
    for k, lit in enumerate(clause.literals):
        if k != skip:
            out.append(lit)


def _rewritten(lit: Literal, side: int, path: tuple[int, ...], new: Term, theta: Subst) -> Literal:
    """lit under theta, with new, taken as it is, at the position (side,
    path): the terms along the path are rebuilt once, and only the terms
    beside it are substituted."""
    top = lit.rhs if side else lit.lhs
    nodes = []
    for i in path:
        nodes.append(top)
        top = top.args[i]
    for node, i in zip(reversed(nodes), reversed(path)):
        args = list(node.args)
        for k, a in enumerate(args):
            if k != i:
                args[k] = theta.get(a.name, a) if a.__class__ is Var else apply_subst(a, theta)
        args[i] = new
        new = App(node.fn, args)
    if side:
        return Literal(lit.positive, apply_subst(lit.lhs, theta), new)
    rhs = lit.rhs
    return Literal(lit.positive, new, rhs if rhs is None else apply_subst(rhs, theta))


class _Copy(NamedTuple):
    """A renamed copy of an active clause and its paramodulation data."""

    clause: Clause
    # (fi, l, r): the eligible positive equation fi read as l -> r, both ways
    sources: tuple[tuple[int, Term, Term], ...]
    # (ii, literal, side, path, subterm): each non-variable position of
    # each eligible literal ii
    targets: tuple[tuple[int, Literal, int, tuple[int, ...], Term], ...]


def _make_copy(clause: Clause, eligible: list[int]) -> _Copy:
    sources = []
    targets = []
    for i in eligible:
        lit = clause.literals[i]
        if lit.positive and lit.is_equation:
            sources.append((i, lit.lhs, lit.rhs))
            sources.append((i, lit.rhs, lit.lhs))
        for side, path, sub in term_positions(lit):
            if not isinstance(sub, Var):
                targets.append((i, lit, side, path, sub))
    return _Copy(clause, tuple(sources), tuple(targets))


# ---------------------------------------------------------------------------
# the saturation engine


class _CapReached(Exception):
    """``record_new`` has counted ``max_clauses`` clauses."""


class _Saturation:
    """One given-clause run.

    Counters: ``generated`` counts every input clause and conclusion, each
    also under its rule; ``tautologies`` the ones dropped as such;
    ``subsumed`` the selected clauses an active clause subsumes; and
    ``kept`` the others, which become active and are processed at once,
    so ``kept`` equals ``processed``.

    ``copies`` holds each renamed copy the loop asks for, by clause id and
    first V number, so a copy is made once per run. That bounds it to one
    copy per processed clause and offset, an offset being 0 or the
    variable count of a processed clause. A copy carries its
    paramodulation sources and targets (``_Copy``), so each literal of it
    is walked once per run, not once per pair. The engine lives for one
    ``saturate`` call, and the copies go with it.
    """

    def __init__(self, ctx: TypeContext, config: ProverConfig) -> None:
        self.ctx = ctx
        self.config = config
        self.clauses: dict[int, Clause] = {}
        self.active = VariantIndex()
        # maximal-literal indices and sorted variable names of each active
        # clause, by clause id
        self.eligible: dict[int, list[int]] = {}
        self.variables: dict[int, list[str]] = {}
        # unjudged conclusions by literal count, then id
        self.passive: list[tuple[int, int, Clause]] = []
        # renamed copies of active clauses, by (clause id, first V number)
        self.copies: dict[tuple[int, int], _Copy] = {}
        # each processed clause renamed to V0, V1, ... with its variable count
        self.processed: list[tuple[_Copy, int]] = []
        self.next_id = 1
        self.empty: Clause | None = None
        self.stats: dict[str, float] = {
            "generated": 0,
            "kept": 0,
            "processed": 0,
            "tautologies": 0,
            "subsumed": 0,
            "var_var_equation_clauses": 0,
            "input": 0,
            "paramodulation": 0,
            "fool_paramodulation": 0,
            "resolution": 0,
            "factoring": 0,
            "equality_resolution": 0,
            "bool_axiom_clauses_removed": 0,
        }

    # -- bookkeeping ------------------------------------------------------

    def sort_of(self, t: Term, var_sorts: dict[str, Sort]) -> Sort:
        if isinstance(t, Var):
            return var_sorts[t.name]
        sig = self.ctx.fn_sig(t.fn)
        if sig is None:
            raise KeyError(f"undeclared symbol {t.fn!r} in clause")
        return sig.result

    def record_new(self, literals, var_sorts, rule: str, parents: tuple[int, ...]) -> None:
        """Count a conclusion and keep it, unless it is empty or a
        tautology; raise ``_CapReached`` once ``max_clauses`` are counted."""
        stats = self.stats
        stats["generated"] += 1
        stats[rule] += 1
        literals, tautology, var_var = judge_literals(literals)
        if var_var:
            stats["var_var_equation_clauses"] += 1
        if not literals:
            self.empty = Clause((), {}, 0, rule, parents)
        elif tautology:
            stats["tautologies"] += 1
        else:
            # var_sorts is the caller's dict until the clause is activated
            clause = Clause(literals, var_sorts, self.next_id, rule, parents)
            self.next_id += 1
            heapq.heappush(self.passive, (len(literals), clause.id, clause))
        if stats["generated"] >= self.config.max_clauses:
            raise _CapReached

    def activate(self, clause: Clause) -> bool:
        """Make a selected clause active, or count it subsumed."""
        if self.active.find_or_add(clause) is not None:
            self.stats["subsumed"] += 1
            return False
        clause.var_sorts = clause.trimmed_var_sorts()
        self.clauses[clause.id] = clause
        self.eligible[clause.id] = maximal_literal_indices(clause)
        self.variables[clause.id] = sorted(clause.var_sorts)
        self.stats["kept"] += 1
        return True

    def renamed_copy(self, cid: int, start: int) -> _Copy:
        """Active clause ``cid`` with its sorted variables renamed to
        ``V<start>, V<start+1>, ...``, with its paramodulation data, made
        once per run."""
        key = (cid, start)
        copy = self.copies.get(key)
        if copy is None:
            clause, _ = rename_variables(self.clauses[cid], self.variables[cid], start)
            copy = _make_copy(clause, self.eligible[cid])
            self.copies[key] = copy
        return copy

    # -- inference rules ----------------------------------------------------

    def atom_unifiers(self, l1: Literal, l2: Literal, var_sorts: dict[str, Sort]) -> list:
        if l1.is_equation and l2.is_equation:
            if self.sort_of(l1.lhs, var_sorts) != self.sort_of(l2.lhs, var_sorts):
                return []
        return unify_atoms(l1, l2)

    def paramodulate(self, first: _Copy, second: _Copy) -> None:
        """Ordered paramodulation from positive equations of the first copy
        into non-variable subterm positions of the second, renamed apart."""
        if not first.sources or not second.targets:
            return
        fc, sc = first.clause, second.clause
        merged = {**fc.var_sorts, **sc.var_sorts}
        parents = (fc.id, sc.id)
        for fi, l, r in first.sources:
            for ii, ilit, side, path, sub in second.targets:
                if l.__class__ is Var and self.sort_of(l, merged) != self.sort_of(sub, merged):
                    continue
                theta = unify([(l, sub)])
                if theta is None:
                    continue
                r_theta = apply_subst(r, theta)
                if kbo_greater_or_equal(r_theta, apply_subst(l, theta)):
                    continue
                literals = [_rewritten(ilit, side, path, r_theta, theta)]
                _add_rest(literals, fc, fi, theta)
                _add_rest(literals, sc, ii, theta)
                self.record_new(literals, merged, "paramodulation", parents)

    def fool_paramodulate(self, clause: Clause) -> None:
        """From C[s] with s a non-variable boolean subterm other than a
        truth constant, derive C[true] | s = false."""
        for ii in self.eligible[clause.id]:
            lit = clause.literals[ii]
            for side, path, sub in term_positions(lit):
                if not isinstance(sub, App) or sub.fn in (TRUE_NAME, FALSE_NAME):
                    continue
                if self.sort_of(sub, clause.var_sorts) != BOOL:
                    continue
                literals = [_rewritten(lit, side, path, TRUE, {})]
                _add_rest(literals, clause, ii, {})
                literals.append(Literal(True, sub, FALSE))
                self.record_new(
                    literals, clause.var_sorts, "fool_paramodulation", (clause.id,)
                )

    def resolve(self, first: Clause, second: Clause) -> None:
        """Binary resolution between two clauses renamed apart."""
        merged = {**first.var_sorts, **second.var_sorts}
        for i in self.eligible[first.id]:
            for j in self.eligible[second.id]:
                l1, l2 = first.literals[i], second.literals[j]
                if l1.positive == l2.positive:
                    continue
                for theta in self.atom_unifiers(l1, l2, merged):
                    literals = []
                    _add_rest(literals, first, i, theta)
                    _add_rest(literals, second, j, theta)
                    self.record_new(literals, merged, "resolution", (first.id, second.id))

    def factor(self, clause: Clause) -> None:
        for i in self.eligible[clause.id]:
            for j, other in enumerate(clause.literals):
                if j == i:
                    continue
                lit = clause.literals[i]
                if not (lit.positive and other.positive):
                    continue
                for theta in self.atom_unifiers(lit, other, clause.var_sorts):
                    literals = []
                    _add_rest(literals, clause, j, theta)
                    self.record_new(literals, clause.var_sorts, "factoring", (clause.id,))

    def equality_resolve(self, clause: Clause) -> None:
        for i in self.eligible[clause.id]:
            lit = clause.literals[i]
            if lit.positive or not lit.is_equation:
                continue
            theta = mgu(lit.lhs, lit.rhs)
            if theta is None:
                continue
            literals = []
            _add_rest(literals, clause, i, theta)
            self.record_new(literals, clause.var_sorts, "equality_resolution", (clause.id,))

    # -- the loop ------------------------------------------------------------

    def run(self, inputs: list[Clause]) -> SaturationResult:
        try:
            return self.search(inputs)
        except _CapReached:
            # an empty clause counted before the cap was reached still wins
            return self.result("limit" if self.empty is None else "refuted")

    def search(self, inputs: list[Clause]) -> SaturationResult:
        deadline = time.monotonic() + self.config.max_seconds
        for clause in inputs:
            if (
                self.config.bool_mode == RULE_MODE
                and is_bool_domain_clause(clause)
            ):
                self.stats["bool_axiom_clauses_removed"] += 1
                continue
            self.record_new(clause.literals, clause.var_sorts, "input", ())
            if self.empty is not None:
                return self.result("refuted")

        while self.passive:
            if (
                self.config.max_processed is not None
                and self.stats["processed"] >= self.config.max_processed
            ):
                return self.result("limit")
            if time.monotonic() > deadline:
                return self.result("limit")
            _, cid, given = heapq.heappop(self.passive)
            if not self.activate(given):
                continue
            renamed, count = self.renamed_copy(cid, 0), len(self.variables[cid])
            self.processed.append((renamed, count))
            self.stats["processed"] += 1

            self.factor(given)
            self.equality_resolve(given)
            if self.config.bool_mode == RULE_MODE:
                self.fool_paramodulate(given)
            for partner, partner_count in self.processed:
                if time.monotonic() > deadline:
                    return self.result("limit")
                # a V0 copy against the other active clause shifted past it
                # (renaming a V copy again would number V10 before V2)
                pid = partner.clause.id
                shifted = self.renamed_copy(pid, count)
                self.paramodulate(renamed, shifted)
                if pid != cid:
                    self.paramodulate(partner, self.renamed_copy(cid, partner_count))
                self.resolve(renamed.clause, shifted.clause)
                if self.empty is not None:
                    return self.result("refuted")
        return self.result("saturated")

    def result(self, verdict: str) -> SaturationResult:
        return SaturationResult(verdict, self.empty, dict(self.clauses), dict(self.stats))


def saturate(
    clauses: list[Clause], ctx: TypeContext, config: ProverConfig | None = None
) -> SaturationResult:
    """Saturate clauses well-sorted over ``ctx``, each symbol declared, to a verdict."""
    engine = _Saturation(ctx, config or ProverConfig())
    return engine.run(clauses)
