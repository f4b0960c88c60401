"""Given-clause saturation with ordered paramodulation and a dedicated
boolean inference rule.

Two ways to handle the two-element boolean domain:

  * axiom mode keeps the clause ``x = true | x = false`` (and pays for
    its self-paramodulation);
  * rule mode drops that clause and instead derives, from any clause
    containing a non-variable boolean subterm s other than a truth
    constant, the clause ``C[true] | s = false``.

``record_new`` judges a conclusion before it builds anything for it: one
pass over its literals drops repeats and finds a tautology, and only a
non-tautology becomes a ``Clause`` for the subsumption query.  Each kept
clause's literal data is derived once, when it is kept: its variable
sorts trimmed to the variables that occur, its eligible literals, its
sorted variable names and, in the index, its literal shapes.

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
kept clause, because the ordering does not change under an injective
renaming of variables.

Unification is sort-free.  Without subsorts, well-sorted terms unify
ill-sortedly only at a root pair of a variable and a term of another
sort, so ``_Saturation.sort_of`` compares sorts there alone: a variable
paramodulation source with its target, and two paired equations.

Redundancy handling is tautology deletion plus forward subsumption by
variable renaming, nothing stronger.  The subsumption candidates come
from an index over literal shapes (``VariantIndex``), so a new clause is
tested only against kept clauses whose literal shapes it contains.
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
    replace_at,
)
from .clauses import Clause, Literal, judge_literals, term_positions
from .ordering import kbo_greater_or_equal, maximal_literal_indices
from .unification import (
    VariantIndex,
    apply_subst,
    apply_subst_literal,
    is_variant,
    mgu,
    rename_variables,
    unify_atoms,
)

AXIOM_MODE = "axiom"
RULE_MODE = "rule"


class ProverConfig(Record):
    """The defaults of ``max_clauses`` and ``max_seconds`` are class
    attributes, so the command line can show them."""

    _fields = ("bool_mode", "max_clauses", "max_seconds", "max_processed")
    # cap on generated clauses, checked before each given clause: the
    # inferences of the last given clause can overshoot it
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
    return _has_var_var_equation(clause.literals)


def _has_var_var_equation(literals: tuple[Literal, ...]) -> bool:
    for lit in literals:
        if isinstance(lit.lhs, Var) and isinstance(lit.rhs, Var) and lit.lhs != lit.rhs:
            return True
    return False


# ---------------------------------------------------------------------------
# the parts of a conclusion


def _rest(literals: tuple[Literal, ...], skip: int, theta: dict[str, Term]) -> list[Literal]:
    """The literals other than ``literals[skip]``, under theta."""
    return [apply_subst_literal(x, theta) for k, x in enumerate(literals) if k != skip]


def _replace_in_literal(lit: Literal, side: int, path: tuple[int, ...], new: Term) -> Literal:
    if side == 0:
        return Literal(lit.positive, replace_at(lit.lhs, path, new), lit.rhs)
    return Literal(lit.positive, lit.lhs, replace_at(lit.rhs, path, new))


class _Copy(NamedTuple):
    """A renamed copy of a kept clause and its paramodulation data."""

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


class _Saturation:
    """One given-clause run.

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
        self.kept = VariantIndex()
        # maximal-literal indices and sorted variable names of each kept
        # clause, by clause id
        self.eligible: dict[int, list[int]] = {}
        self.variables: dict[int, list[str]] = {}
        self.passive: list[tuple[int, int]] = []
        # renamed copies of kept clauses, by (clause id, first V number)
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
        self.stats["generated"] += 1
        self.stats[rule] += 1
        literals, tautology = judge_literals(literals)
        if _has_var_var_equation(literals):
            self.stats["var_var_equation_clauses"] += 1
        if not literals:
            self.empty = Clause((), {}, 0, rule, parents)
            return
        if tautology:
            self.stats["tautologies"] += 1
            return
        # var_sorts is the caller's dict until the clause is kept
        clause = Clause(literals, var_sorts, rule=rule, parents=parents)
        if self.kept.find_or_add(clause) is not None:
            self.stats["subsumed"] += 1
            return
        clause.var_sorts = clause.trimmed_var_sorts()
        clause.id = self.next_id
        self.next_id += 1
        self.clauses[clause.id] = clause
        self.eligible[clause.id] = maximal_literal_indices(clause)
        self.variables[clause.id] = sorted(clause.var_sorts)
        self.stats["kept"] += 1
        heapq.heappush(self.passive, (len(clause.literals), clause.id))

    def renamed_copy(self, cid: int, start: int) -> _Copy:
        """Kept clause ``cid`` with its sorted variables renamed to
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
        firsts, seconds = first.clause.literals, second.clause.literals
        merged = {**first.clause.var_sorts, **second.clause.var_sorts}
        parents = (first.clause.id, second.clause.id)
        for fi, l, r in first.sources:
            for ii, ilit, side, path, sub in second.targets:
                if isinstance(l, Var) and self.sort_of(l, merged) != self.sort_of(sub, merged):
                    continue
                theta = mgu(l, sub)
                if theta is None:
                    continue
                if kbo_greater_or_equal(apply_subst(r, theta), apply_subst(l, theta)):
                    continue
                rewritten = _replace_in_literal(ilit, side, path, r)
                literals = [
                    apply_subst_literal(rewritten, theta),
                    *_rest(firsts, fi, theta),
                    *_rest(seconds, ii, theta),
                ]
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
                literals = [
                    _replace_in_literal(lit, side, path, TRUE),
                    *_rest(clause.literals, ii, {}),
                    Literal(True, sub, FALSE),
                ]
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
                    literals = _rest(first.literals, i, theta) + _rest(second.literals, j, theta)
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
                    literals = _rest(clause.literals, j, theta)
                    self.record_new(literals, clause.var_sorts, "factoring", (clause.id,))

    def equality_resolve(self, clause: Clause) -> None:
        for i in self.eligible[clause.id]:
            lit = clause.literals[i]
            if lit.positive or not lit.is_equation:
                continue
            theta = mgu(lit.lhs, lit.rhs)
            if theta is None:
                continue
            literals = _rest(clause.literals, i, theta)
            self.record_new(literals, clause.var_sorts, "equality_resolution", (clause.id,))

    # -- the loop ------------------------------------------------------------

    def run(self, inputs: list[Clause]) -> SaturationResult:
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
            if self.stats["generated"] >= self.config.max_clauses:
                return self.result("limit")
            if (
                self.config.max_processed is not None
                and self.stats["processed"] >= self.config.max_processed
            ):
                return self.result("limit")
            if time.monotonic() > deadline:
                return self.result("limit")
            _, cid = heapq.heappop(self.passive)
            given = self.clauses[cid]
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
                # a V0 copy against the other kept clause shifted past it
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
