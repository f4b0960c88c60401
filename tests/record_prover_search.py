"""Re-record the prover's search goldens from the search functions of
``test_prover``: ``golden/prover_search.json`` (counters and proofs),
``golden/prover_search_capped.json`` and
``golden/prover_search_refutation.json``.

Run from the repository root after a deliberate change to the search,
then review the diff:

    python3 tests/record_prover_search.py
    git diff --stat -- tests/golden/prover_search*.json

Before it writes, it prints one line per search whose verdict,
``generated`` or ``processed`` count differs from the committed golden,
as ``file name/mode: before -> after``. On an unchanged search it prints
nothing and the three files are rewritten byte for byte.
"""

import json
import pathlib
import sys

_TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS.parent / "src"), str(_TESTS)]

import corpus  # noqa: E402
from foolkit.prover import AXIOM_MODE, RULE_MODE  # noqa: E402
from test_prover import (  # noqa: E402
    GOLDEN,
    capped_searches,
    pinned_counters,
    refutation_proofs,
    refutation_searches,
)


def _outcome(entry) -> str:
    if entry is None:
        return "none"
    verdict, stats = entry[0], entry[1]
    return f"{verdict}, {stats['generated']} generated, {stats['processed']} processed"


def _by_mode(search: dict) -> dict:
    """The counters of ``prover_search.json`` keyed ``name/mode``."""
    out = {f"{name}/{AXIOM_MODE}": entry for name, entry in search["stats"].items()}
    out.update((f"{name}/{RULE_MODE}", entry) for name, entry in search["rule_stats"].items())
    return out


def record(name: str, searches: dict, text: str, keyed=lambda searches: searches) -> None:
    """Print each search, keyed ``name/mode`` by ``keyed``, whose outcome
    differs from the golden file ``name``, then write ``text`` there."""
    path = GOLDEN / name
    before = keyed(json.loads(path.read_text())) if path.exists() else {}
    after = keyed(searches)
    for key in {**before, **after}:
        was, now = _outcome(before.get(key)), _outcome(after.get(key))
        if was != now:
            print(f"{name} {key}: {was} -> {now}")
    path.write_text(text)


def main() -> None:
    axiom = pinned_counters(AXIOM_MODE, corpus.SATISFIABLE)
    search = {
        "proofs": dict(sorted(refutation_proofs().items())),
        "stats": {
            name: [verdict, dict(sorted(stats.items()))]
            for name, (verdict, stats) in sorted(axiom.items())
        },
        # in corpus order, each stats dict in the order the prover fills it
        "rule_stats": pinned_counters(RULE_MODE, corpus.SATISFIABLE + corpus.REFUTATION),
    }
    record("prover_search.json", search, json.dumps(search, indent=1), _by_mode)
    for name, searches in (
        ("prover_search_capped.json", capped_searches()),
        ("prover_search_refutation.json", refutation_searches()),
    ):
        record(name, searches, json.dumps(searches, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
