"""Re-record the prover's search goldens from the search functions of
``test_prover``: ``golden/prover_search.json`` (counters and proofs),
``golden/prover_search_capped.json`` and
``golden/prover_search_refutation.json``.

Run from the repository root after a deliberate change to the search,
then review the diff:

    python3 tests/record_prover_search.py
    git diff --stat -- tests/golden/prover_search*.json

On an unchanged search the three files are rewritten byte for byte.
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
    (GOLDEN / "prover_search.json").write_text(json.dumps(search, indent=1))
    for name, searches in (
        ("prover_search_capped.json", capped_searches()),
        ("prover_search_refutation.json", refutation_searches()),
    ):
        (GOLDEN / name).write_text(json.dumps(searches, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
