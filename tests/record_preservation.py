"""Re-record ``golden/preservation.json``, the oracle reports that
``test_semantics.test_oracle_reports_are_pinned`` compares against.

Run from the repository root after a deliberate change to the oracle's
reports, then review the diff:

    python3 tests/record_preservation.py
    git diff --stat -- tests/golden/preservation.json

On an unchanged oracle the file is rewritten byte for byte.
"""

import json
import pathlib
import sys

_TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS.parent / "src"), str(_TESTS)]

from test_semantics import GOLDEN, oracle_reports  # noqa: E402


def main() -> None:
    (GOLDEN / "preservation.json").write_text(json.dumps(oracle_reports(), indent=1) + "\n")


if __name__ == "__main__":
    main()
