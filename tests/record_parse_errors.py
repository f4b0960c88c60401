"""Re-record ``golden/parse_errors.json``, the file that
``test_tptp.test_parse_errors_are_pinned`` compares against.

Run from the repository root after a deliberate change to the reader's
messages, locations or signature order, then review the diff:

    python3 tests/record_parse_errors.py
    git diff --stat tests/golden/parse_errors.json

Each entry is written on its own line so the diff names the inputs whose
reading changed.
"""

import json
import pathlib
import sys

_TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS.parent / "src"), str(_TESTS)]

from test_tptp import GOLDEN, _reader_inputs, _reading  # noqa: E402


def main() -> None:
    lines = [
        f" {json.dumps(name)}: "
        + json.dumps({"dialect": _reading(text, False), "strict": _reading(text, True)}, sort_keys=True)
        for name, text in _reader_inputs()
    ]
    (GOLDEN / "parse_errors.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
