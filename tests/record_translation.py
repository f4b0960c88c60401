"""Re-record the lowering and clausification goldens from the functions
that their tests compare against:

    golden/translation.json         test_translate.pinned_translations
    golden/emitted.json             test_translate.emitted_problems
    golden/lowering_shapes.json     test_translate.lowering_shape_runs
    golden/clausify_shapes.json     test_translate.clausify_shape_runs
    golden/clausify_generated.json  test_translate.generated_clauses
    golden/occurrences.json         test_translate.pinned_occurrences
    golden/clausify.json            test_prover.corpus_clauses

Run from the repository root after a deliberate change to the lowering,
the classifier, the printer or clausification, then review the diff:

    python3 tests/record_translation.py
    git diff --stat -- tests/golden

On an unchanged pipeline the seven files are rewritten byte for byte.
"""

import json
import pathlib
import sys

_TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS.parent / "src"), str(_TESTS)]

from test_prover import corpus_clauses  # noqa: E402
from test_translate import (  # noqa: E402
    GOLDEN,
    clausify_shape_runs,
    emitted_problems,
    generated_clauses,
    lowering_shape_runs,
    pinned_occurrences,
    pinned_translations,
)

# (file, entries, whether the file sorts its names); one entry a line
_ONE_A_LINE = (
    ("translation.json", pinned_translations, True),
    ("emitted.json", emitted_problems, False),
    ("lowering_shapes.json", lowering_shape_runs, False),
    ("clausify_shapes.json", clausify_shape_runs, False),
    ("clausify_generated.json", generated_clauses, True),
    ("occurrences.json", pinned_occurrences, True),
)


def main() -> None:
    for name, entries, sort_names in _ONE_A_LINE:
        items = sorted(entries().items()) if sort_names else entries().items()
        lines = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in items]
        (GOLDEN / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    (GOLDEN / "clausify.json").write_text(json.dumps(corpus_clauses(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
