"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q

Slow (about two minutes): every workload runs twice in traced mode, in
fresh interpreters with different string-hash seeds, and every count
metric must be identical across the two runs.  That is the "same
search" guarantee later performance work relies on.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

EXACT_UNITS = {"count", "B", "ratio"}


def _run(workload, seed, trace, hash_seed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.CASES)


def test_same_seed_gives_same_inputs():
    for make in gen.CASES.values():
        assert make(5) == make(5)
        assert [c.text for c in make(5)] != [c.text for c in make(6)]


@pytest.mark.parametrize("workload", list(gen.CASES))
def test_counts_repeat_exactly_across_runs(workload):
    results = []
    for hash_seed in (1, 2):
        done = _run(workload, 3, 1, hash_seed)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    exact = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] in EXACT_UNITS
    }
    assert exact == {name: second["metrics"][name]["value"] for name in exact}
    layer = {"verify": "semantics.interpretations", "prove": "saturate.generated.axiom",
             "lower": "translate.steps"}[workload]
    assert exact[layer] > 0
    # Only the deep negation nests of ``lower`` fail, each on every pass.
    nests = len(gen.LOWER_NEST_DEPTH) if workload == "lower" else 0
    per_pass = len(gen.CASES[workload](3))
    assert first["failed"] * per_pass == nests * first["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("lower", 1, 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_clock_takes_its_units_out_of_the_measured_time():
    handler = signal.getsignal(signal.SIGALRM)
    clock = calibrate.Clock()
    with clock.timed() as timing:
        end = perf_counter() + 0.1
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert timing.elapsed >= 0.1
    # about ten units ran from the timer during the call
    assert 0 < timing.measured < timing.elapsed
    assert timing.seconds > 0
