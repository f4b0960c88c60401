"""Every demo script runs to completion against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_demo(path):
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )


def test_all_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_verify_demo_output_is_pinned():
    # includes the corrupted translation's counterexample lines
    done = run_demo(ROOT / "demos" / "03_verify_preservation.py")
    assert done.stdout == (GOLDEN / "demo_03_verify_preservation.txt").read_text()
