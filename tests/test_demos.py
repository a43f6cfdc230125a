"""Smoke test: every script in demos/ runs to completion and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slope_lab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ARGS = {"coverage_experiment.py": ["--reps", "2000"]}


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(slope_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(demo), *ARGS.get(demo.name, [])],
        env=env, capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
