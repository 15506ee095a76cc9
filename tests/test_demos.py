"""Smoke test: each quick demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rxgb

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(demo, *args):
    env = os.environ.copy()
    src = str(Path(rxgb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), f"{demo} printed nothing"
    return proc.stdout


@pytest.mark.parametrize("demo", ["binary_kernel_demo", "gbdt_demo", "cost_report_demo"])
def test_demo_runs(demo):
    run_demo(demo)


def test_train_tiny_hybrid_runs_both_stages():
    # train -> extract -> infer_hybrid -> forward(training=False), ~4 s
    out = run_demo("train_tiny_hybrid", "--epochs", "4")
    assert "held-out top-1: fc head" in out
