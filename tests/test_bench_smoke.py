"""Benchmark runs in tier-1: each workload at its tiny size must pass its
correctness gate, so the `resdyn` API the benchmark calls stays guarded
here. `openloop` is the one workload that trains DM-LB and reads its
`DmTrainReport`; `train_cnn` and `train_lstm` run the SVGP loss and its
backward through the conv-encoder node and the LSTM; `corrected_rollout`'s zero-mean
gate takes the trained GP through `to_arrays`/`from_arrays`, which checks
the GP's array layout end to end. Every workload, traced and untraced, is
smoke-run by `perfbench/test_smoke.py`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train_cnn", "train_lstm", "corrected_rollout",
                                      "openloop"])
def test_workload_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, json.loads(lines[-2])["meta"]["failed_checks"]
    assert result["failed"] == 0
