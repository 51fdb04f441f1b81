"""One benchmark run in tier-1: the corrected-rollout workload at its tiny
size must pass its correctness gate. The gate's zero-mean rollout takes the
trained GP through `to_arrays`/`from_arrays`, so this also checks the GP's
array layout end to end. Every workload, traced and untraced, is smoke-run
by `perfbench/test_smoke.py`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_corrected_rollout_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corrected_rollout",
           "--seed", "3", "--seconds", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, json.loads(lines[-2])["meta"]["failed_checks"]
    assert result["failed"] == 0
