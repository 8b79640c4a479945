"""Two traced runs of seed 0 must give the same counts and output hashes.

    python3 -m pytest perfbench/check_determinism.py

Run from the root of a checkout. The file name keeps it out of the default
test collection: it runs every workload twice (about a minute), and the
tier-1 suite's wall time is itself a tracked figure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("nonlinear_wave", "linear_sweep", "resolvent_scan")
# every per-layer figure that counts work rather than timing it
EXACT_UNITS = ("count", "ratio", "MB")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    correctness = json.loads(next(line for line in lines if line.startswith("correctness "))
                             .split(" ", 1)[1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in EXACT_UNITS}
    return result, counts, correctness["sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat(workload):
    first, counts_a, sha_a = traced_run(workload)
    second, counts_b, sha_b = traced_run(workload)
    assert first["correct"] and second["correct"]
    assert counts_a == counts_b
    assert sha_a == sha_b
    calls = [v for name, v in counts_a.items() if name.endswith(".calls")]
    assert sum(calls) > 0
    if workload == "nonlinear_wave":
        assert counts_a["nonlinear.picard_iters"] == 1106
