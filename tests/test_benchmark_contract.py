"""The traced benchmark's contract, on a short run of every workload.

A traced run must finish, fail no op, and report exactly the per-layer
metrics BENCHMARK.json lists: a change that stops a listed layer from
running its span makes the run exit 1 or drop the metric.  `correct` is not
asserted, since under tracing it also folds in a timing check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_a_traced_run_reports_every_listed_layer(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    contract = json.loads(run.stdout.strip().splitlines()[-1])
    assert contract["failed"] == 0
    assert sorted(contract["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
