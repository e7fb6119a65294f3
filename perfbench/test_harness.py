"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

Runs one op (one fit of ``DeskTrain.steps_per_fit`` steps on desk-train) per
workload in both modes and checks that every metric BENCHMARK.json names is
emitted with its unit.  It takes about two minutes; paper-detect needs about
3 GB of memory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, "desk-train", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(20, 0, -1)]) == (10.0, 50.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    # id, name, start, end, parent, op, thread, info
    tracer.spans = [
        [1, "numerics.affine", 0.002, 0.005, 0, 1, 0, 1 << 20],
        [0, "decoder.block", 0.0, 0.010, None, 1, 0, None],
        [2, "decoder.block", 0.0, 0.001, None, None, 0, None],  # outside any op
    ]
    metrics = tracer.metrics(n_ops=1)
    assert metrics["decoder.block.ms"] == pytest.approx(7.0)
    assert metrics["decoder.block.calls"] == 1
    assert metrics["numerics.affine.ms"] == pytest.approx(3.0)
    assert metrics["numerics.affine.mb"] == 1.0
