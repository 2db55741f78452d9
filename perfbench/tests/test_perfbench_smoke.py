"""The benchmark's own tests.

Every workload runs twice at smoke size with tracing on: both runs must end
with no failed operation, and the counts the benchmark promises to repeat
exactly must be equal.  Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
RUN = BENCH / "run.py"
WORKLOADS = ("map_price", "sim_fabric", "service_sweep")
#: Counts over the first traced round, whose inputs the seed fixes.
COUNTS = (
    "mapping.calls",
    "lp.solves",
    "lp.variables",
    "simnoc.flit_hops",
    "simnoc.packets_created",
    "simnoc.jit_compiles",
)


def smoke_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_clean_and_repeatable(workload):
    first, second = smoke_run(workload), smoke_run(workload)
    for result in (first, second):
        assert result["correct"]
        assert result["attempted"] > 0
        assert result["failed"] == 0
    counts = [{name: r["metrics"][name]["value"] for name in COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["simnoc.jit_compiles"] == 0
    if workload == "map_price":
        assert counts[0]["lp.variables"] > 0
    else:
        assert counts[0]["simnoc.flit_hops"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map_price"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    summary = spans.summarize(
        [
            (1, None, "op", 0, 100),
            (2, 1, "layer", 10, 60),
            (3, 2, "inner", 20, 40),
            (4, None, "outside", 0, 5),
        ],
        "op",
    )
    assert "outside" not in summary
    assert summary["op"]["self_s"] == pytest.approx(50e-9)
    assert summary["layer"]["self_s"] == pytest.approx(30e-9)
    assert summary["inner"]["dur_s"] == pytest.approx(20e-9)


def test_yardstick_is_frozen():
    """Figures in ``ref`` units compare only while the reference task does
    the same work; a change to it must show here."""
    spec = importlib.util.spec_from_file_location("perfbench_yardstick", BENCH / "yardstick.py")
    yardstick = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(yardstick)
    assert yardstick.yardstick() == yardstick.yardstick() == 2535344133.0
