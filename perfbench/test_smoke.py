"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_table():
    assert run.import_sources()
    Workload = run.workloads.Workload
    return {
        "sim_queued": Workload("sim_queued", "sim", pipelines=4, core_divisor=4),
        "sim_deep": Workload("sim_deep", "sim", pipelines=2, stage_repeats=3),
        "local_staged": Workload("local_staged", "local", pipelines=2),
        "sim_short": Workload("sim_short", "sim", pipelines=2, walltime=0.1),
    }


def bench(capsys, workload, seed=1, trace=0, digests=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    code = run.main(argv + ["--trace", str(trace)], tiny_table(), digests or {})
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


WORKLOADS = ["sim_queued", "sim_deep", "local_staged"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, result = bench(capsys, workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_tampered_digest_trips_the_gate(capsys):
    code, result = bench(capsys, "sim_queued", seed=0, digests={"sim_queued": "0" * 64})
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_failing_task_trips_the_gate(capsys):
    # The walltime ends before the first pull, so every task is canceled.
    code, result = bench(capsys, "sim_short")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_queued", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
