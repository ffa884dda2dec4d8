"""Experiment sweeps, output files, and the bench command line."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import tarfile
from pathlib import Path

import pytest

from pilotflow.cli import main
from pilotflow.experiment import (
    ExperimentConfig,
    ExperimentConfigError,
    describe,
    materialize_inputs,
    run_experiment,
    write_plot_files,
)
from pilotflow.latency import LatencyModel
from pilotflow.localbackend import LocalBackendConfig
from pilotflow.model import TaskKind
from pilotflow.protocols import (
    UnknownProtocolError,
    esmacs_protocol,
    load_protocol,
)
from pilotflow.simbackend import SimBackendConfig

from helpers import generate_esmacs

SIM_BACKEND = {
    "backend": "sim",
    "queue_wait": 2.0,
    "pull_latency": 0.25,
    "fs_latency": 0.125,
}


def sim_config(**overrides) -> ExperimentConfig:
    data = {
        "name": "sweep",
        "protocol": "esmacs",
        "workload": "SIM",
        "pipeline_counts": [2, 4],
        "trials": 2,
        "cores": "peak",
        "backend": SIM_BACKEND,
        "seed": 5,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_sweep_produces_one_row_per_trial(tmp_path):
    result = run_experiment(sim_config(), tmp_path / "out")
    assert len(result.reports) == 4
    with open(tmp_path / "out" / "trials.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert [r["trial_id"] for r in rows] == [
        "sim-p2-t0",
        "sim-p2-t1",
        "sim-p4-t0",
        "sim-p4-t1",
    ]
    assert [r["cores"] for r in rows] == ["16", "16", "32", "32"]


def test_weak_scaling_keeps_ttx_flat_at_peak_sizing(tmp_path):
    result = run_experiment(sim_config(pipeline_counts=[2, 4, 8]), tmp_path / "out")
    ttx = {row.pipelines: row.ttx_mean for row in result.aggregates}
    assert len(set(ttx.values())) == 1


def test_summary_files_written(tmp_path):
    run_experiment(sim_config(), tmp_path / "out")
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "reports.json").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary) == 2
    assert {row["pipelines"] for row in summary} == {2, 4}
    assert all(row["trials"] == 2 for row in summary)


def test_event_logs_saved_per_trial(tmp_path):
    run_experiment(sim_config(trials=1), tmp_path / "out")
    assert (tmp_path / "out" / "events" / "sim-p2-t0.csv").exists()
    assert (tmp_path / "out" / "events" / "sim-p4-t0.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    noisy = {
        "backend": "sim",
        "queue_wait": {"distribution": "UNIFORM", "low": 1.0, "high": 3.0},
        "pull_latency": {"distribution": "NORMAL_TRUNCATED", "mean": 0.2, "stddev": 0.05},
        "fs_latency": {"distribution": "NORMAL_TRUNCATED", "mean": 0.1, "stddev": 0.02},
        "duration_noise": {"distribution": "NORMAL_TRUNCATED", "mean": 1.0, "stddev": 0.1},
    }
    config = sim_config(backend=noisy, pipeline_counts=[3], trials=2)
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    for name in ("trials.csv", "summary.csv", "events/sim-p3-t0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


# sha256 over trials.csv and every event CSV that the shipped weak-scaling
# config writes, each file's name followed by its bytes.
WEAK_SCALING_DIGEST = (
    "592ef3a36c32176cb7dbf6e0a1c52a995215986e868f5d58296ca53e9f4a4338"
)


def test_weak_scaling_config_outputs_are_byte_identical_to_recorded_digest(
    tmp_path,
):
    config_path = Path(__file__).parent.parent / "configs" / "weak_scaling_sim.json"
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.load(config_path), out)
    names = ["trials.csv"] + sorted(
        f"events/{path.name}" for path in (out / "events").iterdir()
    )
    assert len(names) == 1 + 4 * 3
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\n" + (out / name).read_bytes())
    assert digest.hexdigest() == WEAK_SCALING_DIGEST


def test_seed_override_changes_noisy_results(tmp_path):
    noisy = {
        "backend": "sim",
        "queue_wait": {"distribution": "UNIFORM", "low": 1.0, "high": 3.0},
    }
    config = sim_config(backend=noisy, pipeline_counts=[2], trials=1)
    first = run_experiment(config, tmp_path / "a")
    second = run_experiment(config, tmp_path / "b", seed=99)
    assert first.reports[0].tq_s != second.reports[0].tq_s


def test_explicit_cores_list(tmp_path):
    config = sim_config(pipeline_counts=[2, 4], cores=[8, 8], trials=1)
    result = run_experiment(config, tmp_path / "out")
    assert [r.cores for r in result.reports] == [8, 8]
    # under-provisioned at 4 pipelines: slower than the fully sized point
    ttx = {r.pipelines: r.ttx_s for r in result.reports}
    assert ttx[4] > ttx[2]


def test_local_workload_end_to_end(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "name": "local-demo",
            "protocol": "esmacs",
            "workload": "LOCAL",
            "pipeline_counts": [2],
            "trials": 1,
            "cores": "peak",
            "backend": {"backend": "local"},
            "time_scale": 0.02,
        }
    )
    result = run_experiment(config, tmp_path / "out")
    report = result.reports[0]
    assert report.status == "DONE"
    assert report.done_tasks == 14
    assert report.tq_s == 0.0
    # the protocol's final stage packed one archive per replica
    data_dir = tmp_path / "out" / "data" / "local-p2-t0"
    packed = sorted(data_dir.glob("output/results-r*.tar"))
    assert len(packed) == 2
    with tarfile.open(packed[0]) as archive:
        assert any(name.endswith(".log") for name in archive.getnames())


def test_materialize_inputs_creates_placeholders(tmp_path):
    wf = generate_esmacs(replicas=2, kind=TaskKind.LOCAL_EXEC)
    materialize_inputs(wf, tmp_path)
    assert (tmp_path / "input" / "params.dat").exists()
    with tarfile.open(tmp_path / "input" / "config.tar") as archive:
        assert len(archive.getnames()) >= 2


# --- config validation --------------------------------------------------------


def test_bad_configs_rejected():
    with pytest.raises(ExperimentConfigError):
        sim_config(trials=0)
    with pytest.raises(ExperimentConfigError):
        sim_config(pipeline_counts=[])
    with pytest.raises(ExperimentConfigError):
        sim_config(pipeline_counts=[0])
    with pytest.raises(ExperimentConfigError):
        sim_config(workload="WAT")
    with pytest.raises(ExperimentConfigError):
        sim_config(cores=[8])  # length mismatch with two counts
    with pytest.raises(ExperimentConfigError):
        sim_config(cores="all")
    with pytest.raises(ExperimentConfigError):
        sim_config(backend={"backend": "quantum"})
    with pytest.raises(ExperimentConfigError):
        sim_config(name="")
    with pytest.raises(ExperimentConfigError):
        sim_config(walltime=0.0)
    with pytest.raises(ExperimentConfigError):
        ExperimentConfig.from_dict({"name": "no-pipeline-counts"})


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"trails": 3}, "'trails'"),
        ({"walltime": "1h"}, "experiment.walltime"),
        ({"save_events": 1}, "experiment.save_events"),
        ({"pipeline_counts": [2, 4.5]}, "experiment.pipeline_counts"),
        ({"backend": {**SIM_BACKEND, "bulk": 16.0}}, "backend.bulk"),
        ({"backend": {"backend": "local", "pull_sleep": 0.1}}, "'pull_sleep'"),
        # every trial is seeded from the top-level seed
        ({"backend": {**SIM_BACKEND, "seed": 3}}, "top-level 'seed'"),
    ],
)
def test_keys_and_values_that_would_not_be_read_are_rejected(overrides, named):
    with pytest.raises(ExperimentConfigError, match=re.escape(named)):
        sim_config(**overrides)


def test_every_shipped_config_loads():
    configs = Path(__file__).parent.parent / "configs"
    assert sorted(path.name for path in configs.iterdir()) == [
        "esmacs.json",
        "overhead_local.json",
        "weak_scaling_sim.json",
    ]
    assert load_protocol(configs / "esmacs.json") == esmacs_protocol()
    weak = ExperimentConfig.load(configs / "weak_scaling_sim.json")
    assert weak.backend == SimBackendConfig(
        queue_wait=LatencyModel.constant(2.0),
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
    )
    assert (weak.workload, weak.pipeline_counts, weak.trials) == (
        "SIM",
        (2, 4, 8, 16),
        3,
    )
    overhead = ExperimentConfig.load(configs / "overhead_local.json")
    assert overhead.backend == LocalBackendConfig()
    assert (overhead.workload, overhead.trials, overhead.walltime) == ("NULL", 5, 600.0)


def test_load_missing_file_rejected(tmp_path):
    with pytest.raises(ExperimentConfigError):
        ExperimentConfig.load(tmp_path / "absent.json")


def test_load_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(ExperimentConfigError):
        ExperimentConfig.load(path)


# --- describe ------------------------------------------------------------------


def test_describe_summarizes_the_ensemble():
    text = describe("esmacs", replicas=25)
    assert "replicas: 25" in text
    assert "stages per pipeline: 7" in text
    assert "tasks: 175" in text
    assert "peak core demand: 200" in text
    assert "equilibrate-npt-restrained" in text


def test_describe_uses_protocol_default_replicas():
    assert "replicas: 25" in describe("esmacs")


def test_describe_unknown_protocol():
    with pytest.raises(UnknownProtocolError) as excinfo:
        describe("mmpbsa")
    assert "esmacs" in str(excinfo.value)


# --- plot files -----------------------------------------------------------------


def test_plot_files_from_summary(tmp_path):
    run_experiment(sim_config(trials=1), tmp_path / "out")
    written = write_plot_files(tmp_path / "out")
    names = {p.name for p in written}
    assert names == {"ttx_sim.dat", "overheads_sim.dat"}
    lines = (tmp_path / "out" / "plot" / "ttx_sim.dat").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3
    assert lines[1].split()[0] == "2"


def test_plot_requires_summary(tmp_path):
    with pytest.raises(ExperimentConfigError):
        write_plot_files(tmp_path)


# --- command line ---------------------------------------------------------------


def write_config(tmp_path, **overrides):
    data = {
        "name": "cli-sweep",
        "protocol": "esmacs",
        "workload": "SIM",
        "pipeline_counts": [2],
        "trials": 1,
        "backend": SIM_BACKEND,
    }
    data.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_run_succeeds(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "ttx_mean" in captured.out
    assert (out / "trials.csv").exists()


def test_cli_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_unreadable_config_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for path in (tmp_path, binary):
        assert main(["run", "--config", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")


def test_cli_run_invalid_config_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, trials=0)
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "overrides, named",
    [
        (
            {"backend": {"queue_wait": {"distribution": "uniform", "low": 5}}},
            "'uniform'",
        ),
        ({"backend": {"fs_latency": -0.125}}, "-0.125"),
        ({"backend": {"queue_wiat": 2.0}}, "'queue_wiat'"),
        ({"backend": {"queue_wait": {"dist": "uniform", "low": 5}}}, "'dist'"),
        ({"protocol": "mmpbsa"}, "'mmpbsa'"),
        ({"cores": [0]}, "cores"),
        ({"time_scale": -1.0}, "time_scale"),
        # Requests that only starting the pilot or placing a task would reject.
        ({"cores": [64], "backend": {**SIM_BACKEND, "total_cores": 32}}, "64 cores"),
        ({"cores": [4]}, "'minimize' wants 8 cores"),
    ],
)
def test_cli_run_bad_config_exits_2_before_writing(tmp_path, capsys, overrides, named):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert named in line
    assert not out.exists()


def test_cli_describe(capsys):
    assert main(["describe", "--protocol", "esmacs", "--replicas", "8"]) == 0
    out = capsys.readouterr().out
    assert "replicas: 8" in out
    assert "peak core demand: 64" in out


def test_cli_describe_unknown_protocol(capsys):
    assert main(["describe", "--protocol", "ties"]) == 2
    assert "esmacs" in capsys.readouterr().err


def test_cli_plot(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["plot", "--from", str(out)]) == 0
    assert (out / "plot" / "ttx_sim.dat").exists()


def test_cli_plot_missing_summary_exits_2(tmp_path):
    assert main(["plot", "--from", str(tmp_path)]) == 2


def test_cli_no_arguments_exits_2():
    assert main([]) == 2
