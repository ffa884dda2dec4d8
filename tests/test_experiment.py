"""Experiment sweeps, output files, and the bench command line."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import tarfile
from operator import attrgetter
from pathlib import Path

import pytest

from pilotflow import cli
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
    for_workload,
    load_protocol,
    protocol_to_dict,
    protocol_to_workflow,
)
from pilotflow.simbackend import SimBackendConfig

from helpers import generate_esmacs

CONFIGS = Path(__file__).parent.parent / "configs"
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
# sha256 of reports.json and of summary.json from the same run.
WEAK_SCALING_JSON_DIGESTS = {
    "reports.json": "273658d7bbbe1042be54bb037bf9a1b77e2fc3742bd5528955a6d6da9899816b",
    "summary.json": "68d4aafe6878ec8e8557e88765ea754519bd1d490140094cde0ddc56cc3a4520",
}


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
    for name, expected in WEAK_SCALING_JSON_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected


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
    with pytest.raises(ExperimentConfigError, match="LOCAL"):
        sim_config(backend={"backend": "local"})


@pytest.mark.parametrize(
    "backend, named",
    [
        ({"backend": "sim", "bulk": 0}, "backend: bulk must be >= 1, got 0"),
        ({"backend": "local", "bulk": 0}, "backend: bulk must be >= 1, got 0"),
        (
            {"backend": "local", "max_workers": 0},
            "backend: max_workers must be >= 1, got 0",
        ),
        (
            {"backend": "local", "max_workers": -3},
            "backend: max_workers must be >= 1, got -3",
        ),
    ],
)
def test_unusable_bulk_and_max_workers_are_rejected_at_load(backend, named):
    with pytest.raises(ExperimentConfigError) as excinfo:
        sim_config(workload="NULL", backend=backend)
    assert str(excinfo.value) == named


@pytest.mark.parametrize("workload", ["NULL", "SIM", "LOCAL"])
def test_every_workload_is_read_for_the_simulator_and_all_but_sim_for_local(
    workload,
):
    assert sim_config(workload=workload).workload is TaskKind(workload)
    if workload != "SIM":
        local = sim_config(workload=workload, backend={"backend": "local"})
        assert (local.workload, local.backend) == (workload, LocalBackendConfig())


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
    assert sorted(path.name for path in CONFIGS.iterdir()) == [
        "esmacs.json",
        "esmacs_local.json",
        "overhead_local.json",
        "paper_scale_sim.json",
        "weak_scaling_sim.json",
    ]
    weak = ExperimentConfig.load(CONFIGS / "weak_scaling_sim.json")
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
    overhead = ExperimentConfig.load(CONFIGS / "overhead_local.json")
    assert overhead.backend == LocalBackendConfig()
    assert (overhead.workload, overhead.trials, overhead.walltime) == ("NULL", 5, 600.0)
    local = ExperimentConfig.load(CONFIGS / "esmacs_local.json")
    assert local.backend == LocalBackendConfig()
    assert (local.workload, local.pipeline_counts) == (TaskKind.LOCAL_EXEC, (2,))
    paper = ExperimentConfig.load(CONFIGS / "paper_scale_sim.json")
    assert paper.backend == SimBackendConfig(
        queue_wait=LatencyModel.constant(2.0),
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
    )
    assert (paper.workload, paper.pipeline_counts, paper.cores) == (
        "SIM",
        (4096,),
        "peak",
    )


@pytest.mark.parametrize(
    "kind", [TaskKind.SIMULATED, TaskKind.NULL_WORKLOAD], ids=attrgetter("name")
)
@pytest.mark.parametrize("time_scale", [0.0, 0.5, 1.0])
def test_esmacs_file_is_the_builtin_under_every_workload(kind, time_scale):
    loaded = for_workload(load_protocol(CONFIGS / "esmacs.json"), kind, time_scale)
    assert loaded == esmacs_protocol(kind, time_scale)
    assert protocol_to_workflow(loaded, 3) == generate_esmacs(
        replicas=3, kind=kind, time_scale=time_scale
    )


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


def test_cli_run_with_a_failed_trial_exits_1(tmp_path, capsys):
    """A walltime shorter than the esmacs stages cuts the run: the trial is
    written, reported FAILED and named on stderr."""
    config = write_config(tmp_path, walltime=5.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["failed trials: sim-p2-t0"]
    assert (out / "trials.csv").exists()


def test_cli_run_interrupted_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", interrupted)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 130
    assert capsys.readouterr().err.splitlines() == ["interrupted"]


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
        # Python's json writes and reads NaN and Infinity.
        ({"walltime": float("nan")}, "walltime must be positive and finite"),
        ({"walltime": float("inf")}, "walltime must be positive and finite"),
        ({"time_scale": float("nan")}, "time_scale must be finite"),
        ({"backend": {"pull_latency": float("inf")}}, "value must be finite"),
        # An integer too large for a float.
        ({"walltime": 10**400}, "experiment.walltime must be float"),
        # Every draw would be negative, so sampling it would never end.
        (
            {"backend": {"queue_wait": {"distribution": "NORMAL_TRUNCATED",
                                        "mean": -1.0, "stddev": 0.0}}},
            "mean must be >= 0",
        ),
        # Only the simulator runs SIM; the line points to LOCAL instead.
        ({"backend": {"backend": "local"}}, "workload LOCAL with a small time_scale"),
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


def write_protocol(tmp_path, stage_keys, top_keys):
    """esmacs as a protocol file, with keys of its first stage and of its
    top level replaced."""
    data = protocol_to_dict(esmacs_protocol())
    data["stages"][0].update(stage_keys)
    data.update(top_keys)
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "stage_keys, top_keys, named",
    [
        ({"expected_duration": "abc"}, {}, "stages[0].expected_duration"),
        ({"expected_duration": [1]}, {}, "stages[0].expected_duration"),
        ({"expected_duration": 10**400}, {}, "stages[0].expected_duration"),
        ({"inputs": "ab"}, {}, "stages[0].inputs"),
        ({"inputs": [3]}, {}, "stages[0].inputs[0]"),
        ({"arguments": "abc"}, {}, "stages[0].arguments"),
        ({"core": 8}, {}, "'core'"),
        ({"label": 5}, {}, "stages[0].label"),
        # Stages state their durations; a timestep count is not read.
        ({"timesteps": 5000}, {}, "'timesteps'"),
        ({"cores": True}, {}, "stages[0].cores"),
        ({}, {"replicas": 3}, "'replicas'"),
    ],
)
def test_cli_run_malformed_protocol_exits_2_before_writing(
    tmp_path, capsys, stage_keys, top_keys, named
):
    protocol = write_protocol(tmp_path, stage_keys, top_keys)
    config = write_config(tmp_path, protocol=str(protocol))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert named in line
    assert not out.exists()


def test_cli_missing_protocol_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    config = write_config(tmp_path, protocol=missing)
    out = tmp_path / "out"
    for argv in (
        ["run", "--config", str(config), "--out", str(out)],
        ["describe", "--protocol", missing],
        ["describe", "--protocol", f"{tmp_path}/"],  # a directory
    ):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot read")
    assert not out.exists()


def test_cli_describe(capsys):
    assert main(["describe", "--protocol", "esmacs", "--replicas", "8"]) == 0
    out = capsys.readouterr().out
    assert "replicas: 8" in out
    assert "peak core demand: 64" in out


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_cli_describe_refuses_fewer_than_one_replica(capsys, replicas):
    assert main(["describe", "--protocol", "esmacs", "--replicas", replicas]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: replicas must be >= 1, got {replicas}\n"
    assert captured.out == ""


def test_cli_describe_protocol_file_under_null_workload(capsys):
    protocol = str(CONFIGS / "esmacs.json")
    assert main(["describe", "--protocol", protocol, "--workload", "NULL"]) == 0
    rows = capsys.readouterr().out.split("duration_s\n")[1].splitlines()
    assert len(rows) == 7
    assert all(row.endswith(" 0.000") for row in rows)


def trial_ttx(out: Path) -> float:
    with open(out / "trials.csv", newline="") as handle:
        [row] = csv.DictReader(handle)
    return float(row["ttx_s"])


@pytest.mark.parametrize(
    "workload, time_scale, ttx",
    [("SIM", 1.0, 7.5), ("SIM", 0.5, 3.75), ("NULL", 1.0, 0.0), ("NULL", 0.5, 0.0)],
)
def test_cli_run_protocol_file_honours_workload_and_time_scale(
    tmp_path, workload, time_scale, ttx
):
    # The file and the built-in run alike: 2 pipelines on a latency-free
    # simulator take the sum of one pipeline's scaled stage durations.
    for position, protocol in enumerate((str(CONFIGS / "esmacs.json"), "esmacs")):
        config = write_config(
            tmp_path,
            protocol=protocol,
            workload=workload,
            time_scale=time_scale,
            backend={"backend": "sim"},
        )
        out = tmp_path / f"out{position}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert trial_ttx(out) == ttx


def test_protocol_file_null_workload_runs_locally(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "name": "local-null-file",
            "protocol": str(CONFIGS / "esmacs.json"),
            "workload": "NULL",
            "pipeline_counts": [2],
            "trials": 1,
            "backend": {"backend": "local"},
        }
    )
    [report] = run_experiment(config, tmp_path / "out").reports
    assert (report.status, report.done_tasks) == ("DONE", 14)


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
