"""Local process backend: real subprocesses, sandboxes, staging, failures."""

from __future__ import annotations

import tarfile
import threading

from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.metrics import compute_report
from pilotflow.model import (
    Pipeline,
    ResourceRequest,
    Stage,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskSpec,
    Workflow,
    peak_core_demand,
)
from pilotflow.profiling import ProfileSink
from pilotflow.protocols import generate_esmacs


def shell_task(tid: str, command: str, cores: int = 1, **kwargs) -> TaskSpec:
    return TaskSpec(
        id=tid,
        kind=TaskKind.LOCAL_EXEC,
        executable="/bin/sh",
        arguments=("-c", command),
        cores=cores,
        **kwargs,
    )


def one_stage_workflow(*tasks: TaskSpec) -> Workflow:
    return Workflow(
        name="wf",
        pipelines=[Pipeline(id="p0", stages=[Stage(index=0, tasks=list(tasks))])],
    )


def run_local(workflow: Workflow, cores: int = 4, walltime: float = 300.0, **cfg):
    request = ResourceRequest(cores=cores, walltime=walltime)
    return local_run(workflow, request, LocalBackendConfig(**cfg))


def test_null_ensemble_completes_with_zero_queue_time():
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf))
    report = compute_report(log)
    assert report.done_tasks == 14
    assert report.failed_tasks == 0
    assert report.status == "DONE"
    assert report.tq_s == 0.0
    assert report.ttx_s == report.ttc_s


def test_only_the_engine_thread_appends_events(monkeypatch):
    """The sink takes no lock: worker threads must hand results back instead."""
    appenders: set[int] = set()
    append = ProfileSink.append

    def recording_append(self, event):
        appenders.add(threading.get_ident())
        append(self, event)

    monkeypatch.setattr(ProfileSink, "append", recording_append)
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf), max_workers=4)
    assert compute_report(log).done_tasks == 14
    assert appenders == {threading.get_ident()}


def test_stages_execute_in_order_per_pipeline():
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf))
    exec_begin: dict[tuple[str, int], float] = {}
    exec_end: dict[tuple[str, int], float] = {}
    for event in log.events:
        if event.name == "exec_begin":
            exec_begin[(event.pipeline, event.stage)] = event.time
        elif event.name == "exec_end":
            exec_end[(event.pipeline, event.stage)] = event.time
    for pipeline in ("esmacs-p1", "esmacs-p2"):
        for stage in range(6):
            assert exec_end[(pipeline, stage)] <= exec_begin[(pipeline, stage + 1)]


def test_exec_interval_brackets_real_sleep():
    wf = one_stage_workflow(shell_task("napper", "sleep 0.2"))
    log = run_local(wf)
    report = compute_report(log)
    execs = {e.name: e.time for e in log.events if e.name.startswith("exec")}
    elapsed = execs["exec_end"] - execs["exec_begin"]
    assert 0.2 <= elapsed < 5.0
    assert report.ttc_s >= 0.2


def test_simulated_kind_runs_a_timed_stand_in():
    task = TaskSpec(
        id="sim",
        kind=TaskKind.SIMULATED,
        executable="md",
        expected_duration=0.2,
    )
    log = run_local(one_stage_workflow(task))
    execs = {e.name: e.time for e in log.events if e.name.startswith("exec")}
    assert execs["exec_end"] - execs["exec_begin"] >= 0.2
    assert compute_report(log).done_tasks == 1


def test_nonzero_exit_fails_the_task_with_diagnostic():
    wf = one_stage_workflow(shell_task("bad", "echo boom >&2; exit 3"))
    log = run_local(wf)
    report = compute_report(log)
    assert report.failed_tasks == 1
    assert report.status == "FAILED"
    diagnostic = log.extras["diagnostics"]["bad"]
    assert "status 3" in diagnostic
    assert "boom" in diagnostic


def test_missing_executable_fails_with_diagnostic():
    task = TaskSpec(
        id="ghost", kind=TaskKind.LOCAL_EXEC, executable="no-such-binary-xyz"
    )
    log = run_local(one_stage_workflow(task))
    assert "executable not found" in log.extras["diagnostics"]["ghost"]
    assert compute_report(log).failed_tasks == 1


def test_failure_stops_own_pipeline_but_not_others(tmp_path):
    broken = Pipeline(
        id="broken",
        stages=[
            Stage(index=0, tasks=[shell_task("b1", "exit 1")]),
            Stage(index=1, tasks=[shell_task("b2", "true")]),
        ],
    )
    healthy = Pipeline(
        id="healthy",
        stages=[
            Stage(index=0, tasks=[shell_task("h1", "true")]),
            Stage(index=1, tasks=[shell_task("h2", "true")]),
        ],
    )
    wf = Workflow(name="mixed", pipelines=[broken, healthy])
    log = run_local(wf)
    report = compute_report(log)
    assert report.failed_tasks == 1
    assert report.done_tasks == 2
    assert report.canceled_tasks == 1
    terminal = {
        e.entity: e.name for e in log.events if e.name in ("done", "failed", "canceled")
    }
    assert terminal == {"b1": "failed", "b2": "canceled", "h1": "done", "h2": "done"}


def test_staging_in_extracts_archives_and_copies_files(tmp_path):
    data_root = tmp_path / "data"
    (data_root / "input").mkdir(parents=True)
    payload = tmp_path / "payload"
    payload.mkdir()
    for name in ("one.txt", "two.txt", "three.txt"):
        (payload / name).write_text(name)
    with tarfile.open(data_root / "input" / "bundle.tar", "w") as archive:
        for member in sorted(payload.iterdir()):
            archive.add(member, arcname=member.name)
    (data_root / "input" / "params.dat").write_text("alpha=1\n")

    check = (
        "test -f extracted/one.txt && test -f extracted/two.txt && "
        "test -f extracted/three.txt && test -f params.dat"
    )
    task = shell_task(
        "checker",
        check,
        inputs=(
            StagingDirective("input/bundle.tar", "extracted", StagingMode.TAR_IN),
            StagingDirective("input/params.dat", "params.dat", StagingMode.COPY_IN),
        ),
    )
    log = run_local(one_stage_workflow(task), data_root=str(data_root))
    report = compute_report(log)
    assert report.done_tasks == 1, log.extras["diagnostics"]


def test_staging_out_packs_results(tmp_path):
    data_root = tmp_path / "data"
    task = shell_task(
        "producer",
        "mkdir -p output && echo result > output/answer.txt",
        outputs=(
            StagingDirective("output", "results/packed.tar", StagingMode.TAR_OUT),
            StagingDirective(
                "output/answer.txt", "results/answer.txt", StagingMode.COPY_OUT
            ),
        ),
    )
    log = run_local(one_stage_workflow(task), data_root=str(data_root))
    assert compute_report(log).done_tasks == 1, log.extras["diagnostics"]
    assert (data_root / "results" / "answer.txt").read_text() == "result\n"
    with tarfile.open(data_root / "results" / "packed.tar") as archive:
        assert "output/answer.txt" in archive.getnames()


def test_missing_staging_source_fails_cleanly(tmp_path):
    task = shell_task(
        "starved",
        "true",
        inputs=(StagingDirective("input/absent.dat", "x", StagingMode.COPY_IN),),
    )
    log = run_local(one_stage_workflow(task), data_root=str(tmp_path / "data"))
    report = compute_report(log)
    assert report.failed_tasks == 1
    assert "missing staging source" in log.extras["diagnostics"]["starved"]
    # the failing phase never opened, so the log still pairs up
    assert log.by_name("stage_in_begin") == []


def test_under_provisioned_pilot_serializes_tasks():
    tasks = [shell_task(f"s{i}", "sleep 0.1") for i in range(4)]
    wf = one_stage_workflow(*tasks)
    log = run_local(wf, cores=2)
    report = compute_report(log)
    assert report.done_tasks == 4
    # four 0.1s sleeps on two slots need at least two rounds
    assert report.ttc_s >= 0.2


def test_walltime_kills_overrunning_tasks():
    wf = one_stage_workflow(shell_task("runaway", "sleep 30"))
    log = run_local(wf, walltime=1.0)
    report = compute_report(log)
    assert report.failed_tasks == 1
    assert "walltime" in log.extras["diagnostics"]["runaway"]


def test_sandboxes_kept_on_request(tmp_path):
    root = tmp_path / "sandboxes"
    wf = one_stage_workflow(shell_task("writer", "echo hi > marker.txt"))
    log = run_local(wf, sandbox_root=str(root), keep_sandboxes=True)
    run_dir = log.extras["run_dir"]
    markers = list((tmp_path / "sandboxes").rglob("marker.txt"))
    assert len(markers) == 1
    assert str(markers[0]).startswith(run_dir)


def test_sandboxes_removed_by_default(tmp_path):
    root = tmp_path / "sandboxes"
    wf = one_stage_workflow(shell_task("writer", "echo hi > marker.txt"))
    local_run(
        wf,
        ResourceRequest(cores=2, walltime=60.0),
        LocalBackendConfig(sandbox_root=str(root)),
    )
    assert list(root.rglob("marker.txt")) == []


def test_engine_and_runtime_overheads_are_measured():
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf))
    report = compute_report(log)
    assert report.engine_overhead_s > 0.0
    assert report.runtime_overhead_s > 0.0
    assert len(log.by_name("translate_begin")) == 14
    assert len(log.by_name("unit_io_begin")) == 14


def test_config_dict_round_trip():
    config = LocalBackendConfig(
        sandbox_root="/tmp/x", keep_sandboxes=True, bulk=4, max_workers=2
    )
    assert LocalBackendConfig.from_dict(config.to_dict()) == config
