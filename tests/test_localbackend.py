"""Local process backend: real subprocesses, sandboxes, staging, failures."""

from __future__ import annotations

import io
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tarfile
import threading
import time
import tracemalloc
import types
from pathlib import Path

import pytest

from pilotflow import localbackend
from pilotflow.experiment import ExperimentConfig, materialize_inputs
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
from pilotflow.runtime import EngineCore
from pilotflow.units import TaskStore, UnitDescription

from helpers import TERMINAL, by_name, check_log, generate_esmacs

SRC = Path(__file__).resolve().parents[1] / "src"


def shell_task(tid: str, command: str, cores: int = 1, **kwargs) -> TaskSpec:
    return TaskSpec(
        id=tid,
        executable="/bin/sh",
        arguments=("-c", command),
        cores=cores,
        **kwargs,
    )


def one_stage_workflow(*tasks: TaskSpec) -> Workflow:
    return Workflow(
        name="wf",
        pipelines=[Pipeline(id="p0", stages=[Stage(tasks=list(tasks))])],
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


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"bulk": 0}, "bulk must be >= 1, got 0"),
        ({"max_workers": 0}, "max_workers must be >= 1, got 0"),
    ],
)
def test_unusable_bulk_or_max_workers_is_rejected_before_any_event(
    monkeypatch, tmp_path, settings, named
):
    appended = []
    monkeypatch.setattr(ProfileSink, "append", lambda self, row: appended.append(row))
    wf = generate_esmacs(replicas=1, kind=TaskKind.NULL_WORKLOAD)
    with pytest.raises(ValueError, match=named):
        run_local(wf, cores=peak_core_demand(wf), sandbox_root=str(tmp_path), **settings)
    assert appended == []
    assert list(tmp_path.iterdir()) == []


def test_only_the_engine_thread_appends_events(monkeypatch):
    """The sink takes no lock: the engine's own thread starts, waits on and
    applies every child, and no other thread runs during the run."""
    appenders: set[int] = set()
    threads: set[int] = set()
    append = ProfileSink.append

    def recording_append(self, event):
        appenders.add(threading.get_ident())
        threads.add(threading.active_count())
        append(self, event)

    monkeypatch.setattr(ProfileSink, "append", recording_append)
    before = threading.active_count()
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf), max_workers=4)
    assert compute_report(log).done_tasks == 14
    assert appenders == {threading.get_ident()}
    assert threads == {before}


def test_results_already_waiting_share_one_pull(monkeypatch):
    """Every child the selector reports at once is applied before the engine
    pulls again, so the second stages those children unblock arrive in one
    pull."""
    width = 6

    class GatedSelector(selectors.DefaultSelector):
        # The engine's first wait returns only once every first-stage child
        # has closed its stderr.
        gated = True

        def select(self, timeout=None):
            if self.gated:
                self.gated = False
                give_up = time.monotonic() + 60.0
                while len(super().select(0)) < width:
                    assert time.monotonic() < give_up
                    time.sleep(0.01)
            return super().select(timeout)

    monkeypatch.setattr(
        localbackend,
        "selectors",
        types.SimpleNamespace(
            DefaultSelector=GatedSelector, EVENT_READ=selectors.EVENT_READ
        ),
    )
    pulled: list[int] = []
    pull = TaskStore.pull

    def counted_pull(self, max_bulk):
        units, latency = pull(self, max_bulk)
        pulled.append(len(units))
        return units, latency

    monkeypatch.setattr(TaskStore, "pull", counted_pull)
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id=f"p{i}",
                stages=[
                    Stage(tasks=[shell_task(f"p{i}-s{s}", "true")])
                    for s in range(2)
                ],
            )
            for i in range(width)
        ],
    )
    log = run_local(wf, cores=width, max_workers=width)
    assert compute_report(log).done_tasks == 2 * width
    assert pulled == [width, width]


def test_units_past_the_bulk_limit_are_pulled_at_once():
    """The agent pulls again while units wait in the store, so the bulk limit
    never leaves cores idle until an unrelated task finishes."""
    width, bulk = 6, 2
    # Each task outlasts the scheduling of all six by far.
    tasks = [shell_task(f"t{i}", "sleep 0.2") for i in range(width)]
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id=f"p{i}", stages=[Stage(tasks=[task])])
            for i, task in enumerate(tasks)
        ],
    )
    log = run_local(wf, cores=width, max_workers=width, bulk=bulk)
    assert compute_report(log).done_tasks == width
    names = [event.name for event in log.events]
    last_schedule = max(i for i, name in enumerate(names) if name == "schedule")
    assert last_schedule < names.index("done")
    assert names.count("pull_begin") == names.count("pull_end") == width // bulk


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


def test_nonzero_exit_fails_the_task_with_diagnostic():
    wf = one_stage_workflow(shell_task("bad", "echo boom >&2; exit 3"))
    log = run_local(wf)
    report = compute_report(log)
    assert report.failed_tasks == 1
    assert report.status == "FAILED"
    diagnostic = log.extras["diagnostics"]["bad"]
    assert "status 3" in diagnostic
    assert "boom" in diagnostic


def test_diagnostic_names_the_last_stderr_line_after_heavy_stdout():
    """Stdout goes to the null device; only stderr is piped back."""
    command = "head -c 4000000 /dev/zero; echo first >&2; echo last words >&2; exit 5"
    log = run_local(one_stage_workflow(shell_task("chatty", command)))
    diagnostic = log.extras["diagnostics"]["chatty"]
    assert diagnostic == "command exited with status 5: last words"


def test_missing_executable_fails_with_diagnostic():
    task = TaskSpec(id="ghost", executable="no-such-binary-xyz")
    log = run_local(one_stage_workflow(task))
    assert "executable not found" in log.extras["diagnostics"]["ghost"]
    assert compute_report(log).failed_tasks == 1


def test_failure_stops_own_pipeline_but_not_others(tmp_path):
    broken = Pipeline(
        id="broken",
        stages=[
            Stage(tasks=[shell_task("b1", "exit 1")]),
            Stage(tasks=[shell_task("b2", "true")]),
        ],
    )
    healthy = Pipeline(
        id="healthy",
        stages=[
            Stage(tasks=[shell_task("h1", "true")]),
            Stage(tasks=[shell_task("h2", "true")]),
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


def test_archive_is_not_extracted_without_a_member_filter(tmp_path, monkeypatch):
    """An interpreter whose extractall has no ``filter`` fails the unit."""
    extractall = tarfile.TarFile.extractall

    def unfiltered(self, path=".", members=None, *, numeric_owner=False):
        # Extraction as it behaves on an interpreter without filters.
        return extractall(
            self, path, members, numeric_owner=numeric_owner, filter="fully_trusted"
        )

    monkeypatch.setattr(tarfile.TarFile, "extractall", unfiltered)
    data_root = tmp_path / "data"
    (data_root / "input").mkdir(parents=True)
    payload = b"outside the sandbox\n"
    member = tarfile.TarInfo("../escape.txt")
    member.size = len(payload)
    with tarfile.open(data_root / "input" / "escape.tar", "w") as archive:
        archive.addfile(member, io.BytesIO(payload))
    task = shell_task(
        "unpacker",
        "true",
        inputs=(StagingDirective("input/escape.tar", ".", StagingMode.TAR_IN),),
    )
    log = run_local(
        one_stage_workflow(task),
        data_root=str(data_root),
        sandbox_root=str(tmp_path / "sandboxes"),
        keep_sandboxes=True,
    )
    assert compute_report(log).failed_tasks == 1
    assert "filter" in log.extras["diagnostics"]["unpacker"]
    assert list(tmp_path.rglob("escape.txt")) == []


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
    assert by_name(log, "stage_in_begin") == []


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
    assert report.canceled_tasks == 1
    assert "walltime" in log.extras["diagnostics"]["runaway"]


def test_a_walltime_beyond_the_longest_selector_wait_runs_normally():
    log = run_local(one_stage_workflow(shell_task("t", "true")), walltime=1e7)
    assert compute_report(log).done_tasks == 1, log.extras["diagnostics"]


def test_a_unit_that_waited_in_the_pool_gets_only_the_walltime_left():
    # One worker: the second unit waits about 1 s for the first, then has
    # about 0.5 s of the 1.5 s walltime left for its 1 s sleep.
    wf = one_stage_workflow(
        shell_task("first", "sleep 1"), shell_task("second", "sleep 1")
    )
    log = run_local(wf, walltime=1.5, max_workers=1)
    terminal = {e.entity: e for e in log.events if e.name in ("done", "canceled")}
    assert terminal["first"].name == "done"
    assert terminal["second"].name == "canceled"
    assert "walltime exceeded" in log.extras["diagnostics"]["second"]
    assert terminal["second"].time < 1.5 + 0.4


def test_a_unit_that_starts_after_the_walltime_is_canceled_without_running(tmp_path):
    # One worker slot: the walltime kills the first unit, and the second,
    # in another pipeline, would start only after it.
    data_root = tmp_path / "data"
    data_root.mkdir()
    (data_root / "params.dat").write_text("k=1\n")
    late = shell_task(
        "late",
        "touch ran",
        inputs=(StagingDirective("params.dat", "params.dat", StagingMode.COPY_IN),),
    )
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="p0", stages=[Stage(tasks=[shell_task("first", "sleep 30")])]),
            Pipeline(id="p1", stages=[Stage(tasks=[late])]),
        ],
    )
    log = run_local(
        wf,
        walltime=1.0,
        max_workers=1,
        data_root=str(data_root),
        sandbox_root=str(tmp_path / "sandboxes"),
        keep_sandboxes=True,
    )
    terminal = {e.entity: e.name for e in log.events if e.name in TERMINAL}
    assert terminal == {"first": "canceled", "late": "canceled"}
    assert log.extras["diagnostics"] == {
        "first": "walltime exceeded after 1.0s",
        "late": "walltime exceeded after 1.0s",
    }
    (uid,) = [e.entity for e in by_name(log, "enqueue") if e.pipeline == "p1"]
    sandbox = Path(log.extras["run_dir"]) / uid
    assert not (sandbox / "params.dat").exists()
    assert not (sandbox / "ran").exists()
    assert [e.entity for e in by_name(log, "stage_in_begin")] == ["first"]


def process_state(pid: int) -> str | None:
    """The state letter of process ``pid``, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def test_a_walltime_kill_leaves_no_grandchild_running(tmp_path):
    """The kill goes to the child's process group, so a command the task
    started in the background dies with it."""
    pidfile = tmp_path / "pid"
    command = f"sleep 30 & echo $! > {pidfile}; wait"
    log = run_local(one_stage_workflow(shell_task("spawner", command)), walltime=1.0)
    assert "walltime" in log.extras["diagnostics"]["spawner"]
    pid = int(pidfile.read_text())
    give_up = time.monotonic() + 1.0
    while process_state(pid) not in (None, "Z") and time.monotonic() < give_up:
        time.sleep(0.01)
    assert process_state(pid) in (None, "Z")


def test_a_child_that_closes_its_stderr_early_stalls_no_other_pipeline():
    """A child still running after EOF on its stderr is waited for on a
    pidfd, not in a blocking wait."""
    quiet = Pipeline(
        id="quiet", stages=[Stage([shell_task("q", "exec 2>&-; sleep 1")])]
    )
    chain = Pipeline(
        id="chain",
        stages=[Stage([shell_task(f"c{i}", "sleep 0.1")]) for i in range(3)],
    )
    log = run_local(Workflow(name="wf", pipelines=[quiet, chain]))
    done = {e.entity: e.time for e in by_name(log, "done")}
    assert done["c2"] < done["q"]
    assert done["q"] >= 1.0


def test_a_failed_task_cancels_its_running_and_waiting_siblings():
    wf = one_stage_workflow(
        shell_task("bad", "exit 1"),
        shell_task("sleeper", "sleep 5"),
        shell_task("queued", "true"),
    )
    log = run_local(wf, max_workers=2)
    terminal = {e.entity: e for e in log.events if e.name in TERMINAL}
    assert {task: e.name for task, e in terminal.items()} == {
        "bad": "failed",
        "sleeper": "canceled",
        "queued": "canceled",
    }
    assert terminal["sleeper"].time - terminal["bad"].time < 0.1
    reason = "canceled: sibling task bad failed"
    assert log.extras["diagnostics"]["sleeper"] == reason
    assert log.extras["diagnostics"]["queued"] == reason
    # The waiting sibling never started.
    assert "queued" not in {e.entity for e in by_name(log, "stage_in_begin")}


def test_siblings_still_waiting_for_cores_are_canceled_with_a_diagnostic():
    """A failure cancels the siblings that the scheduler has not placed yet
    by the same rule as the placed ones."""
    wf = one_stage_workflow(
        shell_task("bad", "exit 1"), shell_task("w1", "true"), shell_task("w2", "true")
    )
    log = run_local(wf, cores=1, max_workers=1)
    terminal = {e.entity: e.name for e in log.events if e.name in TERMINAL}
    assert terminal == {"bad": "failed", "w1": "canceled", "w2": "canceled"}
    reason = "canceled: sibling task bad failed"
    assert log.extras["diagnostics"]["w1"] == reason
    assert log.extras["diagnostics"]["w2"] == reason
    assert {e.entity for e in by_name(log, "stage_in_begin")} == {"bad"}


INTERRUPTED_RUN = """
import signal
# Python leaves SIGINT ignored when it starts so (as a background job of a
# non-interactive shell, say): install the handler that raises the interrupt.
signal.signal(signal.SIGINT, signal.default_int_handler)

import sys
from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.model import Pipeline, ResourceRequest, Stage, TaskSpec, Workflow

pids, sandboxes = sys.argv[1:]
command = f"echo $$ >> {pids}; sleep 2"
tasks = [
    TaskSpec(id=f"t{i}", executable="/bin/sh", arguments=("-c", command))
    for i in range(4)
]
workflow = Workflow(name="wf", pipelines=[Pipeline(id="p0", stages=[Stage(tasks)])])
local_run(
    workflow,
    ResourceRequest(cores=4, walltime=60.0),
    LocalBackendConfig(sandbox_root=sandboxes, max_workers=1),
)
"""


def test_an_interrupt_kills_the_children_and_ends_the_run_at_once(tmp_path):
    """Four 2 s units on one worker slot: SIGINT during the first ends the
    run at once, reaps its child, starts no other unit and removes the
    run's sandbox."""
    pids, sandboxes = tmp_path / "pids", tmp_path / "sandboxes"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, str(pids), str(sandboxes)],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        give_up = time.monotonic() + 60.0
        while not (pids.exists() and pids.read_text().strip()):
            assert proc.poll() is None and time.monotonic() < give_up
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, stderr = proc.communicate(timeout=60.0)
        elapsed = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert elapsed < 0.5
    assert stderr.rstrip().endswith("KeyboardInterrupt")
    started = pids.read_text().split()
    assert len(started) == 1
    assert process_state(int(started[0])) is None
    assert list(sandboxes.iterdir()) == []


def test_an_interrupt_while_a_child_starts_still_reaps_it(tmp_path, monkeypatch):
    """SIGINT that lands as ``Popen`` returns, before the engine holds the
    child, waits until it does: the interrupt goes on and the child is
    reaped rather than left running."""
    started = []
    real_popen = subprocess.Popen

    def popen_then_interrupt(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        started.append(proc)
        signal.raise_signal(signal.SIGINT)
        return proc

    monkeypatch.setattr(localbackend.subprocess, "Popen", popen_then_interrupt)
    sandboxes = tmp_path / "sandboxes"
    # The interrupt needs Python's handler, which pytest lacks when it
    # starts with SIGINT ignored.
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_local(
                one_stage_workflow(shell_task("sleeper", "sleep 30")),
                sandbox_root=str(sandboxes),
            )
        states = [process_state(proc.pid) for proc in started]
    finally:
        signal.signal(signal.SIGINT, handler)
        for proc in started:  # whatever the run left running
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    assert states == [None]
    assert list(sandboxes.iterdir()) == []


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
    assert len(by_name(log, "translate_begin")) == 14
    assert len(by_name(log, "unit_io_begin")) == 14


def test_each_unit_crosses_the_wire_once(monkeypatch):
    """translate_task builds the unit; the local manager's translate pays the
    one round trip, and the agent takes in the decoded unit as it is."""
    serialized: list[str] = []
    to_wire = UnitDescription.to_wire

    def counting_to_wire(unit):
        serialized.append(unit.uid)
        return to_wire(unit)

    monkeypatch.setattr(UnitDescription, "to_wire", counting_to_wire)
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    log = run_local(wf, cores=peak_core_demand(wf))
    assert compute_report(log).done_tasks == 14
    assert sorted(serialized) == sorted(e.entity for e in by_name(log, "enqueue"))


def test_a_unit_holds_the_decoded_spec_of_its_task(monkeypatch, tmp_path):
    """The agent takes in each unit as the wire carried it: a spec of its
    own, equal to its task record's, staging directives included."""
    held = []
    unit_read = EngineCore.unit_read

    def recording(self, unit, begin, end):
        unit_read(self, unit, begin, end)
        held.append((unit.task, self.tracker.record_for(unit.task.id).task))

    monkeypatch.setattr(EngineCore, "unit_read", recording)
    wf = generate_esmacs(replicas=2, kind=TaskKind.LOCAL_EXEC, time_scale=0.0)
    data = tmp_path / "data"
    materialize_inputs(wf, data)
    log = run_local(wf, cores=peak_core_demand(wf), data_root=str(data))
    assert compute_report(log).done_tasks == 14
    assert len(held) == 14
    for decoded, spec in held:
        assert decoded == spec
        assert decoded is not spec
    assert any(spec.inputs for spec, _ in held)
    assert any(spec.outputs for spec, _ in held)


def test_config_dict_round_trip():
    """A literal local backend object reads back as the config it names."""
    backend = {
        "backend": "local",
        "sandbox_root": "/tmp/x",
        "keep_sandboxes": True,
        "bulk": 4,
        "max_workers": 2,
    }
    data = {
        "name": "x",
        "workload": "LOCAL",
        "pipeline_counts": [1],
        "backend": backend,
    }
    assert ExperimentConfig.from_dict(data).backend == LocalBackendConfig(
        sandbox_root="/tmp/x", keep_sandboxes=True, bulk=4, max_workers=2
    )


def test_a_command_that_exits_is_done_whatever_it_left_running():
    """A background command still holding the task's stderr does not keep
    the task running: the task ends when its command exits."""
    wf = one_stage_workflow(shell_task("starter", "sleep 3 & echo started"))
    log = run_local(wf, walltime=1.5)
    (done,) = by_name(log, "done")
    assert done.entity == "starter"
    assert done.time < 0.75
    assert log.extras["diagnostics"] == {}


def test_a_command_leaves_no_process_running_after_the_run(tmp_path):
    """A task's command owns its process group: what it left running in
    the background is killed when it exits."""
    pidfile = tmp_path / "pid"
    command = f"sleep 4 2>/dev/null & echo $! > {pidfile}"
    log = run_local(one_stage_workflow(shell_task("leaver", command)))
    assert compute_report(log).done_tasks == 1
    pid = int(pidfile.read_text())
    give_up = time.monotonic() + 1.0
    while process_state(pid) not in (None, "Z") and time.monotonic() < give_up:
        time.sleep(0.01)
    assert process_state(pid) in (None, "Z")


def test_a_flood_of_stderr_keeps_only_its_last_line_in_memory():
    """Stderr goes to a file, and only its last 4 KiB are read back."""
    command = "yes | head -c 33554432 >&2; echo last words >&2; exit 3"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        log = run_local(one_stage_workflow(shell_task("flood", command)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    diagnostic = log.extras["diagnostics"]["flood"]
    assert diagnostic == "command exited with status 3: last words"
    assert peak < 8 * 2**20


def test_a_run_leaves_no_file_descriptor_open():
    """Each child holds a pidfd and a stderr file: whichever way the child
    ends, both are closed by the time the run returns."""
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="ok", stages=[Stage([shell_task("ok", "true")])]),
            Pipeline(
                id="bad",
                stages=[
                    Stage([shell_task("bad", "exit 1"), shell_task("s", "sleep 30")])
                ],
            ),
            Pipeline(id="slow", stages=[Stage([shell_task("slow", "sleep 30")])]),
        ],
    )
    before = len(os.listdir("/proc/self/fd"))
    log = run_local(wf, walltime=1.0)
    after = len(os.listdir("/proc/self/fd"))
    terminal = {e.entity: e.name for e in log.events if e.name in TERMINAL}
    assert terminal == {
        "ok": "done",
        "bad": "failed",
        "s": "canceled",
        "slow": "canceled",
    }
    assert log.extras["diagnostics"]["slow"] == "walltime exceeded after 1.0s"
    assert after == before


def test_each_diagnostic_reads_only_its_own_commands_stderr():
    """Commands that run one after another in one worker slot each write
    stderr to a file of their own."""
    stages = [
        Stage([shell_task("loud", "yes | head -c 100000 >&2")]),
        Stage([shell_task("quiet", "echo short >&2; exit 4")]),
    ]
    wf = Workflow(name="wf", pipelines=[Pipeline(id="p0", stages=stages)])
    log = run_local(wf, max_workers=1)
    assert log.extras["diagnostics"] == {
        "quiet": "command exited with status 4: short"
    }


@pytest.mark.skipif(shutil.which("setsid") is None, reason="needs setsid")
def test_stray_stderr_from_an_escaped_process_reaches_no_later_diagnostic(tmp_path):
    """A process that left its command's session outlives the reap, and it
    still holds that command's stderr; what it writes there later is not
    read into the next task's diagnostic."""
    pidfile = tmp_path / "pid"
    escape = f"setsid sh -c 'echo $$ > {pidfile}; sleep 0.3; echo stray >&2' &"
    wf = one_stage_workflow(
        shell_task("escaper", f"{escape} sleep 0.1; exit 0"),
        shell_task("failer", "sleep 0.6; exit 3"),
    )
    log = run_local(wf, max_workers=1)
    assert check_log(log, wf) == []
    assert log.extras["diagnostics"] == {"failer": "command exited with status 3"}
    pid = int(pidfile.read_text())
    give_up = time.monotonic() + 2.0
    while process_state(pid) not in (None, "Z") and time.monotonic() < give_up:
        time.sleep(0.01)
    assert process_state(pid) in (None, "Z")


def test_a_command_that_cannot_start_fails_alone_and_leaks_no_descriptor(
    monkeypatch,
):
    """``Popen`` raising fails that one unit with a diagnostic; the run goes
    on, and the stderr file opened for it is closed."""
    real_popen = subprocess.Popen

    def popen(argv, **kwargs):
        if "exit 7" in argv:
            raise OSError("no process for you")
        return real_popen(argv, **kwargs)

    monkeypatch.setattr(localbackend.subprocess, "Popen", popen)
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="bad", stages=[Stage([shell_task("bad", "exit 7")])]),
            Pipeline(
                id="ok",
                stages=[
                    Stage([shell_task("ok1", "true")]),
                    Stage([shell_task("ok2", "true")]),
                ],
            ),
        ],
    )
    before = len(os.listdir("/proc/self/fd"))
    log = run_local(wf)
    after = len(os.listdir("/proc/self/fd"))
    assert check_log(log, wf) == []
    terminal = {e.entity: e.name for e in log.events if e.name in TERMINAL}
    assert terminal == {"bad": "failed", "ok1": "done", "ok2": "done"}
    assert log.extras["diagnostics"] == {"bad": "OSError: no process for you"}
    assert after == before
