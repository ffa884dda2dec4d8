"""Pilot submission, stage-succession bookkeeping, and runs on both backends."""

from __future__ import annotations

import dataclasses
import gc
import math
import re
import signal
from collections import Counter

import pytest

from pilotflow import localbackend, simbackend, units
from pilotflow.latency import LatencyModel, Sampler
from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.metrics import compute_report
from pilotflow.model import (
    IllegalTransitionError,
    Pipeline,
    ResourceRequest,
    Stage,
    TaskKind,
    TaskSpec,
    TaskState,
    Workflow,
    WorkflowValidationError,
    advance_task_state,
    peak_core_demand,
)
from pilotflow.profiling import EventLog, ProfileEvent
from pilotflow.runtime import (
    PILOT_UID,
    Cause,
    EngineCore,
    PilotRequestError,
    WorkflowTracker,
)
from pilotflow.simbackend import SimBackendConfig, sim_run
from pilotflow.units import translate_task

from helpers import TERMINAL, check_log, event_view, generate_esmacs


def null_task(tid: str, duration: float = 0.0) -> TaskSpec:
    return TaskSpec(
        id=tid,
        executable="md",
        expected_duration=duration,
    )


def two_stage_workflow() -> Workflow:
    return Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id="pa",
                stages=[
                    Stage(tasks=[null_task("a1"), null_task("a2")]),
                    Stage(tasks=[null_task("a3")]),
                ],
            ),
            Pipeline(
                id="pb",
                stages=[Stage(tasks=[null_task("b1")])],
            ),
        ],
    )


# --- pilot submission -----------------------------------------------------


def engine_core(request: ResourceRequest, workflow: Workflow | None = None):
    pull = Sampler(LatencyModel.constant(0.0), 0, "pull")
    workflow = two_stage_workflow() if workflow is None else workflow
    return EngineCore(workflow, request, pull)


def test_engine_core_submits_the_pilot_at_time_zero():
    core = engine_core(ResourceRequest(cores=8, walltime=60.0))
    assert core.request == ResourceRequest(cores=8, walltime=60.0)
    events = core.sink.events()
    assert len(events) == 1
    assert events[0].name == "submit" and events[0].time == 0.0
    assert events[0].entity == PILOT_UID


def test_engine_core_rejects_bad_requests():
    with pytest.raises(PilotRequestError):
        engine_core(ResourceRequest(cores=0, walltime=60.0))
    with pytest.raises(PilotRequestError):
        engine_core(ResourceRequest(cores=4, walltime=0.0))
    for walltime in (float("nan"), float("inf")):
        with pytest.raises(PilotRequestError, match="finite"):
            engine_core(ResourceRequest(cores=4, walltime=walltime))
    # An invalid workflow is reported before an invalid request.
    with pytest.raises(WorkflowValidationError):
        engine_core(
            ResourceRequest(cores=0, walltime=60.0), Workflow(name="bad", pipelines=[])
        )


def test_activate_starts_the_walltime():
    core = engine_core(ResourceRequest(cores=8, walltime=60.0))
    assert core.deadline == math.inf
    core.activate(2.0)
    assert core.deadline == 62.0


def advanced(core: EngineCore, task_id: str, last: TaskState):
    """``task_id``'s record, moved along the forward chain up to ``last``."""
    record = core.tracker.record_for(task_id)
    for state in (
        TaskState.TRANSLATED,
        TaskState.SCHEDULED,
        TaskState.STAGING_IN,
        TaskState.EXECUTING,
        TaskState.STAGING_OUT,
    ):
        advance_task_state(record, state)
        if state is last:
            return record
    raise ValueError(last)


def test_end_turns_each_cause_into_one_terminal_state_and_diagnostic():
    def pipeline(pid: str, *stages: list[str]) -> Pipeline:
        return Pipeline(pid, [Stage([null_task(t) for t in ids]) for ids in stages])

    workflow = Workflow(
        name="wf",
        pipelines=[
            pipeline("pa", ["a1", "a2", "a3"], ["a4"]),
            pipeline("pb", ["b1"]),
            pipeline("pc", ["c1"], ["c2"]),
            pipeline("pd", ["d1"]),
        ],
    )
    core = engine_core(ResourceRequest(cores=8, walltime=60.0), workflow)
    core.activate(0.0)
    c1 = advanced(core, "c1", TaskState.STAGING_OUT)
    assert core.end(c1, Cause.DONE, 1.0) == [core.tracker.record_for("c2")]
    a1 = advanced(core, "a1", TaskState.EXECUTING)
    a2 = advanced(core, "a2", TaskState.SCHEDULED)
    a3 = advanced(core, "a3", TaskState.TRANSLATED)  # still waiting for cores
    # A failure cancels its unfinished siblings, placed or not, and returns
    # them.
    assert core.end(a1, Cause.ERROR, 2.0, "command exited with status 1") == [a2, a3]
    b1 = advanced(core, "b1", TaskState.EXECUTING)
    assert core.end(b1, Cause.WALLTIME, 60.0) == []
    # close() ends a task still placed as cut by the walltime.
    advanced(core, "d1", TaskState.STAGING_IN)
    log = core.close(60.5, "test", None, {"kept": True})
    terminal = {e.entity: e.name for e in log.events if e.name in TERMINAL}
    assert terminal == {
        "c1": "done",
        "a1": "failed",
        "a2": "canceled",
        "a3": "canceled",
        "b1": "canceled",
        "a4": "canceled",
        "c2": "canceled",
        "d1": "canceled",
    }
    sibling = "canceled: sibling task a1 failed"
    # close() cancels what was never placed with no diagnostic.
    assert log.extras == {
        "diagnostics": {
            "a1": "command exited with status 1",
            "a2": sibling,
            "a3": sibling,
            "b1": "walltime exceeded after 60.0s",
            "d1": "walltime exceeded after 60.0s",
        },
        "kept": True,
    }


def placed(core: EngineCore, task_id: str):
    """The unit of ``task_id``, translated and placed on the core's cores."""
    unit = translate_task(core.tracker.record_for(task_id).task, core.allocator)
    core.scheduler.offer(unit)
    assert [u for u, _ in core.scheduler.place_ready()] == [unit]
    return unit


@pytest.mark.parametrize("state", [TaskState.DONE, TaskState.FAILED])
def test_placing_the_unit_of_an_ended_task_is_refused(state):
    """A task that ended DONE or FAILED has run: a unit of it placed again is
    an illegal move, which leaves the record and the log as they were."""
    core = engine_core(ResourceRequest(cores=8, walltime=60.0))
    record = advanced(core, "a1", TaskState.STAGING_OUT)
    advance_task_state(record, state)
    unit = placed(core, "a1")
    rows = len(core.sink.events())
    with pytest.raises(
        IllegalTransitionError,
        match=rf"^illegal transition from {state.value} to SCHEDULED \(task a1\)$",
    ):
        core.scheduled(unit, 1.0)
    assert record.state is state
    assert len(core.sink.events()) == rows


def test_placing_the_unit_of_a_canceled_task_frees_its_cores():
    """A failed sibling's cancel is the one reason a placed unit's task may
    have ended: its cores are freed, it is not scheduled, and None says so.
    Any other placement returns the task's record, now SCHEDULED."""
    core = engine_core(ResourceRequest(cores=2, walltime=60.0))
    running = advanced(core, "a1", TaskState.TRANSLATED)
    assert core.scheduled(placed(core, "a1"), 1.0) is running
    assert running.state is TaskState.SCHEDULED
    record = advanced(core, "a2", TaskState.TRANSLATED)
    advance_task_state(record, TaskState.CANCELED)
    waiting = placed(core, "a2")
    assert core.scheduler.cores.free == 0
    assert core.scheduled(waiting, 1.0) is None
    assert core.scheduler.cores.free == 1
    assert record.state is TaskState.CANCELED
    assert [e.entity for e in core.sink.events() if e.name == "schedule"] == ["a1"]


def test_release_refuses_a_unit_not_placed_or_released_already():
    core = engine_core(ResourceRequest(cores=8, walltime=60.0))
    record = core.tracker.record_for("a1")
    never = translate_task(record.task, core.allocator)
    with pytest.raises(KeyError):
        core.release(never)
    unit = placed(core, "a1")
    assert core.release(unit) is record
    with pytest.raises(KeyError):
        core.release(unit)


# --- tracker ----------------------------------------------------------------


def finish(tracker: WorkflowTracker, record) -> list:
    for state in (
        TaskState.TRANSLATED,
        TaskState.SCHEDULED,
        TaskState.STAGING_IN,
        TaskState.EXECUTING,
        TaskState.STAGING_OUT,
        TaskState.DONE,
    ):
        advance_task_state(record, state)
    return tracker.on_terminal(record)


def test_initial_ready_is_every_first_stage():
    tracker = WorkflowTracker(two_stage_workflow())
    ready = tracker.initial_ready()
    assert sorted(r.task.id for r in ready) == ["a1", "a2", "b1"]
    assert all(p.done == 0 for p in tracker.pipelines)


def test_stage_advances_only_when_all_tasks_done():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    first = tracker.record_for("a1")
    second = tracker.record_for("a2")
    assert finish(tracker, first) == []
    ready = finish(tracker, second)
    assert [r.task.id for r in ready] == ["a3"]


def test_last_stage_completion_finishes_pipeline():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    assert finish(tracker, tracker.record_for("b1")) == []
    pa, pb = tracker.pipelines
    assert pb.done == 1
    # The other pipeline goes on: its stages still advance.
    finish(tracker, tracker.record_for("a1"))
    assert [r.task.id for r in finish(tracker, tracker.record_for("a2"))] == ["a3"]
    assert finish(tracker, tracker.record_for("a3")) == []
    assert [p.done for p in tracker.pipelines] == [3, 1]


def test_failure_fails_stage_and_pipeline_only():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    record = tracker.record_for("a1")
    advance_task_state(record, TaskState.FAILED)
    assert tracker.on_terminal(record) == []
    pa, pb = tracker.pipelines
    assert pa.done == pb.done == 0
    # a2's completion readies nothing of the failed pipeline, while the
    # other pipeline's completion still counts.
    assert finish(tracker, tracker.record_for("a2")) == []
    assert finish(tracker, tracker.record_for("b1")) == [] and pb.done == 1


def test_late_sibling_completion_cannot_resurrect_a_failed_pipeline():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    advance_task_state(tracker.record_for("a1"), TaskState.FAILED)
    tracker.on_terminal(tracker.record_for("a1"))
    ready = finish(tracker, tracker.record_for("a2"))
    assert ready == []
    pa, _pb = tracker.pipelines
    assert pa.done == 1


def test_tracker_rejects_invalid_workflows():
    with pytest.raises(WorkflowValidationError):
        WorkflowTracker(Workflow(name="bad", pipelines=[]))


def test_the_tracker_adds_at_most_one_tracked_object_per_task():
    """One record per task; the rest is a constant per pipeline."""
    workflow = generate_esmacs(replicas=64)
    tasks, pipelines = len(workflow.tasks()), len(workflow.pipelines)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tracker = WorkflowTracker(workflow)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tracker.all_records()) == tasks
    assert added <= tasks + 4 * pipelines + 8


def test_on_terminal_requires_a_terminal_record():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    with pytest.raises(ValueError):
        tracker.on_terminal(tracker.record_for("a1"))


# --- backends ----------------------------------------------------------------


def test_sim_run_logs_the_sim_backend():
    wf = two_stage_workflow()
    log = sim_run(wf, ResourceRequest(cores=4, walltime=1000.0), SimBackendConfig())
    assert log.backend == "sim"
    assert compute_report(log).done_tasks == 4


def test_local_run_logs_the_local_backend():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id="p",
                stages=[
                    Stage(
                        tasks=[
                            TaskSpec(
                                id="t",
                                executable="sleep",
                                arguments=("0",),
                            )
                        ],
                    )
                ],
            )
        ],
    )
    log = local_run(wf, ResourceRequest(cores=1, walltime=60.0), LocalBackendConfig())
    assert log.backend == "local"
    assert compute_report(log).done_tasks == 1


def test_sim_run_allows_under_provisioning():
    wf = two_stage_workflow()  # two concurrent single-core tasks at peak
    log = sim_run(wf, ResourceRequest(cores=1, walltime=1000.0), SimBackendConfig())
    assert compute_report(log).done_tasks == 4


def test_both_backends_write_the_same_events_per_entity():
    """One engine core narrates every entity the same way on either backend."""
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    request = ResourceRequest(cores=peak_core_demand(wf), walltime=300.0)
    sim_log = sim_run(wf, request, SimBackendConfig())
    local_log = local_run(wf, request, LocalBackendConfig())
    assert check_log(sim_log, wf) == check_log(local_log, wf) == []

    def names_by_entity(log) -> dict[str, list[str]]:
        names: dict[str, list[str]] = {}
        for event in log.events:
            names.setdefault(event.entity, []).append(event.name)
        return names

    sim, local = names_by_entity(sim_log), names_by_entity(local_log)
    assert sim.keys() == local.keys()
    assert len(sim) == 1 + 2 * 14  # the pilot, then a task and a unit per task
    # How often the agent pulls depends on when units become ready, which
    # is each backend's timing; the pilot's vocabulary and order still match.
    assert list(dict.fromkeys(sim.pop(PILOT_UID))) == list(
        dict.fromkeys(local.pop(PILOT_UID))
    )
    assert sim == local


@pytest.mark.parametrize(
    "backend, run, config",
    [
        (simbackend, sim_run, SimBackendConfig()),
        (localbackend, local_run, LocalBackendConfig()),
    ],
    ids=["sim", "local"],
)
def test_unit_rows_carry_their_tasks_pipeline_and_stage(
    monkeypatch, backend, run, config
):
    """A unit carries no pipeline or stage: its enqueue and unit_io rows take
    them from its task's record, so they match the rows of its task."""
    wf = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    where = {
        task.id: (pipeline.id, index)
        for pipeline in wf.pipelines
        for index, stage in enumerate(pipeline.stages)
        for task in stage.tasks
    }
    task_of: dict[str, str] = {}

    def translate(task, allocator):
        unit = units.translate_task(task, allocator)
        task_of[unit.uid] = task.id
        return unit

    monkeypatch.setattr(backend, "translate_task", translate)
    log = run(wf, ResourceRequest(cores=peak_core_demand(wf), walltime=300.0), config)
    rows: dict[str, set] = {}
    names: dict[str, list[str]] = {}
    for event in log.events:
        rows.setdefault(event.entity, set()).add((event.pipeline, event.stage))
        names.setdefault(event.entity, []).append(event.name)
    assert sorted(task_of.values()) == sorted(where)
    for uid, task_id in task_of.items():
        assert names[uid] == ["enqueue", "unit_io_begin", "unit_io_end"]
        assert rows[uid] == rows[task_id] == {where[task_id]}


def test_a_walltime_cut_ends_the_same_tasks_the_same_way_on_both_backends():
    """One rule book: under a 1 s walltime the simulator and real processes
    give the same terminal event per task and the same diagnostics."""

    def sh(tid: str, command: str, duration: float = 0.0) -> TaskSpec:
        return TaskSpec(
            id=tid,
            executable="/bin/sh",
            arguments=("-c", command),
            expected_duration=duration,
        )

    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="fast", stages=[Stage([sh("f", "sleep 0.1", 0.1)])]),
            Pipeline(
                id="slow",
                stages=[Stage([sh("s1", "sleep 30", 30.0)]), Stage([sh("s2", "true")])],
            ),
        ],
    )
    request = ResourceRequest(cores=2, walltime=1.0)
    logs = [
        sim_run(wf, request, SimBackendConfig()),
        local_run(wf, request, LocalBackendConfig()),
    ]
    assert [check_log(log, wf) for log in logs] == [[], []]
    sim, local = (
        Counter((e.entity, e.name) for e in log.events if e.name in TERMINAL)
        for log in logs
    )
    assert sim == local == Counter(
        [("f", "done"), ("s1", "canceled"), ("s2", "canceled")]
    )
    diagnostics = [log.extras["diagnostics"] for log in logs]
    assert diagnostics[0] == diagnostics[1] == {"s1": "walltime exceeded after 1.0s"}


def test_check_log_reports_each_broken_invariant_once():
    """A sound simulated log passes the checker, and each copy of it broken
    one way yields exactly that one violation."""
    wf = generate_esmacs(replicas=2)
    request = ResourceRequest(cores=peak_core_demand(wf), walltime=1e6)
    log = sim_run(wf, request, SimBackendConfig())
    assert check_log(log, wf) == []
    events = list(log.events)
    time_of = {(e.entity, e.name): e.time for e in events}
    stages = wf.pipelines[0].stages
    first, second, last = (stages[k].tasks[0].id for k in (0, 1, -1))
    ran = next(
        t.id
        for t in wf.tasks()
        if time_of[t.id, "exec_begin"] < time_of[t.id, "exec_end"]
    )
    done = next(e for e in events if (e.entity, e.name) == (last, "done"))
    place = (wf.pipelines[0].id, 0)  # the stage of the one task `first`
    enqueue = next(
        e for e in events if (e.name, e.pipeline, e.stage) == ("enqueue", *place)
    )
    finished = next(e for e in events if e.name == "pilot_done")
    swap = {"exec_begin": "exec_end", "exec_end": "exec_begin"}

    def swapped(event: ProfileEvent) -> ProfileEvent:
        if event.entity == ran and event.name in swap:
            return event._replace(name=swap[event.name])
        return event

    def moved(event: ProfileEvent) -> ProfileEvent:
        if (event.entity, event.name) == (second, "translate_begin"):
            return event._replace(time=time_of[first, "done"] - 0.5)
        return event

    def early(event: ProfileEvent) -> ProfileEvent:
        if event is enqueue:
            return event._replace(time=time_of[first, "translate_end"] - 0.5)
        return event

    def broken(rows: list[ProfileEvent], **fields) -> EventLog:
        return dataclasses.replace(log, events=event_view(rows), **fields)

    cases = [
        (
            broken([e for e in events if e is not done]),
            rf"task {last}: 0 terminal events \[\]",
        ),
        (
            broken([*events, done._replace(name="canceled")]),
            rf"task {last}: 2 terminal events \['done', 'canceled'\]",
        ),
        (
            broken(list(map(swapped, events))),
            rf"task {ran}: exec_end at \S+ before exec_begin at \S+",
        ),
        (
            broken([*events, enqueue]),
            rf"unit {enqueue.entity}: 2 enqueue events",
        ),
        (
            broken(list(map(early, events))),
            rf"unit {enqueue.entity} of task {first}: enqueue at \S+ "
            rf"before translate_end at \S+",
        ),
        (
            broken(list(map(moved, events))),
            rf"pipeline {wf.pipelines[0].id}: stage 1 starts at \S+, "
            rf"before stage 0 ends at \S+",
        ),
        (
            broken(events, pilot_cores=log.pilot_cores - 1),
            rf"{log.pilot_cores} cores in use at \S+, pilot has {log.pilot_cores - 1}",
        ),
        (
            broken([*events, finished._replace(time=finished.time + 1, name="submit")]),
            rf"{PILOT_UID}: submit at \S+ after pilot_done at {finished.time!r}",
        ),
    ]
    for broken_log, pattern in cases:
        violations = check_log(broken_log, wf)
        assert len(violations) == 1, (pattern, violations)
        assert re.fullmatch(pattern, violations[0]), (pattern, violations)


def enqueue_a1_again(monkeypatch, with_task: str) -> None:
    """Make the core enqueue the unit of task ``a1`` a second time, right
    after the unit of ``with_task``: ``a1`` itself, or a later task."""
    enqueue = EngineCore.enqueue
    first = {}

    def enqueue_twice(self, unit, time):
        enqueue(self, unit, time)
        first.setdefault(unit.task.id, unit)
        if unit.task.id == with_task:
            enqueue(self, first["a1"], time)

    monkeypatch.setattr(EngineCore, "enqueue", enqueue_twice)


@pytest.mark.parametrize("with_task", ["a1", "a3"], ids=["at_once", "after_it_ran"])
def test_a_unit_enqueued_twice_is_refused_when_placed_again_in_the_simulator(
    monkeypatch, with_task
):
    """The simulator writes a placed unit's done ahead of its time, so the
    second copy finds the task DONE, whenever it comes."""
    enqueue_a1_again(monkeypatch, with_task)
    request = ResourceRequest(cores=8, walltime=1000.0)
    with pytest.raises(
        IllegalTransitionError,
        match=r"^illegal transition from DONE to SCHEDULED \(task a1\)$",
    ):
        sim_run(two_stage_workflow(), request, SimBackendConfig())


@pytest.mark.parametrize(
    "with_task, state",
    [("a1", "SCHEDULED"), ("a3", "DONE")],
    ids=["at_once", "after_it_ran"],
)
def test_a_unit_enqueued_twice_is_refused_when_placed_again_locally(
    monkeypatch, tmp_path, with_task, state
):
    """The second copy is refused whether the first is still placed or has
    ended, and the refusal kills every child and removes the sandboxes:
    after ``a1`` ran, ``b1`` is still sleeping."""
    enqueue_a1_again(monkeypatch, with_task)
    started = {}
    popen = localbackend.subprocess.Popen

    def recording_popen(argv, **kwargs):
        proc = popen(argv, **kwargs)
        started[argv[-1]] = proc
        return proc

    monkeypatch.setattr(localbackend.subprocess, "Popen", recording_popen)
    sleep = "sleep 30"

    def sh(tid: str, command: str = "true") -> TaskSpec:
        return TaskSpec(id=tid, executable="/bin/sh", arguments=("-c", command))

    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="pa", stages=[Stage([sh("a1"), sh("a2")]), Stage([sh("a3")])]),
            Pipeline(id="pb", stages=[Stage([sh("b1", sleep)])]),
        ],
    )
    sandboxes = tmp_path / "sandboxes"
    config = LocalBackendConfig(sandbox_root=str(sandboxes))
    try:
        with pytest.raises(
            IllegalTransitionError,
            match=rf"^illegal transition from {state} to SCHEDULED \(task a1\)$",
        ):
            local_run(wf, ResourceRequest(cores=8, walltime=300.0), config)
        codes = {command: proc.poll() for command, proc in started.items()}
    finally:
        for proc in started.values():  # whatever the run left running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if with_task == "a1":
        assert codes == {}  # refused in the first placement pass
    else:
        assert codes == {"true": 0, sleep: -signal.SIGKILL}
    assert list(sandboxes.iterdir()) == []


def test_a_unit_enqueued_twice_after_a_walltime_cut_is_not_run_again(
    monkeypatch, log_violations
):
    """A copy placed after its task was cut is skipped like any unit of a
    canceled task: the simulator writes no second schedule and no second
    terminal event. The second ``enqueue`` is the log's one violation."""
    wf = Workflow(
        name="wf",
        pipelines=[Pipeline(id="p", stages=[Stage([null_task("a1", 30.0)])])],
    )
    enqueue_a1_again(monkeypatch, "a1")
    log = sim_run(wf, ResourceRequest(cores=2, walltime=1.0), SimBackendConfig())
    assert [e.name for e in log.events if e.entity == "a1"] == [
        "translate_begin",
        "translate_end",
        "schedule",
        "stage_in_begin",
        "stage_in_end",
        "canceled",
    ]
    assert log.extras["diagnostics"] == {"a1": "walltime exceeded after 1.0s"}
    assert log_violations == ["unit unit.000000: 2 enqueue events"]
    log_violations.clear()


# --- pipeline independence --------------------------------------------------


def test_pipelines_do_not_interfere_under_full_provisioning():
    """A pipeline's task completion times match a run where it is alone."""
    durations = {"pa": [0.5, 1.5], "pb": [2.5, 0.5]}

    def build(pids):
        return Workflow(
            name="wf",
            pipelines=[
                Pipeline(
                    id=pid,
                    stages=[
                        Stage(tasks=[null_task(f"{pid}-{k}", d)])
                        for k, d in enumerate(durations[pid])
                    ],
                )
                for pid in pids
            ],
        )

    config = SimBackendConfig(
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
    )

    def done_times(log):
        return {e.entity: e.time for e in log.events if e.name == "done"}

    together = done_times(
        sim_run(build(["pa", "pb"]), ResourceRequest(2, 1000.0), config)
    )
    alone_a = done_times(sim_run(build(["pa"]), ResourceRequest(1, 1000.0), config))
    alone_b = done_times(sim_run(build(["pb"]), ResourceRequest(1, 1000.0), config))
    for task_id, when in alone_a.items():
        assert together[task_id] == when
    for task_id, when in alone_b.items():
        assert together[task_id] == when
