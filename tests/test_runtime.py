"""Pilot submission, stage-succession bookkeeping, and backend dispatch."""

from __future__ import annotations

import pytest

from pilotflow.latency import LatencyModel
from pilotflow.localbackend import LocalBackendConfig
from pilotflow.metrics import compute_report
from pilotflow.model import (
    LifecycleEvent,
    Pipeline,
    PipelineState,
    ResourceRequest,
    Stage,
    StageState,
    TaskKind,
    TaskSpec,
    TaskState,
    Workflow,
    WorkflowValidationError,
    advance_task_state,
)
from pilotflow.profiling import ProfileSink
from pilotflow.runtime import (
    PilotRequestError,
    PilotState,
    WorkflowTracker,
    run_workflow,
    submit_pilot,
)
from pilotflow.simbackend import SimBackendConfig


def null_task(tid: str, duration: float = 0.0) -> TaskSpec:
    return TaskSpec(
        id=tid,
        kind=TaskKind.SIMULATED,
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
                    Stage(index=0, tasks=[null_task("a1"), null_task("a2")]),
                    Stage(index=1, tasks=[null_task("a3")]),
                ],
            ),
            Pipeline(
                id="pb",
                stages=[Stage(index=0, tasks=[null_task("b1")])],
            ),
        ],
    )


# --- pilot submission -----------------------------------------------------


def test_submit_pilot_queues_and_records_the_event():
    sink = ProfileSink()
    pilot = submit_pilot(ResourceRequest(cores=8, walltime=60.0), sink, time=1.5)
    assert pilot.state is PilotState.QUEUED
    assert pilot.submitted_at == 1.5
    events = sink.events()
    assert len(events) == 1
    assert events[0].name == "submit" and events[0].time == 1.5


def test_submit_pilot_rejects_bad_requests():
    sink = ProfileSink()
    with pytest.raises(PilotRequestError):
        submit_pilot(ResourceRequest(cores=0, walltime=60.0), sink)
    with pytest.raises(PilotRequestError):
        submit_pilot(ResourceRequest(cores=4, walltime=0.0), sink)


# --- tracker ----------------------------------------------------------------


def finish(tracker: WorkflowTracker, record) -> list:
    for event in (
        LifecycleEvent.TRANSLATED,
        LifecycleEvent.SCHEDULED,
        LifecycleEvent.STAGE_IN_STARTED,
        LifecycleEvent.EXEC_STARTED,
        LifecycleEvent.COMPLETED,
        LifecycleEvent.STAGED_OUT,
    ):
        advance_task_state(record, event)
    return tracker.on_terminal(record)


def test_initial_ready_is_every_first_stage():
    tracker = WorkflowTracker(two_stage_workflow())
    ready = tracker.initial_ready()
    assert sorted(r.task.id for r in ready) == ["a1", "a2", "b1"]
    assert all(p.state is PipelineState.ACTIVE for p in tracker.pipelines)


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
    pb = next(p for p in tracker.pipelines if p.id == "pb")
    assert pb.state is PipelineState.DONE
    assert not tracker.finished()  # pa is still active


def test_failure_fails_stage_and_pipeline_only():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    record = tracker.record_for("a1")
    advance_task_state(record, LifecycleEvent.FAILED)
    assert tracker.on_terminal(record) == []
    pa = next(p for p in tracker.pipelines if p.id == "pa")
    pb = next(p for p in tracker.pipelines if p.id == "pb")
    assert pa.state is PipelineState.FAILED
    assert pa.stages[0].state is StageState.FAILED
    assert pb.state is PipelineState.ACTIVE
    assert tracker.pipeline_failed("a2") and tracker.pipeline_failed("a3")
    assert not tracker.pipeline_failed("b1")


def test_late_sibling_completion_cannot_resurrect_a_failed_pipeline():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    advance_task_state(tracker.record_for("a1"), LifecycleEvent.FAILED)
    tracker.on_terminal(tracker.record_for("a1"))
    ready = finish(tracker, tracker.record_for("a2"))
    assert ready == []
    pa = next(p for p in tracker.pipelines if p.id == "pa")
    assert pa.state is PipelineState.FAILED


def test_non_terminal_listing_for_cancellation():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    advance_task_state(tracker.record_for("a1"), LifecycleEvent.FAILED)
    tracker.on_terminal(tracker.record_for("a1"))
    pending = tracker.non_terminal_in_pipeline("pa")
    assert [r.task.id for r in pending] == ["a2"]


def test_status_reflects_outcomes():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    finish(tracker, tracker.record_for("a1"))
    finish(tracker, tracker.record_for("a2"))
    finish(tracker, tracker.record_for("a3"))
    finish(tracker, tracker.record_for("b1"))
    assert tracker.finished()
    assert tracker.status() == "DONE"


def test_tracker_rejects_invalid_workflows():
    with pytest.raises(WorkflowValidationError):
        WorkflowTracker(Workflow(name="bad", pipelines=[]))


def test_on_terminal_requires_a_terminal_record():
    tracker = WorkflowTracker(two_stage_workflow())
    tracker.initial_ready()
    with pytest.raises(ValueError):
        tracker.on_terminal(tracker.record_for("a1"))


# --- dispatch ----------------------------------------------------------------


def test_run_workflow_dispatches_to_sim():
    wf = two_stage_workflow()
    log = run_workflow(wf, ResourceRequest(cores=4, walltime=1000.0), SimBackendConfig())
    assert log.backend == "sim"
    assert compute_report(log).done_tasks == 4


def test_run_workflow_dispatches_to_local():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id="p",
                stages=[
                    Stage(
                        index=0,
                        tasks=[
                            TaskSpec(
                                id="t",
                                kind=TaskKind.NULL_WORKLOAD,
                                executable="sleep",
                                arguments=("0",),
                            )
                        ],
                    )
                ],
            )
        ],
    )
    log = run_workflow(wf, ResourceRequest(cores=1, walltime=60.0), LocalBackendConfig())
    assert log.backend == "local"
    assert compute_report(log).done_tasks == 1


def test_run_workflow_rejects_unknown_backends():
    with pytest.raises(TypeError):
        run_workflow(
            two_stage_workflow(), ResourceRequest(cores=1, walltime=60.0), object()
        )


def test_run_workflow_allows_under_provisioning():
    wf = two_stage_workflow()  # two concurrent single-core tasks at peak
    log = run_workflow(wf, ResourceRequest(cores=1, walltime=1000.0), SimBackendConfig())
    assert compute_report(log).done_tasks == 4


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
                        Stage(index=k, tasks=[null_task(f"{pid}-{k}", d)])
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
        run_workflow(build(["pa", "pb"]), ResourceRequest(2, 1000.0), config)
    )
    alone_a = done_times(run_workflow(build(["pa"]), ResourceRequest(1, 1000.0), config))
    alone_b = done_times(run_workflow(build(["pb"]), ResourceRequest(1, 1000.0), config))
    for task_id, when in alone_a.items():
        assert together[task_id] == when
    for task_id, when in alone_b.items():
        assert together[task_id] == when
