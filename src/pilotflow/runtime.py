"""Pilot lifecycle and the bookkeeping shared by both execution backends.

A pilot is a placeholder job: it acquires a block of cores first and binds
work to them later, so task scheduling happens inside the allocation rather
than in the machine's batch queue. The workflow manager translates ready
tasks into unit descriptions and enqueues them; the pilot agent pulls them
in bulk and places them on cores.

:class:`WorkflowTracker` holds the structural rules both backends share:
stage k+1 of a pipeline becomes ready only when every task of stage k is
done, pipelines never wait for each other, and a failed task fails only its
own pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import (
    PipelineState,
    ResourceRequest,
    StageState,
    TaskRecord,
    TaskState,
    Workflow,
    WorkflowValidationError,
    validate_workflow,
)
from .profiling import EventLog, ProfileEvent, ProfileSink


class PilotState(str, Enum):
    NEW = "NEW"
    QUEUED = "QUEUED"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"


class PilotRequestError(Exception):
    """The resource request cannot describe a runnable pilot."""


@dataclass
class Pilot:
    uid: str
    request: ResourceRequest
    state: PilotState = PilotState.NEW
    submitted_at: float | None = None
    active_at: float | None = None


def submit_pilot(
    request: ResourceRequest,
    sink: ProfileSink,
    uid: str = "pilot.0000",
    time: float = 0.0,
) -> Pilot:
    """Validate a resource request and enter it into the queue.

    Emits the ``submit`` point event; the backend emits ``pilot_active``
    once the allocation comes up.
    """
    if request.cores < 1:
        raise PilotRequestError("pilot needs at least one core")
    if request.walltime <= 0:
        raise PilotRequestError("pilot walltime must be positive")
    pilot = Pilot(
        uid=uid, request=request, state=PilotState.QUEUED, submitted_at=time
    )
    sink.append(ProfileEvent(time=time, entity=uid, name="submit"))
    return pilot


@dataclass
class StageRun:
    index: int
    records: list[TaskRecord]
    state: StageState = StageState.NEW


@dataclass
class PipelineRun:
    id: str
    stages: list[StageRun]
    current: int = 0
    state: PipelineState = PipelineState.NEW


class WorkflowTracker:
    """Drives stage succession; backends own timing and execution."""

    def __init__(self, workflow: Workflow) -> None:
        result = validate_workflow(workflow)
        if not result.ok:
            raise WorkflowValidationError(result.violations)
        self.pipelines: list[PipelineRun] = []
        self._by_task: dict[str, tuple[PipelineRun, StageRun, TaskRecord]] = {}
        for pipeline in workflow.pipelines:
            stage_runs: list[StageRun] = []
            run = PipelineRun(id=pipeline.id, stages=stage_runs)
            for stage in pipeline.stages:
                records = [
                    TaskRecord(
                        task=task, pipeline_id=pipeline.id, stage_index=stage.index
                    )
                    for task in stage.tasks
                ]
                stage_run = StageRun(index=stage.index, records=records)
                stage_runs.append(stage_run)
                for record in records:
                    self._by_task[record.task.id] = (run, stage_run, record)
            self.pipelines.append(run)

    def record_for(self, task_id: str) -> TaskRecord:
        return self._by_task[task_id][2]

    def pipeline_failed(self, task_id: str) -> bool:
        """Whether the pipeline that owns ``task_id`` has failed."""
        return self._by_task[task_id][0].state is PipelineState.FAILED

    def all_records(self) -> list[TaskRecord]:
        return [entry[2] for entry in self._by_task.values()]

    def initial_ready(self) -> list[TaskRecord]:
        """First stage of every pipeline; marks them active."""
        ready: list[TaskRecord] = []
        for pipeline in self.pipelines:
            pipeline.state = PipelineState.ACTIVE
            first = pipeline.stages[0]
            first.state = StageState.ACTIVE
            ready.extend(first.records)
        return ready

    def on_terminal(self, record: TaskRecord) -> list[TaskRecord]:
        """React to a task reaching a terminal state.

        Returns the records of the next stage when this completion finished
        its stage; otherwise an empty list. Failure (or cancellation) marks
        the stage and owning pipeline failed without touching any other
        pipeline.
        """
        if not record.state.is_terminal:
            raise ValueError(f"task {record.task.id} is not terminal")
        pipeline, stage, _ = self._by_task[record.task.id]
        if record.state is not TaskState.DONE:
            stage.state = StageState.FAILED
            pipeline.state = PipelineState.FAILED
            return []
        if pipeline.state is PipelineState.FAILED:
            # A sibling already failed the pipeline; this late completion
            # does not resurrect it.
            return []
        if not all(r.state is TaskState.DONE for r in stage.records):
            return []
        stage.state = StageState.DONE
        if pipeline.current + 1 < len(pipeline.stages):
            pipeline.current += 1
            next_stage = pipeline.stages[pipeline.current]
            next_stage.state = StageState.ACTIVE
            return list(next_stage.records)
        pipeline.state = PipelineState.DONE
        return []

    def non_terminal_in_pipeline(self, pipeline_id: str) -> list[TaskRecord]:
        """Launched-but-unfinished records of one pipeline (for cancellation)."""
        for pipeline in self.pipelines:
            if pipeline.id == pipeline_id:
                stage = pipeline.stages[pipeline.current]
                return [r for r in stage.records if not r.state.is_terminal]
        raise KeyError(pipeline_id)

    def finished(self) -> bool:
        return all(
            p.state in (PipelineState.DONE, PipelineState.FAILED)
            for p in self.pipelines
        )

    def status(self) -> str:
        return (
            "DONE"
            if all(p.state is PipelineState.DONE for p in self.pipelines)
            else "FAILED"
        )


def run_workflow(workflow: Workflow, request: ResourceRequest, backend) -> EventLog:
    """Execute a workflow on the backend selected by the config object.

    The request may be smaller than the workflow's peak demand; tasks then
    wait inside the pilot. Only a single task wider than the whole pilot is
    rejected.
    """
    from .localbackend import LocalBackendConfig, local_run
    from .simbackend import SimBackendConfig, sim_run

    if isinstance(backend, SimBackendConfig):
        return sim_run(workflow, request, backend)
    if isinstance(backend, LocalBackendConfig):
        return local_run(workflow, request, backend)
    raise TypeError(f"unsupported backend config: {type(backend).__name__}")
