"""Pilot lifecycle and the bookkeeping shared by both execution backends.

A pilot is a placeholder job: it acquires a block of cores first and binds
work to them later, so task scheduling happens inside the allocation rather
than in the machine's batch queue. The workflow manager translates ready
tasks into unit descriptions and enqueues them; the pilot agent pulls them
in bulk and places them on cores. A run has one pilot: its uid is
:data:`PILOT_UID`, its resource request is held by :class:`EngineCore`, and
its life shows in the log as the ``submit``, ``pilot_active`` and
``pilot_done`` events.

:class:`WorkflowTracker` holds the structural rules both backends share:
stage k+1 of a pipeline becomes ready only when every task of stage k is
done, pipelines never wait for each other, and a failed task fails only its
own pipeline. It keeps, per pipeline, each stage as the list of its task
records, the position of the current stage and whether the pipeline has
failed. Whether the run succeeded is not kept here: it follows from the
terminal events of the log (:func:`pilotflow.metrics.compute_report`).

:class:`EngineCore` is the manager/agent story both backends tell: it owns
the store, the scheduler and the tracker, moves each task through its
states and writes every event of a unit's life at the time the backend
gives it. The simulator takes those times from its event heap, the local
backend from a monotonic clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .latency import Sampler
from .model import (
    ResourceRequest,
    TaskRecord,
    TaskState,
    Workflow,
    WorkflowValidationError,
    advance_task_state,
    validate_workflow,
)
from .profiling import EventLog, ProfileSink
from .scheduler import FirstFitScheduler
from .units import TaskStore, UnitDescription, UnitIdAllocator


class PilotRequestError(Exception):
    """The resource request cannot describe a runnable pilot."""


PILOT_UID = "pilot.0000"


@dataclass
class PipelineRun:
    """One pipeline's progress: the task records of each stage, in order,
    the position of the current stage and whether the pipeline failed."""

    id: str
    stages: list[list[TaskRecord]]
    current: int = 0
    failed: bool = False


class WorkflowTracker:
    """Drives stage succession; backends own timing and execution."""

    def __init__(self, workflow: Workflow) -> None:
        violations = validate_workflow(workflow)
        if violations:
            raise WorkflowValidationError(violations)
        self.pipelines: list[PipelineRun] = []
        self._by_task: dict[str, tuple[PipelineRun, list[TaskRecord], TaskRecord]] = {}
        for pipeline in workflow.pipelines:
            run = PipelineRun(id=pipeline.id, stages=[])
            for index, stage in enumerate(pipeline.stages):
                records = [
                    TaskRecord(task=task, pipeline_id=pipeline.id, stage_index=index)
                    for task in stage.tasks
                ]
                run.stages.append(records)
                for record in records:
                    self._by_task[record.task.id] = (run, records, record)
            self.pipelines.append(run)

    def record_for(self, task_id: str) -> TaskRecord:
        return self._by_task[task_id][2]

    def pipeline_failed(self, task_id: str) -> bool:
        """Whether the pipeline that owns ``task_id`` has failed."""
        return self._by_task[task_id][0].failed

    def all_records(self) -> list[TaskRecord]:
        return [entry[2] for entry in self._by_task.values()]

    def initial_ready(self) -> list[TaskRecord]:
        """The records of every pipeline's first stage."""
        return [record for pipeline in self.pipelines for record in pipeline.stages[0]]

    def on_terminal(self, record: TaskRecord) -> list[TaskRecord]:
        """React to a task reaching a terminal state.

        Returns the records of the next stage when this completion finished
        its stage; otherwise an empty list. Failure (or cancellation) marks
        the owning pipeline failed without touching any other pipeline.
        """
        if not record.state.is_terminal:
            raise ValueError(f"task {record.task.id} is not terminal")
        pipeline, stage, _ = self._by_task[record.task.id]
        if record.state is not TaskState.DONE:
            pipeline.failed = True
            return []
        if pipeline.failed:
            # A sibling already failed the pipeline; this late completion
            # does not resurrect it.
            return []
        if not all(r.state is TaskState.DONE for r in stage):
            return []
        if pipeline.current + 1 < len(pipeline.stages):
            pipeline.current += 1
            return list(pipeline.stages[pipeline.current])
        return []


# The state a unit enters as each execution phase opens, and the name of
# the event that closes the phase. The names are constants so that every
# event shares one string object rather than building its own.
_PHASES = {
    "stage_in": (TaskState.STAGING_IN, "stage_in_end"),
    "exec": (TaskState.EXECUTING, "exec_end"),
    "stage_out": (TaskState.STAGING_OUT, "stage_out_end"),
}


class EngineCore:
    """One pilot's manager and agent bookkeeping, shared by both backends.

    A backend decides when each step of a unit's life happens and calls the
    matching method with that time; the core applies the step to the store,
    scheduler and tracker and writes its events. A unit finds its task's
    record through ``tracker.record_for(unit.task_id)``.

    Building the core validates the workflow, then the pilot's request, and
    enters the pilot into the queue: the ``submit`` event at time 0.0. The
    backend emits ``pilot_active`` once the allocation comes up.
    """

    def __init__(
        self, workflow: Workflow, request: ResourceRequest, pull_latency: Sampler
    ) -> None:
        self.tracker = WorkflowTracker(workflow)
        if request.cores < 1:
            raise PilotRequestError("pilot needs at least one core")
        if not math.isfinite(request.walltime) or request.walltime <= 0:
            raise PilotRequestError("pilot walltime must be positive and finite")
        self.request = request
        self.sink = ProfileSink()
        self.sink.append((0.0, PILOT_UID, "submit", "", -1))
        self.store = TaskStore(pull_latency)
        self.scheduler = FirstFitScheduler(request.cores)
        self.allocator = UnitIdAllocator()

    def activate(self, time: float) -> None:
        """The pilot's allocation came up."""
        self.sink.append((time, PILOT_UID, "pilot_active", "", -1))

    def translated(self, record: TaskRecord, begin: float, end: float) -> None:
        """The manager translated ``record``'s task into a unit."""
        self.sink.append(
            (
                begin,
                record.task.id,
                "translate_begin",
                record.pipeline_id,
                record.stage_index,
            )
        )
        advance_task_state(record, TaskState.TRANSLATED, sink=self.sink, time=end)

    def enqueue(self, unit: UnitDescription, time: float) -> None:
        """The manager handed ``unit`` to the store."""
        self.store.enqueue(unit)
        self.sink.append(
            (time, unit.uid, "enqueue", unit.pipeline_id, unit.stage_index)
        )

    def pulled(self, begin: float, end: float) -> None:
        """The agent pulled one batch of units from the store."""
        self.sink.append((begin, PILOT_UID, "pull_begin", "", -1))
        self.sink.append((end, PILOT_UID, "pull_end", "", -1))

    def unit_read(self, unit: UnitDescription, begin: float, end: float) -> None:
        """The agent took in one pulled unit."""
        self.sink.append(
            (begin, unit.uid, "unit_io_begin", unit.pipeline_id, unit.stage_index)
        )
        self.sink.append(
            (end, unit.uid, "unit_io_end", unit.pipeline_id, unit.stage_index)
        )

    def phase(self, record: TaskRecord, stem: str, begin: float, end: float) -> None:
        """A placed unit completed its ``stem`` phase (stage_in, exec or
        stage_out)."""
        entry, end_name = _PHASES[stem]
        advance_task_state(record, entry, sink=self.sink, time=begin)
        self.sink.append(
            (end, record.task.id, end_name, record.pipeline_id, record.stage_index)
        )

    def release(self, unit: UnitDescription) -> TaskRecord:
        """Free a finished unit's cores; returns its task's record."""
        self.scheduler.release(unit.uid)
        self.store.complete(unit.uid)
        return self.tracker.record_for(unit.task_id)

    def terminate(
        self, record: TaskRecord, state: TaskState, time: float
    ) -> list[TaskRecord]:
        """Move a task to the terminal ``state``; returns the records this
        made ready."""
        advance_task_state(record, state, sink=self.sink, time=time)
        return self.tracker.on_terminal(record)

    def close(
        self, finish: float, backend: str, seed: int | None, extras: dict
    ) -> EventLog:
        """Cancel every unfinished task, end the pilot at ``finish`` and
        build the run's log, which gives each task one terminal event."""
        for record in self.tracker.all_records():
            if not record.state.is_terminal:
                self.terminate(record, TaskState.CANCELED, finish)
        self.sink.append((finish, PILOT_UID, "pilot_done", "", -1))
        return EventLog(
            events=self.sink.events(),
            pilot_cores=self.request.cores,
            backend=backend,
            seed=seed,
            extras=extras,
        )
