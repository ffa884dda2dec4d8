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
own pipeline. It keeps one record per task and, per pipeline, those
records in stage order with the offset where each stage starts and how
many of them are done.
Whether the run succeeded is not kept here: it follows from the terminal
events of the log (:func:`pilotflow.metrics.compute_report`).

:class:`EngineCore` is the manager/agent story both backends tell: it owns
the store, the scheduler and the tracker, moves each task through its
states (:meth:`EngineCore.enter`) and is the one writer of the log: every
event of the pilot's and of a unit's life, at the time the backend gives
it, attributed to the pipeline and stage of the task's record. The
simulator takes those times from its event heap, the local backend from a
monotonic clock. It owns the pilot's deadline and is the one rule book for
how a task ends (:class:`Cause`, :meth:`EngineCore.end`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
from .profiling import (
    CANCELED,
    DONE,
    ENQUEUE,
    EXEC_BEGIN,
    EXEC_END,
    FAILED,
    PILOT_ACTIVE,
    PILOT_DONE,
    PULL_BEGIN,
    PULL_END,
    SCHEDULE,
    STAGE_IN_BEGIN,
    STAGE_IN_END,
    STAGE_OUT_BEGIN,
    STAGE_OUT_END,
    SUBMIT,
    TRANSLATE_BEGIN,
    TRANSLATE_END,
    UNIT_IO_BEGIN,
    UNIT_IO_END,
    EventLog,
    ProfileSink,
)
from .scheduler import FirstFitScheduler
from .units import TaskStore, UnitDescription, UnitIdAllocator


class PilotRequestError(Exception):
    """The resource request cannot describe a runnable pilot."""


PILOT_UID = "pilot.0000"


@dataclass(slots=True)
class PipelineRun:
    """One pipeline's progress: its task records in stage order, where each
    stage starts in them (``starts[k]`` up to ``starts[k + 1]`` is stage
    k) and how many of its tasks are done."""

    records: list[TaskRecord]
    starts: list[int]
    done: int = 0

    def stage(self, index: int) -> list[TaskRecord]:
        return self.records[self.starts[index] : self.starts[index + 1]]


class WorkflowTracker:
    """Drives stage succession; backends own timing and execution. It holds
    one record per task by task id and one run per pipeline.

    ``pipeline_ids`` is the log's pipeline table: a pipeline's code is its
    index, in workflow order from 1, and code 0 is ``""``, the pilot's rows.
    Each task record carries its pipeline's code, and the run of the
    pipeline with code c is ``pipelines[c - 1]``."""

    def __init__(self, workflow: Workflow) -> None:
        violations = validate_workflow(workflow)
        if violations:
            raise WorkflowValidationError(violations)
        self._records: dict[str, TaskRecord] = {}
        self.pipeline_ids = [""]
        self.pipelines: list[PipelineRun] = []
        for code, pipeline in enumerate(workflow.pipelines, 1):
            self.pipeline_ids.append(pipeline.id)
            run = PipelineRun([], [0])
            for index, stage in enumerate(pipeline.stages):
                for task in stage.tasks:
                    record = TaskRecord(task, code, index)
                    run.records.append(record)
                    self._records[task.id] = record
                run.starts.append(len(run.records))
            self.pipelines.append(run)

    def record_for(self, task_id: str) -> TaskRecord:
        return self._records[task_id]

    def stage_of(self, record: TaskRecord) -> list[TaskRecord]:
        """The records of ``record``'s stage, itself included."""
        return self.pipelines[record.pipeline_code - 1].stage(record.stage_index)

    def all_records(self) -> list[TaskRecord]:
        return list(self._records.values())

    def initial_ready(self) -> list[TaskRecord]:
        """The records of every pipeline's first stage."""
        return [record for run in self.pipelines for record in run.stage(0)]

    def on_terminal(self, record: TaskRecord) -> list[TaskRecord]:
        """React to a task reaching a terminal state.

        Returns the records of the next stage when this completion finished
        its stage; otherwise an empty list. A stage finishes once all its
        tasks are done, so a failed or canceled task stops its own pipeline
        and no other. Completions are counted, not read from the states:
        the simulator marks a task done ahead of its time.
        """
        if not record.state.is_terminal:
            raise ValueError(f"task {record.task.id} is not terminal")
        if record.state is not TaskState.DONE:
            return []
        run = self.pipelines[record.pipeline_code - 1]
        run.done += 1
        # Stages finish in order: stage k is finished once the done tasks
        # are all the tasks up to its end.
        after = record.stage_index + 1
        if run.done == run.starts[after] and after < len(run.starts) - 1:
            return run.stage(after)
        return []


# The code of the event written as a task enters each state.
_ENTRY_EVENT = {
    TaskState.TRANSLATED: TRANSLATE_END,
    TaskState.SCHEDULED: SCHEDULE,
    TaskState.STAGING_IN: STAGE_IN_BEGIN,
    TaskState.EXECUTING: EXEC_BEGIN,
    TaskState.STAGING_OUT: STAGE_OUT_BEGIN,
    TaskState.DONE: DONE,
    TaskState.FAILED: FAILED,
    TaskState.CANCELED: CANCELED,
}

# The state a unit enters as each execution phase opens, and the code of
# the event that closes the phase.
_PHASES = {
    "stage_in": (TaskState.STAGING_IN, STAGE_IN_END),
    "exec": (TaskState.EXECUTING, EXEC_END),
    "stage_out": (TaskState.STAGING_OUT, STAGE_OUT_END),
}


class Cause(Enum):
    """Why a task ends, with the terminal state :meth:`EngineCore.end` gives."""

    DONE = "done", TaskState.DONE  # every phase completed
    ERROR = "error", TaskState.FAILED  # the command or a staging step failed
    WALLTIME = "walltime", TaskState.CANCELED  # the walltime cut it
    SIBLING = "sibling", TaskState.CANCELED  # another task of its stage failed
    CLOSE = "close", TaskState.CANCELED  # the run ended before it started


class EngineCore:
    """One pilot's manager and agent bookkeeping, shared by both backends.

    A backend decides when each step of a unit's life happens and calls the
    matching method with that time; the core applies the step to the store,
    scheduler and tracker and writes its events. A unit finds its task's
    record through ``tracker.record_for(unit.task_id)``, and its events take
    their pipeline and stage from that record.

    Building the core validates the workflow, then the pilot's request, and
    enters the pilot into the queue: the ``submit`` event at time 0.0. The
    backend calls :meth:`activate` when the allocation comes up; ``deadline``
    is then that time plus the walltime, and a time past it is cut.
    ``diagnostics`` maps a task id to why the task did not end done.
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
        self.sink = ProfileSink(self.tracker.pipeline_ids)
        self.sink.append((0.0, PILOT_UID, SUBMIT, 0, -1))
        self.store = TaskStore(pull_latency)
        self.scheduler = FirstFitScheduler(request.cores)
        self.allocator = UnitIdAllocator()
        self.deadline = math.inf
        self.diagnostics: dict[str, str] = {}

    def activate(self, time: float) -> None:
        """The pilot's allocation came up: its walltime runs from ``time``."""
        self.deadline = time + self.request.walltime
        self.sink.append((time, PILOT_UID, PILOT_ACTIVE, 0, -1))

    def enter(self, record: TaskRecord, state: TaskState, time: float) -> None:
        """Move ``record`` to ``state`` and write the entry event at ``time``."""
        advance_task_state(record, state)
        task, pipeline, stage = record.task.id, record.pipeline_code, record.stage_index
        self.sink.append((time, task, _ENTRY_EVENT[state], pipeline, stage))

    def translated(self, record: TaskRecord, begin: float, end: float) -> None:
        """The manager translated ``record``'s task into a unit."""
        task, pipeline, stage = record.task.id, record.pipeline_code, record.stage_index
        self.sink.append((begin, task, TRANSLATE_BEGIN, pipeline, stage))
        self.enter(record, TaskState.TRANSLATED, end)

    def enqueue(self, unit: UnitDescription, time: float) -> None:
        """The manager handed ``unit`` to the store."""
        self.store.enqueue(unit)
        record = self.tracker.record_for(unit.task_id)
        pipeline, stage = record.pipeline_code, record.stage_index
        self.sink.append((time, unit.uid, ENQUEUE, pipeline, stage))

    def pulled(self, begin: float, end: float) -> None:
        """The agent pulled one batch of units from the store."""
        self.sink.append((begin, PILOT_UID, PULL_BEGIN, 0, -1))
        self.sink.append((end, PILOT_UID, PULL_END, 0, -1))

    def unit_read(self, unit: UnitDescription, begin: float, end: float) -> None:
        """The agent took in one pulled unit."""
        record = self.tracker.record_for(unit.task_id)
        pipeline, stage = record.pipeline_code, record.stage_index
        self.sink.append((begin, unit.uid, UNIT_IO_BEGIN, pipeline, stage))
        self.sink.append((end, unit.uid, UNIT_IO_END, pipeline, stage))

    def phase(self, record: TaskRecord, stem: str, begin: float, end: float) -> None:
        """A placed unit completed its ``stem`` phase (stage_in, exec or
        stage_out)."""
        entry, end_code = _PHASES[stem]
        self.enter(record, entry, begin)
        self.sink.append(
            (end, record.task.id, end_code, record.pipeline_code, record.stage_index)
        )

    def release(self, unit: UnitDescription) -> TaskRecord:
        """Free a finished unit's cores; returns its task's record."""
        self.scheduler.release(unit.uid)
        self.store.complete(unit.uid)
        return self.tracker.record_for(unit.task_id)

    def scheduled(self, unit: UnitDescription, time: float) -> bool:
        """The agent placed ``unit`` at ``time``. False, with the cores freed,
        when a failed sibling already canceled the unit's task."""
        record = self.tracker.record_for(unit.task_id)
        if record.state.is_terminal:
            self.release(unit)
            return False
        self.enter(record, TaskState.SCHEDULED, time)
        return True

    def end(
        self, record: TaskRecord, cause: Cause, time: float, diagnostic: str = ""
    ) -> list[TaskRecord]:
        """End ``record``'s task at ``time`` for ``cause``; ``diagnostic``
        says how an ERROR failed. For DONE, returns the records this made
        ready. A failure cancels the task's unfinished siblings and returns
        them: the backend kills the children and frees the cores of those
        it holds."""
        if cause is Cause.WALLTIME:
            diagnostic = f"walltime exceeded after {self.request.walltime:.1f}s"
        if diagnostic:
            self.diagnostics[record.task.id] = diagnostic
        self.enter(record, cause.value[1], time)
        ready = self.tracker.on_terminal(record)
        if cause is not Cause.ERROR:
            return ready
        why = f"canceled: sibling task {record.task.id} failed"
        siblings = [r for r in self.tracker.stage_of(record) if not r.state.is_terminal]
        for sibling in siblings:
            self.end(sibling, Cause.SIBLING, time, why)
        return siblings

    def close(
        self, finish: float, backend: str, seed: int | None, extras: dict
    ) -> EventLog:
        """Cancel every unfinished task, end the pilot at ``finish`` and
        build the run's log, which gives each task one terminal event.
        A task still placed was cut by the walltime. ``extras`` gains the
        ``diagnostics``."""
        for record in self.tracker.all_records():
            if record.state in (TaskState.NEW, TaskState.TRANSLATED):
                self.end(record, Cause.CLOSE, finish)
            elif not record.state.is_terminal:
                self.end(record, Cause.WALLTIME, finish)
        self.sink.append((finish, PILOT_UID, PILOT_DONE, 0, -1))
        return EventLog(
            events=self.sink.events(),
            pilot_cores=self.request.cores,
            backend=backend,
            seed=seed,
            extras={"diagnostics": self.diagnostics, **extras},
        )
