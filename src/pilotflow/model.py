"""Application description hierarchy: tasks, stages, pipelines, workflows.

Pipelines run concurrently, stages within a pipeline run sequentially, and
tasks within a stage run concurrently. Descriptions are treated as immutable
once validated; runtime progress is tracked in :class:`TaskRecord` objects
owned by the execution engine, never on the shared description objects.

A task's state walks one forward chain, NEW -> TRANSLATED -> SCHEDULED ->
STAGING_IN -> EXECUTING -> STAGING_OUT -> DONE, or ends FAILED or CANCELED
from any state before DONE. :func:`advance_task_state` checks each move and
makes it; the engine core (:meth:`pilotflow.runtime.EngineCore.enter`)
writes the event that marks entry into the new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class TaskKind(str, Enum):
    """An experiment's workload kind, by the name its config gives it.

    Only :func:`pilotflow.protocols.for_workload` and the built-in esmacs
    protocol act on it; tasks and units do not carry it.
    """

    NULL_WORKLOAD = "NULL"
    SIMULATED = "SIM"
    LOCAL_EXEC = "LOCAL"


class StagingMode(str, Enum):
    COPY_IN = "COPY_IN"
    COPY_OUT = "COPY_OUT"
    TAR_IN = "TAR_IN"
    TAR_OUT = "TAR_OUT"


@dataclass(frozen=True)
class StagingDirective:
    """Declarative file-movement instruction attached to a task.

    Backends interpret it: the local backend performs real copies and tar
    operations against a sandbox directory, the simulated backend charges
    filesystem latency per directive.
    """

    source: str
    target: str
    mode: StagingMode


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """Smallest unit of work: an executable plus its data dependencies.

    ``expected_duration`` (seconds) drives the simulated backend only; the
    local backend runs ``executable`` with ``arguments``.
    """

    id: str
    executable: str
    arguments: tuple[str, ...] = ()
    cores: int = 1
    expected_duration: float = 0.0
    inputs: tuple[StagingDirective, ...] = ()
    outputs: tuple[StagingDirective, ...] = ()

    @property
    def staging(self) -> tuple[StagingDirective, ...]:
        return self.inputs + self.outputs


class TaskState(str, Enum):
    NEW = "NEW"
    TRANSLATED = "TRANSLATED"
    SCHEDULED = "SCHEDULED"
    STAGING_IN = "STAGING_IN"
    EXECUTING = "EXECUTING"
    STAGING_OUT = "STAGING_OUT"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    @property
    def is_terminal(self) -> bool:
        return self in _TERMINAL_TASK_STATES


_TERMINAL_TASK_STATES = frozenset(
    {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED}
)


# The forward chain a task walks; FAILED and CANCELED may follow any
# non-terminal state.
_FORWARD_CHAIN = (
    TaskState.NEW,
    TaskState.TRANSLATED,
    TaskState.SCHEDULED,
    TaskState.STAGING_IN,
    TaskState.EXECUTING,
    TaskState.STAGING_OUT,
    TaskState.DONE,
)
_SUCCESSOR: dict[TaskState, TaskState] = dict(
    zip(_FORWARD_CHAIN, _FORWARD_CHAIN[1:])
)

class IllegalTransitionError(Exception):
    """Raised when a task cannot move to the requested state."""


@dataclass(slots=True)
class TaskRecord:
    """Mutable runtime record for one task, owned by the execution engine.

    ``pipeline_code`` is its pipeline's code in the run's log (see
    :mod:`pilotflow.profiling`), ``stage_index`` its stage's position in
    that pipeline."""

    task: TaskSpec
    pipeline_code: int
    stage_index: int
    state: TaskState = TaskState.NEW


def advance_task_state(record: TaskRecord, state: TaskState) -> TaskRecord:
    """Move a task record to ``state``.

    The move is legal when ``state`` is the next state of the forward chain,
    or FAILED/CANCELED from any non-terminal state. Raises
    :class:`IllegalTransitionError` (leaving the record untouched) for any
    other move.
    """
    current = record.state
    if state is not _SUCCESSOR.get(current) and (
        current.is_terminal
        or state not in (TaskState.FAILED, TaskState.CANCELED)
    ):
        raise IllegalTransitionError(
            f"illegal transition from {current.value} to {state.value} "
            f"(task {record.task.id})"
        )
    record.state = state
    return record


@dataclass(slots=True)
class Stage:
    """Set of tasks with no mutual dependencies; they may run concurrently.

    A stage's index is its position in its pipeline's ``stages`` list.
    """

    tasks: list[TaskSpec]


@dataclass(slots=True)
class Pipeline:
    """Ordered sequence of stages; stage k+1 starts only after stage k is done."""

    id: str
    stages: list[Stage]


@dataclass(slots=True)
class Workflow:
    """Set of mutually independent pipelines executed concurrently."""

    name: str
    pipelines: list[Pipeline]

    def tasks(self) -> list[TaskSpec]:
        return [
            task
            for pipeline in self.pipelines
            for stage in pipeline.stages
            for task in stage.tasks
        ]


@dataclass(frozen=True)
class ResourceRequest:
    """Resource ask the runtime turns into a pilot."""

    cores: int
    walltime: float


class WorkflowValidationError(Exception):
    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


def _at(pipeline: Pipeline, position: int, task: TaskSpec | None = None) -> str:
    """Where a violation is: formatted only for a violation reported."""
    where = f"pipeline {pipeline.id!r} stage {position}"
    return where if task is None else f"{where} task {task.id!r}"


def validate_workflow(workflow: Workflow) -> tuple[str, ...]:
    """Collect every invariant violation; the workflow is executable iff none."""
    violations: list[str] = []
    if not workflow.pipelines:
        violations.append("workflow has no pipelines")
    seen_pipelines: set[str] = set()
    seen_tasks: set[str] = set()
    for pipeline in workflow.pipelines:
        if pipeline.id in seen_pipelines:
            violations.append(f"duplicate pipeline id {pipeline.id!r}")
        seen_pipelines.add(pipeline.id)
        if not pipeline.stages:
            violations.append(f"pipeline {pipeline.id!r}: empty stage list")
        for position, stage in enumerate(pipeline.stages):
            if not stage.tasks:
                violations.append(f"{_at(pipeline, position)}: empty stage")
            for task in stage.tasks:
                if task.id in seen_tasks:
                    violations.append(f"duplicate task id {task.id!r}")
                seen_tasks.add(task.id)
                if task.cores < 1:
                    violations.append(
                        f"{_at(pipeline, position, task)}: cores must be >= 1"
                    )
                duration = task.expected_duration
                if not math.isfinite(duration) or duration < 0:
                    violations.append(
                        f"{_at(pipeline, position, task)}: "
                        "expected_duration must be finite and >= 0"
                    )
                for directive in task.staging:
                    if not directive.source or not directive.target:
                        violations.append(
                            f"{_at(pipeline, position, task)}: "
                            "staging directive with empty source/target"
                        )
    return tuple(violations)


def peak_core_demand(workflow: Workflow) -> int:
    """Cores needed so no ready task ever waits.

    Stages of one pipeline are sequential, so a pipeline's demand is the
    widest of its stages; pipelines are concurrent, so demands add up.
    """
    violations = validate_workflow(workflow)
    if violations:
        raise WorkflowValidationError(violations)
    return sum(
        max(sum(task.cores for task in stage.tasks) for stage in pipeline.stages)
        for pipeline in workflow.pipelines
    )

