"""Application description hierarchy: tasks, stages, pipelines, workflows.

Pipelines run concurrently, stages within a pipeline run sequentially, and
tasks within a stage run concurrently. Descriptions are treated as immutable
once validated; runtime progress is tracked in :class:`TaskRecord` objects
owned by the execution engine, never on the shared description objects.

A task's state walks one forward chain, NEW -> TRANSLATED -> SCHEDULED ->
STAGING_IN -> EXECUTING -> STAGING_OUT -> DONE, or ends FAILED or CANCELED
from any state before DONE. :func:`advance_task_state` makes every move and
writes the event that marks entry into the new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .profiling import ProfileEvent, ProfileSink


class TaskKind(str, Enum):
    NULL_WORKLOAD = "NULL_WORKLOAD"
    SIMULATED = "SIMULATED"
    LOCAL_EXEC = "LOCAL_EXEC"


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


@dataclass(frozen=True)
class TaskSpec:
    """Smallest unit of work: an executable plus its data dependencies.

    ``expected_duration`` (seconds) drives the simulated backend only;
    ``executable`` is informational for SIMULATED tasks.
    """

    id: str
    kind: TaskKind
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


class PipelineState(str, Enum):
    NEW = "NEW"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"


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

# Profile event emitted when a task *enters* a state. The engine emits the
# matching interval-opening/closing counterparts around the real work.
_STATE_ENTRY_EVENT: dict[TaskState, str] = {
    TaskState.TRANSLATED: "translate_end",
    TaskState.SCHEDULED: "schedule",
    TaskState.STAGING_IN: "stage_in_begin",
    TaskState.EXECUTING: "exec_begin",
    TaskState.STAGING_OUT: "stage_out_begin",
    TaskState.DONE: "done",
    TaskState.FAILED: "failed",
    TaskState.CANCELED: "canceled",
}


class IllegalTransitionError(Exception):
    """Raised when a task cannot move to the requested state."""


@dataclass
class TaskRecord:
    """Mutable runtime record for one task, owned by the execution engine."""

    task: TaskSpec
    pipeline_id: str
    stage_index: int
    state: TaskState = TaskState.NEW


def advance_task_state(
    record: TaskRecord,
    state: TaskState,
    sink: ProfileSink | None = None,
    time: float = 0.0,
) -> TaskRecord:
    """Move a task record to ``state``.

    The move is legal when ``state`` is the next state of the forward chain,
    or FAILED/CANCELED from any non-terminal state. Emits the state-entry
    profile event to ``sink`` when given. Raises
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
    if sink is not None:
        sink.append(
            ProfileEvent(
                time=time,
                entity=record.task.id,
                name=_STATE_ENTRY_EVENT[state],
                pipeline=record.pipeline_id,
                stage=record.stage_index,
            )
        )
    return record


@dataclass
class Stage:
    """Set of tasks with no mutual dependencies; they may run concurrently."""

    index: int
    tasks: list[TaskSpec]


@dataclass
class Pipeline:
    """Ordered sequence of stages; stage k+1 starts only after stage k is done."""

    id: str
    stages: list[Stage]


@dataclass
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


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class WorkflowValidationError(Exception):
    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


def validate_workflow(workflow: Workflow) -> ValidationResult:
    """Collect every invariant violation; the workflow is executable iff none."""
    violations: list[str] = []
    if not workflow.pipelines:
        violations.append("workflow has no pipelines")
    seen_pipelines: set[str] = set()
    seen_tasks: set[str] = set()
    for pipeline in workflow.pipelines:
        where = f"pipeline {pipeline.id!r}"
        if pipeline.id in seen_pipelines:
            violations.append(f"duplicate pipeline id {pipeline.id!r}")
        seen_pipelines.add(pipeline.id)
        if not pipeline.stages:
            violations.append(f"{where}: empty stage list")
        for position, stage in enumerate(pipeline.stages):
            swhere = f"{where} stage {position}"
            if stage.index != position:
                violations.append(
                    f"{swhere}: index {stage.index} does not match position"
                )
            if not stage.tasks:
                violations.append(f"{swhere}: empty stage")
            for task in stage.tasks:
                twhere = f"{swhere} task {task.id!r}"
                if task.id in seen_tasks:
                    violations.append(f"duplicate task id {task.id!r}")
                seen_tasks.add(task.id)
                if task.cores < 1:
                    violations.append(f"{twhere}: cores must be >= 1")
                if task.expected_duration < 0:
                    violations.append(f"{twhere}: expected_duration must be >= 0")
                for directive in task.staging:
                    if not directive.source or not directive.target:
                        violations.append(
                            f"{twhere}: staging directive with empty source/target"
                        )
    return ValidationResult(tuple(violations))


def peak_core_demand(workflow: Workflow) -> int:
    """Cores needed so no ready task ever waits.

    Stages of one pipeline are sequential, so a pipeline's demand is the
    widest of its stages; pipelines are concurrent, so demands add up.
    """
    result = validate_workflow(workflow)
    if not result.ok:
        raise WorkflowValidationError(result.violations)
    return sum(
        max(sum(task.cores for task in stage.tasks) for stage in pipeline.stages)
        for pipeline in workflow.pipelines
    )


# --- staging directive codec -------------------------------------------------


def directive_to_dict(d: StagingDirective) -> dict:
    """The one dict form of a staging directive, shared by every schema."""
    return {"source": d.source, "target": d.target, "mode": d.mode.value}


def directive_from_dict(data: dict) -> StagingDirective:
    """Inverse of :func:`directive_to_dict`; raises ``KeyError`` for a missing
    field and ``ValueError`` for an unknown mode."""
    return StagingDirective(
        source=data["source"], target=data["target"], mode=StagingMode(data["mode"])
    )
