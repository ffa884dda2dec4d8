"""Application description hierarchy: tasks, stages, pipelines, workflows.

Pipelines run concurrently, stages within a pipeline run sequentially, and
tasks within a stage run concurrently. Descriptions are treated as immutable
once validated; runtime progress is tracked in :class:`TaskRecord` objects
owned by the execution engine, never on the shared description objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

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

    @property
    def is_input(self) -> bool:
        return self in (StagingMode.COPY_IN, StagingMode.TAR_IN)


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
    stage_label: str = ""

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


class StageState(str, Enum):
    NEW = "NEW"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"


class PipelineState(str, Enum):
    NEW = "NEW"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"


class LifecycleEvent(str, Enum):
    """Triggers accepted by the task state machine."""

    TRANSLATED = "translated"
    SCHEDULED = "scheduled"
    STAGE_IN_STARTED = "stage_in_started"
    EXEC_STARTED = "exec_started"
    COMPLETED = "completed"
    STAGED_OUT = "staged_out"
    FAILED = "failed"
    CANCELED = "canceled"


# Forward transitions; FAILED/CANCELED are reachable from any non-terminal
# state and handled in advance_task_state directly.
_TASK_TRANSITIONS: dict[tuple[TaskState, LifecycleEvent], TaskState] = {
    (TaskState.NEW, LifecycleEvent.TRANSLATED): TaskState.TRANSLATED,
    (TaskState.TRANSLATED, LifecycleEvent.SCHEDULED): TaskState.SCHEDULED,
    (TaskState.SCHEDULED, LifecycleEvent.STAGE_IN_STARTED): TaskState.STAGING_IN,
    (TaskState.STAGING_IN, LifecycleEvent.EXEC_STARTED): TaskState.EXECUTING,
    (TaskState.EXECUTING, LifecycleEvent.COMPLETED): TaskState.STAGING_OUT,
    (TaskState.STAGING_OUT, LifecycleEvent.STAGED_OUT): TaskState.DONE,
}

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
    """Raised when a lifecycle event is not legal for the current state."""


@dataclass
class TaskRecord:
    """Mutable runtime record for one task, owned by the execution engine."""

    task: TaskSpec
    pipeline_id: str
    stage_index: int
    state: TaskState = TaskState.NEW
    unit_id: str | None = None


def advance_task_state(
    record: TaskRecord,
    event: LifecycleEvent,
    sink: ProfileSink | None = None,
    time: float = 0.0,
) -> TaskRecord:
    """Apply one lifecycle event to a task record.

    Emits the state-entry profile event to ``sink`` when given. Raises
    :class:`IllegalTransitionError` (leaving the record untouched) when the
    event is not legal for the current state.
    """
    if record.state.is_terminal:
        raise IllegalTransitionError(
            f"illegal transition from terminal state {record.state.value} "
            f"on event {event.value!r} (task {record.task.id})"
        )
    if event in (LifecycleEvent.FAILED, LifecycleEvent.CANCELED):
        new_state = (
            TaskState.FAILED if event is LifecycleEvent.FAILED else TaskState.CANCELED
        )
    else:
        try:
            new_state = _TASK_TRANSITIONS[(record.state, event)]
        except KeyError:
            raise IllegalTransitionError(
                f"illegal transition from {record.state.value} "
                f"on event {event.value!r} (task {record.task.id})"
            ) from None
    record.state = new_state
    if sink is not None:
        sink.append(
            ProfileEvent(
                time=time,
                entity=record.task.id,
                name=_STATE_ENTRY_EVENT[new_state],
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
    state: StageState = StageState.NEW


@dataclass
class Pipeline:
    """Ordered sequence of stages; stage k+1 starts only after stage k is done."""

    id: str
    stages: list[Stage]
    state: PipelineState = PipelineState.NEW


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
    queue_name: str = ""
    project: str = ""


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


# --- JSON serialization ------------------------------------------------------
#
# Schema mirrors the type hierarchy, field names as in the dataclasses:
#   {"name": ..., "pipelines": [{"id": ..., "stages": [{"index": ...,
#    "tasks": [{"id", "kind", "executable", "arguments", "cores",
#               "expected_duration", "inputs", "outputs", "stage_label"}]}]}]}
# with staging directives as {"source", "target", "mode"}.


def _directive_to_dict(d: StagingDirective) -> dict:
    return {"source": d.source, "target": d.target, "mode": d.mode.value}


def _directive_from_dict(data: dict) -> StagingDirective:
    return StagingDirective(
        source=data["source"], target=data["target"], mode=StagingMode(data["mode"])
    )


def _task_to_dict(task: TaskSpec) -> dict:
    return {
        "id": task.id,
        "kind": task.kind.value,
        "executable": task.executable,
        "arguments": list(task.arguments),
        "cores": task.cores,
        "expected_duration": task.expected_duration,
        "inputs": [_directive_to_dict(d) for d in task.inputs],
        "outputs": [_directive_to_dict(d) for d in task.outputs],
        "stage_label": task.stage_label,
    }


def _task_from_dict(data: dict) -> TaskSpec:
    return TaskSpec(
        id=data["id"],
        kind=TaskKind(data["kind"]),
        executable=data["executable"],
        arguments=tuple(data.get("arguments", ())),
        cores=int(data.get("cores", 1)),
        expected_duration=float(data.get("expected_duration", 0.0)),
        inputs=tuple(_directive_from_dict(d) for d in data.get("inputs", ())),
        outputs=tuple(_directive_from_dict(d) for d in data.get("outputs", ())),
        stage_label=data.get("stage_label", ""),
    )


def workflow_to_dict(workflow: Workflow) -> dict:
    return {
        "name": workflow.name,
        "pipelines": [
            {
                "id": pipeline.id,
                "stages": [
                    {
                        "index": stage.index,
                        "tasks": [_task_to_dict(t) for t in stage.tasks],
                    }
                    for stage in pipeline.stages
                ],
            }
            for pipeline in workflow.pipelines
        ],
    }


def workflow_from_dict(data: dict) -> Workflow:
    return Workflow(
        name=data["name"],
        pipelines=[
            Pipeline(
                id=p["id"],
                stages=[
                    Stage(
                        index=s["index"],
                        tasks=[_task_from_dict(t) for t in s["tasks"]],
                    )
                    for s in p["stages"]
                ],
            )
            for p in data["pipelines"]
        ],
    )


def save_workflow(workflow: Workflow, path: str | Path) -> None:
    Path(path).write_text(json.dumps(workflow_to_dict(workflow), indent=2))


def load_workflow(path: str | Path) -> Workflow:
    return workflow_from_dict(json.loads(Path(path).read_text()))
