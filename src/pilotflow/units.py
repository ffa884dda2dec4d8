"""Compute-unit descriptions and the store the pilot agent pulls from.

Translation turns an application-level task into a self-contained unit
description: everything a pilot agent needs to run the work without seeing
the pipeline/stage structure. Descriptions cross the manager/agent boundary
as JSON, so translation serializes to the wire format and the agent side
deserializes it back; both halves are part of the measured overheads.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .latency import Sampler
from .model import (
    StagingDirective,
    TaskKind,
    TaskSpec,
    directive_from_dict,
    directive_to_dict,
)


@dataclass(frozen=True)
class UnitDescription:
    """Flat, backend-facing form of one task."""

    uid: str
    task_id: str
    pipeline_id: str
    stage_index: int
    kind: TaskKind
    executable: str
    arguments: tuple[str, ...]
    cores: int
    expected_duration: float
    inputs: tuple[StagingDirective, ...]
    outputs: tuple[StagingDirective, ...]

    def to_wire(self) -> str:
        """Serialize to the JSON wire format used between manager and agent."""
        return json.dumps(
            {
                "uid": self.uid,
                "task_id": self.task_id,
                "pipeline_id": self.pipeline_id,
                "stage_index": self.stage_index,
                "kind": self.kind.value,
                "executable": self.executable,
                "arguments": list(self.arguments),
                "cores": self.cores,
                "expected_duration": self.expected_duration,
                "inputs": [directive_to_dict(d) for d in self.inputs],
                "outputs": [directive_to_dict(d) for d in self.outputs],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_wire(wire: str) -> UnitDescription:
        data = json.loads(wire)
        return UnitDescription(
            uid=data["uid"],
            task_id=data["task_id"],
            pipeline_id=data["pipeline_id"],
            stage_index=data["stage_index"],
            kind=TaskKind(data["kind"]),
            executable=data["executable"],
            arguments=tuple(data["arguments"]),
            cores=data["cores"],
            expected_duration=data["expected_duration"],
            inputs=tuple(directive_from_dict(d) for d in data["inputs"]),
            outputs=tuple(directive_from_dict(d) for d in data["outputs"]),
        )


class UnitIdAllocator:
    """Deterministic unit ids: a per-run counter, never a random UUID."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> str:
        uid = f"unit.{self._next:06d}"
        self._next += 1
        return uid


def translate_task(
    task: TaskSpec,
    pipeline_id: str,
    stage_index: int,
    allocator: UnitIdAllocator,
) -> UnitDescription:
    """Build the unit description for one task.

    The round-trip through the wire format is intentional: it is the work
    translation actually performs, and the measured part of it.
    """
    unit = UnitDescription(
        uid=allocator.allocate(),
        task_id=task.id,
        pipeline_id=pipeline_id,
        stage_index=stage_index,
        kind=task.kind,
        executable=task.executable,
        arguments=task.arguments,
        cores=task.cores,
        expected_duration=task.expected_duration,
        inputs=task.inputs,
        outputs=task.outputs,
    )
    return UnitDescription.from_wire(unit.to_wire())


class TaskStore:
    """FIFO buffer between the workflow manager and the pilot agent.

    The manager enqueues unit descriptions; the agent pulls them in bulk.
    Each pull costs one latency sample regardless of how many units it
    returns, which is the whole point of pulling in bulk.
    """

    def __init__(self, pull_latency: Sampler) -> None:
        self._pending: deque[UnitDescription] = deque()
        self._pulled: set[str] = set()
        self._completed: set[str] = set()
        self._pull_latency = pull_latency

    def enqueue(self, unit: UnitDescription) -> None:
        self._pending.append(unit)

    def pending_count(self) -> int:
        return len(self._pending)

    def pull(self, max_bulk: int) -> tuple[list[UnitDescription], float]:
        """Take up to ``max_bulk`` units in FIFO order; returns (units, latency)."""
        if max_bulk < 1:
            raise ValueError("max_bulk must be >= 1")
        units: list[UnitDescription] = []
        while self._pending and len(units) < max_bulk:
            unit = self._pending.popleft()
            if unit.uid in self._pulled:
                raise RuntimeError(f"unit {unit.uid} pulled twice")
            self._pulled.add(unit.uid)
            units.append(unit)
        return units, self._pull_latency.sample()

    def complete(self, uid: str) -> None:
        if uid not in self._pulled:
            raise RuntimeError(f"completion for unit {uid} that was never pulled")
        if uid in self._completed:
            raise RuntimeError(f"duplicate completion for unit {uid}")
        self._completed.add(uid)
