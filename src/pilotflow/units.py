"""Compute-unit descriptions and the store the pilot agent pulls from.

Translation turns an application-level task into a self-contained unit
description: everything a pilot agent needs to run the work, and nothing
of the pipeline/stage structure. The engine core attributes a unit's
events to its pipeline and stage from its task's record, which it finds by
the unit's ``task_id``. Descriptions cross the manager/agent boundary as
JSON: one object with the unit's eight fields, keys sorted. It says what
to run, on how many cores and with which staging, never the experiment's
workload kind, which has already shaped the command when the protocol was
built. The wire round trip is paid once per unit, where it is measured:
the local manager serializes and parses each unit inside its timed
translate interval and enqueues the decoded form, which the agent takes in
as it is. The simulator models translation with its ``translate_cost``
sampler and uses the description as built.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from . import codec
from .latency import Sampler
from .model import StagingDirective, TaskSpec


@dataclass(frozen=True)
class UnitDescription:
    """Flat, backend-facing form of one task."""

    uid: str
    task_id: str
    executable: str
    arguments: tuple[str, ...]
    cores: int
    expected_duration: float
    inputs: tuple[StagingDirective, ...]
    outputs: tuple[StagingDirective, ...]

    def to_wire(self) -> str:
        """Serialize to the JSON wire format used between manager and agent."""
        return json.dumps(codec.to_json(self), sort_keys=True)

    @staticmethod
    def from_wire(wire: str) -> UnitDescription:
        return codec.read(UnitDescription, json.loads(wire), "unit")


class UnitIdAllocator:
    """Deterministic unit ids: a per-run counter, never a random UUID."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> str:
        uid = f"unit.{self._next:06d}"
        self._next += 1
        return uid


def translate_task(task: TaskSpec, allocator: UnitIdAllocator) -> UnitDescription:
    """Build the unit description for one task.

    No wire round trip happens here: it is paid where it is measured, by the
    local backend, whose translate interval serializes and parses the unit.
    ``UnitDescription.from_wire(u.to_wire()) == u`` holds for the units of
    every valid workflow, so skipping the round trip changes no field.
    """
    return UnitDescription(
        uid=allocator.allocate(),
        task_id=task.id,
        executable=task.executable,
        arguments=task.arguments,
        cores=task.cores,
        expected_duration=task.expected_duration,
        inputs=task.inputs,
        outputs=task.outputs,
    )


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
            if unit.uid in self._pulled or unit.uid in self._completed:
                raise RuntimeError(f"unit {unit.uid} pulled twice")
            self._pulled.add(unit.uid)
            units.append(unit)
        return units, self._pull_latency.sample()

    def complete(self, uid: str) -> None:
        if uid in self._completed:
            raise RuntimeError(f"duplicate completion for unit {uid}")
        if uid not in self._pulled:
            raise RuntimeError(f"completion for unit {uid} that was never pulled")
        self._pulled.remove(uid)
        self._completed.add(uid)
