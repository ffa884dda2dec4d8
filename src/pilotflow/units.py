"""Compute-unit descriptions and the store the pilot agent pulls from.

Translation names a task's work as a unit: a uid and the task's own spec,
which says what to run, on how many cores and with which staging, and
holds nothing of the pipeline/stage structure. The engine core attributes
a unit's events to its pipeline and stage from its task's record, which it
finds by ``unit.task.id``. Descriptions cross the manager/agent boundary as
JSON: ``{"task": {...the spec's seven fields...}, "uid": ...}``, keys
sorted. It never names the experiment's workload kind, which has already
shaped the command when the protocol was built. The wire round trip is
paid once per unit, where it is measured: the local manager serializes and
parses each unit inside its timed translate interval and enqueues the
decoded form, which the agent takes in as it is. The simulator models
translation with its ``translate_cost`` sampler and uses the description
as built, whose spec is its task record's own.

The store is only a queue: a unit's progress is kept once, in its task's
record, whose state machine refuses a unit placed twice.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from . import codec
from .latency import Sampler
from .model import TaskSpec


@dataclass(frozen=True, slots=True)
class UnitDescription:
    """One task's work as the pilot agent sees it: its spec under a uid."""

    uid: str
    task: TaskSpec

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
    """Name one task's unit: a fresh uid over the task's own spec, no copy.

    No wire round trip happens here: it is paid where it is measured, by the
    local backend, whose translate interval serializes and parses the unit.
    ``UnitDescription.from_wire(u.to_wire()) == u`` holds for the units of
    every valid workflow, so skipping the round trip changes no field.
    """
    return UnitDescription(allocator.allocate(), task)


class TaskStore:
    """FIFO queue between the workflow manager and the pilot agent, and
    nothing more: it keeps no record of which units it handed out.

    The manager enqueues unit descriptions; the agent pulls them in bulk.
    Each pull costs one latency sample regardless of how many units it
    returns, which is the whole point of pulling in bulk.
    """

    def __init__(self, pull_latency: Sampler) -> None:
        self._pending: deque[UnitDescription] = deque()
        self._pull_latency = pull_latency

    def enqueue(self, unit: UnitDescription) -> None:
        self._pending.append(unit)

    def pending_count(self) -> int:
        return len(self._pending)

    def pull(self, max_bulk: int) -> tuple[list[UnitDescription], float]:
        """Take up to ``max_bulk`` units in FIFO order; returns (units, latency)."""
        if max_bulk < 1:
            raise ValueError("max_bulk must be >= 1")
        pending = self._pending
        units = [pending.popleft() for _ in range(min(max_bulk, len(pending)))]
        return units, self._pull_latency.sample()
