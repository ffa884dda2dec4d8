"""Deterministic discrete-event simulation of a pilot on an HPC machine.

The simulator owns a virtual clock starting at pilot submission (time 0.0)
and a priority queue of pending events. Everything that costs time in the
real system is a configurable latency: batch-queue wait, bulk pulls from
the unit store, filesystem access for unit descriptions and staged files,
and a multiplicative noise factor on execution times. With constant
latencies and a fixed seed, two runs of the same workflow produce identical
event logs, byte for byte.

Model of one unit's life: the manager translates the task (serialized on
one manager timeline), enqueues the description, the agent pulls a batch
from the store (one pull latency per batch), reads each description off the
shared filesystem (one fs latency per unit), offers it to the first-fit
core scheduler, and on placement the unit stages inputs (one fs latency per
directive), executes, stages outputs, and completes. Completion frees cores
and unblocks the pipeline's next stage.

The bookkeeping, the state moves and the events of each step belong to
:class:`~pilotflow.runtime.EngineCore`. This module owns only the timing:
the event heap, the latency samplers, the serialized manager timeline and
the cut at the walltime limit. As its clock passes each popped time, it
lets the sink settle the rows before that time into the log's columns.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .latency import LatencyModel, Sampler
from .model import (
    ResourceRequest,
    TaskRecord,
    TaskState,
    Workflow,
    advance_task_state,  # unused here, but perfbench/tracing.py swaps this name
)
from .profiling import EventLog
from .runtime import Cause, EngineCore, PilotRequestError
from .units import UnitDescription, translate_task


@dataclass(frozen=True)
class SimBackendConfig:
    """Machine and latency model for one simulated run.

    ``duration_noise`` is a multiplicative factor on expected durations
    (constant 1.0 reproduces them exactly). ``bulk`` caps how many unit
    descriptions one pull may return.
    """

    total_cores: int = 1_048_576
    queue_wait: LatencyModel = LatencyModel.constant(0.0)
    pull_latency: LatencyModel = LatencyModel.constant(0.0)
    fs_latency: LatencyModel = LatencyModel.constant(0.0)
    translate_cost: LatencyModel = LatencyModel.constant(0.0)
    duration_noise: LatencyModel = LatencyModel.constant(1.0)
    seed: int = 0
    bulk: int = 1024

    def validate(self) -> None:
        """Raise ``ValueError`` for a setting no run can use."""
        if self.bulk < 1:
            raise ValueError(f"bulk must be >= 1, got {self.bulk}")


def check_request(request: ResourceRequest, config: SimBackendConfig) -> None:
    """Raise ``PilotRequestError`` when the machine cannot hold the pilot."""
    if request.cores > config.total_cores:
        raise PilotRequestError(
            f"request asks for {request.cores} cores but the machine "
            f"has {config.total_cores}"
        )


class _SimEngine:
    def __init__(
        self, workflow: Workflow, request: ResourceRequest, config: SimBackendConfig
    ) -> None:
        config.validate()
        check_request(request, config)
        self.config = config
        seed = config.seed
        self.core = EngineCore(
            workflow, request, Sampler(config.pull_latency, seed, "pull")
        )
        # The pilot comes up after one batch-queue wait and dies at its
        # walltime limit, counted from then (the core's deadline).
        self._active_at = Sampler(config.queue_wait, seed, "queue").sample()
        self.fs_latency = Sampler(config.fs_latency, seed, "fs")
        self.translate_cost = Sampler(config.translate_cost, seed, "translate")
        self.duration_noise = Sampler(config.duration_noise, seed, "noise")
        # (time, seq, handler, payload); seq is unique, so handlers never compare.
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._seq = itertools.count()
        self._pending_pulls: set[float] = set()
        # A placement pass waits on the heap at the only time one is asked for: now.
        self._sched_pending = False
        self._manager_free_at = 0.0

    # -- helpers ---------------------------------------------------------

    def _push(self, time: float, handler: Callable, payload: Any = None) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), handler, payload))

    def _schedule_pull(self, time: float) -> None:
        # The agent exists only once the pilot is active.
        time = max(time, self._active_at)
        if time in self._pending_pulls:
            return
        self._pending_pulls.add(time)
        self._push(time, self._handle_pull)

    def _schedule_sched(self, time: float) -> None:
        if self._sched_pending:
            return
        self._sched_pending = True
        self._push(time, self._handle_sched)

    # -- manager side ------------------------------------------------------

    def _translate(self, records: list[TaskRecord], now: float) -> None:
        """Serialize translation of ready tasks on the manager timeline."""
        deadline = self.core.deadline
        for record in records:
            start = max(now, self._manager_free_at)
            end = start + self.translate_cost.sample()
            self._manager_free_at = end
            if end > deadline:
                break  # the manager is busy past the walltime from here on
            unit = translate_task(record.task, self.core.allocator)
            self.core.translated(record, start, end)
            self._push(end, self._handle_enqueue, unit)

    # -- agent side --------------------------------------------------------

    def _handle_enqueue(self, time: float, unit: UnitDescription) -> None:
        self.core.enqueue(unit, time)
        self._schedule_pull(time)

    def _handle_pull(self, time: float, _: None) -> None:
        self._pending_pulls.discard(time)
        store = self.core.store
        if store.pending_count() == 0:
            return
        units, latency = store.pull(self.config.bulk)
        pull_end = time + latency
        deadline = self.core.deadline
        if pull_end <= deadline:
            self.core.pulled(time, pull_end)
        for unit in units:
            # Reading the unit description off the shared filesystem.
            io_end = pull_end + self.fs_latency.sample()
            if io_end <= deadline:  # a cut pull cuts every read after it
                self.core.unit_read(unit, pull_end, io_end)
            self._push(io_end, self._handle_offer, unit)
        if store.pending_count() > 0:
            # Bulk limit hit; the agent turns around and pulls again.
            self._schedule_pull(pull_end)

    def _handle_offer(self, time: float, unit: UnitDescription) -> None:
        self.core.scheduler.offer(unit)
        self._schedule_sched(time)

    def _handle_sched(self, time: float, _: None) -> None:
        self._sched_pending = False
        for unit, _offset in self.core.scheduler.place_ready():
            self._launch(time, unit)

    def _launch(self, time: float, unit: UnitDescription) -> None:
        """Lay out the unit's full timeline; truncate at the walltime limit."""
        record = self.core.scheduled(unit, time)
        if record is None:
            return  # its task was canceled; the core freed its cores
        deadline = self.core.deadline

        task = unit.task
        stage_in_end = time
        for _ in task.inputs:
            stage_in_end += self.fs_latency.sample()
        exec_end = stage_in_end + task.expected_duration * self.duration_noise.sample()
        stage_out_end = exec_end
        for _ in task.outputs:
            stage_out_end += self.fs_latency.sample()

        # A phase appears in the log only when it completes inside the
        # walltime; a truncated unit is canceled at the deadline instead.
        begin = time
        for stem, end in (
            ("stage_in", stage_in_end),
            ("exec", exec_end),
            ("stage_out", stage_out_end),
        ):
            if end > deadline:
                self.core.end(record, Cause.WALLTIME, deadline)
                break
            self.core.phase(record, stem, begin, end)
            begin = end
        else:
            # The done event is written now, while its time is known.
            self.core.enter(record, TaskState.DONE, stage_out_end)
        # The cores free up and the pipeline moves on when the heap reaches
        # this time. A cut unit holds its cores until the pilot dies: the
        # run stops at the deadline, before this time.
        self._push(stage_out_end, self._handle_unit_done, unit)

    def _handle_unit_done(self, time: float, unit: UnitDescription) -> None:
        record = self.core.release(unit)
        if self.core.scheduler.waiting_count() > 0:
            self._schedule_sched(time)
        self._translate(self.core.tracker.on_terminal(record), time)

    # -- main loop -----------------------------------------------------------

    def run(self) -> EventLog:
        # The queue wait is known ahead, so the manager's first translations
        # are cut at the same deadline as everything after them.
        self.core.activate(self._active_at)
        self._translate(self.core.tracker.initial_ready(), 0.0)

        now = 0.0
        # Every handler writes its rows at or after its own time, and the
        # heap pops in time order, so no row to come is earlier than a
        # popped time; a time already promised is not promised again. The
        # cut comes first: close() writes its cancels at the deadline, which
        # is earlier than a time past it. A step cut by the walltime writes
        # no row but keeps its place on the heap, or the manager busy past
        # the deadline, so a cut run always ends at the deadline.
        settle = self.core.sink.settle
        deadline = self.core.deadline
        while self._heap:
            time, _seq, handler, payload = heapq.heappop(self._heap)
            if time > deadline:
                now = deadline
                break
            if time != now:
                settle(time)
                now = time
            handler(time, payload)
        if self._manager_free_at > deadline:
            now = deadline
        return self.core.close(now, "sim", self.config.seed, {})


def sim_run(
    workflow: Workflow, request: ResourceRequest, config: SimBackendConfig
) -> EventLog:
    """Simulate the workflow under the given machine model."""
    return _SimEngine(workflow, request, config).run()
