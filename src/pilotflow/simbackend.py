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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .latency import LatencyModel, Sampler
from .model import (
    LifecycleEvent,
    ResourceRequest,
    TaskRecord,
    TaskState,
    Workflow,
    advance_task_state,
)
from .profiling import EventLog, ProfileEvent, ProfileSink
from .runtime import Pilot, PilotRequestError, PilotState, WorkflowTracker, submit_pilot
from .scheduler import FirstFitScheduler
from .units import TaskStore, UnitDescription, UnitIdAllocator, translate_task


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

    def to_dict(self) -> dict:
        return {
            "backend": "sim",
            "total_cores": self.total_cores,
            "queue_wait": self.queue_wait.to_dict(),
            "pull_latency": self.pull_latency.to_dict(),
            "fs_latency": self.fs_latency.to_dict(),
            "translate_cost": self.translate_cost.to_dict(),
            "duration_noise": self.duration_noise.to_dict(),
            "seed": self.seed,
            "bulk": self.bulk,
        }

    @staticmethod
    def from_dict(data: dict) -> SimBackendConfig:
        def model(key: str, fallback: float) -> LatencyModel:
            raw = data.get(key)
            if raw is None:
                return LatencyModel.constant(fallback)
            if isinstance(raw, (int, float)):
                return LatencyModel.constant(float(raw))
            return LatencyModel.from_dict(raw)

        return SimBackendConfig(
            total_cores=int(data.get("total_cores", 1_048_576)),
            queue_wait=model("queue_wait", 0.0),
            pull_latency=model("pull_latency", 0.0),
            fs_latency=model("fs_latency", 0.0),
            translate_cost=model("translate_cost", 0.0),
            duration_noise=model("duration_noise", 1.0),
            seed=int(data.get("seed", 0)),
            bulk=int(data.get("bulk", 1024)),
        )

    def with_seed(self, seed: int) -> SimBackendConfig:
        return SimBackendConfig(
            total_cores=self.total_cores,
            queue_wait=self.queue_wait,
            pull_latency=self.pull_latency,
            fs_latency=self.fs_latency,
            translate_cost=self.translate_cost,
            duration_noise=self.duration_noise,
            seed=seed,
            bulk=self.bulk,
        )


# Heap event kinds, processed in (time, insertion order).
_PILOT_ACTIVE = "pilot_active"
_ENQUEUE = "enqueue"
_PULL = "pull"
_OFFER = "offer"
_SCHED = "sched"
_UNIT_DONE = "unit_done"


class _SimEngine:
    def __init__(
        self, workflow: Workflow, request: ResourceRequest, config: SimBackendConfig
    ) -> None:
        if request.cores > config.total_cores:
            raise PilotRequestError(
                f"request asks for {request.cores} cores but the machine "
                f"has {config.total_cores}"
            )
        self.config = config
        self.request = request
        self.sink = ProfileSink()
        self.tracker = WorkflowTracker(workflow)
        self.pilot: Pilot = submit_pilot(request, self.sink, uid="pilot.0000")
        seed = config.seed
        self.queue_wait = Sampler(config.queue_wait, seed, "queue")
        self.pull_latency = Sampler(config.pull_latency, seed, "pull")
        self.fs_latency = Sampler(config.fs_latency, seed, "fs")
        self.translate_cost = Sampler(config.translate_cost, seed, "translate")
        self.duration_noise = Sampler(config.duration_noise, seed, "noise")
        self.store = TaskStore(self.pull_latency)
        self.scheduler = FirstFitScheduler(request.cores)
        self.allocator = UnitIdAllocator()
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._pending_pulls: set[float] = set()
        self._pending_scheds: set[float] = set()
        self._units: dict[str, UnitDescription] = {}
        self._records_by_uid: dict[str, TaskRecord] = {}
        self._manager_free_at = 0.0
        self._active_at: float | None = None
        self._deadline: float | None = None
        self._finish_floor = 0.0
        self.now = 0.0

    # -- helpers ---------------------------------------------------------

    def _push(self, time: float, kind: str, payload: object = None) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _emit(
        self, time: float, entity: str, name: str, pipeline: str = "", stage: int = -1
    ) -> None:
        self.sink.append(
            ProfileEvent(
                time=time, entity=entity, name=name, pipeline=pipeline, stage=stage
            )
        )

    def _schedule_pull(self, time: float) -> None:
        # The agent exists only once the pilot is active.
        time = max(time, self._active_at if self._active_at is not None else 0.0)
        if time in self._pending_pulls:
            return
        self._pending_pulls.add(time)
        self._push(time, _PULL)

    def _schedule_sched(self, time: float) -> None:
        if time in self._pending_scheds:
            return
        self._pending_scheds.add(time)
        self._push(time, _SCHED)

    # -- manager side ------------------------------------------------------

    def _translate(self, records: list[TaskRecord], now: float) -> None:
        """Serialize translation of ready tasks on the manager timeline."""
        for record in records:
            start = max(now, self._manager_free_at)
            cost = self.translate_cost.sample()
            end = start + cost
            self._manager_free_at = end
            self._emit(
                start,
                record.task.id,
                "translate_begin",
                pipeline=record.pipeline_id,
                stage=record.stage_index,
            )
            advance_task_state(
                record, LifecycleEvent.TRANSLATED, sink=self.sink, time=end
            )
            unit = translate_task(
                record.task, record.pipeline_id, record.stage_index, self.allocator
            )
            record.unit_id = unit.uid
            self._units[unit.uid] = unit
            self._records_by_uid[unit.uid] = record
            self._push(end, _ENQUEUE, unit)

    # -- agent side --------------------------------------------------------

    def _handle_enqueue(self, time: float, unit: UnitDescription) -> None:
        self.store.enqueue(unit)
        self._emit(
            time,
            unit.uid,
            "enqueue",
            pipeline=unit.pipeline_id,
            stage=unit.stage_index,
        )
        self._schedule_pull(time)

    def _handle_pull(self, time: float) -> None:
        self._pending_pulls.discard(time)
        if self.store.pending_count() == 0:
            return
        units, latency = self.store.pull(self.config.bulk)
        pull_end = time + latency
        self._emit(time, self.pilot.uid, "pull_begin")
        self._emit(pull_end, self.pilot.uid, "pull_end")
        for unit in units:
            # Reading the unit description off the shared filesystem.
            io_end = pull_end + self.fs_latency.sample()
            self._emit(
                pull_end,
                unit.uid,
                "unit_io_begin",
                pipeline=unit.pipeline_id,
                stage=unit.stage_index,
            )
            self._emit(
                io_end,
                unit.uid,
                "unit_io_end",
                pipeline=unit.pipeline_id,
                stage=unit.stage_index,
            )
            self._push(io_end, _OFFER, unit)
        if self.store.pending_count() > 0:
            # Bulk limit hit; the agent turns around and pulls again.
            self._schedule_pull(pull_end)

    def _handle_offer(self, time: float, unit: UnitDescription) -> None:
        self.scheduler.offer(unit)
        self._schedule_sched(time)

    def _handle_sched(self, time: float) -> None:
        self._pending_scheds.discard(time)
        for unit, _placement in self.scheduler.place_ready():
            self._launch(time, unit)

    def _launch(self, time: float, unit: UnitDescription) -> None:
        """Lay out the unit's full timeline; truncate at the walltime limit."""
        record = self._records_by_uid[unit.uid]
        deadline = self._deadline
        assert deadline is not None
        advance_task_state(record, LifecycleEvent.SCHEDULED, sink=self.sink, time=time)

        stage_in_end = time
        for _ in unit.inputs:
            stage_in_end += self.fs_latency.sample()
        exec_end = stage_in_end + unit.expected_duration * self.duration_noise.sample()
        stage_out_end = exec_end
        for _ in unit.outputs:
            stage_out_end += self.fs_latency.sample()

        def advance(event: LifecycleEvent, when: float) -> None:
            advance_task_state(record, event, sink=self.sink, time=when)

        def emit(when: float, name: str) -> None:
            self._emit(
                when,
                record.task.id,
                name,
                pipeline=record.pipeline_id,
                stage=record.stage_index,
            )

        def truncate() -> None:
            # The unit holds its cores until the pilot dies, so nothing is
            # released here; the pipeline can no longer finish and the
            # pilot stays up to its walltime limit.
            advance(LifecycleEvent.CANCELED, deadline)
            self.tracker.on_terminal(record)
            self._finish_floor = deadline

        # A phase appears in the log only when it completes inside the
        # walltime; a truncated unit is canceled at the deadline instead.
        if stage_in_end <= deadline:
            advance(LifecycleEvent.STAGE_IN_STARTED, time)
            emit(stage_in_end, "stage_in_end")
        else:
            truncate()
            return
        if exec_end <= deadline:
            advance(LifecycleEvent.EXEC_STARTED, stage_in_end)
            emit(exec_end, "exec_end")
        else:
            truncate()
            return
        if stage_out_end <= deadline:
            advance(LifecycleEvent.COMPLETED, exec_end)
            emit(stage_out_end, "stage_out_end")
            advance(LifecycleEvent.STAGED_OUT, stage_out_end)
            self._push(stage_out_end, _UNIT_DONE, unit)
        else:
            truncate()

    def _handle_unit_done(self, time: float, unit: UnitDescription) -> None:
        record = self._records_by_uid[unit.uid]
        self.store.complete(unit.uid)
        self.scheduler.release(unit.uid)
        if self.scheduler.waiting_count() > 0:
            self._schedule_sched(time)
        next_records = self.tracker.on_terminal(record)
        if next_records:
            self._translate(next_records, time)

    # -- main loop -----------------------------------------------------------

    def run(self) -> EventLog:
        wait = self.queue_wait.sample()
        self._active_at = wait
        self._deadline = wait + self.request.walltime
        self._push(wait, _PILOT_ACTIVE)
        self._translate(self.tracker.initial_ready(), 0.0)

        finish = None
        while self._heap:
            time, _seq, kind, payload = heapq.heappop(self._heap)
            if time > self._deadline:
                finish = self._deadline
                break
            self.now = time
            if kind == _PILOT_ACTIVE:
                self.pilot.state = PilotState.ACTIVE
                self.pilot.active_at = time
                self._emit(time, self.pilot.uid, "pilot_active")
            elif kind == _ENQUEUE:
                self._handle_enqueue(time, payload)
            elif kind == _PULL:
                self._handle_pull(time)
            elif kind == _OFFER:
                self._handle_offer(time, payload)
            elif kind == _SCHED:
                self._handle_sched(time)
            elif kind == _UNIT_DONE:
                self._handle_unit_done(time, payload)
        if finish is None:
            finish = max(self.now, self._finish_floor)

        for record in self.tracker.all_records():
            if not record.state.is_terminal:
                advance_task_state(
                    record, LifecycleEvent.CANCELED, sink=self.sink, time=finish
                )
                self.tracker.on_terminal(record)
        self._emit(finish, self.pilot.uid, "pilot_done")
        self.pilot.state = PilotState.DONE

        return EventLog(
            events=self.sink.events(),
            pilot_id=self.pilot.uid,
            pilot_cores=self.request.cores,
            backend="sim",
            seed=self.config.seed,
            extras={"status": self.tracker.status()},
        )


def sim_run(
    workflow: Workflow, request: ResourceRequest, config: SimBackendConfig
) -> EventLog:
    """Simulate the workflow under the given machine model."""
    return _SimEngine(workflow, request, config).run()
