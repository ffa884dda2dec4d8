"""Local execution backend: real processes on the current machine.

The pilot is this process, so the allocation is available the moment it is
requested and the queue-time metric is exactly zero. Everything else keeps
the same shape as the simulated path: tasks are translated to unit
descriptions, pulled from the store in bulk, pushed through the first-fit
core scheduler (cores here are bookkeeping slots, not pinned CPUs), and
executed in a thread pool that runs one subprocess per unit inside a
private sandbox directory.

All timestamps come from one monotonic clock anchored at pilot submission,
and every duration in the log is genuinely measured, which is what makes
this backend useful for measuring engine overheads.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import tarfile
import tempfile
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .latency import LatencyModel, Sampler
from .model import (
    LifecycleEvent,
    ResourceRequest,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskRecord,
    Workflow,
    advance_task_state,
)
from .profiling import EventLog, ProfileEvent, ProfileSink
from .runtime import PilotState, WorkflowTracker, submit_pilot
from .scheduler import FirstFitScheduler
from .units import TaskStore, UnitDescription, UnitIdAllocator, translate_task


@dataclass(frozen=True)
class LocalBackendConfig:
    """Knobs for the local runner.

    ``sandbox_root`` holds per-unit working directories (a temporary
    directory by default); ``data_root`` is where staging sources are read
    from and staging targets written to. ``pull_sleep`` and ``fs_sleep``
    inject artificial store and filesystem delays for overhead
    demonstrations; both default to none.
    """

    sandbox_root: str | None = None
    data_root: str | None = None
    keep_sandboxes: bool = False
    pull_sleep: float = 0.0
    fs_sleep: float = 0.0
    bulk: int = 1024
    max_workers: int | None = None

    def to_dict(self) -> dict:
        return {
            "backend": "local",
            "sandbox_root": self.sandbox_root,
            "data_root": self.data_root,
            "keep_sandboxes": self.keep_sandboxes,
            "pull_sleep": self.pull_sleep,
            "fs_sleep": self.fs_sleep,
            "bulk": self.bulk,
            "max_workers": self.max_workers,
        }

    @staticmethod
    def from_dict(data: dict) -> LocalBackendConfig:
        return LocalBackendConfig(
            sandbox_root=data.get("sandbox_root"),
            data_root=data.get("data_root"),
            keep_sandboxes=bool(data.get("keep_sandboxes", False)),
            pull_sleep=float(data.get("pull_sleep", 0.0)),
            fs_sleep=float(data.get("fs_sleep", 0.0)),
            bulk=int(data.get("bulk", 1024)),
            max_workers=data.get("max_workers"),
        )


class StagingError(Exception):
    pass


@dataclass
class _Phase:
    name: str
    begin: float
    end: float


@dataclass
class _UnitResult:
    uid: str
    ok: bool
    phases: list[_Phase] = field(default_factory=list)
    end_time: float = 0.0
    diagnostic: str = ""


def _resolve_executable(executable: str) -> str:
    if "/" in executable:
        path = Path(executable)
        if path.exists() and os.access(path, os.X_OK):
            return str(path)
        raise FileNotFoundError(f"executable not found: {executable}")
    found = shutil.which(executable)
    if found is None:
        raise FileNotFoundError(f"executable not found: {executable}")
    return found


def _stage_one(
    directive: StagingDirective, sandbox: Path, data_root: Path
) -> None:
    mode = directive.mode
    if mode is StagingMode.COPY_IN:
        source = data_root / directive.source
        if not source.exists():
            raise StagingError(f"missing staging source: {source}")
        target = sandbox / directive.target
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
    elif mode is StagingMode.TAR_IN:
        source = data_root / directive.source
        if not source.exists():
            raise StagingError(f"missing staging archive: {source}")
        target = sandbox / directive.target
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(source) as archive:
            try:
                archive.extractall(target, filter="data")
            except TypeError:
                archive.extractall(target)
    elif mode is StagingMode.COPY_OUT:
        source = sandbox / directive.source
        if not source.exists():
            raise StagingError(f"missing staging output: {source}")
        target = data_root / directive.target
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
    else:
        source = sandbox / directive.source
        if not source.is_dir():
            raise StagingError(f"missing output directory to pack: {source}")
        target = data_root / directive.target
        target.parent.mkdir(parents=True, exist_ok=True)
        with tarfile.open(target, "w") as archive:
            archive.add(source, arcname=source.name)


def _execute_unit(
    unit: UnitDescription,
    sandbox: Path,
    data_root: Path,
    clock,
    timeout: float,
    fs_sleep: float,
) -> _UnitResult:
    """Run one unit: stage in, execute, stage out.

    Returns the completed phase intervals; on failure only phases that
    actually finished are reported, so the event log never contains a
    dangling interval.
    """
    result = _UnitResult(uid=unit.uid, ok=False)
    try:
        sandbox.mkdir(parents=True, exist_ok=True)

        begin = clock()
        for directive in unit.inputs:
            if fs_sleep:
                _time.sleep(fs_sleep)
            _stage_one(directive, sandbox, data_root)
        result.phases.append(_Phase("stage_in", begin, clock()))

        if unit.kind is TaskKind.SIMULATED:
            argv = [_resolve_executable("sleep"), str(unit.expected_duration)]
        else:
            argv = [_resolve_executable(unit.executable), *unit.arguments]
        begin = clock()
        proc = subprocess.run(
            argv,
            cwd=sandbox,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        end = clock()
        result.phases.append(_Phase("exec", begin, end))
        if proc.returncode != 0:
            stderr = proc.stderr.strip().splitlines()
            tail = stderr[-1] if stderr else ""
            result.end_time = end
            result.diagnostic = (
                f"command exited with status {proc.returncode}"
                + (f": {tail}" if tail else "")
            )
            return result

        begin = clock()
        for directive in unit.outputs:
            if fs_sleep:
                _time.sleep(fs_sleep)
            _stage_one(directive, sandbox, data_root)
        result.phases.append(_Phase("stage_out", begin, clock()))
        result.ok = True
        result.end_time = result.phases[-1].end
        return result
    except subprocess.TimeoutExpired:
        result.end_time = clock()
        result.diagnostic = f"walltime exceeded after {timeout:.1f}s"
        return result
    except (StagingError, FileNotFoundError) as exc:
        result.end_time = clock()
        result.diagnostic = str(exc)
        return result
    except Exception as exc:  # defensive: a worker must always report back
        result.end_time = clock()
        result.diagnostic = f"{type(exc).__name__}: {exc}"
        return result


class _LocalEngine:
    def __init__(
        self, workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
    ) -> None:
        self.config = config
        self.request = request
        self.tracker = WorkflowTracker(workflow)
        self.sink = ProfileSink()
        self.store = TaskStore(Sampler(LatencyModel.constant(0.0), 0, "pull"))
        self.scheduler = FirstFitScheduler(request.cores)
        self.allocator = UnitIdAllocator()
        self._units: dict[str, UnitDescription] = {}
        self._records_by_uid: dict[str, TaskRecord] = {}
        self._results: queue.Queue[_UnitResult] = queue.Queue()
        self._diagnostics: dict[str, str] = {}
        self._epoch = 0.0

    def _now(self) -> float:
        return _time.perf_counter() - self._epoch

    def _translate(self, records: list[TaskRecord]) -> None:
        for record in records:
            begin = self._now()
            unit = translate_task(
                record.task, record.pipeline_id, record.stage_index, self.allocator
            )
            end = self._now()
            self.sink.append(
                ProfileEvent(
                    time=begin,
                    entity=record.task.id,
                    name="translate_begin",
                    pipeline=record.pipeline_id,
                    stage=record.stage_index,
                )
            )
            advance_task_state(
                record, LifecycleEvent.TRANSLATED, sink=self.sink, time=end
            )
            record.unit_id = unit.uid
            self._units[unit.uid] = unit
            self._records_by_uid[unit.uid] = record
            self.store.enqueue(unit)
            self.sink.append(
                ProfileEvent(
                    time=end,
                    entity=unit.uid,
                    name="enqueue",
                    pipeline=unit.pipeline_id,
                    stage=unit.stage_index,
                )
            )

    def _pull_pending(self) -> None:
        if self.store.pending_count() == 0:
            return
        begin = self._now()
        if self.config.pull_sleep:
            _time.sleep(self.config.pull_sleep)
        units, _ = self.store.pull(self.config.bulk)
        self.sink.append(ProfileEvent(time=begin, entity="pilot.0000", name="pull_begin"))
        self.sink.append(
            ProfileEvent(time=self._now(), entity="pilot.0000", name="pull_end")
        )
        for unit in units:
            # Re-read the description from its wire form, as the agent does.
            io_begin = self._now()
            if self.config.fs_sleep:
                _time.sleep(self.config.fs_sleep)
            UnitDescription.from_wire(unit.to_wire())
            self.sink.append(
                ProfileEvent(
                    time=io_begin,
                    entity=unit.uid,
                    name="unit_io_begin",
                    pipeline=unit.pipeline_id,
                    stage=unit.stage_index,
                )
            )
            self.sink.append(
                ProfileEvent(
                    time=self._now(),
                    entity=unit.uid,
                    name="unit_io_end",
                    pipeline=unit.pipeline_id,
                    stage=unit.stage_index,
                )
            )
            self.scheduler.offer(unit)

    def _cancel_unit(self, unit: UnitDescription, release: bool) -> None:
        record = self._records_by_uid[unit.uid]
        if release:
            self.scheduler.release(unit.uid)
        self.store.complete(unit.uid)
        advance_task_state(
            record, LifecycleEvent.CANCELED, sink=self.sink, time=self._now()
        )
        self.tracker.on_terminal(record)

    def _apply_result(self, result: _UnitResult) -> None:
        unit = self._units[result.uid]
        record = self._records_by_uid[result.uid]
        self.scheduler.release(result.uid)
        self.store.complete(result.uid)

        entry_for = {
            "stage_in": LifecycleEvent.STAGE_IN_STARTED,
            "exec": LifecycleEvent.EXEC_STARTED,
            "stage_out": LifecycleEvent.COMPLETED,
        }
        for phase in result.phases:
            advance_task_state(
                record, entry_for[phase.name], sink=self.sink, time=phase.begin
            )
            self.sink.append(
                ProfileEvent(
                    time=phase.end,
                    entity=record.task.id,
                    name=f"{phase.name}_end",
                    pipeline=record.pipeline_id,
                    stage=record.stage_index,
                )
            )
        if result.ok:
            advance_task_state(
                record, LifecycleEvent.STAGED_OUT, sink=self.sink, time=result.end_time
            )
        else:
            self._diagnostics[record.task.id] = result.diagnostic
            advance_task_state(
                record, LifecycleEvent.FAILED, sink=self.sink, time=result.end_time
            )
        ready = self.tracker.on_terminal(record)
        if ready:
            self._translate(ready)

    def run(self) -> EventLog:
        self._epoch = _time.perf_counter()
        pilot = submit_pilot(self.request, self.sink, uid="pilot.0000", time=0.0)
        # The allocation is this process: active the instant it is requested.
        pilot.state = PilotState.ACTIVE
        pilot.active_at = 0.0
        self.sink.append(ProfileEvent(time=0.0, entity=pilot.uid, name="pilot_active"))

        owns_root = self.config.sandbox_root is None
        if owns_root:
            root = Path(tempfile.mkdtemp(prefix="pilotflow-"))
        else:
            root = Path(self.config.sandbox_root)
            root.mkdir(parents=True, exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        data_root = (
            Path(self.config.data_root)
            if self.config.data_root is not None
            else run_dir / "data"
        )
        data_root.mkdir(parents=True, exist_ok=True)

        workers = self.config.max_workers
        if workers is None:
            workers = max(1, min(self.request.cores, 128))
        deadline = self.request.walltime
        in_flight = 0

        self._translate(self.tracker.initial_ready())
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                while True:
                    self._pull_pending()
                    for unit, _placement in self.scheduler.place_ready():
                        record = self._records_by_uid[unit.uid]
                        now = self._now()
                        failed = self.tracker.pipeline_failed(record.task.id)
                        if failed or now > deadline:
                            self._cancel_unit(unit, release=True)
                            continue
                        advance_task_state(
                            record, LifecycleEvent.SCHEDULED, sink=self.sink, time=now
                        )
                        timeout = max(0.01, deadline - now)
                        pool.submit(
                            lambda u=unit, t=timeout: self._results.put(
                                _execute_unit(
                                    u,
                                    run_dir / u.uid,
                                    data_root,
                                    self._now,
                                    t,
                                    self.config.fs_sleep,
                                )
                            )
                        )
                        in_flight += 1
                    if (
                        in_flight == 0
                        and self.store.pending_count() == 0
                        and self.scheduler.waiting_count() == 0
                    ):
                        break
                    if in_flight > 0:
                        result = self._results.get(timeout=deadline + 60.0)
                        in_flight -= 1
                        self._apply_result(result)
        finally:
            if not self.config.keep_sandboxes:
                shutil.rmtree(root if owns_root else run_dir, ignore_errors=True)

        finish = self._now()
        for record in self.tracker.all_records():
            if not record.state.is_terminal:
                advance_task_state(
                    record, LifecycleEvent.CANCELED, sink=self.sink, time=finish
                )
                self.tracker.on_terminal(record)
        self.sink.append(ProfileEvent(time=finish, entity=pilot.uid, name="pilot_done"))
        pilot.state = PilotState.DONE

        return EventLog(
            events=self.sink.events(),
            pilot_id=pilot.uid,
            pilot_cores=self.request.cores,
            backend="local",
            seed=None,
            extras={
                "status": self.tracker.status(),
                "diagnostics": dict(self._diagnostics),
                "run_dir": str(run_dir),
            },
        )


def local_run(
    workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
) -> EventLog:
    """Execute the workflow with real processes on this machine."""
    return _LocalEngine(workflow, request, config).run()
