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

The bookkeeping and the events of each step belong to
:class:`~pilotflow.runtime.EngineCore`. This module owns only the
execution: the clock, the thread pool, the sandboxes and staging, and the
failure diagnostics.
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
    ResourceRequest,
    StagingDirective,
    StagingMode,
    TaskRecord,
    TaskState,
    Workflow,
    advance_task_state,
)
from .profiling import EventLog
from .runtime import EngineCore
from .units import UnitDescription, translate_task


@dataclass(frozen=True)
class LocalBackendConfig:
    """Knobs for the local runner.

    ``sandbox_root`` holds per-unit working directories (a temporary
    directory by default); ``data_root`` is where staging sources are read
    from and staging targets written to.
    """

    sandbox_root: str | None = None
    data_root: str | None = None
    keep_sandboxes: bool = False
    bulk: int = 1024
    max_workers: int | None = None


class StagingError(Exception):
    pass


@dataclass
class _Phase:
    name: str
    begin: float
    end: float


@dataclass
class _UnitResult:
    unit: UnitDescription
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
            # An interpreter without extraction filters raises TypeError
            # here, which fails the unit rather than extracting unchecked
            # member paths.
            archive.extractall(target, filter="data")
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
    deadline: float,
) -> _UnitResult:
    """Run one unit: stage in, execute, stage out.

    A unit that a worker starts at or after the walltime fails before it
    stages anything in. The command gets what is left of the walltime when
    it starts, so a unit that waited in the pool gets no more than one that
    did not. Returns the completed phase intervals; on failure only phases
    that actually finished are reported, so the event log never contains a
    dangling interval.
    """
    result = _UnitResult(unit=unit, ok=False)
    try:
        if clock() >= deadline:
            raise subprocess.TimeoutExpired(unit.executable, 0.0)
        sandbox.mkdir(parents=True, exist_ok=True)

        begin = clock()
        for directive in unit.inputs:
            _stage_one(directive, sandbox, data_root)
        result.phases.append(_Phase("stage_in", begin, clock()))

        argv = [_resolve_executable(unit.executable), *unit.arguments]
        begin = clock()
        timeout = deadline - begin
        if timeout <= 0:
            raise subprocess.TimeoutExpired(argv, 0.0)
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
            _stage_one(directive, sandbox, data_root)
        result.phases.append(_Phase("stage_out", begin, clock()))
        result.ok = True
        result.end_time = result.phases[-1].end
        return result
    except subprocess.TimeoutExpired:
        result.end_time = clock()
        result.diagnostic = f"walltime exceeded after {deadline:.1f}s"
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
        self.core = EngineCore(
            workflow, request, Sampler(LatencyModel.constant(0.0), 0, "pull")
        )
        self._results: queue.Queue[_UnitResult] = queue.Queue()
        self._diagnostics: dict[str, str] = {}
        self._epoch = 0.0

    def _now(self) -> float:
        return _time.perf_counter() - self._epoch

    def _translate(self, records: list[TaskRecord]) -> None:
        for record in records:
            begin = self._now()
            unit = translate_task(
                record.task, record.pipeline_id, record.stage_index, self.core.allocator
            )
            # The manager sends the description as JSON: the wire round trip
            # is part of the measured translation.
            unit = UnitDescription.from_wire(unit.to_wire())
            end = self._now()
            self.core.translated(record, begin, end)
            self.core.enqueue(unit, end)

    def _pull_pending(self) -> None:
        """Pull until the store is empty, at most ``bulk`` units a pull."""
        while self.core.store.pending_count():
            begin = self._now()
            units, _ = self.core.store.pull(self.config.bulk)
            self.core.pulled(begin, self._now())
            for unit in units:
                # The unit in the store is already the decoded wire form, so
                # the agent's intake of it is the offer to the scheduler.
                io_begin = self._now()
                self.core.scheduler.offer(unit)
                self.core.unit_read(unit, io_begin, self._now())

    def _apply_result(self, result: _UnitResult) -> None:
        record = self.core.release(result.unit)
        for phase in result.phases:
            self.core.phase(record, phase.name, phase.begin, phase.end)
        if result.ok:
            state = TaskState.DONE
        else:
            self._diagnostics[record.task.id] = result.diagnostic
            state = TaskState.FAILED
        self._translate(self.core.terminate(record, state, result.end_time))

    def run(self) -> EventLog:
        self._epoch = _time.perf_counter()
        # The allocation is this process: active the instant it is requested.
        self.core.activate(0.0)

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

        core = self.core
        workers = self.config.max_workers
        if workers is None:
            workers = max(1, min(core.request.cores, 128))
        deadline = core.request.walltime
        in_flight = 0

        self._translate(core.tracker.initial_ready())
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                while True:
                    self._pull_pending()
                    for unit, _offset in core.scheduler.place_ready():
                        record = core.tracker.record_for(unit.task_id)
                        now = self._now()
                        failed = core.tracker.pipeline_failed(unit.task_id)
                        if failed or now > deadline:
                            core.terminate(core.release(unit), TaskState.CANCELED, now)
                            continue
                        advance_task_state(
                            record, TaskState.SCHEDULED, sink=core.sink, time=now
                        )
                        pool.submit(
                            lambda u=unit: self._results.put(
                                _execute_unit(
                                    u, run_dir / u.uid, data_root, self._now, deadline
                                )
                            )
                        )
                        in_flight += 1
                    if (
                        in_flight == 0
                        and core.store.pending_count() == 0
                        and core.scheduler.waiting_count() == 0
                    ):
                        break
                    if in_flight > 0:
                        # Every worker reports back (_execute_unit catches every
                        # exception), so the wait needs no timeout. Apply every
                        # result already waiting too, so that the units they
                        # make ready share the next pull.
                        result = self._results.get()
                        while True:
                            in_flight -= 1
                            self._apply_result(result)
                            try:
                                result = self._results.get_nowait()
                            except queue.Empty:
                                break
        finally:
            if not self.config.keep_sandboxes:
                shutil.rmtree(root if owns_root else run_dir, ignore_errors=True)

        return core.close(
            self._now(),
            "local",
            None,
            {"diagnostics": dict(self._diagnostics), "run_dir": str(run_dir)},
        )


def local_run(
    workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
) -> EventLog:
    """Execute the workflow with real processes on this machine."""
    return _LocalEngine(workflow, request, config).run()
