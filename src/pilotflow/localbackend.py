"""Local execution backend: real processes on the current machine.

The pilot is this process, so the allocation is available the moment it is
requested and the queue-time metric is exactly zero. Everything else keeps
the same shape as the simulated path: tasks are translated to unit
descriptions, pulled from the store in bulk, pushed through the first-fit
core scheduler (cores here are bookkeeping slots, not pinned CPUs), and
executed as child processes, one per unit in a private sandbox directory.

The engine's own thread holds every child: it stages a unit in, starts the
command with ``Popen`` in a new session and waits with one selector, timed
to the walltime, on every stderr pipe, or on a pidfd (Linux) once a child
closed it early; the exit ends the exec phase and stage-out follows. At most
``max_workers`` children run; placed units beyond that wait in order. Every
kill goes to the child's process group before the child is reaped: at the
walltime (they fail), when a sibling task fails (they are canceled) and on
``KeyboardInterrupt``, which also removes the run's sandboxes and propagates.

All timestamps come from one monotonic clock anchored at pilot submission,
and every duration in the log is genuinely measured, which is what makes
this backend useful for measuring engine overheads.

The bookkeeping and the events of each step belong to
:class:`~pilotflow.runtime.EngineCore`. This module owns only the
execution: the clock, the children, the sandboxes and staging, and the
failure diagnostics.
"""

from __future__ import annotations

import os
import queue  # unused here, but perfbench/tracing.py swaps this name
import selectors
import shutil
import signal
import subprocess
import tarfile
import tempfile
import time as _time
from collections import deque
from dataclasses import dataclass
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


def _resolve_executable(executable: str) -> str:
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


def _diagnostic(exc: Exception) -> str:
    """The diagnostic of a unit whose staging or start raised ``exc``."""
    known = isinstance(exc, (StagingError, FileNotFoundError))
    return str(exc) if known else f"{type(exc).__name__}: {exc}"


class _LocalEngine:
    def __init__(
        self, workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
    ) -> None:
        self.config = config
        self.core = EngineCore(
            workflow, request, Sampler(LatencyModel.constant(0.0), 0, "pull")
        )
        self._deadline = request.walltime
        self._walltime = f"walltime exceeded after {request.walltime:.1f}s"
        self._diagnostics: dict[str, str] = {}
        self._epoch = 0.0
        # Running children: stderr pipe -> (unit, Popen, exec begin, stderr).
        self._children = selectors.DefaultSelector()
        # Placed units waiting for a free max_workers slot, in placement order.
        self._placed: deque[UnitDescription] = deque()
        self._run_dir = self._data_root = Path()

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

    def _end(
        self, unit: UnitDescription, state: TaskState, time: float, diagnostic: str = ""
    ) -> None:
        """Free ``unit``'s cores and end its task in ``state``: translate the
        stage this completes, or cancel the rest of a failed task's stage."""
        record = self.core.release(unit)
        if diagnostic:
            self._diagnostics[record.task.id] = diagnostic
        self._translate(self.core.terminate(record, state, time))
        if state is TaskState.FAILED:
            reason = f"canceled: sibling task {record.task.id} failed"
            for key in list(self._children.get_map().values()):
                if key.data[0].pipeline_id == unit.pipeline_id:
                    self._end(self._kill(key), TaskState.CANCELED, self._now(), reason)
            waiting = [u for u in self._placed if u.pipeline_id == unit.pipeline_id]
            for sibling in waiting:
                self._placed.remove(sibling)
                self._end(sibling, TaskState.CANCELED, self._now(), reason)

    def _start(self, unit: UnitDescription) -> None:
        """Stage ``unit`` in and start its command, or fail the unit."""
        begin = self._now()
        if begin >= self._deadline:
            self._end(unit, TaskState.FAILED, begin, self._walltime)
            return
        sandbox = self._run_dir / unit.uid
        try:
            sandbox.mkdir(parents=True, exist_ok=True)
            for directive in unit.inputs:
                _stage_one(directive, sandbox, self._data_root)
            record = self.core.tracker.record_for(unit.task_id)
            self.core.phase(record, "stage_in", begin, self._now())
            argv = [_resolve_executable(unit.executable), *unit.arguments]
            begin = self._now()
            proc = subprocess.Popen(
                argv,
                cwd=sandbox,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except Exception as exc:  # the unit fails, the run goes on
            self._end(unit, TaskState.FAILED, self._now(), _diagnostic(exc))
            return
        data = (unit, proc, begin, bytearray())
        self._children.register(proc.stderr, selectors.EVENT_READ, data)

    def _kill(self, key: selectors.SelectorKey) -> UnitDescription:
        """Kill a child's process group before reaping it; returns its unit."""
        os.killpg(key.data[1].pid, signal.SIGKILL)
        self._children.unregister(key.fileobj)
        key.fileobj.close()
        key.data[1].wait()
        return key.data[0]

    def _exited(self, key: selectors.SelectorKey) -> None:
        """A child's stderr closed or its pidfd fired: once it has exited,
        end its exec phase, then stage out."""
        unit, proc, begin, stderr = key.data
        self._children.unregister(key.fileobj)
        key.fileobj.close()
        returncode = proc.poll()
        if returncode is None:
            # Still running, perhaps with its stderr closed early: wait on a pidfd.
            pidfd = open(os.pidfd_open(proc.pid), "rb", buffering=0)
            self._children.register(pidfd, selectors.EVENT_READ, key.data)
            return
        end = self._now()
        record = self.core.tracker.record_for(unit.task_id)
        self.core.phase(record, "exec", begin, end)
        if returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            diagnostic = ": ".join([f"command exited with status {returncode}", *tail])
            self._end(unit, TaskState.FAILED, end, diagnostic)
            return
        begin = self._now()
        try:
            for directive in unit.outputs:
                _stage_one(directive, self._run_dir / unit.uid, self._data_root)
        except Exception as exc:  # the unit fails, the run goes on
            self._end(unit, TaskState.FAILED, self._now(), _diagnostic(exc))
            return
        end = self._now()
        self.core.phase(record, "stage_out", begin, end)
        self._end(unit, TaskState.DONE, end)

    def run(self) -> EventLog:
        self._epoch = _time.perf_counter()
        # The allocation is this process: active the instant it is requested.
        self.core.activate(0.0)

        given = self.config.sandbox_root
        owns_root = given is None
        root = Path(tempfile.mkdtemp(prefix="pilotflow-") if owns_root else given)
        root.mkdir(parents=True, exist_ok=True)
        run_dir = self._run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        data_root = self.config.data_root
        self._data_root = run_dir / "data" if data_root is None else Path(data_root)
        self._data_root.mkdir(parents=True, exist_ok=True)

        core = self.core
        children = self._children
        workers = self.config.max_workers
        if workers is None:
            workers = max(1, min(core.request.cores, 128))

        self._translate(core.tracker.initial_ready())
        try:
            while True:
                self._pull_pending()
                for unit, _offset in core.scheduler.place_ready():
                    now = self._now()
                    failed = core.tracker.pipeline_failed(unit.task_id)
                    if failed or now > self._deadline:
                        core.terminate(core.release(unit), TaskState.CANCELED, now)
                        continue
                    record = core.tracker.record_for(unit.task_id)
                    advance_task_state(record, TaskState.SCHEDULED, core.sink, now)
                    self._placed.append(unit)
                while self._placed and len(children.get_map()) < workers:
                    self._start(self._placed.popleft())
                if not children.get_map():
                    if core.store.pending_count() or core.scheduler.waiting_count():
                        continue
                    break
                # epoll refuses a wait of 25 days or more: wait an hour at most.
                timeout = min(self._deadline - self._now(), 3600.0)
                # Apply every child the selector reports, so that the units
                # they make ready share the next pull.
                for key, _ in children.select(timeout):
                    if key.fileobj.closed:
                        continue  # killed with a failed sibling
                    piped = key.fileobj is key.data[1].stderr
                    chunk = os.read(key.fd, 65536) if piped else b""
                    if chunk:
                        key.data[3].extend(chunk)
                    else:
                        self._exited(key)
                if self._now() >= self._deadline and children.get_map():
                    live = list(children.get_map().values())
                    for unit in [self._kill(key) for key in live]:
                        self._end(unit, TaskState.FAILED, self._now(), self._walltime)
        finally:
            # Children are left only after an interrupt or an error.
            for key in list(children.get_map().values()):
                self._kill(key)
            children.close()
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
    """Execute the workflow with real processes on this machine. On
    ``KeyboardInterrupt`` the children are killed and no log is returned."""
    return _LocalEngine(workflow, request, config).run()
