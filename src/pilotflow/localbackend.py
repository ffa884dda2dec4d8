"""Local execution backend: real processes on the current machine.

The pilot is this process, so the allocation is available the moment it is
requested and the queue-time metric is exactly zero. Everything else keeps
the same shape as the simulated path: tasks are translated to unit
descriptions, pulled from the store in bulk, pushed through the first-fit
core scheduler (cores here are bookkeeping slots, not pinned CPUs), and
executed as child processes, one per unit in a private sandbox directory.

The engine's own thread holds every child: it stages a unit in, starts the
command with ``Popen`` in a new session, stderr to a memfd of its own, and
waits on the children's pidfds (Linux 5.3 or later) with one selector timed
to the walltime. At most ``max_workers`` children run; placed units beyond
that wait in order. A task's command owns its process group: one reap kills
the group, then reaps the child, whether it exited (stage-out follows), hit
the walltime or lost a sibling task (it is canceled) or the run was
interrupted (the run's sandbox is removed and ``KeyboardInterrupt`` goes on).

All timestamps come from one monotonic clock anchored at pilot submission,
and every duration in the log is genuinely measured, which is what makes
this backend useful for measuring engine overheads.

The bookkeeping, the state moves and the events of each step belong to
:class:`~pilotflow.runtime.EngineCore`. This module owns only the
execution: the clock, the children, the sandboxes and staging. It reports
why each task ends; the core chooses the terminal state.
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
import threading
import time as _time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .latency import LatencyModel, Sampler
from .model import (
    ResourceRequest,
    StagingDirective,
    StagingMode,
    TaskRecord,
    Workflow,
    advance_task_state,  # unused here, but perfbench/tracing.py swaps this name
)
from .profiling import EventLog
from .runtime import Cause, EngineCore
from .units import UnitDescription, translate_task


@dataclass(frozen=True)
class LocalBackendConfig:
    """Knobs for the local runner.

    A run keeps its units' working directories in one ``pilotflow-run-*``
    directory under ``sandbox_root`` (the system temporary directory by
    default), removed at the end unless ``keep_sandboxes`` is set.
    ``data_root`` is where staging sources are read from and staging
    targets written to. ``bulk`` caps the units one pull takes and
    ``max_workers`` the children running at once; both must be at least 1.
    """

    sandbox_root: str | None = None
    data_root: str | None = None
    keep_sandboxes: bool = False
    bulk: int = 1024
    max_workers: int | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` for a setting no run can use."""
        if self.bulk < 1:
            raise ValueError(f"bulk must be >= 1, got {self.bulk}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")


class StagingError(Exception):
    pass


def _resolve_executable(executable: str) -> str:
    found = shutil.which(executable)
    if found is None:
        raise FileNotFoundError(f"executable not found: {executable}")
    return found


# What a directive's missing source is called in its unit's diagnostic.
_MISSING = {
    StagingMode.COPY_IN: "missing staging source",
    StagingMode.TAR_IN: "missing staging archive",
    StagingMode.COPY_OUT: "missing staging output",
    StagingMode.TAR_OUT: "missing output directory to pack",
}


def _stage_one(
    directive: StagingDirective, sandbox: Path, data_root: Path
) -> None:
    mode = directive.mode
    inbound = mode in (StagingMode.COPY_IN, StagingMode.TAR_IN)
    source = (data_root if inbound else sandbox) / directive.source
    target = (sandbox if inbound else data_root) / directive.target
    packs = mode is StagingMode.TAR_OUT
    if not (source.is_dir() if packs else source.exists()):
        raise StagingError(f"{_MISSING[mode]}: {source}")
    if mode is StagingMode.TAR_IN:
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(source) as archive:
            # An interpreter without extraction filters raises TypeError
            # here, which fails the unit rather than extracting unchecked
            # member paths.
            archive.extractall(target, filter="data")
        return
    target.parent.mkdir(parents=True, exist_ok=True)
    if packs:
        with tarfile.open(target, "w") as archive:
            archive.add(source, arcname=source.name)
    else:
        shutil.copy2(source, target)


def _diagnostic(exc: Exception) -> str:
    """The diagnostic of a unit whose staging or start raised ``exc``."""
    known = isinstance(exc, (StagingError, FileNotFoundError))
    return str(exc) if known else f"{type(exc).__name__}: {exc}"


@contextmanager
def _interrupt_deferred() -> Iterator[None]:
    """Hold back SIGINT for the block, then raise the interrupt it caught.

    Only the main thread, with Python's default handler in place, defers;
    a signal mask cannot, because a child started in the block inherits it.
    """
    if (
        threading.current_thread() is not threading.main_thread()
        or signal.getsignal(signal.SIGINT) is not signal.default_int_handler
    ):
        yield
        return
    caught: list[int] = []
    signal.signal(signal.SIGINT, lambda signum, frame: caught.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        if caught:
            raise KeyboardInterrupt


class _LocalEngine:
    def __init__(
        self, workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
    ) -> None:
        config.validate()
        self.config = config
        self.core = EngineCore(
            workflow, request, Sampler(LatencyModel.constant(0.0), 0, "pull")
        )
        self._epoch = 0.0
        # Running children by pidfd: (unit, Popen, exec begin, stderr memfd).
        self._children = selectors.DefaultSelector()
        # Placed units waiting for a free max_workers slot, in placement order.
        self._placed: deque[UnitDescription] = deque()
        self._run_dir = self._data_root = Path()

    def _now(self) -> float:
        return _time.perf_counter() - self._epoch

    def _translate(self, records: list[TaskRecord]) -> None:
        for record in records:
            begin = self._now()
            unit = translate_task(record.task, self.core.allocator)
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

    def _fail(self, unit: UnitDescription, time: float, diagnostic: str) -> None:
        """Free ``unit``'s cores, fail its task and stop the siblings it canceled."""
        canceled = self.core.end(self.core.release(unit), Cause.ERROR, time, diagnostic)
        held = {record.task.id for record in canceled}
        for key in list(self._children.get_map().values()):
            if key.data[0].task.id in held:
                self.core.release(self._reap(key)[0])
        for sibling in [u for u in self._placed if u.task.id in held]:
            self._placed.remove(sibling)
            self.core.release(sibling)

    def _start(self, unit: UnitDescription) -> None:
        """Stage ``unit`` in and start its command, or fail the unit."""
        begin = self._now()
        if begin > self.core.deadline:
            return  # placed, so close() cancels it as cut by the walltime
        sandbox = self._run_dir / unit.uid
        try:
            sandbox.mkdir(parents=True, exist_ok=True)
            for directive in unit.task.inputs:
                _stage_one(directive, sandbox, self._data_root)
            record = self.core.tracker.record_for(unit.task.id)
            self.core.phase(record, "stage_in", begin, self._now())
            argv = [_resolve_executable(unit.task.executable), *unit.task.arguments]
        except Exception as exc:  # the unit fails, the run goes on
            self._fail(unit, self._now(), _diagnostic(exc))
            return
        # Ctrl-C waits until the engine holds the child, so that the run's
        # final reap finds it.
        with _interrupt_deferred():
            begin = self._now()
            stderr = open(os.memfd_create("stderr", os.MFD_CLOEXEC), "w+b")
            try:
                proc = subprocess.Popen(
                    argv,
                    cwd=sandbox,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    start_new_session=True,
                )
            except Exception as exc:  # the unit fails, the run goes on
                stderr.close()
                self._fail(unit, self._now(), _diagnostic(exc))
                return
            data = (unit, proc, begin, stderr)
            pidfd = os.pidfd_open(proc.pid)
            self._children.register(pidfd, selectors.EVENT_READ, data)

    def _reap(self, key: selectors.SelectorKey) -> tuple[UnitDescription, float, str]:
        """Kill a child's process group while the unreaped child holds its PID,
        then reap it. Returns the unit, its exec begin and, for a nonzero exit,
        the status and the last line of the last 4 KiB of stderr.

        Only the process group is killed: a process that left it (``setsid``)
        escapes the reap and can outlive the run. Each child's stderr is a
        memfd of its own, closed here, so such a process writes into no later
        task's diagnostic. A flood of stderr stays in kernel memory until the
        reap, never the heap."""
        unit, proc, begin, stderr = key.data
        os.killpg(proc.pid, signal.SIGKILL)
        self._children.unregister(key.fd)
        os.close(key.fd)
        returncode = proc.wait()
        with stderr:
            stderr.seek(max(0, stderr.seek(0, os.SEEK_END) - 4096))
            tail = stderr.read().decode(errors="replace").strip().splitlines()[-1:]
        status = f"command exited with status {returncode}"
        return unit, begin, ": ".join([status, *tail]) if returncode else ""

    def _exited(self, key: selectors.SelectorKey) -> None:
        """A child's pidfd fired: reap it, end its exec phase, then stage out."""
        unit, begin, diagnostic = self._reap(key)
        end = self._now()
        record = self.core.tracker.record_for(unit.task.id)
        self.core.phase(record, "exec", begin, end)
        if diagnostic:
            self._fail(unit, end, diagnostic)
            return
        begin = self._now()
        try:
            for directive in unit.task.outputs:
                _stage_one(directive, self._run_dir / unit.uid, self._data_root)
        except Exception as exc:  # the unit fails, the run goes on
            self._fail(unit, self._now(), _diagnostic(exc))
            return
        end = self._now()
        self.core.phase(record, "stage_out", begin, end)
        self._translate(self.core.end(self.core.release(unit), Cause.DONE, end))

    def run(self) -> EventLog:
        self._epoch = _time.perf_counter()
        # The allocation is this process: active the instant it is requested.
        self.core.activate(0.0)

        root = self.config.sandbox_root
        if root is not None:
            Path(root).mkdir(parents=True, exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix="pilotflow-run-", dir=root))
        self._run_dir = run_dir
        data_root = self.config.data_root
        self._data_root = run_dir / "data" if data_root is None else Path(data_root)
        self._data_root.mkdir(parents=True, exist_ok=True)

        core = self.core
        children = self._children
        workers = self.config.max_workers or min(core.request.cores, 128)

        self._translate(core.tracker.initial_ready())
        try:
            # Past the deadline, the children are killed and close() cancels
            # each placed unit as cut by the walltime.
            while self._now() <= core.deadline:
                self._pull_pending()
                for unit, _offset in core.scheduler.place_ready():
                    if core.scheduled(unit, self._now()) is not None:
                        self._placed.append(unit)
                while self._placed and len(children.get_map()) < workers:
                    self._start(self._placed.popleft())
                if not children.get_map():
                    if core.store.pending_count() or core.scheduler.waiting_count():
                        continue
                    break
                # epoll refuses a wait of 25 days or more: wait an hour at most.
                timeout = min(core.deadline - self._now(), 3600.0)
                # Apply every child the selector reports, so that the units
                # they make ready share the next pull.
                for key, _ in children.select(timeout):
                    # A child reaped with a failed sibling is gone from the map.
                    if children.get_map().get(key.fd) is key:
                        self._exited(key)
        finally:
            # Children are left after the walltime, an interrupt or an error.
            for key in list(children.get_map().values()):
                self._reap(key)
            children.close()
            if not self.config.keep_sandboxes:
                shutil.rmtree(run_dir, ignore_errors=True)

        return core.close(self._now(), "local", None, {"run_dir": str(run_dir)})


def local_run(
    workflow: Workflow, request: ResourceRequest, config: LocalBackendConfig
) -> EventLog:
    """Execute the workflow with real processes on this machine. On
    ``KeyboardInterrupt`` the children are killed and no log is returned."""
    return _LocalEngine(workflow, request, config).run()
