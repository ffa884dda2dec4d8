"""First-fit core scheduler used by the pilot agent.

The pilot owns a fixed range of cores. Units ask for a contiguous block;
the scheduler places each at the lowest free offset that fits. Units that
do not fit wait in FIFO order, and a unit that can never fit (wider than
the pilot itself) is rejected outright.

The core map holds one byte per core, 1 where the core is busy, so first
fit is one ``bytearray.find`` for a run of free bytes. It also keeps the
widths of the free runs sorted, updating them with ``bisect`` as blocks
come and go, so the widest free run is always known. A waiting unit wider
than that run is skipped with one integer comparison and no search; any
other unit is certain to fit, so each placement costs exactly one search.
When no core is free, the rest of the queue is left as it is.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

from .units import UnitDescription


class UnschedulableError(Exception):
    """A unit requests more cores than the pilot has in total."""


class CoreMap:
    """Tracks which contiguous core blocks are allocated."""

    def __init__(self, total_cores: int) -> None:
        if total_cores < 1:
            raise ValueError("total_cores must be >= 1")
        self.total_cores = total_cores
        # One byte per core: 1 busy, 0 free.
        self._busy = bytearray(total_cores)
        self._by_uid: dict[str, tuple[int, int]] = {}
        # Widths of the non-empty free runs, sorted, so the widest is last.
        self._runs: list[int] = [total_cores]

    def widest_free(self) -> int:
        """Width of the widest run of contiguous free cores."""
        return self._runs[-1] if self._runs else 0

    def find_offset(self, cores: int) -> int | None:
        """Lowest offset where ``cores`` contiguous cores are free."""
        offset = self._busy.find(bytes(cores))
        return None if offset < 0 else offset

    def allocate(self, uid: str, cores: int) -> int:
        offset = self.find_offset(cores)
        if offset is None:
            raise RuntimeError(f"no contiguous block of {cores} cores free")
        # First fit puts the block at the start of a free run.
        run_end = self._busy.find(1, offset)
        run = (self.total_cores if run_end < 0 else run_end) - offset
        self._busy[offset : offset + cores] = b"\1" * cores
        self._by_uid[uid] = (offset, cores)
        self._replace_runs((run,), run - cores)
        return offset

    def release(self, uid: str) -> None:
        offset, cores = self._by_uid.pop(uid)
        end = offset + cores
        self._busy[offset:end] = bytes(cores)
        before = self._busy.rfind(1, 0, offset) + 1
        after = self._busy.find(1, end)
        if after < 0:
            after = self.total_cores
        self._replace_runs((offset - before, after - end), after - before)

    def _replace_runs(self, old: tuple[int, ...], new: int) -> None:
        for run in old:
            if run:
                del self._runs[bisect_left(self._runs, run)]
        if new:
            insort(self._runs, new)


class FirstFitScheduler:
    """FIFO first-fit placement over a pilot's core map.

    ``offer`` queues units, ``place_ready`` places every unit that fits
    right now and returns each as a ``(unit, core offset)`` pair, in queue
    order. A skipped unit keeps its queue position, so freeing cores can
    only ever help units behind it, never reorder them.
    """

    def __init__(self, total_cores: int) -> None:
        self.cores = CoreMap(total_cores)
        self._waiting: deque[UnitDescription] = deque()

    def offer(self, unit: UnitDescription) -> None:
        if unit.task.cores > self.cores.total_cores:
            raise UnschedulableError(
                f"unit {unit.uid} wants {unit.task.cores} cores but the pilot "
                f"has only {self.cores.total_cores}"
            )
        self._waiting.append(unit)

    def waiting_count(self) -> int:
        return len(self._waiting)

    def place_ready(self) -> list[tuple[UnitDescription, int]]:
        placed: list[tuple[UnitDescription, int]] = []
        skipped: list[UnitDescription] = []
        widest = self.cores.widest_free()
        while self._waiting and widest:
            unit = self._waiting.popleft()
            if unit.task.cores > widest:
                skipped.append(unit)
                continue
            placed.append((unit, self.cores.allocate(unit.uid, unit.task.cores)))
            widest = self.cores.widest_free()
        self._waiting.extendleft(reversed(skipped))
        return placed

    def release(self, uid: str) -> None:
        self.cores.release(uid)
