"""First-fit core scheduler used by the pilot agent.

The pilot owns a fixed range of cores. Units ask for a contiguous block;
the scheduler places each at the lowest free offset that fits. Units that
do not fit wait in FIFO order, and a unit that can never fit (wider than
the pilot itself) is rejected outright.

The core map keeps the live blocks sorted by offset, and the widths of the
free runs between them sorted by width, updating both with ``bisect`` as
blocks come and go, so the widest free run is always known. A waiting unit
wider than that run is skipped with one integer comparison and no search;
any other unit is certain to fit, so each placement costs exactly one
first-fit scan, linear in the live blocks. When no core is free, the rest
of the queue is left as it is.
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
        # Start and end offsets of every live block, both sorted by offset.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._by_uid: dict[str, tuple[int, int]] = {}
        # Widths of the non-empty free runs between blocks, sorted, so the
        # widest is the last.
        self._runs: list[int] = [total_cores]

    def used_cores(self) -> int:
        return self.total_cores - sum(self._runs)

    def widest_free(self) -> int:
        """Width of the widest run of contiguous free cores."""
        return self._runs[-1] if self._runs else 0

    def find_offset(self, cores: int) -> int | None:
        """Lowest offset where ``cores`` contiguous cores are free."""
        cursor = 0
        for start, end in zip(self._starts, self._ends):
            if start - cursor >= cores:
                return cursor
            cursor = end
        if self.total_cores - cursor >= cores:
            return cursor
        return None

    def allocate(self, uid: str, cores: int) -> int:
        offset = self.find_offset(cores)
        if offset is None:
            raise RuntimeError(f"no contiguous block of {cores} cores free")
        index = bisect_left(self._starts, offset)
        # First fit puts the block at the start of a free run.
        run = self._next_start(index) - offset
        self._starts.insert(index, offset)
        self._ends.insert(index, offset + cores)
        self._by_uid[uid] = (offset, cores)
        self._replace_runs((run,), run - cores)
        return offset

    def release(self, uid: str) -> None:
        offset, cores = self._by_uid.pop(uid)
        index = bisect_left(self._starts, offset)
        del self._starts[index]
        del self._ends[index]
        before = self._ends[index - 1] if index else 0
        after = self._next_start(index)
        self._replace_runs(
            (offset - before, after - offset - cores), after - before
        )

    def _next_start(self, index: int) -> int:
        return self._starts[index] if index < len(self._starts) else self.total_cores

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
        if unit.cores > self.cores.total_cores:
            raise UnschedulableError(
                f"unit {unit.uid} wants {unit.cores} cores but the pilot "
                f"has only {self.cores.total_cores}"
            )
        self._waiting.append(unit)

    def waiting_count(self) -> int:
        return len(self._waiting)

    def place_ready(self) -> list[tuple[UnitDescription, int]]:
        placed: list[tuple[UnitDescription, int]] = []
        widest = self.cores.widest_free()
        if not widest:
            return placed
        still_waiting: deque[UnitDescription] = deque()
        while self._waiting and widest:
            unit = self._waiting.popleft()
            if unit.cores > widest:
                still_waiting.append(unit)
                continue
            placed.append((unit, self.cores.allocate(unit.uid, unit.cores)))
            widest = self.cores.widest_free()
        still_waiting.extend(self._waiting)
        self._waiting = still_waiting
        return placed

    def release(self, uid: str) -> None:
        self.cores.release(uid)
