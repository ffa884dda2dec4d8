"""First-fit core scheduler used by the pilot agent.

The pilot owns a fixed range of cores. Units ask for a contiguous block;
the scheduler places each at the lowest free offset that fits. Units that
do not fit wait in FIFO order, and a unit that can never fit (wider than
the pilot itself) is rejected outright.

The core map holds one byte per core, 1 where the core is busy, so first
fit is one ``bytearray.find`` for a run of free bytes. Beside the bytes
and each unit's block it keeps one count, the free cores. A pass over the
waiting units keeps an upper bound on the widest free run: the free count
to start with, one less than a width whose search failed (no run is that
wide, and placing only takes cores), and never more than the free count.
A waiting unit wider than the bound is skipped with one integer comparison
and no search, so a pass costs one search per placement plus at most one
failed search per distinct waiting width. When no core is free, the rest
of the queue is left as it is.
"""

from __future__ import annotations

from collections import deque

from .units import UnitDescription


class UnschedulableError(Exception):
    """A unit requests more cores than the pilot has in total."""


class CoreMap:
    """Tracks which contiguous core blocks are allocated, and how many
    cores are free."""

    def __init__(self, total_cores: int) -> None:
        if total_cores < 1:
            raise ValueError("total_cores must be >= 1")
        self.total_cores = total_cores
        # One byte per core: 1 busy, 0 free.
        self._busy = bytearray(total_cores)
        self._by_uid: dict[str, tuple[int, int]] = {}
        self.free = total_cores

    def find_offset(self, cores: int) -> int | None:
        """Lowest offset where ``cores`` contiguous cores are free."""
        offset = self._busy.find(bytes(cores))
        return None if offset < 0 else offset

    def allocate(self, uid: str, cores: int) -> int | None:
        """Take the first block of ``cores`` free cores for ``uid`` and
        return its offset; None, taking nothing, when no block fits."""
        offset = self.find_offset(cores)
        if offset is not None:
            self._busy[offset : offset + cores] = b"\1" * cores
            self._by_uid[uid] = (offset, cores)
            self.free -= cores
        return offset

    def release(self, uid: str) -> None:
        offset, cores = self._by_uid.pop(uid)
        self._busy[offset : offset + cores] = bytes(cores)
        self.free += cores


class FirstFitScheduler:
    """FIFO first-fit placement over a pilot's core map.

    ``offer`` queues units, ``place_ready`` places every unit that fits
    right now and returns each as a ``(unit, core offset)`` pair, in queue
    order. A skipped unit keeps its queue position, so freeing cores can
    only ever help units behind it, never reorder them. Within a pass, a
    failed search for w cores rules out every unit of w cores or more.
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
        cores = self.cores
        # At least as wide as the widest free run (see the module docstring).
        widest = cores.free
        while self._waiting and widest:
            unit = self._waiting.popleft()
            width = unit.task.cores
            if width > widest:
                skipped.append(unit)
                continue
            offset = cores.allocate(unit.uid, width)
            if offset is None:
                # No free run is this wide, and placing only takes cores.
                skipped.append(unit)
                widest = width - 1
                continue
            placed.append((unit, offset))
            widest = min(widest, cores.free)
        self._waiting.extendleft(reversed(skipped))
        return placed

    def release(self, uid: str) -> None:
        self.cores.release(uid)
