"""First-fit core placement against a brute-force reference scheduler."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotflow.model import TaskSpec
from pilotflow.scheduler import CoreMap, FirstFitScheduler, UnschedulableError
from pilotflow.units import UnitDescription


def make_unit(uid: str, cores: int) -> UnitDescription:
    return UnitDescription(
        uid, TaskSpec(id=uid, executable="sleep", arguments=("0",), cores=cores)
    )


class BruteForceCoreMap:
    """Reference implementation: one busy flag per core, try every offset."""

    def __init__(self, total_cores: int) -> None:
        self.busy = [False] * total_cores
        self.owner: dict[str, tuple[int, int]] = {}

    def find_offset(self, cores: int) -> int | None:
        for offset in range(len(self.busy) - cores + 1):
            if not any(self.busy[offset : offset + cores]):
                return offset
        return None

    def allocate(self, uid: str, cores: int) -> int:
        offset = self.find_offset(cores)
        assert offset is not None
        for core in range(offset, offset + cores):
            self.busy[core] = True
        self.owner[uid] = (offset, cores)
        return offset

    def release(self, uid: str) -> None:
        offset, cores = self.owner.pop(uid)
        for core in range(offset, offset + cores):
            self.busy[core] = False


def test_eight_wide_units_pack_a_64_core_pilot():
    scheduler = FirstFitScheduler(64)
    for i in range(8):
        scheduler.offer(make_unit(f"u{i}", 8))
    placements = scheduler.place_ready()
    offsets = [offset for _, offset in placements]
    assert offsets == [0, 8, 16, 24, 32, 40, 48, 56]


def test_units_beyond_capacity_wait_in_order():
    scheduler = FirstFitScheduler(16)
    for i in range(3):
        scheduler.offer(make_unit(f"u{i}", 8))
    placements = scheduler.place_ready()
    assert [u.uid for u, _ in placements] == ["u0", "u1"]
    assert scheduler.waiting_count() == 1
    scheduler.release("u0")
    placements = scheduler.place_ready()
    assert [u.uid for u, _ in placements] == ["u2"]
    assert placements[0][1] == 0


def test_wider_than_pilot_is_rejected_outright():
    scheduler = FirstFitScheduler(8)
    with pytest.raises(UnschedulableError) as excinfo:
        scheduler.offer(make_unit("wide", 9))
    assert "9 cores" in str(excinfo.value)


def test_small_unit_fills_gap_before_queue_head():
    # u0 occupies [0, 8); u1 (12 cores) cannot fit in 16 total; u2 (4) can.
    scheduler = FirstFitScheduler(16)
    scheduler.offer(make_unit("u0", 8))
    assert len(scheduler.place_ready()) == 1
    scheduler.offer(make_unit("u1", 12))
    scheduler.offer(make_unit("u2", 4))
    placements = scheduler.place_ready()
    assert [u.uid for u, _ in placements] == ["u2"]
    assert placements[0][1] == 8
    # freeing u0 lets the queue head in at the lowest offset
    scheduler.release("u0")
    scheduler.release("u2")
    placements = scheduler.place_ready()
    assert [u.uid for u, _ in placements] == ["u1"]
    assert placements[0][1] == 0


def test_release_reuses_lowest_offset():
    scheduler = FirstFitScheduler(8)
    scheduler.offer(make_unit("a", 2))
    scheduler.offer(make_unit("b", 2))
    scheduler.offer(make_unit("c", 2))
    scheduler.place_ready()
    scheduler.release("b")
    scheduler.offer(make_unit("d", 2))
    placements = scheduler.place_ready()
    assert placements[0][1] == 2


def test_core_map_rejects_empty():
    with pytest.raises(ValueError):
        CoreMap(0)


@st.composite
def core_map_scripts(draw):
    total = draw(st.one_of(st.integers(1, 64), st.integers(65, 4096)))
    width = st.one_of(st.integers(1, 16), st.integers(1, total))
    step = st.tuples(st.sampled_from(["offer", "release"]), width)
    return total, draw(st.lists(step, max_size=40))


@given(core_map_scripts())
@settings(max_examples=150, deadline=None)
def test_first_fit_matches_brute_force(script):
    """Drive both implementations with one script; offsets must agree and
    the same cores must be busy after every step."""
    total_cores, steps = script
    fast = CoreMap(total_cores)
    slow = BruteForceCoreMap(total_cores)
    live: list[str] = []
    counter = 0
    for action, number in steps:
        if action == "offer":
            cores = min(number, total_cores)
            assert fast.find_offset(cores) == slow.find_offset(cores)
            if fast.find_offset(cores) is not None:
                uid = f"u{counter}"
                counter += 1
                assert fast.allocate(uid, cores) == slow.allocate(uid, cores)
                live.append(uid)
        elif live:
            uid = live.pop(number % len(live))
            fast.release(uid)
            slow.release(uid)
        assert fast._busy == bytes(slow.busy)


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=12),
)
@settings(max_examples=100)
def test_placements_never_overlap(widths):
    scheduler = FirstFitScheduler(24)
    for i, width in enumerate(widths):
        scheduler.offer(make_unit(f"u{i}", width))
    occupied: set[int] = set()
    for unit, offset in scheduler.place_ready():
        block = set(range(offset, offset + unit.task.cores))
        assert not (block & occupied)
        assert max(block) < 24
        occupied |= block


class ReferenceFifoScheduler:
    """FIFO first fit over one byte per core: every waiting unit, in queue
    order, takes the first run of free cores it fits in."""

    def __init__(self, total_cores: int) -> None:
        self.busy = bytearray(total_cores)
        self.owner: dict[str, tuple[int, int]] = {}
        self.waiting: list[tuple[str, int]] = []

    def place_ready(self) -> list[tuple[str, int, int]]:
        placed = []
        still_waiting = []
        for uid, cores in self.waiting:
            offset = self.busy.find(bytes(cores))
            if offset < 0:
                still_waiting.append((uid, cores))
                continue
            self.busy[offset : offset + cores] = b"\1" * cores
            self.owner[uid] = (offset, cores)
            placed.append((uid, offset, cores))
        self.waiting = still_waiting
        return placed

    def release(self, uid: str) -> None:
        offset, cores = self.owner.pop(uid)
        self.busy[offset : offset + cores] = bytes(cores)


@st.composite
def scheduler_scripts(draw):
    total = draw(st.one_of(st.integers(1, 64), st.integers(65, 4096)))
    width = st.one_of(st.integers(1, min(8, total)), st.integers(1, total))
    step = st.one_of(
        st.tuples(st.just("offer"), width),
        st.tuples(st.just("release"), st.integers(0, 10_000)),
        st.tuples(st.just("place"), st.just(0)),
    )
    return total, draw(st.lists(step, max_size=60))


@given(scheduler_scripts())
# Two runs of two free cores and two waiting 3-core units: one failed search.
@example(
    (
        8,
        [("offer", 2)] * 4
        + [("place", 0), ("release", 0), ("release", 1)]
        + [("offer", 3)] * 2,
    )
)
@settings(max_examples=200, deadline=None)
def test_place_ready_matches_fifo_reference(script):
    """Interleaved offers, releases and placements: the same units are placed
    in the same order at the same offsets, and the same queue is left."""
    total, steps = script
    fast = FirstFitScheduler(total)
    slow = ReferenceFifoScheduler(total)
    searches: list[tuple[int, int | None]] = []
    search = fast.cores.find_offset

    def counted(cores: int) -> int | None:
        offset = search(cores)
        searches.append((cores, offset))
        return offset

    fast.cores.find_offset = counted
    live: list[str] = []
    for i, (action, number) in enumerate(steps + [("place", 0)]):
        if action == "offer":
            fast.offer(make_unit(f"u{i}", number))
            slow.waiting.append((f"u{i}", number))
        elif action == "release":
            if live:
                uid = live.pop(number % len(live))
                fast.release(uid)
                slow.release(uid)
        else:
            widths = {cores for _, cores in slow.waiting}
            searches.clear()
            placed = [
                (unit.uid, offset, unit.task.cores)
                for unit, offset in fast.place_ready()
            ]
            assert placed == slow.place_ready()
            # One search per placement, plus at most one failed search per
            # distinct width that was waiting.
            failed = [cores for cores, offset in searches if offset is None]
            assert len(searches) == len(placed) + len(failed)
            assert len(failed) <= len(widths)
            assert fast.waiting_count() == len(slow.waiting)
            live.extend(uid for uid, _, _ in placed)
        assert fast.cores._busy == slow.busy
        assert fast.cores.free == slow.busy.count(0)
    assert [u.uid for u in fast._waiting] == [uid for uid, _ in slow.waiting]


def test_allocate_with_no_block_that_fits_takes_nothing():
    cores = CoreMap(8)
    for uid in "abcd":
        cores.allocate(uid, 2)
    cores.release("a")
    cores.release("c")
    busy, owners = bytes(cores._busy), dict(cores._by_uid)
    # Four cores are free, in two runs of two: no block of three fits.
    assert cores.free == 4
    assert cores.allocate("wide", 3) is None
    assert bytes(cores._busy) == busy
    assert cores._by_uid == owners
    assert cores.free == 4


@pytest.fixture
def find_offset_calls(monkeypatch):
    calls = []
    search = CoreMap.find_offset

    def counted(self, cores):
        calls.append(cores)
        return search(self, cores)

    monkeypatch.setattr(CoreMap, "find_offset", counted)
    return calls


def test_full_pilot_and_too_wide_units_cost_no_fit_search(find_offset_calls):
    scheduler = FirstFitScheduler(64)
    scheduler.offer(make_unit("big", 61))
    assert len(scheduler.place_ready()) == 1
    assert len(find_offset_calls) == 1
    # Three cores free: 1,000 units of four cores are each skipped by width.
    for i in range(1000):
        scheduler.offer(make_unit(f"w{i}", 4))
    assert scheduler.place_ready() == []
    assert len(find_offset_calls) == 1
    scheduler.offer(make_unit("fill", 3))
    assert [u.uid for u, _ in scheduler.place_ready()] == ["fill"]
    assert len(find_offset_calls) == 2
    # Pilot full: no search at all, and the queue is left as it is.
    assert scheduler.place_ready() == []
    assert len(find_offset_calls) == 2
    assert [u.uid for u in scheduler._waiting] == [f"w{i}" for i in range(1000)]


def test_each_placement_costs_exactly_one_fit_search(find_offset_calls):
    scheduler = FirstFitScheduler(64)
    scheduler.offer(make_unit("big", 64))
    scheduler.place_ready()
    widths = [(i % 8) + 1 for i in range(1000)]
    for i, width in enumerate(widths):
        scheduler.offer(make_unit(f"w{i}", width))
    find_offset_calls.clear()
    assert scheduler.place_ready() == []
    assert find_offset_calls == []
    scheduler.release("big")
    placed = scheduler.place_ready()
    # Widths 1..8 then 1..7 fill the 64 cores exactly: 36 + 28.
    assert [u.uid for u, _ in placed] == [f"w{i}" for i in range(15)]
    assert len(find_offset_calls) == len(placed)
    assert scheduler.waiting_count() == 1000 - len(placed)
