"""Timestamped event records shared by every backend.

Both engines narrate a run through the same small event vocabulary so the
metrics layer never needs to know which backend produced a log. Events form
begin/end interval pairs where a duration is meaningful and single points
where it is not.

Event names, by the entity they are keyed on:

  pilot id:   ``submit``, ``pilot_active``, ``pilot_done``,
              ``pull_begin`` / ``pull_end``
  unit id:    ``enqueue``, ``unit_io_begin`` / ``unit_io_end``
  task id:    ``translate_begin`` / ``translate_end``, ``schedule``,
              ``stage_in_begin`` / ``stage_in_end``,
              ``exec_begin`` / ``exec_end``,
              ``stage_out_begin`` / ``stage_out_end``,
              ``done``, ``failed``, ``canceled``

All timestamps are seconds relative to pilot submission (time 0.0).

Engines append each event as a plain row, the tuple ``(time, entity, name,
pipeline, stage)``. A finished log keeps no rows: :class:`ProfileSink`
moves them into five parallel lists, one per field, which hold the engine's
own float, str and int objects. A log therefore costs five list slots per
event and no object of its own, and none of what it holds is tracked by
CPython's cyclic collector, so no collection walks it. :class:`EventView`
is how callers read a log: it builds a ``ProfileEvent`` for each event it
hands out.

The simulator writes rows ahead of its clock (a placed unit's whole
timeline is written at once), so rows arrive out of time order. After each
step of its clock it promises the sink that no later row is earlier than
that step (:meth:`ProfileSink.settle`), and the sink moves the rows before
it into the columns a few thousand at a time; only the unsettled tail stays
as tuples. The local backend promises nothing, and its rows are sorted
once, when the run closes.
"""

from __future__ import annotations

import csv
import io
import math
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

# Interval vocabulary: name stems that come in _begin/_end pairs.
INTERVAL_STEMS = (
    "translate",
    "pull",
    "unit_io",
    "stage_in",
    "exec",
    "stage_out",
)


# Rows per write in EventLog.write_csv: large enough to amortize the write
# call, small enough that the file is never held in memory whole.
_CSV_CHUNK_ROWS = 4096
# A string csv.writer's default dialect writes as it is, unquoted.
_BARE_FIELD = re.compile(r"[A-Za-z0-9_.:-]+").fullmatch

# Rows a sink's tail gains before a settle sorts it and moves its settled
# part into the columns: large enough that the sort and the five column
# extends run at C speed, small enough that the tuples waiting in the tail
# stay a sliver of the log.
_SETTLE_ROWS = 4096

_TIME = itemgetter(0)
_FIELDS = tuple(map(itemgetter, range(5)))


class ProfileEvent(NamedTuple):
    """One timestamped occurrence attributed to an entity.

    ``pipeline`` and ``stage`` carry attribution for per-stage metrics; they
    are empty for pilot-level events. Logs store the same five fields as
    columns and build this record only when a caller reads one.
    """

    time: float
    entity: str
    name: str
    pipeline: str = ""
    stage: int = -1


# One appended event: (time, entity, name, pipeline, stage).
Row = tuple[float, str, str, str, int]


class EventView(Sequence[ProfileEvent]):
    """Read-only sequence of ``ProfileEvent`` over five columns.

    Event ``i`` is ``(times[i], entities[i], names[i], pipelines[i],
    stages[i])``, built when it is read and not kept, so iterating over a
    log or taking its length never holds a second copy of it. Two views, or
    a view and a list of events, are equal when their events are. The
    metrics and the CSV writer read the columns directly.
    """

    __slots__ = ("times", "entities", "names", "pipelines", "stages")

    def __init__(
        self,
        times: list[float],
        entities: list[str],
        names: list[str],
        pipelines: list[str],
        stages: list[int],
    ) -> None:
        self.times = times
        self.entities = entities
        self.names = names
        self.pipelines = pipelines
        self.stages = stages

    def _columns(self) -> tuple[list, ...]:
        return (self.times, self.entities, self.names, self.pipelines, self.stages)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = [column[index] for column in self._columns()]
            return list(map(ProfileEvent, *columns))
        return ProfileEvent(*[column[index] for column in self._columns()])

    def __iter__(self):
        return map(ProfileEvent, *self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventView):
            return self._columns() == other._columns()
        if not isinstance(other, list):
            return NotImplemented
        return list(zip(*self._columns())) == other

    def __repr__(self) -> str:
        return repr(list(self))


class ProfileSink:
    """Row collector that settles rows into columns as the clock passes.

    ``append`` adds a row to the tail. ``settle(now)`` is the engine's
    promise that no row appended after it is earlier than ``now``. Once
    the tail has gained ``_SETTLE_ROWS`` rows since it was last settled,
    the call sorts the tail in place by time and moves every row before
    ``now`` into the columns. Those rows are strictly earlier than every
    row still to come, and each sort is stable, so the columns end as the
    stable sort of every row by time: ties stay in append order. A row
    earlier than the latest time a settle sorted the tail at breaks the
    promise; the next sort, in ``settle`` or ``events``, raises
    ``ValueError`` rather than write a mis-sorted log.

    ``events`` is the closing step: it settles every row and hands the
    columns over in an :class:`EventView`, so a finished run holds each
    event once.

    It takes no lock: only the engine's own thread appends (the local
    backend runs no other thread).
    """

    def __init__(self) -> None:
        self._columns: tuple[list, ...] = ([], [], [], [], [])
        self._tail: list[Row] = []
        # The latest time a settle sorted the tail at: every row in the
        # columns is earlier, and no row may be appended earlier.
        self._settled = -math.inf
        # The tail length at which the next settle moves rows.
        self._due = _SETTLE_ROWS

    def append(self, row: Row) -> None:
        self._tail.append(row)

    def settle(self, now: float) -> None:
        """Promise that no row appended from here on is earlier than ``now``."""
        if len(self._tail) >= self._due:
            self._move_before(now)

    def _move_before(self, now: float) -> None:
        tail = self._tail
        tail.sort(key=_TIME)
        if tail and tail[0][0] < self._settled:
            raise ValueError(
                f"event {tail[0]!r} is earlier than {self._settled!r}, the "
                "time the sink was promised no later event would precede"
            )
        if now > self._settled:
            self._settled = now
        cut = bisect_left(tail, now, key=_TIME)
        if cut:
            settled = tail[:cut]
            for column, get in zip(self._columns, _FIELDS):
                column.extend(map(get, settled))
            del settled, tail[:cut]
        self._due = len(tail) + _SETTLE_ROWS

    def events(self) -> EventView:
        """Settle every row and hand the columns over: the closing step,
        after which the engine appends nothing."""
        self._move_before(math.inf)
        return EventView(*self._columns)

    def __len__(self) -> int:
        return len(self._columns[0]) + len(self._tail)


class _CsvFields(dict):
    """Each distinct string's field as ``csv.writer``'s default dialect
    writes it, made the first time the string is looked up."""

    def __init__(self) -> None:
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer)

    def __missing__(self, text: str) -> str:
        field = text
        if not _BARE_FIELD(text):
            self._buffer.seek(0)
            self._buffer.truncate()
            self._writer.writerow((text, ""))
            quoted = self._buffer.getvalue()[: -len(",\r\n")]
            if quoted != text:
                field = quoted  # else keep one copy of the string
        self[text] = field
        return field


@dataclass
class EventLog:
    """Finished run: the ordered events plus run-level context.

    ``events`` reads as a sequence of ``ProfileEvent``, each built on access
    from the view's columns.
    """

    events: EventView
    pilot_cores: int
    backend: str
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def by_name(self, name: str) -> list[ProfileEvent]:
        return list(compress(self.events, map(name.__eq__, self.events.names)))

    def write_csv(self, path: str | Path) -> None:
        """Three-column export: time_s, entity, event.

        Timestamps use repr formatting, so identical runs produce
        byte-identical files. Entity and event names are quoted by
        ``csv.writer``'s default dialect (``QUOTE_MINIMAL``), so the file is
        byte for byte what that writer makes of the same rows.
        """
        fields = _CsvFields()
        events = self.events
        rows = zip(
            events.times,
            map(fields.__getitem__, events.entities),
            map(fields.__getitem__, events.names),
        )
        last_time = stamp = None
        with open(path, "w", newline="") as handle:
            handle.write("time_s,entity,event\r\n")
            while True:
                lines = []
                for time, entity, name in islice(rows, _CSV_CHUNK_ROWS):
                    # Sorted events often share a time object; reuse its repr.
                    # Identity, not equality: 0.0 == -0.0 but their reprs differ.
                    if time is not last_time:
                        last_time = time
                        stamp = repr(time)
                    lines.append(f"{stamp},{entity},{name}\r\n")
                if not lines:
                    break
                handle.write("".join(lines))
