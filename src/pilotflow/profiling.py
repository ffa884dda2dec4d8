"""Timestamped event records shared by every backend.

Both engines narrate a run through one fixed event vocabulary,
:data:`EVENT_NAMES`, so the metrics layer never needs to know which backend
produced a log. A name's code is its index there, and each name has a
constant of its own (``DONE`` is ``EVENT_NAMES.index("done")``). Events form
begin/end interval pairs where a duration is meaningful and single points
where it is not; the six interval kinds come first, each as its begin then
its end, in :data:`INTERVAL_STEMS` order.

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

Each entity has a code, and the run keeps one :class:`EntityTable` of
each code's id, pipeline code and stage, laid out once by the run's
tracker: the pilot as code 0, then every task in workflow order, each
followed by its unit (id ``""`` until it is enqueued), so a unit's code is
its task's + 1. A pipeline's code is its index in the table's
``pipeline_ids``, where code 0 is ``""``, the pilot's. Every row of one
entity shares its pipeline and stage, so a row keeps neither: engines
append each event as the plain tuple ``(time, entity code, name code)``.
A finished log keeps no rows: :class:`ProfileSink` moves them into three
parallel columns, as they are, with no lookup. ``times`` is a list of the
engine's own float objects, entity codes sit in an ``array('I')`` and name
codes in a ``bytearray``. A log therefore costs one list slot and five
bytes per event, plus the floats the engine made and one table entry per
entity, and none of what it holds is tracked by CPython's cyclic
collector, so no collection walks it.
:class:`EventView` is how callers read a log: it builds a ``ProfileEvent``
for each event it hands out, decoding the name through ``EVENT_NAMES`` and
the entity through the table.

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
import struct
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

# The event vocabulary: a name's code is its index. The interval kinds
# come first, each as its begin then its end, and the terminal names right
# after them: compute_report files the rows of every code up to CANCELED.
EVENT_NAMES = (
    "translate_begin", "translate_end", "pull_begin", "pull_end",
    "unit_io_begin", "unit_io_end", "stage_in_begin", "stage_in_end",
    "exec_begin", "exec_end", "stage_out_begin", "stage_out_end",
    "done", "failed", "canceled",
    "submit", "pilot_active", "pilot_done", "enqueue", "schedule",
)
(
    TRANSLATE_BEGIN, TRANSLATE_END, PULL_BEGIN, PULL_END,
    UNIT_IO_BEGIN, UNIT_IO_END, STAGE_IN_BEGIN, STAGE_IN_END,
    EXEC_BEGIN, EXEC_END, STAGE_OUT_BEGIN, STAGE_OUT_END,
    DONE, FAILED, CANCELED,
    SUBMIT, PILOT_ACTIVE, PILOT_DONE, ENQUEUE, SCHEDULE,
) = range(len(EVENT_NAMES))
# Interval kinds, in the order the vocabulary lists them: kind k opens
# with code 2k and closes with code 2k + 1.
INTERVAL_STEMS = tuple(name[: -len("_begin")] for name in EVENT_NAMES[:DONE:2])

# Rows per write in EventLog.write_csv: large enough to amortize the write
# call, small enough that the file is never held in memory whole.
_CSV_CHUNK_ROWS = 4096
# A string csv.writer's default dialect writes as it is, unquoted.
_BARE_FIELD = re.compile(r"[A-Za-z0-9_.:-]+").fullmatch
# Each name code's end of a CSV line: every event name is a bare field.
_CSV_ENDS = [f",{name}\r\n" for name in EVENT_NAMES]

# Rows a sink's tail gains before a settle sorts it and moves its settled
# part into the columns: large enough that the sort and the column extends
# run at C speed, small enough that the tuples waiting in the tail stay a
# sliver of the log.
_SETTLE_ROWS = 4096

_TIME, _CODE, _NAME = map(itemgetter, range(3))


class ProfileEvent(NamedTuple):
    """One timestamped occurrence attributed to an entity.

    ``pipeline`` and ``stage`` carry attribution for per-stage metrics; they
    are empty for pilot-level events. Logs store the time, the entity's code
    and the name's code per event, the entity's id, pipeline and stage once
    in the run's :class:`EntityTable`, and build this record only when a
    caller reads one.
    """

    time: float
    entity: str
    name: str
    pipeline: str = ""
    stage: int = -1


# One appended event: (time, entity code, name code).
Row = tuple[float, int, int]


def _extend_ints(column: array, ints: Iterable[int]) -> None:
    """Append ints to an array in one C call: ``array.extend`` of an
    iterator converts item by item, several times slower."""
    ints = tuple(ints)
    column.frombytes(struct.pack(f"{len(ints)}{column.typecode}", *ints))


class EntityTable:
    """Each entity's id, pipeline code and stage, indexed by its code.

    ``ids`` is a list of the entities' id strings, ``pipelines`` an
    ``array('I')`` of codes into ``pipeline_ids`` (whose code 0 is ``""``)
    and ``stages`` an ``array('i')``. Codes are given in the order entities
    are added. Two entities may share an id, as a task and a unit named
    alike do; each keeps its own code, pipeline and stage.
    """

    __slots__ = ("ids", "pipelines", "stages", "pipeline_ids")

    def __init__(self, pipeline_ids: list[str]) -> None:
        self.ids: list[str] = []
        self.pipelines = array("I")
        self.stages = array("i")
        self.pipeline_ids = pipeline_ids

    def add(self, entity: str, pipeline: int, stage: int) -> int:
        """Give ``entity`` the next code, with its pipeline code and stage;
        returns the code."""
        self.ids.append(entity)
        self.pipelines.append(pipeline)
        self.stages.append(stage)
        return len(self.ids) - 1

    def __len__(self) -> int:
        return len(self.ids)


class EventView(Sequence[ProfileEvent]):
    """Read-only sequence of ``ProfileEvent`` over three columns and the
    entity table they code into.

    With ``c = codes[i]`` and ``table = entities``, event ``i`` is
    ``(times[i], table.ids[c], EVENT_NAMES[names[i]],
    table.pipeline_ids[table.pipelines[c]], table.stages[c])``, built when it
    is read and not kept, so iterating over a log or taking its length never
    holds a second copy of it. ``codes`` is an ``array('I')`` of entity
    codes and ``names`` a ``bytearray`` of name codes. A view starts empty
    and grows by :meth:`extend`. Two views, or a view and a list of events,
    are equal when their events are. The metrics and the CSV writer read the
    columns and the table directly.
    """

    __slots__ = ("times", "codes", "names", "entities")

    def __init__(self, entities: EntityTable) -> None:
        self.times: list[float] = []
        self.codes = array("I")
        self.names = bytearray()
        self.entities = entities

    def extend(self, rows: Sequence[Row]) -> None:
        """Append coded rows, in the order given, to the columns."""
        self.names.extend(map(_NAME, rows))
        _extend_ints(self.codes, map(_CODE, rows))
        self.times.extend(map(_TIME, rows))

    def _decode(self, times, codes, names):
        table = self.entities
        entities = map(table.ids.__getitem__, codes)
        names = map(EVENT_NAMES.__getitem__, names)
        pipelines = map(table.pipelines.__getitem__, codes)
        pipelines = map(table.pipeline_ids.__getitem__, pipelines)
        stages = map(table.stages.__getitem__, codes)
        return map(ProfileEvent, times, entities, names, pipelines, stages)

    def _columns(self) -> tuple[Sequence, ...]:
        return (self.times, self.codes, self.names)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._decode(*[column[index] for column in self._columns()]))
        [event] = self._decode(*[[column[index]] for column in self._columns()])
        return event

    def __iter__(self):
        return self._decode(*self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventView):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


class ProfileSink:
    """Row collector that settles rows into columns as the clock passes.

    ``append`` adds a row to the tail. ``settle(now)`` is the engine's
    promise that no row appended after it is earlier than ``now``. Once
    the tail has gained ``_SETTLE_ROWS`` rows since it was last settled,
    the call sorts the tail in place by time and moves every row before
    ``now`` into the columns, as they are: the engines write codes, so
    settling looks nothing up. Those rows are strictly earlier than every
    row still to come, and each sort is stable, so the columns end as the
    stable sort of every row by time: ties stay in append order. A row
    earlier than the latest time a settle sorted the tail at breaks the
    promise; the next sort, in ``settle`` or ``events``, raises
    ``ValueError`` rather than write a mis-sorted log.

    ``entities`` is the run's entity table, which the rows' entity codes
    index. ``events`` is the closing step: it settles every row and hands
    the columns over in an :class:`EventView`, so a finished run holds each
    event once.

    It takes no lock: only the engine's own thread appends (the local
    backend runs no other thread).
    """

    def __init__(self, entities: EntityTable) -> None:
        self._columns = EventView(entities)
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
            self._columns.extend(tail[:cut])
            del tail[:cut]
        self._due = len(tail) + _SETTLE_ROWS

    def events(self) -> EventView:
        """Settle every row and hand the columns over: the closing step,
        after which the engine appends nothing."""
        self._move_before(math.inf)
        return self._columns

    def __len__(self) -> int:
        return len(self._columns) + len(self._tail)


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

    def write_csv(self, path: str | Path) -> None:
        """Three-column export: time_s, entity, event.

        Timestamps use repr formatting, so identical runs produce
        byte-identical files. Entities are quoted by ``csv.writer``'s
        default dialect (``QUOTE_MINIMAL``), and no event name needs
        quoting, so the file is byte for byte what that writer makes of
        the same rows.
        """
        events = self.events
        # Each entity's field, made once per entity rather than per row.
        fields = list(map(_CsvFields().__getitem__, events.entities.ids))
        rows = zip(events.times, map(fields.__getitem__, events.codes), events.names)
        last_time = stamp = None
        with open(path, "w", newline="") as handle:
            handle.write("time_s,entity,event\r\n")
            while True:
                lines = []
                for time, entity, code in islice(rows, _CSV_CHUNK_ROWS):
                    # Sorted events often share a time object; reuse its repr.
                    # Identity, not equality: 0.0 == -0.0 but their reprs differ.
                    if time is not last_time:
                        last_time = time
                        stamp = repr(time)
                    lines.append(f"{stamp},{entity}{_CSV_ENDS[code]}")
                if not lines:
                    break
                handle.write("".join(lines))
