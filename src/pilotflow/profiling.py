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
moves them into five parallel columns. ``times`` and ``entities`` are lists
of the engine's own float and str objects. A name is stored as a one-byte
code and a pipeline id as a four-byte code, each with a table of the
values, in the order they first appeared; a stage is a four-byte signed
int. A log therefore costs two list slots and nine bytes per event, plus
the floats the engine made, and none of what it holds is tracked by
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
import struct
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
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
# part into the columns: large enough that the sort and the column extends
# run at C speed, small enough that the tuples waiting in the tail stay a
# sliver of the log.
_SETTLE_ROWS = 4096

_TIME, _ENTITY, _NAME, _PIPELINE, _STAGE = map(itemgetter, range(5))


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


def _extend_ints(column: array, ints: Iterable[int]) -> None:
    """Append ints to an array in one C call: ``array.extend`` of an
    iterator converts item by item, several times slower."""
    ints = tuple(ints)
    column.frombytes(struct.pack(f"{len(ints)}{column.typecode}", *ints))


class _Table(dict):
    """Value -> code; a value looked up for the first time gets the next
    code, up to ``limit`` distinct values."""

    def __init__(self, kind: str, limit: int) -> None:
        self.values: list[str] = []
        self._kind = kind
        self._limit = limit

    def __missing__(self, value: str) -> int:
        code = len(self.values)
        if code == self._limit:
            raise ValueError(
                f"{self._kind} {value!r} is one too many: a log holds at most "
                f"{self._limit} distinct {self._kind}s"
            )
        self.values.append(value)
        self[value] = code
        return code


class CodedColumn(Sequence[str]):
    """A column of values drawn from a small set, stored as one code per
    row plus a table of the values.

    ``values[codes[i]]`` is row ``i``'s value, and ``code`` maps each value
    to its code; ``values`` lists them in the order they first appeared.
    One-byte codes (``width`` 1) sit in a ``bytearray`` and allow 256
    distinct values; four-byte codes sit in an ``array('I')``. A value
    past the limit raises ``ValueError`` naming it, before any row is
    added.
    """

    __slots__ = ("codes", "code")

    def __init__(self, kind: str, width: int, values: Iterable[str] = ()) -> None:
        self.codes = bytearray() if width == 1 else array("I")
        self.code = _Table(kind, 1 << 8 * width)
        self.extend(values)

    @property
    def values(self) -> list[str]:
        return self.code.values

    def extend(self, values: Iterable[str]) -> None:
        codes = map(self.code.__getitem__, values)
        if isinstance(self.codes, bytearray):
            self.codes.extend(codes)
        else:
            _extend_ints(self.codes, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.values.__getitem__, self.codes[index]))
        return self.values[self.codes[index]]

    def __iter__(self):
        return map(self.values.__getitem__, self.codes)

    def index(self, value: str) -> int:  # type: ignore[override]
        code = self.code.get(value)
        if code is None:
            raise ValueError(f"{value!r} is not in the column")
        return self.codes.index(code)

    def count(self, value: str) -> int:
        code = self.code.get(value)
        return 0 if code is None else self.codes.count(code)


class EventView(Sequence[ProfileEvent]):
    """Read-only sequence of ``ProfileEvent`` over five columns.

    Event ``i`` is ``(times[i], entities[i], names[i], pipelines[i],
    stages[i])``, built when it is read and not kept, so iterating over a
    log or taking its length never holds a second copy of it. ``names``
    and ``pipelines`` are coded columns (:class:`CodedColumn`) and
    ``stages`` is an ``array('i')``; built from plain sequences, a view
    codes them. Two views, or a view and a list of events, are equal when
    their events are. The metrics and the CSV writer read the columns and
    their codes directly.
    """

    __slots__ = ("times", "entities", "names", "pipelines", "stages")

    def __init__(
        self,
        times: list[float],
        entities: list[str],
        names: Sequence[str],
        pipelines: Sequence[str],
        stages: Sequence[int],
    ) -> None:
        self.times = times
        self.entities = entities
        if not isinstance(names, CodedColumn):
            names = CodedColumn("event name", 1, names)
        if not isinstance(pipelines, CodedColumn):
            pipelines = CodedColumn("pipeline", 4, pipelines)
        if not isinstance(stages, array):
            coded = array("i")
            _extend_ints(coded, stages)
            stages = coded
        self.names = names
        self.pipelines = pipelines
        self.stages = stages

    def where(self, *names: str) -> bytearray:
        """A selector over the events, for ``itertools.compress``: 1 where
        the event's name is one of ``names``, 0 elsewhere."""
        table = bytearray(256)
        for name in names:
            code = self.names.code.get(name)
            if code is not None:
                table[code] = 1
        return self.names.codes.translate(table)

    def _columns(self) -> tuple[Sequence, ...]:
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
    ``now`` into the columns, coding its name and pipeline. Those rows are
    strictly earlier than every row still to come, and each sort is
    stable, so the columns end as the stable sort of every row by time:
    ties stay in append order. A row earlier than the latest time a settle
    sorted the tail at breaks the promise; the next sort, in ``settle`` or
    ``events``, raises ``ValueError`` rather than write a mis-sorted log.

    ``events`` is the closing step: it settles every row and hands the
    columns over in an :class:`EventView`, so a finished run holds each
    event once.

    It takes no lock: only the engine's own thread appends (the local
    backend runs no other thread).
    """

    def __init__(self) -> None:
        self._columns = EventView([], [], (), (), ())
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
            columns = self._columns
            # Names first: a name past the table's limit refuses the rows
            # before any column has grown.
            columns.names.extend(map(_NAME, settled))
            columns.pipelines.extend(map(_PIPELINE, settled))
            _extend_ints(columns.stages, map(_STAGE, settled))
            columns.times.extend(map(_TIME, settled))
            columns.entities.extend(map(_ENTITY, settled))
            del settled, tail[:cut]
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

    def by_name(self, name: str) -> list[ProfileEvent]:
        return list(compress(self.events, self.events.where(name)))

    def write_csv(self, path: str | Path) -> None:
        """Three-column export: time_s, entity, event.

        Timestamps use repr formatting, so identical runs produce
        byte-identical files. Entity and event names are quoted by
        ``csv.writer``'s default dialect (``QUOTE_MINIMAL``), so the file is
        byte for byte what that writer makes of the same rows.
        """
        fields = _CsvFields()
        events = self.events
        # Each name code's end of line, made once.
        ends = [f",{fields[name]}\r\n" for name in events.names.values]
        rows = zip(
            events.times,
            map(fields.__getitem__, events.entities),
            events.names.codes,
        )
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
                    lines.append(f"{stamp},{entity}{ends[code]}")
                if not lines:
                    break
                handle.write("".join(lines))
