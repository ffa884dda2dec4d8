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

Engines store each event as a plain row, the exact tuple ``(time, entity,
name, pipeline, stage)``, never as a :class:`ProfileEvent`. CPython's cyclic
collector stops tracking an exact tuple that holds only numbers and strings,
but it never untracks an instance of a tuple subclass such as a NamedTuple,
so a log of ``ProfileEvent`` objects would be traversed by every full
collection for as long as it lives. :class:`EventView` is how callers read a
log: it builds a ``ProfileEvent`` for each row it hands out.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, field
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


class ProfileEvent(NamedTuple):
    """One timestamped occurrence attributed to an entity.

    ``pipeline`` and ``stage`` carry attribution for per-stage metrics; they
    are empty for pilot-level events. Logs store the same five fields as a
    plain tuple row and build this record only when a caller reads one.
    """

    time: float
    entity: str
    name: str
    pipeline: str = ""
    stage: int = -1


# One stored event: (time, entity, name, pipeline, stage).
Row = tuple[float, str, str, str, int]


class EventView(Sequence[ProfileEvent]):
    """Read-only sequence of ``ProfileEvent`` over a list of rows.

    Each event is built when it is read and is not kept, so iterating over
    a log or taking its length never holds a second copy of it. Two views,
    or a view and a list, are equal when their rows are; ``rows`` is the
    list itself, which the metrics and the CSV writer read directly.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[Row]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(ProfileEvent._make, self.rows[index]))
        return ProfileEvent._make(self.rows[index])

    def __iter__(self):
        return map(ProfileEvent._make, self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventView):
            other = other.rows
        elif not isinstance(other, list):
            return NotImplemented
        return self.rows == other

    def __repr__(self) -> str:
        return repr(list(self))


class ProfileSink:
    """Append-only row collector.

    Rows are plain tuples, not ``ProfileEvent`` instances, so that the
    cyclic collector stops tracking them (it never untracks a tuple
    subclass). ``events`` is the closing step: it sorts the sink's own list
    and hands it over in an :class:`EventView` that builds a
    ``ProfileEvent`` for each row a caller reads, so a finished run holds
    its rows once.

    It takes no lock: only the engine's own thread appends (the local
    backend's workers hand their results back through a queue), and
    ``list.append`` is atomic in any case.
    """

    def __init__(self) -> None:
        self._rows: list[Row] = []

    def append(self, row: Row) -> None:
        self._rows.append(row)

    def events(self) -> EventView:
        """Sort the rows in place by time, ties in append order (the sort is
        stable), and hand the sink's list over: the closing step, after
        which the engine appends nothing."""
        self._rows.sort(key=itemgetter(0))
        return EventView(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class EventLog:
    """Finished run: the ordered events plus run-level context.

    ``events`` reads as a sequence of ``ProfileEvent``, each built on access
    from the view's plain-tuple rows.
    """

    events: EventView
    pilot_cores: int
    backend: str
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def by_name(self, name: str) -> list[ProfileEvent]:
        make = ProfileEvent._make
        return [make(row) for row in self.events.rows if row[2] == name]

    def write_csv(self, path: str | Path) -> None:
        """Three-column export: time_s, entity, event.

        Timestamps use repr formatting, so identical runs produce
        byte-identical files. Entity and event names are quoted by
        ``csv.writer``'s default dialect (``QUOTE_MINIMAL``), so the file is
        byte for byte what that writer makes of the same rows.
        """
        buffer = io.StringIO()
        quoter = csv.writer(buffer)
        quoted: dict[str, str] = {}

        def quote(text: str) -> str:
            # Quote each distinct string once, through csv.writer itself.
            buffer.seek(0)
            buffer.truncate()
            quoter.writerow((text, ""))
            field = buffer.getvalue()[: -len(",\r\n")]
            if field == text:
                field = text  # keep one copy of a string that needs no quotes
            quoted[text] = field
            return field

        rows = self.events.rows
        last_time = stamp = None
        with open(path, "w", newline="") as handle:
            handle.write("time_s,entity,event\r\n")
            for start in range(0, len(rows), _CSV_CHUNK_ROWS):
                lines = []
                chunk = rows[start : start + _CSV_CHUNK_ROWS]
                for time, entity, name, _, _ in chunk:
                    # Sorted events often share a time object; reuse its repr.
                    # Identity, not equality: 0.0 == -0.0 but their reprs differ.
                    if time is not last_time:
                        last_time = time
                        stamp = repr(time)
                    entity_field = quoted.get(entity)
                    if entity_field is None:
                        entity_field = quote(entity)
                    name_field = quoted.get(name)
                    if name_field is None:
                        name_field = quote(name)
                    lines.append(f"{stamp},{entity_field},{name_field}\r\n")
                handle.write("".join(lines))
