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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from operator import attrgetter
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
    are empty for pilot-level events.
    """

    time: float
    entity: str
    name: str
    pipeline: str = ""
    stage: int = -1


class ProfileSink:
    """Append-only event collector.

    It takes no lock: only the engine's own thread appends (the local
    backend's workers hand their results back through a queue), and
    ``list.append`` is atomic in any case.
    """

    def __init__(self) -> None:
        self._events: list[ProfileEvent] = []

    def append(self, event: ProfileEvent) -> None:
        self._events.append(event)

    def events(self) -> list[ProfileEvent]:
        """Events ordered by time, ties broken by append order (the sort is
        stable)."""
        return sorted(self._events, key=attrgetter("time"))

    def __len__(self) -> int:
        return len(self._events)


@dataclass
class EventLog:
    """Finished run: the ordered event list plus run-level context."""

    events: list[ProfileEvent]
    pilot_id: str
    pilot_cores: int
    backend: str
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def by_name(self, name: str) -> list[ProfileEvent]:
        return [e for e in self.events if e.name == name]

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

        events = self.events
        last_time = stamp = None
        with open(path, "w", newline="") as handle:
            handle.write("time_s,entity,event\r\n")
            for start in range(0, len(events), _CSV_CHUNK_ROWS):
                lines = []
                chunk = events[start : start + _CSV_CHUNK_ROWS]
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
