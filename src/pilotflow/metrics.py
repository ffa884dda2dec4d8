"""Turn event logs into the run-level quantities the benchmark reports.

Definitions, all in seconds:

  queue time        time from pilot submission to pilot activation; the
                    share of the run spent waiting on the machine.
  completion time   time from pilot submission to the last task reaching a
                    terminal state.
  execution time    completion time minus queue time: what the run cost
                    once resources were up. Weak scaling asks this to stay
                    flat as workload and cores grow together.
  engine overhead   total time spent translating tasks into unit
                    descriptions (workflow manager side).
  runtime overhead  total time spent pulling unit descriptions from the
                    store plus the agent's intake of each pulled unit
                    (pilot agent side): a filesystem read in the
                    simulator, the offer to the scheduler in the local
                    backend, which parses no JSON here. Placement
                    decisions are counted as instantaneous.

A run's status is DONE when no terminal event is ``failed`` or
``canceled``, and FAILED otherwise; this is the only place it is decided.
Both engines cancel every unfinished task when they close the log, so each
task has exactly one terminal event, and a run is DONE exactly when every
pipeline finished its last stage.

Per-stage execution time reports, for each stage position, the widest
window from first input-staging start to last completion across pipelines,
plus the mean across pipelines.

Interval sums pair each ``*_begin`` with its ``*_end`` per entity; a log
with mismatched pairs is rejected loudly rather than silently mis-summed.
The report reads the log's columns, not rows, and knows each event by its
code in the fixed vocabulary (:data:`pilotflow.profiling.EVENT_NAMES`),
where the interval codes come first and the terminal ones right after them.
One pass over the name codes files each row up to ``canceled`` in its
code's own ``array('I')``: four bytes a row, and no object. Each interval
kind is then reduced on its own: its two dicts from entity id to the
running sum of its times are built from its rows' entity codes and times,
checked and summed, and dropped before the next kind's are built, so the
working set holds one kind's sums, not every kind's. The keys are the
strings of the log's entity table, not new objects, and two entities that
share an id (a task named like a unit) share a sum. An entity's first time
is stored as it is and later ones add to it left to right, in log order;
only an entity seen more than once under a name gets a count, in a small
side dict (in the engines' logs, only the pilot's ``pull``). The
per-entity differences are then added in sorted entity order, starting
from 0.0, which erases the sign of a zero, the one thing a first time
stored as it is rather than as ``0 + time`` can change; kinds keyed on the
same entities, as every task-keyed kind is, share one sort. The order is
written out rather than left to ``sum()``, which is compensated from Python
3.12 on, so trials.csv is byte-identical on Python 3.10 through 3.13. The
terminal events' entities, pipelines and times are gathered from their
filed rows at C speed, and the stage windows are read from the filed rows,
each row's pipeline and stage from its entity's entry in the table; both
are kept as the few fields the report uses, not as rows.
"""

from __future__ import annotations

import csv
import statistics
from array import array
from collections.abc import Callable, Iterator, Sequence
from dataclasses import astuple, dataclass, fields
from functools import reduce
from itertools import chain
from operator import add, gt, itemgetter, lt, sub
from pathlib import Path

from .profiling import (
    CANCELED,
    DONE,
    EVENT_NAMES,
    FAILED,
    INTERVAL_STEMS,
    PILOT_ACTIVE,
    STAGE_IN_BEGIN,
    SUBMIT,
    EventLog,
    EventView,
)


class MalformedProfileError(Exception):
    """The event log cannot be interpreted as a complete run."""


@dataclass(frozen=True)
class RunReport:
    trial_id: str
    pipelines: int
    tasks: int
    cores: int
    tq_s: float
    ttc_s: float
    ttx_s: float
    engine_overhead_s: float
    runtime_overhead_s: float
    pull_overhead_s: float
    unit_io_overhead_s: float
    per_stage_ttx_max: dict[int, float]
    per_stage_ttx_mean: dict[int, float]
    done_tasks: int
    failed_tasks: int
    canceled_tasks: int
    status: str
    workload: str = ""
    backend: str = ""
    seed: int | None = None


# One interval event name's times: entity -> running sum, and entity -> count
# for the entities seen more than once (any other entity's count is 1).
_Side = tuple[dict[str, float], dict[str, int]]

# Log rows the report gathers per C call as it reads an interval kind's
# entity ids and times: enough to amortize the call, few enough that the
# gathered tuples stay in cache and add next to nothing to the report's
# peak (whole kinds at once run slower and hold 0.7 MB more on sim_deep).
_GATHER_ROWS = 256


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function that gathers a sequence's items at ``indices``, in order,
    into a tuple in one C call."""
    if len(indices) < 2:  # itemgetter of one index returns the bare item
        return lambda sequence: tuple(map(sequence.__getitem__, indices))
    return itemgetter(*indices)


def _ids_and_times(
    events: EventView, rows: array
) -> Iterator[tuple[tuple[str, ...], tuple[float, ...]]]:
    """The entity ids and the times of the log rows ``rows``, in order, as
    pairs of tuples of at most ``_GATHER_ROWS`` rows."""
    ids, codes, times = events.entities.ids, events.codes, events.times
    for start in range(0, len(rows), _GATHER_ROWS):
        at_rows = _gather(rows[start : start + _GATHER_ROWS])
        yield _gather(at_rows(codes))(ids), at_rows(times)


def _side(events: EventView, rows: array) -> _Side:
    """Running sums of one interval event name's times, per entity id, over
    the log rows ``rows``.

    The keys are the entity table's own id strings and an entity's first
    time is stored as the row's own float, so most entities cost a dict
    slot and no new object; later times add left to right, in log order.
    """
    totals: dict[str, float] = {}
    for ids, times in _ids_and_times(events, rows):
        totals.update(zip(ids, times))
    if len(totals) == len(rows):
        return totals, {}
    # Some entity has several times: add them up in log order.
    totals = {}
    repeats: dict[str, int] = {}
    for ids, times in _ids_and_times(events, rows):
        for entity, time in zip(ids, times):
            total = totals.get(entity)
            if total is None:
                totals[entity] = time
            else:
                totals[entity] = total + time
                repeats[entity] = repeats.get(entity, 1) + 1
    return totals, repeats


def _interval_sum(
    stem: str, opened: _Side, closed: _Side, order: list[str]
) -> tuple[float, list[str]]:
    """Sum of end minus begin over all pairs of one interval kind, and the
    kind's entities in sorted order.

    ``opened`` holds the ``*_begin`` times, ``closed`` the ``*_end`` ones.
    The sum is invariant to how same-entity pairs interleave, so equal
    begin/end counts per entity are all that is checked. ``order`` is the
    previous kind's sorted entities, reused when this kind has the same
    ones, as every kind keyed on tasks does.
    """
    opened_sum, opened_repeats = opened
    closed_sum, closed_repeats = closed
    if opened_sum.keys() != closed_sum.keys() or opened_repeats != closed_repeats:
        for entity in sorted(opened_sum.keys() | closed_sum.keys()):
            begins = opened_repeats.get(entity, 1) if entity in opened_sum else 0
            ends = closed_repeats.get(entity, 1) if entity in closed_sum else 0
            if begins != ends:
                raise MalformedProfileError(
                    f"entity {entity!r}: {begins} {stem}_begin events "
                    f"but {ends} {stem}_end events"
                )
    same = len(order) == len(opened_sum) and all(map(opened_sum.__contains__, order))
    if not same:
        order = sorted(opened_sum)
    ends = map(closed_sum.__getitem__, order)
    begins = map(opened_sum.__getitem__, order)
    # 0.0 + d1 + d2 + ..., rounded at each step, as a loop would add them.
    return reduce(add, map(sub, ends, begins), 0.0), order


def _file_rows(names: bytearray) -> dict[int, array]:
    """The row indices of each code up to ``CANCELED``, in log order, from
    one pass over the name codes: the interval kinds' rows and the terminal
    rows, whose ``done`` rows also end the stage windows ``stage_in_begin``
    rows open."""
    rows_of = {code: array("I") for code in range(CANCELED + 1)}
    file = [rows.append for rows in rows_of.values()]
    for index, code in enumerate(names):
        if code <= CANCELED:
            file[code](index)
    return rows_of


def _interval_sums(events: EventView, rows_of: dict[int, array]) -> dict[str, float]:
    """Each interval kind's sum, checked and reduced in ``INTERVAL_STEMS``
    order, from the rows :func:`_file_rows` filed.

    Each kind's running sums are built from its rows and reduced before the
    next kind's are, so one kind's dicts are alive at a time, and each
    kind's rows are dropped from ``rows_of`` once read.
    """
    sums: dict[str, float] = {}
    order: list[str] = []
    for kind, stem in enumerate(INTERVAL_STEMS):
        opened = _side(events, rows_of.pop(2 * kind))
        closed = _side(events, rows_of.pop(2 * kind + 1))
        sums[stem], order = _interval_sum(stem, opened, closed, order)
    return sums


def _first_time(events: EventView, code: int) -> float:
    try:
        return events.times[events.names.index(code)]
    except ValueError:
        name = EVENT_NAMES[code]
        raise MalformedProfileError(f"log has no {name!r} event") from None


def _stage_times(
    events: EventView, rows: array, later: Callable[[float, float], bool]
) -> dict[int, dict[int, float]]:
    """Per stage, per pipeline code: the time that ``later`` prefers among
    the log rows ``rows`` whose entity has a stage and a pipeline (code 0
    is none)."""
    found: dict[int, dict[int, float]] = {}
    times, codes = events.times, events.codes
    pipelines, stages = events.entities.pipelines, events.entities.stages
    for index in rows:
        code = codes[index]
        stage, pipeline = stages[code], pipelines[code]
        if stage >= 0 and pipeline:
            time = times[index]
            by_pipeline = found.get(stage)
            if by_pipeline is None:
                found[stage] = {pipeline: time}
            elif pipeline not in by_pipeline or later(time, by_pipeline[pipeline]):
                by_pipeline[pipeline] = time
    return found


def compute_report(
    log: EventLog, trial_id: str = "", workload: str = ""
) -> RunReport:
    """Reduce one event log to a run report, reading its columns.

    The checks run in a fixed order, so a malformed log always raises the
    same first error: the first ``submit`` and ``pilot_active``, then the
    terminal events in log order, then each interval kind in
    ``INTERVAL_STEMS`` order.
    """
    events = log.events
    submit = _first_time(events, SUBMIT)
    active = _first_time(events, PILOT_ACTIVE)
    if active < submit:
        raise MalformedProfileError("pilot_active precedes submit")

    rows_of = _file_rows(events.names)
    done_rows, failed_rows, canceled_rows = map(rows_of.pop, (DONE, FAILED, CANCELED))
    done, failed, canceled = map(len, (done_rows, failed_rows, canceled_rows))
    tasks = done + failed + canceled
    if not tasks:
        raise MalformedProfileError("log has no terminal task events")
    ended = done_rows
    if failed or canceled:  # the terminal rows, in log order
        ended = array("I", sorted(chain(done_rows, failed_rows, canceled_rows)))
    table = events.entities
    # The terminal events' entity codes, four bytes each.
    codes = array("I", map(events.codes.__getitem__, ended))
    if len(set(map(table.ids.__getitem__, codes))) < tasks:
        seen: set[str] = set()
        for entity in map(table.ids.__getitem__, codes):
            if entity in seen:
                raise MalformedProfileError(
                    f"task {entity!r} has more than one terminal event"
                )
            seen.add(entity)
    pipelines = set(map(table.pipelines.__getitem__, codes))
    pipelines.discard(0)  # the pilot's code
    # In log order: max() keeps the first of equal times.
    last = max(map(events.times.__getitem__, ended))
    del failed_rows, canceled_rows, ended, codes

    tq = active - submit
    ttc = last - submit
    ttx = ttc - tq

    # Rows that open the stage windows, read after the sums.
    staged_in = rows_of[STAGE_IN_BEGIN]
    # Every interval kind must pair up, including the ones no metric sums.
    sums = _interval_sums(events, rows_of)
    translate = sums["translate"]
    pull = sums["pull"]
    unit_io = sums["unit_io"]

    # Stage windows: first staging start to last completion, per pipeline.
    window_end = _stage_times(events, done_rows, gt)
    window_begin = _stage_times(events, staged_in, lt)
    del staged_in, done_rows
    stage_windows: dict[int, list[float]] = {}
    for stage, begins in window_begin.items():
        ends = window_end.get(stage, {})
        widths = [ends[p] - begin for p, begin in begins.items() if p in ends]
        if widths:
            stage_windows[stage] = widths
    per_stage_max = {
        index + 1: max(widths) for index, widths in sorted(stage_windows.items())
    }
    per_stage_mean = {
        index + 1: statistics.fmean(widths)
        for index, widths in sorted(stage_windows.items())
    }

    return RunReport(
        trial_id=trial_id,
        pipelines=len(pipelines),
        tasks=tasks,
        cores=log.pilot_cores,
        tq_s=tq,
        ttc_s=ttc,
        ttx_s=ttx,
        engine_overhead_s=translate,
        runtime_overhead_s=pull + unit_io,
        pull_overhead_s=pull,
        unit_io_overhead_s=unit_io,
        per_stage_ttx_max=per_stage_max,
        per_stage_ttx_mean=per_stage_mean,
        done_tasks=done,
        failed_tasks=failed,
        canceled_tasks=canceled,
        status="DONE" if failed == canceled == 0 else "FAILED",
        workload=workload,
        backend=log.backend,
        seed=log.seed,
    )


@dataclass(frozen=True)
class AggregateRow:
    """Summary over the trials of one sweep point."""

    pipelines: int
    workload: str
    trials: int
    ttx_mean: float
    ttx_min: float
    ttx_max: float
    ttx_stddev: float
    tq_mean: float
    ttc_mean: float
    engine_overhead_mean: float
    runtime_overhead_mean: float


def aggregate_trials(reports: list[RunReport]) -> list[AggregateRow]:
    """Group reports by (pipeline count, workload) and summarize each group."""
    if not reports:
        raise ValueError("no reports to aggregate")
    groups: dict[tuple[int, str], list[RunReport]] = {}
    for report in reports:
        groups.setdefault((report.pipelines, report.workload), []).append(report)
    rows: list[AggregateRow] = []
    for (pipelines, workload) in sorted(groups):
        members = groups[(pipelines, workload)]
        ttx = [r.ttx_s for r in members]
        rows.append(
            AggregateRow(
                pipelines=pipelines,
                workload=workload,
                trials=len(members),
                ttx_mean=statistics.fmean(ttx),
                ttx_min=min(ttx),
                ttx_max=max(ttx),
                ttx_stddev=statistics.stdev(ttx) if len(ttx) > 1 else 0.0,
                tq_mean=statistics.fmean(r.tq_s for r in members),
                ttc_mean=statistics.fmean(r.ttc_s for r in members),
                engine_overhead_mean=statistics.fmean(
                    r.engine_overhead_s for r in members
                ),
                runtime_overhead_mean=statistics.fmean(
                    r.runtime_overhead_s for r in members
                ),
            )
        )
    return rows


def reports_to_csv(reports: list[RunReport], path: str | Path) -> None:
    """Fixed-order CSV: identity, sizes, headline metrics, stage windows."""
    # csv writes a float as its repr, and a stage a trial lacks (None) as "".
    stages = range(1, max((len(r.per_stage_ttx_max) for r in reports), default=0) + 1)
    columns = [
        "trial_id",
        "pipelines",
        "tasks",
        "cores",
        "tq_s",
        "ttc_s",
        "ttx_s",
        "engine_overhead_s",
        "runtime_overhead_s",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns + [f"per_stage_ttx_s{k}" for k in stages])
        for report in reports:
            writer.writerow(
                [getattr(report, name) for name in columns]
                + [report.per_stage_ttx_max.get(k) for k in stages]
            )


def aggregates_to_csv(rows: list[AggregateRow], path: str | Path) -> None:
    """One column per AggregateRow field, in field order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(field.name for field in fields(AggregateRow))
        writer.writerows(astuple(row) for row in rows)

