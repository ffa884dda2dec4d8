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
The pass keeps, per interval name and entity, a running sum of the times
and their count, not the times themselves. Each running sum adds left to
right in log order, starting from 0, and the per-entity differences are
then added in sorted entity order. The order is written out rather than
left to ``sum()``, which is compensated from Python 3.12 on, so trials.csv
is byte-identical on Python 3.10 through 3.13.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .profiling import INTERVAL_STEMS, EventLog, Row

TERMINAL_EVENTS = ("done", "failed", "canceled")


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


# One interval event name's times: entity -> running sum, entity -> count.
_Side = tuple[dict[str, float], dict[str, int]]


def _interval_sum(stem: str, opened: _Side, closed: _Side) -> float:
    """Sum of end minus begin over all pairs of one interval kind.

    ``opened`` holds the ``*_begin`` times, ``closed`` the ``*_end`` ones.
    The sum is invariant to how same-entity pairs interleave, so equal
    begin/end counts per entity are all that is checked.
    """
    opened_sum, opened_count = opened
    closed_sum, closed_count = closed
    if opened_count != closed_count:
        for entity in sorted(opened_count.keys() | closed_count.keys()):
            begins = opened_count.get(entity, 0)
            ends = closed_count.get(entity, 0)
            if begins != ends:
                raise MalformedProfileError(
                    f"entity {entity!r}: {begins} {stem}_begin events "
                    f"but {ends} {stem}_end events"
                )
    total = 0.0
    for entity in sorted(opened_count):
        total += closed_sum[entity] - opened_sum[entity]
    return total


def _first_time(first: dict[str, float], name: str) -> float:
    if name not in first:
        raise MalformedProfileError(f"log has no {name!r} event")
    return first[name]


def compute_report(
    log: EventLog, trial_id: str = "", workload: str = ""
) -> RunReport:
    """Reduce one event log to a run report in one pass over its events.

    The pass sums interval times per name and entity, collects terminal
    events and stage windows, and notes the first ``submit`` and
    ``pilot_active``; the checks then run in a fixed order, so a malformed
    log always raises the same first error.
    """
    first: dict[str, float] = {}
    terminal: list[Row] = []
    # Running sums, not lists of times: floats and ints are not tracked by
    # the cyclic GC, so these dicts add no GC work however many entities a
    # log has.
    sides: dict[str, _Side] = {
        f"{stem}_{side}": ({}, {})
        for stem in INTERVAL_STEMS
        for side in ("begin", "end")
    }
    # Stage windows: first staging start to last completion, per pipeline.
    window_begin: dict[tuple[str, int], float] = {}
    window_end: dict[tuple[str, int], float] = {}
    for row in log.events.rows:
        time, entity, name, pipeline, stage = row
        side = sides.get(name)
        if side is not None:
            totals, counts = side
            # Seeded with the int 0, so the first sum is the time itself and
            # later times add left to right, in log order.
            totals[entity] = totals.get(entity, 0) + time
            counts[entity] = counts.get(entity, 0) + 1
            if name == "stage_in_begin" and stage >= 0 and pipeline:
                key = (pipeline, stage)
                if key not in window_begin or time < window_begin[key]:
                    window_begin[key] = time
        elif name in TERMINAL_EVENTS:
            terminal.append(row)
            if name == "done" and stage >= 0 and pipeline:
                key = (pipeline, stage)
                if key not in window_end or time > window_end[key]:
                    window_end[key] = time
        elif (name == "submit" or name == "pilot_active") and name not in first:
            first[name] = time

    submit = _first_time(first, "submit")
    active = _first_time(first, "pilot_active")
    if active < submit:
        raise MalformedProfileError("pilot_active precedes submit")

    if not terminal:
        raise MalformedProfileError("log has no terminal task events")
    seen: set[str] = set()
    for _, entity, _, _, _ in terminal:
        if entity in seen:
            raise MalformedProfileError(
                f"task {entity!r} has more than one terminal event"
            )
        seen.add(entity)

    tq = active - submit
    ttc = max(row[0] for row in terminal) - submit
    ttx = ttc - tq

    # Every interval kind must pair up, including the ones no metric sums.
    sums = {
        stem: _interval_sum(stem, sides[f"{stem}_begin"], sides[f"{stem}_end"])
        for stem in INTERVAL_STEMS
    }
    translate = sums["translate"]
    pull = sums["pull"]
    unit_io = sums["unit_io"]

    stage_windows: dict[int, list[float]] = {}
    for key, begin in window_begin.items():
        if key in window_end:
            stage_windows.setdefault(key[1], []).append(window_end[key] - begin)
    per_stage_max = {
        index + 1: max(widths) for index, widths in sorted(stage_windows.items())
    }
    per_stage_mean = {
        index + 1: statistics.fmean(widths)
        for index, widths in sorted(stage_windows.items())
    }

    done = sum(1 for row in terminal if row[2] == "done")
    failed = sum(1 for row in terminal if row[2] == "failed")
    canceled = sum(1 for row in terminal if row[2] == "canceled")
    pipelines = len({row[3] for row in terminal if row[3]})

    return RunReport(
        trial_id=trial_id,
        pipelines=pipelines,
        tasks=len(terminal),
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

