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
                    store plus reading/writing them on the filesystem
                    (pilot agent side). Placement decisions are counted as
                    instantaneous.

Per-stage execution time reports, for each stage position, the widest
window from first input-staging start to last completion across pipelines,
plus the mean across pipelines.

Interval sums pair each ``*_begin`` with its ``*_end`` per entity; a log
with mismatched pairs is rejected loudly rather than silently mis-summed.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from .profiling import INTERVAL_STEMS, EventLog, ProfileEvent

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
    translate_overhead_s: float
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

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "pipelines": self.pipelines,
            "tasks": self.tasks,
            "cores": self.cores,
            "tq_s": self.tq_s,
            "ttc_s": self.ttc_s,
            "ttx_s": self.ttx_s,
            "engine_overhead_s": self.engine_overhead_s,
            "runtime_overhead_s": self.runtime_overhead_s,
            "translate_overhead_s": self.translate_overhead_s,
            "pull_overhead_s": self.pull_overhead_s,
            "unit_io_overhead_s": self.unit_io_overhead_s,
            "per_stage_ttx_max": {str(k): v for k, v in self.per_stage_ttx_max.items()},
            "per_stage_ttx_mean": {
                str(k): v for k, v in self.per_stage_ttx_mean.items()
            },
            "done_tasks": self.done_tasks,
            "failed_tasks": self.failed_tasks,
            "canceled_tasks": self.canceled_tasks,
            "status": self.status,
            "workload": self.workload,
            "backend": self.backend,
            "seed": self.seed,
        }


# Interval event name -> (stem, side): side 0 holds begins, side 1 ends.
_INTERVAL_SIDES = {
    f"{stem}_{side}": (stem, index)
    for stem in INTERVAL_STEMS
    for index, side in enumerate(("begin", "end"))
}

# Entity -> (begin times, end times) of one interval kind, in log order.
_Pairs = dict[str, tuple[list[float], list[float]]]


def _interval_sum(stem: str, pairs: _Pairs) -> float:
    """Sum of end minus begin over all pairs of one interval kind.

    The sum is invariant to how same-entity pairs interleave, so equal
    begin/end counts per entity are all that is checked.
    """
    total = 0.0
    for entity in sorted(pairs):
        opened, closed = pairs[entity]
        if len(opened) != len(closed):
            raise MalformedProfileError(
                f"entity {entity!r}: {len(opened)} {stem}_begin events "
                f"but {len(closed)} {stem}_end events"
            )
        total += sum(closed) - sum(opened)
    return total


def _first_time(first: dict[str, float], name: str) -> float:
    if name not in first:
        raise MalformedProfileError(f"log has no {name!r} event")
    return first[name]


def compute_report(
    log: EventLog, trial_id: str = "", workload: str = ""
) -> RunReport:
    """Reduce one event log to a run report in one pass over its events.

    The pass buckets interval times per stem and entity, collects terminal
    events and stage windows, and notes the first ``submit`` and
    ``pilot_active``; the checks then run in a fixed order, so a malformed
    log always raises the same first error.
    """
    first: dict[str, float] = {}
    terminal: list[ProfileEvent] = []
    pairs: dict[str, _Pairs] = {stem: {} for stem in INTERVAL_STEMS}
    # Stage windows: first staging start to last completion, per pipeline.
    window_begin: dict[tuple[str, int], float] = {}
    window_end: dict[tuple[str, int], float] = {}
    for event in log.events:
        name = event.name
        side = _INTERVAL_SIDES.get(name)
        if side is not None:
            stem, index = side
            by_entity = pairs[stem]
            entry = by_entity.get(event.entity)
            if entry is None:
                entry = by_entity[event.entity] = ([], [])
            entry[index].append(event.time)
            if name == "stage_in_begin" and event.stage >= 0 and event.pipeline:
                key = (event.pipeline, event.stage)
                if key not in window_begin or event.time < window_begin[key]:
                    window_begin[key] = event.time
        elif name in TERMINAL_EVENTS:
            terminal.append(event)
            if name == "done" and event.stage >= 0 and event.pipeline:
                key = (event.pipeline, event.stage)
                if key not in window_end or event.time > window_end[key]:
                    window_end[key] = event.time
        elif (name == "submit" or name == "pilot_active") and name not in first:
            first[name] = event.time

    submit = _first_time(first, "submit")
    active = _first_time(first, "pilot_active")
    if active < submit:
        raise MalformedProfileError("pilot_active precedes submit")

    if not terminal:
        raise MalformedProfileError("log has no terminal task events")
    seen: set[str] = set()
    for event in terminal:
        if event.entity in seen:
            raise MalformedProfileError(
                f"task {event.entity!r} has more than one terminal event"
            )
        seen.add(event.entity)

    tq = active - submit
    ttc = max(e.time for e in terminal) - submit
    ttx = ttc - tq

    # Every interval kind must pair up, including the ones no metric sums.
    sums = {stem: _interval_sum(stem, pairs[stem]) for stem in INTERVAL_STEMS}
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

    done = sum(1 for e in terminal if e.name == "done")
    failed = sum(1 for e in terminal if e.name == "failed")
    canceled = sum(1 for e in terminal if e.name == "canceled")
    pipelines = len({e.pipeline for e in terminal if e.pipeline})
    status = log.extras.get("status", "DONE" if failed == canceled == 0 else "FAILED")

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
        translate_overhead_s=translate,
        pull_overhead_s=pull,
        unit_io_overhead_s=unit_io,
        per_stage_ttx_max=per_stage_max,
        per_stage_ttx_mean=per_stage_mean,
        done_tasks=done,
        failed_tasks=failed,
        canceled_tasks=canceled,
        status=status,
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

    def to_dict(self) -> dict:
        return {
            "pipelines": self.pipelines,
            "workload": self.workload,
            "trials": self.trials,
            "ttx_mean": self.ttx_mean,
            "ttx_min": self.ttx_min,
            "ttx_max": self.ttx_max,
            "ttx_stddev": self.ttx_stddev,
            "tq_mean": self.tq_mean,
            "ttc_mean": self.ttc_mean,
            "engine_overhead_mean": self.engine_overhead_mean,
            "runtime_overhead_mean": self.runtime_overhead_mean,
        }


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
    max_stages = max((len(r.per_stage_ttx_max) for r in reports), default=0)
    header = [
        "trial_id",
        "pipelines",
        "tasks",
        "cores",
        "tq_s",
        "ttc_s",
        "ttx_s",
        "engine_overhead_s",
        "runtime_overhead_s",
    ] + [f"per_stage_ttx_s{k}" for k in range(1, max_stages + 1)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for report in reports:
            row = [
                report.trial_id,
                report.pipelines,
                report.tasks,
                report.cores,
                repr(report.tq_s),
                repr(report.ttc_s),
                repr(report.ttx_s),
                repr(report.engine_overhead_s),
                repr(report.runtime_overhead_s),
            ]
            for k in range(1, max_stages + 1):
                value = report.per_stage_ttx_max.get(k)
                row.append("" if value is None else repr(value))
            writer.writerow(row)


def aggregates_to_csv(rows: list[AggregateRow], path: str | Path) -> None:
    header = [
        "pipelines",
        "workload",
        "trials",
        "ttx_mean",
        "ttx_min",
        "ttx_max",
        "ttx_stddev",
        "tq_mean",
        "ttc_mean",
        "engine_overhead_mean",
        "runtime_overhead_mean",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    row.pipelines,
                    row.workload,
                    row.trials,
                    repr(row.ttx_mean),
                    repr(row.ttx_min),
                    repr(row.ttx_max),
                    repr(row.ttx_stddev),
                    repr(row.tq_mean),
                    repr(row.ttc_mean),
                    repr(row.engine_overhead_mean),
                    repr(row.runtime_overhead_mean),
                ]
            )


def reports_to_json(reports: list[RunReport], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    )
