"""Shared test fixtures that the package itself does not need."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress

from pilotflow.latency import Distribution, LatencyModel
from pilotflow.model import TaskKind, Workflow
from pilotflow.profiling import (
    EVENT_NAMES,
    INTERVAL_STEMS,
    EntityTable,
    EventLog,
    EventView,
    ProfileEvent,
    Row,
)
from pilotflow.protocols import (
    ESMACS_REPLICAS,
    ProtocolConfig,
    esmacs_protocol,
    protocol_to_workflow,
)
from pilotflow.simbackend import SimBackendConfig

_NAME_CODES = {name: code for code, name in enumerate(EVENT_NAMES)}

TERMINAL = ("done", "failed", "canceled")
# A task's own rows in the order it reaches them; its terminal event is last.
_TASK_ROWS = (
    "translate_begin", "translate_end", "schedule",
    "stage_in_begin", "stage_in_end", "exec_begin", "exec_end",
    "stage_out_begin", "stage_out_end",
)
_RANK = {name: rank for rank, name in enumerate(_TASK_ROWS)} | dict.fromkeys(
    TERMINAL, len(_TASK_ROWS)
)
# A unit's rows in the order it reaches them, between two rows of its task.
_UNIT_ROWS = ("enqueue", "unit_io_begin", "unit_io_end")
_BOUNDS = ("translate_end", "schedule")
_UNIT_RANK = {
    name: rank for rank, name in enumerate((_BOUNDS[0], *_UNIT_ROWS, _BOUNDS[1]))
}


def generate_esmacs(
    replicas: int = ESMACS_REPLICAS,
    kind: TaskKind = TaskKind.SIMULATED,
    name: str | None = None,
    time_scale: float = 1.0,
) -> Workflow:
    """Build and expand the built-in esmacs protocol."""
    return protocol_to_workflow(
        esmacs_protocol(kind=kind, time_scale=time_scale),
        replicas=replicas,
        name=name,
    )


def name_code(name: str) -> int:
    """An event name's code; a name outside the vocabulary raises
    ``ValueError`` naming it."""
    try:
        return _NAME_CODES[name]
    except KeyError:
        raise ValueError(f"{name!r} is not an event name") from None


def coded_rows(events: Iterable[ProfileEvent]) -> tuple[list[Row], EntityTable]:
    """The events as the rows an engine writes, in the order given, and the
    entity table their codes index: each entity gets a code as it first
    appears, and each pipeline id a code as it first appears after the
    pilot's ``""``. All rows of one entity share its pipeline and stage: an
    entity given two pipelines or two stages raises ``ValueError`` naming
    it."""
    table = EntityTable([""])
    pipelines = {"": 0}
    codes: dict[str, int] = {}
    rows = []
    for time, entity, name, pipeline, stage in events:
        if pipeline not in pipelines:
            pipelines[pipeline] = len(table.pipeline_ids)
            table.pipeline_ids.append(pipeline)
        if entity not in codes:
            codes[entity] = table.add(entity, pipelines[pipeline], stage)
        code = codes[entity]
        first = (table.pipeline_ids[table.pipelines[code]], table.stages[code])
        if first != (pipeline, stage):
            raise ValueError(
                f"entity {entity!r} has pipeline and stage {first!r} "
                f"and {(pipeline, stage)!r}"
            )
        rows.append((time, code, name_code(name)))
    return rows, table


def event_view(events: Iterable[ProfileEvent]) -> EventView:
    """The events, in the order given, as the columns of a view."""
    rows, table = coded_rows(events)
    view = EventView(table)
    view.extend(rows)
    return view


def by_name(log: EventLog, name: str) -> list[ProfileEvent]:
    """The log's events named ``name``, in log order."""
    code = name_code(name)
    return list(compress(log.events, [named == code for named in log.events.names]))


def expected_ttx(protocol: ProtocolConfig, config: SimBackendConfig) -> float:
    """The simulated ttx of ``protocol`` under ``config``, by arithmetic.

    It holds for constant latencies, no translate cost and no duration
    noise, with the pilot at peak cores and ``bulk`` at least the pipeline
    count, for any number of pipelines. Every pipeline then moves in
    lockstep, and each stage costs one pull, one read of the unit
    description, one fs latency per staging directive and its duration.
    The queue wait comes before ttx starts.
    """
    latencies = (config.queue_wait, config.pull_latency, config.fs_latency)
    assert all(m.distribution is Distribution.CONSTANT for m in latencies)
    assert config.translate_cost == LatencyModel.constant(0.0)
    assert config.duration_noise == LatencyModel.constant(1.0)
    pull, fs = config.pull_latency.value, config.fs_latency.value
    return sum(
        pull + fs + (len(stage.inputs) + len(stage.outputs)) * fs
        + stage.expected_duration
        for stage in protocol.stages
    )


def _out_of_order(events: Iterable[ProfileEvent], rank: dict[str, int]) -> str:
    """The first of ``events`` whose name ``rank`` puts after another's but
    whose time is earlier, as a violation's text; ``""`` when they keep
    their order. Names outside ``rank`` are skipped."""
    own = sorted((rank[e.name], e.time, e.name) for e in events if e.name in rank)
    for (_, early, first), (_, late, then) in zip(own, own[1:]):
        if late < early:
            return f"{then} at {late!r} before {first} at {early!r}"
    return ""


def check_log(log: EventLog, workflow: Workflow) -> list[str]:
    """The invariants ``log`` of a run of ``workflow`` breaks, one line
    each; an empty list for a sound log. Either backend's logs hold them:

    - every task of the workflow has exactly one terminal event;
    - for each entity, every ``*_begin`` has its ``*_end``;
    - a task's own rows keep their order, ``translate_begin`` first and
      the terminal event last (a row the task never reached is skipped);
    - every unit has exactly one ``enqueue``, and its rows keep their order
      between two of its task's: ``translate_end`` ≤ ``enqueue`` ≤
      ``unit_io_begin`` ≤ ``unit_io_end`` ≤ ``schedule`` (a row the run
      never wrote is skipped). A unit's task is found by pipeline, stage and
      order: the k-th unit enqueued in a stage of a pipeline is that
      stage's k-th task, so the check needs no entity codes;
    - in each pipeline, stage k+1's first ``translate_begin`` is not before
      stage k's last ``done``;
    - the cores of the tasks between their ``schedule`` and their terminal
      event (a half-open window) never exceed ``log.pilot_cores``;
    - no event comes after ``pilot_done``.
    """
    violations: list[str] = []
    rows: dict[str, list[ProfileEvent]] = {}
    # Each unit's rows, and each stage's units in the order they are first
    # enqueued, by (pipeline, stage).
    units: dict[str, list[ProfileEvent]] = {}
    queued: dict[tuple[str, int], list[str]] = {}
    for event in log.events:
        rows.setdefault(event.entity, []).append(event)
        if event.name in _UNIT_ROWS:
            own = units.setdefault(event.entity, [])
            if event.name == "enqueue" and "enqueue" not in [e.name for e in own]:
                place = (event.pipeline, event.stage)
                queued.setdefault(place, []).append(event.entity)
            own.append(event)
    tasks = workflow.tasks()

    # Each task's first terminal event, and the time of each task done.
    ends: dict[str, ProfileEvent] = {}
    done: dict[str, float] = {}
    for task in tasks:
        terminal = [e for e in rows.get(task.id, ()) if e.name in TERMINAL]
        if len(terminal) != 1:
            names = [e.name for e in terminal]
            violations.append(
                f"task {task.id}: {len(terminal)} terminal events {names}"
            )
        if terminal:
            ends[task.id] = terminal[0]
            if terminal[0].name == "done":
                done[task.id] = terminal[0].time

    for entity, events in rows.items():
        names = [e.name for e in events]
        for stem in INTERVAL_STEMS:
            begins, closes = names.count(f"{stem}_begin"), names.count(f"{stem}_end")
            if begins != closes:
                violations.append(
                    f"{entity}: {begins} {stem}_begin but {closes} {stem}_end"
                )

    for task in tasks:
        wrong = _out_of_order(rows.get(task.id, ()), _RANK)
        if wrong:
            violations.append(f"task {task.id}: {wrong}")

    for unit, events in units.items():
        enqueues = [e.name for e in events].count("enqueue")
        if enqueues != 1:
            violations.append(f"unit {unit}: {enqueues} enqueue events")
    for pipeline in workflow.pipelines:
        for k, stage in enumerate(pipeline.stages):
            for task, unit in zip(stage.tasks, queued.get((pipeline.id, k), ())):
                bounds = [e for e in rows.get(task.id, ()) if e.name in _BOUNDS]
                wrong = _out_of_order([*bounds, *units[unit]], _UNIT_RANK)
                if wrong:
                    violations.append(f"unit {unit} of task {task.id}: {wrong}")

    for pipeline in workflow.pipelines:
        for k, (stage, after) in enumerate(zip(pipeline.stages, pipeline.stages[1:])):
            ended = [done[t.id] for t in stage.tasks if t.id in done]
            starts = [
                e.time
                for t in after.tasks
                for e in rows.get(t.id, ())
                if e.name == "translate_begin"
            ]
            if ended and starts and min(starts) < max(ended):
                violations.append(
                    f"pipeline {pipeline.id}: stage {k + 1} starts at "
                    f"{min(starts)!r}, before stage {k} ends at {max(ended)!r}"
                )

    steps: list[tuple[float, int]] = []
    for task in tasks:
        placed = [e.time for e in rows.get(task.id, ()) if e.name == "schedule"]
        if placed and task.id in ends:
            steps += [(placed[0], task.cores), (ends[task.id].time, -task.cores)]
    in_use = 0
    for time, cores in sorted(steps):  # at equal times, ends come first
        in_use += cores
        if in_use > log.pilot_cores:
            violations.append(
                f"{in_use} cores in use at {time!r}, pilot has {log.pilot_cores}"
            )
            break

    for end in [e.time for e in log.events if e.name == "pilot_done"][:1]:
        violations += [
            f"{e.entity}: {e.name} at {e.time!r} after pilot_done at {end!r}"
            for e in log.events
            if e.time > end
        ]
    return violations
