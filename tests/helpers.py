"""Shared test fixtures that the package itself does not need."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress

from pilotflow.latency import Distribution, LatencyModel
from pilotflow.model import TaskKind, Workflow
from pilotflow.profiling import EVENT_NAMES, EventLog, EventView, ProfileEvent, Row
from pilotflow.protocols import (
    ESMACS_REPLICAS,
    ProtocolConfig,
    esmacs_protocol,
    protocol_to_workflow,
)
from pilotflow.simbackend import SimBackendConfig

_NAME_CODES = {name: code for code, name in enumerate(EVENT_NAMES)}


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


def coded_rows(events: Iterable[ProfileEvent]) -> tuple[list[Row], list[str]]:
    """The events as the rows an engine writes, in the order given, and the
    pipeline table their codes index: ``""`` first, then each other
    pipeline id as it first appears."""
    table = {"": 0}
    rows = [
        (time, entity, name_code(name), table.setdefault(pipeline, len(table)), stage)
        for time, entity, name, pipeline, stage in events
    ]
    return rows, list(table)


def event_view(events: Iterable[ProfileEvent]) -> EventView:
    """The events, in the order given, as the columns of a view."""
    rows, pipelines = coded_rows(events)
    view = EventView(pipelines)
    view.extend(rows)
    return view


def by_name(log: EventLog, name: str) -> list[ProfileEvent]:
    """The log's events named ``name``, in log order."""
    return list(compress(log.events, log.events.where(name_code(name))))


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
