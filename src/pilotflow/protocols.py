"""Protocol templates: reusable stage recipes expanded into workflows.

A protocol describes one pipeline as an ordered list of stage templates;
expanding it with a replica count produces that many identical pipelines,
one per ensemble member. The built-in ``esmacs`` protocol models a binding
affinity calculation: seven stages per replica, of which three move data
(unpack inputs, fetch parameters, pack results) and four run the molecular
dynamics engine on multi-core blocks.

Staging paths and arguments may contain ``{replica}`` and ``{name}``
placeholders, substituted during expansion so each replica reads and writes
its own files.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from . import codec
from .model import (
    Pipeline,
    Stage,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskSpec,
    Workflow,
)

# A protocol file is read like an experiment config and fails the same way.
ProtocolSchemaError = codec.ExperimentConfigError


class UnknownProtocolError(Exception):
    def __init__(self, name: str, available: list[str]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown protocol {name!r}; available: {', '.join(available)}"
        )


@dataclass(frozen=True)
class StageTemplate:
    """Recipe for one stage of one pipeline."""

    label: str
    executable: str
    arguments: tuple[str, ...] = ()
    cores: int = 1
    expected_duration: float = 0.0
    inputs: tuple[StagingDirective, ...] = ()
    outputs: tuple[StagingDirective, ...] = ()


@dataclass(frozen=True)
class ProtocolConfig:
    name: str
    stages: tuple[StageTemplate, ...]
    default_replicas: int = 1


def for_workload(
    protocol: ProtocolConfig, kind: TaskKind, time_scale: float = 1.0
) -> ProtocolConfig:
    """Apply a workload kind and a time scale to any protocol.

    NULL_WORKLOAD turns every stage into ``sleep 0`` lasting 0.0 s with no
    data movement; cores are kept, so overheads are measured at the
    protocol's real resource shape. Every other kind keeps the stages as
    written and multiplies each expected duration by ``time_scale``.
    """
    if not math.isfinite(time_scale) or time_scale < 0:
        raise ValueError("time_scale must be finite and >= 0")
    if kind is TaskKind.NULL_WORKLOAD:
        stages = tuple(
            StageTemplate(stage.label, "sleep", ("0",), stage.cores)
            for stage in protocol.stages
        )
    else:
        stages = tuple(
            replace(stage, expected_duration=stage.expected_duration * time_scale)
            for stage in protocol.stages
        )
    return replace(protocol, stages=stages)


# Standard replica count for a production ensemble of this protocol.
ESMACS_REPLICAS = 25

_UNTAR_IN = (StagingDirective("input/config.tar", "config", StagingMode.TAR_IN),)
_PARAMS_IN = (StagingDirective("input/params.dat", "params.dat", StagingMode.COPY_IN),)
_TAR_OUT = (
    StagingDirective("output", "output/results-r{replica}.tar", StagingMode.TAR_OUT),
)

# The built-in esmacs protocol in its SIM form, the form configs/esmacs.json
# holds. The restrained equilibration dominates, as it should.
_ESMACS = ProtocolConfig(
    name="esmacs",
    stages=(
        StageTemplate(
            "untar-config", "tar", ("untar-config",), 1, 0.25, inputs=_UNTAR_IN
        ),
        StageTemplate("preprep", "prep", ("preprep",), 1, 0.25, inputs=_PARAMS_IN),
        StageTemplate("minimize", "md", ("minimize",), 8, 0.25),
        StageTemplate("equilibrate-nvt", "md", ("equilibrate-nvt",), 8, 0.5),
        StageTemplate(
            "equilibrate-npt-restrained", "md", ("equilibrate-npt-restrained",), 8, 5.5
        ),
        StageTemplate("equilibrate-npt-free", "md", ("equilibrate-npt-free",), 8, 0.5),
        StageTemplate("tar-output", "tar", ("tar-output",), 1, 0.25, outputs=_TAR_OUT),
    ),
    default_replicas=ESMACS_REPLICAS,
)


def esmacs_protocol(
    kind: TaskKind = TaskKind.SIMULATED, time_scale: float = 1.0
) -> ProtocolConfig:
    """Seven-stage ensemble protocol, one task per stage.

    ``kind`` and ``time_scale`` apply as in :func:`for_workload`. The engine
    binaries do not exist on the host, so LOCAL_EXEC swaps each command for a
    shell stand-in that sleeps for the stage's duration and logs a line.
    """
    protocol = for_workload(_ESMACS, kind, time_scale)
    if kind is not TaskKind.LOCAL_EXEC:
        return protocol
    stages = []
    for stage in protocol.stages:
        command = (
            f"sleep {stage.expected_duration} && mkdir -p output && "
            f"echo {stage.label} r{{replica}} >> output/{stage.label}.log"
        )
        stages.append(replace(stage, executable="/bin/sh", arguments=("-c", command)))
    return replace(protocol, stages=tuple(stages))


def _substitute(text: str, replica: str, name: str) -> str:
    return text.replace("{replica}", replica).replace("{name}", name)


def _expand(field: tuple, replica: str, name: str) -> tuple:
    """A template's arguments or staging directives, substituted."""
    return tuple(
        _substitute(value, replica, name)
        if isinstance(value, str)
        else StagingDirective(
            _substitute(value.source, replica, name),
            _substitute(value.target, replica, name),
            value.mode,
        )
        for value in field
    )


def _per_replica(field: tuple) -> Callable[[str, str], tuple]:
    """A template field as a function of (replica, name). Substituting
    empty strings changes a field iff it holds a placeholder; one that
    holds none is returned itself."""
    if _expand(field, "", "") == field:
        return lambda replica, name: field
    return partial(_expand, field)


def protocol_to_workflow(
    protocol: ProtocolConfig,
    replicas: int,
    kind: object = None,
    name: str | None = None,
) -> Workflow:
    """Expand a protocol into one pipeline per replica.

    Replicas and stages are numbered from 1 in ids; stage indices inside
    the model stay 0-based positions. Each of a stage template's
    ``arguments``, ``inputs`` and ``outputs`` is checked once: only a field
    that holds ``{replica}`` or ``{name}`` is substituted per replica, and
    every replica shares the template's own tuple of the others (strings
    and frozen directives; tasks, stages and pipelines are never shared).
    ``kind`` is ignored: a workload kind acts once, when
    :func:`for_workload` builds the protocol, and tasks do not carry it.
    The argument stays only because the benchmark under ``perfbench/``
    still passes it.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    workflow_name = name if name is not None else protocol.name
    templates = [
        (t, _per_replica(t.arguments), _per_replica(t.inputs), _per_replica(t.outputs))
        for t in protocol.stages
    ]
    pipelines: list[Pipeline] = []
    for replica in range(1, replicas + 1):
        number, pipeline_id = str(replica), f"{workflow_name}-p{replica}"
        stages: list[Stage] = []
        for position, (template, args, inputs, outputs) in enumerate(templates, 1):
            task = TaskSpec(
                id=f"{pipeline_id}-s{position}",
                executable=template.executable,
                arguments=args(number, workflow_name),
                cores=template.cores,
                expected_duration=template.expected_duration,
                inputs=inputs(number, workflow_name),
                outputs=outputs(number, workflow_name),
            )
            stages.append(Stage(tasks=[task]))
        pipelines.append(Pipeline(id=pipeline_id, stages=stages))
    return Workflow(name=workflow_name, pipelines=pipelines)


BUILTIN_PROTOCOLS = ("esmacs",)


def builtin_protocol(
    name: str, kind: TaskKind = TaskKind.SIMULATED, time_scale: float = 1.0
) -> ProtocolConfig:
    if name == "esmacs":
        return esmacs_protocol(kind=kind, time_scale=time_scale)
    raise UnknownProtocolError(name, list(BUILTIN_PROTOCOLS))


# --- protocol definition files ----------------------------------------------
# A file is the codec's JSON form of a ProtocolConfig; protocol_from_dict adds
# the checks that type hints cannot express.


def protocol_to_dict(protocol: ProtocolConfig) -> dict:
    return codec.to_json(protocol)


def protocol_from_dict(data: object) -> ProtocolConfig:
    protocol = codec.read(ProtocolConfig, data, "protocol")
    if not protocol.stages:
        raise ProtocolSchemaError("protocol.stages must be a non-empty list")
    for position, stage in enumerate(protocol.stages):
        where = f"protocol.stages[{position}]"
        if stage.cores < 1:
            raise ProtocolSchemaError(f"{where}.cores must be >= 1")
        if not math.isfinite(stage.expected_duration) or stage.expected_duration < 0:
            raise ProtocolSchemaError(
                f"{where}.expected_duration must be finite and >= 0"
            )
    if protocol.default_replicas < 1:
        raise ProtocolSchemaError("protocol.default_replicas must be >= 1")
    return protocol


def load_protocol(path: str | Path) -> ProtocolConfig:
    return protocol_from_dict(codec.load(path))
