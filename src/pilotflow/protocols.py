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
from dataclasses import dataclass
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
    """Recipe for one stage of one pipeline.

    ``timesteps`` is descriptive metadata for simulation stages;
    data-movement stages leave it unset. The built-in esmacs protocol
    derives those stages' durations from it, at one ten-thousandth of a
    second per step; a protocol file sets ``expected_duration`` itself.
    """

    label: str
    executable: str
    arguments: tuple[str, ...] = ()
    cores: int = 1
    expected_duration: float = 0.0
    inputs: tuple[StagingDirective, ...] = ()
    outputs: tuple[StagingDirective, ...] = ()
    timesteps: int | None = None


@dataclass(frozen=True)
class ProtocolConfig:
    name: str
    stages: tuple[StageTemplate, ...]
    default_replicas: int = 1


# Standard replica count for a production ensemble of this protocol.
ESMACS_REPLICAS = 25

# Simulation stages advance this many integration steps; duration is
# steps / 10000 seconds so the middle stage dominates, as it should.
_MD_TIMESTEPS = (5000, 55000, 5000)

_SECONDS_PER_TIMESTEP = 1.0 / 10000.0


def esmacs_protocol(
    kind: TaskKind = TaskKind.SIMULATED, time_scale: float = 1.0
) -> ProtocolConfig:
    """Seven-stage ensemble protocol, one task per stage.

    Stage layout (cores in parentheses): unpack the configuration archive
    (1), fetch parameter files (1), minimize (8), heat at constant volume
    (8), equilibrate at constant pressure with restraints (8), equilibrate
    unrestrained (8), pack the outputs (1).

    ``kind`` selects how tasks execute: NULL_WORKLOAD swaps every command
    for ``sleep 0`` with no data movement, SIMULATED keeps nominal commands
    for the simulated backend, LOCAL_EXEC builds real shell commands.
    ``time_scale`` multiplies every expected duration, handy for quick
    local demonstrations.
    """
    if time_scale < 0:
        raise ValueError("time_scale must be >= 0")

    untar_in = (
        StagingDirective("input/config.tar", "config", StagingMode.TAR_IN),
    )
    params_in = (
        StagingDirective("input/params.dat", "params.dat", StagingMode.COPY_IN),
    )
    tar_out = (
        StagingDirective(
            "output", "output/results-r{replica}.tar", StagingMode.TAR_OUT
        ),
    )

    def duration(base: float) -> float:
        return base * time_scale

    rows: list[tuple] = [
        # label, executable, cores, base duration, inputs, outputs, timesteps
        ("untar-config", "tar", 1, 0.25, untar_in, (), None),
        ("preprep", "prep", 1, 0.25, params_in, (), None),
        ("minimize", "md", 8, 0.25, (), (), None),
        ("equilibrate-nvt", "md", 8, None, (), (), _MD_TIMESTEPS[0]),
        ("equilibrate-npt-restrained", "md", 8, None, (), (), _MD_TIMESTEPS[1]),
        ("equilibrate-npt-free", "md", 8, None, (), (), _MD_TIMESTEPS[2]),
        ("tar-output", "tar", 1, 0.25, (), tar_out, None),
    ]

    stages: list[StageTemplate] = []
    for label, executable, cores, base, inputs, outputs, timesteps in rows:
        if timesteps is not None:
            base = timesteps * _SECONDS_PER_TIMESTEP
        dur = duration(base)
        if kind is TaskKind.NULL_WORKLOAD:
            # Null workload: immediate-exit command, no data movement.
            stages.append(
                StageTemplate(
                    label=label,
                    executable="sleep",
                    arguments=("0",),
                    cores=cores,
                    expected_duration=0.0,
                    timesteps=timesteps,
                )
            )
        elif kind is TaskKind.LOCAL_EXEC:
            command = (
                f"sleep {dur} && mkdir -p output && "
                f"echo {label} r{{replica}} >> output/{label}.log"
            )
            stages.append(
                StageTemplate(
                    label=label,
                    executable="/bin/sh",
                    arguments=("-c", command),
                    cores=cores,
                    expected_duration=dur,
                    inputs=inputs,
                    outputs=outputs,
                    timesteps=timesteps,
                )
            )
        else:
            stages.append(
                StageTemplate(
                    label=label,
                    executable=executable,
                    arguments=(label,),
                    cores=cores,
                    expected_duration=dur,
                    inputs=inputs,
                    outputs=outputs,
                    timesteps=timesteps,
                )
            )
    return ProtocolConfig(
        name="esmacs", stages=tuple(stages), default_replicas=ESMACS_REPLICAS
    )


def _substitute(text: str, replica: int, name: str) -> str:
    return text.replace("{replica}", str(replica)).replace("{name}", name)


def _expand_directives(
    directives: tuple[StagingDirective, ...], replica: int, name: str
) -> tuple[StagingDirective, ...]:
    return tuple(
        StagingDirective(
            source=_substitute(d.source, replica, name),
            target=_substitute(d.target, replica, name),
            mode=d.mode,
        )
        for d in directives
    )


def protocol_to_workflow(
    protocol: ProtocolConfig,
    replicas: int,
    kind: TaskKind = TaskKind.SIMULATED,
    name: str | None = None,
) -> Workflow:
    """Expand a protocol into one pipeline per replica.

    Replicas and stages are numbered from 1 in ids; stage indices inside
    the model stay 0-based positions.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    workflow_name = name if name is not None else protocol.name
    pipelines: list[Pipeline] = []
    for replica in range(1, replicas + 1):
        stages: list[Stage] = []
        for position, template in enumerate(protocol.stages):
            task = TaskSpec(
                id=f"{workflow_name}-p{replica}-s{position + 1}",
                kind=kind,
                executable=template.executable,
                arguments=tuple(
                    _substitute(a, replica, workflow_name)
                    for a in template.arguments
                ),
                cores=template.cores,
                expected_duration=template.expected_duration,
                inputs=_expand_directives(template.inputs, replica, workflow_name),
                outputs=_expand_directives(template.outputs, replica, workflow_name),
            )
            stages.append(Stage(index=position, tasks=[task]))
        pipelines.append(
            Pipeline(id=f"{workflow_name}-p{replica}", stages=stages)
        )
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
