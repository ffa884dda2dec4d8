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

import json
from dataclasses import dataclass
from pathlib import Path

from .model import (
    Pipeline,
    Stage,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskSpec,
    Workflow,
    directive_from_dict,
    directive_to_dict,
)


class ProtocolSchemaError(Exception):
    """A protocol definition file is missing or mistypes a required field."""


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

    ``timesteps`` is descriptive metadata for simulation stages (it also
    determines their expected duration at one ten-thousandth of a second
    per step); data-movement stages leave it unset.
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
#
# Schema:
#   {"name": str, "default_replicas": int,
#    "stages": [{"label", "executable", "arguments", "cores",
#                "expected_duration", "inputs", "outputs", "timesteps"}]}
# Staging directives are {"source", "target", "mode"} (model.directive_to_dict).


def _template_to_dict(t: StageTemplate) -> dict:
    return {
        "label": t.label,
        "executable": t.executable,
        "arguments": list(t.arguments),
        "cores": t.cores,
        "expected_duration": t.expected_duration,
        "inputs": [directive_to_dict(d) for d in t.inputs],
        "outputs": [directive_to_dict(d) for d in t.outputs],
        "timesteps": t.timesteps,
    }


def protocol_to_dict(protocol: ProtocolConfig) -> dict:
    return {
        "name": protocol.name,
        "default_replicas": protocol.default_replicas,
        "stages": [_template_to_dict(t) for t in protocol.stages],
    }


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ProtocolSchemaError(f"{where}: missing required field {key!r}")
    return data[key]


def protocol_from_dict(data: dict) -> ProtocolConfig:
    if not isinstance(data, dict):
        raise ProtocolSchemaError("protocol definition must be a JSON object")
    name = _require(data, "name", "protocol")
    raw_stages = _require(data, "stages", "protocol")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ProtocolSchemaError("protocol: 'stages' must be a non-empty list")
    stages: list[StageTemplate] = []
    for position, raw in enumerate(raw_stages):
        where = f"stage {position}"
        if not isinstance(raw, dict):
            raise ProtocolSchemaError(f"{where}: must be a JSON object")
        label = _require(raw, "label", where)
        executable = _require(raw, "executable", where)
        cores = raw.get("cores", 1)
        if not isinstance(cores, int) or cores < 1:
            raise ProtocolSchemaError(f"{where}: 'cores' must be a positive integer")
        try:
            inputs = tuple(directive_from_dict(d) for d in raw.get("inputs", ()))
            outputs = tuple(directive_from_dict(d) for d in raw.get("outputs", ()))
        except (KeyError, ValueError) as exc:
            raise ProtocolSchemaError(f"{where}: bad staging directive: {exc}") from exc
        stages.append(
            StageTemplate(
                label=label,
                executable=executable,
                arguments=tuple(raw.get("arguments", ())),
                cores=cores,
                expected_duration=float(raw.get("expected_duration", 0.0)),
                inputs=inputs,
                outputs=outputs,
                timesteps=raw.get("timesteps"),
            )
        )
    default_replicas = data.get("default_replicas", 1)
    if not isinstance(default_replicas, int) or default_replicas < 1:
        raise ProtocolSchemaError("protocol: 'default_replicas' must be >= 1")
    return ProtocolConfig(
        name=name, stages=tuple(stages), default_replicas=default_replicas
    )


def load_protocol(path: str | Path) -> ProtocolConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProtocolSchemaError(f"{path}: not valid JSON: {exc}") from exc
    return protocol_from_dict(data)
