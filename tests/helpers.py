"""Shared test fixtures that the package itself does not need."""

from __future__ import annotations

from pilotflow.model import TaskKind, Workflow
from pilotflow.protocols import ESMACS_REPLICAS, esmacs_protocol, protocol_to_workflow


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
