"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every call into pilotflow goes through a module attribute
(``simbackend.sim_run``, ``metrics.compute_report``, ...) so that the traced
run, which swaps those attributes for timing wrappers, sees each call.
"""

from __future__ import annotations

import gc
import hashlib
import os
import tarfile
import time
from dataclasses import dataclass
from pathlib import Path

from pilotflow import experiment, localbackend, metrics, model, protocols, simbackend
from pilotflow.latency import LatencyModel
from pilotflow.model import ResourceRequest, TaskKind

# Latencies of configs/weak_scaling_sim.json, copied so that editing the
# config cannot silently change the benchmark's inputs.
QUEUE_WAIT = 2.0
PULL_LATENCY = 0.25
FS_LATENCY = 0.125
# Without duration noise every pipeline moves in lockstep, which hides the
# scheduler's costly paths.
DURATION_NOISE = LatencyModel.uniform(0.9, 1.1)


@dataclass(frozen=True)
class Workload:
    """One named input set.

    ``stage_repeats`` repeats the seven esmacs stages that many times in
    each pipeline; ``core_divisor`` sizes the pilot at peak demand divided
    by it, so values above 1 under-provision the pilot; ``walltime`` is the
    pilot's limit in seconds.
    """

    name: str
    backend: str
    pipelines: int
    stage_repeats: int = 1
    core_divisor: int = 1
    walltime: float = 1_000_000.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_queued", "sim", pipelines=192, core_divisor=8),
        Workload("sim_deep", "sim", pipelines=64, stage_repeats=32),
        Workload("local_staged", "local", pipelines=64),
    )
}


@dataclass
class Inputs:
    workload: Workload
    workflow: model.Workflow
    request: ResourceRequest
    backend: object
    tasks: int
    data_root: Path | None = None


def build(workload: Workload, seed: int, data_root: Path) -> Inputs:
    """Set-up: protocol expansion, pilot sizing and, for local runs, inputs.

    A local workload materializes its inputs under ``data_root`` and keeps
    its sandboxes next to it; sim workloads leave it unused.
    """
    local = workload.backend == "local"
    kind = TaskKind.LOCAL_EXEC if local else TaskKind.SIMULATED
    # time_scale=0 turns every local command's sleep into "sleep 0.0", so a
    # local task costs its process starts and staging, not a fixed delay.
    protocol = protocols.esmacs_protocol(kind=kind, time_scale=0.0 if local else 1.0)
    if workload.stage_repeats > 1:
        data = protocols.protocol_to_dict(protocol)
        data["stages"] = data["stages"] * workload.stage_repeats
        protocol = protocols.protocol_from_dict(data)
    workflow = protocols.protocol_to_workflow(
        protocol, replicas=workload.pipelines, kind=kind
    )
    cores = max(1, model.peak_core_demand(workflow) // workload.core_divisor)
    request = ResourceRequest(cores=cores, walltime=workload.walltime)
    if not local:
        backend = simbackend.SimBackendConfig(
            total_cores=cores,
            queue_wait=LatencyModel.constant(QUEUE_WAIT),
            pull_latency=LatencyModel.constant(PULL_LATENCY),
            fs_latency=LatencyModel.constant(FS_LATENCY),
            duration_noise=DURATION_NOISE,
            seed=seed,
        )
        return Inputs(workload, workflow, request, backend, len(workflow.tasks()))
    experiment.materialize_inputs(workflow, data_root)
    backend = localbackend.LocalBackendConfig(
        sandbox_root=str(data_root.parent / "sandboxes"),
        data_root=str(data_root),
        # The default pool is one thread per core up to 128; the host has
        # far fewer CPUs, and extra threads only contend for them.
        max_workers=os.cpu_count() or 1,
    )
    return Inputs(
        workload, workflow, request, backend, len(workflow.tasks()), data_root
    )


@dataclass
class Trial:
    run_s: float
    trial_s: float
    log: object
    report: metrics.RunReport


def run_trial(inputs: Inputs, out_dir: Path) -> Trial:
    """One ``bench run`` cell: the run, its report and its two CSV files."""
    # Start every trial from the same collector state; the collector stays
    # enabled inside the timed region, where users pay for it too.
    gc.collect()
    start = time.perf_counter()
    if inputs.workload.backend == "sim":
        log = simbackend.sim_run(inputs.workflow, inputs.request, inputs.backend)
    else:
        log = localbackend.local_run(inputs.workflow, inputs.request, inputs.backend)
    ran = time.perf_counter()
    report = metrics.compute_report(log, trial_id=inputs.workload.name)
    log.write_csv(out_dir / "events.csv")
    metrics.reports_to_csv([report], out_dir / "trials.csv")
    end = time.perf_counter()
    return Trial(run_s=ran - start, trial_s=end - start, log=log, report=report)


def event_digest(log) -> str:
    """sha256 over every event's time (repr), entity, name, pipeline, stage.

    Computed here rather than from ``EventLog.write_csv`` so that adding
    columns to the event CSV does not change it.
    """
    digest = hashlib.sha256()
    for event in log.events:
        digest.update(
            f"{event.time!r},{event.entity},{event.name},"
            f"{event.pipeline},{event.stage}\n".encode()
        )
    return digest.hexdigest()


def check_trial(
    trial: Trial, inputs: Inputs, expected_digest: str | None
) -> tuple[list[str], str | None]:
    """Correctness gate for one trial: what is wrong, and the log's digest.

    Sim logs are digested and must match ``expected_digest`` when one is
    given; local runs must leave a readable results archive per replica.
    """
    problems: list[str] = []
    report = trial.report
    if report.status != "DONE":
        problems.append(f"status {report.status}, expected DONE")
    if report.tasks != inputs.tasks or report.done_tasks != inputs.tasks:
        problems.append(
            f"{report.done_tasks} of {inputs.tasks} tasks done, "
            f"{report.failed_tasks} failed, {report.canceled_tasks} canceled"
        )
    digest = None
    if inputs.workload.backend == "sim":
        digest = event_digest(trial.log)
        if expected_digest is not None and digest != expected_digest:
            problems.append(f"event-log sha256 {digest}, expected {expected_digest}")
    else:
        for replica in range(1, inputs.workload.pipelines + 1):
            path = inputs.data_root / "output" / f"results-r{replica}.tar"
            try:
                with tarfile.open(path) as archive:
                    if not archive.getmembers():
                        problems.append(f"{path.name} is empty")
            except (OSError, tarfile.TarError) as exc:
                problems.append(f"{path.name} unreadable: {exc}")
    return problems, digest
