"""Benchmark harness: sweep workload sizes and collect run reports.

An experiment is a JSON config naming a protocol, a workload kind, the
pipeline counts to sweep, trials per point, and a backend. For weak-scaling
studies the pilot is sized to each workflow's peak core demand, keeping the
pipelines-to-cores ratio constant across the sweep; fixed core lists are
also supported for deliberate under-provisioning.

Outputs per experiment directory:

  trials.csv    one row per trial, fixed column order
  summary.csv   per-sweep-point aggregates (mean/min/max/stddev)
  summary.json  the same aggregates as JSON
  events/       one event CSV per trial (optional, on by default)
  plot/         two-column .dat series generated by ``bench plot``
"""

from __future__ import annotations

import json
import tarfile
from dataclasses import dataclass, field
from pathlib import Path

from .localbackend import LocalBackendConfig, local_run
from .metrics import (
    AggregateRow,
    RunReport,
    aggregate_trials,
    aggregates_to_csv,
    compute_report,
    reports_to_csv,
    reports_to_json,
)
from .model import ResourceRequest, StagingMode, TaskKind, Workflow, peak_core_demand
from .protocols import (
    ProtocolConfig,
    builtin_protocol,
    load_protocol,
    protocol_to_workflow,
)
from .simbackend import SimBackendConfig, sim_run

WORKLOAD_KINDS = {
    "NULL": TaskKind.NULL_WORKLOAD,
    "SIM": TaskKind.SIMULATED,
    "LOCAL": TaskKind.LOCAL_EXEC,
}


class ExperimentConfigError(Exception):
    """The experiment description is unusable as written."""


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    protocol: str = "esmacs"
    workload: str = "SIM"
    pipeline_counts: tuple[int, ...] = (2, 4, 8, 16)
    trials: int = 2
    cores: str | tuple[int, ...] = "peak"
    backend: dict = field(default_factory=lambda: {"backend": "sim"})
    seed: int = 0
    walltime: float = 1_000_000.0
    time_scale: float = 1.0
    save_events: bool = True

    def validate(self) -> None:
        if not self.name:
            raise ExperimentConfigError("experiment needs a name")
        if self.workload not in WORKLOAD_KINDS:
            raise ExperimentConfigError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(WORKLOAD_KINDS)}"
            )
        if not self.pipeline_counts:
            raise ExperimentConfigError("pipeline_counts must be non-empty")
        if any(count < 1 for count in self.pipeline_counts):
            raise ExperimentConfigError("pipeline counts must be >= 1")
        if self.trials < 1:
            raise ExperimentConfigError("trials must be >= 1")
        if isinstance(self.cores, str):
            if self.cores != "peak":
                raise ExperimentConfigError(
                    f"cores must be 'peak' or a list of integers, got {self.cores!r}"
                )
        elif len(self.cores) != len(self.pipeline_counts):
            raise ExperimentConfigError(
                "explicit cores list must match pipeline_counts in length"
            )
        if self.walltime <= 0:
            raise ExperimentConfigError("walltime must be positive")
        backend_kind = self.backend.get("backend", "sim")
        if backend_kind not in ("sim", "local"):
            raise ExperimentConfigError(f"unknown backend {backend_kind!r}")

    @staticmethod
    def from_dict(data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ExperimentConfigError("experiment config must be a JSON object")
        cores = data.get("cores", "peak")
        if isinstance(cores, list):
            cores = tuple(int(c) for c in cores)
        config = ExperimentConfig(
            name=data.get("name", ""),
            protocol=data.get("protocol", "esmacs"),
            workload=data.get("workload", "SIM"),
            pipeline_counts=tuple(int(p) for p in data.get("pipeline_counts", ())),
            trials=int(data.get("trials", 2)),
            cores=cores,
            backend=data.get("backend", {"backend": "sim"}),
            seed=int(data.get("seed", 0)),
            walltime=float(data.get("walltime", 1_000_000.0)),
            time_scale=float(data.get("time_scale", 1.0)),
            save_events=bool(data.get("save_events", True)),
        )
        config.validate()
        return config

    @staticmethod
    def load(path: str | Path) -> ExperimentConfig:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ExperimentConfigError(f"no such config file: {path}") from None
        except json.JSONDecodeError as exc:
            raise ExperimentConfigError(f"{path}: not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(data)


def resolve_protocol(name: str, kind: TaskKind, time_scale: float) -> ProtocolConfig:
    """Builtin protocol name, or a path to a protocol definition file."""
    if name.endswith(".json") or "/" in name:
        return load_protocol(name)
    return builtin_protocol(name, kind=kind, time_scale=time_scale)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    out_dir: Path
    reports: list[RunReport]
    aggregates: list[AggregateRow]


def materialize_inputs(workflow: Workflow, data_root: Path) -> None:
    """Create placeholder files for every input staging source.

    Local runs need real bytes on disk; plain sources become small text
    files and archive sources become small tar files.
    """
    for task in workflow.tasks():
        for directive in task.inputs:
            source = data_root / directive.source
            if source.exists():
                continue
            source.parent.mkdir(parents=True, exist_ok=True)
            if directive.mode is StagingMode.TAR_IN:
                payload = source.parent / (source.name + ".payload")
                payload.mkdir(exist_ok=True)
                for member in ("system.conf", "coords.dat"):
                    (payload / member).write_text(f"placeholder {member}\n")
                with tarfile.open(source, "w") as archive:
                    for member in sorted(payload.iterdir()):
                        archive.add(member, arcname=member.name)
            else:
                source.write_text(f"placeholder input for {task.id}\n")


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path, seed: int | None = None
) -> ExperimentResult:
    """Run every (pipeline count, trial) cell and write the report files."""
    config.validate()
    base_seed = config.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = WORKLOAD_KINDS[config.workload]
    backend_kind = config.backend.get("backend", "sim")

    reports: list[RunReport] = []
    for position, count in enumerate(config.pipeline_counts):
        protocol = resolve_protocol(config.protocol, kind, config.time_scale)
        workflow = protocol_to_workflow(
            protocol, replicas=count, kind=kind, name=f"{protocol.name}{count}"
        )
        if config.cores == "peak":
            cores = peak_core_demand(workflow)
        else:
            cores = config.cores[position]
        request = ResourceRequest(cores=cores, walltime=config.walltime)
        for trial in range(config.trials):
            trial_seed = base_seed + trial
            trial_id = f"{config.workload.lower()}-p{count}-t{trial}"
            if backend_kind == "sim":
                backend = SimBackendConfig.from_dict(config.backend).with_seed(
                    trial_seed
                )
                log = sim_run(workflow, request, backend)
            else:
                backend = LocalBackendConfig.from_dict(config.backend)
                if backend.data_root is None:
                    data_root = out / "data" / trial_id
                    backend = LocalBackendConfig.from_dict(
                        {**backend.to_dict(), "data_root": str(data_root)}
                    )
                materialize_inputs(workflow, Path(backend.data_root))
                log = local_run(workflow, request, backend)
            report = compute_report(log, trial_id=trial_id, workload=config.workload)
            reports.append(report)
            if config.save_events:
                events_dir = out / "events"
                events_dir.mkdir(exist_ok=True)
                log.write_csv(events_dir / f"{trial_id}.csv")

    aggregates = aggregate_trials(reports)
    reports_to_csv(reports, out / "trials.csv")
    aggregates_to_csv(aggregates, out / "summary.csv")
    Path(out / "summary.json").write_text(
        json.dumps([row.to_dict() for row in aggregates], indent=2, sort_keys=True)
    )
    reports_to_json(reports, out / "reports.json")
    return ExperimentResult(
        config=config, out_dir=out, reports=reports, aggregates=aggregates
    )


def describe(protocol_name: str, replicas: int | None = None, workload: str = "SIM") -> str:
    """Human-readable summary of an expanded protocol."""
    if workload not in WORKLOAD_KINDS:
        raise ExperimentConfigError(
            f"unknown workload {workload!r}; expected one of {sorted(WORKLOAD_KINDS)}"
        )
    kind = WORKLOAD_KINDS[workload]
    protocol = resolve_protocol(protocol_name, kind, time_scale=1.0)
    count = protocol.default_replicas if replicas is None else replicas
    workflow = protocol_to_workflow(protocol, replicas=count, kind=kind)
    peak = peak_core_demand(workflow)
    tasks = len(workflow.tasks())
    lines = [
        f"protocol: {protocol.name}",
        f"replicas: {count}",
        f"stages per pipeline: {len(protocol.stages)}",
        f"tasks: {tasks}",
        f"peak core demand: {peak}",
        "",
        f"{'stage':>5}  {'label':<28} {'cores':>5}  {'duration_s':>10}",
    ]
    for position, template in enumerate(protocol.stages, start=1):
        lines.append(
            f"{position:>5}  {template.label:<28} {template.cores:>5}  "
            f"{template.expected_duration:>10.3f}"
        )
    return "\n".join(lines)


def write_plot_files(from_dir: str | Path) -> list[Path]:
    """Turn summary.csv into gnuplot-friendly .dat series under plot/."""
    src = Path(from_dir) / "summary.csv"
    if not src.exists():
        raise ExperimentConfigError(f"no summary.csv under {from_dir}")
    import csv as _csv

    with open(src, newline="") as handle:
        rows = list(_csv.DictReader(handle))
    if not rows:
        raise ExperimentConfigError(f"{src} has no data rows")
    plot_dir = Path(from_dir) / "plot"
    plot_dir.mkdir(exist_ok=True)
    series: dict[str, list[dict]] = {}
    for row in rows:
        series.setdefault(row["workload"] or "all", []).append(row)
    written: list[Path] = []
    for workload, members in sorted(series.items()):
        members.sort(key=lambda r: int(r["pipelines"]))
        ttx_path = plot_dir / f"ttx_{workload.lower()}.dat"
        with open(ttx_path, "w") as handle:
            handle.write("# pipelines ttx_mean ttx_min ttx_max ttx_stddev\n")
            for row in members:
                handle.write(
                    f"{row['pipelines']} {row['ttx_mean']} {row['ttx_min']} "
                    f"{row['ttx_max']} {row['ttx_stddev']}\n"
                )
        written.append(ttx_path)
        overhead_path = plot_dir / f"overheads_{workload.lower()}.dat"
        with open(overhead_path, "w") as handle:
            handle.write("# pipelines engine_overhead_mean runtime_overhead_mean\n")
            for row in members:
                handle.write(
                    f"{row['pipelines']} {row['engine_overhead_mean']} "
                    f"{row['runtime_overhead_mean']}\n"
                )
        written.append(overhead_path)
    return written
