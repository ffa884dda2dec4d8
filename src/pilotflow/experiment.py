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

import csv
import math
import tarfile
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from . import codec
from .codec import ExperimentConfigError
from .localbackend import LocalBackendConfig, local_run
from .metrics import (
    AggregateRow,
    RunReport,
    aggregate_trials,
    aggregates_to_csv,
    compute_report,
    reports_to_csv,
)
from .model import ResourceRequest, StagingMode, TaskKind, Workflow, peak_core_demand
from .protocols import (
    ProtocolConfig,
    builtin_protocol,
    for_workload,
    load_protocol,
    protocol_to_workflow,
)
from .scheduler import UnschedulableError
from .simbackend import SimBackendConfig, check_request, sim_run

@dataclass(frozen=True)
class ExperimentConfig:
    name: str = ""
    protocol: str = "esmacs"
    workload: TaskKind = TaskKind.SIMULATED
    pipeline_counts: tuple[int, ...] = ()
    trials: int = 2
    cores: str | tuple[int, ...] = "peak"
    backend: SimBackendConfig | LocalBackendConfig = SimBackendConfig()
    seed: int = 0
    walltime: float = 1_000_000.0
    time_scale: float = 1.0
    save_events: bool = True

    def validate(self) -> None:
        if not self.name:
            raise ExperimentConfigError("experiment needs a name")
        if self.workload is TaskKind.SIMULATED and isinstance(
            self.backend, LocalBackendConfig
        ):
            # Only the simulator can honour a SIM duration without running
            # the command; locally the stand-in commands run as LOCAL.
            raise ExperimentConfigError(
                "workload SIM runs only on the sim backend; on the local backend "
                "use workload LOCAL with a small time_scale "
                "(see configs/esmacs_local.json)"
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
        elif any(cores < 1 for cores in self.cores):
            raise ExperimentConfigError("explicit cores must be >= 1")
        if not math.isfinite(self.walltime) or self.walltime <= 0:
            raise ExperimentConfigError("walltime must be positive and finite")
        if not math.isfinite(self.time_scale) or self.time_scale < 0:
            raise ExperimentConfigError("time_scale must be finite and >= 0")

    @staticmethod
    def from_dict(data: object) -> ExperimentConfig:
        """Read an experiment object; every key must name a field.

        The ``backend`` object picks its config class by its ``backend`` key
        (``sim`` when absent) and is read into that class here, once.
        """
        if not isinstance(data, dict):
            raise ExperimentConfigError("experiment config must be a JSON object")
        fields = {key: value for key, value in data.items() if key != "backend"}
        config = codec.read(ExperimentConfig, fields, "experiment")
        if "backend" in data:
            config = replace(config, backend=_read_backend(data["backend"]))
        config.validate()
        return config

    @staticmethod
    def load(path: str | Path) -> ExperimentConfig:
        return ExperimentConfig.from_dict(codec.load(path))


_BACKENDS = {"sim": SimBackendConfig, "local": LocalBackendConfig}


def _read_backend(data: object) -> SimBackendConfig | LocalBackendConfig:
    if not isinstance(data, dict):
        raise ExperimentConfigError("backend must be a JSON object")
    kind = data.get("backend", "sim")
    if not isinstance(kind, str) or kind not in _BACKENDS:
        raise ExperimentConfigError(
            f"unknown backend {kind!r}; expected one of {sorted(_BACKENDS)}"
        )
    if "seed" in data:
        # run_experiment seeds every trial itself; a backend seed would be
        # overwritten without a word.
        raise ExperimentConfigError(
            "backend.seed is not read: trial t runs with the experiment's "
            "top-level 'seed' + t; set the top-level 'seed' instead"
        )
    fields = {key: value for key, value in data.items() if key != "backend"}
    backend = codec.read(_BACKENDS[kind], fields, "backend", exclude=("seed",))
    try:
        backend.validate()
    except ValueError as exc:
        raise ExperimentConfigError(f"backend: {exc}") from None
    return backend


def resolve_protocol(name: str, kind: TaskKind, time_scale: float) -> ProtocolConfig:
    """A builtin name or a protocol file's path, under ``kind`` and ``time_scale``."""
    if name.endswith(".json") or "/" in name:
        return for_workload(load_protocol(name), kind, time_scale)
    return builtin_protocol(name, kind=kind, time_scale=time_scale)


def _cell_requests(
    config: ExperimentConfig, protocol: ProtocolConfig
) -> list[ResourceRequest]:
    """Each sweep point's pilot request, checked before any output is written.

    Every replica is one pipeline of the same stages, so ``peak`` cores are
    the pipeline count times the peak demand of one replica.
    """
    widest = max(protocol.stages, key=attrgetter("cores"))
    replica = peak_core_demand(protocol_to_workflow(protocol, replicas=1))
    requests: list[ResourceRequest] = []
    for position, count in enumerate(config.pipeline_counts):
        if config.cores == "peak":
            cores = count * replica
        else:
            cores = config.cores[position]
        if widest.cores > cores:
            raise UnschedulableError(
                f"stage {widest.label!r} wants {widest.cores} cores but the "
                f"pilot has only {cores}"
            )
        request = ResourceRequest(cores=cores, walltime=config.walltime)
        if isinstance(config.backend, SimBackendConfig):
            check_request(request, config.backend)
        requests.append(request)
    return requests


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
    protocol = resolve_protocol(config.protocol, config.workload, config.time_scale)
    # The kind's plain name: str() of a str-valued Enum is not its value.
    workload = config.workload.value
    requests = _cell_requests(config, protocol)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reports: list[RunReport] = []
    for count, request in zip(config.pipeline_counts, requests):
        workflow = protocol_to_workflow(
            protocol, replicas=count, name=f"{protocol.name}{count}"
        )
        for trial in range(config.trials):
            trial_id = f"{workload.lower()}-p{count}-t{trial}"
            backend = config.backend
            if isinstance(backend, SimBackendConfig):
                backend = replace(backend, seed=base_seed + trial)
                log = sim_run(workflow, request, backend)
            else:
                if backend.data_root is None:
                    data_root = out / "data" / trial_id
                    backend = replace(backend, data_root=str(data_root))
                materialize_inputs(workflow, Path(backend.data_root))
                log = local_run(workflow, request, backend)
            report = compute_report(log, trial_id=trial_id, workload=workload)
            reports.append(report)
            if config.save_events:
                events_dir = out / "events"
                events_dir.mkdir(exist_ok=True)
                log.write_csv(events_dir / f"{trial_id}.csv")

    aggregates = aggregate_trials(reports)
    reports_to_csv(reports, out / "trials.csv")
    aggregates_to_csv(aggregates, out / "summary.csv")
    codec.dump(aggregates, out / "summary.json")
    codec.dump(reports, out / "reports.json")
    return ExperimentResult(
        config=config, out_dir=out, reports=reports, aggregates=aggregates
    )


def describe(protocol_name: str, replicas: int | None = None, workload: str = "SIM") -> str:
    """Human-readable summary of an expanded protocol."""
    protocol = resolve_protocol(protocol_name, TaskKind(workload), time_scale=1.0)
    count = protocol.default_replicas if replicas is None else replicas
    if count < 1:
        raise ExperimentConfigError(f"replicas must be >= 1, got {count}")
    workflow = protocol_to_workflow(protocol, replicas=count)
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
    with open(src, newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if not rows:
        raise ExperimentConfigError(f"{src} has no data rows")
    for field in fields(AggregateRow):  # the columns aggregates_to_csv writes
        if field.name not in reader.fieldnames:
            raise ExperimentConfigError(f"{src} has no {field.name!r} column")
    series: dict[str, list[dict]] = {}
    for row in rows:
        if not (row["pipelines"] or "").isdecimal():  # None: a short row
            raise ExperimentConfigError(
                f"{src}: pipelines must be a count, got {row['pipelines']!r}"
            )
        series.setdefault(row["workload"] or "all", []).append(row)
    plot_dir = Path(from_dir) / "plot"
    plot_dir.mkdir(exist_ok=True)
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
