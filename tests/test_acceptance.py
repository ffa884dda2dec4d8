"""Acceptance suite: nine end-to-end checks, one printed verdict line each.

Run with output enabled to see every verdict:

    pytest tests/test_acceptance.py -v -s

Each check states its tolerance inline. "exact" means bit-for-bit float
equality, achievable because the fixtures use dyadic-rational constants
(0.25, 0.125, ...) whose interval arithmetic is exact in binary floating
point.
"""

from __future__ import annotations

import dataclasses
import random
import statistics

from pilotflow.latency import LatencyModel
from pilotflow.localbackend import LocalBackendConfig, local_run
from pilotflow.metrics import compute_report
from pilotflow.model import ResourceRequest, TaskKind, peak_core_demand
from pilotflow.protocols import esmacs_protocol
from pilotflow.scheduler import CoreMap
from pilotflow.simbackend import SimBackendConfig, sim_run

from helpers import by_name, generate_esmacs


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}  [{detail}]")
    assert ok, f"{criterion}: {detail}"


QUEUE = 2.0
PULL = 0.25
FS = 0.125

STANDARD_SIM = SimBackendConfig(
    queue_wait=LatencyModel.constant(QUEUE),
    pull_latency=LatencyModel.constant(PULL),
    fs_latency=LatencyModel.constant(FS),
)

SWEEP_COUNTS = (2, 4, 8, 16)


def standard_run(replicas: int, config: SimBackendConfig = STANDARD_SIM):
    workflow = generate_esmacs(replicas=replicas)
    request = ResourceRequest(cores=8 * replicas, walltime=1_000_000.0)
    return compute_report(sim_run(workflow, request, config))


def test_c1_weak_scaling_invariance():
    """Execution time stays flat when pipelines and cores grow together."""
    ttx_by_count = {p: standard_run(p).ttx_s for p in SWEEP_COUNTS}
    values = set(ttx_by_count.values())
    verdict(
        "C1 weak-scaling invariance",
        len(values) == 1,
        f"ttx at pipelines {SWEEP_COUNTS} = {sorted(ttx_by_count.values())}, "
        "tolerance: exact",
    )


def test_c2_queue_time_identity():
    """Execution time is completion time minus queue time; queue time reads
    back the configured batch wait."""
    reports = [standard_run(p) for p in (2, 8)]
    identity = all(r.ttx_s == r.ttc_s - r.tq_s for r in reports)
    readback = all(r.tq_s == QUEUE for r in reports)
    verdict(
        "C2 ttx = ttc - tq and tq read-back",
        identity and readback,
        f"tq values {[r.tq_s for r in reports]} vs configured {QUEUE}, "
        "tolerance: exact",
    )


def test_c3_overhead_accounting():
    """Reported overheads equal operation counts times their unit costs."""
    replicas = 4
    tasks = 7 * replicas
    workflow = generate_esmacs(replicas=replicas)
    request = ResourceRequest(cores=8 * replicas, walltime=1_000_000.0)

    # With free translation, pipelines stay in lockstep: the agent pulls one
    # bulk batch per stage wave, so the closed form 7 pulls + one
    # description-IO per task holds exactly.
    log = sim_run(workflow, request, STANDARD_SIM)
    report = compute_report(log)
    pulls = len(by_name(log, "pull_begin"))
    closed_form = (
        pulls == 7 and report.runtime_overhead_s == 7 * PULL + tasks * FS
    )

    # With costed translation the manager serializes enqueues, so the pull
    # count is emergent; the accounting identity must still hold against
    # operation counts taken from the log itself.
    translate = 0.125
    costed = SimBackendConfig(
        queue_wait=LatencyModel.constant(QUEUE),
        pull_latency=LatencyModel.constant(PULL),
        fs_latency=LatencyModel.constant(FS),
        translate_cost=LatencyModel.constant(translate),
    )
    log2 = sim_run(workflow, request, costed)
    report2 = compute_report(log2)
    pulls2 = len(by_name(log2, "pull_begin"))
    ios2 = len(by_name(log2, "unit_io_begin"))
    translations2 = len(by_name(log2, "translate_begin"))
    identity = (
        ios2 == tasks
        and translations2 == tasks
        and report2.runtime_overhead_s == pulls2 * PULL + ios2 * FS
        and report2.engine_overhead_s == translations2 * translate
    )
    verdict(
        "C3 overhead accounting",
        closed_form and identity,
        f"free translation: runtime {report.runtime_overhead_s} vs "
        f"7x{PULL}+{tasks}x{FS}={7 * PULL + tasks * FS} with {pulls} pulls; "
        f"costed: runtime {report2.runtime_overhead_s} vs "
        f"{pulls2}x{PULL}+{ios2}x{FS}={pulls2 * PULL + ios2 * FS}, engine "
        f"{report2.engine_overhead_s} vs {translations2}x{translate}="
        f"{translations2 * translate}, tolerance: exact",
    )


def test_c4_engine_overhead_grows_with_task_count():
    """Measured translation cost grows as the workload widens."""

    def engine_overhead(replicas: int) -> float:
        workflow = generate_esmacs(replicas=replicas, kind=TaskKind.NULL_WORKLOAD)
        request = ResourceRequest(
            cores=peak_core_demand(workflow), walltime=600.0
        )
        log = local_run(workflow, request, LocalBackendConfig())
        return compute_report(log).engine_overhead_s

    # Each repeat runs every size, so drift on the host reaches all sizes
    # alike rather than the sizes that happen to run during it.
    readings: dict[int, list[float]] = {replicas: [] for replicas in SWEEP_COUNTS}
    for _ in range(5):
        for replicas in SWEEP_COUNTS:
            readings[replicas].append(engine_overhead(replicas))
    medians = [statistics.median(readings[replicas]) for replicas in SWEEP_COUNTS]
    ok = all(a < b for a, b in zip(medians, medians[1:]))
    pretty = [f"{m * 1000:.3f}ms" for m in medians]
    verdict(
        "C4 engine overhead grows with tasks",
        ok,
        f"median over 5 interleaved repeats at {[7 * p for p in SWEEP_COUNTS]} tasks = "
        f"{pretty}, tolerance: strictly increasing medians",
    )


def test_c5_scheduler_against_brute_force():
    """First-fit placement agrees with a per-core exhaustive reference."""

    class Reference:
        def __init__(self, total: int) -> None:
            self.busy = [False] * total

        def find(self, cores: int) -> int | None:
            for offset in range(len(self.busy) - cores + 1):
                if not any(self.busy[offset : offset + cores]):
                    return offset
            return None

        def set_range(self, offset: int, cores: int, value: bool) -> None:
            for core in range(offset, offset + cores):
                self.busy[core] = value

    rng = random.Random(2024)
    mismatches = 0
    trials = 300
    for _ in range(trials):
        total = rng.randint(1, 64)
        fast = CoreMap(total)
        slow = Reference(total)
        held: list[tuple[str, int, int]] = []
        for step in range(rng.randint(1, 30)):
            if held and rng.random() < 0.4:
                uid, offset, cores = held.pop(rng.randrange(len(held)))
                fast.release(uid)
                slow.set_range(offset, cores, False)
                continue
            cores = rng.randint(1, total)
            expected = slow.find(cores)
            got = fast.find_offset(cores)
            if got != expected:
                mismatches += 1
                break
            if expected is not None:
                uid = f"u{step}"
                fast.allocate(uid, cores)
                slow.set_range(expected, cores, True)
                held.append((uid, expected, cores))
    verdict(
        "C5 scheduler matches brute force",
        mismatches == 0,
        f"{trials} randomized allocation scripts, seed 2024, "
        "tolerance: identical offsets",
    )


def test_c6_local_null_ensemble():
    """Two null pipelines complete every task locally, stages in order."""
    workflow = generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD)
    request = ResourceRequest(cores=peak_core_demand(workflow), walltime=600.0)
    log = local_run(workflow, request, LocalBackendConfig())
    report = compute_report(log)
    exec_begin: dict[tuple[str, int], float] = {}
    exec_end: dict[tuple[str, int], float] = {}
    for event in log.events:
        if event.name == "exec_begin":
            exec_begin[(event.pipeline, event.stage)] = event.time
        elif event.name == "exec_end":
            exec_end[(event.pipeline, event.stage)] = event.time
    ordered = all(
        exec_end[(pipeline, stage)] <= exec_begin[(pipeline, stage + 1)]
        for pipeline in ("esmacs-p1", "esmacs-p2")
        for stage in range(6)
    )
    ok = report.done_tasks == 14 and report.status == "DONE" and ordered
    verdict(
        "C6 local null ensemble",
        ok,
        f"done={report.done_tasks}/14 status={report.status} "
        f"stage_order={'ok' if ordered else 'violated'}, tolerance: exact counts",
    )


def test_c7_template_fidelity():
    """The built-in protocol expands to the documented ensemble shape."""
    protocol = esmacs_protocol()
    profile = [t.cores for t in protocol.stages]
    wf25 = generate_esmacs(replicas=25)
    wf8 = generate_esmacs(replicas=8)
    ok = (
        profile == [1, 1, 8, 8, 8, 8, 1]
        and len(wf25.pipelines) == 25
        and len(wf25.tasks()) == 175
        and peak_core_demand(wf25) == 200
        and peak_core_demand(wf8) == 64
    )
    verdict(
        "C7 template fidelity",
        ok,
        f"cores {profile}, 25 replicas -> {len(wf25.tasks())} tasks "
        f"peak {peak_core_demand(wf25)}, 8 replicas -> peak "
        f"{peak_core_demand(wf8)}, tolerance: exact",
    )


def test_c8_per_stage_breakdown_shape():
    """Growing filesystem latency widens only the data-movement stages."""
    def windows(fs: float) -> dict[int, float]:
        config = SimBackendConfig(
            queue_wait=LatencyModel.constant(QUEUE),
            pull_latency=LatencyModel.constant(PULL),
            fs_latency=LatencyModel.constant(fs),
        )
        workflow = generate_esmacs(replicas=4)
        log = sim_run(workflow, ResourceRequest(cores=32, walltime=1_000_000.0), config)
        return compute_report(log).per_stage_ttx_max

    narrow = windows(FS)
    wide = windows(2 * FS)
    compute_stages_constant = all(narrow[k] == wide[k] for k in (3, 4, 5, 6))
    staging_stages_grow = all(wide[k] > narrow[k] for k in (1, 2, 7))
    verdict(
        "C8 per-stage breakdown shape",
        compute_stages_constant and staging_stages_grow,
        f"fs {FS}->{2 * FS}: stages 3-6 "
        f"{[narrow[k] for k in (3, 4, 5, 6)]} unchanged="
        f"{compute_stages_constant}, stages 1,2,7 grow={staging_stages_grow}, "
        "tolerance: exact for constant stages",
    )


def test_c9_byte_identical_reruns(tmp_path):
    """Same seed reproduces the event log byte for byte; a new seed does not."""
    config = SimBackendConfig(
        queue_wait=LatencyModel.uniform(1.0, 4.0),
        pull_latency=LatencyModel.normal(0.2, 0.05),
        fs_latency=LatencyModel.normal(0.1, 0.02),
        duration_noise=LatencyModel.normal(1.0, 0.05),
        seed=31,
    )
    workflow = generate_esmacs(replicas=4)
    request = ResourceRequest(cores=32, walltime=1_000_000.0)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    sim_run(workflow, request, config).write_csv(paths[0])
    sim_run(workflow, request, config).write_csv(paths[1])
    sim_run(workflow, request, dataclasses.replace(config, seed=32)).write_csv(paths[2])
    same = paths[0].read_bytes() == paths[1].read_bytes()
    different = paths[0].read_bytes() != paths[2].read_bytes()
    verdict(
        "C9 deterministic reruns",
        same and different,
        f"seed 31 twice identical={same}, seed 32 differs={different}, "
        "tolerance: byte-identical CSV",
    )
