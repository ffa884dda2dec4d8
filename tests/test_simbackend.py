"""Discrete-event backend against hand-computed timelines.

The analytical expectations below were worked out by hand before the
engine existed and are kept frozen: for a fully provisioned ensemble whose
pipelines move in lockstep, every stage wave costs one bulk pull, each unit
pays one description-IO charge, and data staging charges one filesystem
latency per directive. Three of the seven stages carry exactly one staging
directive, so

    ttx = 7*(pull + fs) + 3*fs + sum(stage durations)

independent of how many pipelines run.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.latency import LatencyModel
from pilotflow.metrics import compute_report, reports_to_csv
from pilotflow.model import (
    Pipeline,
    ResourceRequest,
    Stage,
    TaskKind,
    TaskSpec,
    Workflow,
    peak_core_demand,
)
from pilotflow.protocols import generate_esmacs
from pilotflow.runtime import PilotRequestError
from pilotflow.scheduler import UnschedulableError
from pilotflow.simbackend import SimBackendConfig, sim_run

PULL = 0.25
FS = 0.125
QUEUE = 2.0
STAGE_DURATION_SUM = 0.25 + 0.25 + 0.25 + 0.5 + 5.5 + 0.5 + 0.25
STAGING_DIRECTIVES_PER_PIPELINE = 3
EXPECTED_TTX = (
    7 * (PULL + FS) + STAGING_DIRECTIVES_PER_PIPELINE * FS + STAGE_DURATION_SUM
)

STANDARD = SimBackendConfig(
    queue_wait=LatencyModel.constant(QUEUE),
    pull_latency=LatencyModel.constant(PULL),
    fs_latency=LatencyModel.constant(FS),
)


def single_task_workflow(duration: float, cores: int = 1) -> Workflow:
    task = TaskSpec(
        id="only",
        kind=TaskKind.SIMULATED,
        executable="md",
        cores=cores,
        expected_duration=duration,
    )
    return Workflow(
        name="single",
        pipelines=[Pipeline(id="p", stages=[Stage(index=0, tasks=[task])])],
    )


def test_single_task_makespan_is_its_duration():
    log = sim_run(
        single_task_workflow(5.0),
        ResourceRequest(cores=1, walltime=1000.0),
        SimBackendConfig(),
    )
    report = compute_report(log)
    assert report.tq_s == 0.0
    assert report.ttc_s == 5.0
    assert report.ttx_s == 5.0
    done = log.by_name("done")
    assert len(done) == 1 and done[0].time == 5.0


def test_queue_wait_reads_back_exactly():
    log = sim_run(
        generate_esmacs(replicas=2),
        ResourceRequest(cores=16, walltime=100000.0),
        STANDARD,
    )
    report = compute_report(log)
    assert report.tq_s == QUEUE
    assert report.ttx_s == report.ttc_s - report.tq_s


@pytest.mark.parametrize("replicas", [2, 4, 8])
def test_lockstep_makespan_matches_closed_form(replicas):
    log = sim_run(
        generate_esmacs(replicas=replicas),
        ResourceRequest(cores=8 * replicas, walltime=100000.0),
        STANDARD,
    )
    report = compute_report(log)
    assert report.ttx_s == EXPECTED_TTX
    assert report.done_tasks == 7 * replicas
    assert report.status == "DONE"


def test_overhead_accounting_against_counted_operations():
    replicas = 4
    translate = 0.125
    config = SimBackendConfig(
        queue_wait=LatencyModel.constant(QUEUE),
        pull_latency=LatencyModel.constant(PULL),
        fs_latency=LatencyModel.constant(FS),
        translate_cost=LatencyModel.constant(translate),
    )
    log = sim_run(
        generate_esmacs(replicas=replicas),
        ResourceRequest(cores=8 * replicas, walltime=100000.0),
        config,
    )
    report = compute_report(log)
    pulls = len(log.by_name("pull_begin"))
    unit_ios = len(log.by_name("unit_io_begin"))
    assert unit_ios == 7 * replicas
    assert report.runtime_overhead_s == pulls * PULL + unit_ios * FS
    translations = len(log.by_name("translate_begin"))
    assert translations == 7 * replicas
    assert report.engine_overhead_s == translations * translate


def test_lockstep_ensemble_pulls_once_per_stage_wave():
    log = sim_run(
        generate_esmacs(replicas=4),
        ResourceRequest(cores=32, walltime=100000.0),
        STANDARD,
    )
    assert len(log.by_name("pull_begin")) == 7


def test_bulk_limit_forces_repeat_pulls():
    config = SimBackendConfig(
        pull_latency=LatencyModel.constant(PULL),
        bulk=1,
    )
    log = sim_run(
        generate_esmacs(replicas=2),
        ResourceRequest(cores=16, walltime=100000.0),
        config,
    )
    assert len(log.by_name("pull_begin")) == 14


def test_translation_serializes_on_the_manager_timeline():
    config = SimBackendConfig(translate_cost=LatencyModel.constant(0.25))
    log = sim_run(
        generate_esmacs(replicas=2, kind=TaskKind.NULL_WORKLOAD),
        ResourceRequest(cores=16, walltime=100000.0),
        config,
    )
    begins = sorted(e.time for e in log.by_name("translate_begin"))
    ends = sorted(e.time for e in log.by_name("translate_end"))
    # first stage wave: two tasks, strictly back to back from time zero
    assert begins[0] == 0.0 and ends[0] == 0.25
    assert begins[1] == 0.25 and ends[1] == 0.5
    report = compute_report(log)
    assert report.engine_overhead_s == 14 * 0.25


def test_duration_noise_multiplies_execution():
    config = SimBackendConfig(duration_noise=LatencyModel.constant(2.0))
    log = sim_run(
        single_task_workflow(3.0),
        ResourceRequest(cores=1, walltime=1000.0),
        config,
    )
    execs = {e.name: e.time for e in log.events if e.name.startswith("exec")}
    assert execs["exec_end"] - execs["exec_begin"] == 6.0


def test_under_provisioning_serializes_but_completes():
    replicas = 4
    full = sim_run(
        generate_esmacs(replicas=replicas),
        ResourceRequest(cores=8 * replicas, walltime=100000.0),
        STANDARD,
    )
    tight = sim_run(
        generate_esmacs(replicas=replicas),
        ResourceRequest(cores=8, walltime=100000.0),
        STANDARD,
    )
    full_report = compute_report(full)
    tight_report = compute_report(tight)
    assert tight_report.done_tasks == 7 * replicas
    assert tight_report.status == "DONE"
    assert tight_report.ttx_s > full_report.ttx_s


def test_request_beyond_machine_capacity_rejected():
    with pytest.raises(PilotRequestError):
        sim_run(
            single_task_workflow(1.0),
            ResourceRequest(cores=2_000_000, walltime=1000.0),
            SimBackendConfig(),
        )


def test_task_wider_than_pilot_rejected():
    with pytest.raises(UnschedulableError):
        sim_run(
            single_task_workflow(1.0, cores=9),
            ResourceRequest(cores=8, walltime=1000.0),
            SimBackendConfig(),
        )


def test_walltime_truncates_and_cancels():
    log = sim_run(
        single_task_workflow(100.0),
        ResourceRequest(cores=1, walltime=10.0),
        SimBackendConfig(),
    )
    report = compute_report(log)
    assert report.done_tasks == 0
    assert report.canceled_tasks == 1
    assert report.status == "FAILED"
    canceled = log.by_name("canceled")
    assert canceled[0].time == 10.0
    # the started-but-unfinished execution leaves no dangling interval
    assert log.by_name("exec_begin") == []
    assert log.by_name("pilot_done")[0].time == 10.0


def test_walltime_cancels_queued_later_stages():
    tasks = [
        TaskSpec(id="short", kind=TaskKind.SIMULATED, executable="md",
                 expected_duration=3.0),
        TaskSpec(id="long", kind=TaskKind.SIMULATED, executable="md",
                 expected_duration=100.0),
    ]
    wf = Workflow(
        name="two",
        pipelines=[
            Pipeline(
                id="p",
                stages=[
                    Stage(index=0, tasks=[tasks[0]]),
                    Stage(index=1, tasks=[tasks[1]]),
                ],
            )
        ],
    )
    log = sim_run(wf, ResourceRequest(cores=1, walltime=5.0), SimBackendConfig())
    report = compute_report(log)
    assert report.done_tasks == 1
    assert report.canceled_tasks == 1
    assert report.status == "FAILED"


def test_stage_order_is_respected_per_pipeline():
    log = sim_run(
        generate_esmacs(replicas=3),
        ResourceRequest(cores=24, walltime=100000.0),
        STANDARD,
    )
    done_at: dict[tuple[str, int], float] = {}
    begin_at: dict[tuple[str, int], float] = {}
    for event in log.events:
        if event.name == "done":
            done_at[(event.pipeline, event.stage)] = event.time
        elif event.name == "stage_in_begin":
            begin_at[(event.pipeline, event.stage)] = event.time
    for (pipeline, stage), finished in done_at.items():
        nxt = (pipeline, stage + 1)
        if nxt in begin_at:
            assert begin_at[nxt] >= finished


def test_same_seed_reproduces_event_log_exactly():
    config = SimBackendConfig(
        queue_wait=LatencyModel.uniform(1.0, 4.0),
        pull_latency=LatencyModel.normal(0.2, 0.05),
        fs_latency=LatencyModel.normal(0.1, 0.02),
        duration_noise=LatencyModel.normal(1.0, 0.05),
        seed=42,
    )
    wf = generate_esmacs(replicas=3)
    request = ResourceRequest(cores=24, walltime=100000.0)
    first = sim_run(wf, request, config)
    second = sim_run(wf, request, config)
    assert first.events == second.events
    third = sim_run(wf, request, config.with_seed(43))
    assert third.events != first.events


def test_config_dict_round_trip():
    config = SimBackendConfig(
        total_cores=4096,
        queue_wait=LatencyModel.uniform(1.0, 4.0),
        fs_latency=LatencyModel.constant(0.1),
        seed=7,
        bulk=16,
    )
    assert SimBackendConfig.from_dict(config.to_dict()) == config
    # scalar shorthand for constants
    short = SimBackendConfig.from_dict({"queue_wait": 2.5})
    assert short.queue_wait == LatencyModel.constant(2.5)


@given(
    st.integers(min_value=0, max_value=9999),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_randomized_runs_always_complete_and_balance(seed, replicas):
    config = SimBackendConfig(
        queue_wait=LatencyModel.uniform(0.0, 3.0),
        pull_latency=LatencyModel.normal(0.2, 0.1),
        fs_latency=LatencyModel.normal(0.05, 0.05),
        duration_noise=LatencyModel.normal(1.0, 0.2),
        seed=seed,
    )
    log = sim_run(
        generate_esmacs(replicas=replicas),
        ResourceRequest(cores=8 * replicas, walltime=1_000_000.0),
        config,
    )
    report = compute_report(log)
    assert report.done_tasks == 7 * replicas
    assert report.failed_tasks == 0
    assert report.ttx_s == report.ttc_s - report.tq_s
    assert report.runtime_overhead_s >= 0.0
    # events never run backwards per entity
    last: dict[str, float] = {}
    for event in log.events:
        assert event.time >= last.get(event.entity, 0.0) or event.name == "submit"
        last[event.entity] = event.time


# sha256 of the seeded under-provisioned run below. Units wait for cores
# there, so any change to placement order, offsets or timing changes it.
QUEUED_DIGEST = "02733580f867bc53cefe9710b20a0693a009b8658ae7b44c9d8a1eb817cedddd"


def _queued_run(**latencies):
    """24 pipelines on peak/8 cores: units wait, and noise breaks lockstep.

    ``latencies`` replace the constant latency models.
    """
    workflow = generate_esmacs(replicas=24)
    cores = peak_core_demand(workflow) // 8
    config = SimBackendConfig(
        queue_wait=LatencyModel.constant(QUEUE),
        pull_latency=LatencyModel.constant(PULL),
        fs_latency=LatencyModel.constant(FS),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=11,
    )
    config = dataclasses.replace(config, **latencies)
    log = sim_run(workflow, ResourceRequest(cores=cores, walltime=1_000_000.0), config)
    assert cores == 24
    return log


def test_queued_run_is_byte_identical_to_recorded_digest():
    log = _queued_run()
    digest = hashlib.sha256()
    for event in log.events:
        digest.update(
            f"{event.time!r},{event.entity},{event.name},"
            f"{event.pipeline},{event.stage}\n".encode()
        )
    assert compute_report(log).done_tasks == 7 * 24
    assert digest.hexdigest() == QUEUED_DIGEST


# sha256 of the event CSV and the trials CSV that the queued run writes.
QUEUED_EVENTS_CSV_DIGEST = (
    "a8a0956494962e75529ac70c118f10cd904ef48079d2c3f0712a415a6dd8872c"
)
QUEUED_TRIALS_CSV_DIGEST = (
    "bb271b6f119639ba2d741ecb57827a9477fb2b55a606d02b11602d2d612627b2"
)


def test_queued_run_writers_are_byte_identical_to_recorded_digests(tmp_path):
    log = _queued_run()
    log.write_csv(tmp_path / "events.csv")
    report = compute_report(log, trial_id="queued-0", workload="esmacs")
    reports_to_csv([report], tmp_path / "trials.csv")

    def sha256(name: str) -> str:
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha256("events.csv") == QUEUED_EVENTS_CSV_DIGEST
    assert sha256("trials.csv") == QUEUED_TRIALS_CSV_DIGEST


# sha256 of the trials CSV of the queued run with every overhead drawn from
# a uniform model. Its sums are not exact in binary, so this also pins the
# order in which compute_report adds them.
NOISY_TRIALS_CSV_DIGEST = (
    "c51a8bab48f8fa050b716b86a0d71cc9c598a0541d7778ed38a53680c7ffac9b"
)


def test_noisy_overhead_report_is_byte_identical_to_recorded_digest(tmp_path):
    log = _queued_run(
        pull_latency=LatencyModel.uniform(0.2, 0.3),
        fs_latency=LatencyModel.uniform(0.1, 0.15),
        translate_cost=LatencyModel.uniform(0.01, 0.02),
    )
    report = compute_report(log, trial_id="noisy-0", workload="esmacs")
    reports_to_csv([report], tmp_path / "trials.csv")
    digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest()
    assert digest == NOISY_TRIALS_CSV_DIGEST
