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

from pilotflow import profiling
from pilotflow.experiment import ExperimentConfig
from pilotflow.latency import LatencyModel
from pilotflow.metrics import compute_report, reports_to_csv
from pilotflow.model import (
    Pipeline,
    ResourceRequest,
    Stage,
    TaskKind,
    TaskSpec,
    Workflow,
    WorkflowValidationError,
    peak_core_demand,
)
from pilotflow.profiling import ProfileSink
from pilotflow.runtime import PilotRequestError
from pilotflow.scheduler import UnschedulableError
from pilotflow.simbackend import SimBackendConfig, sim_run

from helpers import generate_esmacs

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
        executable="md",
        cores=cores,
        expected_duration=duration,
    )
    return Workflow(
        name="single",
        pipelines=[Pipeline(id="p", stages=[Stage(tasks=[task])])],
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


def test_bulk_below_one_is_rejected_before_any_event(monkeypatch):
    appended = []
    monkeypatch.setattr(ProfileSink, "append", lambda self, row: appended.append(row))
    wf = generate_esmacs(replicas=2)
    request = ResourceRequest(cores=peak_core_demand(wf), walltime=1e6)
    with pytest.raises(ValueError, match="bulk must be >= 1, got 0"):
        sim_run(wf, request, SimBackendConfig(bulk=0))
    assert appended == []


def test_task_wider_than_pilot_rejected():
    with pytest.raises(UnschedulableError):
        sim_run(
            single_task_workflow(1.0, cores=9),
            ResourceRequest(cores=8, walltime=1000.0),
            SimBackendConfig(),
        )


def test_non_finite_duration_never_reaches_the_clock():
    """A NaN duration in one pipeline would stamp NaN on the others' tasks."""
    workflow = generate_esmacs(replicas=2)
    first = workflow.pipelines[0].stages[0]
    first.tasks[0] = dataclasses.replace(
        first.tasks[0], expected_duration=float("nan")
    )
    with pytest.raises(WorkflowValidationError, match="expected_duration"):
        sim_run(workflow, ResourceRequest(cores=16, walltime=1000.0), STANDARD)


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


@pytest.mark.parametrize("settle_rows", [1, 16, profiling._SETTLE_ROWS])
def test_walltime_cut_log_is_the_stable_sort_of_its_rows(monkeypatch, settle_rows):
    """The simulator settles the sink only after its walltime check: the
    cancels that close() writes at the deadline are earlier than the popped
    time past it. Settled over many moves into the columns, the log is the
    stable sort of the rows the engine appended, one terminal per task."""
    monkeypatch.setattr(profiling, "_SETTLE_ROWS", settle_rows)
    appended = []
    append = ProfileSink.append

    def recording_append(self, row):
        appended.append(row)
        append(self, row)

    monkeypatch.setattr(ProfileSink, "append", recording_append)
    moves = 0
    move_before = ProfileSink._move_before

    def counting_move_before(self, now):
        nonlocal moves
        moves += 1
        move_before(self, now)

    monkeypatch.setattr(ProfileSink, "_move_before", counting_move_before)
    wf = generate_esmacs(replicas=128)
    config = SimBackendConfig(
        queue_wait=LatencyModel.constant(2.0),
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=3,
        bulk=32,
    )
    # A stage ends just before this deadline, so the next stage's pull is
    # still on the heap past it when the run is cut.
    walltime = 28.5
    request = ResourceRequest(cores=peak_core_demand(wf) // 4, walltime=walltime)
    log = sim_run(wf, request, config)
    assert len(log.events) > 2 * profiling._SETTLE_ROWS and moves > 2
    assert log.events == sorted(appended, key=lambda row: row[0])
    report = compute_report(log)
    tasks = sum(len(stage.tasks) for p in wf.pipelines for stage in p.stages)
    assert report.tasks == tasks
    assert report.done_tasks > 0 and report.canceled_tasks > 0
    assert report.ttc_s == 2.0 + walltime
    assert [event.time for event in log.by_name("pilot_done")] == [2.0 + walltime]


def _after_pilot_done(log) -> list:
    names = [event.name for event in log.events]
    return log.events[names.index("pilot_done") + 1 :]


def test_no_row_follows_pilot_done_in_a_walltime_cut_run():
    """An interval that would end past the walltime writes neither row: a
    pull and the unit reads after it, as a phase of a launched unit."""
    assert _after_pilot_done(_queued_run(walltime=55.87)) == []
    wf = generate_esmacs(replicas=128)
    config = SimBackendConfig(
        queue_wait=LatencyModel.constant(2.0),
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=3,
        bulk=32,
    )
    request = ResourceRequest(cores=peak_core_demand(wf) // 4, walltime=28.5)
    log = sim_run(wf, request, config)
    assert _after_pilot_done(log) == []
    pulls = len(log.by_name("pull_begin"))
    assert pulls == len(log.by_name("pull_end")) > 0
    assert len(log.by_name("unit_io_begin")) == len(log.by_name("unit_io_end"))


def test_a_translation_past_the_walltime_writes_no_row():
    config = SimBackendConfig(translate_cost=LatencyModel.constant(20.0))
    log = sim_run(
        single_task_workflow(1.0), ResourceRequest(cores=1, walltime=10.0), config
    )
    assert [(event.name, event.time) for event in log.events] == [
        ("submit", 0.0),
        ("pilot_active", 0.0),
        ("canceled", 10.0),
        ("pilot_done", 10.0),
    ]


def test_walltime_cancels_queued_later_stages():
    tasks = [
        TaskSpec(id="short", executable="md", expected_duration=3.0),
        TaskSpec(id="long", executable="md", expected_duration=100.0),
    ]
    wf = Workflow(
        name="two",
        pipelines=[
            Pipeline(
                id="p",
                stages=[
                    Stage(tasks=[tasks[0]]),
                    Stage(tasks=[tasks[1]]),
                ],
            )
        ],
    )
    log = sim_run(wf, ResourceRequest(cores=1, walltime=5.0), SimBackendConfig())
    report = compute_report(log)
    assert report.done_tasks == 1
    assert report.canceled_tasks == 1
    assert report.status == "FAILED"


def test_a_stage_waits_for_the_last_done_of_the_stage_before():
    """The simulator marks a task done when it lays out the task's timeline,
    ahead of its clock; the next stage still starts only at the last done
    event of the stage before."""

    def md(tid: str, duration: float) -> TaskSpec:
        return TaskSpec(id=tid, executable="md", expected_duration=duration)

    stages = [Stage([md("x1", 1.0), md("x2", 2.0)]), Stage([md("y", 5.0)])]
    stages.append(Stage([md("z", 1.0)]))
    wf = Workflow(name="w", pipelines=[Pipeline(id="p", stages=stages)])
    log = sim_run(wf, ResourceRequest(cores=2, walltime=100.0), SimBackendConfig())
    at = {(event.entity, event.name): event.time for event in log.events}
    assert at["y", "translate_begin"] == at["x2", "done"] == 2.0
    assert at["z", "translate_begin"] == at["y", "done"] == 7.0
    assert compute_report(log).done_tasks == 4


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
    third = sim_run(wf, request, dataclasses.replace(config, seed=43))
    assert third.events != first.events


def test_config_dict_round_trip():
    """A literal sim backend object reads back as the config it names."""

    def parse(backend: dict) -> SimBackendConfig:
        data = {"name": "x", "pipeline_counts": [1], "backend": backend}
        return ExperimentConfig.from_dict(data).backend

    assert parse(
        {
            "backend": "sim",
            "total_cores": 4096,
            "queue_wait": {"distribution": "UNIFORM", "low": 1.0, "high": 4.0},
            "fs_latency": {"distribution": "CONSTANT", "value": 0.1},
            "duration_noise": {
                "distribution": "NORMAL_TRUNCATED",
                "mean": 1,
                "stddev": 0.1,
            },
            "bulk": 16,
        }
    ) == SimBackendConfig(
        total_cores=4096,
        queue_wait=LatencyModel.uniform(1.0, 4.0),
        fs_latency=LatencyModel.constant(0.1),
        duration_noise=LatencyModel.normal(1.0, 0.1),
        bulk=16,
    )
    # scalar shorthand for constants; the backend kind defaults to sim
    assert parse({"queue_wait": 2.5}) == SimBackendConfig(
        queue_wait=LatencyModel.constant(2.5)
    )


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


def _queued_run(walltime: float = 1_000_000.0, **latencies):
    """24 pipelines on peak/8 cores: units wait, and noise breaks lockstep.

    ``walltime`` is the pilot's limit; ``latencies`` replace the constant
    latency models.
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
    log = sim_run(workflow, ResourceRequest(cores=cores, walltime=walltime), config)
    assert cores == 24
    return log


def _update_digest(digest, log) -> None:
    for event in log.events:
        digest.update(
            f"{event.time!r},{event.entity},{event.name},"
            f"{event.pipeline},{event.stage}\n".encode()
        )


def test_queued_run_is_byte_identical_to_recorded_digest():
    log = _queued_run()
    digest = hashlib.sha256()
    _update_digest(digest, log)
    assert compute_report(log).done_tasks == 7 * 24
    assert digest.hexdigest() == QUEUED_DIGEST


# sha256 of the queued run cut short by two walltimes: the first cuts units
# in stage_in and exec, the second in exec and stage_out. Stage-in happens
# only in the first two esmacs stages and stage-out only in the last, so no
# single walltime cuts all three phases.
TRUNCATED_DIGEST = (
    "ceb3d433f115de1c8f41736950abd584d66a2f8ad11dd314bcf3afa1abbbb1c5"
)
TRUNCATING_WALLTIMES = (1.25, 55.87)


def _phase_cut(names: list[str]) -> str:
    """The phase a canceled task was in when the walltime cut it."""
    if "exec_end" in names:
        return "stage_out"
    if "stage_in_end" in names:
        return "exec"
    if "schedule" in names:
        return "stage_in"
    return "waiting"


def test_truncated_queued_runs_are_byte_identical_to_recorded_digest():
    digest = hashlib.sha256()
    cuts: set[str] = set()
    for walltime in TRUNCATING_WALLTIMES:
        log = _queued_run(walltime=walltime)
        _update_digest(digest, log)
        by_entity: dict[str, list[str]] = {}
        for event in log.events:
            by_entity.setdefault(event.entity, []).append(event.name)
        cuts.update(
            _phase_cut(names) for names in by_entity.values() if "canceled" in names
        )
    assert {"stage_in", "exec", "stage_out"} <= cuts
    assert digest.hexdigest() == TRUNCATED_DIGEST


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
