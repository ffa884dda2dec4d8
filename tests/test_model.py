"""Workflow description types, validation, core demand, task state machine
and the event the engine core writes as a task enters each state."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.latency import LatencyModel, Sampler
from pilotflow.model import (
    IllegalTransitionError,
    Pipeline,
    ResourceRequest,
    Stage,
    StagingDirective,
    StagingMode,
    TaskRecord,
    TaskSpec,
    TaskState,
    Workflow,
    WorkflowValidationError,
    advance_task_state,
    peak_core_demand,
    validate_workflow,
)
from pilotflow.runtime import EngineCore


def make_task(tid: str, cores: int = 1, duration: float = 0.0) -> TaskSpec:
    return TaskSpec(
        id=tid,
        executable="sleep",
        arguments=("0",),
        cores=cores,
        expected_duration=duration,
    )


def make_workflow(widths_per_pipeline: list[list[list[int]]]) -> Workflow:
    """Build a workflow from nested core widths: pipelines -> stages -> tasks."""
    pipelines = []
    for p, stages in enumerate(widths_per_pipeline):
        stage_objs = []
        for s, widths in enumerate(stages):
            tasks = [
                make_task(f"t-{p}-{s}-{i}", cores=w) for i, w in enumerate(widths)
            ]
            stage_objs.append(Stage(tasks=tasks))
        pipelines.append(Pipeline(id=f"p-{p}", stages=stage_objs))
    return Workflow(name="wf", pipelines=pipelines)


# --- validation ---------------------------------------------------------


def test_valid_workflow_passes():
    wf = make_workflow([[[1], [2, 2]], [[4]]])
    assert validate_workflow(wf) == ()


def test_empty_workflow_rejected():
    violations = validate_workflow(Workflow(name="empty", pipelines=[]))
    assert violations
    assert any("no pipelines" in v for v in violations)


def test_empty_stage_rejected():
    wf = Workflow(
        name="wf",
        pipelines=[Pipeline(id="p", stages=[Stage(tasks=[])])],
    )
    violations = validate_workflow(wf)
    assert any("empty stage" in v for v in violations)


def test_duplicate_task_id_rejected():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id="p",
                stages=[Stage(tasks=[make_task("dup"), make_task("dup")])],
            )
        ],
    )
    violations = validate_workflow(wf)
    assert any("duplicate task id 'dup'" in v for v in violations)


def test_duplicate_pipeline_id_rejected():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="p", stages=[Stage(tasks=[make_task("a")])]),
            Pipeline(id="p", stages=[Stage(tasks=[make_task("b")])]),
        ],
    )
    violations = validate_workflow(wf)
    assert any("duplicate pipeline id" in v for v in violations)


def test_nonpositive_cores_rejected():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="p", stages=[Stage(tasks=[make_task("a", cores=0)])])
        ],
    )
    violations = validate_workflow(wf)
    assert any("cores must be >= 1" in v for v in violations)


def test_negative_duration_rejected():
    task = make_task("a")
    bad = TaskSpec(
        id="a",
        executable=task.executable,
        expected_duration=-1.0,
    )
    wf = Workflow(
        name="wf", pipelines=[Pipeline(id="p", stages=[Stage(tasks=[bad])])]
    )
    violations = validate_workflow(wf)
    assert any("expected_duration" in v for v in violations)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_duration_rejected(duration):
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(
                id="p",
                stages=[Stage(tasks=[make_task("a", duration=duration)])],
            )
        ],
    )
    violations = validate_workflow(wf)
    assert any("expected_duration must be finite" in v for v in violations)


def test_empty_staging_path_rejected():
    bad = TaskSpec(
        id="a",
        executable="md",
        inputs=(StagingDirective("", "target", StagingMode.COPY_IN),),
    )
    wf = Workflow(
        name="wf", pipelines=[Pipeline(id="p", stages=[Stage(tasks=[bad])])]
    )
    violations = validate_workflow(wf)
    assert any("empty source/target" in v for v in violations)


def test_all_violations_collected():
    wf = Workflow(
        name="wf",
        pipelines=[
            Pipeline(id="p", stages=[]),
            Pipeline(id="p", stages=[Stage(tasks=[])]),
        ],
    )
    violations = validate_workflow(wf)
    assert len(violations) >= 3


# --- peak core demand -----------------------------------------------------


def peak_demand_oracle(wf: Workflow) -> int:
    """Exhaustive second implementation: try every combination of one
    concurrently-running stage per pipeline and take the widest total."""
    per_pipeline_stage_widths = [
        [sum(t.cores for t in stage.tasks) for stage in pipeline.stages]
        for pipeline in wf.pipelines
    ]
    best = 0
    for combo in itertools.product(*per_pipeline_stage_widths):
        best = max(best, sum(combo))
    return best


def test_peak_demand_single_task():
    assert peak_core_demand(make_workflow([[[1]]])) == 1


def test_peak_demand_mixed_pipelines():
    # widest stages: 5, 1, 4
    wf = make_workflow([[[2], [5], [3]], [[1], [1]], [[4]]])
    assert peak_core_demand(wf) == 10
    assert peak_demand_oracle(wf) == 10


def test_peak_demand_ensemble_profile():
    # eight identical pipelines whose widest stage needs 8 cores
    profile = [[[1], [1], [8], [8], [8], [8], [1]] for _ in range(8)]
    wf = make_workflow(profile)
    assert peak_core_demand(wf) == 64
    assert peak_demand_oracle(wf) == 64


def test_peak_demand_multi_task_stage():
    wf = make_workflow([[[2, 3, 4]]])
    assert peak_core_demand(wf) == 9


def test_peak_demand_rejects_invalid():
    with pytest.raises(WorkflowValidationError):
        peak_core_demand(Workflow(name="bad", pipelines=[]))


@st.composite
def workflows(draw):
    shape = draw(
        st.lists(
            st.lists(
                st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return make_workflow(shape)


@given(workflows())
@settings(max_examples=100)
def test_peak_demand_matches_oracle(wf):
    assert peak_core_demand(wf) == peak_demand_oracle(wf)


@given(workflows(), st.randoms())
@settings(max_examples=50)
def test_peak_demand_pipeline_order_invariant(wf, rng):
    baseline = peak_core_demand(wf)
    shuffled = list(wf.pipelines)
    rng.shuffle(shuffled)
    assert peak_core_demand(Workflow(name="wf", pipelines=shuffled)) == baseline


# --- task state machine ---------------------------------------------------

LEGAL_PATH = [
    (TaskState.TRANSLATED, "translate_end"),
    (TaskState.SCHEDULED, "schedule"),
    (TaskState.STAGING_IN, "stage_in_begin"),
    (TaskState.EXECUTING, "exec_begin"),
    (TaskState.STAGING_OUT, "stage_out_begin"),
    (TaskState.DONE, "done"),
]


def fresh_record() -> TaskRecord:
    """The record fresh_core gives t0: entity code 1, after the pilot's 0."""
    return TaskRecord(task=make_task("t0"), code=1)


def fresh_core() -> EngineCore:
    """A core whose one task, t0, is pipeline p0's stage 0."""
    workflow = Workflow("wf", [Pipeline("p0", [Stage([make_task("t0")])])])
    pull = Sampler(LatencyModel.constant(0.0), 0, "pull")
    return EngineCore(workflow, ResourceRequest(cores=1, walltime=60.0), pull)


def test_happy_path_states_and_events():
    core = fresh_core()
    record = core.tracker.record_for("t0")
    for step, (state, _) in enumerate(LEGAL_PATH):
        core.enter(record, state, float(step))
        assert record.state is state
    names = [e.name for e in core.sink.events()]
    assert names == ["submit", *(name for _, name in LEGAL_PATH)]


def test_skipping_a_state_is_illegal():
    record = fresh_record()
    with pytest.raises(IllegalTransitionError) as excinfo:
        advance_task_state(record, TaskState.SCHEDULED)
    assert "NEW" in str(excinfo.value)
    assert "SCHEDULED" in str(excinfo.value)
    assert record.state is TaskState.NEW


def test_terminal_states_absorb():
    for terminal in (TaskState.FAILED, TaskState.CANCELED):
        record = fresh_record()
        advance_task_state(record, terminal)
        with pytest.raises(IllegalTransitionError):
            advance_task_state(record, TaskState.TRANSLATED)


def test_done_absorbs():
    record = fresh_record()
    for state, _ in LEGAL_PATH:
        advance_task_state(record, state)
    assert record.state is TaskState.DONE
    with pytest.raises(IllegalTransitionError):
        advance_task_state(record, TaskState.FAILED)


def test_failure_reachable_from_every_nonterminal_state():
    for depth in range(len(LEGAL_PATH)):
        record = fresh_record()
        for state, _ in LEGAL_PATH[:depth]:
            advance_task_state(record, state)
        if record.state.is_terminal:
            continue
        advance_task_state(record, TaskState.FAILED)
        assert record.state is TaskState.FAILED


def test_cancel_reachable_from_every_nonterminal_state():
    for depth in range(len(LEGAL_PATH)):
        record = fresh_record()
        for state, _ in LEGAL_PATH[:depth]:
            advance_task_state(record, state)
        if record.state.is_terminal:
            continue
        advance_task_state(record, TaskState.CANCELED)
        assert record.state is TaskState.CANCELED


# Independent statement of the whole transition relation, written out by
# hand so the tests below do not share code with the implementation.
FORWARD_SUCCESSOR = {
    TaskState.NEW: TaskState.TRANSLATED,
    TaskState.TRANSLATED: TaskState.SCHEDULED,
    TaskState.SCHEDULED: TaskState.STAGING_IN,
    TaskState.STAGING_IN: TaskState.EXECUTING,
    TaskState.EXECUTING: TaskState.STAGING_OUT,
    TaskState.STAGING_OUT: TaskState.DONE,
}
TERMINALS = {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED}


def transition_is_legal(current: TaskState, target: TaskState) -> bool:
    if FORWARD_SUCCESSOR.get(current) is target:
        return True
    return current not in TERMINALS and target in (
        TaskState.FAILED,
        TaskState.CANCELED,
    )


ENTRY_EVENT = {
    **dict(LEGAL_PATH),
    TaskState.FAILED: "failed",
    TaskState.CANCELED: "canceled",
}


@pytest.mark.parametrize(
    "current, target", list(itertools.product(TaskState, TaskState))
)
def test_every_state_pair_follows_the_table(current, target):
    """``advance_task_state`` makes exactly the table's moves; the core's
    ``enter`` makes the same ones and writes one entry event for each."""
    record = fresh_record()
    core = fresh_core()
    entered = core.tracker.record_for("t0")
    record.state = entered.state = current
    before = dataclasses.replace(record)
    if transition_is_legal(current, target):
        assert advance_task_state(record, target) is record
        core.enter(entered, target, 2.5)
        assert record.state is entered.state is target
        [_submit, event] = core.sink.events()
        assert event == (2.5, "t0", ENTRY_EVENT[target], "p0", 0)
    else:
        with pytest.raises(IllegalTransitionError):
            advance_task_state(record, target)
        with pytest.raises(IllegalTransitionError):
            core.enter(entered, target, 2.5)
        assert record == entered == before
        assert [e.name for e in core.sink.events()] == ["submit"]


@given(st.lists(st.sampled_from(list(TaskState)), max_size=12))
@settings(max_examples=200)
def test_random_event_sequences_follow_the_table(targets):
    record = fresh_record()
    for target in targets:
        before = record.state
        if transition_is_legal(before, target):
            advance_task_state(record, target)
            assert record.state is target
        else:
            with pytest.raises(IllegalTransitionError):
                advance_task_state(record, target)
            assert record.state is before


def test_description_objects_carry_no_instance_dict():
    task = make_task("t")
    stage = Stage(tasks=[task])
    pipeline = Pipeline(id="p", stages=[stage])
    for value in (task, stage, pipeline, Workflow(name="w", pipelines=[pipeline])):
        assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.cores = 2
