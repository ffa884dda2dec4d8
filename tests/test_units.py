"""Unit descriptions, the wire format, and the pull store."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow import codec
from pilotflow.latency import LatencyModel, Sampler
from pilotflow.model import (
    ResourceRequest,
    StagingDirective,
    StagingMode,
    TaskKind,
    TaskSpec,
    peak_core_demand,
)
from pilotflow.simbackend import SimBackendConfig, sim_run
from pilotflow.units import (
    TaskStore,
    UnitDescription,
    UnitIdAllocator,
    translate_task,
)

from helpers import generate_esmacs


def make_task(tid: str = "t1") -> TaskSpec:
    return TaskSpec(
        id=tid,
        executable="md",
        arguments=("equilibrate",),
        cores=8,
        expected_duration=5.5,
        inputs=(StagingDirective("input/params.dat", "params.dat", StagingMode.COPY_IN),),
        outputs=(StagingDirective("output", "results/r1.tar", StagingMode.TAR_OUT),),
    )


def test_translate_carries_every_field():
    task = make_task()
    unit = translate_task(task, UnitIdAllocator())
    assert unit.uid == "unit.000000"
    # A unit is the task's own spec under a uid, and nothing more.
    assert unit.task is task
    assert [field.name for field in dataclasses.fields(unit)] == ["uid", "task"]
    assert unit.task.id == "t1"
    assert unit.task.executable == "md"
    assert unit.task.arguments == ("equilibrate",)
    assert unit.task.cores == 8
    assert unit.task.expected_duration == 5.5
    assert unit.task.inputs[0].mode is StagingMode.COPY_IN
    assert unit.task.outputs[0].mode is StagingMode.TAR_OUT


def test_allocator_ids_are_sequential():
    allocator = UnitIdAllocator()
    ids = [
        translate_task(make_task(f"t{i}"), allocator).uid for i in range(3)
    ]
    assert ids == ["unit.000000", "unit.000001", "unit.000002"]


# The wire form of esmacs LOCAL replica 2's last unit, which stages out.
ESMACS_TAR_OUT_WIRE = (
    '{"task": {"arguments": ["-c", "sleep 0.25 && mkdir -p output && echo '
    'tar-output r2 >> output/tar-output.log"], "cores": 1, "executable": '
    '"/bin/sh", "expected_duration": 0.25, "id": "esmacs-p2-s7", "inputs": [], '
    '"outputs": [{"mode": "TAR_OUT", "source": "output", "target": '
    '"output/results-r2.tar"}]}, "uid": "unit.000000"}'
)


def test_wire_round_trip_is_lossless():
    unit = translate_task(make_task(), UnitIdAllocator())
    assert UnitDescription.from_wire(unit.to_wire()) == unit
    pipeline = generate_esmacs(replicas=2, kind=TaskKind.LOCAL_EXEC).pipelines[1]
    unit = translate_task(pipeline.stages[6].tasks[0], UnitIdAllocator())
    assert unit.to_wire() == ESMACS_TAR_OUT_WIRE
    assert UnitDescription.from_wire(ESMACS_TAR_OUT_WIRE) == unit


def test_codec_round_trips_a_slotted_dataclass():
    """A slotted dataclass has no instance dict; ``to_json`` reads its fields."""
    task = make_task()
    assert not hasattr(task, "__dict__")
    data = codec.to_json(task)
    assert list(data) == [field.name for field in dataclasses.fields(TaskSpec)]
    assert data["inputs"] == [
        {"source": "input/params.dat", "target": "params.dat", "mode": "COPY_IN"}
    ]
    assert codec.read(TaskSpec, data, "task") == task


# The simulator uses translate_task's unit as built, the local backend its
# wire round trip; the two agree only if the round trip is lossless.
directives = st.lists(
    st.builds(StagingDirective, st.text(), st.text(), st.sampled_from(StagingMode)),
    max_size=3,
).map(tuple)
durations = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    # negative zero, the smallest subnormal and normal, the largest finite
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@given(
    task=st.builds(
        TaskSpec,
        id=st.text(),
        executable=st.text(),
        arguments=st.lists(st.text(), max_size=4).map(tuple),
        cores=st.integers(min_value=1, max_value=2**40),
        expected_duration=durations,
        inputs=directives,
        outputs=directives,
    ),
)
@settings(max_examples=300)
def test_wire_round_trip_is_lossless_for_generated_tasks(task):
    unit = translate_task(task, UnitIdAllocator())
    back = UnitDescription.from_wire(unit.to_wire())
    assert back == unit
    # == cannot tell -0.0 from 0.0; the repr can.
    assert repr(back.task.expected_duration) == repr(unit.task.expected_duration)


def test_sim_run_never_uses_the_wire_format(monkeypatch):
    workflow = generate_esmacs(replicas=4)
    request = ResourceRequest(cores=peak_core_demand(workflow) // 2, walltime=1e6)
    config = SimBackendConfig(
        pull_latency=LatencyModel.constant(0.25),
        fs_latency=LatencyModel.constant(0.125),
        translate_cost=LatencyModel.uniform(0.001, 0.002),
        duration_noise=LatencyModel.uniform(0.9, 1.1),
        seed=3,
    )
    expected = sim_run(workflow, request, config).events

    def no_wire(*args):
        raise AssertionError("the simulator touched the wire format")

    monkeypatch.setattr(UnitDescription, "to_wire", no_wire)
    monkeypatch.setattr(UnitDescription, "from_wire", staticmethod(no_wire))
    assert repr(sim_run(workflow, request, config).events) == repr(expected)


def zero_latency_store() -> TaskStore:
    return TaskStore(Sampler(LatencyModel.constant(0.0), 0, "pull"))


def filled_store(n: int) -> TaskStore:
    store = zero_latency_store()
    allocator = UnitIdAllocator()
    for i in range(n):
        store.enqueue(translate_task(make_task(f"t{i}"), allocator))
    return store


def test_pull_is_fifo():
    store = filled_store(4)
    units, _ = store.pull(max_bulk=10)
    assert [u.task.id for u in units] == ["t0", "t1", "t2", "t3"]


def test_bulk_limit_respected():
    store = filled_store(5)
    first, _ = store.pull(max_bulk=2)
    second, _ = store.pull(max_bulk=2)
    rest, _ = store.pull(max_bulk=10)
    assert [u.task.id for u in first] == ["t0", "t1"]
    assert [u.task.id for u in second] == ["t2", "t3"]
    assert [u.task.id for u in rest] == ["t4"]
    assert store.pending_count() == 0


def test_one_latency_sample_per_pull():
    store = TaskStore(Sampler(LatencyModel.constant(0.5), 0, "pull"))
    allocator = UnitIdAllocator()
    for i in range(8):
        store.enqueue(translate_task(make_task(f"t{i}"), allocator))
    _, latency = store.pull(max_bulk=8)
    assert latency == 0.5


def test_empty_pull_returns_nothing():
    store = zero_latency_store()
    units, _ = store.pull(max_bulk=4)
    assert units == []


def test_bad_bulk_rejected():
    with pytest.raises(ValueError):
        zero_latency_store().pull(max_bulk=0)
