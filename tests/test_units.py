"""Unit descriptions, the wire format, and the pull store."""

from __future__ import annotations

import pytest

from pilotflow.latency import LatencyModel, Sampler
from pilotflow.model import StagingDirective, StagingMode, TaskKind, TaskSpec
from pilotflow.units import (
    TaskStore,
    UnitDescription,
    UnitIdAllocator,
    translate_task,
)


def make_task(tid: str = "t1") -> TaskSpec:
    return TaskSpec(
        id=tid,
        kind=TaskKind.SIMULATED,
        executable="md",
        arguments=("equilibrate",),
        cores=8,
        expected_duration=5.5,
        inputs=(StagingDirective("input/params.dat", "params.dat", StagingMode.COPY_IN),),
        outputs=(StagingDirective("output", "results/r1.tar", StagingMode.TAR_OUT),),
        stage_label="equilibrate",
    )


def test_translate_carries_every_field():
    unit = translate_task(make_task(), "pipe-1", 4, UnitIdAllocator())
    assert unit.uid == "unit.000000"
    assert unit.task_id == "t1"
    assert unit.pipeline_id == "pipe-1"
    assert unit.stage_index == 4
    assert unit.kind is TaskKind.SIMULATED
    assert unit.executable == "md"
    assert unit.arguments == ("equilibrate",)
    assert unit.cores == 8
    assert unit.expected_duration == 5.5
    assert unit.inputs[0].mode is StagingMode.COPY_IN
    assert unit.outputs[0].mode is StagingMode.TAR_OUT


def test_allocator_ids_are_sequential():
    allocator = UnitIdAllocator()
    ids = [
        translate_task(make_task(f"t{i}"), "p", 0, allocator).uid for i in range(3)
    ]
    assert ids == ["unit.000000", "unit.000001", "unit.000002"]


def test_wire_round_trip_is_lossless():
    unit = translate_task(make_task(), "pipe-1", 2, UnitIdAllocator())
    assert UnitDescription.from_wire(unit.to_wire()) == unit


def zero_latency_store() -> TaskStore:
    return TaskStore(Sampler(LatencyModel.constant(0.0), 0, "pull"))


def filled_store(n: int) -> TaskStore:
    store = zero_latency_store()
    allocator = UnitIdAllocator()
    for i in range(n):
        store.enqueue(translate_task(make_task(f"t{i}"), "p", 0, allocator))
    return store


def test_pull_is_fifo():
    store = filled_store(4)
    units, _ = store.pull(max_bulk=10)
    assert [u.task_id for u in units] == ["t0", "t1", "t2", "t3"]


def test_bulk_limit_respected():
    store = filled_store(5)
    first, _ = store.pull(max_bulk=2)
    second, _ = store.pull(max_bulk=2)
    rest, _ = store.pull(max_bulk=10)
    assert [u.task_id for u in first] == ["t0", "t1"]
    assert [u.task_id for u in second] == ["t2", "t3"]
    assert [u.task_id for u in rest] == ["t4"]
    assert store.pending_count() == 0


def test_one_latency_sample_per_pull():
    store = TaskStore(Sampler(LatencyModel.constant(0.5), 0, "pull"))
    allocator = UnitIdAllocator()
    for i in range(8):
        store.enqueue(translate_task(make_task(f"t{i}"), "p", 0, allocator))
    _, latency = store.pull(max_bulk=8)
    assert latency == 0.5


def test_empty_pull_returns_nothing():
    store = zero_latency_store()
    units, _ = store.pull(max_bulk=4)
    assert units == []


def test_bad_bulk_rejected():
    with pytest.raises(ValueError):
        zero_latency_store().pull(max_bulk=0)


def test_completion_requires_prior_pull():
    store = filled_store(1)
    with pytest.raises(RuntimeError):
        store.complete("unit.000000")
    units, _ = store.pull(max_bulk=1)
    store.complete(units[0].uid)
    assert store.completed_count() == 1
    with pytest.raises(RuntimeError):
        store.complete(units[0].uid)
