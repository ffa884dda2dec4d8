"""Latency model distributions and stream-seeded samplers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.latency import Distribution, LatencyModel, Sampler


def test_constant_reads_back_exactly():
    sampler = Sampler(LatencyModel.constant(0.25), seed=1, stream="queue")
    assert [sampler.sample() for _ in range(5)] == [0.25] * 5


def test_uniform_within_bounds():
    sampler = Sampler(LatencyModel.uniform(1.0, 3.0), seed=1, stream="queue")
    draws = [sampler.sample() for _ in range(200)]
    assert all(1.0 <= d <= 3.0 for d in draws)
    assert len(set(draws)) > 1


def test_truncated_normal_never_negative():
    sampler = Sampler(LatencyModel.normal(0.0, 1.0), seed=3, stream="fs")
    draws = [sampler.sample() for _ in range(500)]
    assert all(d >= 0.0 for d in draws)


def test_same_seed_same_stream_reproduces():
    a = Sampler(LatencyModel.normal(1.0, 0.3), seed=9, stream="noise")
    b = Sampler(LatencyModel.normal(1.0, 0.3), seed=9, stream="noise")
    assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]


def test_streams_are_independent():
    a = Sampler(LatencyModel.uniform(0.0, 1.0), seed=9, stream="pull")
    b = Sampler(LatencyModel.uniform(0.0, 1.0), seed=9, stream="fs")
    assert [a.sample() for _ in range(10)] != [b.sample() for _ in range(10)]


def test_seeds_change_the_draws():
    a = Sampler(LatencyModel.uniform(0.0, 1.0), seed=1, stream="pull")
    b = Sampler(LatencyModel.uniform(0.0, 1.0), seed=2, stream="pull")
    assert [a.sample() for _ in range(10)] != [b.sample() for _ in range(10)]


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        Sampler(LatencyModel.constant(-1.0), seed=0, stream="x")
    with pytest.raises(ValueError):
        Sampler(LatencyModel.uniform(2.0, 1.0), seed=0, stream="x")
    with pytest.raises(ValueError):
        Sampler(LatencyModel.uniform(-1.0, 1.0), seed=0, stream="x")
    with pytest.raises(ValueError):
        Sampler(
            LatencyModel(distribution=Distribution.NORMAL_TRUNCATED, stddev=-0.1),
            seed=0,
            stream="x",
        )


def test_dict_round_trip():
    for model in (
        LatencyModel.constant(0.5),
        LatencyModel.uniform(1.0, 2.0),
        LatencyModel.normal(0.2, 0.05),
    ):
        assert LatencyModel.from_dict(model.to_dict()) == model


@given(
    st.sampled_from(
        [
            LatencyModel.constant(0.125),
            LatencyModel.uniform(0.0, 2.0),
            LatencyModel.normal(0.5, 0.25),
        ]
    ),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60)
def test_samples_always_nonnegative(model, seed):
    sampler = Sampler(model, seed=seed, stream="s")
    assert all(sampler.sample() >= 0.0 for _ in range(50))
