"""Latency model distributions and stream-seeded samplers."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotflow.experiment import ExperimentConfig, ExperimentConfigError
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
    # Every draw negative: sampling would never return. Nothing is drawn here.
    with pytest.raises(ValueError, match="mean must be >= 0"):
        Sampler(LatencyModel.normal(-1.0, 0.0), 0, "x")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "distribution, name",
    [
        (Distribution.CONSTANT, "value"),
        (Distribution.UNIFORM, "low"),
        (Distribution.UNIFORM, "high"),
        (Distribution.NORMAL_TRUNCATED, "mean"),
        (Distribution.NORMAL_TRUNCATED, "stddev"),
    ],
)
def test_non_finite_parameters_rejected(distribution, name, bad):
    valid = {"value": 0.5, "low": 0.5, "high": 1.0, "mean": 0.5, "stddev": 0.1}
    model = LatencyModel(distribution=distribution, **{**valid, name: bad})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        model.validate()


def parse(latency: object) -> LatencyModel:
    """A latency as the experiment config reads it."""
    data = {"name": "x", "pipeline_counts": [1], "backend": {"queue_wait": latency}}
    return ExperimentConfig.from_dict(data).backend.queue_wait


def test_dict_round_trip():
    """Literal latency dicts, and the scalar shorthand, read back as the models they name."""
    assert parse({"distribution": "CONSTANT", "value": 0.5}) == LatencyModel.constant(
        0.5
    )
    assert parse({"value": 2}) == LatencyModel.constant(2.0)
    assert parse(0.25) == LatencyModel.constant(0.25)
    assert parse(
        {"distribution": "UNIFORM", "low": 1.0, "high": 2.0}
    ) == LatencyModel.uniform(1.0, 2.0)
    assert parse(
        {"distribution": "NORMAL_TRUNCATED", "mean": 0.2, "stddev": 0.05}
    ) == LatencyModel.normal(0.2, 0.05)


@pytest.mark.parametrize(
    "latency, named",
    [
        ({"distribution": "uniform", "low": 1.0, "high": 2.0}, "'uniform'"),
        ({"dist": "uniform", "low": 1.0, "high": 2.0}, "'dist'"),
        ({"distribution": "UNIFORM", "value": 1.0}, "'value'"),
        ({"distribution": "NORMAL_TRUNCATED", "mean": "0.2"}, "mean"),
        ({"value": True}, "value"),
        (-1.0, "-1.0"),
        ({"distribution": "UNIFORM", "low": 2.0, "high": 1.0}, "low <= high"),
        ({"distribution": "NORMAL_TRUNCATED", "stddev": -0.5}, "-0.5"),
        ("fast", "'fast'"),
        # Python's json reads NaN and Infinity.
        (float("nan"), "value must be finite"),
        (float("inf"), "value must be finite"),
        ({"distribution": "UNIFORM", "high": float("inf")}, "high must be finite"),
        (
            {"distribution": "NORMAL_TRUNCATED", "mean": float("nan")},
            "mean must be finite",
        ),
    ],
)
def test_config_rejects_latencies_it_would_not_read(latency, named):
    with pytest.raises(ExperimentConfigError, match=re.escape(named)):
        parse(latency)


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
