"""Latency models for the simulated backend.

Each modeled delay (batch-queue wait, store pulls, filesystem access,
execution-time noise) is described by a small distribution spec. Samplers
are seeded per logical stream so changing how often one kind of latency is
drawn never perturbs the others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class Distribution(str, Enum):
    CONSTANT = "CONSTANT"
    UNIFORM = "UNIFORM"
    NORMAL_TRUNCATED = "NORMAL_TRUNCATED"


@dataclass(frozen=True)
class LatencyModel:
    """Distribution spec: CONSTANT uses ``value``; UNIFORM draws from
    [``low``, ``high``]; NORMAL_TRUNCATED redraws Normal(``mean``, ``stddev``)
    until the sample is non-negative."""

    distribution: Distribution = Distribution.CONSTANT
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    stddev: float = 0.0

    @staticmethod
    def constant(value: float) -> LatencyModel:
        return LatencyModel(distribution=Distribution.CONSTANT, value=value)

    @staticmethod
    def uniform(low: float, high: float) -> LatencyModel:
        return LatencyModel(distribution=Distribution.UNIFORM, low=low, high=high)

    @staticmethod
    def normal(mean: float, stddev: float) -> LatencyModel:
        return LatencyModel(
            distribution=Distribution.NORMAL_TRUNCATED, mean=mean, stddev=stddev
        )

    def validate(self) -> None:
        if self.distribution is Distribution.CONSTANT:
            if self.value < 0:
                raise ValueError("constant latency must be >= 0")
        elif self.distribution is Distribution.UNIFORM:
            if self.low < 0 or self.high < self.low:
                raise ValueError("uniform latency needs 0 <= low <= high")
        else:
            if self.stddev < 0:
                raise ValueError("stddev must be >= 0")

    def to_dict(self) -> dict:
        base = {"distribution": self.distribution.value}
        if self.distribution is Distribution.CONSTANT:
            base["value"] = self.value
        elif self.distribution is Distribution.UNIFORM:
            base.update(low=self.low, high=self.high)
        else:
            base.update(mean=self.mean, stddev=self.stddev)
        return base

    @staticmethod
    def from_dict(data: dict) -> LatencyModel:
        kind = Distribution(data.get("distribution", "CONSTANT"))
        if kind is Distribution.CONSTANT:
            return LatencyModel.constant(float(data.get("value", 0.0)))
        if kind is Distribution.UNIFORM:
            return LatencyModel.uniform(
                float(data.get("low", 0.0)), float(data.get("high", 0.0))
            )
        return LatencyModel.normal(
            float(data.get("mean", 0.0)), float(data.get("stddev", 0.0))
        )


class Sampler:
    """Stateful draw source for one latency model on one named stream."""

    def __init__(self, model: LatencyModel, seed: int, stream: str) -> None:
        model.validate()
        self.model = model
        # Seeding from a string keeps the stream independent of hash
        # randomization and of every other stream.
        self._rng = random.Random(f"{seed}:{stream}")

    def sample(self) -> float:
        model = self.model
        if model.distribution is Distribution.CONSTANT:
            return model.value
        if model.distribution is Distribution.UNIFORM:
            return self._rng.uniform(model.low, model.high)
        while True:
            draw = self._rng.gauss(model.mean, model.stddev)
            if draw >= 0:
                return draw
