"""Latency models for the simulated backend.

Each modeled delay (batch-queue wait, store pulls, filesystem access,
execution-time noise) is described by a small distribution spec. Samplers
are seeded per logical stream so changing how often one kind of latency is
drawn never perturbs the others.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum


class Distribution(str, Enum):
    CONSTANT = "CONSTANT"
    UNIFORM = "UNIFORM"
    NORMAL_TRUNCATED = "NORMAL_TRUNCATED"


# The LatencyModel fields each distribution reads.
DISTRIBUTION_PARAMETERS = {
    Distribution.CONSTANT: ("value",),
    Distribution.UNIFORM: ("low", "high"),
    Distribution.NORMAL_TRUNCATED: ("mean", "stddev"),
}


@dataclass(frozen=True)
class LatencyModel:
    """Distribution spec: CONSTANT uses ``value``; UNIFORM draws from
    [``low``, ``high``]; NORMAL_TRUNCATED redraws Normal(``mean``, ``stddev``)
    until the sample is non-negative, and needs ``mean >= 0``."""

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
        for name in DISTRIBUTION_PARAMETERS[self.distribution]:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"latency {name} must be finite, got {value}")
        if self.distribution is Distribution.CONSTANT:
            if self.value < 0:
                raise ValueError(f"constant latency must be >= 0, got {self.value}")
        elif self.distribution is Distribution.UNIFORM:
            if self.low < 0 or self.high < self.low:
                raise ValueError("uniform latency needs 0 <= low <= high")
        else:
            # With mean >= 0 each draw is >= 0 with probability >= 1/2, so
            # Sampler.sample's redraw loop ends; below that it may not.
            if self.mean < 0:
                raise ValueError(f"truncated normal mean must be >= 0, got {self.mean}")
            if self.stddev < 0:
                raise ValueError(f"stddev must be >= 0, got {self.stddev}")


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
