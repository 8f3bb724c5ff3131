"""Seeded randomness helpers for reproducible simulations.

Every stochastic quantity in the paper's evaluation — critical-section
length, inter-request idle time, network latency, request mode, entry
choice — draws from an independent, deterministically derived stream so
that changing one workload knob does not perturb the others (variance
reduction across sweep points).
"""

from __future__ import annotations

import random
from math import log
from typing import Sequence, Tuple, TypeVar

T = TypeVar("T")


def derive_rng(seed: int, *labels: object) -> random.Random:
    """Return a :class:`random.Random` derived from *seed* and *labels*.

    The derivation hashes the labels into the seed deterministically (no
    process salt), so ``derive_rng(7, "latency", 3)`` is the same stream in
    every run and every process.
    """

    digest = seed & 0xFFFFFFFF
    for label in labels:
        for char in repr(label):
            digest = (digest * 1_000_003 + ord(char)) & 0xFFFFFFFFFFFF
    return random.Random(digest)


class Distribution:
    """A positive-valued distribution with a known mean."""

    def __init__(self, mean: float) -> None:
        if not 0 <= mean < float("inf"):
            raise ValueError("mean must be finite and non-negative")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        """Draw one value."""

        raise NotImplementedError


class Exponential(Distribution):
    """Exponential inter-arrival/latency model (memoryless, heavy-ish tail)."""

    def sample(self, rng: random.Random) -> float:
        if self.mean == 0:
            return 0.0
        # ``rng.expovariate(1.0 / mean)`` without its frame: the same
        # formula (CPython 3.10-3.13), so the same bits per draw.
        return -log(1.0 - rng.random()) / (1.0 / self.mean)


class Uniform(Distribution):
    """Uniform on ``[low, high]``; mean is ``(low + high) / 2``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high < float("inf"):
            raise ValueError("need 0 <= low <= high < inf")
        super().__init__((low + high) / 2.0)
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class Fixed(Distribution):
    """Degenerate distribution: always the mean (useful in tests)."""

    def sample(self, rng: random.Random) -> float:
        return self.mean


def weighted_choice(
    rng: random.Random, items: Sequence[Tuple[T, float]]
) -> T:
    """Pick one item according to its weight (weights need not sum to 1)."""

    total = sum(weight for _item, weight in items)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.uniform(0.0, total)
    acc = 0.0
    for item, weight in items:
        acc += weight
        if point <= acc:
            return item
    return items[-1][0]
