"""Tests for the seeded randomness helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import (
    Exponential,
    Fixed,
    Uniform,
    derive_rng,
    weighted_choice,
)


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        a = derive_rng(7, "latency", 3)
        b = derive_rng(7, "latency", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        a = derive_rng(7, "latency", 3)
        b = derive_rng(7, "latency", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_different_streams(self):
        a = derive_rng(7, "x")
        b = derive_rng(8, "x")
        assert a.random() != b.random()


class TestDistributions:
    def test_fixed_returns_mean(self):
        dist = Fixed(0.15)
        rng = derive_rng(1)
        assert all(dist.sample(rng) == 0.15 for _ in range(10))

    def test_exponential_mean_converges(self):
        dist = Exponential(0.150)
        rng = derive_rng(2)
        samples = [dist.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.150, rel=0.05)

    def test_exponential_zero_mean_is_zero(self):
        dist = Exponential(0.0)
        assert dist.sample(derive_rng(3)) == 0.0

    @pytest.mark.parametrize("mean", [1e-9, 0.001, 0.15, 0.5, 1.0, 3.0, 1e6])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2003, 2**31 - 1])
    def test_exponential_draws_what_expovariate_draws(self, seed, mean):
        """``Exponential.sample`` inlines ``random.expovariate``: the same
        bits per draw, and the same stream afterwards."""

        ours, stdlib = random.Random(seed), random.Random(seed)
        dist = Exponential(mean)
        drawn = [dist.sample(ours) for _ in range(200)]
        expected = [stdlib.expovariate(1.0 / mean) for _ in range(200)]
        assert [x.hex() for x in drawn] == [x.hex() for x in expected]
        assert ours.getstate() == stdlib.getstate()

    def test_uniform_bounds_and_mean(self):
        dist = Uniform(0.1, 0.3)
        rng = derive_rng(4)
        samples = [dist.sample(rng) for _ in range(5_000)]
        assert all(0.1 <= s <= 0.3 for s in samples)
        assert sum(samples) / len(samples) == pytest.approx(0.2, rel=0.05)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(0.3, 0.1)
        with pytest.raises(ValueError):
            Uniform(-1.0, 1.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            Exponential(-0.1)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, mean):
        # Accepted, NaN would fail only at the first send ("cannot
        # schedule into the past (nan)") and infinity at the first draw.
        with pytest.raises(ValueError, match="finite"):
            Exponential(mean)
        with pytest.raises(ValueError, match="finite"):
            Fixed(mean)

    @pytest.mark.parametrize("low, high", [
        (0.0, float("nan")),
        (float("nan"), 1.0),
        (0.0, float("inf")),
        (float("inf"), float("inf")),
    ])
    def test_uniform_non_finite_bounds_rejected(self, low, high):
        with pytest.raises(ValueError):
            Uniform(low, high)


class TestWeightedChoice:
    def test_single_item(self):
        rng = derive_rng(5)
        assert weighted_choice(rng, [("only", 1.0)]) == "only"

    def test_zero_total_weight_rejected(self):
        rng = derive_rng(6)
        with pytest.raises(ValueError):
            weighted_choice(rng, [("a", 0.0)])

    def test_frequencies_match_weights(self):
        rng = derive_rng(7)
        items = [("a", 0.8), ("b", 0.15), ("c", 0.05)]
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(20_000):
            counts[weighted_choice(rng, items)] += 1
        assert counts["a"] / 20_000 == pytest.approx(0.8, abs=0.02)
        assert counts["b"] / 20_000 == pytest.approx(0.15, abs=0.02)
        assert counts["c"] / 20_000 == pytest.approx(0.05, abs=0.01)

    @given(weights=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6
    ))
    def test_always_returns_an_item(self, weights):
        rng = derive_rng(8)
        items = [(i, w) for i, w in enumerate(weights)]
        assert weighted_choice(rng, items) in [i for i, _w in items]
