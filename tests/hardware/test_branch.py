"""Branch-predictor tests: the 2-bit Markov model and gshare."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    GSharePredictor,
    two_bit_mispredict_rate,
    two_bit_stationary_distribution,
)


class TestStationaryDistribution:
    def test_sums_to_one(self):
        for p in (0.0, 0.1, 0.5, 0.73, 1.0):
            assert two_bit_stationary_distribution(p).sum() == pytest.approx(1.0)

    def test_degenerate_cases(self):
        assert two_bit_stationary_distribution(0.0)[0] == 1.0
        assert two_bit_stationary_distribution(1.0)[3] == 1.0

    def test_uniform_at_half(self):
        pi = two_bit_stationary_distribution(0.5)
        assert np.allclose(pi, 0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            two_bit_stationary_distribution(1.5)


class TestMispredictRate:
    def test_peak_at_half(self):
        """Section 4: the prediction task is hardest at 50%."""
        rates = {p: two_bit_mispredict_rate(p) for p in np.linspace(0.01, 0.99, 21)}
        assert max(rates, key=rates.get) == pytest.approx(0.5)
        assert rates[0.5] == pytest.approx(0.5)

    def test_symmetric(self):
        for p in (0.1, 0.25, 0.4):
            assert two_bit_mispredict_rate(p) == pytest.approx(
                two_bit_mispredict_rate(1.0 - p)
            )

    def test_monotone_increasing_to_half(self):
        points = np.linspace(0.0, 0.5, 26)
        rates = [two_bit_mispredict_rate(p) for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_perfectly_biased_branches_never_mispredict(self):
        assert two_bit_mispredict_rate(0.0) == 0.0
        assert two_bit_mispredict_rate(1.0) == 0.0

    def test_close_to_optimal_for_biased_branch(self):
        # A 2-bit counter on Bernoulli(p) is near min(p, 1-p).
        assert two_bit_mispredict_rate(0.1) == pytest.approx(0.11, abs=0.02)


class TestGShare:
    def test_learns_constant_branch(self):
        predictor = GSharePredictor()
        rate = predictor.run(0x400, np.ones(2000, dtype=bool))
        assert rate < 0.01

    def test_learns_alternating_pattern(self):
        """Global history makes periodic patterns nearly free."""
        predictor = GSharePredictor(history_bits=8)
        outcomes = np.tile([True, False], 2000)
        rate = predictor.run(0x400, outcomes)
        assert rate < 0.05

    def test_bernoulli_close_to_two_bit_model(self):
        rng = np.random.default_rng(5)
        for p in (0.1, 0.5, 0.9):
            predictor = GSharePredictor()
            outcomes = rng.random(6000) < p
            rate = predictor.run(0x400, outcomes)
            assert rate == pytest.approx(two_bit_mispredict_rate(p), abs=0.08)

    def test_tracks_counts(self):
        predictor = GSharePredictor()
        predictor.run(0x1, np.array([True, False, True]))
        assert predictor.predictions == 3
        assert 0 <= predictor.mispredictions <= 3
        assert predictor.mispredict_rate == predictor.mispredictions / 3

    def test_reset(self):
        predictor = GSharePredictor()
        predictor.run(0x1, np.ones(10, dtype=bool))
        predictor.reset()
        assert predictor.predictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GSharePredictor(table_bits=0)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_property_rate_bounded_by_half(p):
    rate = two_bit_mispredict_rate(p)
    assert 0.0 <= rate <= 0.5 + 1e-12


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.001, max_value=0.999))
def test_property_rate_at_least_optimal(p):
    """No predictor beats always-guess-the-majority on Bernoulli data."""
    assert two_bit_mispredict_rate(p) >= min(p, 1.0 - p) - 1e-9
