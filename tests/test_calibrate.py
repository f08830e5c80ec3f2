"""Calibration tests: temperature scaling, smoothing, entropy-matched tuning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbudget.calibrate import (
    TEMP_HI,
    TEMP_LO,
    CalibrationConfig,
    CalibrationError,
    calibrated,
    mean_entropy,
    pred_smooth,
    temp_scale,
    tune_entropy_match,
)
from mixbudget.model import softmax


class TestTempScale:
    def test_unit_temperature_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 4))
        assert np.array_equal(temp_scale(logits, 1.0), softmax(logits))

    def test_large_temperature_approaches_uniform(self):
        p = temp_scale(np.array([3.0, 1.0, 0.0]), 1e6)
        assert np.all(np.abs(p - 1 / 3) < 1e-5)

    def test_closed_form(self):
        p = temp_scale(np.array([math.log(4), 0.0]), 2.0)
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_nonpositive_temperature_rejected(self):
        for T in (0.0, -1.0):
            with pytest.raises(CalibrationError):
                temp_scale(np.zeros(3), T)

    def test_argmax_preserved_for_every_temperature(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=3.0, size=(50, 5))
        base = np.argmax(logits, axis=1)
        for T in (1e-3, 0.1, 1.0, 7.0, 1e3):
            assert np.array_equal(np.argmax(temp_scale(logits, T), axis=1), base)

    @settings(max_examples=200, deadline=None)
    @given(logits=st.lists(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
                           min_size=1, max_size=6),
           T=st.floats(1e-3, 1e3))
    def test_argmax_preserved_property(self, logits, T):
        # each row's argmax keeps the row's largest probability; logits closer
        # than the float resolution (0 and 1e-127, say) may become a tie
        Z = np.array(logits)
        P = temp_scale(Z, T)
        rows = np.arange(len(Z))
        assert np.array_equal(P[rows, np.argmax(Z, axis=1)], P.max(axis=1))


class TestPredSmooth:
    def test_zero_mass_is_identity(self):
        d = np.array([0.6, 0.3, 0.1])
        assert np.array_equal(pred_smooth(d, 0.0), d)

    def test_one_hot_example(self):
        out = pred_smooth(np.array([1.0, 0.0, 0.0]), 0.3)
        assert np.allclose(out, [0.8, 0.1, 0.1], atol=1e-12)

    def test_mass_exceeding_argmax_rejected(self):
        with pytest.raises(CalibrationError):
            pred_smooth(np.array([0.5, 0.3, 0.2]), 0.6)

    def test_mass_conserved_and_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = rng.dirichlet(np.ones(4))
            a = float(rng.random() * d.max())
            out = pred_smooth(d, a)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out >= -1e-15)

    def test_argmax_stable_below_algebraic_bound(self):
        # smoothing moves the argmax entry to p_max - a + a/k and every
        # other entry to p_c + a/k, so the argmax survives exactly while
        # a <= p_max - p_second; search for counterexamples on both sides
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            d = rng.dirichlet(np.ones(k))
            order = np.sort(d)[::-1]
            bound = order[0] - order[1]
            a = float(rng.random() * bound * 0.999)
            out = pred_smooth(d, a)
            assert np.argmax(out) == np.argmax(d)

    def test_argmax_flips_above_bound(self):
        d = np.array([0.6, 0.35, 0.05])
        out = pred_smooth(d, 0.3)  # above p_max - p_second = 0.25
        assert np.argmax(out) != np.argmax(d)


class TestTrainSmooth:
    """Train smoothing is ``pred_smooth`` on the one-hot single targets, one
    row per example, as ``make_targets`` applies it."""

    def test_one_hot_example(self):
        out = pred_smooth(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), 0.3)
        assert np.allclose(out, [[0.1, 0.8, 0.1], [0.8, 0.1, 0.1]], atol=1e-12)

    def test_zero_mass_is_identity(self):
        t = np.eye(3)[[1, 0, 2]]
        assert np.array_equal(pred_smooth(t, 0.0), t)

    def test_mass_conserved(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = np.eye(4)[rng.integers(4, size=5)]
            out = pred_smooth(t, float(rng.random()))
            assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestTuneEntropyMatch:
    def test_fixed_point_returns_unit_temperature(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=2.0, size=(200, 3))
        target = mean_entropy(softmax(logits))
        result = tune_entropy_match("temp_scaling", logits, target)
        assert abs(result.scalar - 1.0) < 1e-3
        assert not result.warning

    def test_unreachable_target_warns_at_boundary(self):
        logits = np.array([[3000.0, 1000.0, 0.0]] * 5)
        result = tune_entropy_match("temp_scaling", logits, math.log(3))
        assert result.scalar == 1e3
        assert result.warning

    def test_warning_only_past_the_tolerance(self):
        # a target above the highest attainable entropy warns only when it
        # misses that entropy by more than TUNE_TOL (1e-3 nats)
        logits = np.random.default_rng(7).normal(scale=300.0, size=(50, 3))
        e_hi = mean_entropy(temp_scale(logits, TEMP_HI))
        assert tune_entropy_match("temp_scaling", logits, e_hi + 5e-3).warning
        assert not tune_entropy_match("temp_scaling", logits, e_hi + 5e-4).warning

    def test_overconfident_predictions_raised_to_target(self):
        # construct predictions with mean entropy near 0.414 nats, then
        # ask the tuner for 0.732 nats
        rng = np.random.default_rng(6)
        golds = rng.integers(0, 3, size=400)

        def mean_H(scale):
            logits = scale * np.eye(3)[golds] + 0.05 * rng2.normal(size=(400, 3))
            return logits, mean_entropy(softmax(logits))

        lo, hi = 0.1, 50.0
        for _ in range(80):  # independent bisection for the test fixture
            rng2 = np.random.default_rng(7)
            mid = 0.5 * (lo + hi)
            _, h = mean_H(mid)
            if h > 0.414:
                lo = mid
            else:
                hi = mid
        rng2 = np.random.default_rng(7)
        logits, h0 = mean_H(0.5 * (lo + hi))
        assert abs(h0 - 0.414) < 1e-3

        result = tune_entropy_match("temp_scaling", logits, 0.732)
        assert result.scalar > 1.0
        assert abs(result.achieved_entropy - 0.732) <= 1e-3
        assert not result.warning

    def test_pred_smoothing_tunes_to_target(self):
        rng = np.random.default_rng(8)
        sharp = rng.dirichlet(np.full(3, 0.3), size=300)
        start = mean_entropy(sharp)
        target = min(start + 0.3, math.log(3) * 0.9)
        result = tune_entropy_match("pred_smoothing", sharp, target)
        assert abs(result.achieved_entropy - target) <= 1e-3
        smoothed = pred_smooth(sharp, result.scalar)
        assert mean_entropy(smoothed) == pytest.approx(result.achieved_entropy, abs=1e-12)

    def test_train_smoothing_tunes_one_hot_targets(self):
        onehots = np.eye(3)[np.zeros(50, dtype=int)]
        result = tune_entropy_match("train_smoothing", onehots, 0.5)
        assert abs(result.achieved_entropy - 0.5) <= 1e-3
        assert 0 < result.scalar < 1

    def test_empty_input_rejected(self):
        with pytest.raises(CalibrationError, match="empty"):
            tune_entropy_match("temp_scaling", np.zeros((0, 3)), 0.5)

    def test_target_outside_range_rejected(self):
        with pytest.raises(CalibrationError):
            tune_entropy_match("temp_scaling", np.zeros((2, 3)), math.log(3) + 0.5)

    @pytest.mark.parametrize("method", ["temp_scaling", "pred_smoothing", "train_smoothing"])
    def test_applying_the_tuned_scalar_gives_the_achieved_entropy(self, method):
        # tuning and applying go through one map, so the entropy the tuner reports is the applied one's
        rng = np.random.default_rng(9)
        logits = rng.normal(scale=2.0, size=(100, 3))
        values = {"temp_scaling": logits, "pred_smoothing": softmax(logits),
                  "train_smoothing": np.eye(3)[rng.integers(3, size=100)]}[method]
        result = tune_entropy_match(method, values, 0.8)
        assert mean_entropy(calibrated(method, values, result.scalar)) == result.achieved_entropy

    def test_unknown_method_rejected(self):
        with pytest.raises(CalibrationError, match="unknown calibration method"):
            tune_entropy_match("platt", np.full((2, 3), 1 / 3), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 12), rows=st.integers(1, 8),
           scale=st.floats(1e-3, 1e3), temps=st.lists(st.floats(TEMP_LO, TEMP_HI), min_size=2, max_size=6))
    def test_mean_entropy_monotone_in_temperature(self, data, k, rows, scale, temps):
        # the bisection relies on it: with beta = 1/T, d(entropy)/d(beta) =
        # -beta * Var_p(z) <= 0, so mean entropy never falls as T grows
        unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * k, max_size=rows * k), label="logits")
        logits = scale * np.reshape(unit, (rows, k))
        values = [mean_entropy(temp_scale(logits, T)) for T in sorted(temps)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestCalibrationConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationConfig(method="platt")

    @pytest.mark.parametrize("method, scalar", [("temp_scaling", -1.0), ("temp_scaling", 0.0),
                                                ("pred_smoothing", 2.0), ("train_smoothing", -0.1)])
    def test_scalar_out_of_range_rejected(self, method, scalar):
        with pytest.raises(CalibrationError, match="^scalar must be"):
            CalibrationConfig(method=method, scalar=scalar)

    @pytest.mark.parametrize("method, scalar", [("temp_scaling", 2.0), ("pred_smoothing", 0.0),
                                                ("train_smoothing", 1.0), ("temp_scaling", None)])
    def test_scalar_in_range_accepted(self, method, scalar):
        assert CalibrationConfig(method=method, scalar=scalar).scalar == scalar
