"""Model tests: forward heads, losses, analytic gradients, Adam, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixbudget.corpus import SyntheticConfig, generate_synthetic_pool
from mixbudget.model import (
    HEADS,
    ClassifierParams,
    adam_step,
    batch_multilabel_bce,
    batch_soft_cross_entropy,
    forward_multilabel,
    forward_softmax,
    grad_batch,
    init_adam,
    init_params,
    load_checkpoint,
    predict_types,
    save_checkpoint,
)


def identity_net(k, head="softmax"):
    """Final-layer-only model that passes its input through as logits."""
    return ClassifierParams(weights=[np.eye(k)], biases=[np.zeros(k)], head=head)


def zero_net(d, hidden, k, head="softmax"):
    params = init_params(d, hidden, k, head, seed=0)
    for W in params.weights:
        W[:] = 0.0
    return params


def finite_difference(params, loss_fn, h=1e-5):
    """Central finite differences over every coordinate of ``params.flat``."""
    flat = params.flat
    g = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        lp = loss_fn()
        flat[j] = orig - h
        lm = loss_fn()
        flat[j] = orig
        g[j] = (lp - lm) / (2 * h)
    return g


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestForwardSoftmax:
    def test_zero_parameters_give_uniform(self):
        params = zero_net(4, (8,), 3)
        p = forward_softmax(params, np.zeros(4))
        assert np.allclose(p, [1 / 3] * 3, atol=1e-12)
        p = forward_softmax(params, np.random.default_rng(0).normal(size=4))
        assert np.allclose(p, [1 / 3] * 3, atol=1e-12)

    def test_closed_form_logits(self):
        params = identity_net(3)
        p = forward_softmax(params, np.array([math.log(2), 0.0, 0.0]))
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        params = init_params(6, (16,), 4, seed=3)
        P = forward_softmax(params, rng.normal(scale=5.0, size=(50, 6)))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(P >= 0)

    def test_shape_mismatch_raises(self):
        params = init_params(4, (8,), 3, seed=0)
        with pytest.raises(ValueError, match="feature dim"):
            forward_softmax(params, np.zeros(5))


class TestSoftCrossEntropy:
    def test_self_entropy_of_uniform(self):
        u = np.ones((1, 3)) / 3
        assert batch_soft_cross_entropy(u, u) == pytest.approx(math.log(3), abs=1e-12)

    def test_perfect_one_hot(self):
        one_hot = np.array([[1.0, 0.0, 0.0]])
        assert batch_soft_cross_entropy(one_hot, one_hot) == pytest.approx(0.0, abs=1e-9)

    def test_half_mass_on_gold(self):
        assert batch_soft_cross_entropy(
            np.array([[0.5, 0.3, 0.2]]), np.array([[1.0, 0.0, 0.0]])
        ) == pytest.approx(math.log(2), abs=1e-12)

    def test_bounded_below_by_target_entropy(self):
        # CE(t, p) = H(t) + KL(t || p) >= H(t), equality iff p = t
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.dirichlet(np.ones(4), size=1)
            p = rng.dirichlet(np.ones(4), size=1)
            h_t = -np.sum(t[t > 0] * np.log(t[t > 0]))
            assert batch_soft_cross_entropy(p, t) >= h_t - 1e-12
            assert batch_soft_cross_entropy(t, t) == pytest.approx(h_t, abs=1e-12)


class TestGradBatch:
    def test_stationary_point_has_zero_gradient(self):
        params = zero_net(4, (8,), 3)
        x = np.array([0.3, -0.2, 0.5, 1.0])
        target = forward_softmax(params, x)  # uniform
        _, grads = grad_batch(params, x[None, :], target[None, :])
        # pred == target makes the output-layer residual vanish
        assert np.allclose(grads[-1], 0.0, atol=1e-15)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(20):
            params = init_params(4, (5,), 3, seed=trial)
            X = rng.normal(size=(4, 4))
            T = rng.dirichlet(np.ones(3), size=4)
            loss, grads = grad_batch(params, X, T)
            numeric = finite_difference(params, lambda: grad_batch(params, X, T)[0])
            worst = max(worst, max_rel_err(grads, numeric))
        assert worst < 1e-4

    def test_replicated_batch_equals_single_example(self):
        params = init_params(3, (6,), 3, seed=2)
        x = np.array([0.1, 0.9, -0.4])
        t = np.array([0.2, 0.5, 0.3])
        _, g1 = grad_batch(params, x[None, :], t[None, :])
        _, gn = grad_batch(params, np.tile(x, (7, 1)), np.tile(t, (7, 1)))
        for a, b in zip(g1, gn):
            assert np.allclose(a, b, atol=1e-12)

    def test_empty_batch_raises(self):
        params = init_params(3, (6,), 3, seed=2)
        with pytest.raises(ValueError, match="empty batch"):
            grad_batch(params, np.zeros((0, 3)), np.zeros((0, 3)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = init_params(3, (4,), 2, seed=0)
        state = init_adam(params, lr=0.1)
        before = [a.copy() for a in params.arrays()]
        adam_step(params, state, np.zeros_like(params.flat))
        assert state.step == 1
        for a, b in zip(params.arrays(), before):
            assert np.array_equal(a, b)

    def test_first_step_matches_hand_computation(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([0.5, -0.5])
        params = ClassifierParams(weights=[W.copy()], biases=[b.copy()])
        state = init_adam(params, lr=0.01)
        gW = np.array([[0.3, -0.7], [0.0, 2.0]])
        gb = np.array([-1.0, 0.25])
        adam_step(params, state, np.concatenate([gW.ravel(), gb]))
        # from zero moments: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        for before, after, g in ((W, params.weights[0], gW), (b, params.biases[0], gb)):
            expected = before - 0.01 * g / (np.abs(g) + 1e-8)
            assert np.allclose(after, expected, atol=1e-12)

    def test_identical_blocks_update_identically(self):
        W = np.random.default_rng(4).normal(size=(3, 3))
        params = ClassifierParams(
            weights=[W.copy(), W.copy()], biases=[np.zeros(3), np.zeros(3)]
        )
        state = init_adam(params, lr=0.05)
        g = np.random.default_rng(5).normal(size=(3, 3))
        gb = np.random.default_rng(6).normal(size=3)
        for _ in range(3):
            adam_step(params, state, np.concatenate([g.ravel(), gb, g.ravel(), gb]))
        assert np.array_equal(params.weights[0], params.weights[1])
        assert np.array_equal(params.biases[0], params.biases[1])


class TestMultilabelHead:
    def test_zero_parameters_score_half(self):
        params = zero_net(4, (8,), 5, head="sigmoid")
        s = forward_multilabel(params, np.ones(4))
        assert np.allclose(s, 0.5, atol=1e-12)

    def test_monotone_in_own_logit(self):
        params = identity_net(3, head="sigmoid")
        lo = forward_multilabel(params, np.array([0.0, 1.0, -1.0]))
        hi = forward_multilabel(params, np.array([0.5, 1.0, -1.0]))
        assert hi[0] > lo[0]
        assert hi[1] == lo[1] and hi[2] == lo[2]

    def test_scores_in_open_interval(self):
        rng = np.random.default_rng(8)
        params = init_params(6, (12,), 9, head="sigmoid", seed=1)
        S = forward_multilabel(params, rng.normal(size=(30, 6)))
        assert np.all(S > 0) and np.all(S < 1)

    def test_bce_perfect_prediction(self):
        scores = np.array([[1 - 1e-12, 1e-12, 1e-12]])
        assert batch_multilabel_bce(scores, np.array([[1.0, 0.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bce_single_positive_at_half(self):
        assert batch_multilabel_bce(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_bce_negative_down_weighting(self):
        # one negative at score 0.5: loss = w_neg * ln 2 / n_types
        assert batch_multilabel_bce(np.array([[0.5]]), np.array([[0.0]]), w_neg=0.1) == pytest.approx(
            0.1 * math.log(2), abs=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for trial in range(20):
            params = init_params(4, (5,), 6, head="sigmoid", seed=trial)
            X = rng.normal(size=(3, 4))
            Y = (rng.random((3, 6)) < 0.4).astype(float)
            loss, grads = grad_batch(params, X, Y, w_neg=0.1)
            numeric = finite_difference(params, lambda: grad_batch(params, X, Y, 0.1)[0])
            worst = max(worst, max_rel_err(grads, numeric))
        assert worst < 1e-4


class TestPredictTypes:
    def test_above_threshold(self):
        assert predict_types([0.9, 0.6, 0.1], 0.5) == {0, 1}

    def test_fallback_to_argmax_when_empty(self):
        assert predict_types([0.2, 0.1, 0.4], 0.5) == {2}

    def test_extreme_threshold_gives_singleton(self):
        assert predict_types([0.3, 0.9, 0.8], 0.9999) == {1}

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            predict_types([0.5], 1.0)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        params = init_params(5, (7, 4), 3, seed=11)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path, ("a", "b", "c"), seed=11)
        loaded, header = load_checkpoint(path)
        assert header["seed"] == 11
        assert loaded.head == params.head
        for a, b in zip(loaded.arrays(), params.arrays()):
            assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hidden=st.lists(st.integers(1, 6), max_size=3), head=st.sampled_from(sorted(HEADS)),
           seed=st.integers(0, 1000), n_bytes=st.integers(1, 16))
    def test_round_trip_byte_stable_and_body_length_checked(self, tmp_path, hidden, head, seed, n_bytes):
        names = ("a", "b", "c", "d")
        params = init_params(3, tuple(hidden), len(names), head, seed=seed)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path, names, seed=seed)
        saved = path.read_bytes()
        loaded, _ = load_checkpoint(path)
        assert loaded.head == head
        assert np.array_equal(loaded.flat, params.flat)
        save_checkpoint(loaded, path, names, seed=seed)
        assert path.read_bytes() == saved
        for bad in (saved[:-n_bytes], saved + b"\0" * n_bytes):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="checkpoint body"):
                load_checkpoint(path)

    def test_vocab_hash_changes_with_vocab(self, tmp_path):
        params = init_params(2, (), 2, seed=0)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1, ("x", "y"), seed=0)
        save_checkpoint(params, p2, ("x", "z"), seed=0)
        h1 = load_checkpoint(p1)[1]["vocab_hash"]
        h2 = load_checkpoint(p2)[1]["vocab_hash"]
        assert h1 != h2


class TestOptimizerSanity:
    def test_separable_unanimous_corpus_trains_to_low_loss(self):
        # unambiguous pool: one-hot targets, near-noiseless prototypes
        cfg = SyntheticConfig(
            n_examples=150, k_classes=3, d_feat=4, ambiguous_fraction=0.0,
            dirichlet_sharp=1e9, feature_noise_sigma=0.05, seed=21,
        )
        pool = generate_synthetic_pool(cfg)
        X = np.stack([ex.features for ex in pool])
        T = np.stack([ex.true_dist for ex in pool])
        params = init_params(4, (64,), 3, seed=0)
        state = init_adam(params, lr=1e-2)
        loss = np.inf
        for step in range(2000):
            loss, grads = grad_batch(params, X, T)
            if loss < 0.05:
                break
            adam_step(params, state, grads)
        assert loss < 0.05
