"""Model tests: forward heads, losses, analytic gradients, Adam, checkpoints."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixbudget.corpus import BudgetPlan, LabelVocab, SyntheticConfig, allocate_budget, generate_synthetic_pool
from mixbudget.model import (
    HEADS,
    ClassifierParams,
    Workspace,
    adam_step,
    batch_multilabel_bce,
    batch_soft_cross_entropy,
    forward_scores,
    forward_softmax,
    grad_batch,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    softmax,
    threshold_types,
)
from mixbudget.strategies import MixupConfig, StrategySpec, run_strategy

F32_TOL = 32 * np.finfo(np.float32).eps  # float32 against float64: a few float32 roundings, not float64's


def params_of(arrays, head):
    """Params holding ``arrays``, [W0, b0, W1, b1, ...], copied into one float64 vector."""
    return ClassifierParams([a.shape for a in arrays], np.concatenate([np.ravel(a) for a in arrays]), head)


def identity_net(k, head="softmax"):
    """Final-layer-only model that passes its input through as logits."""
    return params_of([np.eye(k), np.zeros(k)], head)


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


class TestParams:
    def test_flat_keeps_its_dtype_and_the_layers_view_it(self):
        flat = np.arange(8, dtype=np.float32)
        params = ClassifierParams([[3, 2], [2]], flat, "sigmoid")
        assert params.flat is flat and params.shapes == [(3, 2), (2,)] and params.n_in == 3
        assert params.weights[0].tolist() == [[0, 1], [2, 3], [4, 5]] and params.biases[0].tolist() == [6, 7]
        assert all(np.shares_memory(a, flat) for a in [*params.weights, *params.biases])

    @pytest.mark.parametrize("shape", [(7,), (9,), (1, 8)])
    def test_flat_must_have_the_length_the_shapes_need(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"flat has shape {shape}, its shapes need (8,)")):
            ClassifierParams([(3, 2), (2,)], np.zeros(shape), "softmax")

    def test_params_compare_by_identity(self):
        params = init_params(3, (2,), 2)
        assert params == params and params != init_params(3, (2,), 2)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 40), rows=st.integers(1, 4), data=st.data())
    def test_softmax_equals_the_row_max_form(self, dtype, k, rows, data):
        # NaN is numpy's own: the reference's reduction gives its canonical NaN for a row that
        # starts with one and passes a later one through, so other NaN bits are not pinned
        values = st.one_of(st.floats(allow_nan=False, width=32), st.sampled_from([math.nan, math.inf, -math.inf]))
        z = np.array(data.draw(st.lists(values, min_size=rows * k, max_size=rows * k)), dtype).reshape(rows, k)

        def reference(z):
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=-1, keepdims=True)

        bits = f"u{z.itemsize}"
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (z, z[0], np.stack([z, z[::-1]])):  # a batch, one row, and a stack of batches
                got, want = softmax(x), reference(x)
                assert got.dtype == dtype and np.array_equal(got.view(bits), want.view(bits))

    def test_heads_keep_float32_and_widen_the_rest(self):
        z = np.random.default_rng(2).normal(scale=4.0, size=(6, 5))
        for activate in (softmax, sigmoid):
            assert activate(z.astype(np.float32)).dtype == np.float32
            assert activate(z.astype(np.float16)).dtype == np.float64
            assert activate(np.arange(5)).dtype == np.float64


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
        _, (grads,) = grad_batch(params, x[None, :], target[None, :])
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
            _, (grads,) = grad_batch(params, X, T)
            numeric = finite_difference(params, lambda: grad_batch(params, X, T)[0][0])
            worst = max(worst, max_rel_err(grads, numeric))
        assert worst < 1e-4

    def test_replicated_batch_equals_single_example(self):
        params = init_params(3, (6,), 3, seed=2)
        x = np.array([0.1, 0.9, -0.4])
        t = np.array([0.2, 0.5, 0.3])
        _, (g1,) = grad_batch(params, x[None, :], t[None, :])
        _, (gn,) = grad_batch(params, np.tile(x, (7, 1)), np.tile(t, (7, 1)))
        assert np.allclose(g1, gn, atol=1e-12)

    def test_empty_batch_raises(self):
        params = init_params(3, (6,), 3, seed=2)
        with pytest.raises(ValueError, match="empty batch"):
            grad_batch(params, np.zeros((0, 3)), np.zeros((0, 3)))


class TestMixedPrecision:
    """A float32 ``Workspace`` runs the step in float32 on its own copy of the float64 master params."""

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_float32_gradient_matches_float64_and_leaves_the_master(self, head):
        rng = np.random.default_rng(12)
        for trial in range(20):
            params = init_params(6, (16, 8), 5, head, seed=trial)
            X = rng.normal(size=(32, 6))
            if head == "softmax":
                T = rng.dirichlet(np.ones(5), size=32)
            else:
                T = (rng.random((32, 5)) < 0.4).astype(np.float64)
            master = params.flat.copy()
            ws = Workspace(params, 32, dtype=np.float32)
            ws.params.flat[:] = params.flat
            (loss32,), (g32,) = grad_batch(ws.params, X, T, ws)
            assert params.flat.dtype == np.float64 and np.array_equal(params.flat, master)
            (loss64,), (g64,) = grad_batch(params, X, T)
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            assert loss32.dtype == np.float64  # the loss is reduced in float64 either way
            assert np.abs(g32 - g64).max() <= F32_TOL * np.abs(g64).max()
            assert loss32 == pytest.approx(loss64, rel=F32_TOL)

    def test_float64_workspace_params_are_a_copy(self):
        params = init_params(4, (5,), 3, "sigmoid", seed=1)
        master = params.flat.copy()
        ws = Workspace(params, 8)
        assert ws.params.flat.dtype == np.float64 and np.array_equal(ws.params.flat, master)
        assert (ws.params.shapes, ws.params.head) == (params.shapes, params.head)
        ws.params.flat += 1.0
        assert np.array_equal(params.flat, master)
        assert np.array_equal(ws.params.weights[0], params.weights[0] + 1.0)

    def test_training_returns_float64_params_and_an_f8_checkpoint(self, tmp_path):
        vocab = LabelVocab(("E", "N", "C"))
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=80, k_classes=3, d_feat=4, seed=5))
        split = allocate_budget(pool, BudgetPlan(40, 20, 2, 10, n_unlabeled=30), seed=0, vocab=vocab)
        spec = StrategySpec(kind="mixup_smu", iterations_main=5, hidden_sizes=(8,),
                            mixup=MixupConfig(batch_size=8))
        params, _ = run_strategy(spec, split, vocab)
        assert all(a.dtype == np.float64 for a in [params.flat, *params.views(params.flat)])
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path, vocab.names, seed=0)
        body = path.read_bytes().split(b"\n", 1)[1]
        assert len(body) == 8 * params.flat.size
        assert np.array_equal(np.frombuffer(body, dtype="<f8"), params.flat)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = init_params(3, (4,), 2, seed=0)
        state = init_adam(params, lr=0.1)
        before = [a.copy() for a in params.views(params.flat)]
        adam_step(params, state, np.zeros_like(params.flat))
        assert state.step == 1
        for a, b in zip(params.views(params.flat), before):
            assert np.array_equal(a, b)

    def test_first_step_matches_hand_computation(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([0.5, -0.5])
        params = params_of([W, b], "softmax")
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
        params = params_of([W, np.zeros(3), W, np.zeros(3)], "softmax")
        state = init_adam(params, lr=0.05)
        g = np.random.default_rng(5).normal(size=(3, 3))
        gb = np.random.default_rng(6).normal(size=3)
        for _ in range(3):
            adam_step(params, state, np.concatenate([g.ravel(), gb, g.ravel(), gb]))
        assert np.array_equal(params.weights[0], params.weights[1])
        assert np.array_equal(params.biases[0], params.biases[1])

    def test_negative_zero_gradient_updates_like_zero(self):
        # composite_loss_and_grad widens one group's float32 gradient as it is, where a float64 sum
        # from 0.0 would turn its -0.0 entries into 0.0; the moments start at 0.0, so both update alike
        rng = np.random.default_rng(5)
        runs = {sign: init_params(3, (4,), 2, seed=1) for sign in (1.0, -1.0)}
        states = {sign: init_adam(params, lr=0.1) for sign, params in runs.items()}
        for _ in range(3):
            g = rng.normal(size=runs[1.0].flat.size)
            g[::2] = 0.0
            for sign, params in runs.items():
                adam_step(params, states[sign], np.where(g == 0.0, sign * 0.0, g))
        for a, b in ((runs[1.0].flat, runs[-1.0].flat), (states[1.0].m, states[-1.0].m), (states[1.0].v, states[-1.0].v)):
            assert a.tobytes() == b.tobytes()

    def test_in_place_update_matches_the_expression_bit_for_bit(self):
        # reference: the update as plain array expressions, one temporary per operation
        rng = np.random.default_rng(8)
        params = init_params(5, (7, 4), 3, seed=3)
        state = init_adam(params, lr=1e-2)
        flat, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        for t in range(1, 40):
            grad = rng.normal(size=flat.shape) * 10.0 ** rng.integers(-9, 3, size=flat.shape)
            adam_step(params, state, grad)
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            flat -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert np.array_equal(params.flat, flat)


class TestMultilabelHead:
    def test_zero_parameters_score_half(self):
        params = zero_net(4, (8,), 5, head="sigmoid")
        s = forward_scores(params, np.ones(4))
        assert np.allclose(s, 0.5, atol=1e-12)

    def test_monotone_in_own_logit(self):
        params = identity_net(3, head="sigmoid")
        lo = forward_scores(params, np.array([0.0, 1.0, -1.0]))
        hi = forward_scores(params, np.array([0.5, 1.0, -1.0]))
        assert hi[0] > lo[0]
        assert hi[1] == lo[1] and hi[2] == lo[2]

    def test_scores_in_open_interval(self):
        rng = np.random.default_rng(8)
        params = init_params(6, (12,), 9, head="sigmoid", seed=1)
        S = forward_scores(params, rng.normal(size=(30, 6)))
        assert np.all(S > 0) and np.all(S < 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40)
           .map(lambda v: np.array(v + [0.0, -0.0, 800.0, -800.0, math.inf, -math.inf, math.nan])))
    def test_sigmoid_equals_two_branch_form(self, dtype, z):
        with np.errstate(over="ignore"):  # float64 beyond float32's range casts to inf
            z = z.astype(dtype)
        # reference: the two-branch form, exp taken only where it cannot overflow
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sigmoid(z)
            batch = sigmoid(np.tile(z, (3, 1)))
        # bit for bit, NaN sign and payload included
        bits = f"u{want.itemsize}"
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), want.view(bits))
        assert np.array_equal(batch.view(bits), np.tile(want, (3, 1)).view(bits))

    def test_bce_perfect_prediction(self):
        scores = np.array([[1 - 1e-12, 1e-12, 1e-12]])
        assert batch_multilabel_bce(scores, np.array([[1.0, 0.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bce_finite_on_float32_scores_of_one(self):
        # 1 - 1e-12 rounds to 1 in float32, so clipping before the float64 upcast
        # would leave log(1 - S) = -inf on these scores
        S = np.ones((2, 3), dtype=np.float32)
        Y = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        loss = batch_multilabel_bce(S, Y)
        assert np.isfinite(loss)
        assert loss == batch_multilabel_bce(S.astype(np.float64), Y)

    def test_bce_single_positive_at_half(self):
        assert batch_multilabel_bce(np.array([[0.5]]), np.array([[1.0]])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_bce_negative_down_weighting(self):
        # one negative at score 0.5: loss = W_NEG * ln 2 / n_types
        assert batch_multilabel_bce(np.array([[0.5]]), np.array([[0.0]])) == pytest.approx(
            0.1 * math.log(2), abs=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for trial in range(20):
            params = init_params(4, (5,), 6, head="sigmoid", seed=trial)
            X = rng.normal(size=(3, 4))
            Y = (rng.random((3, 6)) < 0.4).astype(float)
            _, (grads,) = grad_batch(params, X, Y)
            numeric = finite_difference(params, lambda: grad_batch(params, X, Y)[0][0])
            worst = max(worst, max_rel_err(grads, numeric))
        assert worst < 1e-4


class TestPredictTypes:
    def test_above_threshold(self):
        assert threshold_types(np.array([[0.9, 0.6, 0.1]]), 0.5).tolist() == [[1.0, 1.0, 0.0]]

    def test_fallback_to_argmax_when_empty(self):
        assert threshold_types(np.array([[0.2, 0.1, 0.4]]), 0.5).tolist() == [[0.0, 0.0, 1.0]]

    def test_extreme_threshold_gives_singleton(self):
        assert threshold_types(np.array([[0.3, 0.9, 0.8]]), 0.9999).tolist() == [[0.0, 1.0, 0.0]]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            threshold_types(np.array([[0.5]]), 1.0)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        params = init_params(5, (7, 4), 3, seed=11)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path, ("a", "b", "c"), seed=11)
        loaded, header = load_checkpoint(path)
        assert header["seed"] == 11
        assert loaded.head == params.head
        for a, b in zip(loaded.views(loaded.flat), params.views(params.flat)):
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

    @pytest.mark.parametrize("edit, detail", [
        *[(lambda h, key=key: h.pop(key), f"KeyError: '{key}'") for key in ("head", "shapes", "vocab_hash", "seed")],
        (lambda h: h.update(head=["softmax"]), "TypeError: head is list, not str"),
        (lambda h: h.update(shapes={"0": [3, 2]}), "TypeError: shapes is dict, not list"),
        (lambda h: h.update(vocab_hash=123), "TypeError: vocab_hash is int, not str"),
        (lambda h: h.update(seed="0"), "TypeError: seed is str, not int"),
        (lambda h: h.update(seed=True), "TypeError: seed is bool, not int"),
        (lambda h: h.update(seed=0.0), "TypeError: seed is float, not int"),
    ], ids=["no head", "no shapes", "no vocab_hash", "no seed", "list head", "object shapes", "numeric vocab_hash",
            "string seed", "boolean seed", "float seed"])
    def test_every_header_key_required_in_its_json_type(self, tmp_path, edit, detail):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_params(3, (2,), 2, seed=0), path, ("a", "b"), seed=0)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad header ({detail})')}$"):
            load_checkpoint(path)

    def test_non_integer_shape_fails_naming_the_file(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        header = {"format": "mixbudget-checkpoint-v1", "head": "softmax", "shapes": [[3, 3.5], [3.5]],
                  "vocab_hash": "0" * 16, "seed": 0}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * (10 + 3)))  # int(3 * 3.5) + int(3.5)
        detail = "bad header (TypeError: 'float' object cannot be interpreted as an integer)"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {detail}')}$"):
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
        X = pool.X
        T = pool.true_dist
        params = init_params(4, (64,), 3, seed=0)
        state = init_adam(params, lr=1e-2)
        loss = np.inf
        for step in range(2000):
            (loss,), (grads,) = grad_batch(params, X, T)
            if loss < 0.05:
                break
            adam_step(params, state, grads)
        assert loss < 0.05
