"""Strategy tests: targets, interpolation, the ramp, pseudo labels, and
the training loops."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbudget.corpus import Corpus, CorpusSplit, LabelVocab
from mixbudget.model import (
    HEADS,
    Workspace,
    batch_soft_cross_entropy,
    forward_scores,
    forward_softmax,
    grad_batch,
    init_params,
)
from mixbudget import strategies
from mixbudget.strategies import (
    TERMS,
    MixupConfig,
    StrategyError,
    StrategySpec,
    apply_pairing,
    composite_loss_and_grad,
    draw_pairing,
    make_targets,
    pseudo_label,
    ramp_alpha,
    run_strategy,
)

from test_model import identity_net

VOCAB = LabelVocab(("E", "N", "C"))
E, N, C = 0, 1, 2


def rows(*examples, d=2):
    """A corpus of (uid, features, annotations) rows."""
    uids = [uid for uid, _, _ in examples]
    X = np.reshape([x for _, x, _ in examples], (len(examples), d))
    return Corpus.from_rows(uids, X, [annotations for _, _, annotations in examples])


def as_table(batches):
    """(X, Y, rows), the table arguments of ``apply_pairing``: the (X, Y) batches of ``batches`` stacked in
    key order, and each key's rows in the stack."""
    X, Y = (np.concatenate([batch[i] for batch in batches.values()]) for i in (0, 1))
    starts = np.cumsum([0] + [len(x) for x, _ in batches.values()])
    return X, Y, {key: start + np.arange(len(x)) for (key, (x, _)), start in zip(batches.items(), starts)}


def toy_split(n_s=6, n_m=4, n_u=5, k=10, seed=0, nan_feature=False):
    rng = np.random.default_rng(seed)
    def ex(uid, n_ann):
        p = rng.dirichlet(np.ones(3))
        x = rng.normal(size=4)
        annotations = [int(a) for a in rng.choice(3, size=n_ann, p=p)]
        if nan_feature and uid == "s0":
            x[1] = np.nan
        return uid, x, annotations
    return CorpusSplit(
        singles=rows(*[ex(f"s{i}", 1) for i in range(n_s)], d=4),
        multis=rows(*[ex(f"m{i}", k) for i in range(n_m)], d=4),
        unlabeled=rows(*[ex(f"u{i}", 0) for i in range(n_u)], d=4),
    )


def spec_for(kind, **kw):
    defaults = dict(
        kind=kind, iterations_main=5, iterations_finetune=2, lr=1e-2,
        hidden_sizes=(8,), mixup=MixupConfig(batch_size=4), seed=0,
    )
    defaults.update(kw)
    return StrategySpec(**defaults)


class TestMakeTargets:
    def test_multi_frequency_target(self):
        split = CorpusSplit(
            singles=rows(),
            multis=rows(("m", np.zeros(2), [N] * 7 + [E] * 3)),
            unlabeled=rows(),
        )
        data = make_targets(split, VOCAB, spec_for("ce_combined"))
        assert np.allclose(data["m"][1][0], [0.3, 0.7, 0.0])

    def test_single_one_hot(self):
        split = CorpusSplit(
            singles=rows(("s", np.zeros(2), [C])), multis=rows(), unlabeled=rows()
        )
        data = make_targets(split, VOCAB, spec_for("ce_combined"))
        assert np.array_equal(data["s"][1][0], [0.0, 0.0, 1.0])

    def test_typing_targets_are_multi_hot(self):
        split = CorpusSplit(
            singles=rows(("s", np.zeros(2), [C])),
            multis=rows(("m", np.zeros(2), [E, N])),
            unlabeled=rows(),
        )
        data = make_targets(split, VOCAB, spec_for("ce_combined", head="sigmoid"))
        assert np.array_equal(data["s"][1][0], [0.0, 0.0, 1.0])
        assert np.array_equal(data["m"][1][0], [1.0, 1.0, 0.0])

    def test_sigmoid_head_rejects_train_smooth_mass(self):
        # multi-hot targets have no mass to smooth
        with pytest.raises(StrategyError, match="the sigmoid head takes no train_smooth_mass"):
            spec_for("ce_combined", head="sigmoid", train_smooth_mass=0.1)

    def test_smoothed_single_targets(self):
        split = CorpusSplit(singles=rows(("s0", np.zeros(2), [C]), ("s1", np.zeros(2), [E])),
                            multis=rows(("m", np.zeros(2), [E, N])), unlabeled=rows())
        data = make_targets(split, VOCAB, spec_for("ce_combined", train_smooth_mass=0.3))
        assert np.allclose(data["s"][1], [[0.1, 0.1, 0.8], [0.8, 0.1, 0.1]], rtol=0, atol=1e-12)
        assert np.array_equal(data["m"][1], [[0.5, 0.5, 0.0]])


class TestMixPair:
    """``apply_pairing`` mixes each term's two sides row by row as
    ``lam * a + (1 - lam) * b``."""

    @staticmethod
    def mix(a, b, lam):
        # one within-set term pairing a's rows with b's, stacked in one set
        n = len(a[0])
        batches = {"s": (np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))}
        terms, xm, ym = apply_pairing(*as_table(batches), (lam, {"L_ss": (np.arange(n), n + np.arange(n))}))
        assert terms == ("L_ss",)
        return xm, ym

    def test_endpoints_exact(self):
        a = (np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))
        b = (np.array([[-3.0, 5.0]]), np.array([[0.0, 1.0]]))
        xm, ym = self.mix(a, b, 1.0)
        assert np.array_equal(xm, a[0]) and np.array_equal(ym, a[1])
        xm, ym = self.mix(a, b, 0.0)
        assert np.array_equal(xm, b[0]) and np.array_equal(ym, b[1])

    def test_midpoint(self):
        a = (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
        b = (np.array([[0.0, 1.0]]), np.array([[0.0, 1.0, 0.0]]))
        xm, ym = self.mix(a, b, 0.5)
        assert np.allclose(xm, [[0.5, 0.5]])
        assert np.allclose(ym, [[0.5, 0.5, 0.0]])

    def test_target_normalization_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            Ya = rng.dirichlet(np.ones(4), size=3)
            Yb = rng.dirichlet(np.ones(4), size=3)
            Xa = rng.normal(size=(3, 2))
            lam = float(rng.random())
            _, Ym = self.mix((Xa, Ya), (Xa, Yb), lam)
            assert np.allclose(Ym.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=3, max_size=3), B=st.integers(1, 12),
           terms=st.lists(st.sampled_from(list(TERMS)), min_size=1, max_size=5, unique=True),
           lam=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_table_rows_equal_the_per_row_mix(self, dtype, sizes, B, terms, lam, seed):
        # every set gathers its B rows from the table with replacement; row j of a term is
        # lam * (its a-side row) + (1 - lam) * (its b-side row), bit for bit, stacked in term order
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(sum(sizes), 4)).astype(dtype)
        Y = rng.dirichlet(np.ones(3), size=sum(sizes)).astype(dtype)
        starts = np.cumsum([0] + sizes)
        batch_rows = {key: start + rng.integers(0, n, size=B) for key, start, n in zip("smu", starts, sizes)}
        _, pairs = draw_pairing(rng, sorted(terms, key=list(TERMS).index), B)
        got_terms, Xm, Ym = apply_pairing(X, Y, batch_rows, (lam, pairs))
        assert got_terms == tuple(pairs)
        for M, Mm in ((X, Xm), (Y, Ym)):
            want = [lam * M[batch_rows[TERMS[term][0]][a[j]]] + (1 - lam) * M[batch_rows[TERMS[term][1]][b[j]]]
                    for term, (a, b) in pairs.items() for j in range(B)]
            assert Mm.dtype == dtype and Mm.tobytes() == np.array(want, dtype).tobytes()


class TestRampAlpha:
    def test_starts_at_zero(self):
        assert ramp_alpha(0) == 0.0

    def test_reaches_maximum(self):
        assert ramp_alpha(100) == 2.0
        assert ramp_alpha(5000) == 2.0

    def test_linear_midpoint(self):
        assert ramp_alpha(50) == pytest.approx(1.0, abs=1e-15)

    def test_trace_formula(self):
        assert (strategies.ALPHA_MAX, strategies.RAMP_ITERS) == (2.0, 100)
        for t in range(0, 300, 7):
            assert ramp_alpha(t) == min(1.0, t / 100) * 2.0


class TestPseudoLabel:
    def test_sharpens_to_argmax(self):
        params = identity_net(3)
        x = np.log(np.array([0.5, 0.3, 0.2]))  # softmax recovers the probs
        assert np.array_equal(pseudo_label(params, x), [1.0, 0.0, 0.0])

    def test_uniform_tie_goes_to_first_label(self):
        params = identity_net(3)
        assert np.array_equal(pseudo_label(params, np.zeros(3)), [1.0, 0.0, 0.0])

    def test_one_hot_model_output_unchanged(self):
        params = identity_net(3)
        x = np.array([50.0, 0.0, 0.0])  # saturated softmax
        assert np.array_equal(pseudo_label(params, x), [1.0, 0.0, 0.0])

    def test_always_exactly_one_hot(self):
        rng = np.random.default_rng(3)
        params = init_params(5, (6,), 4, seed=1)
        Y = pseudo_label(params, rng.normal(size=(40, 5)))
        assert np.all(np.sort(Y, axis=1)[:, :-1] == 0.0)
        assert np.all(Y.max(axis=1) == 1.0)

    def test_sigmoid_head_thresholds(self):
        params = identity_net(3)
        params.head = "sigmoid"
        y = pseudo_label(params, np.array([3.0, -3.0, 3.0]))
        assert np.array_equal(y, [1.0, 0.0, 1.0])
        # a batch, with a row scoring no type above 0.5: each row holds the
        # types scoring above 0.5, or the argmax when none does
        X = np.array([[3.0, -3.0, 3.0], [-1.0, -0.2, -2.0], [0.1, 0.0, -0.1]])
        Y = pseudo_label(params, X)
        for row, scores in zip(Y, forward_scores(params, X).tolist()):
            types = {t for t, s in enumerate(scores) if s > 0.5} or {scores.index(max(scores))}
            assert set(np.flatnonzero(row).tolist()) == types
        assert np.array_equal(Y[1], [0.0, 1.0, 0.0])


class TestLambdaDistribution:
    def test_uniform_for_unit_eta(self):
        rng = np.random.default_rng(17)
        assert strategies.ETA == 1.0
        draws = np.array([draw_pairing(rng, (), 1)[0] for _ in range(100_000)])
        draws.sort()
        n = len(draws)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - draws)), np.max(np.abs(draws - (grid - 1 / n))))
        assert ks < 0.01


class TestMixupDegeneracies:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.params = init_params(3, (6,), 3, seed=5)
        self.batches = {
            "s": (rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)),
            "m": (rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)),
        }
        self.pairing_idx = {
            "L_ss": (np.arange(4), np.array([2, 0, 3, 1])),
            "L_mm": (np.arange(4), np.array([1, 3, 0, 2])),
            "L_sm": (np.array([3, 1, 0, 2]), np.array([0, 2, 1, 3])),
        }

    def plain_ce(self, key):
        X, Y = self.batches[key]
        return batch_soft_cross_entropy(forward_softmax(self.params, X), Y)

    def test_lambda_one_reduces_to_plain_ce(self):
        pairing = (1.0, self.pairing_idx)
        tb = apply_pairing(*as_table(self.batches), pairing)
        _, _, comps = composite_loss_and_grad(self.params, tb, alpha=1.3)
        assert comps["L_ss"] == pytest.approx(self.plain_ce("s"), abs=1e-9)
        assert comps["L_mm"] == pytest.approx(self.plain_ce("m"), abs=1e-9)
        assert comps["L_sm"] == pytest.approx(self.plain_ce("s"), abs=1e-9)

    def test_lambda_zero_reduces_to_plain_ce_on_other_side(self):
        pairing = (0.0, self.pairing_idx)
        tb = apply_pairing(*as_table(self.batches), pairing)
        _, _, comps = composite_loss_and_grad(self.params, tb, alpha=0.4)
        assert comps["L_ss"] == pytest.approx(self.plain_ce("s"), abs=1e-9)
        assert comps["L_mm"] == pytest.approx(self.plain_ce("m"), abs=1e-9)
        assert comps["L_sm"] == pytest.approx(self.plain_ce("m"), abs=1e-9)


class TestHandComputedComposite:
    def test_batch_of_two_matches_manual_arithmetic(self):
        # 2-class task, final-layer-only model so logits == features;
        # every quantity below is recomputed with scalar math
        vocab2 = LabelVocab(("A", "B"))
        params = identity_net(2)
        xs = [np.array([0.2, -0.1]), np.array([-0.3, 0.4])]
        ys = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        xm = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        ym = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
        batches = {"s": (np.stack(xs), np.stack(ys)), "m": (np.stack(xm), np.stack(ym))}
        pairing = (
            0.5,
            {
                "L_ss": (np.array([0, 1]), np.array([1, 0])),
                "L_mm": (np.array([0, 1]), np.array([1, 0])),
                "L_sm": (np.array([0, 1]), np.array([0, 1])),
            },
        )
        alpha = 0.7
        tb = apply_pairing(*as_table(batches), pairing)
        total, _, comps = composite_loss_and_grad(params, tb, alpha)

        def ce(x, y):
            za, zb = x
            pa = math.exp(za) / (math.exp(za) + math.exp(zb))
            return -(y[0] * math.log(pa) + y[1] * math.log(1 - pa))

        def mixed(a, b, ya, yb):
            return 0.5 * (a + b), 0.5 * (ya + yb)

        # L_ss pairs (s0,s1) and (s1,s0): both mixes are identical midpoints
        x_mid, y_mid = mixed(xs[0], xs[1], ys[0], ys[1])
        l_ss = 0.5 * (ce(x_mid, y_mid) + ce(x_mid, y_mid))
        x_mid, y_mid = mixed(xm[0], xm[1], ym[0], ym[1])
        l_mm = 0.5 * (ce(x_mid, y_mid) + ce(x_mid, y_mid))
        pairs = [mixed(xs[0], xm[0], ys[0], ym[0]), mixed(xs[1], xm[1], ys[1], ym[1])]
        l_sm = 0.5 * sum(ce(x, y) for x, y in pairs)

        assert comps["L_ss"] == pytest.approx(l_ss, abs=1e-12)
        assert comps["L_mm"] == pytest.approx(l_mm, abs=1e-12)
        assert comps["L_sm"] == pytest.approx(l_sm, abs=1e-12)
        assert total == pytest.approx(l_ss + l_mm + alpha * l_sm, abs=1e-12)


class TestCompositeGradient:
    def test_full_objective_matches_finite_differences(self):
        from test_model import finite_difference, max_rel_err

        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(20):
            params = init_params(3, (5,), 3, seed=trial + 30)
            batches = {
                "s": (rng.normal(size=(2, 3)), rng.dirichlet(np.ones(3), size=2)),
                "m": (rng.normal(size=(2, 3)), rng.dirichlet(np.ones(3), size=2)),
                "u": (rng.normal(size=(2, 3)), None),
            }
            # freeze the pseudo labels so the loss is smooth in the params
            Xu = batches["u"][0]
            batches["u"] = (Xu, pseudo_label(params, Xu))
            pairing = draw_pairing(
                rng, ("L_ss", "L_mm", "L_sm", "L_su", "L_mu"), 2
            )
            alpha = 1.7

            def loss_fn():
                tb = apply_pairing(*as_table(batches), pairing)
                return composite_loss_and_grad(params, tb, alpha)[0]

            _, grads, _ = composite_loss_and_grad(params, apply_pairing(*as_table(batches), pairing), alpha)
            worst = max(worst, max_rel_err(grads, finite_difference(params, loss_fn)))
        assert worst < 1e-4


class TestStackedStep:
    """One grad_batch over every term's stacked rows gives, bit for bit, what
    one grad_batch per term summed in canonical term order gives, in either
    workspace dtype: the batched matmul runs each group as its own 2-D call."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @settings(max_examples=60, deadline=None)
    @given(head=st.sampled_from(sorted(HEADS)), hidden=st.lists(st.integers(1, 9), max_size=3),
           terms=st.lists(st.sampled_from(list(TERMS)), min_size=1, max_size=5, unique=True),
           B=st.integers(1, 64), lam=st.floats(0.0, 1.0), alpha=st.floats(0.0, 4.0),
           seed=st.integers(0, 2**16))
    def test_matches_the_per_term_loop(self, dtype, head, hidden, terms, B, lam, alpha, seed):
        rng = np.random.default_rng(seed)
        d, k = 5, 4
        params = Workspace(init_params(d, tuple(hidden), k, head, seed), B, dtype=dtype).params

        def targets():
            if head == "softmax":
                return rng.dirichlet(np.ones(k), size=B)
            return (rng.random((B, k)) < 0.4).astype(np.float64)

        # in the workspace dtype, as run_strategy casts its sets, so the mixing runs in it too
        batches = {key: (rng.normal(size=(B, d)).astype(dtype), targets().astype(dtype))
                   for key in ("m", "s", "u")}
        _, pairs = draw_pairing(rng, sorted(terms, key=list(TERMS).index), B)
        total, grad, comps = composite_loss_and_grad(params, apply_pairing(*as_table(batches), (lam, pairs)), alpha)

        ref_total, ref_grad, ref_comps = 0.0, np.zeros(params.flat.size), {}
        for term, (idx_a, idx_b) in pairs.items():
            set_a, set_b = TERMS[term]
            (Xa, Ya), (Xb, Yb) = batches[set_a], batches[set_b]
            Xm, Ym = lam * Xa[idx_a] + (1.0 - lam) * Xb[idx_b], lam * Ya[idx_a] + (1.0 - lam) * Yb[idx_b]
            (loss,), (g,) = grad_batch(params, Xm, Ym)
            weight = 1.0 if set_a == set_b else alpha
            ref_comps[term] = float(loss)
            ref_total += weight * float(loss)
            ref_grad += weight * g
        assert comps == ref_comps
        assert total == ref_total
        assert grad.dtype == np.float64 and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_no_terms_is_one_unit_weight_group(self, dtype, head):
        # a phase without terms: the step is its one grad_batch, the loss a float, the gradient widened
        rng = np.random.default_rng(8)
        params = Workspace(init_params(5, (6, 3), 4, head, 8), 16, dtype=dtype).params
        X = rng.normal(size=(16, 5)).astype(dtype)
        if head == "softmax":
            Y = rng.dirichlet(np.ones(4), size=16).astype(dtype)
        else:
            Y = (rng.random((16, 4)) < 0.4).astype(dtype)
        total, grad, comps = composite_loss_and_grad(params, ((), X, Y), alpha=1.5)
        (loss,), (g,) = grad_batch(params, X, Y)
        assert comps == {}
        assert type(total) is float and total == float(loss)
        assert grad.dtype == np.float64 and grad.tobytes() == g.astype(np.float64).tobytes()


class TestWorkspaceReuse:
    """A workspace binds its views once and every step of a phase reuses them: each step on a used
    workspace gives, bit for bit, what the same step gives on a fresh one."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_consecutive_steps_equal_fresh_workspaces(self, dtype, head):
        rng = np.random.default_rng(12)
        d, k, B, terms = 5, 4, 8, tuple(TERMS)
        master = init_params(d, (6, 3), k, head, 12)
        ws = Workspace(master, B, len(terms), dtype)
        for _ in range(3):
            master.flat += 0.1 * rng.normal(size=master.flat.size)  # as Adam moves them between steps
            ws.params.flat[:] = master.flat
            if head == "softmax":
                Ys, Ym = (rng.dirichlet(np.ones(k), size=B) for _ in range(2))
            else:
                Ys, Ym = (rng.random((2, B, k)) < 0.4).astype(np.float64)
            Xs, Xm, Xu = rng.normal(size=(3, B, d))
            batches = {"m": (Xm, Ym), "s": (Xs, Ys), "u": (Xu, None)}
            batches = {key: (X.astype(dtype), pseudo_label(ws.params, X.astype(dtype)) if Y is None else Y.astype(dtype))
                       for key, (X, Y) in batches.items()}
            mixed = apply_pairing(*as_table(batches), draw_pairing(rng, terms, B))
            total, grad, comps = composite_loss_and_grad(ws.params, mixed, 1.5, ws)
            fresh = Workspace(master, B, len(terms), dtype)
            want_total, want_grad, want_comps = composite_loss_and_grad(fresh.params, mixed, 1.5, fresh)
            assert (total, comps) == (want_total, want_comps)
            assert grad.tobytes() == want_grad.tobytes()


class TestRunStrategy:
    def test_curriculum_without_finetune_equals_single_only(self):
        split = toy_split()
        singles_only = CorpusSplit(singles=split.singles, multis=rows(d=4), unlabeled=rows(d=4))
        spec_a = spec_for("ce_curriculum", iterations_finetune=0)
        spec_b = spec_for("ce_combined")
        params_a, _ = run_strategy(spec_a, split, VOCAB)
        params_b, log_b = run_strategy(spec_b, singles_only, VOCAB)
        for a, b in zip(params_a.views(params_a.flat), params_b.views(params_b.flat)):
            assert np.array_equal(a, b)

    def test_combined_without_multis_matches_single_only_trajectory(self):
        split = toy_split(n_m=0)
        params_a, log_a = run_strategy(spec_for("ce_combined"), split, VOCAB)
        params_b, log_b = run_strategy(spec_for("ce_curriculum", iterations_finetune=0), split, VOCAB)
        assert [e["loss"] for e in log_a.entries] == [e["loss"] for e in log_b.entries]
        for a, b in zip(params_a.views(params_a.flat), params_b.views(params_b.flat)):
            assert np.array_equal(a, b)

    def test_missing_set_error_names_the_set(self):
        no_multis = toy_split(n_m=0)
        with pytest.raises(StrategyError, match="multis"):
            run_strategy(spec_for("mixup_sm"), no_multis, VOCAB)
        no_unlabeled = toy_split(n_u=0)
        with pytest.raises(StrategyError, match="unlabeled"):
            run_strategy(spec_for("mixup_smu"), no_unlabeled, VOCAB)
        with pytest.raises(StrategyError, match="multis"):
            run_strategy(spec_for("ce_upsampling"), no_multis, VOCAB)

    def test_bad_iteration_counts_rejected(self):
        with pytest.raises(StrategyError):
            spec_for("ce_combined", iterations_main=0)
        with pytest.raises(StrategyError):
            spec_for("ce_curriculum", iterations_finetune=-1)

    def test_alpha_trace_and_finite_losses(self):
        split = toy_split()
        spec = spec_for("mixup_smu", iterations_main=130)
        _, log = run_strategy(spec, split, VOCAB)
        for e in log.entries:
            assert np.isfinite(e["loss"])
            assert e["alpha"] == min(1.0, e["iter"] / 100) * 2.0
        # the ramp starts at zero, so iteration 0 is the within-set terms only
        first = log.entries[0]
        assert first["loss"] == pytest.approx(first["L_ss"] + first["L_mm"], abs=1e-12)

    def test_deterministic_given_seed(self):
        split = toy_split()
        a, _ = run_strategy(spec_for("mixup_smu", seed=3), split, VOCAB)
        b, _ = run_strategy(spec_for("mixup_smu", seed=3), split, VOCAB)
        for x, y in zip(a.views(a.flat), b.views(b.flat)):
            assert np.array_equal(x, y)

    def test_upsampling_shifts_mass_toward_multis(self):
        # singles all labeled E, multis all labeled C: upsampling sees C
        # far more often than the 2/62 share that plain combination gives
        rng = np.random.default_rng(11)
        singles = [
            (f"s{i}", rng.normal(size=3), [E]) for i in range(60)
        ]
        multis = [
            (f"m{i}", rng.normal(size=3), [C] * 10) for i in range(2)
        ]
        split = CorpusSplit(singles=rows(*singles, d=3), multis=rows(*multis, d=3),
                            unlabeled=rows(d=3))
        kw = dict(iterations_main=300, lr=5e-3, hidden_sizes=(8,),
                  mixup=MixupConfig(batch_size=16), seed=0)
        up, _ = run_strategy(spec_for("ce_upsampling", **kw), split, VOCAB)
        comb, _ = run_strategy(spec_for("ce_combined", **kw), split, VOCAB)
        X = rng.normal(size=(200, 3))
        mass_up = forward_softmax(up, X)[:, C].mean()
        mass_comb = forward_softmax(comb, X)[:, C].mean()
        assert mass_up > mass_comb + 0.1

    def test_upsampled_batches_draw_multis_half_the_time(self):
        # singles labeled E, multis labeled C: over 100 batches of 128 the
        # share of C rows is the sampler's even coin, 0.5 (std 0.0044)
        rng = np.random.default_rng(3)
        Y = np.concatenate([np.tile(np.eye(3)[E], (60, 1)), np.tile(np.eye(3)[C], (2, 1))])
        draw = strategies._sampler({"s": (0, 60), "m": (60, 2), "u": (62, 0)}, "upsampled", "ce_upsampling")
        share = np.mean([Y.take(draw(rng, 128)["upsampled"], axis=0)[:, C].mean() for _ in range(100)])
        assert abs(share - 0.5) <= 0.02

    def test_mixup_su_then_m_runs_two_phases(self):
        split = toy_split()
        spec = spec_for("mixup_su_then_m", iterations_main=6, iterations_finetune=3)
        _, log = run_strategy(spec, split, VOCAB)
        phases = [e["phase"] for e in log.entries]
        assert phases.count(1) == 6 and phases.count(2) == 3
        assert "L_su" in log.entries[0] and "L_mm" not in log.entries[0]

    def test_trainlog_round_trip(self, tmp_path):
        split = toy_split()
        _, log = run_strategy(spec_for("mixup_sm"), split, VOCAB)
        path = tmp_path / "log.jsonl"
        log.write(path)
        assert [json.loads(line) for line in path.read_text().splitlines()] == log.entries

    def test_non_finite_step_is_never_applied(self, monkeypatch):
        split = toy_split(n_s=1, nan_feature=True)
        calls = []
        monkeypatch.setattr(strategies, "adam_step", lambda *a: calls.append(a))
        with pytest.raises(StrategyError, match="non-finite"):
            run_strategy(spec_for("ce_curriculum"), split, VOCAB)
        assert calls == []
