"""Metric tests: divergences, accuracies, typing metrics, report assembly."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import jensenshannon

from mixbudget.calibrate import temp_scale
from mixbudget.corpus import AnnotatedExample
from mixbudget.metrics import (
    MetricsError,
    accuracy_old_new,
    entropy,
    entropy_histogram,
    evaluate_distribution,
    evaluate_typing,
    jsd,
    kl_div,
    macro_prf,
    mrr,
    read_report_summary,
    write_histogram_csv,
    write_report,
)


def eval_example(uid, pred_dim=3, old_label=0, counter=None, true_dist=None):
    return AnnotatedExample(
        uid=uid,
        features=np.zeros(2),
        annotations=[],
        old_label=old_label,
        label_counter=counter or {0: 100},
        true_dist=true_dist,
    )


class TestKLDivergence:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_div(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_versus_uniform_pair(self):
        assert kl_div([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_clamp_keeps_value_finite(self):
        v = kl_div([0.5, 0.5], [1.0 - 1e-10, 1e-10])
        assert np.isfinite(v) and v > 5

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_div(p, q) >= 0
            assert kl_div(p, q) > 0  # random pairs almost surely differ
            assert kl_div(p, p) == pytest.approx(0.0, abs=1e-12)


class TestJSD:
    def test_identical_distributions(self):
        p = np.array([0.3, 0.7])
        assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_hit_the_bound(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # m = (0.75, 0.25); JSD = 0.5*log2(4/3) + 0.5*(0.5*log2(2/3) + 0.5*log2(2))
        expected = 0.5 * math.log2(4 / 3) + 0.5 * (
            0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
        )
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.3113, abs=5e-5)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-15)
            assert 0.0 <= jsd(p, q) <= 1.0

    def test_matches_independent_recomputation(self):
        # scipy's jensenshannon returns the square root of the divergence
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert jsd(p, q) == pytest.approx(jensenshannon(p, q, base=2) ** 2, abs=1e-12)
        # include sparse supports
        assert jsd([1, 0, 0], [0.5, 0.5, 0]) == pytest.approx(
            jensenshannon([1, 0, 0], [0.5, 0.5, 0], base=2) ** 2, abs=1e-12
        )


class TestEntropyHistogram:
    def test_one_hot_lands_in_first_bin(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        counts = entropy_histogram([[1.0, 0.0, 0.0]], 3, n_bins=20)
        assert counts[0] == 1 and counts.sum() == 1

    def test_uniform_lands_in_last_bin(self):
        u = [1 / 3] * 3
        assert entropy(u) == pytest.approx(math.log(3), abs=1e-12)
        counts = entropy_histogram([u], 3, n_bins=20)
        assert counts[-1] == 1

    def test_fixture_binning_matches_hand_assignment(self):
        # two-class distributions with entropies spread over [0, ln 2]
        dists = [
            [1.0, 0.0], [0.999, 0.001], [0.95, 0.05], [0.9, 0.1], [0.8, 0.2],
            [0.75, 0.25], [0.7, 0.3], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5],
        ]
        n_bins = 4
        counts = entropy_histogram(dists, 2, n_bins=n_bins)
        width = math.log(2) / n_bins
        expected = [0] * n_bins
        for d in dists:
            h = -sum(x * math.log(x) for x in d if x > 0)
            expected[min(int(h / width), n_bins - 1)] += 1
        assert counts.tolist() == expected
        assert counts.sum() == len(dists)


class TestAccuracyOldNew:
    def test_disagreeing_references_count_separately(self):
        # prediction argmax N, old label E, dense counter majority N
        ex = eval_example("a", old_label=0, counter={1: 93, 0: 7})
        acc_old, acc_new = accuracy_old_new([[0.1, 0.8, 0.1]], [ex])
        assert (acc_old, acc_new) == (0.0, 1.0)

    def test_perfect_predictions(self):
        exs = [
            eval_example("a", old_label=2, counter={2: 60, 1: 40}),
            eval_example("b", old_label=0, counter={0: 90, 2: 10}),
        ]
        preds = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert accuracy_old_new(preds, exs) == (1.0, 1.0)

    def test_uniform_predictions_tie_to_first_label(self):
        old_labels = [0, 1, 2, 0, 1]
        majorities = [0, 0, 1, 2, 0]
        exs = [
            eval_example(f"u{i}", old_label=o, counter={m: 80, (m + 1) % 3: 20})
            for i, (o, m) in enumerate(zip(old_labels, majorities))
        ]
        preds = [[1 / 3] * 3] * 5  # argmax tie -> label 0
        acc_old, acc_new = accuracy_old_new(preds, exs)
        assert acc_old == pytest.approx(2 / 5)   # old labels 0 at positions 0, 3
        assert acc_new == pytest.approx(3 / 5)   # majorities 0 at positions 0, 1, 4

    def test_missing_gold_fields_name_uid(self):
        ex = AnnotatedExample("nolabels", np.zeros(2), [])
        with pytest.raises(MetricsError, match="nolabels"):
            accuracy_old_new([[1.0, 0.0, 0.0]], [ex])


class TestMacroPRF:
    def test_perfect_match(self):
        sets = [{0, 1}, {2}]
        assert macro_prf(sets, sets) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        p, r, f1 = macro_prf([{0, 1}], [{1, 2}])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_disjoint(self):
        assert macro_prf([{0}], [{1, 2}]) == (0.0, 0.0, 0.0)

    def test_empty_gold_names_uid(self):
        with pytest.raises(MetricsError, match="ex42"):
            macro_prf([{0}], [set()], uids=["ex42"])


class TestMRR:
    def test_all_gold_ranked_first(self):
        scores = [[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]]
        assert mrr(scores, [{0}, {1}]) == 1.0

    def test_rank_four(self):
        assert mrr([[0.9, 0.8, 0.7, 0.6]], [{3}]) == pytest.approx(0.25)

    def test_two_golds_at_top_ranks(self):
        assert mrr([[0.9, 0.8, 0.1]], [{0, 1}]) == pytest.approx(0.75)

    def test_score_ties_break_by_type_index(self):
        # types 0 and 1 tie; type 0 takes rank 1, type 1 rank 2
        assert mrr([[0.5, 0.5, 0.1]], [{1}]) == pytest.approx(0.5)


class TestEvalReport:
    def make_report(self):
        rng = np.random.default_rng(3)
        exs, preds = [], []
        for i in range(20):
            gold = rng.dirichlet(np.ones(3))
            counts = rng.multinomial(100, gold)
            exs.append(
                eval_example(
                    f"r{i}",
                    old_label=int(np.argmax(gold)),
                    counter={c: int(n) for c, n in enumerate(counts) if n},
                )
            )
            preds.append(rng.dirichlet(np.ones(3)))
        return evaluate_distribution(np.array(preds), exs, 3), exs, preds

    def test_summary_equals_per_example_means(self):
        report, _, _ = self.make_report()
        for key in ("kl", "jsd", "pred_entropy"):
            field = {"pred_entropy": "mean_pred_entropy"}.get(key, key)
            recomputed = np.mean([rec[key] for rec in report.per_example])
            assert getattr(report, field) == pytest.approx(recomputed, abs=1e-9)
        assert report.acc_old == pytest.approx(
            np.mean([r["correct_old"] for r in report.per_example]), abs=1e-9
        )
        assert report.acc_new == pytest.approx(
            np.mean([r["correct_new"] for r in report.per_example]), abs=1e-9
        )

    def test_histogram_counts_sum_to_n(self):
        report, _, _ = self.make_report()
        assert sum(report.entropy_histogram) == report.n_examples

    def test_kl_direction_configurable(self):
        _, exs, preds = self.make_report()
        fwd = evaluate_distribution(np.array(preds), exs, 3, kl_direction="human_model")
        rev = evaluate_distribution(np.array(preds), exs, 3, kl_direction="model_human")
        assert fwd.kl != rev.kl

    def test_true_dist_gold_source(self):
        rng = np.random.default_rng(6)
        exs, preds = [], []
        for i in range(5):
            true = rng.dirichlet(np.ones(3))
            exs.append(eval_example(f"g{i}", true_dist=true))
            preds.append(rng.dirichlet(np.ones(3)))
        report = evaluate_distribution(np.array(preds), exs, 3, gold_source="true_dist")
        expected = np.mean([kl_div(ex.true_dist, p) for ex, p in zip(exs, preds)])
        assert report.kl == pytest.approx(expected, abs=1e-12)

    def test_true_dist_only_corpus_omits_accuracy(self):
        rng = np.random.default_rng(6)
        exs = [AnnotatedExample(f"u{i}", np.zeros(2), [], true_dist=rng.dirichlet(np.ones(3)))
               for i in range(5)]
        preds = rng.dirichlet(np.ones(3), size=5)
        report = evaluate_distribution(preds, exs, 3, gold_source="true_dist")
        summary = report.summary()
        assert "acc_old" not in summary and "acc_new" not in summary
        for rec in report.per_example:
            assert "correct_old" not in rec and "correct_new" not in rec
        expected = np.mean([kl_div(ex.true_dist, p) for ex, p in zip(exs, preds)])
        assert report.kl == pytest.approx(expected, abs=1e-12)
        # vote fields on only some examples still fail, naming the first without
        exs[2] = eval_example("u2", true_dist=exs[2].true_dist)
        with pytest.raises(MetricsError, match="u0: missing old_label"):
            evaluate_distribution(preds, exs, 3, gold_source="true_dist")

    def test_file_round_trip(self, tmp_path):
        report, _, _ = self.make_report()
        path = tmp_path / "report.jsonl"
        write_report(report, path)
        summary = read_report_summary(path)
        assert summary["kl"] == report.kl
        assert summary["n_examples"] == 20
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 21  # summary + one line per example

    def test_histogram_csv(self, tmp_path):
        report, _, _ = self.make_report()
        path = tmp_path / "hist.csv"
        write_histogram_csv(report, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "bin_left,bin_right,count"
        assert len(rows) == 21
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 20

    def test_typing_report(self):
        scores = np.array([[0.9, 0.6, 0.1], [0.2, 0.3, 0.4]])
        report = evaluate_typing(scores, [{0, 1}, {0}], ["t0", "t1"])
        # t0: pred {0,1} vs gold {0,1}; t1: all below threshold -> argmax {2}
        assert report.macro_p == pytest.approx(0.5)
        assert report.macro_r == pytest.approx(0.5)
        assert report.macro_f1 == pytest.approx(0.5)
        # gold ranks: t0 type0 rank1, type1 rank2; t1 type0 rank3
        assert report.mrr == pytest.approx((1.0 + 0.5 + 1 / 3) / 3)


class TestTemperatureInvariance:
    def test_accuracy_unchanged_by_temperature_scaling(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=2.0, size=(30, 3))
        exs = [
            eval_example(
                f"t{i}",
                old_label=int(rng.integers(3)),
                counter={int(rng.integers(3)): 70, int(rng.integers(3)): 20},
            )
            for i in range(30)
        ]
        base = accuracy_old_new(temp_scale(logits, 1.0), exs)
        for T in (0.01, 0.5, 3.0, 100.0):
            assert accuracy_old_new(temp_scale(logits, T), exs) == base
