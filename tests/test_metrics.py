"""Metric tests: divergences, accuracies, typing metrics, report assembly."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from mixbudget.calibrate import temp_scale
from mixbudget.cli import read_report_summary
from mixbudget.corpus import Corpus
from mixbudget.metrics import (
    HIST_BINS,
    MetricsError,
    entropy_histogram,
    entropy_rows,
    evaluate_distribution,
    evaluate_typing,
    jsd_rows,
    kl_rows,
    mrr,
    write_histogram_csv,
    write_report,
)


def kl_div(p, q):
    return float(kl_rows([p], [q])[0])


def jsd(p, q):
    return float(jsd_rows([p], [q])[0])


def entropy(p):
    return float(entropy_rows([p])[0])


def accuracies(preds, examples):
    """acc_old and acc_new as the distribution report gives them."""
    report = evaluate_distribution(preds, examples, 3)
    return report.acc_old, report.acc_new


def eval_example(uid, pred_dim=3, old_label=0, counter=None, true_dist=None):
    """One evaluation row's values; ``eval_corpus`` stacks rows into a corpus."""
    return SimpleNamespace(uid=uid, old_label=old_label, label_counter=counter or {0: 100},
                           true_dist=true_dist)


def bare_example(uid, true_dist=None):
    """A row without votes: no old label and no annotation counter."""
    return SimpleNamespace(uid=uid, old_label=None, label_counter=None, true_dist=true_dist)


def eval_corpus(examples, k=3):
    """Stack rows into a corpus; a row without a side value holds NaNs, -1 or zeros there."""
    def column(values, blank):
        if all(v is None for v in values):
            return None
        return np.array([blank if v is None else v for v in values])

    counters = [None if ex.label_counter is None else [ex.label_counter.get(c, 0) for c in range(k)]
                for ex in examples]
    return Corpus.from_rows([ex.uid for ex in examples], np.zeros((len(examples), 2)),
                            [[] for _ in examples],
                            true_dist=column([ex.true_dist for ex in examples], [np.nan] * k),
                            old_label=column([ex.old_label for ex in examples], -1),
                            counter=column(counters, [0] * k))


def multihot(type_sets, k=3) -> np.ndarray:
    """Boolean (n, k) rows holding the types of each set."""
    M = np.zeros((len(type_sets), k), dtype=bool)
    for row, types in zip(M, type_sets):
        row[list(types)] = True
    return M


def typing_corpus(gold_sets, uids=None):
    """A typing eval corpus whose row i is annotated with the types of ``gold_sets[i]``."""
    uids = uids or [f"t{i}" for i in range(len(gold_sets))]
    return Corpus.from_rows(uids, np.zeros((len(gold_sets), 1)), [sorted(g) for g in gold_sets])


def prf(pred_sets, gold_sets, uids=None, k=3):
    """Macro P/R/F1 of ``evaluate_typing`` on scores that predict exactly ``pred_sets``."""
    scores = np.where(multihot(pred_sets, k), 0.9, 0.1)
    report = evaluate_typing(scores, typing_corpus(gold_sets, uids))
    return report.macro_p, report.macro_r, report.macro_f1


def type_mrr(scores, gold_sets):
    scores = np.asarray(scores, dtype=np.float64)
    return mrr(scores, multihot(gold_sets, scores.shape[1]))


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8))
    def test_symmetric_and_bounded_property(self, data, k):
        # unnormalised non-negative rows, zeros included, scaled to sum 1
        weights = st.lists(st.floats(0.0, 1e6), min_size=k, max_size=k).filter(lambda v: sum(v) > 0)
        p, q = (np.array(data.draw(weights)) for _ in range(2))
        p, q = p / p.sum(), q / q.sum()
        assert jsd(p, q) == jsd(q, p)
        assert 0.0 <= jsd(p, q) <= 1.0

    @pytest.mark.parametrize("p, q", [
        # half of the smallest subnormal rounds to 0; the mixture must not
        ([0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 5e-324]),
        # the two halves' rounding errors summed to -8.6e-18
        ([0.0, 1.0], np.array([1e-10, 699051.0]) / (1e-10 + 699051.0)),
    ])
    def test_near_identical_rows_stay_in_bounds(self, p, q):
        assert jsd(p, q) == jsd(q, p)
        assert 0.0 <= jsd(p, q) <= 1e-15

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


class TestWideRows:
    """Each row's entropy, KL and JSD is its terms' sum to within the rounding of summing at most 40
    terms: relative 1e-12 of the terms' magnitudes, against ``math.fsum`` of the same terms."""

    @staticmethod
    def fsum_rows(P, Q, log):
        """Per row, ``math.fsum`` of p * log(p / q) over p > 0, and the sum of the terms' magnitudes."""
        terms = [[p * log(p / q) for p, q in zip(prow, qrow) if p > 0] for prow, qrow in zip(P, Q)]
        return np.array([math.fsum(t) for t in terms]), np.array([math.fsum(map(abs, t)) for t in terms])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 40), n=st.integers(1, 4))
    def test_rows_agree_with_fsum(self, data, k, n):
        entry = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        row = st.lists(entry, min_size=k, max_size=k).filter(lambda v: sum(v) > 0)
        P, Q = (np.array([data.draw(row) for _ in range(n)]) for _ in range(2))
        P, Q = P / P.sum(axis=1, keepdims=True), Q / Q.sum(axis=1, keepdims=True)
        M = 0.5 * (P + Q)

        H, H_size = self.fsum_rows(P, np.ones_like(P), math.log)
        kl, kl_size = self.fsum_rows(P, np.maximum(Q, 1e-10), math.log)
        (jp, jp_size), (jq, jq_size) = (self.fsum_rows(A, M, math.log2) for A in (P, Q))
        assert np.all(np.abs(entropy_rows(P) + H) <= 1e-12 * H_size)
        assert np.all(np.abs(kl_rows(P, Q) - kl) <= 1e-12 * kl_size)
        assert np.all(np.abs(jsd_rows(P, Q) - np.clip(0.5 * jp + 0.5 * jq, 0.0, 1.0))
                      <= 1e-12 * (jp_size + jq_size))


class TestEntropyHistogram:
    def test_one_hot_lands_in_first_bin(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        counts = entropy_histogram([[1.0, 0.0, 0.0]], 3)
        assert counts[0] == 1 and counts.sum() == 1

    def test_uniform_lands_in_last_bin(self):
        u = [1 / 3] * 3
        assert entropy(u) == pytest.approx(math.log(3), abs=1e-12)
        counts = entropy_histogram([u], 3)
        assert counts[-1] == 1

    @pytest.mark.parametrize("k", [5, 12, 13, 18])
    def test_uniform_row_past_ln_k_lands_in_last_bin(self, k):
        # at these k a uniform row's entropy rounds above ln k, the last edge
        u = np.full((1, k), 1 / k)
        assert entropy_rows(u)[0] > math.log(k)
        counts = entropy_histogram(u, k)
        assert counts[-1] == 1 and counts.sum() == 1

    def test_fixture_binning_matches_hand_assignment(self):
        # two-class distributions with entropies spread over [0, ln 2]
        dists = [
            [1.0, 0.0], [0.999, 0.001], [0.95, 0.05], [0.9, 0.1], [0.8, 0.2],
            [0.75, 0.25], [0.7, 0.3], [0.6, 0.4], [0.55, 0.45], [0.5, 0.5],
        ]
        counts = entropy_histogram(dists, 2)
        width = math.log(2) / HIST_BINS
        expected = [0] * HIST_BINS
        for d in dists:
            h = -sum(x * math.log(x) for x in d if x > 0)
            expected[min(int(h / width), HIST_BINS - 1)] += 1
        assert counts.tolist() == expected
        assert counts.sum() == len(dists)


class TestAccuracyOldNew:
    def test_disagreeing_references_count_separately(self):
        # prediction argmax N, old label E, dense counter majority N
        ex = eval_example("a", old_label=0, counter={1: 93, 0: 7})
        acc_old, acc_new = accuracies([[0.1, 0.8, 0.1]], eval_corpus([ex]))
        assert (acc_old, acc_new) == (0.0, 1.0)

    def test_perfect_predictions(self):
        exs = [
            eval_example("a", old_label=2, counter={2: 60, 1: 40}),
            eval_example("b", old_label=0, counter={0: 90, 2: 10}),
        ]
        preds = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert accuracies(preds, eval_corpus(exs)) == (1.0, 1.0)

    def test_uniform_predictions_tie_to_first_label(self):
        old_labels = [0, 1, 2, 0, 1]
        majorities = [0, 0, 1, 2, 0]
        exs = [
            eval_example(f"u{i}", old_label=o, counter={m: 80, (m + 1) % 3: 20})
            for i, (o, m) in enumerate(zip(old_labels, majorities))
        ]
        preds = [[1 / 3] * 3] * 5  # argmax tie -> label 0
        acc_old, acc_new = accuracies(preds, eval_corpus(exs))
        assert acc_old == pytest.approx(2 / 5)   # old labels 0 at positions 0, 3
        assert acc_new == pytest.approx(3 / 5)   # majorities 0 at positions 0, 1, 4

    def test_missing_gold_fields_name_uid(self):
        ex = bare_example("nolabels")
        with pytest.raises(MetricsError, match="nolabels"):
            accuracies([[1.0, 0.0, 0.0]], eval_corpus([ex]))


class TestMacroPRF:
    def test_perfect_match(self):
        sets = [{0, 1}, {2}]
        assert prf(sets, sets) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        p, r, f1 = prf([{0, 1}], [{1, 2}])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_disjoint(self):
        assert prf([{0}], [{1, 2}]) == (0.0, 0.0, 0.0)

    def test_empty_gold_names_uid(self):
        with pytest.raises(MetricsError, match="ex42"):
            prf([{0}], [set()], uids=["ex42"])


class TestMRR:
    def test_all_gold_ranked_first(self):
        scores = [[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]]
        assert type_mrr(scores, [{0}, {1}]) == 1.0

    def test_rank_four(self):
        assert type_mrr([[0.9, 0.8, 0.7, 0.6]], [{3}]) == pytest.approx(0.25)

    def test_two_golds_at_top_ranks(self):
        assert type_mrr([[0.9, 0.8, 0.1]], [{0, 1}]) == pytest.approx(0.75)

    def test_score_ties_break_by_type_index(self):
        # types 0 and 1 tie; type 0 takes rank 1, type 1 rank 2
        assert type_mrr([[0.5, 0.5, 0.1]], [{1}]) == pytest.approx(0.5)


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
        return evaluate_distribution(np.array(preds), eval_corpus(exs), 3), exs, preds

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

    def test_true_dist_gold_source(self):
        rng = np.random.default_rng(6)
        exs, preds = [], []
        for i in range(5):
            true = rng.dirichlet(np.ones(3))
            exs.append(eval_example(f"g{i}", true_dist=true))
            preds.append(rng.dirichlet(np.ones(3)))
        report = evaluate_distribution(np.array(preds), eval_corpus(exs), 3, gold_source="true_dist")
        expected = np.mean([kl_div(ex.true_dist, p) for ex, p in zip(exs, preds)])
        assert report.kl == pytest.approx(expected, abs=1e-12)

    def test_true_dist_only_corpus_omits_accuracy(self):
        rng = np.random.default_rng(6)
        exs = [bare_example(f"u{i}", true_dist=rng.dirichlet(np.ones(3))) for i in range(5)]
        preds = rng.dirichlet(np.ones(3), size=5)
        report = evaluate_distribution(preds, eval_corpus(exs), 3, gold_source="true_dist")
        summary = report.summary()
        assert "acc_old" not in summary and "acc_new" not in summary
        for rec in report.per_example:
            assert "correct_old" not in rec and "correct_new" not in rec
        expected = np.mean([kl_div(ex.true_dist, p) for ex, p in zip(exs, preds)])
        assert report.kl == pytest.approx(expected, abs=1e-12)
        # vote fields on only some examples still fail, naming the first without
        exs[2] = eval_example("u2", true_dist=exs[2].true_dist)
        with pytest.raises(MetricsError, match="u0: missing old_label"):
            evaluate_distribution(preds, eval_corpus(exs), 3, gold_source="true_dist")

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
        report = evaluate_typing(scores, typing_corpus([{0, 1}, {0}], ["t0", "t1"]))
        # t0: pred {0,1} vs gold {0,1}; t1: all below threshold -> argmax {2}
        assert report.macro_p == pytest.approx(0.5)
        assert report.macro_r == pytest.approx(0.5)
        assert report.macro_f1 == pytest.approx(0.5)
        # gold ranks: t0 type0 rank1, type1 rank2; t1 type0 rank3
        assert report.mrr == pytest.approx((1.0 + 0.5 + 1 / 3) / 3)


def reference_typing(S, annotations, uids, threshold):
    """The typing report as a loop over type sets: each row's predicted set is
    its types scoring above ``threshold``, else its (first) argmax; gold types
    are ranked in ascending type order."""
    per, rr = [], []
    for uid, row, labels in zip(uids, S.tolist(), annotations):
        gold = set(labels)
        pred = {t for t, s in enumerate(row) if s > threshold} or {row.index(max(row))}
        hit = len(pred & gold)
        per.append({"uid": uid, "pred_types": sorted(pred), "gold_types": sorted(gold),
                    "precision": hit / len(pred), "recall": hit / len(gold)})
        order = sorted(range(len(row)), key=lambda t: -row[t])  # stable: ties in type order
        rr += [1.0 / (order.index(t) + 1) for t in sorted(gold)]
    p = float(np.mean([rec["precision"] for rec in per]))
    r = float(np.mean([rec["recall"] for rec in per]))
    return per, (p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0), float(np.mean(rr))


class TestTypingAgainstSetLoop:
    GRID = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0]  # few values, so scores tie

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_report_equals_set_loop(self, data):
        k = data.draw(st.integers(2, 29), label="types")
        n = data.draw(st.integers(1, 12), label="rows")
        S = np.array(data.draw(st.lists(st.lists(st.sampled_from(self.GRID), min_size=k, max_size=k),
                                        min_size=n, max_size=n), label="scores"))
        threshold = data.draw(st.sampled_from(self.GRID[1:-1]), label="threshold")
        # 1-5 distinct gold types, listed in any order and possibly repeated
        annotations = [data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=5),
                                 label="annotations") for _ in range(n)]
        uids = [f"r{i}" for i in range(n)]
        report = evaluate_typing(S, Corpus.from_rows(uids, np.zeros((n, 1)), annotations), threshold)
        per, (p, r, f1), expected_mrr = reference_typing(S, annotations, uids, threshold)
        assert report.per_example == per
        assert (report.macro_p, report.macro_r, report.macro_f1) == (p, r, f1)
        assert report.mrr == expected_mrr
        assert report.n_examples == n


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
        exs = eval_corpus(exs)
        base = accuracies(temp_scale(logits, 1.0), exs)
        for T in (0.01, 0.5, 3.0, 100.0):
            assert accuracies(temp_scale(logits, T), exs) == base
