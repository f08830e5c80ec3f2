"""Corpus tests: aggregation, budget allocation, synthetic pools, file I/O."""

import json

import numpy as np
import pytest

from mixbudget.corpus import (
    AnnotatedExample,
    BudgetPlan,
    CorpusError,
    LabelVocab,
    SyntheticConfig,
    aggregate_annotations,
    allocate_budget,
    annotation_entropy,
    generate_synthetic_pool,
    load_corpus,
    load_vocab,
    save_corpus,
    save_vocab,
    split_manifest,
)

VOCAB = LabelVocab(("E", "N", "C"))
E, N, C = 0, 1, 2


def make_pool(n, n_annotations=100, seed=0, d=4):
    """Pool with random reservoirs; deterministic."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(n):
        p = rng.dirichlet(np.ones(3))
        pool.append(
            AnnotatedExample(
                uid=f"p{i:05d}",
                features=rng.normal(size=d),
                annotations=[int(a) for a in rng.choice(3, size=n_annotations, p=p)],
            )
        )
    return pool


class TestLabelVocab:
    def test_rejects_empty(self):
        with pytest.raises(CorpusError):
            LabelVocab(())

    def test_rejects_duplicates(self):
        with pytest.raises(CorpusError):
            LabelVocab(("E", "E", "C"))

    def test_index_lookup(self):
        assert VOCAB.index("N") == 1
        assert VOCAB.size == 3
        with pytest.raises(CorpusError):
            VOCAB.index("X")


class TestAggregateAnnotations:
    def test_dense_counter_distribution(self):
        # 93 N, 7 E out of 100 annotations
        anns = [N] * 93 + [E] * 7
        dist = aggregate_annotations(anns, "distribution", VOCAB)
        assert np.allclose(dist, [0.07, 0.93, 0.0])

    def test_single_annotation_is_one_hot(self):
        dist = aggregate_annotations([E], "distribution", VOCAB)
        assert np.array_equal(dist, [1.0, 0.0, 0.0])

    def test_majority(self):
        assert aggregate_annotations([E, E, N, N, E], "majority", VOCAB) == E

    def test_majority_tie_breaks_by_vocab_order(self):
        # E precedes N in the canonical order
        assert aggregate_annotations([E, N], "majority", VOCAB) == E
        assert aggregate_annotations([N, C], "majority", VOCAB) == N

    def test_empty_raises(self):
        with pytest.raises(CorpusError, match="zero annotations"):
            aggregate_annotations([], "distribution", VOCAB)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            anns = [int(a) for a in rng.integers(0, 3, size=17)]
            base = aggregate_annotations(anns, "distribution", VOCAB)
            rng.shuffle(anns)
            assert np.array_equal(base, aggregate_annotations(anns, "distribution", VOCAB))

    def test_copies_of_one_label_are_one_hot(self):
        for n in (1, 5, 100):
            dist = aggregate_annotations([C] * n, "distribution", VOCAB)
            assert np.array_equal(dist, [0.0, 0.0, 1.0])


class TestBudgetPlan:
    def test_exact_arithmetic_enforced(self):
        with pytest.raises(CorpusError, match="does not balance"):
            BudgetPlan(total_labels=100, n_single=50, n_multi=10, k_per_multi=4)

    def test_negative_counts_rejected(self):
        with pytest.raises(CorpusError):
            BudgetPlan(total_labels=10, n_single=20, n_multi=-1, k_per_multi=10)

    def test_valid_plans(self):
        BudgetPlan(150000, 145000, 500, 10)
        BudgetPlan(500, 100, 200, 2)
        BudgetPlan(1000, 0, 500, 2)


class TestAllocateBudget:
    def test_label_total_exact(self):
        pool = make_pool(300)
        plan = BudgetPlan(260, 200, 6, 10, n_unlabeled=50)
        split = allocate_budget(pool, plan, seed=0, vocab=VOCAB)
        assert split.label_total() == 260
        assert len(split.singles) == 200
        assert len(split.multis) == 6
        assert len(split.unlabeled) == 50
        assert all(len(ex.annotations) == 1 for ex in split.singles)
        assert all(len(ex.annotations) == 10 for ex in split.multis)
        assert all(len(ex.annotations) == 0 for ex in split.unlabeled)

    def test_sets_disjoint_by_uid(self):
        pool = make_pool(100)
        plan = BudgetPlan(80, 40, 4, 10, n_unlabeled=56)
        split = allocate_budget(pool, plan, seed=1, vocab=VOCAB)
        uids = [ex.uid for ex in split.singles + split.multis + split.unlabeled]
        assert len(uids) == len(set(uids))

    def test_deterministic_given_seed(self):
        pool = make_pool(120)
        plan = BudgetPlan(100, 60, 4, 10, n_unlabeled=20)
        a = allocate_budget(pool, plan, seed=9, vocab=VOCAB)
        b = allocate_budget(pool, plan, seed=9, vocab=VOCAB)
        assert a.singles == b.singles and a.multis == b.multis and a.unlabeled == b.unlabeled

    def test_pool_not_mutated(self):
        pool = make_pool(50)
        before = [list(ex.annotations) for ex in pool]
        allocate_budget(pool, BudgetPlan(40, 20, 2, 10, n_unlabeled=20), seed=0, vocab=VOCAB)
        assert [list(ex.annotations) for ex in pool] == before

    def test_all_single_plan(self):
        pool = make_pool(60)
        split = allocate_budget(pool, BudgetPlan(60, 60, 0, 1), seed=0, vocab=VOCAB)
        assert len(split.singles) == 60 and not split.multis
        assert split.label_total() == 60

    def test_multi_only_plan(self):
        pool = make_pool(60)
        split = allocate_budget(pool, BudgetPlan(100, 0, 50, 2), seed=0, vocab=VOCAB)
        assert not split.singles and len(split.multis) == 50
        assert split.label_total() == 100

    def test_pool_exhausted_names_deficit(self):
        pool = make_pool(10)
        with pytest.raises(CorpusError, match="needs 20 labeled examples, pool has 10"):
            allocate_budget(pool, BudgetPlan(20, 20, 0, 1), seed=0, vocab=VOCAB)

    def test_short_reservoir_names_example(self):
        pool = make_pool(5, n_annotations=3)
        with pytest.raises(CorpusError, match="has 3 annotations, needs 10"):
            allocate_budget(pool, BudgetPlan(10, 0, 1, 10), seed=0, vocab=VOCAB)

    def test_subsample_of_full_reservoir_matches_counter(self):
        # taking all 100 annotations reproduces the reservoir's empirical
        # distribution exactly
        cfg = SyntheticConfig(n_examples=30, k_classes=3, d_feat=3, seed=5)
        pool = generate_synthetic_pool(cfg)
        plan = BudgetPlan(1000, 0, 10, 100)
        split = allocate_budget(pool, plan, seed=2, vocab=VOCAB)
        by_uid = {ex.uid: ex for ex in pool}
        for ex in split.multis:
            counter = by_uid[ex.uid].label_counter
            dist = aggregate_annotations(ex.annotations, "distribution", VOCAB)
            expected = np.array([counter.get(c, 0) for c in range(3)]) / 100
            assert np.array_equal(dist, expected)

    def test_entropy_selection_ordering(self):
        pool = make_pool(200, seed=4)
        by_uid = {ex.uid: annotation_entropy(ex.annotations, VOCAB) for ex in pool}
        low = allocate_budget(
            pool, BudgetPlan(300, 0, 30, 10, selection_strategy="low_entropy"), 7, VOCAB
        )
        high = allocate_budget(
            pool, BudgetPlan(300, 0, 30, 10, selection_strategy="high_entropy"), 7, VOCAB
        )
        mean_low = np.mean([by_uid[ex.uid] for ex in low.multis])
        mean_high = np.mean([by_uid[ex.uid] for ex in high.multis])
        assert mean_low <= mean_high

    def test_manifest_checks_total(self):
        pool = make_pool(50)
        plan = BudgetPlan(40, 30, 1, 10, n_unlabeled=5)
        split = allocate_budget(pool, plan, seed=0, vocab=VOCAB)
        manifest = split_manifest(plan, split)
        assert manifest["label_total"] == 40
        split.singles[0].annotations.append(E)  # corrupt
        with pytest.raises(CorpusError, match="41 labels"):
            split_manifest(plan, split)


class TestGenerateSyntheticPool:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SyntheticConfig(n_examples=40, k_classes=3, d_feat=5, seed=12)
        a, b = generate_synthetic_pool(cfg), generate_synthetic_pool(cfg)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a, pa, VOCAB)
        save_corpus(b, pb, VOCAB)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_ambiguity_sharp_limit(self):
        cfg = SyntheticConfig(
            n_examples=50, k_classes=3, d_feat=4,
            ambiguous_fraction=0.0, dirichlet_sharp=1e9, seed=3,
        )
        pool = generate_synthetic_pool(cfg)
        for ex in pool:
            assert ex.true_dist.max() > 1 - 1e-6
            assert len(set(ex.annotations)) == 1  # unanimous reservoir

    def test_mean_entropy_matches_monte_carlo_oracle(self):
        # Frozen Monte-Carlo estimate from 10^6 Dirichlet draws with the
        # same concentrations (half at sharp=50 on a dominant class, half
        # at flat=1): mean entropy 0.5033 nats, per-example std 0.3642.
        # The digamma closed form psi(a0+1) - sum(a_i/a0 * psi(a_i+1))
        # gives 0.50338, agreeing with the simulation.
        mc_mean, mc_std = 0.5033, 0.3642
        cfg = SyntheticConfig(
            n_examples=1000, k_classes=3, d_feat=3, ambiguous_fraction=0.5,
            dirichlet_sharp=50.0, dirichlet_flat=1.0, seed=202,
        )
        pool = generate_synthetic_pool(cfg)
        entropies = [
            -np.sum(ex.true_dist[ex.true_dist > 0] * np.log(ex.true_dist[ex.true_dist > 0]))
            for ex in pool
        ]
        assert abs(np.mean(entropies) - mc_mean) < 3 * mc_std / np.sqrt(len(pool))

    def test_counter_sums_to_reservoir_size(self):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=25, k_classes=3, d_feat=3, seed=1))
        for ex in pool:
            assert sum(ex.label_counter.values()) == 100
            assert len(ex.annotations) == 100
            assert ex.old_label in (0, 1, 2)

    def test_reservoir_matches_counter(self):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=10, k_classes=3, d_feat=3, seed=8))
        for ex in pool:
            counts = np.bincount(ex.annotations, minlength=3)
            assert {c: int(n) for c, n in enumerate(counts) if n} == ex.label_counter

    def test_config_validation(self):
        with pytest.raises(CorpusError):
            SyntheticConfig(n_examples=10, k_classes=3, d_feat=2, seed=0)  # d < k
        with pytest.raises(CorpusError):
            SyntheticConfig(n_examples=10, k_classes=3, d_feat=3, ambiguous_fraction=1.5, seed=0)


class TestCorpusIO:
    def test_round_trip_identity(self, tmp_path):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=20, k_classes=3, d_feat=4, seed=2))
        path = tmp_path / "pool.jsonl"
        save_corpus(pool, path, VOCAB)
        loaded = load_corpus(path, VOCAB)
        assert loaded == pool

    def test_round_trip_with_empty_annotations(self, tmp_path):
        pool = [AnnotatedExample(uid="u1", features=np.array([0.5, -1.0]), annotations=[])]
        path = tmp_path / "p.jsonl"
        save_corpus(pool, path, VOCAB)
        assert load_corpus(path, VOCAB) == pool

    def test_missing_feature_field_names_uid(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"uid": "u7", "labels": []}) + "\n")
        with pytest.raises(CorpusError, match="u7.*missing 'x'"):
            load_corpus(path, VOCAB)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"uid": "u1", "x": [0.0], "labels": []})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, VOCAB)

    def test_unknown_label_names_uid(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"uid": "u9", "x": [0.0], "labels": ["Z"]}) + "\n")
        with pytest.raises(CorpusError, match="u9"):
            load_corpus(path, VOCAB)

    @pytest.mark.parametrize("fields, match", [
        ({"x": [float("nan"), 1.0]}, "'x' must be a 1-D vector of finite numbers"),
        ({"x": [0.0, 1.0], "true_dist": [3, 9, 1]}, "true_dist: distribution entries"),
        ({"x": [0.0, 1.0], "true_dist": [float("nan"), 0.5, 0.5]}, "true_dist: distribution entries"),
        ({"x": [0.0, 1.0], "true_dist": [0.2, 0.2, 0.2]}, "true_dist: distribution sums"),
        ({"x": [0.0, 1.0], "true_dist": [0.5, 0.5]}, "true_dist has 2 entries, vocab has 3"),
    ])
    def test_bad_values_name_uid(self, tmp_path, fields, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"uid": "u3", "labels": [], **fields}) + "\n")
        with pytest.raises(CorpusError, match=f"u3: {match}"):
            load_corpus(path, VOCAB)

    def test_feature_dimension_change_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = ([0.0, 1.0], [2.0, 3.0], [4.0])
        path.write_text("".join(json.dumps({"uid": f"u{i}", "x": x, "labels": []}) + "\n"
                                for i, x in enumerate(rows)))
        with pytest.raises(CorpusError, match="line 3 has 1 features, the first record has 2"):
            load_corpus(path, VOCAB)

    def test_dense_counter_record(self, tmp_path):
        rec = {
            "uid": "c1",
            "x": [0.1, 0.2],
            "labels": [],
            "old_label": "E",
            "label_counter": {"n": 93, "e": 7},
        }
        vocab = LabelVocab(("e", "n", "c"))
        rec["old_label"] = "e"
        path = tmp_path / "dense.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        ex = load_corpus(path, vocab)[0]
        assert sum(ex.label_counter.values()) == 100
        assert ex.label_counter == {0: 7, 1: 93}
        assert ex.old_label == 0

    def test_vocab_file_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(VOCAB, path)
        assert load_vocab(path) == VOCAB
