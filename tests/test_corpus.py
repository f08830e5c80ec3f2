"""Corpus tests: aggregation, budget allocation, synthetic pools, file I/O."""

import json
import math
import os
import re
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixbudget.atomic import atomic_write
from mixbudget.corpus import (
    DIST_TOL,
    BudgetPlan,
    Corpus,
    CorpusError,
    CorpusSplit,
    LabelVocab,
    SyntheticConfig,
    allocate_budget,
    generate_synthetic_pool,
    load_corpus,
    load_vocab,
    save_corpus,
    save_vocab,
    split_manifest,
)
from mixbudget.metrics import entropy_rows

VOCAB = LabelVocab(("E", "N", "C"))
E, N, C = 0, 1, 2


def make_pool(n, n_annotations=100, seed=0, d=4, k=3):
    """Pool with random reservoirs; deterministic. ``n_annotations`` is one
    reservoir size for every row, or one size per row."""
    rng = np.random.default_rng(seed)
    sizes = [n_annotations] * n if np.isscalar(n_annotations) else n_annotations
    uids, X, annotations = [], [], []
    for i in range(n):
        p = rng.dirichlet(np.ones(k))
        uids.append(f"p{i:05d}")
        X.append(rng.normal(size=d))
        annotations.append([int(a) for a in rng.choice(k, size=sizes[i], p=p)])
    return Corpus.from_rows(uids, np.reshape(X, (n, d)), annotations)


def aggregate_annotations(annotations, mode, vocab):
    """One row's target from the row-wise corpus aggregation: its empirical
    frequencies, or the majority label (first max)."""
    row = Corpus.from_rows(["r"], np.zeros((1, 2)), [annotations])
    if mode == "distribution":
        return row.label_distribution(vocab.size)[0]
    return int(row.counts(vocab.size).argmax(axis=1)[0])


def every_row(split):
    return [*split.singles, *split.multis, *split.unlabeled]


def reference_allocation(reservoirs, plan, seed, k_classes):
    """Budget allocation as one loop per example over plain lists: each
    set's (pool row, annotations) in set order. Entropy ranks the sorted
    frequencies, so examples whose counts permute each other tie exactly."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(reservoirs))
    if plan.selection_strategy == "random":
        multi_idx = order[: plan.n_multi]
        rest = order[plan.n_multi :]
    else:
        entropies = []
        for i in order:
            counts = np.bincount(reservoirs[i], minlength=k_classes).astype(np.float64)
            freqs = np.sort(counts / counts.sum())
            logs = np.log(freqs, out=np.zeros_like(freqs), where=freqs > 0)
            entropies.append(float(-np.sum(freqs * logs)))
        key = np.array(entropies)
        ranked = order[np.argsort(-key if plan.selection_strategy == "high_entropy" else key, kind="stable")]
        multi_idx = ranked[: plan.n_multi]
        taken = set(multi_idx.tolist())
        rest = np.array([i for i in order if i not in taken], dtype=int)
    single_idx = rest[: plan.n_single]
    unlabeled_idx = rest[plan.n_single : plan.n_single + plan.n_unlabeled]
    multis = []
    for i in multi_idx:
        picked = rng.choice(len(reservoirs[i]), size=plan.k_per_multi, replace=False)
        multis.append((int(i), [reservoirs[i][j] for j in picked]))
    singles = []
    for i in single_idx:
        j = int(rng.integers(len(reservoirs[i])))
        singles.append((int(i), [reservoirs[i][j]]))
    return {"singles": singles, "multis": multis,
            "unlabeled": [(int(i), []) for i in unlabeled_idx]}


# the faults that the loader tests inject into one record, in the order the
# loader checks them
FAULT_ORDER = ("missing uid", "labels not a list", "unknown label", "bad counter value", "feature dimension",
               "non-finite x", "non-number x", "bad true_dist")


def inject_fault(rec, kind, lineno, draw):
    """Put the fault ``kind`` into ``rec``, a saved synthetic record on line
    ``lineno``, drawing its details with ``draw``; returns the loader's
    message for it."""
    uid = rec.get("uid")
    if kind == "non-finite x":
        rec["x"][draw(st.integers(0, 3), label="entry")] = math.nan
        return f"line {lineno}: record {uid}: 'x' must be a 1-D vector of finite numbers"
    if kind == "non-number x":
        rec["x"][draw(st.integers(0, 3), label="entry")] = draw(
            st.sampled_from(["abc", "0.5", [0.5], {"a": 1}, None, 10**400]), label="value")
        return f"line {lineno}: record {uid}: 'x' must be a 1-D vector of finite numbers"
    if kind == "bad true_dist":
        rec["true_dist"] = [0.5, 0.25, 0.125]
        return f"line {lineno}: record {uid}: true_dist: distribution sums to 0.875, expected 1"
    if kind == "unknown label":
        rec["labels"][draw(st.integers(0, 99), label="label")] = "Z"
        return f"line {lineno}: record {uid}: label 'Z' not in vocab"
    if kind == "feature dimension":
        rec["x"].append(0.0)
        return f"line {lineno} has 5 features, the first record has 4"
    if kind == "labels not a list":
        rec["labels"] = "".join(rec["labels"][:2])
        return f"line {lineno}: record {uid}: 'labels' must be a list of label names"
    if kind == "bad counter value":
        name = draw(st.sampled_from(sorted(rec["label_counter"])), label="counter label")
        value = draw(st.sampled_from(["abc", -3, 2.7, None, True, [1]]), label="count")
        rec["label_counter"][name] = value
        return (f"line {lineno}: record {uid}: label_counter {{{name!r}: {value!r}}} "
                f"is not a non-negative integer count of a vocab label")
    assert kind == "missing uid"
    del rec["uid"]
    return f"line {lineno}: record is missing a string 'uid' field"


def assert_first_fault_named(n, lineno, kinds, draw):
    """Save an ``n``-row synthetic pool with the faults ``kinds`` on line
    ``lineno``, the first injected last, and check that loading it fails with
    the first one's message."""
    pool = generate_synthetic_pool(SyntheticConfig(n_examples=n, k_classes=3, d_feat=4, seed=n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.jsonl"
        save_corpus(pool, path, VOCAB)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[lineno - 1])
        for kind in reversed(kinds):
            message = inject_fault(rec, kind, lineno, draw)
        lines[lineno - 1] = json.dumps(rec, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value) == f"{path}: {message}"


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

    @pytest.mark.parametrize("name", ["", "  ", "\t", "a\nb", "a\rb", "c\n"])
    def test_rejects_names_the_vocab_file_cannot_hold(self, name):
        with pytest.raises(CorpusError, match="non-blank character and no line break"):
            LabelVocab(("E", name))

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    def test_accepted_names_survive_the_vocab_file(self, names):
        try:
            vocab = LabelVocab(tuple(names))
        except CorpusError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            save_vocab(vocab, path)
            assert load_vocab(path) == vocab


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

    @pytest.mark.parametrize("k_per_multi", [0, -1])
    def test_multis_carry_at_least_one_label(self, k_per_multi):
        # k_per_multi 0 balances any budget of singles alone, yet would split "multis" with no labels
        with pytest.raises(CorpusError, match="^k_per_multi must be >= 1$"):
            BudgetPlan(5, 5, 3, k_per_multi)

    def test_a_plan_spends_at_least_one_label(self):
        with pytest.raises(CorpusError, match="^total_labels must be >= 1$"):
            BudgetPlan(0, 0, 0, 1, n_unlabeled=5)

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
        uids = [ex.uid for ex in every_row(split)]
        assert len(uids) == len(set(uids))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), selection=st.sampled_from(["random", "low_entropy", "high_entropy"]))
    def test_exact_budget_over_random_plans(self, data, selection):
        n_pool = data.draw(st.integers(1, 60), label="n_pool")
        reservoir = data.draw(st.integers(1, 12), label="reservoir")
        k = data.draw(st.integers(1, reservoir), label="k_per_multi")
        n_multi = data.draw(st.integers(0, n_pool), label="n_multi")
        n_single = data.draw(st.integers(0, n_pool - n_multi), label="n_single")
        assume(n_single + n_multi)  # a plan spends at least one label
        n_unlabeled = data.draw(st.integers(0, n_pool), label="n_unlabeled")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        pool = make_pool(n_pool, n_annotations=reservoir, seed=seed % 1000)
        plan = BudgetPlan(n_single + k * n_multi, n_single, n_multi, k,
                          n_unlabeled=n_unlabeled, selection_strategy=selection)
        split = allocate_budget(pool, plan, seed=seed, vocab=VOCAB)
        assert split.label_total() == plan.total_labels
        assert [len(ex.annotations) for ex in split.singles] == [1] * n_single
        assert [len(ex.annotations) for ex in split.multis] == [k] * n_multi
        assert len(split.unlabeled) == min(n_unlabeled, n_pool - n_single - n_multi)
        assert all(not ex.annotations for ex in split.unlabeled)
        uids = [ex.uid for ex in every_row(split)]
        assert len(uids) == len(set(uids))
        # every set's annotations are a sub-multiset of the example's reservoir
        reservoirs = {ex.uid: np.bincount(ex.annotations, minlength=3) for ex in pool}
        for ex in [*split.singles, *split.multis]:
            assert np.all(np.bincount(ex.annotations, minlength=3) <= reservoirs[ex.uid])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), selection=st.sampled_from(["random", "low_entropy", "high_entropy"]))
    def test_same_draws_as_per_example_loop(self, data, selection):
        k_classes = data.draw(st.integers(2, 10), label="k_classes")
        n_pool = data.draw(st.integers(1, 60), label="n_pool")
        k = data.draw(st.integers(1, 6), label="k_per_multi")
        sizes = data.draw(st.lists(st.integers(k, 12), min_size=n_pool, max_size=n_pool),
                          label="reservoir sizes")
        n_multi = data.draw(st.integers(0, n_pool), label="n_multi")
        n_single = data.draw(st.integers(0, n_pool - n_multi), label="n_single")
        assume(n_single + n_multi)  # a plan spends at least one label
        n_unlabeled = data.draw(st.integers(0, n_pool), label="n_unlabeled")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        vocab = LabelVocab(tuple(f"l{c}" for c in range(k_classes)))
        pool = make_pool(n_pool, n_annotations=sizes, seed=seed % 1000, k=k_classes)
        plan = BudgetPlan(n_single + k * n_multi, n_single, n_multi, k,
                          n_unlabeled=n_unlabeled, selection_strategy=selection)
        split = allocate_budget(pool, plan, seed=seed, vocab=vocab)
        expected = reference_allocation(pool.annotation_lists(), plan, seed, k_classes)
        for name in ("singles", "multis", "unlabeled"):
            part = getattr(split, name)
            rows = [int(uid[1:]) for uid in part.uid]
            assert list(zip(rows, part.annotation_lists())) == expected[name], name
            assert np.array_equal(part.X, pool.X[rows])

    def test_equal_entropy_keeps_the_permutation_order(self):
        # the permutations of (1, 1, 5) have one entropy, which a float sum over unsorted counts splits by rounding
        counts = [(7, 0, 0)] * 3 + [(1, 1, 5), (1, 5, 1), (5, 1, 1)] * 2 + [(2, 2, 3)] * 3
        annotations = [[c for c, n in enumerate(row) for _ in range(n)] for row in counts]
        pool = Corpus.from_rows([f"p{i}" for i in range(len(counts))], np.zeros((len(counts), 2)), annotations)
        tied = set(range(3, 9))
        for seed in range(8):
            order = np.random.default_rng(seed).permutation(len(pool))
            for selection, picked in (("low_entropy", range(0, 9)), ("high_entropy", range(3, 12))):
                plan = BudgetPlan(63, 0, 9, 7, selection_strategy=selection)
                rows = [int(uid[1:]) for uid in allocate_budget(pool, plan, seed, VOCAB).multis.uid]
                assert sorted(rows) == list(picked), (seed, selection)
                assert [i for i in rows if i in tied] == [i for i in order if i in tied], (seed, selection)

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
        by_uid = dict(zip(pool.uid, pool.counter))
        for ex in split.multis:
            counter = by_uid[ex.uid]
            dist = aggregate_annotations(ex.annotations, "distribution", VOCAB)
            expected = np.array([counter[c] for c in range(3)]) / 100
            assert np.array_equal(dist, expected)

    def test_entropy_selection_ordering(self):
        pool = make_pool(200, seed=4)
        by_uid = dict(zip(pool.uid, entropy_rows(pool.label_distribution(VOCAB.size))))
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
        singles = split.singles
        corrupt = Corpus(singles.uid, singles.X, np.append(singles.labels, E),
                         np.append(singles.offsets[:-1], len(singles.labels) + 1))
        split = CorpusSplit(corrupt, split.multis, split.unlabeled)  # one label too many
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
        for ex, true_dist in zip(pool, pool.true_dist):
            assert true_dist.max() > 1 - 1e-6
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
            -np.sum(true_dist[true_dist > 0] * np.log(true_dist[true_dist > 0]))
            for true_dist in pool.true_dist
        ]
        assert abs(np.mean(entropies) - mc_mean) < 3 * mc_std / np.sqrt(len(pool))

    def test_counter_sums_to_reservoir_size(self):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=25, k_classes=3, d_feat=3, seed=1))
        for ex, counter, old_label in zip(pool, pool.counter, pool.old_label):
            assert sum(counter) == 100
            assert len(ex.annotations) == 100
            assert old_label in (0, 1, 2)

    def test_reservoir_matches_counter(self):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=10, k_classes=3, d_feat=3, seed=8))
        for ex, counter in zip(pool, pool.counter):
            counts = np.bincount(ex.annotations, minlength=3)
            assert counts.tolist() == counter.tolist()

    def test_config_validation(self):
        with pytest.raises(CorpusError):
            SyntheticConfig(n_examples=10, k_classes=3, d_feat=2, seed=0)  # d < k
        with pytest.raises(CorpusError):
            SyntheticConfig(n_examples=10, k_classes=3, d_feat=3, ambiguous_fraction=1.5, seed=0)

    @pytest.mark.parametrize("m, n", [(2000, 2300), (1, 5)])
    def test_prefix_stable(self, m, n):
        # the CLI slices pool and eval from one pool, so a longer pool must
        # start with the shorter one
        cfg = dict(k_classes=3, d_feat=8, ambiguous_fraction=0.5, seed=11)
        short = generate_synthetic_pool(SyntheticConfig(n_examples=m, **cfg))
        long = generate_synthetic_pool(SyntheticConfig(n_examples=n, **cfg))
        assert long[:m] == short

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(2, 6), extra_d=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_pool_invariants(self, n, k, extra_d, seed):
        cfg = SyntheticConfig(n_examples=n, k_classes=k, d_feat=k + extra_d, seed=seed)
        pool = generate_synthetic_pool(cfg)
        assert len(pool) == n
        for i, ex in enumerate(pool):
            assert ex.uid == f"ex-{seed}-{i:06d}"
            assert ex.features.shape == (k + extra_d,)
            p = pool.true_dist[i]
            assert p.shape == (k,) and ((p >= -DIST_TOL) & (p <= 1 + DIST_TOL)).all()
            assert abs(float(p.sum()) - 1.0) <= DIST_TOL
            counts = np.bincount(ex.annotations, minlength=k)
            assert len(counts) == k and counts.sum() == 100
            assert pool.counter[i].tolist() == counts.tolist()
            assert 0 <= pool.old_label[i] < k
        assert generate_synthetic_pool(cfg) == pool

    def test_reservoir_frequencies_match_mean_true_dist(self):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=4000, k_classes=3, d_feat=3, seed=4))
        freq = np.bincount(np.concatenate([ex.annotations for ex in pool]), minlength=3) / (4000 * 100)
        mean_true = np.mean(pool.true_dist, axis=0)
        assert np.abs(freq - mean_true).max() < 0.01


class TestCorpusSlicing:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_run_of_rows_equals_from_rows(self, data, n):
        bound = st.none() | st.integers(-n - 3, n + 3)
        a, b = data.draw(bound, label="start"), data.draw(bound, label="stop")
        step = data.draw(st.sampled_from([None, 1]), label="step")
        sizes = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="sizes")
        pool = make_pool(n, sizes, d=2)
        full = Corpus(pool.uid, pool.X, pool.labels, pool.offsets,
                      true_dist=np.full((n, 3), 1 / 3), old_label=np.arange(n) % 3,
                      counter=pool.counts(3))
        part = full[a:b:step]
        rows = slice(a, b)
        assert part == Corpus.from_rows(full.uid[rows], full.X[rows], full.annotation_lists()[rows],
                                        full.true_dist[rows], full.old_label[rows], full.counter[rows])
        if len(part.labels):
            assert np.shares_memory(part.labels, full.labels)  # a view, no copy

    @pytest.mark.parametrize("rows", [slice(None, None, 2), slice(None, None, -1), [0, 1],
                                      np.arange(2), 0, np.array([True, False, True])])
    def test_anything_but_a_run_of_rows_is_rejected(self, rows):
        with pytest.raises(CorpusError, match="a corpus takes a run of rows"):
            make_pool(3, 2)[rows]


class TestCorpusIO:
    def test_round_trip_identity(self, tmp_path):
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=20, k_classes=3, d_feat=4, seed=2))
        path = tmp_path / "pool.jsonl"
        save_corpus(pool, path, VOCAB)
        loaded = load_corpus(path, VOCAB)
        assert loaded == pool

    def test_round_trip_with_empty_annotations(self, tmp_path):
        pool = Corpus.from_rows(["u1"], np.array([[0.5, -1.0]]), [[]])
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
        ({"x": ["a", 1.0]}, "'x' must be a 1-D vector of finite numbers"),
        ({"x": ["1.5", 1.0]}, "'x' must be a 1-D vector of finite numbers"),
        ({"x": [[0.0], [1.0]]}, "'x' must be a 1-D vector of finite numbers"),
        ({"x": 0.5}, "'x' must be a 1-D vector of finite numbers"),
        ({"x": [0.0, 1.0], "true_dist": ["a", 0.5, 0.5]}, "true_dist: distribution entries"),
        ({"x": [0.0, 1.0], "true_dist": ["0.5", "0.5", "0"]}, "true_dist: distribution entries"),
        ({"x": [0.0, 1.0], "true_dist": "ENC"}, "true_dist must be a list of probabilities"),
    ])
    def test_bad_values_name_uid(self, tmp_path, fields, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"uid": "u3", "labels": [], **fields}) + "\n")
        with pytest.raises(CorpusError, match=f"u3: {match}"):
            load_corpus(path, VOCAB)

    @pytest.mark.parametrize("record, match", [
        ({"x": [0.0]}, "record is missing a string 'uid' field"),
        ({"uid": "a", "x": [0.0], "labels": ["Q"]}, "record a: label 'Q' not in vocab"),
        ({"uid": "a", "x": [0.0], "labels": [["E"]]}, "record a: label ['E'] not in vocab"),
        ({"uid": "a", "x": [0.0], "labels": [None]}, "record a: label None not in vocab"),
        ({"uid": "a", "x": [0.0], "labels": "EN"}, "record a: 'labels' must be a list of label names"),
        ({"uid": "a", "x": [0.0], "labels": None}, "record a: 'labels' must be a list of label names"),
        ({"uid": "a", "x": [0.0], "label_counter": {"E": "abc"}},
         "record a: label_counter {'E': 'abc'} is not a non-negative integer count of a vocab label"),
        ({"uid": "a", "x": [0.0], "label_counter": {"N": 5, "E": -3}},
         "record a: label_counter {'E': -3} is not a non-negative integer count of a vocab label"),
        ({"uid": "a", "x": [0.0], "label_counter": {"E": 2.7}},
         "record a: label_counter {'E': 2.7} is not a non-negative integer count of a vocab label"),
        ({"uid": "a", "x": [0.0], "label_counter": ["E"]},
         "record a: label_counter must be an object of label counts"),
    ])
    def test_record_errors_name_file_and_line(self, tmp_path, record, match):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"uid": "u1", "x": [0.0], "labels": []})
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value) == f"{path}: line 2: {match}"

    def test_feature_dimension_change_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = ([0.0, 1.0], [2.0, 3.0], [4.0])
        path.write_text("".join(json.dumps({"uid": f"u{i}", "x": x, "labels": []}) + "\n"
                                for i, x in enumerate(rows)))
        with pytest.raises(CorpusError, match="line 3 has 1 features, the first record has 2"):
            load_corpus(path, VOCAB)

    @pytest.mark.parametrize("blank_lines", [0, 1])
    def test_empty_features_name_the_line(self, tmp_path, blank_lines):
        path = tmp_path / "empty_x.jsonl"
        path.write_text("\n" * blank_lines + "".join(json.dumps({"uid": f"u{i}", "x": [], "labels": ["E"]}) + "\n"
                                                    for i in range(20)))
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value) == f"{path}: line {1 + blank_lines}: record u0: 'x' holds no features"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(
        ["non-finite x", "non-number x", "bad true_dist", "unknown label", "feature dimension",
         "missing uid", "labels not a list", "bad counter value"]))
    def test_bad_line_is_named(self, data, kind):
        n = data.draw(st.integers(50, 300), label="rows")
        lineno = data.draw(st.integers(2 if kind == "feature dimension" else 1, n), label="line")
        assert_first_fault_named(n, lineno, (kind,), data.draw)

    @pytest.mark.parametrize("first, second", list(combinations(FAULT_ORDER, 2)))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_two_faults_on_one_line_name_the_earlier_check(self, data, first, second):
        n = data.draw(st.integers(2, 40), label="rows")
        lineno = data.draw(st.integers(2, n), label="line")
        assert_first_fault_named(n, lineno, (first, second), data.draw)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["non-finite x", "bad true_dist"]))
    def test_first_bad_line_wins_across_record_and_column_checks(self, data, kind):
        # the read stops at the first bad record, so a number fault on an
        # earlier line is named before a later malformed line
        n = data.draw(st.integers(3, 60), label="rows")
        i = data.draw(st.integers(1, n - 1), label="number fault line")
        j = data.draw(st.integers(i + 1, n), label="malformed line")
        pool = generate_synthetic_pool(SyntheticConfig(n_examples=n, k_classes=3, d_feat=4, seed=n))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pool.jsonl"
            save_corpus(pool, path, VOCAB)
            lines = path.read_text().splitlines(keepends=True)
            rec = json.loads(lines[i - 1])
            if kind == "non-finite x":
                rec["x"][0] = math.inf
                message = "'x' must be a 1-D vector of finite numbers"
            else:
                rec["true_dist"] = [0.5, 0.25, 0.125]
                message = "true_dist: distribution sums to 0.875, expected 1"
            lines[i - 1] = json.dumps(rec, sort_keys=True) + "\n"
            lines[j - 1] = lines[j - 1][:-5] + "\n"
            path.write_text("".join(lines))
            with pytest.raises(CorpusError) as info:
                load_corpus(path, VOCAB)
            assert str(info.value) == f"{path}: line {i}: record {rec['uid']}: {message}"

    def test_any_json_number_is_a_feature(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text("".join(json.dumps({"uid": u, "x": x}) + "\n" for u, x in
                                [("a", [1, 2**70, 0.5]), ("b", [-2**63, 1, 2**64])]))
        assert load_corpus(path, VOCAB).X.tolist() == [[1.0, 2.0**70, 0.5], [-2.0**63, 1.0, 2.0**64]]

    @pytest.mark.parametrize("fields, field", [
        ({"x": [True, 0.0]}, "x"),
        ({"x": [0.0, False]}, "x"),
        ({"x": [0.0, 1.0], "true_dist": [True, False, False]}, "true_dist"),
        ({"x": [0.0, 1.0], "true_dist": [1, 0, False]}, "true_dist"),
    ])
    def test_json_boolean_is_not_a_number(self, tmp_path, fields, field):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"uid": "true-false", "x": [0.0, 1.0], "labels": ["E"]})
        path.write_text(good + "\n" + json.dumps({"uid": "b", "labels": [], **fields}) + "\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value) == f"{path}: line 2: record b: {field!r} holds a JSON boolean, not a number"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        recs = [json.dumps({"uid": u, "x": [0.5], "labels": ["E"]}) for u in ("a", "b")]
        path.write_text("\n" + recs[0] + "\n  \n\n" + recs[1] + "\n\n")
        assert load_corpus(path, VOCAB).uid.tolist() == ["a", "b"]
        path.write_text(path.read_text() + '{"uid": "c"}\n')  # line numbers count the blank lines
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 7: record c: missing 'x' field$"):
            load_corpus(path, VOCAB)

    @pytest.mark.parametrize("line", ['[{"uid": "a", "x": [0.0]}]', '"a"', "3", "null"])
    def test_line_not_an_object_is_named(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"uid": "u1", "x": [0.0], "labels": []}) + "\n" + line + "\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value) == f"{path}: line 2: malformed record: not an object"

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
        ex = load_corpus(path, vocab)
        assert sum(ex.counter[0]) == 100
        assert ex.counter[0].tolist() == [7, 93, 0]
        assert ex.old_label[0] == 0

    def test_vocab_file_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(VOCAB, path)
        assert load_vocab(path) == VOCAB

    def test_corpus_byte_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"uid": "u1", "x": [0.0], "labels": []}).encode()
        path.write_bytes(good + b"\n" + good.replace(b"u1", b"u\xff2") + b"\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(path, VOCAB)
        assert str(info.value).startswith(f"{path}: line 2: malformed record: 'utf-8' codec can't decode")

    def test_corpus_in_utf16_is_not_read(self, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(json.dumps({"uid": "u1", "x": [0.0], "labels": []}).encode("utf-16"))
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: malformed record"):
            load_corpus(path, VOCAB)

    def test_vocab_byte_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"E\nN\xff\nC\n")
        with pytest.raises(CorpusError) as info:
            load_vocab(path)
        assert str(info.value).startswith(f"{path}: line 2: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("text, error", [("E\nN\nE\n", "vocab names must be unique"),
                                             ("", "vocab must be non-empty")])
    def test_vocab_file_errors_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(CorpusError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load_vocab(path)

    def test_vocab_with_crlf_line_ends(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"E\r\nN\r\n\r\nC\r\n")
        assert load_vocab(path) == VOCAB


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as f:
                f.write("new, half written")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_failed_save_corpus_keeps_old_corpus(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        pool = make_pool(3)
        save_corpus(pool, path, VOCAB)
        before = path.read_bytes()
        good = make_pool(3, seed=1)
        bad = Corpus(good.uid, good.X, np.append(good.labels[:-1], 7), good.offsets)
        with pytest.raises(IndexError):  # no such label: fails inside the write
            save_corpus(bad, path, VOCAB)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pool.jsonl"]
