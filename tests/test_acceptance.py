"""Acceptance suite.

Each test covers one numbered acceptance criterion, prints one
"[criterion N] ... PASS/FAIL" line (run pytest with -s to see them
live), and fails loudly on any violated sub-check. Criteria 6-8 train
real models on a shared synthetic corpus; their configuration is frozen
here so every run is deterministic.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import jensenshannon

from mixbudget import cli
from mixbudget.calibrate import mean_entropy, temp_scale, tune_entropy_match
from mixbudget.corpus import (
    BudgetPlan,
    Corpus,
    LabelVocab,
    SyntheticConfig,
    allocate_budget,
    generate_synthetic_pool,
    split_manifest,
)
from mixbudget.metrics import (
    entropy_histogram,
    entropy_rows,
    evaluate_distribution,
    evaluate_typing,
    jsd_rows,
    kl_rows,
    mrr,
)
from mixbudget.model import (
    forward_softmax,
    grad_batch,
    init_params,
    softmax,
)
from mixbudget.strategies import (
    MixupConfig,
    StrategySpec,
    apply_pairing,
    composite_loss_and_grad,
    draw_pairing,
    pseudo_label,
    run_strategy,
)

from test_metrics import multihot
from test_model import finite_difference, max_rel_err
from test_strategies import as_table

VOCAB = LabelVocab(("E", "N", "C"))


def kl_div(p, q):
    return float(kl_rows([p], [q])[0])


def jsd(p, q):
    return float(jsd_rows([p], [q])[0])


def entropy(p):
    return float(entropy_rows([p])[0])


# frozen configuration for the trained-model criteria (6-8)
CORPUS_SEED = 11
SPLIT_SEED = 100
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_SPEC = dict(
    iterations_main=2200, iterations_finetune=100, lr=1e-2,
    hidden_sizes=(64, 64), mixup=MixupConfig(batch_size=128),
)
PLAN_SINGLE_1500 = BudgetPlan(1500, 1500, 0, 1, n_unlabeled=500)
PLAN_MIXED_1500 = BudgetPlan(1500, 250, 125, 10, n_unlabeled=1625)
PLAN_SINGLE_1000 = BudgetPlan(1000, 1000, 0, 1)
PLAN_MULTI_1000 = BudgetPlan(1000, 0, 500, 2)


def report_criterion(number, name, checks):
    """Print the one-line verdict and fail on any violated sub-check."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else f"FAIL ({'; '.join(failed)})"
    print(f"[criterion {number}] {name}: {verdict}")
    assert not failed, f"criterion {number} ({name}) failed: {failed}"


# ---------------------------------------------------------------------------
# shared corpus and training runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_bundle():
    syn = SyntheticConfig(
        n_examples=2300, k_classes=3, d_feat=8, ambiguous_fraction=0.5,
        dirichlet_sharp=50.0, dirichlet_flat=1.0, feature_noise_sigma=0.1,
        seed=CORPUS_SEED,
    )
    full = generate_synthetic_pool(syn)
    pool, evalset = full[:2000], full[2000:]
    X = evalset.X
    true_dists = evalset.true_dist
    return SimpleNamespace(
        pool=pool,
        evalset=evalset,
        X=X,
        true_mean_entropy=float(np.mean([entropy(d) for d in true_dists])),
        true_hist=entropy_histogram(true_dists, 3),
    )


def train_and_eval(bundle, plan, kind, seed, iterations_finetune=None):
    split = allocate_budget(bundle.pool, plan, seed=SPLIT_SEED, vocab=VOCAB)
    kw = dict(TREND_SPEC)
    if iterations_finetune is not None:
        kw["iterations_finetune"] = iterations_finetune
    spec = StrategySpec(kind=kind, seed=seed, **kw)
    params, _ = run_strategy(spec, split, VOCAB)
    preds = forward_softmax(params, bundle.X)
    return evaluate_distribution(preds, bundle.evalset, 3)


@pytest.fixture(scope="module")
def trend_runs(corpus_bundle):
    jobs = {
        "single_ce": (PLAN_SINGLE_1500, "ce_combined", 0),
        "curriculum": (PLAN_MIXED_1500, "ce_curriculum", None),
        "mixup_sm": (PLAN_MIXED_1500, "mixup_sm", 0),
        "mixup_smu": (PLAN_MIXED_1500, "mixup_smu", 0),
    }
    t0 = time.time()
    reports = {
        name: [
            train_and_eval(corpus_bundle, plan, kind, seed, ft)
            for seed in TREND_SEEDS
        ]
        for name, (plan, kind, ft) in jobs.items()
    }
    elapsed = time.time() - t0
    return SimpleNamespace(reports=reports, elapsed=elapsed)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_budget_exactness(corpus_bundle):
    checks = []

    # 20k-example desk pool for the timed allocations
    rng = np.random.default_rng(0)
    desk_pool = Corpus.from_rows(
        [f"d{i:06d}" for i in range(20_000)],
        np.zeros((20_000, 2)),
        [[int(a) for a in rng.integers(0, 3, size=10)] for _ in range(20_000)],
    )

    timed = {}
    for name, plan in (
        ("6k", BudgetPlan(6000, 1000, 500, 10, n_unlabeled=4000)),
        ("typing-500", BudgetPlan(500, 100, 200, 2, n_unlabeled=1619)),
    ):
        t0 = time.time()
        split = allocate_budget(desk_pool, plan, seed=1, vocab=VOCAB)
        timed[name] = time.time() - t0
        manifest = split_manifest(plan, split)
        checks.append((f"{name} exact total", manifest["label_total"] == plan.total_labels))
        checks.append((f"{name} under 1s ({timed[name]:.2f}s)", timed[name] < 1.0))

    # the 150k plan needs a 146k pool; exactness only, arithmetic is the point
    big_plan = BudgetPlan(150_000, 145_000, 500, 10)
    big_pool = Corpus.from_rows(
        [f"b{i:06d}" for i in range(146_000)],
        np.zeros((146_000, 1)),
        [[int(a) for a in rng.integers(0, 3, size=10)] for _ in range(146_000)],
    )
    split = allocate_budget(big_pool, big_plan, seed=2, vocab=VOCAB)
    manifest = split_manifest(big_plan, split)
    checks.append(("150k exact total", manifest["label_total"] == 150_000))
    checks.append(("150k single count", manifest["n_singles"] == 145_000))

    report_criterion(1, "budget exactness", checks)


def test_criterion_2_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(42)
    checks = []

    worst = 0.0
    for trial in range(20):
        params = init_params(4, (5,), 3, seed=trial)
        X = rng.normal(size=(4, 4))
        T = rng.dirichlet(np.ones(3), size=4)
        _, (grads,) = grad_batch(params, X, T)
        worst = max(worst, max_rel_err(grads, finite_difference(params, lambda: grad_batch(params, X, T)[0][0])))
    checks.append((f"soft-CE rel err {worst:.2e}", worst < 1e-4))

    worst = 0.0
    for trial in range(20):
        params = init_params(4, (5,), 6, head="sigmoid", seed=trial)
        X = rng.normal(size=(3, 4))
        Y = (rng.random((3, 6)) < 0.4).astype(float)
        _, (grads,) = grad_batch(params, X, Y)
        worst = max(
            worst,
            max_rel_err(grads, finite_difference(params, lambda: grad_batch(params, X, Y)[0][0])),
        )
    checks.append((f"multilabel BCE rel err {worst:.2e}", worst < 1e-4))

    worst = 0.0
    terms = ("L_ss", "L_mm", "L_sm", "L_su", "L_mu")
    for trial in range(20):
        params = init_params(3, (5,), 3, seed=trial + 50)
        batches = {
            "s": (rng.normal(size=(2, 3)), rng.dirichlet(np.ones(3), size=2)),
            "m": (rng.normal(size=(2, 3)), rng.dirichlet(np.ones(3), size=2)),
        }
        Xu = rng.normal(size=(2, 3))
        batches["u"] = (Xu, pseudo_label(params, Xu))  # pseudo labels frozen
        pairing = draw_pairing(rng, terms, 2)  # lambda fixed per trial
        alpha = 1.3

        def loss_fn():
            return composite_loss_and_grad(params, apply_pairing(*as_table(batches), pairing), alpha)[0]

        _, grads, _ = composite_loss_and_grad(params, apply_pairing(*as_table(batches), pairing), alpha)
        worst = max(worst, max_rel_err(grads, finite_difference(params, loss_fn)))
    checks.append((f"three-set composite rel err {worst:.2e}", worst < 1e-4))

    elapsed = time.time() - t0
    checks.append((f"under 10s ({elapsed:.1f}s)", elapsed < 10.0))
    report_criterion(2, "gradient suite", checks)


def test_criterion_3_mixup_degeneracies():
    checks = []
    rng = np.random.default_rng(3)
    params = init_params(3, (6,), 3, seed=9)
    batches = {
        "s": (rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)),
        "m": (rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)),
    }
    Xu = rng.normal(size=(4, 3))
    batches["u"] = (Xu, pseudo_label(params, Xu))
    term_pairs = {
        "L_ss": (np.arange(4), rng.permutation(4)),
        "L_mm": (np.arange(4), rng.permutation(4)),
        "L_sm": (rng.permutation(4), rng.permutation(4)),
        "L_su": (rng.permutation(4), rng.permutation(4)),
        "L_mu": (rng.permutation(4), rng.permutation(4)),
    }
    sides = {"L_ss": ("s", "s"), "L_mm": ("m", "m"), "L_sm": ("s", "m"),
             "L_su": ("s", "u"), "L_mu": ("m", "u")}

    def plain_ce(key):
        X, Y = batches[key]
        P = np.maximum(forward_softmax(params, X), 1e-12)
        return float(-np.mean(np.sum(Y * np.log(P), axis=1)))

    for lam, side in ((1.0, 0), (0.0, 1)):
        tb = apply_pairing(*as_table(batches), (lam, term_pairs))
        _, _, comps = composite_loss_and_grad(params, tb, alpha=0.8)
        for term, loss in comps.items():
            expected = plain_ce(sides[term][side])
            checks.append(
                (f"lam={lam} {term} reduces to plain CE", abs(loss - expected) < 1e-9)
            )

    # ramp trace from an actual training log
    split = allocate_budget(
        generate_synthetic_pool(SyntheticConfig(n_examples=60, k_classes=3, d_feat=4, seed=5)),
        BudgetPlan(80, 40, 4, 10, n_unlabeled=16),
        seed=0, vocab=VOCAB,
    )
    spec = StrategySpec(kind="mixup_smu", iterations_main=150, lr=1e-3,
                        hidden_sizes=(8,), mixup=MixupConfig(batch_size=8), seed=0)
    _, log = run_strategy(spec, split, VOCAB)
    trace_ok = all(e["alpha"] == min(1.0, e["iter"] / 100) * 2.0 for e in log.entries)
    checks.append(("alpha trace equals min(1, t/100) * 2.0", trace_ok))
    report_criterion(3, "mixup degeneracies and ramp", checks)


def test_criterion_4_metric_axioms():
    checks = []
    rng = np.random.default_rng(4)

    kl_ok, eq_ok = True, True
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        kl_ok &= kl_div(p, q) >= 0.0
        eq_ok &= kl_div(p, p) < 1e-12 and (np.allclose(p, q) or kl_div(p, q) > 0)
    checks.append(("KL nonnegative", kl_ok))
    checks.append(("KL zero iff equal", eq_ok))

    sym_ok, bound_ok, twopath_ok = True, True, True
    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        v = jsd(p, q)
        sym_ok &= v == jsd(q, p)
        bound_ok &= 0.0 <= v <= 1.0
        twopath_ok &= abs(v - jensenshannon(p, q, base=2) ** 2) < 1e-12
    checks.append(("JSD symmetric", sym_ok))
    checks.append(("JSD within [0, 1]", bound_ok))
    checks.append(("JSD matches independent recomputation", twopath_ok))

    # predicted types {0, 1} (scores above 0.5) against gold types {1, 2}
    typing = evaluate_typing(np.array([[0.9, 0.8, 0.1]]),
                             Corpus.from_rows(["t0"], np.zeros((1, 1)), [[1, 2]]))
    p, r, f1 = typing.macro_p, typing.macro_r, typing.macro_f1
    checks.append(("P/R/F1 fixture 0.5/0.5/0.5", (p, r, f1) == (0.5, 0.5, 0.5)))
    checks.append(("MRR rank fixture", mrr(np.array([[0.9, 0.8, 0.1]]), multihot([{0, 1}], 3)) == 0.75))
    checks.append(("MRR single rank 4", mrr(np.array([[0.9, 0.8, 0.7, 0.6]]), multihot([{3}], 4)) == 0.25))
    report_criterion(4, "metric axioms", checks)


def test_criterion_5_calibration_contract():
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(5)

    # over-confident model: logits scaled so mean entropy sits near 0.414
    golds = rng.integers(0, 3, size=400)
    def logits_at(scale, noise_seed=77):
        noise = np.random.default_rng(noise_seed).normal(size=(400, 3))
        return scale * np.eye(3)[golds] + 0.05 * noise
    lo, hi = 0.1, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mean_entropy(softmax(logits_at(mid))) > 0.414:
            lo = mid
        else:
            hi = mid
    logits = logits_at(0.5 * (lo + hi))
    checks.append(
        ("fixture entropy near 0.414", abs(mean_entropy(softmax(logits)) - 0.414) < 1e-3)
    )

    counters = np.zeros((len(golds), 3), dtype=int)
    for i, g in enumerate(golds):
        counters[i, int(g)], counters[i, int((g + 1) % 3)] = 60, 40
    examples = Corpus.from_rows([f"c{i}" for i in range(len(golds))], np.zeros((len(golds), 1)),
                                [[] for _ in golds], old_label=[int(g) for g in golds],
                                counter=counters)
    def accuracies(P):
        report = evaluate_distribution(P, examples, 3)
        return report.acc_old, report.acc_new

    base = accuracies(softmax(logits))
    acc_ok = all(
        accuracies(temp_scale(logits, T)) == base
        for T in (0.01, 0.37, 2.0, 55.0, 1e3)
    )
    checks.append(("accuracy bit-identical across temperatures", acc_ok))

    tuned = tune_entropy_match("temp_scaling", logits, 0.732)
    checks.append(("tuner returns T > 1", tuned.scalar > 1.0))
    achieved = mean_entropy(temp_scale(logits, tuned.scalar))
    checks.append(
        (f"achieved entropy 0.732 +/- 1e-3 (got {achieved:.4f})", abs(achieved - 0.732) < 1e-3)
    )
    elapsed = time.time() - t0
    checks.append((f"under 5s ({elapsed:.1f}s)", elapsed < 5.0))
    report_criterion(5, "calibration contract", checks)


def test_criterion_6_central_trend(trend_runs):
    checks = []
    mean = lambda name, key: float(np.mean([getattr(r, key) for r in trend_runs.reports[name]]))

    kl_single = mean("single_ce", "kl")
    for name in ("curriculum", "mixup_sm"):
        kl, js = mean(name, "kl"), mean(name, "jsd")
        checks.append((f"{name} KL {kl:.3f} < single {kl_single:.3f}", kl < kl_single))
        checks.append((f"{name} JSD lower", js < mean("single_ce", "jsd")))
        improvement = (kl_single - kl) / kl_single
        checks.append((f"{name} KL improvement {improvement:.0%} >= 15%", improvement >= 0.15))

    kl_sm = np.array([r.kl for r in trend_runs.reports["mixup_sm"]])
    kl_smu = np.array([r.kl for r in trend_runs.reports["mixup_smu"]])
    pooled = math.sqrt((kl_sm.var(ddof=1) + kl_smu.var(ddof=1)) / 2)
    checks.append(
        (
            f"three-set mixup within one pooled std ({kl_smu.mean():.3f} vs {kl_sm.mean():.3f}, pooled {pooled:.3f})",
            kl_smu.mean() <= kl_sm.mean() + pooled,
        )
    )
    checks.append(
        (f"under 2 minutes ({trend_runs.elapsed:.0f}s)", trend_runs.elapsed < 120.0)
    )
    report_criterion(6, "central budget tradeoff trend", checks)


def test_criterion_7_entropy_distribution_trend(corpus_bundle, trend_runs):
    checks = []
    true_H = corpus_bundle.true_mean_entropy
    gap_dec, l1_dec, overconf = [], [], []
    for i, seed in enumerate(TREND_SEEDS):
        # phase-1-only twin run: identical trajectory, no fine-tuning
        pre = train_and_eval(corpus_bundle, PLAN_MIXED_1500, "ce_curriculum", seed,
                             iterations_finetune=0)
        post = trend_runs.reports["curriculum"][i]
        overconf.append(pre.mean_pred_entropy < true_H)
        gap_pre = abs(pre.mean_pred_entropy - true_H)
        gap_post = abs(post.mean_pred_entropy - true_H)
        gap_dec.append(gap_post < gap_pre)
        l1_pre = int(np.abs(np.array(pre.entropy_histogram) - corpus_bundle.true_hist).sum())
        l1_post = int(np.abs(np.array(post.entropy_histogram) - corpus_bundle.true_hist).sum())
        l1_dec.append(l1_post < l1_pre)
    checks.append((f"over-confident before fine-tune {sum(overconf)}/5", all(overconf)))
    checks.append((f"entropy gap decreases {sum(gap_dec)}/5", all(gap_dec)))
    checks.append((f"histogram L1 distance decreases {sum(l1_dec)}/5", all(l1_dec)))
    report_criterion(7, "entropy distribution trend", checks)


def test_criterion_8_multi_only_vs_single_only(corpus_bundle):
    kl_single = np.mean(
        [train_and_eval(corpus_bundle, PLAN_SINGLE_1000, "ce_combined", s).kl
         for s in TREND_SEEDS]
    )
    kl_multi = np.mean(
        [train_and_eval(corpus_bundle, PLAN_MULTI_1000, "ce_combined", s).kl
         for s in TREND_SEEDS]
    )
    report_criterion(
        8,
        "multi-only vs single-only at 1000 labels",
        [(f"500x2 KL {kl_multi:.3f} <= 1000x1 KL {kl_single:.3f}", kl_multi <= kl_single)],
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "task": "distribution",
        "vocab": ["E", "N", "C"],
        "corpus": {
            "synthetic": {"n_examples": 150, "k_classes": 3, "d_feat": 4,
                          "ambiguous_fraction": 0.5, "seed": 13},
            "n_eval": 50,
        },
        "plan": {"total_labels": 120, "n_single": 80, "n_multi": 4,
                 "k_per_multi": 10, "n_unlabeled": 40},
        "split_seed": 3,
        "strategy": {"kind": "mixup_smu", "iterations_main": 60, "lr": 1e-2,
                     "hidden_sizes": [8], "mixup": {"batch_size": 16}},
        "calibration": {"method": "temp_scaling", "target_entropy": 0.7},
        "seeds": [0, 1],
        "workers": 1,
        "outdir": str(tmp_path / "runs"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))

    def run_all():
        for command in ("gen", "split", "sweep", "calibrate", "report"):
            assert cli.main([command, "--config", str(config_path)]) == 0

    cfg = cli.load_config(config_path)
    tracked = [
        cli.data_dir(cfg) / "pool.jsonl",
        cli.data_dir(cfg) / "eval.jsonl",
        cli.split_dir(cfg) / "manifest.json",
        cli.run_dir(cfg, 0) / "checkpoint.bin",
        cli.run_dir(cfg, 0) / "trainlog.jsonl",
        cli.run_dir(cfg, 0) / "report.jsonl",
        cli.run_dir(cfg, 0) / "report_calibrated.jsonl",
        cli.run_dir(cfg, 0) / "histogram.csv",
        cli.run_dir(cfg, 1) / "report.jsonl",
        cli.run_dir(cfg, 0).parent / "summary.json",
    ]
    run_all()
    snapshot = {p: p.read_bytes() for p in tracked}
    run_all()
    checks = [
        (f"{p.name} byte-identical", p.read_bytes() == snapshot[p]) for p in tracked
    ]
    report_criterion(9, "byte-identical re-runs", checks)
