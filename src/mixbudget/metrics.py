"""Evaluation metrics for label-distribution and type-set predictions.

Conventions, since divergence log bases are easy to get wrong:

* KL divergence and Shannon entropy are reported in nats.
* Jensen-Shannon divergence uses log base 2, so it is bounded by 1.
* KL defaults to KL(human || model): the human reference distribution is
  the first argument. The direction is configurable in the report
  assembler.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write

KL_CLAMP = 1e-10


class MetricsError(ValueError):
    pass


def entropy(p) -> float:
    """Shannon entropy in nats, with 0 * ln 0 = 0."""
    v = np.asarray(p, dtype=np.float64)
    nz = v[v > 0]
    return float(-np.sum(nz * np.log(nz)))


def entropy_rows(P: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats."""
    P = np.asarray(P, dtype=np.float64)
    terms = np.where(P > 0, P * np.log(np.maximum(P, 1e-300)), 0.0)
    return -terms.sum(axis=-1)


def kl_div(p, q, clamp: float = KL_CLAMP) -> float:
    """KL(p || q) in nats; q is clamped below at ``clamp`` so the value
    stays finite, and 0 * ln 0 terms vanish."""
    p = np.asarray(p, dtype=np.float64)
    q = np.maximum(np.asarray(q, dtype=np.float64), clamp)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _kl2_unclamped(p, q) -> float:
    # base-2 KL against a mixture that is positive wherever p is
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in log base 2; symmetric, in [0, 1]. The
    mixture is positive wherever p or q is, so no clamping is needed."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    return 0.5 * _kl2_unclamped(p, m) + 0.5 * _kl2_unclamped(q, m)


def entropy_bin_edges(k_classes: int, n_bins: int = 20) -> np.ndarray:
    return np.linspace(0.0, np.log(k_classes), n_bins + 1)


def entropy_histogram(dists, k_classes: int, n_bins: int = 20) -> np.ndarray:
    """Counts of per-distribution entropies over ``n_bins`` equal-width
    bins on [0, ln k]; the last bin is right-inclusive."""
    if n_bins < 1:
        raise MetricsError("n_bins must be >= 1")
    H = entropy_rows(np.atleast_2d(np.asarray(dists, dtype=np.float64)))
    edges = entropy_bin_edges(k_classes, n_bins)
    H = np.clip(H, edges[0], edges[-1])  # guard float spill past ln k
    counts, _ = np.histogram(H, bins=edges)
    return counts


def accuracy_old_new(pred_dists, examples) -> tuple[float, float]:
    """Argmax accuracy against the few-annotator majority label (old) and
    the majority of the dense annotation counter (new). Ties in either
    argmax go to the lowest vocab index."""
    P = np.atleast_2d(np.asarray(pred_dists, dtype=np.float64))
    if len(P) != len(examples):
        raise MetricsError("predictions and examples differ in length")
    old_hits, new_hits = [], []
    for row, ex in zip(P, examples):
        if ex.old_label is None:
            raise MetricsError(f"example {ex.uid}: missing old_label")
        if not ex.label_counter:
            raise MetricsError(f"example {ex.uid}: missing label_counter")
        pred = int(np.argmax(row))
        counts = np.zeros(row.shape[0])
        for label, n in ex.label_counter.items():
            counts[label] = n
        old_hits.append(pred == ex.old_label)
        new_hits.append(pred == int(np.argmax(counts)))
    return float(np.mean(old_hits)), float(np.mean(new_hits))


def macro_prf(pred_sets, gold_sets, uids=None) -> tuple[float, float, float]:
    """Macro-averaged precision, recall and F1 over type sets."""
    if len(pred_sets) != len(gold_sets):
        raise MetricsError("prediction and gold set counts differ")
    precisions, recalls = [], []
    for i, (pred, gold) in enumerate(zip(pred_sets, gold_sets)):
        uid = uids[i] if uids is not None else f"#{i}"
        if not gold:
            raise MetricsError(f"example {uid}: empty gold type set")
        if not pred:
            raise MetricsError(f"example {uid}: empty predicted type set")
        hit = len(set(pred) & set(gold))
        precisions.append(hit / len(pred))
        recalls.append(hit / len(gold))
    p, r = float(np.mean(precisions)), float(np.mean(recalls))
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def mrr(score_rows, gold_sets) -> float:
    """Mean reciprocal rank over (example, gold type) pairs. Ranks follow
    descending score order with ties broken by type index."""
    S = np.atleast_2d(np.asarray(score_rows, dtype=np.float64))
    if len(S) != len(gold_sets):
        raise MetricsError("score rows and gold set counts differ")
    rr = []
    for row, gold in zip(S, gold_sets):
        order = np.argsort(-row, kind="stable")  # stable keeps index order on ties
        rank_of = np.empty(len(row), dtype=int)
        rank_of[order] = np.arange(1, len(row) + 1)
        for t in gold:
            rr.append(1.0 / rank_of[t])
    if not rr:
        raise MetricsError("no gold types to rank")
    return float(np.mean(rr))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    n_examples: int
    jsd: float | None = None
    kl: float | None = None
    acc_old: float | None = None
    acc_new: float | None = None
    mean_pred_entropy: float | None = None
    entropy_histogram: list[int] | None = None
    entropy_bin_edges: list[float] | None = None
    macro_p: float | None = None
    macro_r: float | None = None
    macro_f1: float | None = None
    mrr: float | None = None
    calibration: dict | None = None
    per_example: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        out = {"n_examples": self.n_examples}
        for name in (
            "jsd", "kl", "acc_old", "acc_new", "mean_pred_entropy",
            "macro_p", "macro_r", "macro_f1", "mrr",
        ):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        if self.entropy_histogram is not None:
            out["entropy_histogram"] = self.entropy_histogram
            out["entropy_bin_edges"] = self.entropy_bin_edges
        if self.calibration is not None:
            out["calibration"] = self.calibration
        return out


def gold_distribution(ex, k_classes: int, source: str = "counter") -> np.ndarray:
    """Reference distribution for one evaluation example: the normalized
    dense annotation counter, or the generator's ground truth."""
    if source == "counter":
        if not ex.label_counter:
            raise MetricsError(f"example {ex.uid}: missing label_counter")
        counts = np.zeros(k_classes)
        for label, n in ex.label_counter.items():
            counts[label] = n
        return counts / counts.sum()
    if source == "true_dist":
        if ex.true_dist is None:
            raise MetricsError(f"example {ex.uid}: missing true_dist")
        return ex.true_dist
    raise MetricsError(f"unknown gold source {source!r}")


def evaluate_distribution(
    pred_dists,
    examples,
    k_classes: int,
    n_bins: int = 20,
    gold_source: str = "counter",
    kl_direction: str = "human_model",
) -> EvalReport:
    """Assemble the distribution-task report. Summary metrics are exact
    means of the per-example records. ``acc_old``/``acc_new`` (and the
    per-row ``correct_old``/``correct_new``) are omitted when no example
    carries ``old_label`` or ``label_counter``; if only some do, it raises."""
    P = np.atleast_2d(np.asarray(pred_dists, dtype=np.float64))
    if len(P) != len(examples):
        raise MetricsError("predictions and examples differ in length")
    if kl_direction not in ("human_model", "model_human"):
        raise MetricsError(f"unknown KL direction {kl_direction!r}")

    per = []
    for row, ex in zip(P, examples):
        gold = gold_distribution(ex, k_classes, gold_source)
        pair = (gold, row) if kl_direction == "human_model" else (row, gold)
        per.append(
            {
                "uid": ex.uid,
                "pred": [float(v) for v in row],
                "gold": [float(v) for v in gold],
                "kl": kl_div(*pair),
                "jsd": jsd(gold, row),
                "pred_entropy": entropy(row),
            }
        )
    acc_old = acc_new = None
    if any(ex.old_label is not None or ex.label_counter for ex in examples):
        acc_old, acc_new = accuracy_old_new(P, examples)
        for rec, row, ex in zip(per, P, examples):
            counts = np.zeros(k_classes)
            for label, n in ex.label_counter.items():
                counts[label] = n
            rec["correct_old"] = int(int(np.argmax(row)) == ex.old_label)
            rec["correct_new"] = int(int(np.argmax(row)) == int(np.argmax(counts)))

    hist = entropy_histogram(P, k_classes, n_bins)
    return EvalReport(
        n_examples=len(examples),
        jsd=float(np.mean([r["jsd"] for r in per])),
        kl=float(np.mean([r["kl"] for r in per])),
        acc_old=acc_old,
        acc_new=acc_new,
        mean_pred_entropy=float(np.mean([r["pred_entropy"] for r in per])),
        entropy_histogram=[int(c) for c in hist],
        entropy_bin_edges=[float(e) for e in entropy_bin_edges(k_classes, n_bins)],
        per_example=per,
    )


def evaluate_typing(score_rows, gold_sets, uids, threshold: float = 0.5) -> EvalReport:
    """Assemble the typing-task report from per-type scores and gold
    positive-type sets."""
    from .model import predict_types

    S = np.atleast_2d(np.asarray(score_rows, dtype=np.float64))
    pred_sets = [predict_types(row, threshold) for row in S]
    p, r, f1 = macro_prf(pred_sets, gold_sets, uids)
    score_mrr = mrr(S, gold_sets)
    per = []
    for uid, pred, gold in zip(uids, pred_sets, gold_sets):
        hit = len(set(pred) & set(gold))
        per.append(
            {
                "uid": uid,
                "pred_types": sorted(int(t) for t in pred),
                "gold_types": sorted(int(t) for t in gold),
                "precision": hit / len(pred),
                "recall": hit / len(gold),
            }
        )
    return EvalReport(
        n_examples=len(gold_sets),
        macro_p=p,
        macro_r=r,
        macro_f1=f1,
        mrr=score_mrr,
        per_example=per,
    )


# ---------------------------------------------------------------------------
# report files: one summary line, then one line per example
# ---------------------------------------------------------------------------

def write_report(report: EvalReport, path) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(report.summary(), sort_keys=True) + "\n")
        for rec in report.per_example:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_report_summary(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.loads(f.readline())


def write_histogram_csv(report: EvalReport, path) -> None:
    if report.entropy_histogram is None:
        raise MetricsError("report carries no entropy histogram")
    edges = report.entropy_bin_edges
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(edges[:-1], edges[1:], report.entropy_histogram):
            writer.writerow([left, right, count])
