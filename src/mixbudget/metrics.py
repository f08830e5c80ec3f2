"""Evaluation metrics for label-distribution and type-set predictions.

Conventions, since divergence log bases are easy to get wrong:

* KL divergence and Shannon entropy are reported in nats.
* Jensen-Shannon divergence uses log base 2, so it is bounded by 1.
* Reports give KL(human || model): the human reference distribution is
  the first argument.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .atomic import atomic_write

KL_CLAMP = 1e-10
HIST_BINS = 20  # equal-width entropy bins of a report's histogram


class MetricsError(ValueError):
    pass


def _sum_plogq(P, Q, log=np.log) -> np.ndarray:
    """Per row, the sum of p * log(p / q) over the entries where p > 0."""
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.broadcast_to(np.asarray(Q, dtype=np.float64), P.shape)
    mask = P > 0
    ratio = np.where(mask, P, 1.0) / np.where(mask, Q, 1.0)
    return np.where(mask, P * log(ratio), 0.0).sum(axis=1)


def entropy_rows(P) -> np.ndarray:
    """Row-wise Shannon entropy in nats, with 0 * ln 0 = 0."""
    return -_sum_plogq(P, 1.0)


def kl_rows(P, Q) -> np.ndarray:
    """Row-wise KL(p || q) in nats; q is clamped below at ``KL_CLAMP`` so
    the value stays finite, and 0 * ln 0 terms vanish."""
    return _sum_plogq(P, np.maximum(np.asarray(Q, dtype=np.float64), KL_CLAMP))


def jsd_rows(P, Q) -> np.ndarray:
    """Row-wise Jensen-Shannon divergence in log base 2; symmetric, clipped to
    [0, 1] against rounding. The mixture stays positive where p or q is (half
    of the smallest subnormal p + q would round to 0)."""
    P, Q = (np.atleast_2d(np.asarray(A, dtype=np.float64)) for A in (P, Q))
    M = np.maximum(0.5 * (P + Q), np.minimum(P + Q, np.nextafter(0.0, 1.0)))
    return np.clip(0.5 * _sum_plogq(P, M, np.log2) + 0.5 * _sum_plogq(Q, M, np.log2), 0.0, 1.0)


def entropy_bin_edges(k_classes: int) -> np.ndarray:
    return np.linspace(0.0, np.log(k_classes), HIST_BINS + 1)


def entropy_histogram(dists, k_classes: int) -> np.ndarray:
    """Counts of per-distribution entropies over ``HIST_BINS`` equal-width
    bins on [0, ln k]; the last bin is right-inclusive."""
    H = entropy_rows(dists)
    edges = entropy_bin_edges(k_classes)
    H = np.clip(H, edges[0], edges[-1])  # guard float spill past ln k
    counts, _ = np.histogram(H, bins=edges)
    return counts


def _hits(P: np.ndarray, examples) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether the argmax prediction is the old label and the
    counter's majority (each argmax the first max, so ties go to the lowest
    vocab index); names the first row lacking either."""
    n = len(examples)
    old = examples.old_label if examples.old_label is not None else np.full(n, -1)
    counter = examples.counter if examples.counter is not None else np.zeros((n, 1))
    bad = (old < 0) | (counter.sum(axis=1) == 0)
    if bad.any():
        i = np.argmax(bad)
        raise MetricsError(f"example {examples.uid[i]}: missing "
                           f"{'old_label' if old[i] < 0 else 'label_counter'}")
    pred = P.argmax(axis=1)
    return pred == old, pred == counter.argmax(axis=1)


def macro_prf(precision: np.ndarray, recall: np.ndarray) -> tuple[float, float, float]:
    """Macro-averaged precision, recall and F1 from per-row values."""
    p, r = float(np.mean(precision)), float(np.mean(recall))
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def mrr(scores: np.ndarray, gold: np.ndarray) -> float:
    """Mean reciprocal rank over the (row, gold type) pairs of the (n, k)
    scores and boolean multi-hot ``gold``, in row-major order. Ranks follow
    descending score order with ties broken by type index."""
    if not gold.any():
        raise MetricsError("no gold types to rank")
    ranks = np.empty(gold.shape, dtype=np.int64)
    np.put_along_axis(ranks, np.argsort(-scores, axis=1, kind="stable"),  # stable: ties in index order
                      np.arange(1, gold.shape[1] + 1)[None, :], axis=1)
    return float(np.mean(1.0 / ranks[gold]))


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
        """Every metric that is set; the per-example records stay out."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_example"}
        return {name: value for name, value in values.items() if value is not None}


def gold_rows(examples, k_classes: int, source: str = "counter") -> np.ndarray:
    """Reference distributions of an evaluation corpus, (n, k): the
    normalized dense annotation counters, or the generator's ground truth."""
    if source not in ("counter", "true_dist"):
        raise MetricsError(f"unknown gold source {source!r}")
    name, column = ("label_counter", examples.counter) if source == "counter" else (
        "true_dist", examples.true_dist)
    gold = np.full((len(examples), k_classes), np.nan) if column is None else column
    if source == "counter":
        with np.errstate(invalid="ignore"):  # a row without votes comes out NaN
            gold = gold / gold.sum(axis=1, keepdims=True)
    missing = np.isnan(gold).any(axis=1)
    if missing.any():
        raise MetricsError(f"example {examples.uid[np.argmax(missing)]}: missing {name}")
    return gold


def evaluate_distribution(
    pred_dists,
    examples,
    k_classes: int,
    gold_source: str = "counter",
) -> EvalReport:
    """Assemble the distribution-task report for an evaluation ``Corpus``.
    Summary metrics are exact means of the per-example records; ``kl`` is
    KL(gold || prediction).
    ``acc_old``/``acc_new`` (and the per-row ``correct_old``/``correct_new``)
    are omitted when no example carries ``old_label`` or ``label_counter``;
    if only some do, it raises."""
    P = np.atleast_2d(np.asarray(pred_dists, dtype=np.float64))
    if len(P) != len(examples):
        raise MetricsError("predictions and examples differ in length")

    gold = gold_rows(examples, k_classes, gold_source)
    kl = kl_rows(gold, P)
    js = jsd_rows(gold, P)
    H = entropy_rows(P)
    per = [{"uid": uid, "pred": pred, "gold": g, "kl": a, "jsd": b, "pred_entropy": h}
           for uid, pred, g, a, b, h in zip(examples.uid.tolist(), P.tolist(), gold.tolist(),
                                            kl.tolist(), js.tolist(), H.tolist())]
    acc_old = acc_new = None
    if ((examples.old_label is not None and (examples.old_label >= 0).any())
            or (examples.counter is not None and examples.counter.any())):
        old_hits, new_hits = _hits(P, examples)
        acc_old, acc_new = float(np.mean(old_hits)), float(np.mean(new_hits))
        for rec, old, new in zip(per, old_hits.tolist(), new_hits.tolist()):
            rec.update(correct_old=int(old), correct_new=int(new))

    return EvalReport(
        n_examples=len(examples), jsd=float(np.mean(js)), kl=float(np.mean(kl)),
        acc_old=acc_old, acc_new=acc_new, mean_pred_entropy=float(np.mean(H)),
        entropy_histogram=entropy_histogram(P, k_classes).tolist(),
        entropy_bin_edges=entropy_bin_edges(k_classes).tolist(), per_example=per)


def _type_lists(M: np.ndarray) -> list[list[int]]:
    """The ascending column indices of each row of a boolean matrix."""
    cols, ends = np.nonzero(M)[1].tolist(), np.cumsum(M.sum(axis=1)).tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def evaluate_typing(scores: np.ndarray, examples, threshold: float = 0.5) -> EvalReport:
    """Assemble the typing-task report for an evaluation ``Corpus`` from its
    (n, k) array of per-type scores: a row's gold types are its annotations,
    its predicted types those ``threshold_types`` picks."""
    from .model import threshold_types

    if len(scores) != len(examples):
        raise MetricsError("predictions and examples differ in length")
    gold = examples.counts(scores.shape[1]) > 0
    empty = ~gold.any(axis=1)
    if empty.any():
        raise MetricsError(f"example {examples.uid[np.argmax(empty)]}: empty gold type set")
    pred = threshold_types(scores, threshold) > 0
    hits = (pred & gold).sum(axis=1)
    precision, recall = hits / pred.sum(axis=1), hits / gold.sum(axis=1)
    p, r, f1 = macro_prf(precision, recall)
    per = [{"uid": uid, "pred_types": pt, "gold_types": gt, "precision": a, "recall": b}
           for uid, pt, gt, a, b in zip(examples.uid.tolist(), _type_lists(pred), _type_lists(gold),
                                        precision.tolist(), recall.tolist())]
    return EvalReport(n_examples=len(examples), macro_p=p, macro_r=r, macro_f1=f1,
                      mrr=mrr(scores, gold), per_example=per)


# ---------------------------------------------------------------------------
# report files: one summary line, then one line per example
# ---------------------------------------------------------------------------

def write_report(report: EvalReport, path) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(report.summary(), sort_keys=True) + "\n")
        for rec in report.per_example:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def write_histogram_csv(report: EvalReport, path) -> None:
    if report.entropy_histogram is None:
        raise MetricsError("report carries no entropy histogram")
    edges = report.entropy_bin_edges
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(edges[:-1], edges[1:], report.entropy_histogram):
            writer.writerow([left, right, count])
