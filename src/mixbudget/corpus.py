"""Data model for corpora with unevenly distributed annotation budgets.

A pool of examples carries per-example annotation reservoirs. A budget plan
spends a fixed number of labels on the pool, producing three disjoint sets:
single-label examples (1 annotation), multi-label examples (k annotations)
and unlabeled examples (0 annotations). The synthetic generator produces
pools with known ground-truth label distributions so that budget/objective
tradeoffs can be measured exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import atomic_write

RESERVOIR_SIZE = 100      # annotations drawn per synthetic example
OLD_LABEL_WAYS = 5        # annotator count behind the "old" majority label
PROTOTYPE_SCALE = 4.0     # length of the per-class feature prototypes
GENERATE_BLOCK_ROWS = 32  # rows per block of synthetic annotator draws

SELECTION_STRATEGIES = ("random", "low_entropy", "high_entropy")


class CorpusError(ValueError):
    """Raised for malformed corpora, infeasible plans, and bad records."""


@dataclass(frozen=True)
class LabelVocab:
    """Ordered label identifiers. Position in ``names`` is the canonical
    tie-break order used everywhere a winner must be picked among equals."""

    names: tuple[str, ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) == 0:
            raise CorpusError("vocab must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise CorpusError("vocab names must be unique")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "_positions", {name: i for i, name in enumerate(self.names)})

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, such as a list
            raise CorpusError(f"label {name!r} not in vocab") from None


def validate_distribution(probs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check that ``probs`` is a probability vector; returns it as float64."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise CorpusError(f"distribution must be 1-D, got shape {p.shape}")
    # Python floats: on a few entries per corpus record this is several
    # times faster than numpy reductions
    values = p.tolist()
    if not all(-tol <= v <= 1 + tol for v in values):  # NaN fails too
        raise CorpusError("distribution entries must lie in [0, 1]")
    total = sum(values)
    if abs(total - 1.0) > tol:
        raise CorpusError(f"distribution sums to {total!r}, expected 1")
    return p


@dataclass(eq=False)
class AnnotatedExample:
    """One example: a feature vector plus zero or more label annotations.

    ``annotations`` is a multiset of label indices; its length is the
    example's label cost. ``true_dist`` (synthetic corpora), ``old_label``
    and ``label_counter`` (evaluation corpora) are optional side channels
    that training never reads.
    """

    uid: str
    features: np.ndarray
    annotations: list[int] = field(default_factory=list)
    true_dist: np.ndarray | None = None
    old_label: int | None = None
    label_counter: dict[int, int] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)

    def __eq__(self, other):
        if not isinstance(other, AnnotatedExample):
            return NotImplemented
        if self.uid != other.uid or list(self.annotations) != list(other.annotations):
            return False
        if not np.array_equal(self.features, other.features):
            return False
        if (self.true_dist is None) != (other.true_dist is None):
            return False
        if self.true_dist is not None and not np.array_equal(self.true_dist, other.true_dist):
            return False
        return self.old_label == other.old_label and self.label_counter == other.label_counter


@dataclass(frozen=True)
class BudgetPlan:
    """How a label budget is spent: ``n_single`` examples get one label
    each, ``n_multi`` examples get ``k_per_multi`` labels each, and up to
    ``n_unlabeled`` leftover pool examples are kept with no labels."""

    total_labels: int
    n_single: int
    n_multi: int
    k_per_multi: int = 1
    n_unlabeled: int = 0
    selection_strategy: str = "random"

    def __post_init__(self):
        for name in ("total_labels", "n_single", "n_multi", "k_per_multi", "n_unlabeled"):
            if getattr(self, name) < 0:
                raise CorpusError(f"plan field {name} must be >= 0")
        if self.n_single * 1 + self.n_multi * self.k_per_multi != self.total_labels:
            raise CorpusError(
                f"plan does not balance: {self.n_single} * 1 + {self.n_multi} * "
                f"{self.k_per_multi} != {self.total_labels}"
            )
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise CorpusError(f"unknown selection strategy {self.selection_strategy!r}")


@dataclass
class CorpusSplit:
    """Disjoint single / multi / unlabeled example sets under one plan."""

    singles: list[AnnotatedExample]
    multis: list[AnnotatedExample]
    unlabeled: list[AnnotatedExample]

    def label_total(self) -> int:
        return sum(
            len(ex.annotations) for ex in self.singles + self.multis + self.unlabeled
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Synthetic annotator pool settings.

    Each example draws a ground-truth label distribution from a Dirichlet
    whose concentration on a uniformly chosen dominant class is
    ``dirichlet_sharp`` (unambiguous examples) or ``dirichlet_flat``
    (ambiguous ones); remaining classes sit at concentration 1. Keep
    sharp > flat >= 1 so unambiguous examples have lower expected entropy.
    """

    n_examples: int
    k_classes: int
    d_feat: int
    ambiguous_fraction: float = 0.5
    dirichlet_sharp: float = 50.0
    dirichlet_flat: float = 1.0
    feature_noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_examples <= 0 or self.k_classes <= 1:
            raise CorpusError("need n_examples > 0 and k_classes > 1")
        if self.d_feat < self.k_classes:
            raise CorpusError("d_feat must be >= k_classes (one prototype per class)")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise CorpusError("ambiguous_fraction must lie in [0, 1]")
        if self.dirichlet_sharp <= 0 or self.dirichlet_flat <= 0:
            raise CorpusError("dirichlet concentrations must be positive")
        if self.feature_noise_sigma < 0:
            raise CorpusError("feature_noise_sigma must be >= 0")


# ---------------------------------------------------------------------------
# annotation aggregation
# ---------------------------------------------------------------------------

def aggregate_annotations(annotations, mode: str, vocab: LabelVocab):
    """Collapse an annotation multiset into a target.

    ``distribution`` mode returns the empirical frequency vector;
    ``majority`` mode returns the most frequent label index, ties broken
    by canonical vocab order (lowest index wins).
    """
    anns = list(annotations)
    if not anns:
        raise CorpusError("cannot aggregate zero annotations")
    counts = np.bincount(anns, minlength=vocab.size).astype(np.float64)
    if len(counts) > vocab.size:
        raise CorpusError("annotation index outside vocab")
    if mode == "distribution":
        return counts / counts.sum()
    if mode == "majority":
        return int(np.argmax(counts))  # first max = lowest vocab index
    raise CorpusError(f"unknown aggregation mode {mode!r}")


def annotation_entropy(annotations, vocab: LabelVocab) -> float:
    """Shannon entropy (nats) of an example's empirical annotation distribution."""
    dist = aggregate_annotations(annotations, "distribution", vocab)
    nz = dist[dist > 0]
    return float(-np.sum(nz * np.log(nz)))


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------

def allocate_budget(
    pool: list[AnnotatedExample],
    plan: BudgetPlan,
    seed: int,
    vocab: LabelVocab,
) -> CorpusSplit:
    """Spend ``plan`` on ``pool``, returning a split whose label total
    equals ``plan.total_labels`` exactly.

    Multi examples are selected per ``plan.selection_strategy`` (random, or
    ranked by the empirical entropy of each example's available
    annotations), then exactly ``k_per_multi`` annotations are subsampled
    uniformly without replacement per multi example and exactly 1 per
    single example. Up to ``n_unlabeled`` leftover examples are kept with
    their annotations stripped (ground-truth side channels are retained so
    oracle evaluation stays possible). Deterministic given ``seed``; never
    mutates the pool.
    """
    n_needed = plan.n_single + plan.n_multi
    if n_needed > len(pool):
        raise CorpusError(
            f"infeasible plan: needs {n_needed} labeled examples, pool has {len(pool)}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))

    if plan.selection_strategy == "random":
        multi_idx = order[: plan.n_multi]
        rest = order[plan.n_multi :]
    else:
        entropies = np.array([annotation_entropy(pool[i].annotations, vocab) for i in order])
        ranked = order[np.argsort(entropies, kind="stable")]
        if plan.selection_strategy == "high_entropy":
            ranked = ranked[::-1]
        multi_idx = ranked[: plan.n_multi]
        taken = set(multi_idx.tolist())
        rest = np.array([i for i in order if i not in taken], dtype=int)

    single_idx = rest[: plan.n_single]
    unlabeled_idx = rest[plan.n_single : plan.n_single + plan.n_unlabeled]

    multis = []
    for i in multi_idx:
        ex = pool[i]
        if len(ex.annotations) < plan.k_per_multi:
            raise CorpusError(
                f"infeasible plan: example {ex.uid} has {len(ex.annotations)} "
                f"annotations, needs {plan.k_per_multi}"
            )
        picked = rng.choice(len(ex.annotations), size=plan.k_per_multi, replace=False)
        multis.append(replace(ex, annotations=[ex.annotations[j] for j in picked]))

    singles = []
    for i in single_idx:
        ex = pool[i]
        if not ex.annotations:
            raise CorpusError(f"infeasible plan: example {ex.uid} has no annotations")
        j = int(rng.integers(len(ex.annotations)))
        singles.append(replace(ex, annotations=[ex.annotations[j]]))

    unlabeled = [replace(pool[i], annotations=[]) for i in unlabeled_idx]
    return CorpusSplit(singles=singles, multis=multis, unlabeled=unlabeled)


def split_manifest(plan: BudgetPlan, split: CorpusSplit) -> dict:
    """Summary record asserting the exact-label-total invariant."""
    total = split.label_total()
    if total != plan.total_labels:
        raise CorpusError(f"split carries {total} labels, plan says {plan.total_labels}")
    return {
        "label_total": total,
        "n_singles": len(split.singles),
        "n_multis": len(split.multis),
        "n_unlabeled": len(split.unlabeled),
        "plan": {
            "total_labels": plan.total_labels,
            "n_single": plan.n_single,
            "n_multi": plan.n_multi,
            "k_per_multi": plan.k_per_multi,
            "n_unlabeled": plan.n_unlabeled,
            "selection_strategy": plan.selection_strategy,
        },
    }


# ---------------------------------------------------------------------------
# synthetic pools
# ---------------------------------------------------------------------------

def class_prototypes(k_classes: int, d_feat: int) -> np.ndarray:
    """Fixed orthogonal class prototypes: scaled standard basis directions
    of the first ``k_classes`` feature coordinates."""
    protos = np.zeros((k_classes, d_feat))
    protos[:, :k_classes] = np.eye(k_classes) * PROTOTYPE_SCALE
    return protos


def generate_synthetic_pool(config: SyntheticConfig) -> list[AnnotatedExample]:
    """Draw a pool of examples with known ground-truth label distributions.

    Per example: an ambiguity flag ~ Bernoulli(ambiguous_fraction) picks
    the Dirichlet concentration, the true distribution p* is drawn, the
    feature vector is sum_c p*_c * prototype_c plus Gaussian noise, and a
    reservoir of 100 annotations is drawn i.i.d. from Categorical(p*).
    ``label_counter`` tallies the reservoir and ``old_label`` is the
    majority of 5 extra annotator draws (ties to the lowest index).

    Deterministic given ``config.seed``. Each drawn field (flag, dominant
    class, Gammas, feature noise, annotator draws) has its own stream and
    consumes it row by row, so the first m rows of an n-row pool are the
    m-row pool.
    """
    n, k, d = config.n_examples, config.k_classes, config.d_feat
    flag_rng, class_rng, gamma_rng, noise_rng, label_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(5))
    ambiguous = flag_rng.random(n) < config.ambiguous_fraction
    # a Dirichlet row is a row of Gammas over its sum, drawn here in place of
    # the concentrations; the other classes sit at concentration 1, so no row
    # sums to 0
    true_dist = np.ones((n, k))
    true_dist[np.arange(n), class_rng.integers(k, size=n)] = np.where(
        ambiguous, config.dirichlet_flat, config.dirichlet_sharp)
    gamma_rng.standard_gamma(true_dist, out=true_dist)
    true_dist /= true_dist.sum(axis=1, keepdims=True)
    X = true_dist @ class_prototypes(k, d)
    if config.feature_noise_sigma > 0:
        X += noise_rng.normal(0.0, config.feature_noise_sigma, size=(n, d))

    # annotator draws, a block of rows at a time to bound the temporaries:
    # inverse-CDF draws as rng.choice(k, p=...) makes them, the class being
    # the number of inner CDF knots at or below the uniform
    pool = []
    for lo in range(0, n, GENERATE_BLOCK_ROWS):
        hi = min(lo + GENERATE_BLOCK_ROWS, n)
        u = label_rng.random((hi - lo, RESERVOIR_SIZE + OLD_LABEL_WAYS))
        knots = np.cumsum(true_dist[lo:hi, :-1], axis=1)
        draws = (knots[:, None, :] <= u[:, :, None]).sum(axis=2)
        onehot = draws[:, :, None] == np.arange(k)
        counts = onehot[:, :RESERVOIR_SIZE].sum(axis=1).tolist()
        old_labels = onehot[:, RESERVOIR_SIZE:].sum(axis=1).argmax(axis=1).tolist()  # first max
        for i, reservoir, row, old in zip(range(lo, hi), draws[:, :RESERVOIR_SIZE].tolist(),
                                          counts, old_labels):
            pool.append(AnnotatedExample(
                uid=f"ex-{config.seed}-{i:06d}",
                features=X[i],
                annotations=reservoir,
                true_dist=true_dist[i],
                old_label=old,
                label_counter={c: m for c, m in enumerate(row) if m},
            ))
    return pool


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------
# Corpus files are UTF-8, line-delimited JSON: one example per line with
# fields "uid", "x", "labels" (names, possibly empty) and optional
# "true_dist", "old_label", "label_counter". Vocab files hold one label
# name per line in canonical order.

def save_vocab(vocab: LabelVocab, path) -> None:
    with atomic_write(path) as f:
        for name in vocab.names:
            f.write(name + "\n")


def load_vocab(path) -> LabelVocab:
    with open(path, encoding="utf-8") as f:
        names = [line.rstrip("\n") for line in f if line.strip()]
    return LabelVocab(tuple(names))


def example_to_record(ex: AnnotatedExample, vocab: LabelVocab) -> dict:
    rec = {
        "uid": ex.uid,
        "x": [float(v) for v in ex.features],
        "labels": [vocab.names[a] for a in ex.annotations],
    }
    if ex.true_dist is not None:
        rec["true_dist"] = [float(v) for v in ex.true_dist]
    if ex.old_label is not None:
        rec["old_label"] = vocab.names[ex.old_label]
    if ex.label_counter is not None:
        rec["label_counter"] = {vocab.names[c]: int(n) for c, n in ex.label_counter.items()}
    return rec


def record_to_example(rec: dict, vocab: LabelVocab) -> AnnotatedExample:
    uid = rec.get("uid")
    if not isinstance(uid, str) or not uid:
        raise CorpusError("record is missing a string 'uid' field")
    if "x" not in rec:
        raise CorpusError(f"record {uid}: missing 'x' field")
    try:
        annotations = [vocab.index(name) for name in rec.get("labels", [])]
    except CorpusError as e:
        raise CorpusError(f"record {uid}: {e}") from None
    x = np.asarray(rec["x"], dtype=np.float64)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise CorpusError(f"record {uid}: 'x' must be a 1-D vector of finite numbers")
    true_dist = rec.get("true_dist")
    if true_dist is not None:
        try:
            true_dist = validate_distribution(true_dist)
        except CorpusError as e:
            raise CorpusError(f"record {uid}: true_dist: {e}") from None
        if len(true_dist) != vocab.size:
            raise CorpusError(f"record {uid}: true_dist has {len(true_dist)} entries, vocab has {vocab.size}")
    old_label = rec.get("old_label")
    counter = rec.get("label_counter")
    if old_label is not None and old_label not in vocab.names:
        raise CorpusError(f"record {uid}: old_label {old_label!r} not in vocab")
    if counter is not None:
        for name in counter:
            if name not in vocab.names:
                raise CorpusError(f"record {uid}: counter label {name!r} not in vocab")
    return AnnotatedExample(
        uid=uid,
        features=x,
        annotations=annotations,
        true_dist=true_dist,
        old_label=None if old_label is None else vocab.index(old_label),
        label_counter=None
        if counter is None
        else {vocab.index(name): int(n) for name, n in sorted(counter.items())},
    )


def save_corpus(pool: list[AnnotatedExample], path, vocab: LabelVocab) -> None:
    with atomic_write(path) as f:
        for ex in pool:
            f.write(json.dumps(example_to_record(ex, vocab), sort_keys=True) + "\n")


def load_corpus(path, vocab: LabelVocab) -> list[AnnotatedExample]:
    pool = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}: malformed record on line {lineno}: {e}") from None
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}: malformed record on line {lineno}: not an object")
            try:
                ex = record_to_example(rec, vocab)
            except CorpusError as e:
                raise CorpusError(f"{path}: line {lineno}: {e}") from None
            if pool and len(ex.features) != len(pool[0].features):
                raise CorpusError(f"{path}: line {lineno} has {len(ex.features)} features, "
                                  f"the first record has {len(pool[0].features)}")
            pool.append(ex)
    return pool
