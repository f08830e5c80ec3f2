"""Data model for corpora with unevenly distributed annotation budgets.

A pool of examples carries per-example annotation reservoirs. A budget plan
spends a fixed number of labels on the pool, producing three disjoint sets:
single-label examples (1 annotation), multi-label examples (k annotations)
and unlabeled examples (0 annotations). The synthetic generator produces
pools with known ground-truth label distributions so that budget/objective
tradeoffs can be measured exactly. The file reader checks each record whole
as it reads it; every other stage works on whole columns of one ``Corpus``.
"""
from __future__ import annotations

import json
import math
from array import array
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from .atomic import atomic_write

RESERVOIR_SIZE = 100        # annotations drawn per synthetic example
OLD_LABEL_WAYS = 5          # annotator count behind the "old" majority label
PROTOTYPE_SCALE = 4.0       # length of the per-class feature prototypes
BLOCK_ROWS = 256            # rows drawn or saved at a time, to bound the temporaries
LABEL_DTYPE = np.int16      # label indices, so a vocab holds at most 32768 names
DIST_TOL = 1e-9             # slack on a probability vector's entries and sum
_X_FAULT = "'x' must be a 1-D vector of finite numbers"

SELECTION_STRATEGIES = ("random", "low_entropy", "high_entropy")


class CorpusError(ValueError):
    """Raised for malformed corpora, infeasible plans, and bad records."""


@dataclass(frozen=True)
class LabelVocab:
    """Ordered label identifiers. Position in ``names`` is the canonical
    tie-break order used everywhere a winner must be picked among equals.
    A name is a string with a non-blank character and no line break, so it
    survives the vocab file."""

    names: tuple[str, ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) == 0:
            raise CorpusError("vocab must be non-empty")
        for name in self.names:
            if not isinstance(name, str) or not name.strip() or "\n" in name or "\r" in name:
                raise CorpusError(f"vocab name {name!r} needs a non-blank character and no line break")
        if len(set(self.names)) != len(self.names):
            raise CorpusError("vocab names must be unique")
        if len(self.names) > np.iinfo(LABEL_DTYPE).max + 1:
            raise CorpusError(f"vocab has {len(self.names)} names, at most 32768 are supported")
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


# one corpus row, read-only; ``annotations`` is a tuple of label indices
Example = namedtuple("Example", "uid features annotations")


@dataclass(frozen=True, eq=False)
class Corpus:
    """Examples as read-only columns: ``uid`` (n,), features ``X`` (n, d),
    and each row's annotations in reservoir order, concatenated in
    ``labels`` with row i at ``labels[offsets[i]:offsets[i + 1]]`` (a row's
    count is its label cost). ``true_dist`` (n, k), ``old_label`` (n,) and
    the dense annotation ``counter`` (n, k) are optional side channels that
    training never reads; a row without one holds NaNs, -1 or zeros there.
    ``len``, slicing (a run of rows, ``corpus[a:b]``, as views) and ``==``
    act on rows; iterating yields ``Example`` rows."""

    uid: np.ndarray
    X: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    true_dist: np.ndarray | None = None
    old_label: np.ndarray | None = None
    counter: np.ndarray | None = None

    def __post_init__(self):
        dtypes = {"uid": object, "X": np.float64, "labels": LABEL_DTYPE, "offsets": np.int64,
                  "true_dist": np.float64, "old_label": np.int64, "counter": np.int64}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                value = np.asarray(value, dtype=dtypes[f.name]).view()
                value.flags.writeable = False
                object.__setattr__(self, f.name, value)
        n = len(self.uid)
        if not (self.X.ndim == 2 and len(self.X) == n and len(self.offsets) == n + 1
                and self.offsets[0] == 0 and self.offsets[-1] == len(self.labels)):
            raise CorpusError("corpus columns disagree in length")

    @classmethod
    def from_rows(cls, uid, X, annotations, true_dist=None, old_label=None, counter=None) -> Corpus:
        """A corpus whose row i has features ``X[i]`` and the label indices
        in ``annotations[i]``."""
        offsets = np.zeros(len(annotations) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in annotations], out=offsets[1:])
        labels = np.fromiter(chain.from_iterable(annotations), LABEL_DTYPE, count=offsets[-1])
        return cls(np.asarray(uid, dtype=object), X, labels, offsets, true_dist, old_label, counter)

    def __len__(self) -> int:
        return len(self.uid)

    def __getitem__(self, rows: slice) -> Corpus:
        if type(rows) is not slice or rows.step not in (None, 1):
            raise CorpusError(f"a corpus takes a run of rows, corpus[a:b], not {rows!r}")
        lo, hi, _ = rows.indices(len(self))
        offsets = self.offsets[lo : max(lo, hi) + 1]
        return self.take(rows, self.labels[offsets[0] : offsets[-1]], offsets - offsets[0])

    def take(self, rows, labels, offsets) -> Corpus:
        """Rows ``rows``, with ``labels`` at ``offsets`` as their annotations."""
        return Corpus(self.uid[rows], self.X[rows], labels, offsets,
                      *(None if c is None else c[rows]
                        for c in (self.true_dist, self.old_label, self.counter)))

    def __iter__(self):
        for uid, x, annotations in zip(self.uid.tolist(), self.X, self.annotation_lists()):
            yield Example(uid, x, tuple(annotations))

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(a is b if a is None or b is None else
                   np.array_equal(a, b, equal_nan=a.dtype.kind == "f") for a, b in pairs)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def annotation_lists(self) -> list[list[int]]:
        flat = self.labels.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def counts(self, k: int) -> np.ndarray:
        """(n, k) annotation counts per row, from one bincount."""
        if len(self.labels) and self.labels.max() >= k:
            raise CorpusError("annotation index outside vocab")
        keys = np.repeat(np.arange(len(self)) * k, self.lengths) + self.labels
        return np.bincount(keys, minlength=len(self) * k).reshape(len(self), k)

    def label_distribution(self, k: int) -> np.ndarray:
        """(n, k) empirical annotation frequencies per row."""
        counts = self.counts(k)
        totals = counts.sum(axis=1, keepdims=True)
        if not totals.all():
            raise CorpusError(f"example {self.uid[np.argmin(totals)]}: cannot aggregate zero annotations")
        return counts / totals


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
            # a plan spends at least one label, and a multi carries at least one
            if getattr(self, name) < (low := int(name in ("total_labels", "k_per_multi"))):
                raise CorpusError(f"{name} must be >= {low}")
        if self.n_single * 1 + self.n_multi * self.k_per_multi != self.total_labels:
            raise CorpusError(
                f"total_labels does not balance: {self.n_single} * 1 + {self.n_multi} * "
                f"{self.k_per_multi} != {self.total_labels}"
            )
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise CorpusError(f"selection_strategy must be one of {', '.join(map(repr, SELECTION_STRATEGIES))}, "
                              f"got {self.selection_strategy!r}")


@dataclass
class CorpusSplit:
    """Disjoint single / multi / unlabeled example sets under one plan."""

    singles: Corpus
    multis: Corpus
    unlabeled: Corpus

    def label_total(self) -> int:
        return sum(len(part.labels) for part in vars(self).values())


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
        if self.n_examples <= 0:
            raise CorpusError("n_examples must be > 0")
        if self.k_classes <= 1:
            raise CorpusError("k_classes must be > 1")
        if self.d_feat < self.k_classes:
            raise CorpusError("d_feat must be >= k_classes (one prototype per class)")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise CorpusError("ambiguous_fraction must lie in [0, 1]")
        for name in ("dirichlet_sharp", "dirichlet_flat"):
            if getattr(self, name) <= 0:
                raise CorpusError(f"{name} must be positive")
        if self.feature_noise_sigma < 0:
            raise CorpusError("feature_noise_sigma must be >= 0")


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------

def allocate_budget(pool: Corpus, plan: BudgetPlan, seed: int, vocab: LabelVocab) -> CorpusSplit:
    """Spend ``plan`` on ``pool``, returning a split whose label total
    equals ``plan.total_labels`` exactly.

    Multi examples are selected per ``plan.selection_strategy`` (random, or
    ranked by the entropy of each example's annotation frequencies, equal
    entropies in permutation order), then exactly ``k_per_multi``
    annotations are subsampled uniformly without replacement per multi
    example and exactly 1 per single example. Up to ``n_unlabeled``
    leftover examples are kept with their annotations stripped (ground-truth
    side channels are retained so oracle evaluation stays possible).
    Deterministic given ``seed``: one permutation, then one ``choice`` per
    multi and one ``integers`` per single, in that order.
    """
    n_needed = plan.n_single + plan.n_multi
    if n_needed > len(pool):
        raise CorpusError(f"infeasible plan: needs {n_needed} labeled examples, pool has {len(pool)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))

    if plan.selection_strategy == "random":
        multi_idx = order[: plan.n_multi]
        rest = order[plan.n_multi :]
    else:
        from .metrics import entropy_rows

        # the entropy of the sorted frequencies, so that examples whose counts permute each other tie exactly
        entropies = entropy_rows(np.sort(pool.label_distribution(vocab.size), axis=1))[order]
        key = -entropies if plan.selection_strategy == "high_entropy" else entropies
        multi_idx = order[np.argsort(key, kind="stable")[: plan.n_multi]]
        rest = order[~np.isin(order, multi_idx)]

    single_idx = rest[: plan.n_single]
    unlabeled_idx = rest[plan.n_single : plan.n_single + plan.n_unlabeled]

    k = plan.k_per_multi
    lengths, starts = pool.lengths, pool.offsets[:-1]
    short = lengths[multi_idx] < k
    if short.any():
        i = multi_idx[np.argmax(short)]
        raise CorpusError(f"infeasible plan: example {pool.uid[i]} has {lengths[i]} "
                          f"annotations, needs {k}")
    if (lengths[single_idx] == 0).any():
        i = single_idx[np.argmax(lengths[single_idx] == 0)]
        raise CorpusError(f"infeasible plan: example {pool.uid[i]} has no annotations")

    picked = np.empty((len(multi_idx), k), dtype=np.int64)
    for row, n_i in enumerate(lengths[multi_idx].tolist()):
        picked[row] = rng.choice(n_i, size=k, replace=False)
    chosen = rng.integers(lengths[single_idx])

    def part(rows, positions, per_row):
        return pool.take(rows, pool.labels[positions.ravel()], np.arange(len(rows) + 1) * per_row)

    return CorpusSplit(part(single_idx, starts[single_idx] + chosen, 1),
                       part(multi_idx, starts[multi_idx, None] + picked, k),
                       part(unlabeled_idx, np.zeros(0, dtype=np.int64), 0))


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
        "plan": asdict(plan),
    }


# ---------------------------------------------------------------------------
# synthetic pools
# ---------------------------------------------------------------------------

def generate_synthetic_pool(config: SyntheticConfig) -> Corpus:
    """Draw a pool of examples with known ground-truth label distributions.

    Per example: an ambiguity flag ~ Bernoulli(ambiguous_fraction) picks
    the Dirichlet concentration, the true distribution p* is drawn, the
    feature vector is sum_c p*_c * prototype_c plus Gaussian noise, and a
    reservoir of 100 annotations is drawn i.i.d. from Categorical(p*).
    ``counter`` tallies the reservoir and ``old_label`` is the majority of
    5 extra annotator draws (ties to the lowest index).

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
    X = true_dist @ (np.eye(k, d) * PROTOTYPE_SCALE)  # class c's prototype is a basis direction
    if config.feature_noise_sigma > 0:
        X += noise_rng.normal(0.0, config.feature_noise_sigma, size=(n, d))

    # annotator draws, a block of rows at a time to bound the temporaries:
    # inverse-CDF draws as rng.choice(k, p=...) makes them, the class being
    # the number of inner CDF knots at or below the uniform
    knots = np.cumsum(true_dist[:, :-1], axis=1)
    labels = np.empty((n, RESERVOIR_SIZE), dtype=LABEL_DTYPE)
    counter = np.empty((n, k), dtype=np.int64)
    old_label = np.empty(n, dtype=np.int64)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        u = label_rng.random((hi - lo, RESERVOIR_SIZE + OLD_LABEL_WAYS))
        draws = np.zeros(u.shape, dtype=LABEL_DTYPE)
        for j in range(k - 1):
            draws += knots[lo:hi, j, None] <= u
        keys = np.arange(hi - lo)[:, None] * k + draws
        size = (hi - lo) * k
        counter[lo:hi] = np.bincount(keys[:, :RESERVOIR_SIZE].ravel(), minlength=size).reshape(-1, k)
        old_votes = np.bincount(keys[:, RESERVOIR_SIZE:].ravel(), minlength=size).reshape(-1, k)
        old_label[lo:hi] = old_votes.argmax(axis=1)  # first max
        labels[lo:hi] = draws[:, :RESERVOIR_SIZE]
    uid = np.array([f"ex-{config.seed}-{i:06d}" for i in range(n)], dtype=object)
    return Corpus(uid, X, labels.reshape(-1), np.arange(n + 1) * RESERVOIR_SIZE,
                  true_dist, old_label, counter)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------
# Corpus files are UTF-8, line-delimited JSON: one example per line with
# fields "uid", "x" (numbers), "labels" (names, possibly empty) and optional
# "true_dist", "old_label", "label_counter" (its nonzero counts). Vocab
# files hold one label name per line in canonical order.

def save_vocab(vocab: LabelVocab, path) -> None:
    with atomic_write(path) as f:
        for name in vocab.names:
            f.write(name + "\n")


def load_vocab(path) -> LabelVocab:
    names = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                names.append(line.decode("utf-8").rstrip("\r\n"))
            except UnicodeDecodeError as e:
                raise CorpusError(f"{path}: line {lineno}: {e}") from None
    return LabelVocab(tuple(name for name in names if name.strip()))


def save_corpus(corpus: Corpus, path, vocab: LabelVocab) -> None:
    """One line per row, the bytes of ``json.dumps(record, sort_keys=True)``,
    assembled from the JSON text of whole columns, a block of rows at a time."""
    names = np.array([json.dumps(name) for name in vocab.names], dtype=object)
    by_name = sorted(range(vocab.size), key=vocab.names.__getitem__)
    with atomic_write(path) as f:
        for lo in range(0, len(corpus), BLOCK_ROWS):
            part = corpus[lo : lo + BLOCK_ROWS]
            label_text = names[part.labels].tolist()
            bounds = part.offsets.tolist()
            rows = {"labels": ["[" + ", ".join(label_text[a:b]) + "]" for a, b in zip(bounds, bounds[1:])],
                    "uid": [json.dumps(uid) for uid in part.uid.tolist()],
                    "x": _json_rows(part.X)}
            if part.true_dist is not None:  # rows without one hold NaNs
                rows["true_dist"] = [None if "NaN" in row else row for row in _json_rows(part.true_dist)]
            if part.old_label is not None:
                rows["old_label"] = [None if c < 0 else names[c] for c in part.old_label.tolist()]
            if part.counter is not None:
                rows["label_counter"] = ["{" + ", ".join(f"{names[c]}: {row[c]}" for c in by_name if row[c])
                                         + "}" if any(row) else None for row in part.counter.tolist()]
            keys = sorted(rows)
            f.writelines("{" + ", ".join(f'"{key}": {value}' for key, value in zip(keys, values)
                                         if value is not None) + "}\n"
                         for values in zip(*(rows[key] for key in keys)))


def _json_rows(matrix: np.ndarray) -> list[str]:
    """The JSON text of each row of a 2-D float array, from one dump."""
    return ["[" + row + "]" for row in json.dumps(matrix.tolist())[2:-2].split("], [")]


def load_corpus(path, vocab: LabelVocab) -> Corpus:
    """Read a corpus file in one pass, checking each record whole as it is read (field
    types, feature count, then numbers), so that an error names the first bad line."""
    k, positions = vocab.size, vocab._positions
    rows, labels, cells, counts = [], array("h"), [], []  # labels: LABEL_DTYPE
    absent = [np.nan] * k  # the true_dist of a row without one
    width, has_counter = 0, False
    with open(path, "rb") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if line.isspace():
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))  # explicit: json.loads takes UTF-16/32 bytes too
                    if type(rec) is not dict:
                        raise ValueError("not an object")
                except ValueError as e:  # a UnicodeDecodeError too
                    raise CorpusError(f"line {lineno}: malformed record: {e}") from None
                u, x, names, p = rec.get("uid"), rec.get("x"), rec.get("labels", []), rec.get("true_dist")
                if type(u) is not str or not u:
                    raise CorpusError(f"line {lineno}: record is missing a string 'uid' field")
                try:
                    if type(x) is not list:
                        raise CorpusError(_X_FAULT if "x" in rec else "missing 'x' field")
                    if type(names) is not list:
                        raise CorpusError("'labels' must be a list of label names")
                    try:
                        labels.extend(map(positions.__getitem__, names))
                    except (KeyError, TypeError):
                        list(map(vocab.index, names))  # raises naming the first unknown label
                    if p is not None and (type(p) is not list or len(p) != k):
                        raise CorpusError(f"true_dist has {len(p)} entries, vocab has {k}" if type(p) is list
                                          else "true_dist must be a list of probabilities")
                    if bool in map(type, x + (p or [])):
                        raise CorpusError(f"{'x' if bool in map(type, x) else 'true_dist'!r} holds a JSON "
                                          f"boolean, not a number")
                    if (o := rec.get("old_label")) is not None and (type(o) is not str or o not in positions):
                        raise CorpusError(f"old_label {o!r} not in vocab")
                    if (c := rec.get("label_counter")) is not None and type(c) is not dict:
                        raise CorpusError("label_counter must be an object of label counts")
                    for name, m in (c or {}).items():
                        if name not in positions or type(m) is not int or not 0 <= m < 1 << 63:
                            raise CorpusError(f"label_counter {{{name!r}: {m!r}}} is not a non-negative "
                                              f"integer count of a vocab label")
                        cells.append(len(rows) * k + positions[name])
                        counts.append(m)
                except CorpusError as e:
                    raise CorpusError(f"line {lineno}: record {u}: {e}") from None
                width = width if rows else len(x)
                if len(x) != width:
                    raise CorpusError(f"line {lineno} has {len(x)} features, the first record has {width}")
                if not width:
                    raise CorpusError(f"line {lineno}: record {u}: 'x' holds no features")
                if fault := _number_fault(x, p):
                    raise CorpusError(f"line {lineno}: record {u}: {fault}")
                rows.append((u, x, len(names), p or absent, positions.get(o, -1)))
                has_counter |= c is not None
        except CorpusError as e:
            raise CorpusError(f"{path}: {e}") from None

    uid, X, lengths, dists, olds = zip(*rows) if rows else ((),) * 5
    counter = np.zeros(len(rows) * k, dtype=np.int64)
    counter[np.array(cells, dtype=np.int64)] = counts
    return Corpus(np.array(uid, dtype=object), np.array(X, dtype=np.float64).reshape(len(rows), width),
                  np.frombuffer(labels, dtype=LABEL_DTYPE), np.cumsum((0, *lengths)),
                  np.array(dists, dtype=np.float64) if any(d is not absent for d in dists) else None,
                  olds if max(olds, default=-1) >= 0 else None,
                  counter.reshape(-1, k) if has_counter else None)


def _number_fault(x: list, p: list | None) -> str | None:
    """The first fault of a record's numbers (``x``, ``true_dist`` entries, its sum), or None."""
    try:
        if not all(map(math.isfinite, x)):
            return _X_FAULT
    except (TypeError, OverflowError):  # no number, or an int past the float64 range
        return _X_FAULT
    if p is None:
        return None
    if not all(type(v) in (int, float) and -DIST_TOL <= v <= 1 + DIST_TOL for v in p):  # NaN fails too
        return "true_dist: distribution entries must lie in [0, 1]"
    total = math.fsum(p)
    return f"true_dist: distribution sums to {total!r}, expected 1" if abs(total - 1.0) > DIST_TOL else None
