"""Training strategies over uneven single / multi / unlabeled splits.

Plain cross-entropy variants (combined, upsampling, curriculum) and the
interpolation-based family that mixes convex combinations of example
pairs, within and across the three sets. Unlabeled examples enter through
argmax-sharpened pseudo labels recomputed from the current model each
iteration; cross-set terms are weighted by a linearly ramped coefficient.
Every strategy is a list of phases run by one training loop.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .corpus import CorpusSplit, LabelVocab
from .model import (
    HEADS,
    ClassifierParams,
    Workspace,
    adam_step,
    forward_scores,
    grad_batch,
    init_adam,
    init_params,
)

# Interpolation loss terms, each with the two sets it mixes. Within-set
# terms carry unit weight; cross-set terms are scaled by the ramped
# coefficient.
TERMS = {
    "L_ss": ("s", "s"),
    "L_mm": ("m", "m"),
    "L_sm": ("s", "m"),
    "L_su": ("s", "u"),
    "L_mu": ("m", "u"),
}
ETA = 1.0  # lambda ~ Beta(ETA, ETA), one draw per iteration shared by every term
ALPHA_MAX = 2.0  # the cross-term weight, reached after RAMP_ITERS iterations
RAMP_ITERS = 100
SET_NAMES = {"s": "singles", "m": "multis", "u": "unlabeled"}
# Each step's forward, head and backward passes run in this dtype, on a copy of the float64 master
# params: float32 halves the bytes every matmul and tanh moves. The master params and Adam's
# moments stay float64, and so does everything run_strategy returns.
TRAIN_DTYPE = np.float32

# Each strategy is a list of phases: (phase, iterations field of the spec,
# sampler, terms). The sampler is "pooled" (one batch from singles and
# multis together), "upsampled" (each slot an even coin flip between the
# two), or the set keys to draw one batch each from, in draw order. A
# phase with no terms trains on its one batch unmixed, as one unit-weight
# group; otherwise it sums the listed interpolation terms.
STRATEGIES = {
    "ce_combined": [(1, "iterations_main", "pooled", ())],
    "ce_upsampling": [(1, "iterations_main", "upsampled", ())],
    "ce_curriculum": [(1, "iterations_main", ("s",), ()),
                      (2, "iterations_finetune", ("m",), ())],
    "mixup_s": [(1, "iterations_main", ("s",), ("L_ss",))],
    "mixup_sm": [(1, "iterations_main", ("m", "s"), ("L_ss", "L_mm", "L_sm"))],
    "mixup_su": [(1, "iterations_main", ("s", "u"), ("L_ss", "L_su"))],
    "mixup_su_then_m": [(1, "iterations_main", ("s", "u"), ("L_ss", "L_su")),
                        (2, "iterations_finetune", ("m",), ())],
    "mixup_smu": [(1, "iterations_main", ("m", "s", "u"),
                   ("L_ss", "L_mm", "L_sm", "L_su", "L_mu"))],
}


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class MixupConfig:
    """Interpolation settings: ``batch_size`` is shared by all three sets
    so cross-set batches pair element-wise. Lambda's Beta parameter and the
    cross-term ramp are the constants ``ETA``, ``ALPHA_MAX``, ``RAMP_ITERS``."""

    batch_size: int = 128

    def __post_init__(self):
        if self.batch_size < 1:
            raise StrategyError("batch_size must be >= 1")


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    iterations_main: int = 3500
    iterations_finetune: int = 30
    mixup: MixupConfig = field(default_factory=MixupConfig)
    lr: float = 1e-5
    hidden_sizes: tuple[int, ...] = (64,)
    head: str = "softmax"
    train_smooth_mass: float = 0.0  # smoothing of one-hot single targets; calibrate's train_smoothing sets it
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise StrategyError(f"kind must be one of {', '.join(map(repr, STRATEGIES))}, got {self.kind!r}")
        if self.iterations_main <= 0:
            raise StrategyError("iterations_main must be positive")
        if self.iterations_finetune < 0:
            raise StrategyError("iterations_finetune must be >= 0")
        if not self.lr > 0:
            raise StrategyError(f"lr must be > 0, got {self.lr!r}")
        if not all(n >= 1 for n in self.hidden_sizes):
            raise StrategyError(f"hidden_sizes must each be >= 1, got {list(self.hidden_sizes)!r}")
        if not 0.0 <= self.train_smooth_mass <= 1.0:
            raise StrategyError("train_smooth_mass must lie in [0, 1]")
        if self.head == "sigmoid" and self.train_smooth_mass > 0:
            raise StrategyError("the sigmoid head takes no train_smooth_mass")


@dataclass
class TrainLog:
    """Per-iteration records: iter, phase, alpha, total loss, and the loss
    components that apply to the strategy."""

    entries: list[dict] = field(default_factory=list)

    def write(self, path) -> None:
        with atomic_write(path) as f:
            for e in self.entries:
                f.write(json.dumps(e, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def make_targets(split: CorpusSplit, vocab: LabelVocab, spec: StrategySpec) -> dict:
    """Training arrays per set: {"s": (X, Y), "m": (X, Y), "u": X or None}.

    Softmax head: singles get one-hot targets (smoothed by
    ``train_smooth_mass``), multis their empirical label frequencies.
    Sigmoid head: targets are multi-hot over the annotated types. Empty
    sets map to None.
    """
    k = vocab.size

    def pack(part):
        if not len(part):
            return None
        if spec.head == "sigmoid":
            return part.X, (part.counts(k) > 0).astype(np.float64)
        return part.X, part.label_distribution(k)

    out = {"s": pack(split.singles), "m": pack(split.multis)}
    if out["s"] is not None and spec.train_smooth_mass > 0:
        from .calibrate import pred_smooth

        Xs, Ys = out["s"]
        out["s"] = (Xs, pred_smooth(Ys, spec.train_smooth_mass))
    out["u"] = split.unlabeled.X if len(split.unlabeled) else None
    return out


# ---------------------------------------------------------------------------
# one training step
# ---------------------------------------------------------------------------

def ramp_alpha(iteration: int) -> float:
    """Cross-term weight: linear from 0 to ``ALPHA_MAX`` over the first
    ``RAMP_ITERS`` iterations, flat afterwards."""
    return min(1.0, iteration / RAMP_ITERS) * ALPHA_MAX


def pseudo_label(params: ClassifierParams, x_u) -> np.ndarray:
    """Sharpened model target for unlabeled features: one-hot at the
    argmax of the predicted distribution (softmax head), or the multi-hot
    thresholded type set (sigmoid head). Never part of the gradient."""
    scores = forward_scores(params, x_u)
    return HEADS[params.head].sharpen(np.atleast_2d(scores)).reshape(scores.shape)


def draw_pairing(rng: np.random.Generator, terms, batch_size: int) -> tuple[float, dict]:
    """One interpolation iteration's (lambda, {term: (rows_a, rows_b)}):
    a lambda shared by every term, and per term the row orders of the two
    batches it pairs.

    Draw order is fixed for reproducibility: lambda first, then per term
    (in the strategy's canonical order) one permutation for within-set
    terms, or two independent shuffles for cross-set terms.
    """
    lam = float(rng.beta(ETA, ETA))
    pairs = {}
    for term in terms:
        set_a, set_b = TERMS[term]
        first = np.arange(batch_size) if set_a == set_b else rng.permutation(batch_size)
        pairs[term] = (first, rng.permutation(batch_size))
    return lam, pairs


def apply_pairing(X, Y, rows: dict, pairing: tuple[float, dict]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """(terms, X, Y): every term's row-wise convex combination
    ``lam * a + (1 - lam) * b`` of its two batches, stacked in its term
    order. ``rows`` maps each set key to its batch's rows of the table
    ``X``, ``Y``; each side is gathered from the table once."""
    lam, pairs = pairing
    idx_a = np.concatenate([rows[TERMS[term][0]].take(a) for term, (a, _) in pairs.items()])
    idx_b = np.concatenate([rows[TERMS[term][1]].take(b) for term, (_, b) in pairs.items()])
    (Xa, Xb), (Ya, Yb) = ((M.take(idx_a, axis=0), M.take(idx_b, axis=0)) for M in (X, Y))
    return tuple(pairs), lam * Xa + (1.0 - lam) * Xb, lam * Ya + (1.0 - lam) * Yb


def composite_loss_and_grad(
    params: ClassifierParams,
    mixed: tuple,
    alpha: float,
    ws: Workspace | None = None,
):
    """Total loss, float64 gradient, and per-term components for one
    iteration, in one ``grad_batch`` over (terms, X, Y) and ``ws``, in the
    dtype of ``params``. ``apply_pairing`` gives the mixed terms; with
    ``terms == ()`` the rows are one unmixed group of weight 1 and there
    are no components.

    total = sum(within terms) + alpha * sum(cross terms); every term is
    the mean batch loss on its mixed batch (soft cross-entropy for the
    softmax head, down-weighted BCE for the sigmoid head). Each weighted
    term gradient is formed in the gradients' dtype and summed in float64,
    in term order.
    """
    terms, X, Y = mixed
    groups = len(terms) or 1
    ws = Workspace(params, len(X) // groups, groups, params.flat.dtype) if ws is None else ws
    losses, grads = grad_batch(params, X, Y, ws)
    weights = [1.0 if TERMS[term][0] == TERMS[term][1] else alpha for term in terms] or [1.0]
    components = dict(zip(terms, map(float, losses)))
    total = sum(weight * float(loss) for weight, loss in zip(weights, losses))
    if any(weight != 1.0 for weight in weights):  # a unit weight leaves every bit as it is
        grads *= np.array(weights, grads.dtype)[:, None]
    # one group is only widened; the float64 sum starts at 0.0 and so turns -0.0 into 0.0, which
    # Adam cannot tell apart, as its moments start at 0.0
    grad = grads[0].astype(np.float64) if len(grads) == 1 else np.add.reduce(grads, axis=0, dtype=np.float64)
    return total, grad, components


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _sampler(spans: dict, sampler, kind: str):
    """One phase's batch draw, ``draw(rng, B) -> {batch key: table rows}``,
    over the sets' ``(start, count)`` spans of the run's table."""
    keys = ("s", "m") if sampler == "upsampled" else () if sampler == "pooled" else sampler
    for key in keys:
        if not spans[key][1]:
            raise StrategyError(f"strategy {kind} requires non-empty {SET_NAMES[key]}")
    (lo_s, n_s), (lo_m, n_m) = spans["s"], spans["m"]
    if sampler == "upsampled":
        def draw(rng, B):
            # each slot is an even coin flip between the two sets, so multi
            # examples match single examples in aggregate frequency
            from_multi = rng.random(B) < 0.5
            idx_s = rng.integers(0, n_s, size=B)
            idx_m = rng.integers(0, n_m, size=B)
            return {"upsampled": np.where(from_multi, lo_m + idx_m, lo_s + idx_s)}

        return draw
    # singles and multis sit next to each other in the table, so pooling them is one span
    draws = {"pooled": (lo_s, n_s + n_m)} if sampler == "pooled" else {key: spans[key] for key in keys}

    def draw(rng, B):
        # with replacement only when the set is smaller than a batch
        return {key: lo + rng.choice(n, size=B, replace=n < B) for key, (lo, n) in draws.items()}

    return draw


def _abort_if_not_finite(loss, grad, it, log):
    # checked before the update, so a bad step is never applied
    if not (math.isfinite(loss) and np.isfinite(grad).all()):
        tail = json.dumps(log[-5:])
        raise StrategyError(f"non-finite loss or gradient at iteration {it}; log tail: {tail}")


def run_strategy(
    spec: StrategySpec, split: CorpusSplit, vocab: LabelVocab
) -> tuple[ClassifierParams, TrainLog]:
    """Train a classifier on ``split`` under ``spec``; deterministic given
    ``spec.seed``. The run's rows sit in one table X, Y in ``TRAIN_DTYPE``:
    singles, multis, then unlabeled, whose targets are the pseudo labels
    written at the rows each step draws. Runs the phases of
    ``STRATEGIES[spec.kind]`` in order, skipping phases with zero
    iterations. Each iteration draws one batch of table rows per sampler
    key, then, for a mixup phase, lambda and the pairings, and takes one
    ``composite_loss_and_grad`` step; a phase without terms is one
    unit-weight group. Steps run on the workspace's copy of the params,
    cast once per step; the float64 master params are updated and
    returned."""
    data = make_targets(split, vocab, spec)
    if data["s"] is None and data["m"] is None:
        raise StrategyError(f"strategy {spec.kind} requires at least one labeled set")
    if data["u"] is not None:  # targets of zero until a step writes the pseudo labels of the rows it draws
        data["u"] = (data["u"], np.zeros((len(data["u"]), vocab.size)))
    parts = [part for part in data.values() if part is not None]
    X, Y = (np.concatenate([part[i] for part in parts], dtype=TRAIN_DTYPE) for i in (0, 1))
    counts = [0 if part is None else len(part[0]) for part in data.values()]
    spans = dict(zip(data, zip(itertools.accumulate(counts, initial=0), counts)))
    phases = [(phase, getattr(spec, iters), _sampler(spans, sampler, spec.kind), terms)
              for phase, iters, sampler, terms in STRATEGIES[spec.kind]
              if getattr(spec, iters) > 0]

    params = init_params(X.shape[1], spec.hidden_sizes, vocab.size, spec.head, spec.seed)
    adam = init_adam(params, spec.lr)
    rng = np.random.default_rng(spec.seed)
    batch_size = spec.mixup.batch_size
    log: list[dict] = []
    for phase, iterations, draw, terms in phases:
        ws = Workspace(params, batch_size, len(terms) or 1, TRAIN_DTYPE)
        for it in range(iterations):
            ws.params.flat[:] = params.flat  # the step's one cast, for its pseudo labels and its gradient
            rows = draw(rng, batch_size)
            if "u" in rows:  # a row drawn twice gets its label twice
                Y[rows["u"]] = pseudo_label(ws.params, X.take(rows["u"], axis=0))
            if terms:
                mixed, alpha = apply_pairing(X, Y, rows, draw_pairing(rng, terms, batch_size)), ramp_alpha(it)
            else:
                (idx,) = rows.values()
                mixed, alpha = ((), X.take(idx, axis=0), Y.take(idx, axis=0)), 0.0
            loss, grad, comps = composite_loss_and_grad(ws.params, mixed, alpha, ws)
            _abort_if_not_finite(loss, grad, it, log)
            adam_step(params, adam, grad)
            log.append({"iter": it, "phase": phase, "alpha": alpha, "loss": loss, **comps})

    return params, TrainLog(log)
