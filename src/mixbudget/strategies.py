"""Training strategies over uneven single / multi / unlabeled splits.

Plain cross-entropy variants (combined, upsampling, curriculum) and the
interpolation-based family that mixes convex combinations of example
pairs, within and across the three sets. Unlabeled examples enter through
argmax-sharpened pseudo labels recomputed from the current model each
iteration; cross-set terms are weighted by a linearly ramped coefficient.
Every strategy is a list of phases run by one training loop.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusSplit, LabelVocab, aggregate_annotations
from .model import (
    HEADS,
    ClassifierParams,
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
SET_NAMES = {"s": "singles", "m": "multis", "u": "unlabeled"}

# Each strategy is a list of phases: (phase, iterations field of the spec,
# sampler, terms). The sampler is "pooled" (one batch from singles and
# multis together), "upsampled" (each slot an even coin flip between the
# two), or the set keys to draw one batch each from, in draw order. A
# phase with no terms trains on its one batch unmixed; otherwise it sums
# the listed interpolation terms.
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
STRATEGY_KINDS = tuple(STRATEGIES)


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class MixupConfig:
    """Interpolation hyperparameters. ``batch_size`` is shared by all
    three sets so cross-set batches pair element-wise."""

    eta: float = 1.0
    alpha_max: float = 2.0
    ramp_iters: int = 100
    batch_size: int = 128

    def __post_init__(self):
        if self.eta <= 0:
            raise StrategyError("eta must be positive")
        if self.ramp_iters < 1:
            raise StrategyError("ramp_iters must be >= 1")
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
    target_mode: str = "distribution"  # "distribution" or "prediction"
    w_neg: float = 0.1
    input_dropout: float = 0.0
    train_smooth_mass: float = 0.0  # label smoothing applied to one-hot single targets
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise StrategyError(f"unknown strategy kind {self.kind!r}")
        if self.iterations_main <= 0:
            raise StrategyError("iterations_main must be positive")
        if self.iterations_finetune < 0:
            raise StrategyError("iterations_finetune must be >= 0")
        if self.target_mode not in ("distribution", "prediction"):
            raise StrategyError(f"unknown target mode {self.target_mode!r}")
        if not 0.0 <= self.input_dropout < 1.0:
            raise StrategyError("input_dropout must lie in [0, 1)")
        if not 0.0 <= self.train_smooth_mass <= 1.0:
            raise StrategyError("train_smooth_mass must lie in [0, 1]")


@dataclass
class TrainLog:
    """Per-iteration records: iter, phase, alpha, total loss, and the loss
    components that apply to the strategy."""

    entries: list[dict] = field(default_factory=list)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for e in self.entries:
                f.write(json.dumps(e, sort_keys=True) + "\n")

    @staticmethod
    def read(path) -> "TrainLog":
        with open(path, encoding="utf-8") as f:
            return TrainLog([json.loads(line) for line in f if line.strip()])


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def one_hot(index: int, size: int) -> np.ndarray:
    y = np.zeros(size)
    y[index] = 1.0
    return y


def multi_hot(indices, size: int) -> np.ndarray:
    y = np.zeros(size)
    for i in indices:
        y[i] = 1.0
    return y


def make_targets(split: CorpusSplit, vocab: LabelVocab, spec: StrategySpec) -> dict:
    """Training arrays per set: {"s": (X, Y), "m": (X, Y), "u": X or None}.

    Softmax head: singles get one-hot targets; multis get empirical
    frequencies (distribution mode) or the majority one-hot (prediction
    mode). Sigmoid head: targets are multi-hot over the annotated types.
    Empty sets map to None.
    """
    k = vocab.size

    def dist_target(ex):
        if spec.head == "sigmoid":
            return multi_hot(set(ex.annotations), k)
        if spec.target_mode == "prediction":
            return one_hot(aggregate_annotations(ex.annotations, "majority", vocab), k)
        return aggregate_annotations(ex.annotations, "distribution", vocab)

    def pack(examples):
        if not examples:
            return None
        X = np.stack([ex.features for ex in examples])
        Y = np.stack([dist_target(ex) for ex in examples])
        return X, Y

    out = {"s": pack(split.singles), "m": pack(split.multis)}
    if out["s"] is not None and spec.train_smooth_mass > 0 and spec.head == "softmax":
        from .calibrate import train_smooth

        Xs, Ys = out["s"]
        out["s"] = (Xs, train_smooth(Ys, spec.train_smooth_mass))
    out["u"] = np.stack([ex.features for ex in split.unlabeled]) if split.unlabeled else None
    return out


# ---------------------------------------------------------------------------
# interpolation primitives
# ---------------------------------------------------------------------------

def mix_batches(batch_a, batch_b, lam: float):
    """Row-wise convex combinations of two equal-size (X, Y) batches."""
    if not 0.0 <= lam <= 1.0:
        raise StrategyError(f"lambda must lie in [0, 1], got {lam}")
    Xa, Ya = batch_a
    Xb, Yb = batch_b
    if Xa.shape != Xb.shape or Ya.shape != Yb.shape:
        raise StrategyError("mixed batches must share shapes")
    return lam * Xa + (1.0 - lam) * Xb, lam * Ya + (1.0 - lam) * Yb


def ramp_alpha(iteration: int, cfg: MixupConfig) -> float:
    """Cross-term weight: linear from 0 to alpha_max over the first
    ``ramp_iters`` iterations, flat afterwards."""
    if iteration < 0:
        raise StrategyError("iteration must be >= 0")
    return min(1.0, iteration / cfg.ramp_iters) * cfg.alpha_max


def pseudo_label(params: ClassifierParams, x_u) -> np.ndarray:
    """Sharpened model target for unlabeled features: one-hot at the
    argmax of the predicted distribution (softmax head), or the multi-hot
    thresholded type set (sigmoid head). Never part of the gradient."""
    scores = forward_scores(params, x_u)
    return HEADS[params.head].sharpen(np.atleast_2d(scores)).reshape(scores.shape)


@dataclass
class MixPairing:
    """Index plan for one interpolation iteration: a shared lambda plus,
    per loss term, the row orders of the two batches being paired."""

    lam: float
    term_pairs: dict[str, tuple[np.ndarray, np.ndarray]]


def draw_pairing(rng: np.random.Generator, terms, batch_size: int, cfg: MixupConfig) -> MixPairing:
    """Draw one iteration's lambda and pairings.

    Draw order is fixed for reproducibility: lambda first, then per term
    (in the strategy's canonical order) one permutation for within-set
    terms, or two independent shuffles for cross-set terms.
    """
    lam = float(rng.beta(cfg.eta, cfg.eta))
    pairs = {}
    for term in terms:
        set_a, set_b = TERMS[term]
        first = np.arange(batch_size) if set_a == set_b else rng.permutation(batch_size)
        pairs[term] = (first, rng.permutation(batch_size))
    return MixPairing(lam=lam, term_pairs=pairs)


def apply_pairing(batches: dict, pairing: MixPairing) -> dict:
    """Build the mixed (X, Y) batch for every term in the pairing."""
    out = {}
    for term, (idx_a, idx_b) in pairing.term_pairs.items():
        set_a, set_b = TERMS[term]
        Xa, Ya = batches[set_a]
        Xb, Yb = batches[set_b]
        out[term] = mix_batches((Xa[idx_a], Ya[idx_a]), (Xb[idx_b], Yb[idx_b]), pairing.lam)
    return out


def composite_loss_and_grad(
    params: ClassifierParams,
    term_batches: dict,
    alpha: float,
    w_neg: float = 0.1,
):
    """Total loss, gradient, and per-term components for one iteration.

    total = sum(within terms) + alpha * sum(cross terms); every term is
    the mean batch loss on its mixed batch (soft cross-entropy for the
    softmax head, down-weighted BCE for the sigmoid head).
    """
    grad = np.zeros_like(params.flat)
    total = 0.0
    components = {}
    for term, (Xm, Ym) in term_batches.items():
        loss, g = grad_batch(params, Xm, Ym, w_neg)
        set_a, set_b = TERMS[term]
        weight = 1.0 if set_a == set_b else alpha
        components[term] = loss
        total += weight * loss
        grad += weight * g
    return total, grad, components


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _rows(X, Y=None):
    """Batch draw from one set; ``Y`` is None for the unlabeled set."""
    def draw(rng, B):
        # with replacement only when the set is smaller than a batch
        idx = rng.choice(len(X), size=B, replace=len(X) < B)
        return X[idx], None if Y is None else Y[idx]

    return draw


def _upsampled(singles, multis):
    (Xs, Ys), (Xm, Ym) = singles, multis

    def draw(rng, B):
        # each slot is an even coin flip between the two sets, so multi
        # examples match single examples in aggregate frequency
        from_multi = rng.random(B) < 0.5
        idx_s = rng.integers(0, len(Xs), size=B)
        idx_m = rng.integers(0, len(Xm), size=B)
        X = np.where(from_multi[:, None], Xm[idx_m], Xs[idx_s])
        Y = np.where(from_multi[:, None], Ym[idx_m], Ys[idx_s])
        return X, Y

    return draw


def _draws(data: dict, sampler, kind: str) -> dict:
    """One phase's batch draws, {batch key: draw(rng, B) -> (X, Y)}."""
    if sampler == "pooled":
        labeled = [data[k] for k in ("s", "m") if data[k] is not None]
        return {"pooled": _rows(np.concatenate([X for X, _ in labeled]),
                                np.concatenate([Y for _, Y in labeled]))}
    keys = ("s", "m") if sampler == "upsampled" else sampler
    for key in keys:
        if data[key] is None:
            raise StrategyError(f"strategy {kind} requires non-empty {SET_NAMES[key]}")
    if sampler == "upsampled":
        return {"upsampled": _upsampled(data["s"], data["m"])}
    return {key: _rows(data["u"]) if key == "u" else _rows(*data[key]) for key in keys}


def _maybe_input_dropout(rng, X, p):
    if p <= 0:
        return X
    mask = rng.random(X.shape) >= p
    return X * mask / (1.0 - p)


def _abort_if_not_finite(loss, grad, it, log):
    # checked before the update, so a bad step is never applied
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        tail = json.dumps(log[-5:])
        raise StrategyError(f"non-finite loss or gradient at iteration {it}; log tail: {tail}")


def run_strategy(
    spec: StrategySpec, split: CorpusSplit, vocab: LabelVocab
) -> tuple[ClassifierParams, TrainLog]:
    """Train a classifier on ``split`` under ``spec``; deterministic given
    ``spec.seed``. Runs the phases of ``STRATEGIES[spec.kind]`` in order,
    skipping phases with zero iterations. Each iteration draws one batch
    per sampler key (input dropout applied, unlabeled rows pseudo-labeled),
    then, for a mixup phase, lambda and the pairings."""
    data = make_targets(split, vocab, spec)
    sets_present = [k for k in ("s", "m") if data[k] is not None]
    if not sets_present:
        raise StrategyError(f"strategy {spec.kind} requires at least one labeled set")
    d_feat = data[sets_present[0]][0].shape[1]
    phases = [(phase, getattr(spec, iters), _draws(data, sampler, spec.kind), terms)
              for phase, iters, sampler, terms in STRATEGIES[spec.kind]
              if getattr(spec, iters) > 0]

    params = init_params(d_feat, spec.hidden_sizes, vocab.size, spec.head, spec.seed)
    adam = init_adam(params, spec.lr)
    rng = np.random.default_rng(spec.seed)
    cfg = spec.mixup
    log: list[dict] = []
    for phase, iterations, draws, terms in phases:
        for it in range(iterations):
            batches = {}
            for key, draw in draws.items():
                X, Y = draw(rng, cfg.batch_size)
                X = _maybe_input_dropout(rng, X, spec.input_dropout)
                batches[key] = (X, pseudo_label(params, X) if Y is None else Y)
            if terms:
                pairing = draw_pairing(rng, terms, cfg.batch_size, cfg)
                alpha = ramp_alpha(it, cfg)
                term_batches = apply_pairing(batches, pairing)
                loss, grad, comps = composite_loss_and_grad(params, term_batches, alpha, spec.w_neg)
            else:
                ((X, Y),) = batches.values()
                loss, grad = grad_batch(params, X, Y, spec.w_neg)
                alpha, comps = 0.0, {}
            _abort_if_not_finite(loss, grad, it, log)
            adam_step(params, adam, grad)
            log.append({"iter": it, "phase": phase, "alpha": alpha, "loss": loss, **comps})

    return params, TrainLog(log)
