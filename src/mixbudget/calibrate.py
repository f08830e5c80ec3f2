"""Post-hoc and training-time confidence calibration.

Three methods, each governed by one scalar: temperature scaling of
logits, smoothing of predicted distributions, and smoothing of training
targets. ``CalibrationConfig`` checks the scalar's range, and one map,
``calibrated``, turns values into distributions for every method. The
scalar is tuned over that map by bisection so that the mean entropy of
the calibrated distributions matches a reference entropy (typically the
mean entropy of the human label distributions); a caller applies the
tuned scalar with the same map.

All entropies here are in nats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import entropy_rows
from .model import softmax

METHODS = ("temp_scaling", "pred_smoothing", "train_smoothing")

TEMP_LO, TEMP_HI = 1e-3, 1e3
TUNE_TOL = 1e-3  # nats
TUNE_MAX_ITER = 200


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationConfig:
    method: str
    scalar: float | None = None          # temperature, or smoothing mass
    target_entropy: float | None = None  # nats; None = derive from gold dists

    def __post_init__(self):
        if self.method not in METHODS:
            raise CalibrationError(f"method must be one of {', '.join(map(repr, METHODS))}, got {self.method!r}")
        if self.scalar is not None and not (
                0 < self.scalar if self.method == "temp_scaling" else 0 <= self.scalar <= 1):
            raise CalibrationError(f"scalar must be > 0 for temp_scaling, else in [0, 1]; got {self.scalar}")


def temp_scale(logits, T: float) -> np.ndarray:
    """softmax(logits / T). Argmax-preserving for every T > 0."""
    if T <= 0:
        raise CalibrationError(f"temperature must be positive, got {T}")
    return softmax(np.asarray(logits, dtype=np.float64) / T)


def pred_smooth(dist, alpha_s: float) -> np.ndarray:
    """Move ``alpha_s`` probability mass off the largest entry of each row
    and spread it equally over all labels (the largest entry included),
    conserving total mass exactly."""
    if not 0.0 <= alpha_s <= 1.0:
        raise CalibrationError("smoothing mass must lie in [0, 1]")
    d = np.asarray(dist, dtype=np.float64)
    rows = np.atleast_2d(d)
    top = np.max(rows, axis=-1)
    if np.any(alpha_s > top + 1e-12):
        raise CalibrationError(f"smoothing mass {alpha_s} exceeds an entry's largest mass {top.min()}")
    out = rows + alpha_s / rows.shape[-1]
    out[np.arange(len(rows)), np.argmax(rows, axis=-1)] -= alpha_s
    return out.reshape(d.shape)


def calibrated(method: str, values, scalar: float) -> np.ndarray:
    """The distributions ``method`` makes of ``values`` at ``scalar``:
    logits scaled by temperature for temp_scaling; distributions smoothed
    for pred_smoothing (predictions) and train_smoothing (training
    targets)."""
    if method == "temp_scaling":
        return temp_scale(values, scalar)
    if method in METHODS:
        return pred_smooth(values, scalar)
    raise CalibrationError(f"unknown calibration method {method!r}")


@dataclass
class TuneResult:
    scalar: float
    achieved_entropy: float
    warning: bool = False  # set when the target entropy was unattainable


def mean_entropy(dists) -> float:
    return float(np.mean(entropy_rows(np.atleast_2d(np.asarray(dists, dtype=np.float64)))))


def tune_entropy_match(method: str, values, target_entropy: float) -> TuneResult:
    """Find the scalar whose calibrated mean entropy matches
    ``target_entropy`` within ``TUNE_TOL`` nats.

    ``values`` are logits for temp_scaling, and distributions for the
    smoothing methods (predictions for pred_smoothing, training targets
    for train_smoothing). Mean entropy is monotone in the scalar over the
    search interval (for temperature T and beta = 1/T, d(entropy)/d(beta)
    = -beta * Var_p(z) <= 0), so bisection converges; if the target lies
    outside the attainable range, the nearer boundary is returned with
    ``warning`` set.
    """
    V = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if V.size == 0:
        raise CalibrationError("cannot tune on an empty prediction set")
    k = V.shape[-1]
    if not 0.0 <= target_entropy <= np.log(k) + 1e-9:
        raise CalibrationError(f"target entropy must lie in [0, ln {k}]")

    if method == "temp_scaling":
        lo, hi = TEMP_LO, TEMP_HI
    else:
        lo, hi = 0.0, float(np.min(np.max(V, axis=-1)))  # largest jointly feasible mass
    entropy_at = lambda s: mean_entropy(calibrated(method, V, s))

    e_lo, e_hi = entropy_at(lo), entropy_at(hi)
    if target_entropy <= e_lo:
        return TuneResult(lo, e_lo, warning=e_lo - target_entropy > TUNE_TOL)
    if target_entropy >= e_hi:
        return TuneResult(hi, e_hi, warning=target_entropy - e_hi > TUNE_TOL)

    # bisect the bracket to convergence rather than stopping at the first
    # scalar inside tol, so fixed points are recovered tightly
    for _ in range(TUNE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if entropy_at(mid) < target_entropy:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    scalar = 0.5 * (lo + hi)
    achieved = entropy_at(scalar)
    return TuneResult(scalar, achieved, warning=abs(achieved - target_entropy) > TUNE_TOL)
