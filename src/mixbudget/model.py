"""Differentiable classifier heads over fixed feature vectors.

A small tanh MLP with either a softmax head (probability over a label
vocab) or an independent-sigmoid head (per-type membership scores).
Gradients are exact analytic backprop, checked against finite differences
in the test suite; no autodiff framework is involved.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

PRED_CLAMP = 1e-12  # floor for probabilities inside logs


@dataclass
class ClassifierParams:
    """MLP weights/biases, held in one float64 vector ``flat`` laid out in
    ``arrays()`` order; ``weights[i]`` (shape (n_in, n_out)) and
    ``biases[i]`` are views into it. Hidden activations are tanh, the
    final layer is raw logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "softmax"

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases length mismatch")
        for W, b in zip(self.weights, self.biases):
            if W.shape[1] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match weight {W.shape}")
        self.flat = np.concatenate([np.ravel(a) for a in self.arrays()], dtype=np.float64)
        views = self.views(self.flat)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[1]

    def arrays(self) -> list[np.ndarray]:
        """Parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``flat``, one per ``arrays()`` entry."""
        out, start = [], 0
        for a in self.arrays():
            out.append(vec[start:start + a.size].reshape(a.shape))
            start += a.size
        return out

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.weights, self.biases, self.head)


def init_params(
    d_feat: int,
    hidden_sizes: tuple[int, ...],
    n_out: int,
    head: str = "softmax",
    seed: int = 0,
) -> ClassifierParams:
    """Xavier-uniform weights, zero biases; deterministic given ``seed``."""
    rng = np.random.default_rng(seed)
    sizes = [d_feat, *hidden_sizes, n_out]
    weights, biases = [], []
    for n_in, n_o in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_o))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_o)))
        biases.append(np.zeros(n_o))
    return ClassifierParams(weights=weights, biases=biases, head=head)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _check_input(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    X = np.asarray(x, dtype=np.float64)
    if X.shape[-1] != params.n_in:
        raise ValueError(f"feature dim {X.shape[-1]} does not match model input {params.n_in}")
    return X


def _forward_cached(params: ClassifierParams, X: np.ndarray):
    """Returns (logits, activations) with activations[i] the input to layer i."""
    acts = [X]
    a = X
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        a = z if i == len(params.weights) - 1 else np.tanh(z)
        acts.append(a)
    return acts[-1], acts


def forward_logits(params: ClassifierParams, x) -> np.ndarray:
    X = _check_input(params, x)
    squeeze = X.ndim == 1
    logits, _ = _forward_cached(params, np.atleast_2d(X))
    return logits[0] if squeeze else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_softmax(params: ClassifierParams, x) -> np.ndarray:
    """Probability distribution(s) over the label vocab for feature row(s)."""
    return softmax(forward_logits(params, x))


def forward_multilabel(params: ClassifierParams, x) -> np.ndarray:
    """Independent per-type membership scores in (0, 1)."""
    return sigmoid(forward_logits(params, x))


def forward_scores(params: ClassifierParams, x) -> np.ndarray:
    """Output of the model's own head for feature row(s)."""
    return HEADS[params.head].activate(forward_logits(params, x))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def batch_soft_cross_entropy(P: np.ndarray, T: np.ndarray) -> float:
    """Mean over rows of -sum_c T_c * ln(P_c), with P clamped at 1e-12.

    Equals KL(T || P) plus the target entropy, so its gradients in the
    model parameters are identical to the KL objective's.
    """
    P = np.maximum(np.asarray(P, dtype=np.float64), PRED_CLAMP)
    return float(-np.mean(np.sum(T * np.log(P), axis=1)))


def negative_weights(targets: np.ndarray, w_neg: float) -> np.ndarray:
    """Per-type loss weights for partially annotated multi-label targets:
    1 at target 1, ``w_neg`` at target 0, linear in between for mixed
    (interpolated) targets."""
    return w_neg + (1.0 - w_neg) * targets


def batch_multilabel_bce(S: np.ndarray, Y: np.ndarray, w_neg: float = 0.1) -> float:
    """Mean over rows, and over types within a row, of binary cross-entropy
    against multi-hot targets, negative terms down-weighted by ``w_neg``
    (annotations are partial, so an unannotated type is only weak evidence
    of absence)."""
    S = np.clip(np.asarray(S, dtype=np.float64), PRED_CLAMP, 1.0 - PRED_CLAMP)
    Y = np.asarray(Y, dtype=np.float64)
    w = negative_weights(Y, w_neg)
    per_type = -(Y * np.log(S) + (1.0 - Y) * np.log(1.0 - S))
    return float(np.mean(np.sum(w * per_type, axis=1) / S.shape[1]))


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def threshold_types(S: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Multi-hot rows of the types scoring above ``threshold``; a row with
    none falls back to its single best type, so no row is empty."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    S = np.asarray(S, dtype=np.float64)
    Y = (S > threshold).astype(np.float64)
    empty = ~Y.any(axis=1)
    Y[empty, np.argmax(S[empty], axis=1)] = 1.0
    return Y


def predict_types(scores, threshold: float = 0.5) -> set[int]:
    """The type set ``threshold_types`` picks for one row of scores."""
    return set(np.flatnonzero(threshold_types(np.atleast_2d(scores), threshold)[0]).tolist())


@dataclass(frozen=True)
class Head:
    """One output head. ``activate`` maps logits to scores; ``loss`` and
    ``dlogits`` take (scores, targets, w_neg) and give the mean batch loss
    and its gradient in the logits; ``sharpen`` maps a 2-D score batch to
    hard targets (pseudo labels)."""

    activate: Callable
    loss: Callable
    dlogits: Callable
    sharpen: Callable


HEADS = {
    "softmax": Head(
        activate=softmax,
        loss=lambda P, T, w_neg: batch_soft_cross_entropy(P, T),
        # d(mean CE)/dlogits for targets summing to 1
        dlogits=lambda P, T, w_neg: (P - T) / len(P),
        sharpen=lambda P: np.eye(P.shape[1])[np.argmax(P, axis=1)],
    ),
    "sigmoid": Head(
        activate=sigmoid,
        loss=batch_multilabel_bce,
        dlogits=lambda S, Y, w_neg: negative_weights(Y, w_neg) * (S - Y) / (Y.shape[1] * len(S)),
        sharpen=threshold_types,
    ),
}


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _backprop(params: ClassifierParams, acts: list[np.ndarray], dZ_out: np.ndarray) -> np.ndarray:
    """Backpropagate a final-layer logit gradient through the tanh stack
    into one gradient vector laid out like ``params.flat``."""
    grad = np.empty_like(params.flat)
    views = params.views(grad)
    dZ = dZ_out
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[i].T, dZ, out=views[2 * i])   # dW
        dZ.sum(axis=0, out=views[2 * i + 1])         # db
        if i > 0:
            dA = dZ @ params.weights[i].T
            dZ = dA * (1.0 - acts[i] ** 2)           # tanh'
    return grad


def grad_batch(params: ClassifierParams, X, T, w_neg: float = 0.1) -> tuple[float, np.ndarray]:
    """Loss and analytic gradient of the head's mean batch loss: soft
    cross-entropy (softmax head) or down-weighted multi-label BCE (sigmoid
    head, negatives weighted by ``w_neg``). The gradient is one vector
    laid out like ``params.flat``. Valid while predictions sit above the
    clamp, which holds everywhere the loss is finite anyway.
    """
    head = HEADS[params.head]
    X = np.atleast_2d(_check_input(params, X))
    T = np.atleast_2d(np.asarray(T, dtype=np.float64))
    if len(X) == 0:
        raise ValueError("empty batch")
    logits, acts = _forward_cached(params, X)
    S = head.activate(logits)
    return head.loss(S, T, w_neg), _backprop(params, acts, head.dlogits(S, T, w_neg))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moment vectors for Adam with bias correction, laid out like
    ``ClassifierParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: ClassifierParams, lr: float = 1e-5) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(params: ClassifierParams, state: AdamState, grad: np.ndarray) -> None:
    """One Adam update, in place on both ``params`` and ``state``; ``grad``
    is laid out like ``params.flat``."""
    if np.shape(grad) != params.flat.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} does not match parameters {params.flat.shape}")
    state.step += 1
    t = state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    params.flat -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
# Format: one UTF-8 JSON header line (shapes, head, vocab hash, seed),
# then ``params.flat`` as raw little-endian float64 bytes, i.e. every
# parameter array in ``params.arrays()`` order. Lossless and byte-stable
# for fixed inputs.

def vocab_hash(names) -> str:
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()[:16]


def save_checkpoint(params: ClassifierParams, path, vocab_names, seed: int) -> None:
    header = {
        "format": "mixbudget-checkpoint-v1",
        "head": params.head,
        "shapes": [list(a.shape) for a in params.arrays()],
        "vocab_hash": vocab_hash(vocab_names),
        "seed": seed,
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ClassifierParams, dict]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        if header.get("format") != "mixbudget-checkpoint-v1":
            raise ValueError(f"{path}: not a recognized checkpoint file")
        body = f.read()
    shapes = header["shapes"]
    n_bytes = 8 * sum(int(np.prod(shape)) for shape in shapes)
    if len(body) != n_bytes:
        raise ValueError(f"{path}: checkpoint body is {len(body)} bytes, its shapes need {n_bytes}")
    params = ClassifierParams(weights=[np.empty(s) for s in shapes[0::2]],
                              biases=[np.empty(s) for s in shapes[1::2]], head=header["head"])
    params.flat[:] = np.frombuffer(body, dtype="<f8")
    return params, header
