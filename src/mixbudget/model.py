"""Differentiable classifier heads over fixed feature vectors.

A small tanh MLP with either a softmax head (probability over a label
vocab) or an independent-sigmoid head (per-type membership scores).
Gradients are exact analytic backprop, checked against finite differences
in the test suite; no autodiff framework is involved.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write

PRED_CLAMP = 1e-12  # floor for probabilities inside logs
W_NEG = 0.1  # sigmoid head: loss weight of an unannotated type (partial annotations are weak evidence of absence)


@dataclass
class ClassifierParams:
    """MLP weights/biases, held in one vector ``flat`` (of any float dtype) laid out by
    ``shapes`` [W0, b0, W1, b1, ...]; ``weights[i]`` (shape (n_in, n_out)) and
    ``biases[i]`` are views into it. Hidden activations are tanh, the final
    layer is raw logits. The master params are float64; a ``Workspace``
    holds a copy in its own dtype, ``Workspace.params``, for training steps."""

    shapes: list[tuple[int, ...]]
    flat: np.ndarray
    head: str

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        self.shapes = [tuple(map(operator.index, s)) for s in self.shapes]
        Ws, bs = self.shapes[0::2], self.shapes[1::2]
        if len(Ws) != len(bs):
            raise ValueError("weights/biases length mismatch")
        if not Ws:
            raise ValueError("no layers")
        for i, (W, b) in enumerate(zip(Ws, bs)):
            if len(W) != 2 or b != W[1:] or min(W) < 0:
                raise ValueError(f"layer {i}: weight {W} and bias {b} are not (n_in, n_out) and (n_out,)")
            if i and W[0] != Ws[i - 1][1]:
                raise ValueError(f"layer {i}: weight {W} does not take layer {i - 1}'s width {Ws[i - 1][1]}")
        n = sum(map(math.prod, self.shapes))
        if self.flat.shape != (n,):
            raise ValueError(f"flat has shape {self.flat.shape}, its shapes need ({n},)")
        views = self.views(self.flat)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def n_in(self) -> int:
        return self.shapes[0][0]

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector (or a stack of vectors) laid out like ``flat``, one per ``shapes`` entry."""
        out, start = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            out.append(vec[..., start:start + size].reshape(*vec.shape[:-1], *shape))
            start += size
        return out


def init_params(
    d_feat: int,
    hidden_sizes: tuple[int, ...],
    n_out: int,
    head: str = "softmax",
    seed: int = 0,
) -> ClassifierParams:
    """Xavier-uniform weights, zero biases, in float64; deterministic given ``seed``."""
    rng = np.random.default_rng(seed)
    sizes = [d_feat, *hidden_sizes, n_out]
    shapes, parts = [], []
    for n_in, n_o in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_o))
        shapes += [(n_in, n_o), (n_o,)]
        parts += [rng.uniform(-limit, limit, size=n_in * n_o), np.zeros(n_o)]
    return ClassifierParams(shapes, np.concatenate(parts), head)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _floating(a) -> np.ndarray:
    """``a`` as an array: float32 stays float32, anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _check_input(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    """Feature row(s) in the dtype of ``params.flat``."""
    X = np.asarray(x, dtype=params.flat.dtype)
    if X.shape[-1] != params.n_in:
        raise ValueError(f"feature dim {X.shape[-1]} does not match model input {params.n_in}")
    return X


def _forward_cached(params: ClassifierParams, X: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """The logits of ``X``; the layer outputs go to ``ws.acts`` if given,
    where ``_backprop`` reads them, else to new arrays."""
    z = X
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(z, W, out=None if ws is None else ws.acts[i])
        z += b
        if i < len(params.weights) - 1:
            np.tanh(z, out=z)
    return z


def forward_logits(params: ClassifierParams, x) -> np.ndarray:
    X = _check_input(params, x)
    squeeze = X.ndim == 1
    logits = _forward_cached(params, np.atleast_2d(X))
    return logits[0] if squeeze else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    z = _floating(logits)
    # the row max a column at a time, exact in any order: a reduction over a short last axis,
    # z.max(axis=-1), runs its inner loop once per row
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    z = _floating(logits)
    # e = exp(-|z|) never overflows; min(z, -z) rather than -|z| keeps the
    # sign and payload of a NaN, so every output bit matches the two-branch
    # form 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) for z < 0
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def forward_softmax(params: ClassifierParams, x) -> np.ndarray:
    """Probability distribution(s) over the label vocab for feature row(s)."""
    return softmax(forward_logits(params, x))


def forward_scores(params: ClassifierParams, x) -> np.ndarray:
    """Output of the model's own head for feature row(s)."""
    return HEADS[params.head].activate(forward_logits(params, x))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def batch_soft_cross_entropy(P: np.ndarray, T: np.ndarray):
    """Mean over rows (per group of a (groups, rows, k) stack) of
    -sum_c T_c * ln(P_c), with P clamped at 1e-12; float32 input is
    reduced in float64.

    Equals KL(T || P) plus the target entropy, so its gradients in the
    model parameters are identical to the KL objective's.
    """
    P = np.maximum(np.asarray(P, dtype=np.float64), PRED_CLAMP)
    rows = (T * np.log(P)).sum(axis=-1)
    return -(rows.sum(axis=-1) / rows.shape[-1])  # np.mean's own sum and division, without its wrapper


def negative_weights(targets: np.ndarray) -> np.ndarray:
    """Per-type loss weights for partially annotated multi-label targets:
    1 at target 1, ``W_NEG`` at target 0, linear in between for mixed
    (interpolated) targets."""
    return W_NEG + (1.0 - W_NEG) * targets


def batch_multilabel_bce(S: np.ndarray, Y: np.ndarray):
    """Mean over rows (per group of a stack), and over types within a row,
    of binary cross-entropy against multi-hot targets, negative terms
    down-weighted by ``W_NEG``. Reduced in float64, and clipped after the
    upcast: in float32, 1 - 1e-12 rounds to 1."""
    S = np.clip(np.asarray(S, dtype=np.float64), PRED_CLAMP, 1.0 - PRED_CLAMP)
    Y = np.asarray(Y, dtype=np.float64)
    w = negative_weights(Y)
    per_type = -(Y * np.log(S) + (1.0 - Y) * np.log(1.0 - S))
    rows = (w * per_type).sum(axis=-1) / S.shape[-1]
    return rows.sum(axis=-1) / rows.shape[-1]


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def threshold_types(S: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Multi-hot rows of the types scoring above ``threshold``; a row with
    none falls back to its single best type, so no row is empty. The rows
    take the dtype of the scores."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    S = _floating(S)
    Y = (S > threshold).astype(S.dtype)
    empty = ~Y.any(axis=1)
    Y[empty, np.argmax(S[empty], axis=1)] = 1.0
    return Y


@dataclass(frozen=True)
class Head:
    """One output head. ``activate`` maps logits to scores; ``loss`` and
    ``dlogits`` take (scores, targets), stacked (groups, rows, k),
    and give each group's mean loss and its gradient in the logits;
    ``sharpen`` maps a 2-D score batch to hard targets (pseudo labels) of
    the scores' dtype."""

    activate: Callable
    loss: Callable
    dlogits: Callable
    sharpen: Callable


HEADS = {
    "softmax": Head(
        activate=softmax,
        loss=batch_soft_cross_entropy,
        # d(mean CE)/dlogits for targets summing to 1
        dlogits=lambda P, T: (P - T) / P.shape[-2],
        sharpen=lambda P: np.eye(P.shape[1], dtype=P.dtype).take(P.argmax(axis=1), axis=0),
    ),
    "sigmoid": Head(
        activate=sigmoid,
        loss=batch_multilabel_bce,
        dlogits=lambda S, Y: negative_weights(Y) * (S - Y) / (Y.shape[-1] * S.shape[-2]),
        sharpen=threshold_types,
    ),
}


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

class Workspace:
    """A training step's arrays in one ``dtype``, made once and reused: ``params``, a copy of the
    master params whose ``flat`` is in ``dtype`` (the caller refreshes it), and ``grad_batch``'s
    buffers for ``groups`` groups of ``batch_size`` rows: each layer's output (groups, batch_size,
    width), a scratch block as large as the widest hidden one, and one gradient per group laid out
    like ``params.flat``. Every view a step takes of them is bound here once: the per-layer
    gradient blocks ``dW``/``db``, the hidden outputs transposed (``acts_T``) and the backward
    pass's ``dA`` scratch, one per hidden output."""

    def __init__(self, params: ClassifierParams, batch_size: int, groups: int = 1, dtype=np.float64):
        self.groups = groups
        self.params = ClassifierParams(params.shapes, params.flat.astype(dtype), params.head)
        self.acts = [np.empty((groups, batch_size, W.shape[1]), dtype) for W in params.weights]
        self.acts_T = [a.transpose(0, 2, 1) for a in self.acts[:-1]]
        widest = max((W.shape[0] for W in params.weights[1:]), default=0)
        scratch = np.empty(groups * batch_size * widest, dtype)
        self.dA = [scratch[:a.size].reshape(a.shape) for a in self.acts[:-1]]
        self.grads = np.empty((groups, params.flat.size), dtype)
        views = params.views(self.grads)
        self.dW, self.db = views[0::2], views[1::2]


def _backprop(params: ClassifierParams, X: np.ndarray, dZ: np.ndarray, ws: Workspace) -> np.ndarray:
    """Backpropagate a final-layer logit gradient, stacked (groups, rows,
    k), from the forward pass of input ``X`` in ``ws``, through the tanh
    stack into ``ws.grads``, one gradient per group. Spends ``ws.acts``:
    each hidden output is overwritten by its dZ."""
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(ws.acts_T[i - 1] if i else X.transpose(0, 2, 1), dZ, out=ws.dW[i])
        dZ.sum(axis=1, out=ws.db[i])
        if i > 0:
            a = ws.acts[i - 1]
            np.matmul(dZ, params.weights[i].T, out=ws.dA[i - 1])
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            dZ = np.multiply(ws.dA[i - 1], a, out=a)                 # dA * tanh'
    return ws.grads


def grad_batch(params: ClassifierParams, X, T, ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Losses and analytic gradients (in ``ws``, laid out like ``params.flat``) of the head's mean batch
    loss, soft cross-entropy (softmax) or BCE with negatives weighted by ``W_NEG`` (sigmoid), for each
    of ``ws.groups`` equal groups of rows (one without ``ws``). Each group runs its own matmuls, so its
    results are bit for bit a lone batch's. Valid while predictions sit above the clamp, which holds
    everywhere the loss is finite anyway.

    Runs in the dtype of ``params.flat``, with ``ws`` made in that dtype: float64 on the master
    params, float32 on a float32 ``Workspace.params``. The losses are reduced in float64 either way.
    """
    head = HEADS[params.head]
    X = np.atleast_2d(_check_input(params, X))
    T = np.atleast_2d(np.asarray(T, dtype=X.dtype))
    if len(X) == 0:
        raise ValueError("empty batch")
    ws = Workspace(params, len(X), dtype=params.flat.dtype) if ws is None else ws
    X = X.reshape(ws.groups, -1, X.shape[1])
    logits = _forward_cached(params, X, ws)
    S = head.activate(logits)
    T = T.reshape(S.shape)
    return head.loss(S, T), _backprop(params, X, head.dlogits(S, T), ws)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment vectors for Adam with bias correction, and two scratch
    vectors for the update, laid out like ``ClassifierParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray  # (2, n_params)
    lr: float
    step: int = 0


def init_adam(params: ClassifierParams, lr: float) -> AdamState:
    n = params.flat.size
    return AdamState(m=np.zeros(n), v=np.zeros(n), scratch=np.empty((2, n)), lr=lr)


def adam_step(params: ClassifierParams, state: AdamState, grad: np.ndarray) -> None:
    """One Adam update, in place on both ``params`` and ``state``; ``grad``
    is laid out like ``params.flat``."""
    if np.shape(grad) != params.flat.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} does not match parameters {params.flat.shape}")
    state.step += 1
    t = state.step
    a, b = state.scratch
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    state.v *= ADAM_BETA2
    state.v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=a), grad, out=a)
    np.multiply(state.lr, np.divide(state.m, 1.0 - ADAM_BETA1**t, out=a), out=a)  # lr * m_hat
    np.sqrt(np.divide(state.v, 1.0 - ADAM_BETA2**t, out=b), out=b)                # sqrt(v_hat)
    b += ADAM_EPS
    params.flat -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
# Format: one UTF-8 JSON header line, every key of ``HEADER_TYPES`` required in its JSON type, then
# ``params.flat`` as raw little-endian float64 bytes, i.e. every parameter array in ``params.shapes``
# order. Lossless and byte-stable for fixed inputs.

HEADER_TYPES = {"format": str, "head": str, "shapes": list, "vocab_hash": str, "seed": int}


def vocab_hash(names) -> str:
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()[:16]


def save_checkpoint(params: ClassifierParams, path, vocab_names, seed: int) -> None:
    header = {
        "format": "mixbudget-checkpoint-v1",
        "head": params.head,
        "shapes": [list(s) for s in params.shapes],
        "vocab_hash": vocab_hash(vocab_names),
        "seed": seed,
    }
    with atomic_write(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ClassifierParams, dict]:
    with open(path, "rb") as f:
        line, body = f.readline(), f.read()
    try:
        header = json.loads(line.decode("utf-8"))
        if type(header) is not dict or header.get("format") != "mixbudget-checkpoint-v1":
            raise ValueError("not a recognized checkpoint file")
        for key, kind in HEADER_TYPES.items():
            if type(header[key]) is not kind:  # a missing key raises KeyError; a boolean is no int
                raise TypeError(f"{key} is {type(header[key]).__name__}, not {kind.__name__}")
        n_bytes = 8 * sum(int(np.prod(shape)) for shape in header["shapes"])
        if len(body) != n_bytes:
            raise ValueError(f"checkpoint body is {len(body)} bytes, its shapes need {n_bytes}")
        params = ClassifierParams(header["shapes"], np.frombuffer(body, "<f8").astype(np.float64), header["head"])
    except (KeyError, TypeError, ValueError) as e:  # a UnicodeDecodeError too
        detail = e if type(e) is ValueError else f"bad header ({type(e).__name__}: {e})"
        raise ValueError(f"{path}: {detail}") from None
    return params, header
