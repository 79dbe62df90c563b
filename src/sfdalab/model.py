"""Three-linear-layer network: two layers form the feature extractor,
one linear classifier head maps features to class logits.

Forward, reverse-mode gradients, and SGD-with-momentum updates are written
out by hand so every training objective can be checked against the
finite-difference oracle. Layout::

    x (bs, d_in) -> W1,b1 -> ReLU -> W2,b2 -> features Z (bs, h_feat)
                 -> Wc,bc -> logits -> softmax -> P (bs, C)

ReLU is applied after the first layer only, and its subgradient at 0 is
fixed to 0.

Parameters (``MlpModel.theta``, with ``W1`` ... ``bc`` as reshaped views),
momentum (``MlpModel.velocity``) and the gradient ``backward`` returns are
float64 vectors of one layout: the ``PARAM_NAMES`` arrays in order, each
row-major. ``MlpModel.views`` names the parts of any such vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import read_utf8
from .errors import DivergenceError, InvalidInputError, ParseError, ShapeError
from .numerics import as_index, as_matrix, as_momentum, as_positive, softmax_rows

PARAM_NAMES = ("W1", "b1", "W2", "b2", "Wc", "bc")

CHECKPOINT_VERSION = 1


def _view(name: str) -> property:
    return property(lambda self: self._params[name], doc=f"``{name}``, a view into ``theta``")


class MlpModel:
    """Parameters of the feature extractor plus classifier head.

    The keyword arrays are copied into ``theta``; ``velocity``, the
    momentum in the same layout, is zero at construction.
    """

    W1, b1, W2, b2, Wc, bc = map(_view, PARAM_NAMES)
    d_in = property(lambda self: self.W1.shape[0])
    h1 = property(lambda self: self.W1.shape[1])
    h_feat = property(lambda self: self.W2.shape[1])
    n_classes = property(lambda self: self.Wc.shape[1])

    def __init__(self, W1, b1, W2, b2, Wc, bc, seed: int = 0):
        parts = (W1, b1, W2, b2, Wc, bc)
        self.theta = np.concatenate(parts, axis=None, dtype=np.float64)
        self.velocity = np.zeros_like(self.theta)
        self.seed = seed
        self._shapes = [np.shape(p) for p in parts]
        self._ends = np.cumsum([math.prod(s) for s in self._shapes])
        self._spans = list(zip(PARAM_NAMES, (0, *self._ends[:-1].tolist()),
                               self._ends.tolist(), self._shapes))
        self._params = self.views(self.theta)
        self._grad = np.empty_like(self.theta)    # backward writes here
        self._grad_parts = self.views(self._grad)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> reshaped view into ``flat``, a vector in the ``theta``
        layout: ``theta``, ``velocity`` or a gradient from ``backward``."""
        if flat.shape != self.theta.shape:
            raise ShapeError(f"expected a vector of shape {self.theta.shape}, got {flat.shape}")
        return {k: flat[lo:hi].reshape(s) for k, lo, hi, s in self._spans}

    def params(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    def n_params(self) -> int:
        return self.theta.size

    def clone(self) -> "MlpModel":
        twin = MlpModel(**self._params, seed=self.seed)
        twin.velocity[...] = self.velocity
        return twin

    def reset_velocity(self) -> None:
        """Zero the momentum; every training run starts fresh."""
        self.velocity.fill(0.0)


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward evaluation."""

    X: np.ndarray
    pre1: np.ndarray      # first-layer pre-activation
    hidden: np.ndarray    # ReLU output
    features: np.ndarray  # Z, second linear layer output
    logits: np.ndarray
    P: np.ndarray         # softmax rows


def init_model(d_in: int, h1: int, h_feat: int, n_classes: int, seed: int = 0) -> MlpModel:
    """Glorot-uniform weights, zero biases, zero momentum; deterministic per
    seed. Every dim must be an integer >= 1 and the seed an integer >= 0,
    else ConfigError names the field; dims whose arrays cannot be
    allocated raise ShapeError naming them."""
    for name, dim in (("d_in", d_in), ("h1", h1), ("h_feat", h_feat), ("n_classes", n_classes)):
        as_index(dim, name, 1)
    as_index(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    try:
        return MlpModel(
            W1=glorot(d_in, h1),
            b1=np.zeros(h1),
            W2=glorot(h1, h_feat),
            b2=np.zeros(h_feat),
            Wc=glorot(h_feat, n_classes),
            bc=np.zeros(n_classes),
            seed=seed,
        )
    except MemoryError:
        raise ShapeError(f"a model with d_in {d_in}, h1 {h1}, h_feat {h_feat} and "
                         f"n_classes {n_classes} is too large to allocate") from None


def forward(model: MlpModel, X) -> ForwardCache:
    """Deterministic batch forward pass; rows are independent."""
    X = as_matrix(X, "X")
    if X.shape[1] != model.d_in:
        raise ShapeError(f"input has {X.shape[1]} columns, model expects {model.d_in}")
    pre1 = X @ model.W1 + model.b1
    hidden = np.maximum(pre1, 0.0)
    features = hidden @ model.W2 + model.b2
    logits = features @ model.Wc + model.bc
    P = softmax_rows(logits)
    return ForwardCache(X=X, pre1=pre1, hidden=hidden, features=features, logits=logits, P=P)


def softmax_vjp(P: np.ndarray, dP: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits."""
    inner = np.sum(dP * P, axis=1, keepdims=True)
    return P * (dP - inner)


def backward(model: MlpModel, cache: ForwardCache, dL_dP) -> np.ndarray:
    """Exact parameter gradient of any scalar loss given its gradient w.r.t.
    P, as one vector in the ``theta`` layout.

    Each layer's products and sums are written straight into the model's
    gradient vector through its ``views``; the caller gets a copy of it,
    so a later call does not change an earlier result."""
    dL_dP = as_matrix(dL_dP, "dL_dP")
    if dL_dP.shape != cache.P.shape:
        raise ShapeError(f"dL_dP shape {dL_dP.shape} does not match predictions {cache.P.shape}")
    if cache.X.shape[1] != model.d_in or cache.logits.shape[1] != model.n_classes \
            or cache.hidden.shape[1] != model.h1 or cache.features.shape[1] != model.h_feat:
        raise ShapeError("cache shapes do not match this model (stale cache)")

    g = model._grad_parts
    dlogits = softmax_vjp(cache.P, dL_dP)
    np.matmul(cache.features.T, dlogits, out=g["Wc"])
    dlogits.sum(axis=0, out=g["bc"])
    dZ = dlogits @ model.Wc.T
    np.matmul(cache.hidden.T, dZ, out=g["W2"])
    dZ.sum(axis=0, out=g["b2"])
    dH = dZ @ model.W2.T
    dpre1 = dH * (cache.pre1 > 0.0)  # ReLU'(0) := 0
    np.matmul(cache.X.T, dpre1, out=g["W1"])
    dpre1.sum(axis=0, out=g["b1"])
    return model._grad.copy()


def sgd_step(model: MlpModel, grad, lr: float, momentum: float) -> MlpModel:
    """In-place heavy-ball update: v <- momentum*v + g; theta <- theta - lr*v.
    ``grad`` is a ``theta``-layout vector; a rejected one (wrong shape, or
    non-finite: the first such parameter is named) leaves the model as it was."""
    as_positive(lr, "lr")
    as_momentum(momentum)
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != model.theta.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match the {model.n_params()} parameters")
    if not np.isfinite(g).all():
        first = np.flatnonzero(~np.isfinite(g))[0]
        name = PARAM_NAMES[np.searchsorted(model._ends, first, side="right")]
        raise DivergenceError(f"non-finite gradient for {name}")
    v = model.velocity
    v *= momentum
    v += g
    model.theta -= lr * v
    return model


def predict_labels(model: MlpModel, X) -> np.ndarray:
    """Argmax class per row; ties resolved to the lower class index."""
    return np.argmax(forward(model, X).P, axis=1)


def save_checkpoint(model: MlpModel, path) -> None:
    """JSON checkpoint: dims, seed, flat row-major parameter arrays.

    Momentum buffers are not persisted; a loaded model starts a fresh
    optimizer state.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": {"d_in": model.d_in, "h1": model.h1,
                 "h_feat": model.h_feat, "n_classes": model.n_classes},
        "seed": model.seed,
        "params": {k: v.ravel().tolist() for k, v in model.params().items()},
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> MlpModel:
    """Model from a ``save_checkpoint`` file.

    A file that is not UTF-8 JSON raises ParseError naming it. A document
    that is not an object, ``dims`` or ``params`` that is not an object, a
    ``seed`` that is not a non-negative integer, a dim that is missing or
    not a positive integer, and a parameter that is missing, is not a list
    of numbers, has the wrong length for the dims or holds a non-finite
    value, raise InvalidInputError naming it."""
    try:
        doc = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: a checkpoint must hold a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    for key in ("dims", "params"):
        if not isinstance(doc.get(key), dict):
            raise InvalidInputError(f"checkpoint {key} is missing or not an object")
    seed = doc.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise InvalidInputError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    d = doc["dims"]
    for key in ("d_in", "h1", "h_feat", "n_classes"):
        if type(d.get(key)) is not int or d[key] < 1:
            raise InvalidInputError(f"checkpoint dim {key} is missing or not a positive integer")
    shapes = {
        "W1": (d["d_in"], d["h1"]), "b1": (d["h1"],),
        "W2": (d["h1"], d["h_feat"]), "b2": (d["h_feat"],),
        "Wc": (d["h_feat"], d["n_classes"]), "bc": (d["n_classes"],),
    }
    params = {}
    for name, shape in shapes.items():
        if name not in doc["params"]:
            raise InvalidInputError(f"checkpoint parameter {name} is missing")
        try:
            arr = np.asarray(doc["params"][name], dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidInputError(f"checkpoint parameter {name} is not a list of numbers") from None
        if arr.size != int(np.prod(shape)):
            raise InvalidInputError(f"checkpoint parameter {name} has wrong length")
        if not np.isfinite(arr).all():
            raise InvalidInputError(f"checkpoint parameter {name} has non-finite values")
        params[name] = arr.reshape(shape)
    return MlpModel(**params, seed=seed)
