"""Training objectives and their analytic gradients.

The central objective pulls each sample's prediction toward the stored
predictions of its K nearest feature-space neighbors (attraction) and
pushes it away from the other predictions in the mini-batch (dispersion),
the latter weighted by a decaying factor lambda. Also here: the exact
negative log-likelihood this objective upper-bounds, the bound itself,
and a family of alternative objectives (mutual information, nuclear /
Frobenius norm, neighborhood clustering with a KL diversity term,
InfoNCE) that all decompose into a discriminability term plus a
diversity term.

Gradient conventions
--------------------
* Batch losses are means over anchors, so learning rates do not depend
  on batch size.
* Retrieved neighbor predictions are constants (no gradient); in-batch
  predictions receive gradient both as anchor and as background rows.
* Simplex membership of prediction rows is validated with tolerance
  1e-4: loose enough that the central-difference oracle (step 1e-5) can
  probe the same entry points it certifies.
* Logarithms of probabilities are clamped at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError
from .numerics import as_index, as_matrix, as_positive, as_real, require_simplex_rows

LOG_CLAMP = 1e-12
SIMPLEX_TOL = 1e-4


@dataclass
class LossResult:
    """Scalar loss plus its gradient w.r.t. the differentiated argument
    (prediction rows for most objectives, anchor features for InfoNCE).

    When a discriminability/diversity split exists, ``dis_term + div_term
    == value``.
    """

    value: float
    grad: np.ndarray
    dis_term: float | None = None
    div_term: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.value) or not np.isfinite(self.grad).all():
            raise InvalidInputError("loss produced non-finite value or gradient")


def lambda_schedule(iteration: int, max_iter: int, beta: float) -> float:
    """Dispersion weight (1 + 10*iteration/max_iter) ** (-beta).

    Starts at 1 and is non-increasing; beta = 0 disables the decay.
    """
    as_real(beta, "beta", 0)
    as_index(max_iter, "max_iter", 1)
    if not 0 <= iteration <= max_iter:
        raise ConfigError(f"iteration {iteration} outside [0, {max_iter}]")
    return float((1.0 + 10.0 * iteration / max_iter) ** (-beta))


def _check_neighbors(P: np.ndarray, neighbor_preds) -> np.ndarray:
    nbr = np.asarray(neighbor_preds, dtype=np.float64)
    if nbr.ndim != 3 or nbr.shape[0] != P.shape[0] or nbr.shape[2] != P.shape[1]:
        raise ShapeError("neighbor_preds must have shape (batch, K, C)")
    if not np.isfinite(nbr).all():
        raise InvalidInputError("neighbor_preds contains non-finite entries")
    return nbr


def attract_disperse_loss(P_batch, neighbor_preds, lam: float) -> LossResult:
    """Mean over anchors i of  -sum_j p_i.n_ij + lam * sum_{m != i} p_i.p_m.

    n_ij are the stored neighbor predictions (constants); the dispersion
    sum runs over the rest of the batch, so each p_a picks up gradient
    from its own row and from every row where it appears as background.
    """
    P = require_simplex_rows(P_batch, tol=SIMPLEX_TOL)
    nbr = _check_neighbors(P, neighbor_preds)
    bs = P.shape[0]
    if bs < 2:
        raise ShapeError("need a batch of at least 2 for a non-empty background set")
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"lam must be finite and >= 0, got {lam!r}")

    nbr_sum = nbr.sum(axis=1)                      # (bs, C)
    attract = -float(np.sum(P * nbr_sum)) / bs
    total = P.sum(axis=0)
    disperse = (float(total @ total) - float(np.sum(P * P))) / bs
    grad = (-nbr_sum + 2.0 * lam * (total[None, :] - P)) / bs
    return LossResult(value=attract + lam * disperse, grad=grad,
                      dis_term=attract, div_term=lam * disperse)


def disperse_only_loss(P_batch, lam: float) -> LossResult:
    """The dispersion term alone: ``attract_disperse_loss`` with no neighbors."""
    P = np.asarray(P_batch, dtype=np.float64)
    return attract_disperse_loss(P, np.empty(P.shape[:1] + (0,) + P.shape[1:]), lam)


def _log_z(p_i: np.ndarray, all_preds: np.ndarray) -> float:
    # log sum_k exp(p_i . p_k); dots are in [0, 1] so no shift needed
    return float(np.log(np.sum(np.exp(all_preds @ p_i))))


def _check_nll_args(i, all_preds, close, background):
    A = require_simplex_rows(all_preds, tol=1e-6, name="all_preds")
    if A.shape[0] < 2:
        raise ShapeError("need at least 2 stored predictions")
    if not 0 <= i < A.shape[0]:
        raise InvalidInputError(f"anchor index {i} outside [0, {A.shape[0]})")
    c = np.asarray(close, dtype=np.int64).ravel()
    b = np.asarray(background, dtype=np.int64).ravel()
    for idx, name in ((c, "close"), (b, "background")):
        if idx.size and (idx.min() < 0 or idx.max() >= A.shape[0]):
            raise InvalidInputError(f"{name} indices out of range")
    if i in c:
        raise InvalidInputError("anchor may not appear in its close set")
    return A, c, b


def exact_aad_nll(i: int, all_preds, close, background) -> float:
    """-log of the ratio of neighbor-selection likelihoods, computed exactly.

    Selection probabilities are p_ij = exp(p_i.p_j) / sum_k exp(p_i.p_k)
    with the partition running over every stored row.
    """
    A, c, b = _check_nll_args(i, all_preds, close, background)
    p_i = A[i]
    log_z = _log_z(p_i, A)
    dots = A @ p_i
    return float(-np.sum(dots[c] - log_z) + np.sum(dots[b] - log_z))


def jensen_upper_bound(i: int, all_preds, close, background) -> float:
    """Upper bound on ``exact_aad_nll`` obtained by bounding log-sum-exp
    from below with the mean exponent (valid because the close set is
    smaller than the background set, making the coefficient negative).

    Uses the exact mean over all stored rows, not a batch estimate.
    """
    A, c, b = _check_nll_args(i, all_preds, close, background)
    if not len(c) < len(b):
        raise InvalidInputError("bound requires a close set smaller than the background set")
    p_i = A[i]
    dots = A @ p_i
    n_t = A.shape[0]
    return float(-np.sum(dots[c]) + np.sum(dots[b])
                 + (len(c) - len(b)) * (float(dots.mean()) + np.log(n_t)))


def mi_loss(P_batch) -> LossResult:
    """Mean per-row entropy minus entropy of the mean row (batch estimate
    of the class marginal). Minimizing sharpens individual predictions
    while keeping the batch-level class usage spread out."""
    P = require_simplex_rows(P_batch, tol=SIMPLEX_TOL)
    bs = P.shape[0]
    logP = np.log(np.maximum(P, LOG_CLAMP))
    cond = -float(np.sum(np.where(P > 0, P * logP, 0.0))) / bs
    mean_p = P.mean(axis=0)
    log_mean = np.log(np.maximum(mean_p, LOG_CLAMP))
    marg = -float(np.sum(np.where(mean_p > 0, mean_p * log_mean, 0.0)))
    grad = (log_mean[None, :] - logP) / bs
    return LossResult(value=cond - marg, grad=grad, dis_term=cond, div_term=-marg)


def bnm_loss(P_batch, variant: str = "nuclear") -> LossResult:
    """Negated matrix norm of the prediction matrix.

    ``fnorm``   : -||P||_F, gradient -P/||P||_F (discriminability only).
    ``nuclear`` : -sum of singular values, subgradient -U V^T from a thin
                  SVD; favors confident and diverse predictions at once.
                  Non-unique at repeated singular values, acceptable at
                  this scale.
    """
    P = require_simplex_rows(P_batch, tol=SIMPLEX_TOL)
    variant = str(variant).lower()
    if variant == "fnorm":
        fro = float(np.linalg.norm(P))
        # rows sum to 1, so ||P||_F >= sqrt(bs/C) > 0: no singular case
        return LossResult(value=-fro, grad=-P / fro, dis_term=-fro, div_term=0.0)
    if variant == "nuclear":
        U, s, Vt = np.linalg.svd(P, full_matrices=False)
        return LossResult(value=-float(s.sum()), grad=-(U @ Vt))
    raise ConfigError(f"unknown bnm variant {variant!r}")


def nc_loss(P_batch, neighbor_preds, weights=None) -> LossResult:
    """Weighted neighbor-consistency attraction plus a KL diversity term.

    Attraction: -mean_i sum_j W_ij * p_i.n_ij, the dot product AaD's
    attraction uses. Diversity: KL(mean prediction || uniform)
    = sum_c pbar_c ln(C pbar_c). Weights default to 1; their construction
    is up to the caller.
    """
    P = require_simplex_rows(P_batch, tol=SIMPLEX_TOL)
    nbr = _check_neighbors(P, neighbor_preds)
    bs, k = nbr.shape[0], nbr.shape[1]
    if weights is None:
        W = np.ones((bs, k))
    else:
        W = np.asarray(weights, dtype=np.float64)
        if W.shape != (bs, k):
            raise ShapeError(f"weights must have shape ({bs}, {k})")
        if (W <= 0).any():
            raise InvalidInputError("weights must be positive")

    dots = np.einsum("ic,ikc->ik", P, nbr)
    attract = -float(np.sum(W * dots)) / bs
    grad = -np.einsum("ik,ikc->ic", W, nbr) / bs

    mean_p = P.mean(axis=0)
    log_term = np.log(np.maximum(mean_p * P.shape[1], LOG_CLAMP))
    kl = float(np.sum(np.where(mean_p > 0, mean_p * log_term, 0.0)))
    grad += (log_term[None, :] + 1.0) / bs
    return LossResult(value=attract + kl, grad=grad, dis_term=attract, div_term=kl)


def infonce_loss(anchor_feats, positive_feats, negative_feats, tau: float) -> LossResult:
    """Alignment plus uniformity on unit-norm features.

    value = mean_i [-a_i.pos_i / tau]
          + mean_i [log(e^(1/tau) + sum_m e^(a_i.neg_m / tau))]

    Gradient is w.r.t. the anchor features; negatives are shared across
    anchors and may be empty.
    """
    as_positive(tau, "tau")
    A = as_matrix(anchor_feats, "anchor_feats")
    Pos = as_matrix(positive_feats, "positive_feats")
    if Pos.shape != A.shape:
        raise ShapeError("positive_feats must match anchor_feats shape")
    Neg = np.asarray(negative_feats, dtype=np.float64)
    if Neg.size == 0:
        Neg = np.zeros((0, A.shape[1]))
    Neg = as_matrix(Neg, "negative_feats")
    if Neg.shape[1] != A.shape[1]:
        raise ShapeError("negative_feats width must match anchors")
    for M, name in ((A, "anchor"), (Pos, "positive"), (Neg, "negative")):
        if M.shape[0] and (np.abs(np.linalg.norm(M, axis=1) - 1.0) > 1e-3).any():
            raise InvalidInputError(f"{name} features must be L2-normalized")

    n = A.shape[0]
    align = -float(np.sum(A * Pos)) / (n * tau)
    grad = -Pos / (n * tau)

    # log(e^(1/tau) + sum_m e^(s_im/tau)) via a shifted sum for stability
    s = A @ Neg.T / tau                                  # (n, M)
    cols = np.concatenate([np.full((n, 1), 1.0 / tau), s], axis=1)
    m = cols.max(axis=1, keepdims=True)
    exp_cols = np.exp(cols - m)
    lse = m[:, 0] + np.log(exp_cols.sum(axis=1))
    unif = float(lse.mean())
    if Neg.shape[0]:
        w = exp_cols[:, 1:] / exp_cols.sum(axis=1, keepdims=True)  # softmax over [1/tau, s]
        grad += (w @ Neg) / (n * tau)
    return LossResult(value=align + unif, grad=grad, dis_term=align, div_term=unif)


def cross_entropy_loss(P_batch, labels) -> LossResult:
    """Mean negative log probability of the true class, log clamped at 1e-12.

    The gradient is w.r.t. P; chained through softmax it reduces to
    (P - onehot) / batch.
    """
    P = require_simplex_rows(P_batch, tol=SIMPLEX_TOL)
    y = np.asarray(labels, dtype=np.int64).ravel()
    bs, C = P.shape
    if y.size != bs:
        raise ShapeError("labels must supply one entry per row")
    if (y < 0).any() or (y >= C).any():
        raise InvalidInputError(f"labels must lie in [0, {C})")
    picked = np.maximum(P[np.arange(bs), y], LOG_CLAMP)
    grad = np.zeros_like(P)
    grad[np.arange(bs), y] = -1.0 / (bs * picked)
    return LossResult(value=-float(np.mean(np.log(picked))), grad=grad)
