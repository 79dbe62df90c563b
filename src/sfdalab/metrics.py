"""Evaluation and unsupervised model selection.

Accuracy reports, the soft neighborhood density (SND) score used to pick
the decay exponent without labels, neighbor-agreement ratios over a
memory bank, open-set score arithmetic (OS*, UNK, HOS, OS), and decision
boundary grids exported as CSV for plotting.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import MemoryBank
from .errors import ConfigError, InsufficientDataError, ShapeError
from .model import MlpModel, forward, predict_labels
from .numerics import (as_index, as_matrix, as_positive, as_real, row_blocks, scratch,
                       single_blas_thread, unit_rows)

SND_TAU = 0.05
RATIO_K = 3
# SND shifts every row by 1, so it takes only a tau with 2 / tau at most
# this. A row's z is then at least exp(-2 / tau), and z and tau * z stay
# normal floats, so the entropy keeps full precision: the smallest normal
# float is exp(-708.4), and -log(tau * z) <= 2 / tau - log(tau) < 706 here
ONE_SHIFT_MAX_EXPONENT = 700.0


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: dict          # class id -> accuracy, absent if no true samples
    mean_per_class: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {str(c): v for c, v in sorted(self.per_class_accuracy.items())},
            "mean_per_class": self.mean_per_class,
            "n_samples": self.n_samples,
        }


@dataclass
class OdaScores:
    os_star: float
    unk: float
    hos: float
    os: float
    num_known_classes: int


def classification_report(predictions, truth, num_classes: int) -> EvalReport:
    """Overall and per-class accuracy. Truth entries of -1 mark unlabeled
    samples and are skipped; classes without any true sample are left
    out of the per-class table and its mean."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ShapeError("predictions and truth must be equal-length 1-D arrays")
    known = true >= 0
    if not known.any():
        raise InsufficientDataError("no labeled samples to score")
    pred, true = pred[known], true[known]
    accuracy = float(np.mean(pred == true))
    per_class = {}
    for c in sorted(set(true[true < num_classes].tolist())):
        per_class[c] = float(np.mean(pred[true == c] == c))
    mean_pc = float(np.mean(list(per_class.values())))
    return EvalReport(accuracy=accuracy, per_class_accuracy=per_class,
                      mean_per_class=mean_pc, n_samples=int(true.shape[0]))


def snd_score(P_target, tau: float = SND_TAU) -> float:
    """Soft neighborhood density of a prediction matrix.

    Rows are L2-normalized, pairwise dot products form a similarity
    matrix whose diagonal is masked out, each row is softmaxed at
    temperature tau, and the mean row entropy is returned. Larger values
    indicate denser, more consistent prediction neighborhoods. The lab
    scores at SND_TAU; ``tau`` stays an argument for the oracle tests and
    ``bench/test_bench.py``, which pass it.

    With U the unit rows and s_ij = u_i . u_j, every row is shifted by 1,
    which needs no search because no cosine exceeds 1: row i has weights
    w_ij = exp((s_ij - 1) / tau), w_ii = 0, and z_i = sum_j w_ij. Since
    sum_j w_ij s_ij = u_i . (W U)_i, its entropy is

        H_i = log z_i - (u_i . (W U)_i - z_i) / (tau z_i),

    and both row sums come out of R = W @ [U | 1], whose last column is z.

    Every exponent lies in [-2 / tau, 0], so ConfigError unless tau >=
    2 / ONE_SHIFT_MAX_EXPONENT (1 / 350), which keeps every z and tau z a
    normal float. The shift of 1 makes W symmetric, so each pair is
    computed once: a block of rows [lo, hi) of ``row_blocks`` takes only
    its strip of columns j >= lo. One product,
    [U | -1]_lo:hi @ [U | 1]_lo:^T with both sides scaled by 1 / sqrt(tau),
    gives (s_ij - 1) / tau; one exp gives the strip of W; then
    R[lo:hi] += W @ [U | 1][lo:] adds the strip to its own rows and
    R[hi:] += W[:, hi - lo:]^T @ [U | 1][lo:hi] adds its mirror to the
    rows below the block. That is about n (n + 128) / 2 exponentials
    instead of n^2. A row's sums thus add up strip by strip, so the last
    bits of the score depend on the block height, a constant: one input
    still gives the same bits on every run.

    With two rows, each row's softmax is over one other row, whose weight
    is 1: every entropy, and so the score, is exactly 0.0. It is returned
    as such, because the shift of 1 would compute it as
    log(exp(x)) - x, off by the rounding of exp.
    """
    P = as_matrix(P_target, "P_target")
    if P.shape[0] < 2:
        raise InsufficientDataError("SND needs at least 2 rows")
    if as_positive(tau, "tau") < 2.0 / ONE_SHIFT_MAX_EXPONENT:
        raise ConfigError(f"tau must be >= 2 / {ONE_SHIFT_MAX_EXPONENT:g} = "
                          f"{2.0 / ONE_SHIFT_MAX_EXPONENT:.6g}, got {tau!r}")
    if P.shape[0] == 2:
        return 0.0
    U = unit_rows(P)[0]
    n, c = U.shape
    U1T = np.vstack((U.T, np.ones(n)))            # [U | 1]^T, C-contiguous
    U1 = U1T.T                                    # [U | 1]
    R = np.zeros((n, c + 1))                      # [W U | z]
    K = U1T / math.sqrt(tau)                      # [U | 1]^T / sqrt(tau)
    Q = K.T.copy()
    Q[:, c] = -Q[:, c]                            # [U | -1] / sqrt(tau)
    for lo, hi in row_blocks(n):
        b = hi - lo
        work = scratch("snd.work", (b, n - lo))
        np.matmul(Q[lo:hi], K[:, lo:], out=work)   # (s_ij - 1) / tau
        work[np.arange(b), np.arange(b)] = -np.inf   # w_ii = 0
        np.exp(work, out=work)
        R[lo:hi] += work @ U1[lo:]
        if hi < n:
            R[hi:] += work[:, b:].T @ U1[lo:hi]
    z = R[:, c]
    dot = np.einsum("ij,ij->i", U, R[:, :c])
    # the difference cancels for concentrated rows, so rounding can leave
    # an entropy a few ulps below 0; no entropy is negative
    ent = np.maximum(np.log(z) - (dot - z) / (tau * z), 0.0)
    return float(ent.mean())


def agreement_ratios(bank: MemoryBank, labels=None):
    """Fraction of stored samples whose RATIO_K nearest neighbors all share
    the sample's own predicted label, and (when true labels are given) the
    fraction of those whose shared label is also correct.

    ``labels`` is a 1-D array indexed by sample id, so it must cover the
    largest stored id; -1 marks an unlabeled sample, which the second
    fraction skips, as ``classification_report`` does. Returns
    (same_ratio, correct_ratio); the second is None without labels and
    0.0 when no labeled sample qualifies.
    """
    sids, feats, preds = bank.snapshot()
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size <= sids.max(initial=-1):
            raise ShapeError(f"labels must be 1-D and cover sample id {sids.max(initial=-1)}, "
                             f"got shape {labels.shape}")
    own = np.argmax(preds, axis=1)
    nbr_slots = bank.knn_slots(feats, RATIO_K, exclude_ids=sids)
    nbr_labels = np.argmax(bank.predictions, axis=1)[nbr_slots]   # (n, RATIO_K)
    same = (nbr_labels == own[:, None]).all(axis=1)
    same_ratio = float(np.mean(same))
    if labels is None:
        return same_ratio, None
    true = labels[sids]
    counted = same & (true >= 0)
    qualified = int(np.sum(counted))
    if qualified == 0:
        return same_ratio, 0.0
    correct_ratio = float(np.sum(counted & (own == true)) / qualified)
    return same_ratio, correct_ratio


def open_set_scores(os_star: float, unk: float, num_known: int) -> OdaScores:
    """HOS = harmonic mean of known-class and unknown accuracy; OS is the
    (|C_s|+1)-way weighted mean counting unknown as one extra class.
    Inputs may be on the 0-1 or 0-100 scale; outputs match the inputs.
    ConfigError unless both accuracies are finite and non-negative and
    num_known is an integer >= 1."""
    for name, value in (("os_star", os_star), ("unk", unk)):
        if not math.isfinite(as_real(value, name, 0)):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    as_index(num_known, "num_known", 1)
    total = os_star + unk
    hos = 0.0 if total == 0 else 2.0 * os_star * unk / total
    os_val = (num_known * os_star) / (num_known + 1) + unk / (num_known + 1)
    return OdaScores(os_star=float(os_star), unk=float(unk), hos=float(hos),
                     os=float(os_val), num_known_classes=int(num_known))


@single_blas_thread()
def decision_grid(model: MlpModel, x_range=(-1.5, 2.5), y_range=(-1.5, 2.0),
                  resolution: int = 101):
    """Predicted label at each node of a regular grid, for boundary plots.

    Returns (xs, ys, labels) with labels[i, j] the prediction at
    (xs[j], ys[i]); rows scan y, columns scan x. ConfigError unless
    resolution is an integer >= 2 whose grid can be allocated and each
    range's two bounds are finite real numbers.
    """
    if model.d_in != 2:
        raise ShapeError("decision grids are defined for 2-D inputs only")
    resolution = as_index(resolution, "resolution", 2)
    for name, bounds in (("x_range", x_range), ("y_range", y_range)):
        if np.shape(bounds) != (2,) or not all(math.isfinite(as_real(b, name)) for b in bounds):
            raise ConfigError(f"{name} must hold two finite numbers, got {bounds!r}")
    try:
        grid = np.empty((resolution, resolution, 2))   # grid[i, j] = (xs[j], ys[i])
        xs = np.linspace(x_range[0], x_range[1], resolution)
        ys = np.linspace(y_range[0], y_range[1], resolution)
        grid[..., 0], grid[..., 1] = xs, ys[:, None]
        labels = predict_labels(model, grid.reshape(-1, 2)).reshape(resolution, resolution)
    except MemoryError:
        raise ConfigError(f"resolution {resolution} gives a grid too large to allocate") from None
    return xs, ys, labels


def save_grid_csv(path, xs, ys, labels) -> None:
    lines = ["x,y,label"]
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            lines.append(f"{repr(float(x))},{repr(float(y))},{int(labels[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n")


def evaluate_model(model: MlpModel, X, labels, num_classes: int) -> EvalReport:
    pred = predict_labels(model, X)
    return classification_report(pred, labels, num_classes)


@single_blas_thread()
def build_report(model: MlpModel, X, labels, num_classes: int,
                 bank: MemoryBank | None = None) -> dict:
    """Score the model on a whole dataset X, with the fixed key set
    accuracy, per_class, snd (at SND_TAU), ratios; a key that cannot be
    computed is null. accuracy and per_class need labels (-1 marks an
    unlabeled sample, which they skip), snd 2 rows, and ratios more than
    RATIO_K rows in ``bank`` (its ids are rows of X), by default a full
    bank of X's forward. ShapeError unless ``labels`` holds one entry per
    row of X."""
    cache = forward(model, as_matrix(X, "X"))
    P = cache.P
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != P.shape[:1]:
        raise ShapeError(f"labels must have shape ({P.shape[0]},), got {labels.shape}")
    if bank is None:
        bank = MemoryBank("full", max(len(P), 1), cache.features.shape[1], P.shape[1])
        bank.update(np.arange(len(P)), cache.features, P)
    report = {"accuracy": None, "per_class": None, "snd": None, "ratios": None}
    has_labels = bool((labels >= 0).any())
    if has_labels:
        er = classification_report(np.argmax(P, axis=1), labels, num_classes)
        report["accuracy"], report["per_class"] = er.accuracy, er.to_dict()["per_class"]
    with contextlib.suppress(InsufficientDataError):
        report["snd"] = snd_score(P)
    with contextlib.suppress(InsufficientDataError):
        same, correct = agreement_ratios(bank, labels if has_labels else None)
        report["ratios"] = {"same": same, "correct": correct}
    return report


def write_report_json(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
