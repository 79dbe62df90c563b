"""Checks of sfdalab's outputs against computations written here, apart
from the program.

Nothing in this file imports sfdalab. Every check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

# relative tolerance between the program's SND and the one recomputed here;
# the two differ only by summation order (about 1e-15), an SND off by 1e-6 fails
SND_RTOL = 1e-9


def forward_probs(params: dict, X: np.ndarray) -> np.ndarray:
    """Softmax outputs of the 2-hidden-layer MLP (ReLU after layer 1 only)."""
    hidden = np.maximum(X @ params["W1"] + params["b1"], 0.0)
    logits = (hidden @ params["W2"] + params["b2"]) @ params["Wc"] + params["bc"]
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def accuracy(P: np.ndarray, labels: np.ndarray) -> float:
    known = labels >= 0
    return float(np.mean(np.argmax(P[known], axis=1) == labels[known]))


def snd(P: np.ndarray, tau: float) -> float:
    """Mean entropy of each row's softmax over its cosine similarities to
    every other row, at temperature tau."""
    U = P / np.linalg.norm(P, axis=1, keepdims=True)
    S = (U @ U.T) / tau
    np.fill_diagonal(S, -np.inf)
    S -= S.max(axis=1, keepdims=True)
    E = np.exp(S)
    Q = E / E.sum(axis=1, keepdims=True)
    logQ = np.log(np.where(Q > 0.0, Q, 1.0))
    return float(np.mean(-np.sum(Q * logQ, axis=1)))


def check_adapt_run(params: dict, history: dict, X: np.ndarray, labels: np.ndarray,
                    objective: str, epochs: int, batch_size: int, tau: float) -> list:
    """The invariants every adaptation run must satisfy.

    ``history`` is the run's history as a dict (``RunHistory.to_dict()``);
    ``params`` maps W1..bc to the returned parameter arrays.
    """
    errors = []
    n = X.shape[0]
    P = forward_probs(params, X)
    acc, snd_final = accuracy(P, labels), snd(P, tau)
    if not history["acc"] or abs(history["acc"][-1] - acc) > 0.5 / n:
        errors.append(f"final acc {history['acc'][-1:]} != recomputed {acc}")
    if not history["snd"] or abs(history["snd"][-1] - snd_final) > SND_RTOL * abs(snd_final):
        errors.append(f"final snd {history['snd'][-1:]} != recomputed {snd_final!r}")

    losses = history["loss"]
    expect = epochs * (n // batch_size)
    if len(losses) != expect:
        errors.append(f"{len(losses)} losses, expected {expect}")
    if not all(math.isfinite(v) for v in losses):
        errors.append("non-finite loss")

    lam = history["lambda"]
    if len(lam) != len(losses):
        errors.append(f"{len(lam)} lambda values for {len(losses)} losses")
    elif objective == "AttractOnly":
        if any(v != 0.0 for v in lam):
            errors.append("AttractOnly lambda is not 0 throughout")
    elif objective == "AaDNoDecay":
        if any(v != 1.0 for v in lam):
            errors.append("AaDNoDecay lambda is not 1 throughout")
    elif lam and (lam[0] != 1.0 or any(b > a for a, b in zip(lam, lam[1:]))):
        errors.append("lambda does not start at 1 or increases")

    top = math.log(n - 1)
    if len(history["snd"]) != epochs:
        errors.append(f"{len(history['snd'])} SND values for {epochs} epochs")
    bad = [s for s in history["snd"] if not 0.0 < s <= top]
    if bad:
        errors.append(f"SND outside (0, log(n-1)={top:.6f}]: {bad[:3]}")
    return errors


def check_sweep_csv(text: str, betas, runs: list) -> list:
    """One row per requested beta in order; exactly one flagged row, the
    argmax of SND with ties to the smaller beta. ``runs`` holds each
    beta's (final snd, final acc) from its single-seed adaptation run,
    which the row must repeat exactly."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [float(r["beta"]) for r in rows] != [float(b) for b in betas]:
        return [f"CSV betas {[r['beta'] for r in rows]} != requested {list(betas)}"]
    errors = []
    for r, (snd_run, acc_run) in zip(rows, runs):
        if float(r["snd"]) != snd_run or float(r["acc"]) != acc_run:
            errors.append(f"CSV row beta={r['beta']} disagrees with its run")
    flagged = [i for i, r in enumerate(rows) if r["selected"] == "1"]
    best = max(range(len(rows)), key=lambda i: (float(rows[i]["snd"]), -float(rows[i]["beta"])))
    if flagged != [best]:
        errors.append(f"flagged rows {flagged}, argmax SND row {best}")
    return errors


def knn_oracle(ids, feats, queries, k, exclude) -> np.ndarray:
    """Brute-force K nearest stored ids per query: a full stable sort on
    (-cosine, id) over the rows in id order, skipping each query's
    excluded id. Zero-norm rows, and every row for a zero-norm query,
    rank at -inf."""
    qn = np.linalg.norm(queries, axis=1)
    fn = np.linalg.norm(feats, axis=1)
    sims = (queries @ feats.T) / np.outer(np.where(qn > 0, qn, 1.0), np.where(fn > 0, fn, 1.0))
    sims[:, fn == 0.0] = -np.inf
    sims[qn == 0.0, :] = -np.inf
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for r in range(queries.shape[0]):
        keep = ids != exclude[r]
        cand = ids[keep]
        out[r] = cand[np.lexsort((cand, -sims[r, keep]))[:k]]
    return out


def check_knn_sample(sample) -> list:
    """``sample``: (slot ids, slot features, queries, k, excluded ids,
    returned ids) captured at one ``knn_batch`` call; the two bank arrays
    cover every slot, so the id-order snapshot is taken here."""
    slot_ids, slot_feats, queries, k, excl, got = sample
    slots = np.flatnonzero(slot_ids >= 0)
    slots = slots[np.argsort(slot_ids[slots], kind="stable")]
    want = knn_oracle(slot_ids[slots], slot_feats[slots], queries, k, excl)
    bad = np.flatnonzero(np.any(got != want, axis=1))
    return [f"knn row {r}: got {got[r].tolist()}, oracle {want[r].tolist()}" for r in bad[:3]]


def own_id_rows(ids: np.ndarray, excl: np.ndarray) -> int:
    """Rows of a (q, k) id array that hold the query's own id."""
    return int(np.sum(np.any(ids == np.asarray(excl)[:, None], axis=1)))


def dup_rows(ids: np.ndarray) -> int:
    """Rows of a (q, k) id array that hold one sample id twice or more."""
    s = np.sort(ids, axis=1)
    return int(np.sum(np.any(s[:, 1:] == s[:, :-1], axis=1)))


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()
