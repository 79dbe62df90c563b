"""Memory bank of target features and their predictions.

One layout for both modes: row i holds sample i, and a row that holds no
sample reads sample id -1. A ``full`` bank holds every id written to it,
each below its ``capacity``. A ``ring`` is a window over its last
``capacity`` writes: it holds the ids whose latest write is among them,
told by each id's write number. In both modes the arrays start empty and
grow to the largest id written: O(largest id) memory, not O(capacity).
``adapt`` seeds a bank with the whole target, whose forward pass is O(n)
anyway. Retrieval is K-nearest-neighbor by cosine similarity with ties
broken toward the lower sample id, so results are deterministic; a
zero-norm row, or every row for a zero-norm query, has a similarity
below every cosine.

Next to each feature row the bank keeps its unit-norm copy, written once
by ``update``, so a retrieval normalises only its queries, and a cosine
is one product of unit rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InsufficientDataError, InvalidInputError, ShapeError
from .numerics import as_index, as_matrix, require_simplex_rows, row_blocks, scratch, unit_rows

MODES = ("full", "ring")

# Similarity of a zero-norm row to any query, and of a zero-norm query to
# any row: below every cosine, so such rows rank last, in id order.
_FLOOR_SIMILARITY = -2.0


def _sample_ids(sample_ids) -> np.ndarray:
    """``sample_ids`` as a flat int64 array; ids that are not integers
    raise ``InvalidInputError`` instead of being truncated."""
    ids = np.asarray(sample_ids)
    if ids.dtype.kind in "iu":  # the common case costs one dtype test
        return ids.astype(np.int64, copy=False).ravel()
    try:
        with np.errstate(invalid="ignore"):
            as_int = ids.astype(np.int64)
    except (TypeError, ValueError):
        raise InvalidInputError(f"sample ids must be integers, got dtype {ids.dtype}") from None
    wrong = ids != as_int
    if wrong.any():
        raise InvalidInputError(f"sample ids must be integers, got {ids[wrong][:5].tolist()}")
    return as_int.ravel()


class MemoryBank:
    """Aligned feature and prediction storage with cosine KNN retrieval."""

    def __init__(self, mode: str, capacity: int, feat_dim: int, n_classes: int):
        mode = str(mode).lower()
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.capacity, feat_dim, n_classes = (
            as_index(value, name, 1) for name, value in
            (("capacity", capacity), ("feat_dim", feat_dim), ("n_classes", n_classes)))
        # no rows yet: update grows every array to the largest id written
        self.features = np.zeros((0, feat_dim))
        # unit-norm copy of each feature row, and which rows are zero
        self.unit = np.zeros((0, feat_dim))
        self.zero_norm = np.ones(0, dtype=bool)
        self.predictions = np.zeros((0, n_classes))
        self.sample_ids = np.full(0, -1, dtype=np.int64)
        # the number of each id's latest write, and of all writes so far
        self.last_write = np.zeros(0, dtype=np.int64)
        self.writes = 0
        self.filled = 0

    def _grow(self, rows: int) -> None:
        """Extend every per-id array to ``rows`` rows that hold no id; all are
        allocated before any is replaced, so a failure leaves the bank as it was."""
        fill = {"features": 0.0, "unit": 0.0, "zero_norm": True, "predictions": 0.0,
                "sample_ids": -1, "last_write": 0}
        old = {name: getattr(self, name) for name in fill}
        try:
            new = {name: np.empty((rows, *a.shape[1:]), a.dtype) for name, a in old.items()}
        except (MemoryError, ValueError):   # ValueError: more bytes than numpy can index
            raise InvalidInputError(
                f"sample id {rows - 1} gives a bank too large to allocate") from None
        for name, a in new.items():
            a[:len(old[name])] = old[name]
            a[len(old[name]):] = fill[name]
            setattr(self, name, a)

    def update(self, sample_ids, features, predictions) -> "MemoryBank":
        """Write a batch of rows, each to the row of its sample id: the
        feature row, its unit-norm copy and zero-norm flag (which retrieval
        reads instead of normalising the stored rows again), and the
        prediction. Where the batch repeats an id, its last copy is
        written. A ring then drops every id whose latest write is not
        among its last ``capacity`` writes (sample id -1)."""
        ids = _sample_ids(sample_ids)
        feats = as_matrix(features, "features")
        preds = require_simplex_rows(predictions, tol=1e-6, name="predictions")
        if not (len(ids) == feats.shape[0] == preds.shape[0]):
            raise ShapeError("sample_ids, features and predictions must be row-aligned")
        if feats.shape[1] != self.features.shape[1] or preds.shape[1] != self.predictions.shape[1]:
            raise ShapeError("row width does not match bank layout")
        if ids.min(initial=0) < 0:
            raise InvalidInputError("sample ids must be non-negative")
        top = int(ids.max(initial=-1))
        if self.mode == "full" and top >= self.capacity:
            raise InvalidInputError(
                f"sample id {top} is past the full bank's capacity {self.capacity}")
        if top >= self.sample_ids.size:
            self._grow(top + 1)
        unit, zero = unit_rows(feats)

        # NumPy does not say which copy of a repeated index an assignment
        # keeps; a repeated id leaves one copy's write number in every
        # copy's place, and then only the last copy of each id is written
        stamps = np.arange(self.writes, self.writes + ids.size)
        self.writes += ids.size
        self.last_write[ids] = stamps
        if self.last_write.take(ids).tobytes() != stamps.tobytes():
            keep = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
            ids, feats, unit, zero, preds, stamps = (
                a.take(keep, axis=0) for a in (ids, feats, unit, zero, preds, stamps))
            self.last_write[ids] = stamps
        self.features[ids] = feats
        self.unit[ids] = unit
        self.zero_norm[ids] = zero
        self.predictions[ids] = preds
        self.sample_ids[ids] = ids
        if self.mode == "ring":
            self.sample_ids[self.last_write < self.writes - self.capacity] = -1
        self.filled = int(np.count_nonzero(self.sample_ids >= 0))
        return self

    def occupied(self) -> np.ndarray:
        """The ids the bank holds, ascending; each is also its row."""
        return np.flatnonzero(self.sample_ids >= 0)

    def knn_batch(self, queries, k: int, exclude_ids=None):
        """Vectorized KNN for a batch of query features.

        Returns (ids (n,k), features (n,k,h), predictions (n,k,C)); the
        feature/prediction arrays are value snapshots detached from the bank.
        """
        ids = self.knn_slots(queries, k, exclude_ids)
        return ids, self.features.take(ids, axis=0), self.predictions.take(ids, axis=0)

    def knn_slots(self, queries, k: int, exclude_ids=None) -> np.ndarray:
        """Sample ids (n, k) of each query's K nearest stored rows, nearest
        first; each id is also its row of the bank's arrays.

        Rows rank by cosine similarity, ties toward the lower sample id;
        zero-norm rows (and every row, for a zero-norm query) have
        similarity -2, below every cosine, so they come last, in id
        order. ``exclude_ids`` gives one sample id per query, and its row
        is never returned for that query. A bank must hold more than k
        rows, so at least k are left after the exclusion. Every query is
        normalised (``numerics.unit_rows``, which rescales rows with tiny or
        huge entries first, so their cosines neither underflow nor
        overflow), and a cosine is the product of the unit query row and
        the unit row ``update`` stored.
        """
        k = as_index(k, "k", 1)
        Q = as_matrix(queries, "queries")
        if Q.shape[1] != self.features.shape[1]:
            raise ShapeError("query width does not match bank features")
        if self.filled <= k:
            raise InsufficientDataError(f"bank holds {self.filled} rows, need more than k={k}")
        cand_ids = self.occupied()
        cand_unit, zero_cands = self.unit.take(cand_ids, axis=0), self.zero_norm.take(cand_ids)
        nq, n = Q.shape[0], cand_ids.size

        # candidates are in id order, each id once, so query r's
        # excluded id, if stored, sits at position pos[r]
        if exclude_ids is not None:
            excl = _sample_ids(exclude_ids)
            if excl.size != nq:
                raise ShapeError("exclude_ids must supply one id per query row")
            pos = np.searchsorted(cand_ids, excl)
            hit = np.flatnonzero(cand_ids.take(pos, mode="clip") == excl)
        Q, zero_queries = unit_rows(Q)

        # Each query ranks its own row of similarities, so queries go in
        # blocks of rows through reused work arrays. argmax returns the
        # first maximum, which is the lowest id among tied candidates, so
        # k rounds of argmax-and-mask yield the exact (-similarity, id)
        # order. Zero-norm rows rank at the finite _FLOOR_SIMILARITY and
        # only excluded and picked rows at -inf, so the more than k rows
        # besides the excluded one fill all k places.
        order = np.empty((nq, k), dtype=np.int64)
        for lo, hi in row_blocks(nq):
            sims = np.matmul(Q[lo:hi], cand_unit.T, out=scratch("knn.sims", (hi - lo, n)))
            sims[:, zero_cands] = _FLOOR_SIMILARITY
            sims[zero_queries[lo:hi], :] = _FLOOR_SIMILARITY
            if exclude_ids is not None:
                rows = hit[np.searchsorted(hit, lo):np.searchsorted(hit, hi)]
                sims[rows - lo, pos[rows]] = -np.inf
            row_starts = np.arange(0, (hi - lo) * n, n)  # flat index of each row's first entry
            for j in range(k):
                best = sims.argmax(axis=1, out=order[lo:hi, j])
                sims.put(best + row_starts, -np.inf)
        return cand_ids.take(order)

    def snapshot(self):
        """(ids, features, predictions) copies of the rows held, id order."""
        ids = self.occupied()
        return ids, self.features.take(ids, axis=0), self.predictions.take(ids, axis=0)
