"""Memory bank of target features and their predictions.

Two layouts: ``full`` keeps one slot per dataset sample (slot index ==
sample id), ``ring`` is a bounded buffer where new rows overwrite the
oldest ones and holds at most one row per sample id: the distinct ids
among its last ``capacity`` writes, each at its latest write. Retrieval
is K-nearest-neighbor by cosine similarity with ties broken toward the
lower sample id, so results are deterministic; a zero-norm row, or every
row for a zero-norm query, has a similarity below every cosine.

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
        for name, value in (("capacity", capacity), ("feat_dim", feat_dim), ("n_classes", n_classes)):
            if as_index(value, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        self.mode = mode
        self.capacity = int(capacity)
        self.features = np.zeros((capacity, feat_dim))
        # unit-norm copy of each feature row, and which rows are zero
        self.unit = np.zeros((capacity, feat_dim))
        self.zero_norm = np.ones(capacity, dtype=bool)
        self.predictions = np.zeros((capacity, n_classes))
        self.sample_ids = np.full(capacity, -1, dtype=np.int64)
        self.cursor = 0
        self.filled = 0

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.predictions.shape[1]

    def update(self, sample_ids, features, predictions) -> "MemoryBank":
        """Write a batch of rows. Full mode overwrites the slots addressed by
        sample id; ring mode appends at the cursor, evicting the oldest rows,
        and clears the slot of any older copy of a written id (sample id -1),
        so the last write of an id wins. Each written slot also gets the
        unit-norm copy of its feature row and its zero-norm flag, which
        retrieval reads instead of normalising the stored rows again."""
        ids = _sample_ids(sample_ids)
        feats = as_matrix(features, "features")
        preds = require_simplex_rows(predictions, tol=1e-6, name="predictions")
        if not (len(ids) == feats.shape[0] == preds.shape[0]):
            raise ShapeError("sample_ids, features and predictions must be row-aligned")
        if feats.shape[1] != self.feat_dim or preds.shape[1] != self.n_classes:
            raise ShapeError("row width does not match bank layout")
        if ids.min(initial=0) < 0:
            raise InvalidInputError("sample ids must be non-negative")
        unit, zero = unit_rows(feats)

        if self.mode == "full":
            if ids.max(initial=0) >= self.capacity:
                raise IndexError("sample id exceeds full-mode bank capacity")
            self.features[ids] = feats
            self.unit[ids] = unit
            self.zero_norm[ids] = zero
            self.predictions[ids] = preds
            self.sample_ids[ids] = ids
        elif ids.size:
            # only the last `capacity` rows of the batch survive its own
            # writes; a batch that long overwrites every slot
            cap = self.capacity
            kept, feats, unit, zero, preds = ids[-cap:], feats[-cap:], unit[-cap:], zero[-cap:], preds[-cap:]
            # the kept rows go to slots start, ..., end - 1 (mod capacity)
            end = self.cursor + ids.size
            start = end - kept.size
            slots = np.arange(start, end) % cap
            order = np.argsort(kept, kind="stable")
            written = kept.take(order)
            # clear the slots of older copies of the written ids
            older = written.take(np.searchsorted(written, self.sample_ids), mode="clip")
            self.sample_ids[older == self.sample_ids] = -1
            self.features[slots] = feats
            self.unit[slots] = unit
            self.zero_norm[slots] = zero
            self.predictions[slots] = preds
            self.sample_ids[slots] = kept
            # the stable order puts an id's last write last among its copies
            earlier = written[:-1] == written[1:]
            self.sample_ids[slots.take(order[:-1][earlier])] = -1
            self.cursor = end % cap
        self.filled = int(np.count_nonzero(self.sample_ids >= 0))
        return self

    def occupied(self) -> np.ndarray:
        """Slot indices currently holding data, sorted by stored sample id."""
        if self.mode == "full":
            return np.flatnonzero(self.sample_ids >= 0)  # slot == sample id
        # empty slots hold id -1, so they sort first
        return np.argsort(self.sample_ids, kind="stable")[self.capacity - self.filled:]

    def knn_batch(self, queries, k: int, exclude_ids=None):
        """Vectorized KNN for a batch of query features.

        Returns (ids (n,k), features (n,k,h), predictions (n,k,C)); the
        feature/prediction arrays are value snapshots detached from the bank.
        """
        slots = self.knn_slots(queries, k, exclude_ids)
        return (self.sample_ids.take(slots), self.features.take(slots, axis=0),
                self.predictions.take(slots, axis=0))

    def knn_slots(self, queries, k: int, exclude_ids=None) -> np.ndarray:
        """Bank slots (n, k) of each query's K nearest stored rows, nearest first.

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
        k = as_index(k, "k")
        if k < 1:
            raise ConfigError("k must be >= 1")
        Q = as_matrix(queries, "queries")
        if Q.shape[1] != self.feat_dim:
            raise ShapeError("query width does not match bank features")
        if self.filled <= k:
            raise InsufficientDataError(f"bank holds {self.filled} rows, need more than k={k}")
        slots = self.occupied()
        cand_ids, cand_unit = self.sample_ids.take(slots), self.unit.take(slots, axis=0)
        zero_cands = self.zero_norm.take(slots)
        nq, n = Q.shape[0], cand_ids.size

        # candidates are in id order and hold each id once, so query r's
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
        return slots.take(order)

    def snapshot(self):
        """(ids, features, predictions) copies of the occupied rows, id order."""
        slots = self.occupied()
        return (self.sample_ids.take(slots), self.features.take(slots, axis=0),
                self.predictions.take(slots, axis=0))
