"""Twin-moons generation with rotation shift, and CSV round-trip.

A label of -1 marks an unlabeled sample.

CSV format: first line ``d=<int>,labels=<0|1>``, then one sample per
line, comma separated, label last when present. Floats are written with
``repr`` (shortest round-tripping decimal, at most 17 significant
digits), so save -> load reproduces every value exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ShapeError
from .numerics import as_index, as_real


@dataclass
class Dataset:
    X: np.ndarray
    labels: np.ndarray            # int64, -1 = unlabeled
    num_classes: int = 2

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise ShapeError("X must be a non-empty 2-D array")
        if self.labels.shape != (self.X.shape[0],):
            raise ShapeError("labels must supply one entry per sample")
        if ((self.labels < -1) | (self.labels >= self.num_classes)).any():
            raise ShapeError("labels must be < num_classes (or -1)")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass
class MoonsConfig:
    n_per_class: int = 300
    noise_sigma: float = 0.1
    rotation_deg: float = 0.0
    seed: int = 0


def make_twin_moons(cfg: MoonsConfig) -> Dataset:
    """Two interleaved half-circles with Gaussian jitter.

    Class 0 points are (cos t, sin t), class 1 points (1 - cos t,
    0.5 - sin t), t uniform on [0, pi]. Draw order (angles for class 0,
    angles for class 1, then the noise block) is fixed so a seed pins the
    dataset bit for bit. A nonzero ``rotation_deg`` rotates the finished
    cloud, yielding a target-domain dataset.
    """
    try:
        for name, least in (("n_per_class", 1), ("seed", 0)):
            as_index(getattr(cfg, name), name, least)
        as_real(cfg.noise_sigma, "noise_sigma")
    except ConfigError as exc:
        raise ShapeError(str(exc)) from None
    if not (math.isfinite(cfg.noise_sigma) and cfg.noise_sigma >= 0):
        raise ShapeError(f"noise_sigma must be finite and >= 0, got {cfg.noise_sigma!r}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_per_class
    try:
        t0 = rng.uniform(0.0, np.pi, n)
        t1 = rng.uniform(0.0, np.pi, n)
        pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
        pts1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        X = np.vstack([pts0, pts1])
        if cfg.noise_sigma > 0:
            X = X + rng.normal(0.0, cfg.noise_sigma, size=X.shape)
        labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    except MemoryError:
        raise ShapeError(f"n_per_class {n} is too large to allocate") from None
    ds = Dataset(X=X, labels=labels, num_classes=2)
    if cfg.rotation_deg != 0.0:
        ds = rotate_dataset(ds, cfg.rotation_deg)
    if not np.isfinite(ds.X).all():
        raise ShapeError(f"noise_sigma {cfg.noise_sigma!r} puts points beyond the float range")
    return ds


def rotate_dataset(ds: Dataset, degrees: float) -> Dataset:
    """Rotate every point about the data centroid; a pure pose change
    that keeps the labels. ShapeError unless ``degrees`` is a finite real
    number, as for ``MoonsConfig.rotation_deg``."""
    try:
        as_real(degrees, "rotation degrees")
    except ConfigError as exc:
        raise ShapeError(str(exc)) from None
    if not math.isfinite(degrees):
        raise ShapeError(f"rotation degrees must be finite, got {degrees!r}")
    if ds.dim != 2:
        raise ShapeError("rotation is defined for 2-D data only")
    theta = np.deg2rad(degrees)
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    center = ds.X.mean(axis=0)
    X = (ds.X - center) @ R.T + center
    return Dataset(X=X, labels=ds.labels.copy(), num_classes=ds.num_classes)


def make_open_set_variant(ds: Dataset, n_unknown: int, seed: int = 0) -> Dataset:
    """Append an unknown-class blob (Gaussian at (0.5, -1.5), sigma 0.1,
    labels -1) well clear of both moons."""
    if ds.dim != 2:
        raise ShapeError("open-set variant is defined for 2-D data only")
    try:
        n_unknown, seed = as_index(n_unknown, "n_unknown", 0), as_index(seed, "seed", 0)
    except ConfigError as exc:
        raise ShapeError(str(exc)) from None
    rng = np.random.Generator(np.random.PCG64(seed))
    blob = rng.normal(0.0, 0.1, size=(n_unknown, 2)) + np.array([0.5, -1.5])
    X = np.vstack([ds.X, blob])
    labels = np.concatenate([ds.labels, np.full(n_unknown, -1, dtype=np.int64)])
    return Dataset(X=X, labels=labels, num_classes=ds.num_classes)


def save_csv_dataset(ds: Dataset, path) -> None:
    lines = [f"d={ds.dim},labels=1"]
    for i in range(len(ds)):
        cells = [repr(float(v)) for v in ds.X[i]] + [str(int(ds.labels[i]))]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_utf8(path) -> str:
    """The file's text; ParseError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_csv_dataset(path) -> Dataset:
    """Read a dataset back; num_classes is inferred as max(label)+1 when
    any non-negative label is present, else 0."""
    text = read_utf8(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty dataset file")
    header = _parse_header(lines[0])
    d, has_labels = header["d"], header["labels"]
    expect = d + (1 if has_labels else 0)
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ParseError("dataset file holds no samples")
    # cell counts first: the header's width alone must not size an allocation
    for i, cells in enumerate(rows):
        if len(cells) != expect:
            raise ParseError(f"row {i + 1}: expected {expect} cells, got {len(cells)}")
    X = np.empty((len(rows), d))
    labels = np.full(len(rows), -1, dtype=np.int64)
    for i, cells in enumerate(rows):
        try:
            X[i] = [float(c) for c in cells[:d]]
            if has_labels:
                labels[i] = int(cells[d])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"row {i + 1}: bad cell ({exc})") from None
    nonfinite = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if nonfinite.size:
        raise ParseError(f"row {nonfinite[0] + 1}: non-finite value")
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    return Dataset(X=X, labels=labels, num_classes=num_classes)


def _parse_header(line: str) -> dict:
    parts = dict(p.split("=", 1) for p in line.strip().split(",") if "=" in p)
    if "d" not in parts or "labels" not in parts:
        raise ParseError("missing header line 'd=<int>,labels=<0|1>'")
    try:
        d = int(parts["d"])
        has_labels = int(parts["labels"])
    except ValueError:
        raise ParseError("malformed header values") from None
    if d < 1 or has_labels not in (0, 1):
        raise ParseError("malformed header values")
    return {"d": d, "labels": bool(has_labels)}
