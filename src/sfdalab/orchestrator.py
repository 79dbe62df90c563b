"""Training loops: source pretraining, neighbor-based target adaptation,
and the decay-exponent sweep with SND-based selection.

Pretraining and adaptation share one minibatch loop: forward the batch,
evaluate the loss, take one SGD step. Adaptation's loss retrieves each
sample's nearest neighbors (never itself) when the objective uses them.
Only an objective that retrieves keeps a memory bank, seeded with a full
forward pass, and each step writes its batch right before its retrieval.
Each epoch ends with ``metrics.build_report`` (``sfdalab eval``) of the
model, its ratios over that bank or else a full bank of its own forward.

Target labels feed these scores only; the gradient path never touches
them. Every run resets the momentum buffers first and draws all shuffles
from one seeded generator, so identical (model, data, config) reproduce
bit-identical histories and parameters. ``pretrain_source`` and
``adapt`` check the SGD settings they share with one function, and run
their BLAS kernels on one thread (``numerics.single_blas_thread``) and
restore the caller's setting after.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .bank import MODES, MemoryBank
from .datasets import Dataset
from .errors import ConfigError, DivergenceError, InvalidInputError
from .metrics import SND_TAU, EvalReport, build_report, evaluate_model
from .model import MlpModel, backward, forward, sgd_step
from .numerics import as_index, as_matrix, as_momentum, as_positive, as_real, single_blas_thread
from .objectives import (
    attract_disperse_loss,
    bnm_loss,
    cross_entropy_loss,
    lambda_schedule,
    mi_loss,
    nc_loss,
)


class _Objective(NamedTuple):
    needs_neighbors: bool   # retrieve K neighbors per batch row
    lam: float | None       # fixed dispersion weight; None follows the schedule
    loss: Callable          # (P, neighbor predictions, lambda) -> LossResult


# The AaD ablations are the one attraction/dispersion kernel with lambda
# fixed, or with no neighbors. Entries look the losses up by module-level
# name at call time, so a patched name (tracing, counting) is the one used.
def _aad(P, nbr, lam):
    return attract_disperse_loss(P, nbr, lam)


_TABLE = {
    "AaD": _Objective(True, None, _aad),
    "AttractOnly": _Objective(True, 0.0, _aad),
    "DisperseOnly": _Objective(False, None, _aad),
    "AaDNoDecay": _Objective(True, 1.0, _aad),
    "MI": _Objective(False, None, lambda P, nbr, lam: mi_loss(P)),
    "BNM": _Objective(False, None, lambda P, nbr, lam: bnm_loss(P, variant="nuclear")),
    "NC": _Objective(True, None, lambda P, nbr, lam: nc_loss(P, nbr)),
}
OBJECTIVES = tuple(_TABLE)


@dataclass
class AdaptConfig:
    k: int = 4
    beta: float = 0.25
    batch_size: int = 64
    epochs: int = 300
    lr: float = 0.005
    momentum: float = 0.7
    bank_mode: str = "full"
    ring_capacity: int = 0       # ignored unless bank_mode == "ring"
    seed: int = 0
    objective: str = "AaD"
    snd_tau: ClassVar[float] = SND_TAU   # SND scores every epoch at one temperature

    def __post_init__(self):
        self.objective = canonical_objective(self.objective)

    def validate(self) -> None:
        _check_sgd(self.epochs, self.batch_size, self.lr, self.momentum, self.seed)
        as_index(self.batch_size, "batch_size", 2)
        if as_index(self.k, "k", 1) >= self.batch_size - 1:
            raise ConfigError("k must satisfy 1 <= k < batch_size - 1")
        as_real(self.beta, "beta", 0)
        if self.bank_mode not in MODES:
            raise ConfigError(f"unknown bank_mode {self.bank_mode!r}")
        as_index(self.ring_capacity, "ring_capacity", self.k + 1 if self.bank_mode == "ring" else 0)


def canonical_objective(name: str) -> str:
    for obj in OBJECTIVES:
        if str(name).lower() == obj.lower():
            return obj
    raise ConfigError(f"unknown objective {name!r}, expected one of {OBJECTIVES}")


@dataclass
class RunHistory:
    """Per-iteration loss and dispersion weight, per-epoch evaluation."""

    loss: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    acc: list = field(default_factory=list)            # None when unlabeled
    snd: list = field(default_factory=list)
    ratio_same: list = field(default_factory=list)
    ratio_correct: list = field(default_factory=list)  # None when unlabeled
    checkpoint_path: str = ""

    def to_dict(self) -> dict:
        out = {
            "loss": self.loss,
            "lambda": self.lam,
            "acc": self.acc,
            "snd": self.snd,
            "ratio_same": self.ratio_same,
            "ratio_correct": self.ratio_correct,
        }
        if self.checkpoint_path:
            out["checkpoint"] = self.checkpoint_path
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def _step_error(exc: ValueError, where: str) -> ValueError:
    """The error to raise for ``exc`` from the training step at ``where``.

    Data and config are checked at entry, so a non-finite value inside a
    step (``InvalidInputError`` from a kernel's check) means the run
    diverged and becomes ``DivergenceError``; other errors keep their type.
    """
    kind = DivergenceError if isinstance(exc, InvalidInputError) else type(exc)
    return kind(f"{where}: {exc}")


def _check_sgd(epochs, batch_size, lr, momentum, seed) -> None:
    """The settings pretraining and adaptation share: integer epochs >= 0,
    batch_size >= 1 and seed >= 0, finite lr > 0, momentum in [0, 1)."""
    for name, value, least in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                               ("seed", seed, 0)):
        as_index(value, name, least)
    as_positive(lr, "lr")
    as_momentum(momentum)


def _sgd_epochs(model, X, epochs, batch_size, lr, momentum, seed, where, batch_loss):
    """Reset the momentum, then yield each epoch after stepping on the full
    batches of one seeded permutation of the rows of X: forward, then
    ``batch_loss(idx, cache)``, backward, SGD step. A step's error is
    re-raised as ``_step_error`` at ``"{where}, epoch e, iteration b"``."""
    model.reset_velocity()
    rng = np.random.Generator(np.random.PCG64(seed))
    for epoch in range(epochs):
        perm = rng.permutation(len(X))
        for b in range(len(X) // batch_size):
            idx = perm[b * batch_size:(b + 1) * batch_size]
            try:
                cache = forward(model, X[idx])
                grad = backward(model, cache, batch_loss(idx, cache).grad)
                sgd_step(model, grad, lr, momentum)
            except ValueError as exc:
                raise _step_error(exc, f"{where}, epoch {epoch}, iteration {b}") from exc
        yield epoch


@single_blas_thread()
def pretrain_source(model: MlpModel, source: Dataset, epochs: int, lr: float,
                    momentum: float = 0.9, seed: int = 0,
                    batch_size: int = 64) -> tuple[MlpModel, EvalReport]:
    """Cross-entropy SGD on labeled source data; the model is updated in
    place and also returned. Reports final source accuracy.

    Errors inside a step are reported as in ``adapt``, with the prefix
    ``pretrain, epoch e, iteration b``."""
    _check_sgd(epochs, batch_size, lr, momentum, seed)
    if (source.labels < 0).any():
        raise InvalidInputError("source data must be fully labeled")
    if (source.labels >= model.n_classes).any():
        raise InvalidInputError(f"source labels must be < the model's {model.n_classes} classes")
    as_matrix(source.X, "source.X")
    for _ in _sgd_epochs(model, source.X, epochs, min(batch_size, len(source)), lr, momentum,
                         seed, "pretrain", lambda idx, c: cross_entropy_loss(c.P, source.labels[idx])):
        pass
    return model, evaluate_model(model, source.X, source.labels, source.num_classes)


@single_blas_thread()
def adapt(model: MlpModel, target: Dataset, cfg: AdaptConfig) -> tuple[MlpModel, RunHistory]:
    """Adapt a source-pretrained model to unlabeled target data.

    An objective with neighbors keeps a bank, seeded with the whole
    target, and each step writes its batch to it right before retrieving.
    The others keep no bank, so ``bank_mode`` and ``ring_capacity`` do not
    affect them, and each epoch's agreement ratios read a full bank of the
    evaluation's own forward.

    The recorded lambda is the dispersion weight actually applied: the
    objective's fixed weight (0 for AttractOnly, 1 for AaDNoDecay), else
    the schedule value, which objectives without a dispersion term record
    for comparability.

    A ``ValueError`` raised by a step is re-raised with a prefix naming
    the objective, the epoch and the iteration within it. Target data and
    config are checked at entry, so a non-finite value inside a step is
    divergence: ``InvalidInputError`` and ``DivergenceError`` are re-raised
    as ``DivergenceError``, other errors keep their type. An error from
    an epoch's evaluation names the objective and the epoch. The
    model is not rolled back: it keeps the updates of the steps before the
    failing one, and the failing step leaves it as it was.
    """
    cfg.validate()
    as_matrix(target.X, "target.X")
    n = len(target)
    if n < cfg.batch_size:
        raise ConfigError(f"target has {n} samples, need >= batch_size {cfg.batch_size}")
    objective = _TABLE[cfg.objective]

    bank = None
    if objective.needs_neighbors:
        bank = MemoryBank(cfg.bank_mode, n if cfg.bank_mode == "full" else cfg.ring_capacity,
                          model.h_feat, model.n_classes)
        seed_cache = forward(model, target.X)
        bank.update(np.arange(n), seed_cache.features, seed_cache.P)

    max_iter = max(cfg.epochs * (n // cfg.batch_size), 1)
    no_neighbors = np.empty((cfg.batch_size, 0, model.n_classes))
    history = RunHistory()

    def batch_loss(idx, cache):
        lam = objective.lam
        if lam is None:
            lam = lambda_schedule(len(history.lam), max_iter, cfg.beta)
        nbr_preds = no_neighbors
        if bank is not None:
            bank.update(idx, cache.features, cache.P)
            _, _, nbr_preds = bank.knn_batch(cache.features, cfg.k, exclude_ids=idx)
        res = objective.loss(cache.P, nbr_preds, lam)
        history.loss.append(res.value)
        history.lam.append(lam)
        return res

    for epoch in _sgd_epochs(model, target.X, cfg.epochs, cfg.batch_size, cfg.lr, cfg.momentum,
                             cfg.seed, cfg.objective, batch_loss):
        try:
            _record_epoch(history, model, target, bank, cfg)
        except ValueError as exc:
            raise _step_error(exc, f"{cfg.objective}, epoch {epoch}") from exc
    return model, history


def _record_epoch(history, model, target, bank, cfg) -> None:
    """Append one epoch's ``build_report``, its ratios over ``bank`` if any."""
    report = build_report(model, target.X, target.labels, target.num_classes, cfg.snd_tau, bank)
    ratios = report["ratios"] or {"same": None, "correct": None}
    history.acc.append(report["accuracy"])
    history.snd.append(report["snd"])
    history.ratio_same.append(ratios["same"])
    history.ratio_correct.append(ratios["correct"])


def sweep_beta(model: MlpModel, target: Dataset, betas, base_cfg: AdaptConfig,
               seeds) -> tuple[list, list]:
    """Adapt from the same starting model for every (beta, seed) pair.

    Returns (runs, table): one run row per pair with final SND and
    accuracy, and one table row per beta with seed-averaged values, the
    argmax-SND row flagged (ties go to the smaller beta). Every run's
    config is checked, and ``epochs >= 1`` required, before the first run.
    """
    betas = list(betas)
    seeds = list(seeds)
    if not betas:
        raise ConfigError("betas must be nonempty")
    if not seeds:
        raise ConfigError("seeds must be nonempty")
    as_index(base_cfg.epochs, "epochs", 1)   # a run is scored at the end of an epoch
    cfgs = [replace(base_cfg, beta=beta, seed=seed, objective="AaD")
            for seed in seeds for beta in betas]
    for cfg in cfgs:
        cfg.validate()
    runs = []
    for cfg in cfgs:
        _, hist = adapt(model.clone(), target, cfg)
        runs.append({"beta": cfg.beta, "seed": cfg.seed,
                     "snd": hist.snd[-1], "acc": hist.acc[-1]})
    table = []
    for beta in betas:
        rows = [r for r in runs if r["beta"] == float(beta)]
        accs = [r["acc"] for r in rows if r["acc"] is not None]
        table.append({
            "beta": float(beta),
            "snd": float(np.mean([r["snd"] for r in rows])),
            "acc": float(np.mean(accs)) if accs else None,
            "selected": False,
        })
    best = max(range(len(table)), key=lambda i: (table[i]["snd"], -table[i]["beta"]))
    table[best]["selected"] = True
    return runs, table


def save_sweep_csv(path, table) -> None:
    lines = ["beta,snd,acc,selected"]
    for row in table:
        acc = "" if row["acc"] is None else repr(row["acc"])
        lines.append(f"{repr(row['beta'])},{repr(row['snd'])},{acc},{int(row['selected'])}")
    Path(path).write_text("\n".join(lines) + "\n")
