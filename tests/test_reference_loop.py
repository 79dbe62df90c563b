"""``pretrain_source`` and ``adapt`` against literal reference loops.

The references keep no ``MemoryBank``: every write goes to one log, a
ring holds the ids of its last ``capacity`` entries, and neighbors are
ranked by brute force in (-cosine, id) order, with the bank's arithmetic
(unit rows from ``numerics.unit_rows`` per write, zero-norm rows at -2).
Each step uses the objective table's loss and the model's ``backward``
and ``sgd_step``, so any reordering of the library's loop shows up as
different bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdalab import orchestrator
from sfdalab.datasets import MoonsConfig, make_twin_moons, rotate_dataset
from sfdalab.model import backward, forward, init_model, sgd_step
from sfdalab.numerics import unit_rows
from sfdalab.objectives import cross_entropy_loss, lambda_schedule
from sfdalab.orchestrator import OBJECTIVES, AdaptConfig, adapt, pretrain_source


def batches(rng, n, bs):
    perm = rng.permutation(n)
    return [perm[b * bs:(b + 1) * bs] for b in range(n // bs)]


def reference_pretrain(model, source, epochs, lr, momentum, seed, batch_size):
    model.reset_velocity()
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(epochs):
        for idx in batches(rng, len(source), min(batch_size, len(source))):
            cache = forward(model, source.X[idx])
            res = cross_entropy_loss(cache.P, source.labels[idx])
            sgd_step(model, backward(model, cache, res.grad), lr, momentum)
    return model


def reference_adapt(model, target, cfg):
    obj = orchestrator._TABLE[cfg.objective]
    n, bs, k = len(target), cfg.batch_size, cfg.k
    cache = forward(model, target.X)
    log = list(zip(range(n), *unit_rows(cache.features), cache.P))   # (id, unit, zero, P)
    losses, lams = [], []
    model.reset_velocity()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for _ in range(cfg.epochs):
        for idx in batches(rng, n, bs):
            cache = forward(model, target.X[idx])
            log += zip(idx, *unit_rows(cache.features), cache.P)
            nbr = np.empty((bs, 0, model.n_classes))
            if obj.needs_neighbors:
                window = log if cfg.bank_mode == "full" else log[-cfg.ring_capacity:]
                held = sorted({row[0]: row for row in window}.values(), key=lambda r: r[0])
                ids, unit, zero, preds = (np.array(col) for col in zip(*held))
                query, zero_query = unit_rows(cache.features)
                sims = query @ unit.T
                sims[:, zero] = -2.0
                sims[zero_query] = -2.0
                sims[idx[:, None] == ids] = -np.inf          # never the query itself
                nbr = preds[np.argsort(-sims, axis=1, kind="stable")[:, :k]]
            lam = obj.lam
            if lam is None:
                lam = lambda_schedule(len(lams), max(cfg.epochs * (n // bs), 1), cfg.beta)
            res = obj.loss(cache.P, nbr, lam)
            sgd_step(model, backward(model, cache, res.grad), cfg.lr, cfg.momentum)
            losses.append(res.value)
            lams.append(lam)
    return model, losses, lams


@st.composite
def loops(draw, objective, mode):
    n_per_class = draw(st.integers(8, 24))
    k = draw(st.integers(1, 4))
    batch_size = draw(st.integers(k + 2, 2 * n_per_class))
    cfg = AdaptConfig(
        k=k, batch_size=batch_size, epochs=draw(st.integers(1, 3)),
        beta=draw(st.sampled_from([0.0, 0.25, 1.0, 2.5])),
        lr=draw(st.sampled_from([0.001, 0.01, 0.05])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        bank_mode=mode, ring_capacity=draw(st.integers(k + 1, 3 * n_per_class)),
        seed=draw(st.integers(0, 2**16)), objective=objective)
    return n_per_class, draw(st.integers(0, 2**16)), cfg


@pytest.mark.parametrize("mode", ["full", "ring"])
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pretrain_and_adapt_equal_the_reference_loops(objective, mode, data):
    n_per_class, seed, cfg = data.draw(loops(objective, mode))
    source = make_twin_moons(MoonsConfig(n_per_class=n_per_class, noise_sigma=0.1, seed=seed))
    model = init_model(2, 6, 5, 2, seed=seed)
    # a run starts from the momentum it resets
    model.velocity[:] = np.random.default_rng(seed).normal(size=model.velocity.size)
    ref = reference_pretrain(model.clone(), source, 3, 0.05, 0.9, seed, 16)
    model, _ = pretrain_source(model, source, 3, 0.05, momentum=0.9, seed=seed, batch_size=16)
    assert model.theta.tobytes() == ref.theta.tobytes()

    target = rotate_dataset(source, 30.0)
    ref, ref_loss, ref_lam = reference_adapt(model.clone(), target, cfg)
    model, hist = adapt(model, target, cfg)
    assert model.theta.tobytes() == ref.theta.tobytes()
    assert (hist.loss, hist.lam) == (ref_loss, ref_lam)
