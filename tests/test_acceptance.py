"""Acceptance gate: nine numbered criteria, one test (and one pass/fail
line under ``pytest -v``) each.

Criteria 4, 7 and 8 share one set of toy twin-moon runs built in a
module fixture; its hyperparameters live in TOY below. Criterion 7 is
diagnostic: its (beta, SND, accuracy) table is printed whether it passes
or fails.
"""

import time

import numpy as np
import pytest

from sfdalab.bank import MemoryBank
from sfdalab.datasets import MoonsConfig, make_twin_moons, rotate_dataset
from sfdalab.metrics import evaluate_model, open_set_scores
from sfdalab.model import (
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from sfdalab.numerics import finite_diff_grad, max_relative_error
from sfdalab.objectives import (
    attract_disperse_loss,
    bnm_loss,
    cross_entropy_loss,
    exact_aad_nll,
    infonce_loss,
    jensen_upper_bound,
    lambda_schedule,
    mi_loss,
    nc_loss,
)
from sfdalab.orchestrator import AdaptConfig, adapt, pretrain_source

SEEDS = (0, 1, 2, 3, 4)

# toy twin-moons protocol: 300 points per class, sigma 0.1, 30 degree shift
MOONS_N = 300
MOONS_SIGMA = 0.1
ROTATION_DEG = 30.0
PRETRAIN = dict(epochs=200, lr=0.01, momentum=0.9, batch_size=64)

# adaptation hyperparameters used for criteria 4, 7 and 8
TOY = dict(k=4, batch_size=64, epochs=300, lr=0.005, momentum=0.7)
TOY_BETA = 0.25
SWEEP_BETAS = (0.0, 1.0, 2.0, 5.0)


def _line(n, text):
    print(f"[criterion {n}] {text}")


@pytest.fixture(scope="module")
def toy_runs():
    """Pretrained source models plus AaD / AttractOnly / AaDNoDecay
    adaptation runs for every seed, with the wall time of the whole
    criterion-4 protocol."""
    out = {"pre": {}, "runs": {}, "elapsed": None}
    t0 = time.perf_counter()
    for seed in SEEDS:
        src = make_twin_moons(MoonsConfig(n_per_class=MOONS_N, noise_sigma=MOONS_SIGMA,
                                          seed=seed))
        tgt = rotate_dataset(src, ROTATION_DEG)
        model = init_model(2, 15, 15, 2, seed=seed)
        model, report = pretrain_source(model, src, seed=seed, **PRETRAIN)
        before = evaluate_model(model, tgt.X, tgt.labels, 2).accuracy
        out["pre"][seed] = {"model": model, "target": tgt,
                            "src_acc": report.accuracy, "before": before}
    for objective, beta in (("AaD", TOY_BETA), ("AttractOnly", 0.0), ("AaDNoDecay", 0.0)):
        for seed in SEEDS:
            entry = out["pre"][seed]
            cfg = AdaptConfig(beta=beta, seed=seed, objective=objective, **TOY)
            _, hist = adapt(entry["model"].clone(), entry["target"], cfg)
            out["runs"][(objective, seed)] = hist
    out["elapsed"] = time.perf_counter() - t0
    return out


def random_simplex(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def test_criterion_1_gradient_fidelity():
    """Analytic gradients match central finite differences (h=1e-5) at
    max relative error 1e-4 over 100 seeded instances per objective."""
    t0 = time.perf_counter()
    worst = {}

    def check(name, seed, value_fn, x0, grad):
        fd = finite_diff_grad(value_fn, x0.ravel(), h=1e-5)
        err = max_relative_error(grad.ravel(), fd, floor=1e-8)
        worst[name] = max(worst.get(name, 0.0), err)
        assert err <= 1e-4, f"{name} seed {seed}: rel err {err:.3e}"

    for seed in range(100):
        rng = np.random.default_rng(seed)
        bs = int(rng.integers(3, 8))
        c = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        P = random_simplex(rng, bs, c)
        nbr = rng.dirichlet(np.ones(c), size=(bs, k))
        lam = float(rng.uniform(0.0, 2.0))
        res = attract_disperse_loss(P, nbr, lam)
        check("AaD", seed, lambda v: attract_disperse_loss(v.reshape(bs, c), nbr, lam).value,
              P, res.grad)

        res = mi_loss(P)
        check("MI", seed, lambda v: mi_loss(v.reshape(bs, c)).value, P, res.grad)

        res = bnm_loss(P, variant="fnorm")
        check("BNM-FNorm", seed, lambda v: bnm_loss(v.reshape(bs, c), "fnorm").value,
              P, res.grad)

        W = rng.uniform(0.5, 2.0, size=(bs, k))
        res = nc_loss(P, nbr, weights=W)
        check("NC", seed, lambda v: nc_loss(v.reshape(bs, c), nbr, weights=W).value,
              P, res.grad)

        d = int(rng.integers(2, 5))
        m = int(rng.integers(0, 5))
        mk = lambda rows: rows / np.linalg.norm(rows, axis=1, keepdims=True)
        A, Pos = mk(rng.normal(size=(bs, d))), mk(rng.normal(size=(bs, d)))
        Neg = mk(rng.normal(size=(m, d))) if m else np.zeros((0, d))
        tau = float(rng.uniform(0.2, 1.5))
        res = infonce_loss(A, Pos, Neg, tau)
        check("InfoNCE", seed, lambda v: infonce_loss(v.reshape(bs, d), Pos, Neg, tau).value,
              A, res.grad)

        y = rng.integers(0, c, size=bs)
        res = cross_entropy_loss(P, y)
        check("CE", seed, lambda v: cross_entropy_loss(v.reshape(bs, c), y).value,
              P, res.grad)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient fidelity took {elapsed:.1f}s, budget 30s"
    summary = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _line(1, f"PASS worst rel errs: {summary}; {elapsed:.1f}s")


def test_criterion_2_jensen_bound_dominance():
    """jensen_upper_bound >= exact_aad_nll (within 1e-9) on 1000 seeded
    instances; equality on all-identical-prediction instances."""
    t0 = time.perf_counter()
    min_gap = np.inf
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(4, 65))
        c = int(rng.integers(2, 9))
        if seed % 10 == 0:
            A = np.tile(random_simplex(rng, 1, c), (n, 1))
        else:
            A = random_simplex(rng, n, c)
        others = rng.permutation(n - 1) + 1
        n_close = int(rng.integers(1, max(2, (n - 1) // 2)))
        close, background = others[:n_close], others[n_close:]
        if len(close) >= len(background):
            close, background = others[:1], others[1:]
        exact = exact_aad_nll(0, A, close, background)
        bound = jensen_upper_bound(0, A, close, background)
        gap = bound - exact
        min_gap = min(min_gap, gap)
        assert gap >= -1e-9, f"seed {seed}: bound below exact by {-gap:.3e}"
        if seed % 10 == 0:
            assert abs(gap) <= 1e-9, f"seed {seed}: equality violated, gap {gap:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"bound sweep took {elapsed:.1f}s, budget 10s"
    _line(2, f"PASS min gap {min_gap:.3e} over 1000 instances; {elapsed:.1f}s")


def _oracle_knn(bank, queries, k, exclude_ids):
    """Independent brute force: full stable sort on (-similarity, id),
    where a similarity is the product of two rows each divided by its
    own norm."""
    ids, feats, _ = bank.snapshot()
    qn = np.linalg.norm(queries, axis=1)
    fn = np.linalg.norm(feats, axis=1)
    sims = ((queries / np.where(qn > 0, qn, 1.0)[:, None])
            @ (feats / np.where(fn > 0, fn, 1.0)[:, None]).T)
    sims[:, fn == 0.0] = -np.inf
    sims[qn == 0.0, :] = -np.inf
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for r in range(queries.shape[0]):
        keep = ids != exclude_ids[r]
        cand_ids = ids[keep]
        order = np.lexsort((cand_ids, -sims[r, keep]))
        out[r] = cand_ids[order[:k]]
    return out


def test_criterion_3_knn_oracle_and_ring_retention():
    """bank KNN equals a brute-force stable sort on 200 seeded banks;
    ring mode retains exactly the most recent `capacity` ids across 50
    seeded insert sequences."""
    for trial in range(200):
        rng = np.random.default_rng(20_000 + trial)
        n = int(rng.integers(8, 513))
        h = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(11, n - 1)))
        bank = MemoryBank(mode="full", capacity=n, feat_dim=h, n_classes=3)
        feats = rng.normal(size=(n, h))
        if trial % 5 == 0:
            feats = np.round(feats * 2) / 2  # coarse values force ties
        if trial % 7 == 0:
            feats[rng.integers(0, n)] = 0.0  # zero-norm row
        bank.update(np.arange(n), feats, random_simplex(rng, n, 3))
        q_rows = rng.integers(0, n, size=6)
        queries = feats[q_rows]
        got, _, _ = bank.knn_batch(queries, k, exclude_ids=q_rows)
        want = _oracle_knn(bank, queries, k, q_rows)
        assert np.array_equal(got, want), f"trial {trial}: KNN mismatch"

    for trial in range(50):
        rng = np.random.default_rng(30_000 + trial)
        capacity = int(rng.integers(4, 33))
        bank = MemoryBank(mode="ring", capacity=capacity, feat_dim=3, n_classes=2)
        next_id = 0
        for _ in range(int(rng.integers(1, 12))):
            m = int(rng.integers(1, capacity + 5))
            ids = np.arange(next_id, next_id + m)
            next_id += m
            bank.update(ids, rng.normal(size=(m, 3)), random_simplex(rng, m, 2))
        kept, _, _ = bank.snapshot()
        expect = np.arange(max(0, next_id - capacity), next_id)
        assert np.array_equal(np.sort(kept), expect), f"ring trial {trial}"
    _line(3, "PASS 200 KNN banks + 50 ring sequences")


def test_criterion_4_toy_reproduction(toy_runs):
    """30-degree twin-moons transfer: high source accuracy, AaD median
    >= 0.95, beats source-only 5/5, and >= both ablations in >= 4/5
    seeds, all inside a 2 minute budget."""
    for seed in SEEDS:
        src_acc = toy_runs["pre"][seed]["src_acc"]
        assert src_acc >= 0.99, f"seed {seed}: source accuracy {src_acc:.4f} < 0.99"

    aad = {s: toy_runs["runs"][("AaD", s)].acc[-1] for s in SEEDS}
    att = {s: toy_runs["runs"][("AttractOnly", s)].acc[-1] for s in SEEDS}
    nod = {s: toy_runs["runs"][("AaDNoDecay", s)].acc[-1] for s in SEEDS}
    before = {s: toy_runs["pre"][s]["before"] for s in SEEDS}

    median = float(np.median(list(aad.values())))
    beats = sum(aad[s] > before[s] for s in SEEDS)
    dominates = sum(aad[s] >= att[s] and aad[s] >= nod[s] for s in SEEDS)
    detail = "  ".join(
        f"s{s}: aad={aad[s]:.4f} att={att[s]:.4f} nod={nod[s]:.4f} src-only={before[s]:.4f}"
        for s in SEEDS)

    assert median >= 0.95, f"(a) AaD median {median:.4f} < 0.95\n{detail}"
    assert beats == 5, f"(b) AaD beats source-only in only {beats}/5 seeds\n{detail}"
    assert dominates >= 4, \
        f"(c) AaD >= both ablations in only {dominates}/5 seeds\n{detail}"
    elapsed = toy_runs["elapsed"]
    assert elapsed < 120.0, f"toy protocol took {elapsed:.1f}s, budget 120s"
    _line(4, f"PASS median {median:.4f}, beats 5/5, dominates {dominates}/5, "
             f"{elapsed:.1f}s\n{detail}")


def test_criterion_5_open_set_arithmetic():
    """Published HOS numbers reproduced within 0.05; harmonic mean never
    exceeds the arithmetic mean."""
    hos1 = open_set_scores(67.0, 28.0, 12).hos
    hos2 = open_set_scores(81.8, 26.3, 12).hos
    assert abs(hos1 - 39.5) <= 0.05, f"HOS(67, 28) = {hos1:.3f}, want 39.5 +- 0.05"
    assert abs(hos2 - 39.8) <= 0.05, f"HOS(81.8, 26.3) = {hos2:.3f}, want 39.8 +- 0.05"
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = rng.uniform(0.0, 100.0, size=2)
        s = open_set_scores(float(a), float(b), 10)
        assert s.hos <= (a + b) / 2 + 1e-9
    _line(5, f"PASS HOS {hos1:.3f} / {hos2:.3f}; 1000 harmonic<=arithmetic pairs")


def test_criterion_6_lambda_schedule():
    """Exact endpoints and monotone decay on a 10^4-point grid."""
    for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert lambda_schedule(0, 1000, beta) == 1.0
    assert all(lambda_schedule(i, 777, 0.0) == 1.0 for i in range(0, 778, 7))
    assert abs(lambda_schedule(10_000, 10_000, 1.0) - 1.0 / 11.0) <= 1e-12
    grid = [lambda_schedule(i, 9_999, 1.7) for i in range(10_000)]
    assert all(a >= b for a, b in zip(grid, grid[1:])), "schedule not non-increasing"
    _line(6, "PASS endpoints exact, monotone over 10^4 grid")


@pytest.fixture(scope="module")
def snd_sweep(toy_runs):
    """Per-seed beta sweep used by criterion 7: final SND and accuracy
    for each beta in SWEEP_BETAS, from the same pretrained models. AaD at
    beta = 0 is AaDNoDecay bit for bit (test_no_decay_equals_beta_zero),
    so those runs are taken from toy_runs."""
    table = {}
    for seed in SEEDS:
        entry = toy_runs["pre"][seed]
        rows = []
        for beta in SWEEP_BETAS:
            if beta == 0.0:
                hist = toy_runs["runs"][("AaDNoDecay", seed)]
            else:
                cfg = AdaptConfig(beta=beta, seed=seed, objective="AaD", **TOY)
                _, hist = adapt(entry["model"].clone(), entry["target"], cfg)
            rows.append({"beta": beta, "snd": hist.snd[-1], "acc": hist.acc[-1]})
        table[seed] = rows
    return table


def _format_sweep(table):
    lines = ["seed  beta   SND       accuracy"]
    for seed, rows in table.items():
        for r in rows:
            lines.append(f"{seed:>4}  {r['beta']:>4g}  {r['snd']:.6f}  {r['acc']:.4f}")
    return "\n".join(lines)


def test_criterion_7_snd_selects_beta(snd_sweep):
    """Unsupervised selection: the argmax-SND beta ranks in the top two
    by true accuracy in at least 3 of 5 seed groups. Diagnostic: the
    full table is printed regardless of the outcome."""
    text = _format_sweep(snd_sweep)
    print(text)
    hits = 0
    for seed, rows in snd_sweep.items():
        by_snd = max(rows, key=lambda r: r["snd"])
        top2_acc = sorted((r["acc"] for r in rows), reverse=True)[:2]
        if by_snd["acc"] >= top2_acc[-1]:
            hits += 1
    assert hits >= 3, (
        f"SND picked a top-2-accuracy beta in only {hits}/5 seed groups\n{text}")
    _line(7, f"PASS SND in accuracy top-2 for {hits}/5 seed groups")


def test_criterion_8_agreement_ratio_trend(toy_runs):
    """Neighborhood agreement does not degrade: final same-prediction
    ratio >= the epoch-1 ratio in every toy AaD run that reached the
    criterion-4a accuracy bar."""
    checked = 0
    for seed in SEEDS:
        hist = toy_runs["runs"][("AaD", seed)]
        if hist.acc[-1] < 0.95:
            continue
        checked += 1
        first, last = hist.ratio_same[0], hist.ratio_same[-1]
        assert last >= first, (
            f"seed {seed}: ratio_same fell from {first:.4f} to {last:.4f}")
    assert checked > 0, "no run passed criterion 4(a), trend unverifiable"
    _line(8, f"PASS ratio_same non-decreasing in {checked} qualifying runs")


def test_criterion_9_determinism(toy_runs, tmp_path):
    """Identical config and seed give bit-identical history JSON and
    checkpoint files."""
    entry = toy_runs["pre"][0]
    cfg = AdaptConfig(beta=TOY_BETA, seed=0, objective="AaD",
                      **{**TOY, "epochs": 20})
    paths = []
    jsons = []
    for run in (1, 2):
        model, hist = adapt(entry["model"].clone(), entry["target"], cfg)
        p = tmp_path / f"ckpt_{run}.json"
        save_checkpoint(model, p)
        hist_p = tmp_path / f"hist_{run}.json"
        hist.save(hist_p)
        paths.append(p)
        jsons.append(hist_p)
    ckpt_a, ckpt_b = paths[0].read_bytes(), paths[1].read_bytes()
    hist_a, hist_b = jsons[0].read_bytes(), jsons[1].read_bytes()
    assert hist_a == hist_b, "history JSON differs between identical runs"
    assert ckpt_a == ckpt_b, "checkpoint differs between identical runs"
    m1, m2 = load_checkpoint(paths[0]), load_checkpoint(paths[1])
    assert np.array_equal(m1.theta, m2.theta)
    _line(9, "PASS bit-identical history and checkpoints")
