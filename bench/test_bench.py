"""Self-tests of the benchmark: every check must reject a deliberately
corrupted output, and every workload must run at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import sfdalab.cli  # noqa: E402
import spans  # noqa: E402
from sfdalab import (AdaptConfig, MemoryBank, MoonsConfig, adapt, init_model,  # noqa: E402
                     make_twin_moons, orchestrator, pretrain_source, rotate_dataset)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def toy_run():
    src = make_twin_moons(MoonsConfig(n_per_class=60, seed=0))
    tgt = rotate_dataset(src, 30.0)
    model, _ = pretrain_source(init_model(2, 15, 15, 2, seed=0), src, epochs=20, lr=0.01)
    cfg = AdaptConfig(epochs=3, batch_size=16, seed=0)
    model, hist = adapt(model, tgt, cfg)
    return model.params(), hist.to_dict(), tgt, cfg


def run_errors(run, history=None, objective=None, params=None):
    p, h, tgt, cfg = run
    return checks.check_adapt_run(params or p, history or h, tgt.X, tgt.labels,
                                  objective or cfg.objective, cfg.epochs, cfg.batch_size,
                                  cfg.snd_tau)


def test_real_run_passes(toy_run):
    assert run_errors(toy_run) == []


@pytest.mark.parametrize("corrupt", [
    lambda h: h["snd"].__setitem__(-1, h["snd"][-1] + 1e-6),
    lambda h: h["acc"].__setitem__(-1, h["acc"][-1] - 1 / 120),
    lambda h: h["loss"].pop(),
    lambda h: h["loss"].__setitem__(5, math.nan),
    lambda h: h["lambda"].__setitem__(0, 0.999),
    lambda h: h["lambda"].__setitem__(7, h["lambda"][6] + 1e-9),
    lambda h: h["snd"].__setitem__(0, math.log(119) + 1e-9),
    lambda h: h["snd"].__setitem__(1, 0.0),
    lambda h: h["snd"].pop(0),
], ids=["snd+1e-6", "acc-1", "loss-missing", "loss-nan", "lambda-start",
        "lambda-rises", "snd-above-log", "snd-zero", "snd-epoch-missing"])
def test_corrupt_history_fails(toy_run, corrupt):
    h = copy.deepcopy(toy_run[1])
    corrupt(h)
    assert run_errors(toy_run, history=h)


def test_corrupt_params_fail(toy_run):
    p = {k: v.copy() for k, v in toy_run[0].items()}
    p["bc"][0] += 1.0
    assert run_errors(toy_run, params=p)


def test_lambda_rules_per_objective(toy_run):
    h = copy.deepcopy(toy_run[1])
    assert run_errors(toy_run, history=h, objective="AttractOnly")
    assert run_errors(toy_run, history=h, objective="AaDNoDecay")
    h["lambda"] = [0.0] * len(h["lambda"])
    assert run_errors(toy_run, history=h, objective="AttractOnly") == []
    h["lambda"][3] = 1e-12
    assert run_errors(toy_run, history=h, objective="AttractOnly")
    h["lambda"] = [1.0] * len(h["lambda"])
    assert run_errors(toy_run, history=h, objective="AaDNoDecay") == []


def test_snd_matches_program():
    from sfdalab import snd_score
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(3), size=50)
    assert abs(checks.snd(P, 0.05) - snd_score(P, 0.05)) <= checks.SND_RTOL * snd_score(P, 0.05)


def knn_sample(mode):
    rng = np.random.default_rng(1)
    n, cap = 40, (40 if mode == "full" else 24)
    bank = MemoryBank(mode, cap, 3, 2)
    P = rng.dirichlet(np.ones(2), size=n)
    bank.update(np.arange(n), rng.normal(size=(n, 3)), P)
    if mode == "ring":   # rewrite some ids, so the ring holds repeated ids
        again = rng.permutation(n)[:10]
        bank.update(again, rng.normal(size=(10, 3)), P[again])
    q_ids = rng.permutation(n)[:8]
    queries = rng.normal(size=(8, 3))
    got = bank.knn_batch(queries, 4, exclude_ids=q_ids)[0]
    return (bank.sample_ids.copy(), bank.features.copy(), queries, 4, q_ids, got)


@pytest.mark.parametrize("mode", ["full", "ring"])
def test_knn_oracle(mode):
    sample = knn_sample(mode)
    assert checks.check_knn_sample(sample) == []
    got = sample[5].copy()
    got[2, [1, 2]] = got[2, [2, 1]]          # one pair of ids swapped
    assert checks.check_knn_sample(sample[:5] + (got,))
    got = sample[5].copy()
    got[0, 3] = sample[4][0]                 # the query's own id
    assert checks.check_knn_sample(sample[:5] + (got,))
    assert checks.own_id_rows(got, sample[4]) == 1


def test_dup_rows():
    assert checks.dup_rows(np.array([[1, 2, 3], [4, 5, 6]])) == 0
    assert checks.dup_rows(np.array([[1, 2, 1], [4, 5, 6], [7, 7, 7]])) == 2


CSV = "beta,snd,acc,selected\n0.0,5.1,0.9,0\n1.0,5.3,0.95,1\n2.0,5.3,0.96,0\n5.0,5.2,0.9,0\n"
RUNS = [(5.1, 0.9), (5.3, 0.95), (5.3, 0.96), (5.2, 0.9)]
BETAS = [0.0, 1.0, 2.0, 5.0]


def test_sweep_csv_checks():
    assert checks.check_sweep_csv(CSV, BETAS, RUNS) == []
    wrong_flag = CSV.replace("0.95,1", "0.95,0").replace("0.96,0", "0.96,1")
    assert checks.check_sweep_csv(wrong_flag, BETAS, RUNS)       # tie must go to beta 1
    assert checks.check_sweep_csv(CSV.replace("0.9,0\n1.0", "0.9,1\n1.0"), BETAS, RUNS)
    assert checks.check_sweep_csv(CSV.rsplit("5.0", 1)[0], BETAS, RUNS)
    assert checks.check_sweep_csv(CSV.replace("5.2,", "5.2000001,"), BETAS, RUNS)


def test_program_sweep_csv_passes(tmp_path):
    table = [{"beta": b, "snd": s, "acc": a, "selected": i == 1}
             for i, (b, (s, a)) in enumerate(zip(BETAS, RUNS))]
    orchestrator.save_sweep_csv(tmp_path / "s.csv", table)
    assert checks.check_sweep_csv((tmp_path / "s.csv").read_text(), BETAS, RUNS) == []


def test_tracer_restores_originals():
    import sfdalab.bank
    import sfdalab.model
    before = (orchestrator.forward, sfdalab.model.forward, sfdalab.bank.MemoryBank.knn_batch)
    with spans.Tracer():
        assert orchestrator.forward is not before[0]
        assert orchestrator.forward is sfdalab.model.forward
    assert (orchestrator.forward, sfdalab.model.forward,
            sfdalab.bank.MemoryBank.knn_batch) == before


@pytest.mark.parametrize("corrupt", ["swap", "own-id"])
def test_traced_round_catches_bad_knn(tmp_path, monkeypatch, corrupt):
    good = MemoryBank.knn_batch

    def bad(bank, queries, k, exclude_ids=None):
        ids, feats, preds = good(bank, queries, k, exclude_ids)
        ids = ids.copy()
        if corrupt == "swap":
            ids[0, [0, 1]] = ids[0, [1, 0]]
        else:
            ids[0, 0] = exclude_ids[0]
        return ids, feats, preds

    wl = run.ToyProtocol(sfdalab, True, str(tmp_path))
    st = wl.setup(0)
    assert all(not op.errors for op in run.run_round(wl, st).ops)
    monkeypatch.setattr(MemoryBank, "knn_batch", bad)
    tracer = spans.Tracer()
    ops = run.run_round(wl, st, tracer).ops
    # the oracle samples the first call; the own-id scan sees every call
    assert ops[0].errors
    # each call's checks are a span of their own, outside the caller's self time
    assert tracer.count["trace.checks"] == tracer.count["bank.MemoryBank.knn_batch"] > 0
    assert all(op.errors for op in ops) == (corrupt == "own-id")


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    out = bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    expected_failures = result["attempted"] // 3 if workload == "ring-large-target" else 0
    assert result["failed"] == expected_failures


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench(["--workload", "toy-protocol", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
