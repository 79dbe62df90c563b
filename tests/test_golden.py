"""Golden hashes: SHA-256 of the history JSON and the checkpoint bytes of
short adaptation runs on the seed-0 toy protocol: every objective with a
full bank, and AaD with a 128-slot ring.

These pin the exact floating-point behaviour of the adaptation loop, so a
refactor or speed-up that claims "same results" can prove it. The values
were recorded with numpy 2.4 on x86-64 (OpenBLAS 0.3.31); another BLAS
build may round a matmul differently and legitimately change them. A
deliberate behaviour change must re-record them and say why.
"""

import hashlib

import pytest

from sfdalab.datasets import MoonsConfig, make_twin_moons, rotate_dataset
from sfdalab.model import init_model, save_checkpoint
from sfdalab.orchestrator import AdaptConfig, adapt, pretrain_source

# same protocol as the acceptance gate's toy runs, cut to 20 epochs
PRETRAIN = dict(epochs=200, lr=0.01, momentum=0.9, batch_size=64)
TOY = dict(k=4, batch_size=64, epochs=20, lr=0.005, momentum=0.7)

# the bank layouts the cases run with
BANKS = {"full": dict(bank_mode="full"), "ring128": dict(bank_mode="ring", ring_capacity=128)}

GOLDEN = {
    # (objective, beta, bank): (history sha256, checkpoint sha256)
    ("AaD", 0.25, "full"): (
        "a2e33cbbbb80b9036824ea35803e9de182e4813baa5d08f9e7c8a64df1e1dfc6",
        "2d8078d8b266e6d5db867661517724ba06cfce3031c9ecccc5f8553aee3b354f"),
    ("AttractOnly", 0.0, "full"): (
        "9cc7a26e7b7eb9495487a0fe99e5f0246f5490938ce8af6e8ced757003798efb",
        "33ad4c9f427e43d9128c04b1f586fa68da08f570f40ca91353604b60c8621057"),
    ("AaDNoDecay", 0.0, "full"): (
        "9c69b183d513d6f54260343459093fd91e3b2aee54686212724daa8fe612775c",
        "efb906a87ef74462f64b5e60a3c99d055f79ebdfb54283b8cacc3ed091615b5b"),
    ("NC", 0.25, "full"): (
        "a87011c39c551abfa0b8817804717c649882e2540e31ec682fba9c69ee1e7965",
        "0d36209efd9065ca564d02198790c9a3d38deec50c4a14db4df9c7c7cf8107e6"),
    ("DisperseOnly", 0.25, "full"): (
        "549020f6c1b012c10ab2c7f2394f1b09bffbc6bbd63091b9791140296aac0be2",
        "ed989f03bbf107a55c866b13a1ac8d05cd0eced5d683f746bf8c410a873648a5"),
    ("MI", 0.25, "full"): (
        "dea0bb36fac59ca3ffdd746db17449b53f00823a131d431d2c46eb1d3b18495f",
        "da07a85c42f0079b8da3b1844ee113472bb174a411aa724019d5cf3db07dadfa"),
    ("BNM", 0.25, "full"): (
        "4a04d88c9abfd300a8f624251647079cd16c43a40cab338ac36b14b9ee5b6e40",
        "ab503a4d29f670149c890df156c99582f4c2df69a413ada4d265e3149e96c333"),
    ("AaD", 0.25, "ring128"): (
        "1a9e31c466d133693e9a0be1136171d962fb6e9a617b487ea4b2d3db943e74dd",
        "ab3d28bfdade32898a5d676cd6ca094c74317a324d617a49fc182e1c0d6c8d49"),
}


def cases(bank):
    return [(objective, beta) for objective, beta, b in GOLDEN if b == bank]


@pytest.fixture(scope="module")
def seed0_pretrained():
    src = make_twin_moons(MoonsConfig(n_per_class=300, noise_sigma=0.1, seed=0))
    tgt = rotate_dataset(src, 30.0)
    model, _ = pretrain_source(init_model(2, 15, 15, 2, seed=0), src, seed=0, **PRETRAIN)
    return model, tgt


def run_hashes(model, target, objective, beta, bank, tmp_path):
    cfg = AdaptConfig(beta=beta, seed=0, objective=objective, **BANKS[bank], **TOY)
    adapted, hist = adapt(model.clone(), target, cfg)
    hist_p, ckpt_p = tmp_path / "hist.json", tmp_path / "ckpt.json"
    hist.save(hist_p)
    save_checkpoint(adapted, ckpt_p)
    return (hashlib.sha256(hist_p.read_bytes()).hexdigest(),
            hashlib.sha256(ckpt_p.read_bytes()).hexdigest())


def check_hashes(seed0_pretrained, tmp_path, objective, beta, bank):
    model, target = seed0_pretrained
    hist_h, ckpt_h = run_hashes(model, target, objective, beta, bank, tmp_path)
    want_hist, want_ckpt = GOLDEN[(objective, beta, bank)]
    assert hist_h == want_hist, f"{objective} ({bank}): history JSON hash changed"
    assert ckpt_h == want_ckpt, f"{objective} ({bank}): checkpoint hash changed"


@pytest.mark.parametrize("objective,beta", cases("full"))
def test_full_mode_golden_hashes(seed0_pretrained, tmp_path, objective, beta):
    check_hashes(seed0_pretrained, tmp_path, objective, beta, "full")


@pytest.mark.parametrize("objective,beta", cases("ring128"))
def test_ring_mode_golden_hashes(seed0_pretrained, tmp_path, objective, beta):
    check_hashes(seed0_pretrained, tmp_path, objective, beta, "ring128")
