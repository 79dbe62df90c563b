"""Golden hashes: SHA-256 of the history JSON and the checkpoint bytes of
short adaptation runs on the seed-0 toy protocol: every objective with a
full bank, and AaD, NC, DisperseOnly and MI with a 128-slot ring.
DisperseOnly and MI retrieve no neighbors and keep no bank, so their
ring hashes equal their full-bank ones.

These pin the exact floating-point behaviour of the adaptation loop, so a
refactor or speed-up that claims "same results" can prove it. The values
were recorded with numpy 2.4 on x86-64 (OpenBLAS 0.3.31); another BLAS
build may round a matmul differently and legitimately change them. A
deliberate behaviour change must re-record them and say why:

    PYTHONPATH=src python tests/test_golden.py

prints the hashes of the current code in the literal form of ``GOLDEN``,
and marks each case whose history or checkpoint hash differs from the
recorded one (``# history moved``, ``# checkpoint moved``).
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from sfdalab import orchestrator
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
        "0e3a485d76d65d462507a9cb59a05debc277fee628b6bde464b1c744f0f8f45b",
        "2d8078d8b266e6d5db867661517724ba06cfce3031c9ecccc5f8553aee3b354f"),
    ("AttractOnly", 0.0, "full"): (
        "65554333cf09a41ac58f2428014871746a54ae5fb697919a5f15b34920cdc405",
        "33ad4c9f427e43d9128c04b1f586fa68da08f570f40ca91353604b60c8621057"),
    ("AaDNoDecay", 0.0, "full"): (
        "5eb5989e5072d6451461c0b0e1b9185b95236392d482a2eed9828aefc8e2cd77",
        "efb906a87ef74462f64b5e60a3c99d055f79ebdfb54283b8cacc3ed091615b5b"),
    ("NC", 0.25, "full"): (
        "5b669b4302efd3b9ea6f540925d9ee57e0c1b8dfd2248f39559a55df575b4593",
        "0d36209efd9065ca564d02198790c9a3d38deec50c4a14db4df9c7c7cf8107e6"),
    ("DisperseOnly", 0.25, "full"): (
        "d4ce0b4c549270a7b76c21198061f1b7d11ed92016779009747eb37b99a74bfb",
        "ed989f03bbf107a55c866b13a1ac8d05cd0eced5d683f746bf8c410a873648a5"),
    ("MI", 0.25, "full"): (
        "a8a97ebd7823820514e1030885dd89e97f8632370826558d9dc2fe05c317a7a3",
        "da07a85c42f0079b8da3b1844ee113472bb174a411aa724019d5cf3db07dadfa"),
    ("BNM", 0.25, "full"): (
        "224e9d7df4cd8a6202ed48be29eb7738a40ca25b539b524a61dd424634bac2eb",
        "ab503a4d29f670149c890df156c99582f4c2df69a413ada4d265e3149e96c333"),
    ("AaD", 0.25, "ring128"): (
        "de08080bdd7503b6ef806c939197d417566aa9f3aedadb486bdb43d42187b53b",
        "ab3d28bfdade32898a5d676cd6ca094c74317a324d617a49fc182e1c0d6c8d49"),
    ("NC", 0.25, "ring128"): (
        "e100888b8435f03be44e8ea2fdd404ae9fb85f308d0183f7010e394180830974",
        "405f0ec702f2265dfb2d9caf0805f7459d744c97e020c2d3e15ee95543cc61a9"),
    ("DisperseOnly", 0.25, "ring128"): (
        "d4ce0b4c549270a7b76c21198061f1b7d11ed92016779009747eb37b99a74bfb",
        "ed989f03bbf107a55c866b13a1ac8d05cd0eced5d683f746bf8c410a873648a5"),
    ("MI", 0.25, "ring128"): (
        "a8a97ebd7823820514e1030885dd89e97f8632370826558d9dc2fe05c317a7a3",
        "da07a85c42f0079b8da3b1844ee113472bb174a411aa724019d5cf3db07dadfa"),
}


def cases(bank):
    return [(objective, beta) for objective, beta, b in GOLDEN if b == bank]


def pretrained_seed0():
    src = make_twin_moons(MoonsConfig(n_per_class=300, noise_sigma=0.1, seed=0))
    tgt = rotate_dataset(src, 30.0)
    model, _ = pretrain_source(init_model(2, 15, 15, 2, seed=0), src, seed=0, **PRETRAIN)
    return model, tgt


@pytest.fixture(scope="module")
def seed0_pretrained():
    return pretrained_seed0()


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


def test_ring_twins_of_objectives_without_neighbors_equal_full():
    # MI and DisperseOnly keep no bank, so bank_mode cannot change their bytes
    twins = [(objective, beta) for objective, beta in cases("ring128")
             if not orchestrator._TABLE[objective].needs_neighbors]
    assert twins
    for objective, beta in twins:
        assert GOLDEN[(objective, beta, "ring128")] == GOLDEN[(objective, beta, "full")]


def print_golden():
    """Print every case's current (history, checkpoint) hashes as GOLDEN's
    literal, with a trailing comment on each hash that differs from GOLDEN."""
    model, target = pretrained_seed0()
    print("GOLDEN = {")
    print("    # (objective, beta, bank): (history sha256, checkpoint sha256)")
    with tempfile.TemporaryDirectory() as tmp:
        for (objective, beta, bank), (want_hist, want_ckpt) in GOLDEN.items():
            hist_h, ckpt_h = run_hashes(model, target, objective, beta, bank, Path(tmp))
            hist_mark = "" if hist_h == want_hist else "  # history moved"
            ckpt_mark = "" if ckpt_h == want_ckpt else "  # checkpoint moved"
            print(f'    ("{objective}", {beta!r}, "{bank}"): (')
            print(f'        "{hist_h}",{hist_mark}')
            print(f'        "{ckpt_h}"),{ckpt_mark}')
    print("}")


if __name__ == "__main__":
    print_golden()
