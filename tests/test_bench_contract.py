"""What the span tracer of ``bench/spans.py`` relies on in the library.

The tracer resolves every name in its ``TRACED`` table with a bare
``getattr`` and patches module-level names, so a renamed or deleted
function, or a loss reached through another loss, would break traced
runs or double their counts. ``bench/`` is read here, never imported.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sfdalab import objectives
from sfdalab.bank import MemoryBank
from sfdalab.metrics import snd_score
from sfdalab.datasets import MoonsConfig, make_twin_moons, rotate_dataset
from sfdalab.model import PARAM_NAMES, init_model
from sfdalab.orchestrator import OBJECTIVES, AdaptConfig, adapt, pretrain_source

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced():
    """The ``TRACED`` literal of bench/spans.py: {module: (name, ...)}."""
    if not SPANS.is_file():
        pytest.skip("no bench/spans.py in this checkout")
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    pytest.fail("bench/spans.py defines no TRACED table")


def test_every_traced_name_resolves():
    for module, names in traced().items():
        mod = importlib.import_module(f"sfdalab.{module}")
        for name in names:
            owner_name, _, fname = name.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = owner.__dict__[fname] if owner_name else getattr(mod, fname)
            assert callable(fn), f"{module}.{name}"


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_one_traced_loss_call_per_step(objective, monkeypatch):
    src = make_twin_moons(MoonsConfig(n_per_class=40, noise_sigma=0.1, seed=0))
    model, _ = pretrain_source(init_model(2, 8, 8, 2, seed=0), src, epochs=5, lr=0.01)
    cfg = AdaptConfig(k=2, batch_size=16, epochs=1, objective=objective)
    # patch like the tracer does: every sfdalab module holding a traced loss
    calls = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.startswith("sfdalab")]
    for name in traced()["objectives"]:
        fn = getattr(objectives, name)

        def counted(*a, _fn=fn, **kw):
            calls.append(_fn.__name__)
            return _fn(*a, **kw)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    _, hist = adapt(model, rotate_dataset(src, 30.0), cfg)
    assert len(calls) == len(hist.loss) > 0


@pytest.mark.parametrize("mode", ["full", "ring"])
def test_knn_batch_leads_with_the_id_array(mode):
    # the tracer checks and the probe read only the first element
    rng = np.random.default_rng(0)
    bank = MemoryBank(mode, 12, 3, 2)
    bank.update(np.arange(12), rng.normal(size=(12, 3)), rng.dirichlet(np.ones(2), size=12))
    ids = bank.knn_batch(rng.normal(size=(5, 3)), 4, exclude_ids=np.arange(5))[0]
    assert ids.shape == (5, 4) and ids.dtype.kind == "i"
    assert set(ids.ravel().tolist()) <= set(range(12))


def test_params_and_config_fields_the_bench_reads():
    # the bench's reference forward reads the named parameters, and its
    # SND checks pass the run's temperature and 0.05 to snd_score
    assert tuple(init_model(2, 3, 4, 2, seed=0).params()) == PARAM_NAMES
    P = np.random.default_rng(0).dirichlet(np.ones(2), size=10)
    for tau in (AdaptConfig().snd_tau, 0.05):
        assert np.isfinite(snd_score(P, tau))


@pytest.mark.parametrize("mode", ["full", "ring"])
def test_rows_the_tracer_copies_are_the_snapshot(mode):
    # the tracer's oracle copies `sample_ids` and `features` whole and
    # keeps the rows with an id >= 0, in id order; its entry count reads
    # `filled`. The ring wraps: more writes than its capacity, ids repeated.
    rng = np.random.default_rng(2)
    n = 30
    bank = MemoryBank(mode, n if mode == "full" else 8, 3, 2)
    bank.update(np.arange(n), rng.normal(size=(n, 3)), rng.dirichlet(np.ones(2), size=n))
    again = rng.integers(0, n, size=13)
    bank.update(again, rng.normal(size=(13, 3)), rng.dirichlet(np.ones(2), size=13))
    slot_ids, slot_feats = bank.sample_ids.copy(), bank.features.copy()
    rows = np.flatnonzero(slot_ids >= 0)
    rows = rows[np.argsort(slot_ids[rows], kind="stable")]
    ids, feats, _ = bank.snapshot()
    assert np.array_equal(slot_ids[rows], ids) and np.array_equal(slot_feats[rows], feats)
    assert bank.filled == rows.size == (n if mode == "full" else np.unique(again[-8:]).size)
