"""Pretraining, adaptation loop behavior, and the decay-exponent sweep."""

import dataclasses
import json

import numpy as np
import pytest

from sfdalab import metrics, numerics, orchestrator
from sfdalab.bank import MODES, MemoryBank
from sfdalab.datasets import Dataset, MoonsConfig, make_twin_moons, rotate_dataset
from sfdalab.errors import ConfigError, DivergenceError, InvalidInputError, ShapeError
from sfdalab.model import init_model
from sfdalab.orchestrator import (
    OBJECTIVES,
    AdaptConfig,
    RunHistory,
    adapt,
    canonical_objective,
    pretrain_source,
    save_sweep_csv,
    sweep_beta,
)


def small_moons(seed=0, n=80):
    return make_twin_moons(MoonsConfig(n_per_class=n, noise_sigma=0.1, seed=seed))


def small_cfg(**kw):
    base = dict(k=2, beta=1.0, batch_size=16, epochs=2, lr=0.01,
                momentum=0.5, seed=0, objective="AaD")
    base.update(kw)
    return AdaptConfig(**base)


def strip_labels(ds):
    return Dataset(X=ds.X.copy(), labels=np.full(len(ds), -1, dtype=np.int64),
                   num_classes=ds.num_classes)


class TestAdaptConfig:
    def test_objective_is_canonicalized(self):
        assert AdaptConfig(objective="aad").objective == "AaD"
        assert AdaptConfig(objective="ATTRACTONLY").objective == "AttractOnly"

    def test_unknown_objective_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            AdaptConfig(objective="adversarial")
        with pytest.raises(ConfigError, match="^unknown objective 3"):
            AdaptConfig(objective=3)

    def test_canonical_objective_covers_all(self):
        for obj in OBJECTIVES:
            assert canonical_objective(obj.upper()) == obj

    @pytest.mark.parametrize("kw", [
        dict(batch_size=1),
        dict(k=0),
        dict(k=15, batch_size=16),
        dict(beta=-1.0),
        dict(epochs=-1),
        dict(lr=0.0),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(bank_mode="lru"),
        dict(bank_mode="ring", ring_capacity=2, k=2),
        dict(seed=-1),
        dict(ring_capacity=-1),
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw).validate()

    @pytest.mark.parametrize("kw", [
        dict(beta=np.nan),
        dict(beta=-np.inf),
        dict(lr=np.nan),
        dict(lr=np.inf),
        dict(lr=-np.inf),
        dict(lr=10**400),     # a float cannot hold it
        dict(lr=-10**400),
        dict(beta=10**400),
    ])
    def test_validate_rejects_non_finite(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            small_cfg(**kw).validate()

    @pytest.mark.parametrize("name,value", [
        ("k", 2.5), ("batch_size", 16.5), ("epochs", 1.5), ("ring_capacity", 20.5),
        ("seed", 1.5), ("seed", "0"),
    ])
    def test_validate_rejects_non_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            small_cfg(**{name: value}).validate()

    @pytest.mark.parametrize("name,value", [
        ("lr", "0.1"), ("momentum", "x"), ("beta", "x"),
    ])
    def test_validate_rejects_non_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            small_cfg(**{name: value}).validate()

    def test_snd_temperature_is_a_constant_not_a_setting(self):
        assert AdaptConfig().snd_tau == metrics.SND_TAU
        assert "snd_tau" not in {f.name for f in dataclasses.fields(AdaptConfig)}
        with pytest.raises(TypeError):
            AdaptConfig(snd_tau=0.1)

    def test_valid_config_passes(self):
        small_cfg().validate()
        small_cfg(k=np.int64(2), seed=np.int64(3)).validate()
        small_cfg(bank_mode="ring", ring_capacity=40).validate()
        small_cfg(beta=np.inf).validate()  # the limit of ever faster decay


class TestPretrainSource:
    def test_learns_clean_moons(self):
        ds = small_moons()
        model = init_model(2, 15, 15, 2, seed=0)
        model, report = pretrain_source(model, ds, epochs=100, lr=0.01, seed=0,
                                        batch_size=32)
        assert report.accuracy >= 0.95

    def test_zero_epochs_is_noop(self):
        ds = small_moons()
        model = init_model(2, 8, 8, 2, seed=1)
        before = model.theta.copy()
        model, report = pretrain_source(model, ds, epochs=0, lr=0.01)
        assert np.array_equal(model.theta, before)
        assert 0.0 <= report.accuracy <= 1.0

    def test_deterministic(self):
        ds = small_moons()
        a = pretrain_source(init_model(2, 8, 8, 2, seed=2), ds, 10, 0.01, seed=5)[0]
        b = pretrain_source(init_model(2, 8, 8, 2, seed=2), ds, 10, 0.01, seed=5)[0]
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_batch_size_below_one(self, batch_size):
        with pytest.raises(ConfigError, match="batch_size"):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), small_moons(), 1, 0.01,
                            batch_size=batch_size)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_bad_lr(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), small_moons(), 1, lr)

    @pytest.mark.parametrize("kw,message", [
        (dict(epochs=1.5), "epochs must be an integer"),
        (dict(batch_size=16.5), "batch_size must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(seed=-1), "seed must be >= 0"),
    ], ids=["epochs", "batch_size", "seed", "seed-negative"])
    def test_rejects_non_integers_and_negative_seed_at_entry(self, kw, message):
        model = init_model(2, 8, 8, 2, seed=0)
        before = model.theta.copy()
        with pytest.raises(ConfigError, match=f"^{message}"):
            pretrain_source(model, small_moons(), **{"epochs": 1, "lr": 0.01, **kw})
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("momentum,message", [
        (1.5, "momentum must be in"), ("x", "momentum must be a real number"),
    ])
    def test_rejects_bad_momentum_without_epochs(self, momentum, message):
        model = init_model(2, 8, 8, 2, seed=0)
        before = model.theta.copy()
        with pytest.raises(ConfigError, match=f"^{message}"):
            pretrain_source(model, small_moons(), epochs=0, lr=0.01, momentum=momentum)
        assert np.array_equal(model.theta, before)

    def test_rejects_unlabeled_source(self):
        ds = strip_labels(small_moons())
        with pytest.raises(InvalidInputError):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), ds, 1, 0.01)

    def test_divergence_names_epoch_and_iteration(self):
        with pytest.raises(DivergenceError, match=r"pretrain, epoch 0, iteration \d+: "):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), small_moons(), 1, 1e300)

    def test_non_finite_data_is_bad_input(self):
        ds = small_moons()
        ds.X[3, 0] = np.nan
        with pytest.raises(InvalidInputError, match="source.X"):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), ds, 1, 0.01)

    def test_label_beyond_model_classes_is_bad_input(self):
        ds = small_moons()
        ds = Dataset(X=ds.X, labels=np.where(ds.labels == 1, 2, 0), num_classes=3)
        with pytest.raises(InvalidInputError, match="classes"):
            pretrain_source(init_model(2, 8, 8, 2, seed=0), ds, 1, 0.01)

    def test_other_step_errors_keep_their_type(self):
        with pytest.raises(ShapeError, match=r"pretrain, epoch 0, iteration 0: "):
            pretrain_source(init_model(3, 8, 8, 2, seed=0), small_moons(), 1, 0.01)


def pretrained(seed=0, n=80):
    src = small_moons(seed=seed, n=n)
    model = init_model(2, 15, 15, 2, seed=seed)
    model, _ = pretrain_source(model, src, epochs=100, lr=0.01, seed=seed,
                               batch_size=32)
    return model, rotate_dataset(src, 30.0)


class TestAdapt:
    def test_zero_epochs_keeps_params_and_empty_history(self):
        model, tgt = pretrained()
        before = model.theta.copy()
        model, hist = adapt(model, tgt, small_cfg(epochs=0))
        assert np.array_equal(model.theta, before)
        assert hist.loss == [] and hist.acc == []

    def test_history_lengths(self):
        model, tgt = pretrained()
        cfg = small_cfg(epochs=3)
        _, hist = adapt(model, tgt, cfg)
        iters = (len(tgt) // cfg.batch_size) * 3
        assert len(hist.loss) == iters and len(hist.lam) == iters
        assert len(hist.acc) == len(hist.snd) == 3
        assert len(hist.ratio_same) == len(hist.ratio_correct) == 3

    @pytest.mark.parametrize("kw,message", [
        (dict(seed=-1), "seed must be >= 0"),
        (dict(k=2.5), "k must be an integer"),
        (dict(epochs=1.5), "epochs must be an integer"),
        (dict(bank_mode="ring", ring_capacity=20.5), "ring_capacity must be an integer"),
    ], ids=["seed-negative", "k", "epochs", "ring_capacity"])
    def test_bad_config_rejected_at_entry(self, kw, message):
        # the error comes from validation, not from a training step
        model = init_model(2, 8, 8, 2, seed=0)
        before = model.theta.copy()
        with pytest.raises(ConfigError, match=f"^{message}"):
            adapt(model, small_moons(), small_cfg(**kw))
        assert np.array_equal(model.theta, before)

    def test_target_smaller_than_batch_rejected(self):
        model, tgt = pretrained()
        with pytest.raises(ConfigError):
            adapt(model, tgt, small_cfg(batch_size=512))

    def test_deterministic_repeat(self):
        model, tgt = pretrained()
        m1, h1 = adapt(model.clone(), tgt, small_cfg(epochs=2))
        m2, h2 = adapt(model.clone(), tgt, small_cfg(epochs=2))
        assert h1.to_json() == h2.to_json()
        assert np.array_equal(m1.theta, m2.theta)

    def test_label_hygiene(self):
        # for every objective and bank mode, stripping or permuting the
        # target labels leaves the parameters and the label-free history
        # (loss, lambda, SND, ratio_same) byte-identical
        model, tgt = pretrained()
        permuted = Dataset(X=tgt.X, labels=np.random.default_rng(0).permutation(tgt.labels),
                           num_classes=tgt.num_classes)
        assert not np.array_equal(permuted.labels, tgt.labels)
        label_free = ("loss", "lambda", "snd", "ratio_same")
        for objective in OBJECTIVES:
            for mode in MODES:
                cfg = small_cfg(objective=objective, bank_mode=mode, ring_capacity=40)
                m1, h1 = adapt(model.clone(), tgt, cfg)
                for other in (strip_labels(tgt), permuted):
                    m2, h2 = adapt(model.clone(), other, cfg)
                    assert m1.theta.tobytes() == m2.theta.tobytes(), (objective, mode)
                    for key in label_free:
                        assert json.dumps(h1.to_dict()[key]) == json.dumps(h2.to_dict()[key]), \
                            (objective, mode, key)
                    if other is not permuted:
                        assert all(a is None for a in h2.acc)
                        assert all(c is None for c in h2.ratio_correct)

    def test_no_decay_equals_beta_zero(self):
        model, tgt = pretrained()
        m1, h1 = adapt(model.clone(), tgt, small_cfg(objective="AaDNoDecay", beta=3.0))
        m2, h2 = adapt(model.clone(), tgt, small_cfg(objective="AaD", beta=0.0))
        assert np.array_equal(m1.theta, m2.theta)
        assert h1.loss == h2.loss

    def test_recorded_lambda_per_objective(self):
        model, tgt = pretrained()
        _, h_aad = adapt(model.clone(), tgt, small_cfg(epochs=1))
        assert h_aad.lam[0] == 1.0 and h_aad.lam[-1] < 1.0
        _, h_att = adapt(model.clone(), tgt, small_cfg(objective="AttractOnly", epochs=1))
        assert all(v == 0.0 for v in h_att.lam)
        _, h_nod = adapt(model.clone(), tgt, small_cfg(objective="AaDNoDecay", epochs=1))
        assert all(v == 1.0 for v in h_nod.lam)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_every_objective_runs(self, objective):
        model, tgt = pretrained()
        _, hist = adapt(model, tgt, small_cfg(objective=objective, epochs=1))
        assert len(hist.loss) > 0 and np.isfinite(hist.loss).all()

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_non_finite_target_is_bad_input_at_entry(self, objective):
        # bad data is not divergence, with or without a bank to seed
        model, tgt = pretrained()
        tgt.X[5, 1] = np.inf
        before = model.theta.copy()
        with pytest.raises(InvalidInputError, match="^target.X contains non-finite"):
            adapt(model, tgt, small_cfg(objective=objective, epochs=1))
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_step_error_names_objective_epoch_and_iteration(self, objective):
        model, tgt = pretrained()
        with pytest.raises(DivergenceError, match=rf"{objective}, epoch 0, iteration \d+: "):
            adapt(model, tgt, small_cfg(objective=objective, epochs=1, lr=1e300))

    def test_epoch_write_error_names_objective_and_epoch(self, monkeypatch):
        # MI keeps no bank, so its one write per epoch is the evaluation's
        def failing_update(self, ids, feats, preds):
            raise InvalidInputError("predictions contains non-finite entries")

        monkeypatch.setattr(MemoryBank, "update", failing_update)
        model, tgt = pretrained()
        with pytest.raises(DivergenceError, match=r"^MI, epoch 0: predictions"):
            adapt(model, tgt, small_cfg(objective="MI", epochs=1))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_bank_written_once_per_read(self, objective, monkeypatch):
        # objectives with neighbors write the seed, then each step before
        # retrieving; the others keep no bank, and each epoch's evaluation
        # writes one full bank of its own forward
        calls = []
        update = MemoryBank.update

        def counting_update(self, ids, feats, preds):
            calls.append(len(ids))
            return update(self, ids, feats, preds)

        monkeypatch.setattr(MemoryBank, "update", counting_update)
        model, tgt = pretrained()
        cfg = small_cfg(objective=objective, epochs=3)
        adapt(model, tgt, cfg)
        steps = len(tgt) // cfg.batch_size
        if objective in ("MI", "BNM", "DisperseOnly"):
            assert calls == [len(tgt)] * cfg.epochs
        else:
            assert calls == [len(tgt)] + [cfg.batch_size] * (steps * cfg.epochs)

    @pytest.mark.parametrize("objective", ("MI", "BNM", "DisperseOnly"))
    def test_bank_mode_does_not_affect_objectives_without_neighbors(self, objective):
        model, tgt = pretrained()
        assert len(tgt) > 128  # a ring would hold only part of the target
        full, full_hist = adapt(model.clone(), tgt, small_cfg(objective=objective))
        ring, ring_hist = adapt(model.clone(), tgt, small_cfg(objective=objective, bank_mode="ring",
                                                              ring_capacity=128))
        assert full_hist.to_json() == ring_hist.to_json()
        assert np.array_equal(full.theta, ring.theta)

    def test_a_ring_too_large_to_allocate_runs_as_a_full_bank(self):
        # a ring allocates the rows it holds, and one that never wraps
        # holds every id, as a full bank does
        model, tgt = pretrained()
        full, full_hist = adapt(model.clone(), tgt, small_cfg())
        ring, ring_hist = adapt(model.clone(), tgt, small_cfg(bank_mode="ring",
                                                              ring_capacity=10**13))
        assert ring_hist.to_json() == full_hist.to_json()
        assert np.array_equal(ring.theta, full.theta)

    def test_epochs_and_eval_reports_share_one_scorer(self, monkeypatch):
        calls = []
        real = metrics.build_report

        def counted(model, X, *a, **kw):
            calls.append(X.shape[0])
            return real(model, X, *a, **kw)

        for module in (metrics, orchestrator):
            monkeypatch.setattr(module, "build_report", counted)
        model, tgt = pretrained()
        _, hist = adapt(model, tgt, small_cfg(epochs=2))
        report = metrics.build_report(model, tgt.X, tgt.labels, 2)
        assert calls == [len(tgt)] * 3
        assert (report["accuracy"], report["snd"]) == (hist.acc[-1], hist.snd[-1])

    def test_adaptation_improves_target_accuracy(self):
        model, tgt = pretrained(seed=0, n=100)
        from sfdalab.metrics import evaluate_model
        before = evaluate_model(model, tgt.X, tgt.labels, 2).accuracy
        _, hist = adapt(model, tgt, small_cfg(batch_size=32, epochs=25, k=3,
                                              lr=0.005, momentum=0.5))
        assert hist.acc[-1] > before

    def test_ring_mode_runs_and_small_ring_skips_ratios(self):
        model, tgt = pretrained()
        cfg = small_cfg(bank_mode="ring", ring_capacity=3, k=1, epochs=1)
        _, hist = adapt(model, tgt, cfg)
        # a 3-row ring cannot support the 3-neighbor agreement ratio
        assert hist.ratio_same == [None] and hist.ratio_correct == [None]
        cfg_big = small_cfg(bank_mode="ring", ring_capacity=40, epochs=1)
        _, hist2 = adapt(pretrained()[0], tgt, cfg_big)
        assert hist2.ratio_same[0] is not None


class TestRunHistory:
    def test_json_uses_lambda_key(self):
        h = RunHistory(loss=[0.5], lam=[1.0], acc=[0.9], snd=[1.2],
                       ratio_same=[0.8], ratio_correct=[0.7])
        d = json.loads(h.to_json())
        assert set(d) == {"loss", "lambda", "acc", "snd", "ratio_same", "ratio_correct"}
        assert d["lambda"] == [1.0]

    def test_checkpoint_key_only_when_set(self):
        h = RunHistory()
        assert "checkpoint" not in h.to_dict()
        h.checkpoint_path = "model.json"
        assert h.to_dict()["checkpoint"] == "model.json"

    def test_save_round_trip(self, tmp_path):
        h = RunHistory(loss=[1.0, 0.5], lam=[1.0, 0.9], acc=[None],
                       snd=[0.3], ratio_same=[0.1], ratio_correct=[None])
        p = tmp_path / "history.json"
        h.save(p)
        assert json.loads(p.read_text()) == h.to_dict()


class TestSweepBeta:
    def test_single_beta_single_row_flagged(self):
        model, tgt = pretrained()
        runs, table = sweep_beta(model, tgt, [1.0], small_cfg(epochs=1), seeds=[0])
        assert len(runs) == 1 and len(table) == 1
        assert table[0]["selected"] is True

    def test_duplicate_beta_rows_identical_and_first_selected(self):
        model, tgt = pretrained()
        runs, table = sweep_beta(model, tgt, [2.0, 2.0], small_cfg(epochs=1), seeds=[0])
        assert runs[0] == runs[1]
        assert table[0] == {**table[1], "selected": True} or table[0]["snd"] == table[1]["snd"]
        assert table[0]["selected"] and not table[1]["selected"]

    def test_deterministic(self):
        model, tgt = pretrained()
        out1 = sweep_beta(model, tgt, [0.0, 1.0], small_cfg(epochs=1), seeds=[0, 1])
        out2 = sweep_beta(model, tgt, [0.0, 1.0], small_cfg(epochs=1), seeds=[0, 1])
        assert out1 == out2

    def test_selected_is_argmax_snd(self):
        model, tgt = pretrained()
        _, table = sweep_beta(model, tgt, [0.0, 1.0, 5.0], small_cfg(epochs=1), seeds=[0])
        best = max(table, key=lambda r: r["snd"])
        assert [r for r in table if r["selected"]] == [best]

    def test_rejects_empty_inputs(self):
        model, tgt = pretrained()
        with pytest.raises(ConfigError):
            sweep_beta(model, tgt, [], small_cfg(), seeds=[0])
        with pytest.raises(ConfigError):
            sweep_beta(model, tgt, [1.0], small_cfg(), seeds=[])

    def test_rejects_zero_epochs(self):
        model, tgt = pretrained()
        with pytest.raises(ConfigError):
            sweep_beta(model, tgt, [1.0], small_cfg(epochs=0), seeds=[0])

    @pytest.mark.parametrize("betas,cfg_kw", [
        ([0.0, 1.0, float("nan")], {}),
        ([0.0, 1.0, -1.0], {}),
        ([1.0], {"epochs": 0}),
        ([1.0], {"lr": float("inf")}),
        (["0.5"], {"seeds": [0]}),      # validate sees each beta and seed as given
        ([0.5], {"seeds": [0, 1.5]}),
    ])
    def test_bad_input_rejected_before_the_first_run(self, betas, cfg_kw, monkeypatch):
        runs = []
        monkeypatch.setattr(orchestrator, "adapt", lambda *a: runs.append(a))
        model, tgt = pretrained()
        cfg_kw = dict(cfg_kw)
        seeds = cfg_kw.pop("seeds", [0, 1])
        with pytest.raises(ConfigError):
            sweep_beta(model, tgt, betas, small_cfg(**cfg_kw), seeds=seeds)
        assert runs == []

    def test_csv_export(self, tmp_path):
        table = [
            {"beta": 0.0, "snd": 1.25, "acc": 0.9, "selected": False},
            {"beta": 1.0, "snd": 1.5, "acc": None, "selected": True},
        ]
        p = tmp_path / "sweep.csv"
        save_sweep_csv(p, table)
        lines = p.read_text().splitlines()
        assert lines[0] == "beta,snd,acc,selected"
        assert lines[1] == "0.0,1.25,0.9,0"
        assert lines[2] == "1.0,1.5,,1"

    def test_uses_same_start_for_every_run(self):
        # the sweep must not mutate the supplied model
        model, tgt = pretrained()
        before = model.theta.copy()
        sweep_beta(model, tgt, [1.0], small_cfg(epochs=1), seeds=[0])
        assert np.array_equal(model.theta, before)


class TestBlasThreads:
    """adapt runs on one BLAS thread and gives the caller's count back."""

    @staticmethod
    def watch_knn(blas_threads, monkeypatch) -> list:
        """Record the BLAS thread count at every knn_slots call."""
        seen = []
        knn_slots = MemoryBank.knn_slots

        def watched(bank, *a, **kw):
            seen.append(blas_threads())
            return knn_slots(bank, *a, **kw)

        monkeypatch.setattr(MemoryBank, "knn_slots", watched)
        return seen

    def test_one_thread_inside_adapt_and_restored_after(self, blas_threads, monkeypatch):
        seen = self.watch_knn(blas_threads, monkeypatch)
        model, tgt = pretrained()
        adapt(model, tgt, small_cfg(epochs=1))
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_restored_after_adapt_raises(self, blas_threads):
        model, tgt = pretrained()
        X = tgt.X.copy()
        X[3, 0] = np.nan
        bad = Dataset(X=X, labels=tgt.labels, num_classes=2)
        with pytest.raises(InvalidInputError):
            adapt(model, bad, small_cfg())
        assert blas_threads() == 2

    @pytest.fixture(scope="class")
    def toy(self):
        # the toy protocol's size, where OpenBLAS splits the SND product
        src = make_twin_moons(MoonsConfig(n_per_class=300, noise_sigma=0.1, seed=0))
        model, _ = pretrain_source(init_model(2, 15, 15, 2, seed=0), src,
                                   epochs=20, lr=0.01, seed=0)
        return model, rotate_dataset(src, 30.0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_outputs_independent_of_thread_count(self, blas_threads, monkeypatch, toy,
                                                 objective, mode):
        model, tgt = toy
        cfg = AdaptConfig(k=4, beta=0.25, batch_size=64, epochs=4, lr=0.005, momentum=0.7,
                          bank_mode=mode, ring_capacity=128, seed=0, objective=objective)
        m1, h1 = adapt(model.clone(), tgt, cfg)
        # with discovery failing, the guard leaves the count at 2
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        seen = self.watch_knn(blas_threads, monkeypatch)
        m2, h2 = adapt(model.clone(), tgt, cfg)
        assert seen and set(seen) == {2}
        assert h1.to_json() == h2.to_json()
        assert m1.theta.tobytes() == m2.theta.tobytes()
