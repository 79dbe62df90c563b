"""End-to-end runs of each CLI subcommand on tiny datasets, and the
CLI's surface: its flags, its defaults and their precedence."""

import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdalab import cli, errors
from sfdalab.cli import build_parser, main, parse_data_spec
from sfdalab.datasets import MoonsConfig, make_twin_moons
from sfdalab.errors import ConfigError, ParseError
from sfdalab.model import load_checkpoint
from sfdalab.orchestrator import AdaptConfig, RunHistory, pretrain_source

PACKAGE_ERRORS = tuple(v for v in vars(errors).values()
                       if isinstance(v, type) and issubclass(v, Exception))


@pytest.fixture(scope="module")
def source_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "source.json"
    rc = main(["pretrain", "--data", "moons:n=40,seed=0", "--out", str(path),
               "--epochs", "30", "--batch-size", "16"])
    assert rc == 0
    return str(path)


class TestParseDataSpec:
    def test_plain_moons_defaults(self):
        ds = parse_data_spec("moons")
        assert len(ds) == 600 and ds.num_classes == 2

    def test_parameterized_moons(self):
        ds = parse_data_spec("moons:rot=30,n=20,sigma=0.05,seed=3")
        assert len(ds) == 40
        base = parse_data_spec("moons:n=20,sigma=0.05,seed=3")
        assert not np.array_equal(ds.X, base.X)  # rotation applied

    def test_csv_path(self, tmp_path):
        from sfdalab.datasets import MoonsConfig, make_twin_moons, save_csv_dataset
        p = tmp_path / "data.csv"
        save_csv_dataset(make_twin_moons(MoonsConfig(n_per_class=8, seed=1)), p)
        ds = parse_data_spec(str(p))
        assert len(ds) == 16

    @pytest.mark.parametrize("spec", [
        "moonsx", "moons:bad", "moons:rot", "moons:n=x", "moons:shape=ring",
        "moons:unknown=-1", "moons:n=10,unknown=5",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ParseError):
            parse_data_spec(spec)

    def test_plain_moons_is_the_library_default(self):
        ds, want = parse_data_spec("moons"), make_twin_moons(MoonsConfig())
        assert np.array_equal(ds.X, want.X) and np.array_equal(ds.labels, want.labels)

    def test_each_key_sets_its_moons_config_field(self):
        ds = parse_data_spec("moons:rot=30,n=20,sigma=0.05,seed=3")
        want = make_twin_moons(MoonsConfig(n_per_class=20, noise_sigma=0.05,
                                           rotation_deg=30.0, seed=3))
        assert np.array_equal(ds.X, want.X)

    @pytest.mark.parametrize("spec", [
        "moons:seed=-1", "moons:sigma=nan", "moons:sigma=inf",
        "moons:rot=inf", "moons:rot=nan", "moons:sigma=1e308",
        "moons:n=100000000000",  # fails at allocation without touching memory
    ])
    def test_bad_values_raise_a_package_error(self, spec):
        with pytest.raises(errors.ShapeError):
            parse_data_spec(spec)

    @given(st.lists(st.one_of(
        st.tuples(st.just("n"),
                  st.one_of(st.integers(-3, 50).map(str),
                            st.sampled_from(["", "x", "1.5", "nan", "+7", " 3", "-0"]))),
        st.tuples(st.sampled_from(["rot", "sigma", "seed"]),
                  st.one_of(st.floats().map(repr), st.integers().map(str),
                            st.sampled_from(["nan", "-inf", "1e999", "", "0x1"]))),
        st.tuples(st.text(alphabet=st.characters(exclude_characters=",="), max_size=6)
                  .filter(lambda key: key != "n"),
                  st.text(alphabet=st.characters(exclude_characters=","), max_size=6)),
    ), max_size=6).map(lambda parts: "moons:" + ",".join(f"{k}={v}" for k, v in parts)))
    @settings(max_examples=300, deadline=None)
    def test_any_moons_spec_gives_finite_data_or_a_package_error(self, spec):
        # n stays <= 50, so no example allocates more than 100 rows
        try:
            ds = parse_data_spec(spec)
        except PACKAGE_ERRORS:
            return
        assert np.all(np.isfinite(ds.X))


class TestPretrainCommand:
    def test_writes_loadable_checkpoint(self, source_ckpt, capsys):
        model = load_checkpoint(source_ckpt)
        assert model.d_in == 2 and model.n_classes == 2

    def test_stdout_reports_accuracy(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["pretrain", "--data", "moons:n=20,seed=1", "--out", str(out),
              "--epochs", "5"])
        assert "source accuracy" in capsys.readouterr().out

    def test_label_too_large_to_allocate_names_n_classes(self, tmp_path):
        # one label of 10^12 asks for a 15 x 10^12 classifier: numpy fails
        # at allocation, without touching memory
        data = tmp_path / "big.csv"
        data.write_text("d=2,labels=1\n0.0,0.0,0\n1.0,0.5,1\n0.5,1.0,1000000000000\n")
        out = tmp_path / "m.json"
        with pytest.raises(errors.ShapeError, match="n_classes 1000000000001"):
            main(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1"])
        assert not out.exists()

    def test_zero_batch_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="batch_size"):
            main(["pretrain", "--data", "moons:n=20,seed=1", "--out", str(tmp_path / "m.json"),
                  "--epochs", "1", "--batch-size", "0"])


class TestAdaptCommand:
    def test_adapt_writes_history_and_checkpoint(self, source_ckpt, tmp_path, capsys):
        hist_path = tmp_path / "history.json"
        out_path = tmp_path / "adapted.json"
        rc = main(["adapt", "--ckpt", source_ckpt,
                   "--target", "moons:rot=30,n=40,seed=0",
                   "--epochs", "2", "--batch-size", "16", "--k", "2",
                   "--out-history", str(hist_path), "--out", str(out_path)])
        assert rc == 0
        hist = json.loads(hist_path.read_text())
        assert set(hist) == {"loss", "lambda", "acc", "snd",
                             "ratio_same", "ratio_correct", "checkpoint"}
        assert hist["checkpoint"] == str(out_path)
        assert len(hist["loss"]) == 2 * (80 // 16)
        load_checkpoint(out_path)
        assert "final accuracy" in capsys.readouterr().out

    def test_objective_flag_validated_by_argparse(self, source_ckpt):
        with pytest.raises(SystemExit):
            main(["adapt", "--ckpt", source_ckpt, "--target", "moons",
                  "--objective", "Adversarial"])

    def test_unlabeled_csv_target_reports_na(self, source_ckpt, tmp_path, capsys):
        target = tmp_path / "unlabeled.csv"
        rng = np.random.default_rng(0)
        rows = ["d=2,labels=0"] + [f"{x},{y}" for x, y in rng.normal(size=(40, 2))]
        target.write_text("\n".join(rows) + "\n")
        rc = main(["adapt", "--ckpt", source_ckpt, "--target", str(target),
                   "--epochs", "1", "--batch-size", "16", "--k", "2"])
        assert rc == 0
        assert "final accuracy n/a" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_writes_table(self, source_ckpt, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--ckpt", source_ckpt,
                   "--target", "moons:rot=30,n=40,seed=0",
                   "--betas", "0,1", "--seeds", "1", "--epochs", "1",
                   "--batch-size", "16", "--k", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,snd,acc,selected"
        assert len(lines) == 3
        assert sum(line.endswith(",1") for line in lines[1:]) == 1
        assert "selected by SND" in capsys.readouterr().out

    def test_bad_beta_rejected(self, source_ckpt, tmp_path):
        with pytest.raises(ParseError, match="'x'"):
            main(["sweep", "--ckpt", source_ckpt, "--target", "moons:rot=30,n=40,seed=0",
                  "--betas", "0,x", "--seeds", "1", "--epochs", "1",
                  "--batch-size", "16", "--k", "2", "--out", str(tmp_path / "sweep.csv")])


class TestEvalCommand:
    def test_eval_prints_and_writes_report(self, source_ckpt, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["eval", "--ckpt", source_ckpt, "--data", "moons:n=40,seed=0",
                   "--out", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert printed["accuracy"] is not None
        assert set(printed) == {"accuracy", "per_class", "snd", "ratios"}

    def test_eval_scores_as_the_last_epoch_of_adapt(self, source_ckpt, tmp_path, capsys):
        # eval and every epoch of the history score SND at one temperature
        ckpt, history = tmp_path / "adapted.json", tmp_path / "history.json"
        target = "moons:rot=30,n=40,seed=0"
        main(["adapt", "--ckpt", source_ckpt, "--target", target, "--epochs", "2",
              "--batch-size", "16", "--k", "2", "--out", str(ckpt),
              "--out-history", str(history)])
        capsys.readouterr()
        main(["eval", "--ckpt", str(ckpt), "--data", target])
        report = json.loads(capsys.readouterr().out)
        last = json.loads(history.read_text())
        assert (report["snd"], report["accuracy"]) == (last["snd"][-1], last["acc"][-1])


class TestBoundaryCommand:
    def test_grid_csv_written(self, source_ckpt, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["boundary", "--ckpt", source_ckpt, "--out", str(out),
                   "--resolution", "5"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label" and len(lines) == 26
        assert "25 grid labels" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, source_ckpt, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "k": 2, "batch_size": 16}))
        hist_path = tmp_path / "h.json"
        main(["adapt", "--ckpt", source_ckpt, "--target", "moons:rot=30,n=40,seed=0",
              "--config", str(cfg_path), "--epochs", "2",
              "--out-history", str(hist_path)])
        hist = json.loads(hist_path.read_text())
        # epochs flag (2) overrides config (1); k and batch size from config
        assert len(hist["acc"]) == 2
        assert len(hist["loss"]) == 2 * (80 // 16)

    def test_non_object_config_rejected(self, source_ckpt, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            main(["adapt", "--ckpt", source_ckpt, "--target", "moons",
                  "--config", str(cfg_path)])

    @pytest.mark.parametrize("content", [b'{"k": 2,}', b"\xff\xfe{}"],
                             ids=["trailing-comma", "not-utf8"])
    def test_unreadable_config_names_the_file(self, source_ckpt, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(str(cfg_path))):
            main(["adapt", "--ckpt", source_ckpt, "--target", "moons",
                  "--config", str(cfg_path)])

    @pytest.mark.parametrize("values", [{"seeds": 2.5}, {"k": "2"}, {"betas": 5},
                                        {"seeds": True}, {"betas": [1, "2"]}],
                             ids=["float-seeds", "string-k", "number-betas", "bool-seeds",
                                  "string-in-betas-list"])
    def test_value_of_the_wrong_json_type_names_its_key(self, source_ckpt, tmp_path, values):
        (key,) = values
        with pytest.raises(ParseError, match=f"config key '{key}'"):
            main(["sweep", "--ckpt", source_ckpt, "--target", "moons:n=10",
                  "--out", str(tmp_path / "s.csv"), "--config", write_config(tmp_path, values)])


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_present(self):
        parser = build_parser()
        subactions = [a for a in parser._actions if a.dest == "command"][0]
        assert set(subactions.choices) == {"pretrain", "adapt", "sweep",
                                           "eval", "boundary"}


# The parser's surface, as it was before the flags moved into one table:
# subcommand -> {option: (type, choices, required)}. No flag has a default.
OBJECTIVE_CHOICES = ("AaD", "AttractOnly", "DisperseOnly", "AaDNoDecay", "MI", "BNM", "NC")
COMMON = {"--config": (None, None, False)}
SEED = {"--seed": (int, None, False)}   # only the subcommands that draw random numbers
TRAINING = {"--epochs": (int, None, False), "--lr": (float, None, False),
            "--momentum": (float, None, False), "--batch-size": (int, None, False)}
SURFACE = {
    "pretrain": {"--data": (None, None, True), "--out": (None, None, True), **TRAINING,
                 "--hidden1": (int, None, False), "--hidden-feat": (int, None, False), **SEED,
                 **COMMON},
    "adapt": {"--ckpt": (None, None, True), "--target": (None, None, True),
              "--k": (int, None, False), "--beta": (float, None, False), **TRAINING,
              "--objective": (None, OBJECTIVE_CHOICES, False),
              "--bank-mode": (None, ("full", "ring"), False),
              "--ring-capacity": (int, None, False), "--out-history": (None, None, False),
              "--out": (None, None, False), **SEED, **COMMON},
    "sweep": {"--ckpt": (None, None, True), "--target": (None, None, True),
              "--betas": (None, None, False), "--seeds": (int, None, False),
              "--out": (None, None, True), "--k": (int, None, False), **TRAINING, **COMMON},
    "eval": {"--ckpt": (None, None, True), "--data": (None, None, True),
             "--out": (None, None, False), **COMMON},
    "boundary": {"--ckpt": (None, None, True), "--out": (None, None, True),
                 "--x-min": (float, None, False), "--x-max": (float, None, False),
                 "--y-min": (float, None, False), "--y-max": (float, None, False),
                 "--resolution": (int, None, False), **COMMON},
}


def subparsers():
    return [a for a in build_parser()._actions if a.dest == "command"][0].choices


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags_keep_their_strings_types_choices_and_required_ness(self, command):
        actions = [a for a in subparsers()[command]._actions if a.dest != "help"]
        seen = {}
        for a in actions:
            (option,) = a.option_strings
            assert a.dest == option[2:].replace("-", "_")
            assert a.default is None
            seen[option] = (a.type, None if a.choices is None else tuple(a.choices), a.required)
        assert seen == SURFACE[command]

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(option in out for option in SURFACE[command])


@pytest.fixture
def calls(monkeypatch):
    """Stand-ins for the library calls of the subcommands: each records the
    arguments it got, bound to the real signature with defaults applied."""
    got = {}

    def record(name, real, result):
        def stub(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            got[name] = bound.arguments
            return result
        monkeypatch.setattr(cli, name, stub)

    record("adapt", cli.adapt, (None, RunHistory()))
    record("sweep_beta", cli.sweep_beta, ([], []))
    record("pretrain_source", pretrain_source, (None, type("R", (), {"accuracy": 1.0})))
    monkeypatch.setattr(cli, "save_checkpoint",
                        lambda model, path: got.setdefault("saved", []).append(path))
    return got


def write_config(tmp_path, values) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


class TestDefaults:
    def test_adapt_builds_the_default_config(self, source_ckpt, calls):
        main(["adapt", "--ckpt", source_ckpt, "--target", "moons:n=10"])
        assert calls["adapt"]["cfg"] == AdaptConfig()

    def test_sweep_builds_the_default_config(self, source_ckpt, calls, tmp_path):
        main(["sweep", "--ckpt", source_ckpt, "--target", "moons:n=10",
              "--out", str(tmp_path / "s.csv")])
        got = calls["sweep_beta"]
        assert got["base_cfg"] == AdaptConfig()
        assert got["betas"] == [0.0, 1.0, 2.0, 5.0] and list(got["seeds"]) == [0, 1, 2]

    def test_pretrain_passes_the_library_defaults(self, calls, tmp_path):
        main(["pretrain", "--data", "moons:n=10", "--out", str(tmp_path / "m.json")])
        got = calls["pretrain_source"]
        params = inspect.signature(pretrain_source).parameters
        for name in ("momentum", "seed", "batch_size"):
            assert got[name] == params[name].default
        assert (got["epochs"], got["lr"]) == (200, 0.01)
        assert (got["model"].h1, got["model"].h_feat) == (15, 15)


class TestPrecedence:
    def test_flag_beats_config_beats_default(self, source_ckpt, calls, tmp_path):
        cfg = write_config(tmp_path, {"k": 2, "epochs": 1, "lr": 0.1})
        main(["adapt", "--ckpt", source_ckpt, "--target", "moons:n=10", "--config", cfg,
              "--epochs", "3"])
        assert calls["adapt"]["cfg"] == AdaptConfig(k=2, epochs=3, lr=0.1)

    def test_pretrain_flag_beats_config(self, calls, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "lr": 0.5, "hidden1": 4})
        main(["pretrain", "--data", "moons:n=10", "--out", str(tmp_path / "m.json"),
              "--config", cfg, "--seed", "4"])
        got = calls["pretrain_source"]
        assert (got["seed"], got["lr"], got["model"].h1) == (4, 0.5, 4)

    def test_config_key_without_a_flag_reaches_sweep(self, source_ckpt, calls, tmp_path):
        cfg = write_config(tmp_path, {"bank_mode": "ring", "ring_capacity": 8, "betas": [1, 2]})
        main(["sweep", "--ckpt", source_ckpt, "--target", "moons:n=10", "--config", cfg,
              "--out", str(tmp_path / "s.csv")])
        got = calls["sweep_beta"]
        assert got["base_cfg"] == AdaptConfig(bank_mode="ring", ring_capacity=8)
        assert got["betas"] == [1.0, 2.0]

    def test_null_counts_as_not_set(self, source_ckpt, calls, tmp_path):
        cfg = write_config(tmp_path, {"k": None, "beta": None, "objective": None})
        main(["adapt", "--ckpt", source_ckpt, "--target", "moons:n=10", "--config", cfg])
        assert calls["adapt"]["cfg"] == AdaptConfig()

    def test_paths_come_from_flags_only(self, source_ckpt, calls, tmp_path):
        history = tmp_path / "history.json"
        cfg = write_config(tmp_path, {"out": str(tmp_path / "m.json"),
                                      "out_history": str(history)})
        main(["adapt", "--ckpt", source_ckpt, "--target", "moons:n=10", "--config", cfg])
        assert "saved" not in calls and not history.exists()
