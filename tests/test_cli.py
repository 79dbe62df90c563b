"""End-to-end runs of each CLI subcommand on tiny datasets."""

import json

import numpy as np
import pytest

from sfdalab.cli import build_parser, main, parse_data_spec
from sfdalab.errors import ConfigError, ParseError
from sfdalab.model import load_checkpoint


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

    def test_unknown_blob_appended(self):
        ds = parse_data_spec("moons:n=10,unknown=5")
        assert len(ds) == 25 and int(np.sum(ds.labels == -1)) == 5

    def test_csv_path(self, tmp_path):
        from sfdalab.datasets import MoonsConfig, make_twin_moons, save_csv_dataset
        p = tmp_path / "data.csv"
        save_csv_dataset(make_twin_moons(MoonsConfig(n_per_class=8, seed=1)), p)
        ds = parse_data_spec(str(p), domain="target")
        assert len(ds) == 16 and ds.domain == "target"

    @pytest.mark.parametrize("spec", [
        "moonsx", "moons:bad", "moons:rot", "moons:n=x", "moons:shape=ring",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ParseError):
            parse_data_spec(spec)


class TestPretrainCommand:
    def test_writes_loadable_checkpoint(self, source_ckpt, capsys):
        model = load_checkpoint(source_ckpt)
        assert model.d_in == 2 and model.n_classes == 2

    def test_stdout_reports_accuracy(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["pretrain", "--data", "moons:n=20,seed=1", "--out", str(out),
              "--epochs", "5"])
        assert "source accuracy" in capsys.readouterr().out

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
        assert set(printed) == {"accuracy", "per_class", "snd", "ratios", "hos", "os"}


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


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_present(self):
        parser = build_parser()
        subactions = [a for a in parser._actions if a.dest == "command"][0]
        assert set(subactions.choices) == {"pretrain", "adapt", "sweep",
                                           "eval", "boundary"}
