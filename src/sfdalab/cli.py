"""Command-line interface.

Subcommands: pretrain, adapt, sweep, eval, boundary. Every subcommand
accepts ``--config FILE`` pointing at a JSON object whose keys match the
long flag names (underscored); explicit flags override config values,
which override built-in defaults.

Datasets are given either as a CSV path or as a moons spec:
``moons`` or ``moons:rot=30,n=300,sigma=0.1,seed=0,unknown=0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datasets import (
    Dataset,
    MoonsConfig,
    load_csv_dataset,
    make_open_set_variant,
    make_twin_moons,
)
from .errors import ParseError
from .metrics import build_report, decision_grid, save_grid_csv, write_report_json
from .model import init_model, load_checkpoint, save_checkpoint
from .orchestrator import (
    OBJECTIVES,
    AdaptConfig,
    adapt,
    pretrain_source,
    save_sweep_csv,
    sweep_beta,
)

_MOON_KEYS = ("rot", "n", "sigma", "seed", "unknown")


def parse_data_spec(spec: str, domain: str = "source") -> Dataset:
    """Either a path to a dataset CSV or a moons generator spec."""
    if not spec.startswith("moons"):
        return load_csv_dataset(spec, domain=domain)
    params = {"rot": 0.0, "n": 300, "sigma": 0.1, "seed": 0, "unknown": 0}
    if spec != "moons":
        if not spec.startswith("moons:"):
            raise ParseError(f"bad data spec {spec!r}")
        for part in spec[len("moons:"):].split(","):
            if "=" not in part:
                raise ParseError(f"bad moons parameter {part!r}")
            key, value = part.split("=", 1)
            if key not in _MOON_KEYS:
                raise ParseError(f"unknown moons parameter {key!r}")
            try:
                params[key] = int(value) if key in ("n", "seed", "unknown") else float(value)
            except ValueError:
                raise ParseError(f"bad moons parameter {part!r}") from None
    ds = make_twin_moons(MoonsConfig(n_per_class=params["n"], noise_sigma=params["sigma"],
                                     rotation_deg=params["rot"], seed=params["seed"]))
    if params["unknown"]:
        ds = make_open_set_variant(ds, params["unknown"], seed=params["seed"] + 1)
    return ds


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    return cfg


def _resolve(args, config: dict, key: str, default):
    """Flag value if given, else config value, else the built-in default.
    Subcommands that lack a flag entirely fall through the same way."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _add_common(sub):
    sub.add_argument("--config", default=None, help="JSON config file; flags override")
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfdalab",
        description="Source-free domain adaptation by neighborhood attraction and dispersion.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pretrain", help="train a source model with cross-entropy")
    p.add_argument("--data", required=True, help="source dataset (csv path or moons spec)")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--hidden1", type=int, default=None)
    p.add_argument("--hidden-feat", dest="hidden_feat", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("adapt", help="adapt a pretrained model to unlabeled target data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--target", required=True, help="target dataset (csv path or moons spec)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--objective", choices=OBJECTIVES, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--bank-mode", dest="bank_mode", choices=("full", "ring"), default=None)
    p.add_argument("--ring-capacity", dest="ring_capacity", type=int, default=None)
    p.add_argument("--out-history", dest="out_history", default=None)
    p.add_argument("--out", default=None, help="write the adapted checkpoint here")
    _add_common(p)

    p = subs.add_parser("sweep", help="sweep the decay exponent and pick by SND")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--betas", default=None, help="comma-separated, e.g. 0,1,2,5")
    p.add_argument("--seeds", type=int, default=None, help="number of seeds (0..n-1)")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--tau", type=float, default=None, help="SND temperature")
    _add_common(p)

    p = subs.add_parser("boundary", help="export a decision-boundary grid as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--x-min", dest="x_min", type=float, default=None)
    p.add_argument("--x-max", dest="x_max", type=float, default=None)
    p.add_argument("--y-min", dest="y_min", type=float, default=None)
    p.add_argument("--y-max", dest="y_max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    _add_common(p)
    return parser


def cmd_pretrain(args) -> int:
    config = _load_config(args.config)
    data = parse_data_spec(args.data, domain="source")
    model = init_model(
        d_in=data.dim,
        h1=_resolve(args, config, "hidden1", 15),
        h_feat=_resolve(args, config, "hidden_feat", 15),
        n_classes=max(data.num_classes, 2),
        seed=_resolve(args, config, "seed", 0),
    )
    model, report = pretrain_source(
        model, data,
        epochs=_resolve(args, config, "epochs", 200),
        lr=_resolve(args, config, "lr", 0.01),
        momentum=_resolve(args, config, "momentum", 0.9),
        seed=_resolve(args, config, "seed", 0),
        batch_size=_resolve(args, config, "batch_size", 64),
    )
    save_checkpoint(model, args.out)
    print(f"source accuracy {report.accuracy:.4f}, checkpoint -> {args.out}")
    return 0


def _adapt_config(args, config: dict) -> AdaptConfig:
    return AdaptConfig(
        k=_resolve(args, config, "k", 4),
        beta=_resolve(args, config, "beta", 0.25),
        batch_size=_resolve(args, config, "batch_size", 64),
        epochs=_resolve(args, config, "epochs", 300),
        lr=_resolve(args, config, "lr", 0.005),
        momentum=_resolve(args, config, "momentum", 0.7),
        bank_mode=_resolve(args, config, "bank_mode", "full"),
        ring_capacity=_resolve(args, config, "ring_capacity", 0),
        seed=_resolve(args, config, "seed", 0),
        objective=_resolve(args, config, "objective", "AaD"),
    )


def cmd_adapt(args) -> int:
    config = _load_config(args.config)
    model = load_checkpoint(args.ckpt)
    target = parse_data_spec(args.target, domain="target")
    cfg = _adapt_config(args, config)
    model, history = adapt(model, target, cfg)
    if args.out:
        save_checkpoint(model, args.out)
        history.checkpoint_path = str(args.out)
    if args.out_history:
        history.save(args.out_history)
    acc = history.acc[-1] if history.acc else None
    snd = history.snd[-1] if history.snd else None
    acc_txt = "n/a" if acc is None else f"{acc:.4f}"
    snd_txt = "n/a" if snd is None else f"{snd:.4f}"
    print(f"adapted with {cfg.objective}: final accuracy {acc_txt}, SND {snd_txt}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    model = load_checkpoint(args.ckpt)
    target = parse_data_spec(args.target, domain="target")
    betas_raw = _resolve(args, config, "betas", "0,1,2,5")
    if isinstance(betas_raw, str):
        betas_raw = [b for b in betas_raw.split(",") if b.strip()]
    betas = []
    for b in betas_raw:
        try:
            betas.append(float(b))
        except (TypeError, ValueError):
            raise ParseError(f"bad beta {b!r}") from None
    n_seeds = _resolve(args, config, "seeds", 3)
    base = _adapt_config(args, config)
    _, table = sweep_beta(model, target, betas, base, seeds=range(n_seeds))
    save_sweep_csv(args.out, table)
    for row in table:
        flag = "  <- selected by SND" if row["selected"] else ""
        acc_txt = "n/a" if row["acc"] is None else f"{row['acc']:.4f}"
        print(f"beta={row['beta']:g}  snd={row['snd']:.4f}  acc={acc_txt}{flag}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    model = load_checkpoint(args.ckpt)
    data = parse_data_spec(args.data, domain="target")
    report = build_report(model, data.X, data.labels, max(data.num_classes, model.n_classes),
                          tau=_resolve(args, config, "tau", 0.05))
    if args.out:
        write_report_json(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_boundary(args) -> int:
    config = _load_config(args.config)
    model = load_checkpoint(args.ckpt)
    x_range = (_resolve(args, config, "x_min", -1.5), _resolve(args, config, "x_max", 2.5))
    y_range = (_resolve(args, config, "y_min", -1.5), _resolve(args, config, "y_max", 2.0))
    xs, ys, labels = decision_grid(model, x_range, y_range,
                                   resolution=_resolve(args, config, "resolution", 101))
    save_grid_csv(args.out, xs, ys, labels)
    print(f"wrote {labels.size} grid labels -> {args.out}")
    return 0


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "adapt": cmd_adapt,
    "sweep": cmd_sweep,
    "eval": cmd_eval,
    "boundary": cmd_boundary,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
