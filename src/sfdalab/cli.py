"""Command-line interface.

Subcommands: pretrain, adapt, sweep, eval, boundary. Every subcommand
accepts ``--config FILE`` pointing at a JSON object whose keys match the
long flag names (underscored). An explicit flag overrides the config
value, which overrides the default; a JSON ``null`` counts as not set.
The CLI passes the library only the values it was given, so defaults
come from ``AdaptConfig``, ``MoonsConfig`` and ``pretrain_source``
themselves; ``cli.py`` keeps only its own (model widths, pretraining
epochs and learning rate, the sweep's betas and seed count, the
boundary plot's bounds).

Datasets are given either as a CSV path or as a moons spec:
``moons`` or ``moons:rot=30,n=300,sigma=0.1,seed=0``, whose keys set
``MoonsConfig`` fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bank import MODES
from .datasets import Dataset, MoonsConfig, load_csv_dataset, make_twin_moons, read_utf8
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

# moons spec key -> (MoonsConfig field, type)
_MOON_KEYS = {
    "rot": ("rotation_deg", float),
    "n": ("n_per_class", int),
    "sigma": ("noise_sigma", float),
    "seed": ("seed", int),
}


def parse_data_spec(spec: str) -> Dataset:
    """Either a path to a dataset CSV or a moons generator spec."""
    if not spec.startswith("moons"):
        return load_csv_dataset(spec)
    if spec == "moons":
        parts = []
    elif spec.startswith("moons:"):
        parts = spec[len("moons:"):].split(",")
    else:
        raise ParseError(f"bad data spec {spec!r}")
    params = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"bad moons parameter {part!r}")
        if key not in _MOON_KEYS:
            raise ParseError(f"unknown moons parameter {key!r}")
        name, kind = _MOON_KEYS[key]
        try:
            params[name] = kind(value)
        except ValueError:
            raise ParseError(f"bad moons parameter {part!r}") from None
    return make_twin_moons(MoonsConfig(**params))


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    for key, value in cfg.items():
        if key in _FLAGS and value is not None:
            _check_config_type(key, value)
    return cfg


# The JSON types a config value may take, by the type its flag declares
# (str when it declares none). JSON true and false load as bools, which
# count as no number here.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _check_config_type(key: str, value) -> None:
    """Raise ParseError unless ``value`` has a JSON type that the flag
    ``key`` takes; ``betas`` may also be a list of numbers."""
    types, kind = _JSON_TYPES[_FLAGS[key].get("type", str)]
    if key == "betas":
        kind = "a string or a list of numbers"
        if type(value) is list and all(type(b) in _JSON_TYPES[float][0] for b in value):
            return
    if type(value) not in types:
        raise ParseError(f"config key {key!r} must be {kind}, got {value!r}")


def _pick(given: dict, names) -> dict:
    """The values among ``names`` that flags or the config gave, as
    keyword arguments; a name left out keeps the callee's default."""
    return {name: given[name] for name in names if name in given}


# Every flag, once, by destination: its argparse keywords. No flag has a
# default, so an omitted flag reads None and the config or the library
# decides. ``--out`` takes its help from the subcommand table.
_FLAGS = {
    "data": dict(help="dataset (csv path or moons spec)"),
    "target": dict(help="target dataset (csv path or moons spec)"),
    "ckpt": dict(help="checkpoint to read"),
    "out": {},
    "out_history": dict(help="write the run history JSON here"),
    "epochs": dict(type=int),
    "batch_size": dict(type=int),
    "lr": dict(type=float),
    "momentum": dict(type=float),
    "hidden1": dict(type=int),
    "hidden_feat": dict(type=int),
    "k": dict(type=int),
    "beta": dict(type=float),
    "objective": dict(choices=OBJECTIVES),
    "bank_mode": dict(choices=MODES),
    "ring_capacity": dict(type=int),
    "betas": dict(help="comma-separated, e.g. 0,1,2,5"),
    "seeds": dict(type=int, help="number of seeds (0..n-1)"),
    "x_min": dict(type=float),
    "x_max": dict(type=float),
    "y_min": dict(type=float),
    "y_max": dict(type=float),
    "resolution": dict(type=int),
    "config": dict(help="JSON config file; flags override"),
    "seed": dict(type=int),
}
_TRAINING = ("epochs", "batch_size", "lr", "momentum")
_ADAPT = ("k", "beta", "objective", "bank_mode", "ring_capacity", *_TRAINING)


def _adapt_config(given: dict) -> AdaptConfig:
    """The flag and config values of the AdaptConfig fields; the fields
    not given keep their defaults."""
    return AdaptConfig(**_pick(given, (*_ADAPT, "seed")))


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_pretrain(args, given: dict) -> int:
    data = parse_data_spec(args.data)
    model = init_model(data.dim, given.get("hidden1", 15), given.get("hidden_feat", 15),
                       max(data.num_classes, 2), **_pick(given, ("seed",)))
    model, report = pretrain_source(model, data, given.get("epochs", 200), given.get("lr", 0.01),
                                    **_pick(given, ("momentum", "seed", "batch_size")))
    save_checkpoint(model, args.out)
    print(f"source accuracy {report.accuracy:.4f}, checkpoint -> {args.out}")
    return 0


def cmd_adapt(args, given: dict) -> int:
    model = load_checkpoint(args.ckpt)
    target = parse_data_spec(args.target)
    cfg = _adapt_config(given)
    model, history = adapt(model, target, cfg)
    if args.out:
        save_checkpoint(model, args.out)
        history.checkpoint_path = str(args.out)
    if args.out_history:
        history.save(args.out_history)
    acc = history.acc[-1] if history.acc else None
    snd = history.snd[-1] if history.snd else None
    print(f"adapted with {cfg.objective}: final accuracy {_fmt(acc)}, SND {_fmt(snd)}")
    return 0


def cmd_sweep(args, given: dict) -> int:
    model = load_checkpoint(args.ckpt)
    target = parse_data_spec(args.target)
    betas_raw = given.get("betas", "0,1,2,5")
    if isinstance(betas_raw, str):
        betas_raw = [b for b in betas_raw.split(",") if b.strip()]
    betas = []
    for b in betas_raw:
        try:
            betas.append(float(b))
        except ValueError:
            raise ParseError(f"bad beta {b!r}") from None
    _, table = sweep_beta(model, target, betas, _adapt_config(given),
                          seeds=range(given.get("seeds", 3)))
    save_sweep_csv(args.out, table)
    for row in table:
        flag = "  <- selected by SND" if row["selected"] else ""
        print(f"beta={row['beta']:g}  snd={row['snd']:.4f}  acc={_fmt(row['acc'])}{flag}")
    return 0


def cmd_eval(args, given: dict) -> int:
    model = load_checkpoint(args.ckpt)
    data = parse_data_spec(args.data)
    report = build_report(model, data.X, data.labels, max(data.num_classes, model.n_classes))
    if args.out:
        write_report_json(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_boundary(args, given: dict) -> int:
    model = load_checkpoint(args.ckpt)
    x_range = (given.get("x_min", -1.5), given.get("x_max", 2.5))
    y_range = (given.get("y_min", -1.5), given.get("y_max", 2.0))
    xs, ys, labels = decision_grid(model, x_range, y_range, **_pick(given, ("resolution",)))
    save_grid_csv(args.out, xs, ys, labels)
    print(f"wrote {labels.size} grid labels -> {args.out}")
    return 0


# name -> (command, help, required flags, optional flags, help of --out);
# every subcommand also takes --config
_SUBCOMMANDS = {
    "pretrain": (cmd_pretrain, "train a source model with cross-entropy",
                 ("data", "out"), (*_TRAINING, "hidden1", "hidden_feat", "seed"),
                 "checkpoint path to write"),
    "adapt": (cmd_adapt, "adapt a pretrained model to unlabeled target data",
              ("ckpt", "target"), (*_ADAPT, "seed", "out_history", "out"),
              "write the adapted checkpoint here"),
    "sweep": (cmd_sweep, "sweep the decay exponent and pick by SND",
              ("ckpt", "target", "out"), ("betas", "seeds", "k", *_TRAINING),
              "summary CSV path"),
    "eval": (cmd_eval, "score a checkpoint on a dataset",
             ("ckpt", "data"), ("out",), "report JSON path"),
    "boundary": (cmd_boundary, "export a decision-boundary grid as CSV",
                 ("ckpt", "out"), ("x_min", "x_max", "y_min", "y_max", "resolution"),
                 "grid CSV path"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfdalab",
        description="Source-free domain adaptation by neighborhood attraction and dispersion.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, required, optional, out_help) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_)
        for dest in (*required, *optional, "config"):
            kwargs = dict(_FLAGS[dest], help=out_help) if dest == "out" else _FLAGS[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           required=dest in required, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = {k: v for k, v in _load_config(args.config).items() if v is not None}
    given.update((k, v) for k, v in vars(args).items() if v is not None)
    return _SUBCOMMANDS[args.command][0](args, given)


if __name__ == "__main__":
    sys.exit(main())
