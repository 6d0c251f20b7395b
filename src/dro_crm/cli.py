"""Command-line front end: `bench run | sweep | convert | eval`.

Configuration comes from a flat `key = value` text file in the format of
`CONFIG_KEYS`.  Unknown or repeated keys, values that do not parse and
non-finite numbers are errors; CLI flags override file values.  Lists are comma
separated; integer ranges accept "a..b" (inclusive); booleans are true/false,
1/0 or yes/no.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import zipfile
from typing import Callable, Iterator, NamedTuple, Tuple

import numpy as np

from .bandit import (LoggerSpec, generate_bandit_log, load_multilabel_svmlight,
                     save_bandit_log, split_dataset, SplitSpec, train_logger,
                     evaluate_policy)
from .bench import (ExperimentConfig, default_grids, emit_results,
                    replay_sweep, run_experiment, write_sweep_csv)
from .errors import ContractViolation, DataFormatError
from .optim import OptimConfig
from .policy import PolicyParams


def _list(parse):
    return lambda text: tuple(parse(p.strip()) for p in text.split(",") if p.strip())


def _parse_int_list(text: str):
    out = []
    for part in _list(str)(text):
        lo, dots, hi = part.partition("..")
        out.extend(range(int(lo), int(hi if dots else lo) + 1))
    return tuple(out)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _optional(parse):
    return lambda text: parse(text) if text else None


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(text)
    return text.lower() in ("true", "1", "yes")


class _Key(NamedTuple):
    parse: Callable[[str], object]
    owner: str = ""             # ExperimentConfig field the key sets a part of, if any
    name: str = ""              # the field it sets; "" means the key itself
    flag_in: Tuple[str, ...] = ()  # subcommands that also take the key as a --flag


_RUN_SWEEP = ("run", "sweep")

# The config format.  Owner "logger" sets a LoggerSpec field, "optim" an
# OptimConfig field and "grids" replaces one algorithm's grid.
CONFIG_KEYS = {
    "dataset": _Key(str, flag_in=_RUN_SWEEP),
    "test_dataset": _Key(_optional(str), flag_in=_RUN_SWEEP),
    "test_frac": _Key(_finite_float),
    "algorithms": _Key(_list(str), flag_in=_RUN_SWEEP),
    "seeds": _Key(_parse_int_list, flag_in=("run",)),
    "delta": _Key(int, flag_in=("run",)),
    "valid_delta": _Key(_optional(int)),
    "train_frac": _Key(_finite_float),
    "logger_frac": _Key(_finite_float),
    "logger_l2": _Key(_finite_float, "logger", "l2"),
    "logger_alpha": _Key(_finite_float, "logger", "alpha"),
    "logger_max_iters": _Key(int, "logger", "max_iters"),
    "grid_poem": _Key(_list(_finite_float), "grids", "poem"),
    "grid_klcrm": _Key(_list(_finite_float), "grids", "klcrm"),
    "grid_aklcrm": _Key(_list(_finite_float), "grids", "aklcrm"),
    "optim_memory": _Key(int, "optim", "memory"),
    "optim_max_iters": _Key(int, "optim", "max_iters"),
    "optim_grad_tol": _Key(_finite_float, "optim", "grad_tol"),
    "optim_f_tol": _Key(_finite_float, "optim", "f_tol"),
    "add_bias": _Key(_parse_bool),
    "warm_start": _Key(_parse_bool),
    "out_dir": _Key(str, flag_in=_RUN_SWEEP),
    "threads": _Key(_optional(int), flag_in=_RUN_SWEEP),
    "save_params": _Key(_parse_bool),
}

# How the parts an owner's keys set become that ExperimentConfig field.
_OWNERS = {"logger": LoggerSpec, "optim": OptimConfig,
           "grids": lambda **grids: {**default_grids(), **grids}}


def read_config_file(path) -> dict:
    values, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise DataFormatError(
                    f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
            values[key], lines[key] = value, lineno
    return values


def build_experiment_config(values: dict) -> ExperimentConfig:
    """The configuration of flat `key = value` entries.  A key outside
    CONFIG_KEYS, or a value that does not parse, is a DataFormatError naming
    the key; fields without an entry keep their dataclass defaults."""
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise DataFormatError(
            f"unknown config key(s): {', '.join(repr(k) for k in unknown)}")
    fields: dict = {}
    parts = {owner: {} for owner in _OWNERS}
    for key, text in values.items():
        entry = CONFIG_KEYS[key]
        try:
            value = entry.parse(text)
        except ValueError:
            raise DataFormatError(f"config key {key!r}: cannot parse {text!r}") from None
        (parts[entry.owner] if entry.owner else fields)[entry.name or key] = value
    for owner, given in parts.items():
        if given:
            fields[owner] = _OWNERS[owner](**given)
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is f.default_factory is dataclasses.MISSING and f.name not in fields:
            raise ContractViolation(f"config needs a {f.name!r} entry")
    return ExperimentConfig(**fields)


def _echo_text(value) -> str:
    """Config text that parses back to `value`; floats use repr, so they come back exactly."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_echo_text(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def config_echo(cfg: ExperimentConfig) -> Iterator[Tuple[str, str]]:
    """(key, text) for every key of CONFIG_KEYS, as run_meta records them."""
    for key, (_, owner, name, _) in CONFIG_KEYS.items():
        if owner == "grids":
            yield key, _echo_text(cfg.grids.get(name))
        else:
            yield key, _echo_text(getattr(getattr(cfg, owner) if owner else cfg, name or key))


def _config_from_args(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    values.update(_given(**{key: getattr(args, key, None) for key in CONFIG_KEYS}))
    return build_experiment_config(values)


def _given(**values) -> dict:
    """The arguments that were given, so the dataclass defaults fill the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _save_params(rows, out_dir):
    for r in rows:
        if r.params is None:
            continue
        path = os.path.join(out_dir, f"params_{r.algorithm}_seed{r.seed}.npz")
        np.savez(path, weights=r.params.weights)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    rows = run_experiment(cfg)
    paths = emit_results(rows, cfg.out_dir, config_echo(cfg))
    if cfg.save_params:
        _save_params(rows, cfg.out_dir)
    failed = [r for r in rows if r.status == "failed"]
    for r in failed:
        print(f"[failed] {r.algorithm} seed={r.seed}: {r.message}", file=sys.stderr)
    print(paths["results"])
    return 1 if failed and len(failed) == len(rows) else 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    deltas = _parse_int_list(args.deltas)
    seeds = _parse_int_list(args.sweep_seeds) if args.sweep_seeds else None
    rows = replay_sweep(cfg, deltas, seeds)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    write_sweep_csv(rows, path)
    print(path)
    return 0


def cmd_convert(args) -> int:
    ds = load_multilabel_svmlight(args.input, add_bias=not args.no_bias)
    spec = SplitSpec(seed=args.seed, **_given(logger_frac=args.logger_frac))
    train, _valid, logger_subset = split_dataset(ds, spec)
    logger = train_logger(logger_subset, LoggerSpec(**_given(alpha=args.logger_alpha)))
    log = generate_bandit_log(logger, train, args.delta, args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bandit_log.csv")
    meta_path = os.path.join(args.out, "bandit_log.meta")
    save_bandit_log(log, csv_path, meta_path)
    print(csv_path)
    return 0


def _load_params(path) -> PolicyParams:
    """Policy parameters from the 'weights' array of an .npz archive."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):  # also a plain .npy array
        raise DataFormatError(f"{path}: not an .npz archive")
    with data:
        if "weights" not in data.files:
            raise DataFormatError(f"{path}: no 'weights' array")
        return PolicyParams(data["weights"])


def cmd_eval(args) -> int:
    params = _load_params(args.params)
    test = load_multilabel_svmlight(args.test, add_bias=not args.no_bias)
    if test.n_features != params.n_features:
        raise ContractViolation(
            f"test features ({test.n_features}) do not match params "
            f"({params.n_features}); check the bias flag")
    print(f"{evaluate_policy(params, test, args.mode):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Train and evaluate counterfactual policies from logged "
                    "bandit feedback (robust and variance-penalized objectives).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full benchmark: all algorithms x seeds")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="replay-count sweep")
    p_sweep.add_argument("--deltas", required=True, help="e.g. 1,4,16,64")
    p_sweep.add_argument("--sweep-seeds", dest="sweep_seeds")
    p_sweep.set_defaults(func=cmd_sweep)

    for name, p in (("run", p_run), ("sweep", p_sweep)):
        p.add_argument("--config", help="flat key=value config file")
        for key, entry in CONFIG_KEYS.items():
            if name in entry.flag_in:
                p.add_argument("--" + key.replace("_", "-"), dest=key)

    p_conv = sub.add_parser("convert", help="write a bandit log from a dataset")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--delta", type=int, default=4)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--logger-frac", type=_finite_float)
    p_conv.add_argument("--logger-alpha", type=_finite_float)
    p_conv.add_argument("--no-bias", action="store_true")
    p_conv.set_defaults(func=cmd_convert)

    p_eval = sub.add_parser("eval", help="evaluate saved policy parameters")
    p_eval.add_argument("--params", required=True, help=".npz with 'weights'")
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--mode", choices=("expected", "greedy"), default="expected")
    p_eval.add_argument("--no-bias", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
