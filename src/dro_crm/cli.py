"""Command-line front end: `bench run | sweep | convert | eval`.

Configuration comes from a flat `key = value` text file in the format of
`CONFIG_KEYS`.  Unknown or repeated keys, values that do not parse and
non-finite numbers are errors; CLI flags override file values.  Lists are comma
separated; integer ranges accept "a..b" (inclusive).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from collections import Counter
from typing import Callable, Iterator, NamedTuple, Tuple

import numpy as np

from .bandit import (append_bias, evaluate_policy, load_multilabel_svmlight,
                     save_bandit_log)
from .bench import (ExperimentConfig, _seed_setup, default_grids, emit_results,
                    replay_sweep, run_experiment, write_results_csv)
from .errors import ContractViolation, DataFormatError, utf8_lines
from .objectives import RULES
from .policy import PolicyParams


def _list(parse):
    return lambda text: tuple(parse(p.strip()) for p in text.split(",") if p.strip())


def _parse_int_list(text: str):
    out = []
    for part in _list(str)(text):
        lo, dots, hi = part.partition("..")
        try:
            out.extend(range(int(lo), int(hi if dots else lo) + 1))
        except (OverflowError, MemoryError):  # a range too long to hold
            raise ValueError(part) from None
    return tuple(out)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _optional(parse):
    return lambda text: parse(text) if text else None


class _Key(NamedTuple):
    parse: Callable[[str], object]
    flag_in: Tuple[str, ...] = ()  # subcommands that also take the key as a --flag


_RUN_SWEEP = ("run", "sweep")
_EVAL_MODES = ("expected", "greedy")  # the order of evaluate_policy's pair
_GRID = "grid_"  # grid_<algorithm> replaces that algorithm's default grid

# The config format: each key sets the ExperimentConfig field of its name;
# the grid keys, one per RULES row with a hyper-parameter, set `grids` entries.
CONFIG_KEYS = {
    "dataset": _Key(str, _RUN_SWEEP),
    "test_dataset": _Key(_optional(str), _RUN_SWEEP),
    "algorithms": _Key(_list(str), _RUN_SWEEP),
    "seeds": _Key(_parse_int_list, _RUN_SWEEP),
    "delta": _Key(int, ("run",)),
    **{_GRID + alg: _Key(_list(_finite_float)) for alg, (name, *_) in RULES.items() if name},
    "optim_max_iters": _Key(int),
    "out_dir": _Key(str, _RUN_SWEEP),
    "threads": _Key(_optional(int), _RUN_SWEEP),
}


def read_config_file(path) -> dict:
    values, lines = {}, {}
    for lineno, raw in utf8_lines(path):
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
    fields, grids = {}, {}
    for key, text in values.items():
        try:
            value = CONFIG_KEYS[key].parse(text)
        except ValueError:
            raise DataFormatError(f"config key {key!r}: cannot parse {text!r}") from None
        (grids if key.startswith(_GRID) else fields)[key.removeprefix(_GRID)] = value
    if grids:
        fields["grids"] = {**default_grids(), **grids}
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
    for key in CONFIG_KEYS:
        if key.startswith(_GRID):
            yield key, _echo_text(cfg.grids.get(key.removeprefix(_GRID)))
        else:
            yield key, _echo_text(getattr(cfg, key))


def _config_from_args(args) -> ExperimentConfig:
    """The config file's entries, overridden by the flags given."""
    values = read_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:  # a flag given overrides the file entry
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return build_experiment_config(values)


def _report(rows, path) -> int:
    """One stderr line per failed cell, then, if any cell fitted, one that
    counts its fits by termination reason; then `path` on stdout.  The exit
    code, 1 when every cell failed."""
    failed = [r for r in rows if r.status == "failed"]
    for r in failed:
        print(f"[failed] {r.algorithm} delta={r.delta} seed={r.seed}: {r.message}",
              file=sys.stderr)
    census = Counter(reason for r in rows for reason in r.terminations)
    if census:
        counts = ", ".join(f"{n} {reason}" for reason, n in sorted(census.items()))
        print(f"[fits] {census.total()}: {counts}", file=sys.stderr)
    print(path)
    return 1 if failed and len(failed) == len(rows) else 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)  # an unusable out_dir fails before any cell
    rows = run_experiment(cfg)
    paths = emit_results(rows, cfg.out_dir, config_echo(cfg))
    for r in rows:
        if r.params is not None:
            np.save(os.path.join(cfg.out_dir, f"params_{r.algorithm}_seed{r.seed}.npy"),
                    r.params.weights)
    return _report(rows, paths["results"])


def cmd_sweep(args) -> int:
    """`run` at each of --deltas, all rows in sweep.csv under results.csv's header."""
    try:
        deltas = _parse_int_list(args.deltas)
    except ValueError:
        raise DataFormatError(f"--deltas: cannot parse {args.deltas!r}") from None
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = replay_sweep(cfg, deltas)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    write_results_csv(rows, path)
    return _report(rows, path)


def cmd_convert(args) -> int:
    """The train log of `bench run --dataset <input>` at this seed and delta."""
    cfg = ExperimentConfig(args.input, seeds=(args.seed,), delta=args.delta)
    log = _seed_setup(cfg, args.seed).train_log
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bandit_log.csv")
    meta_path = os.path.join(args.out, "bandit_log.meta")
    save_bandit_log(log, csv_path, meta_path, args.seed)
    print(csv_path)
    return 0


def _load_params(path) -> PolicyParams:
    """Policy parameters from the real numeric weights array of a .npy file.
    A file that is not a .npy (text, empty, a zip archive), one cut short,
    an object array (which would need pickle), a header whose shape numpy
    cannot allocate, or weights of another kind (string, complex, bool) is a
    DataFormatError naming the file."""
    try:
        with open(path, "rb") as fh:
            weights = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, MemoryError) as exc:
        raise DataFormatError(f"{path}: damaged 'weights' array ({exc})") from None
    if weights.dtype.kind not in "iuf":
        raise DataFormatError(f"{path}: 'weights' is not a real numeric array")
    return PolicyParams(weights)


def cmd_eval(args) -> int:
    params = _load_params(args.params)
    if params.n_features < 1:
        raise ContractViolation("params have no bias column")
    # Read at the params' width less the bias column, so a file that never
    # uses the top feature indices is padded as `run` pads it.  Labels are not:
    # the params do not record which label-id convention they were fitted on.
    test = append_bias(load_multilabel_svmlight(
        args.test, n_features=params.n_features - 1)[0])
    if test.n_labels != params.n_labels:
        raise ContractViolation(
            f"test labels ({test.n_labels}) do not match params ({params.n_labels})")
    losses = dict(zip(_EVAL_MODES, evaluate_policy(params, test)))
    print(f"{losses[args.mode]:.6g}")
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
    p_sweep.set_defaults(func=cmd_sweep)

    for name, p in (("run", p_run), ("sweep", p_sweep)):
        p.add_argument("--config", help="flat key=value config file")
        for key, entry in CONFIG_KEYS.items():
            if name in entry.flag_in:
                p.add_argument("--" + key.replace("_", "-"), dest=key)

    p_conv = sub.add_parser("convert", help="write a bandit log from a dataset")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--delta", type=int, default=ExperimentConfig.delta)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.set_defaults(func=cmd_convert)

    p_eval = sub.add_parser("eval", help="evaluate saved policy parameters")
    p_eval.add_argument("--params", required=True, help=".npy weights")
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--mode", choices=_EVAL_MODES, default="expected")
    p_eval.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
