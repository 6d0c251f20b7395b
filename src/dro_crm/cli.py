"""Command-line front end: `bench run | sweep | convert | eval`.

Configuration comes from a flat `key = value` text file; every field of the
experiment configuration is addressable, unknown keys are rejected, and CLI
flags override file values.  Lists are comma separated; integer ranges accept
"a..b" (inclusive); booleans are true/false, 1/0 or yes/no.  Grid keys are
grid_poem, grid_klcrm, grid_aklcrm.
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile

import numpy as np

from .bandit import (LoggerSpec, generate_bandit_log, load_multilabel_svmlight,
                     save_bandit_log, split_dataset, SplitSpec, train_logger,
                     evaluate_policy)
from .bench import (ExperimentConfig, default_grids, emit_results,
                    replay_sweep, run_experiment, write_sweep_csv)
from .errors import ContractViolation, DataFormatError
from .optim import OptimConfig
from .policy import PolicyParams


def _parse_int_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return tuple(out)


def _parse_float_list(text: str):
    return tuple(float(p) for p in text.split(",") if p.strip())


def read_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(text)
    return text.lower() in ("true", "1", "yes")


def _optional_int(text: str):
    return int(text) if text else None


def build_experiment_config(values: dict) -> ExperimentConfig:
    """The configuration of flat `key = value` entries.  Each key is read
    once; a key that is never read, or a value that does not parse, is a
    DataFormatError naming the key."""
    if "dataset" not in values:
        raise ContractViolation("config needs a 'dataset' entry")
    unread = dict(values)

    def take(key: str, parse=str, default=None):
        if key not in unread:
            return default
        text = unread.pop(key)
        try:
            return parse(text)
        except ValueError:
            raise DataFormatError(f"config key {key!r}: cannot parse {text!r}") from None

    grids = default_grids()
    for alg in ("poem", "klcrm", "aklcrm"):
        grid = take(f"grid_{alg}", _parse_float_list)
        if grid is not None:
            grids[alg] = np.array(grid)
    fields = dict(
        dataset=take("dataset"),
        test_dataset=take("test_dataset") or None,
        test_frac=take("test_frac", float, 0.25),
        algorithms=tuple(a.strip() for a in take(
            "algorithms", default="cips,poem,klcrm,aklcrm").split(",") if a.strip()),
        seeds=take("seeds", _parse_int_list, tuple(range(20))),
        delta=take("delta", int, 4),
        valid_delta=take("valid_delta", _optional_int),
        train_frac=take("train_frac", float, 0.75),
        logger_frac=take("logger_frac", float, 0.05),
        logger=LoggerSpec(l2=take("logger_l2", float, 1e-4),
                          alpha=take("logger_alpha", float, 0.5),
                          max_iters=take("logger_max_iters", int, 200)),
        grids=grids,
        optim=OptimConfig(memory=take("optim_memory", int, 10),
                          max_iters=take("optim_max_iters", int, 500),
                          grad_tol=take("optim_grad_tol", float, 1e-6),
                          f_tol=take("optim_f_tol", float, 1e-9)),
        add_bias=take("add_bias", _parse_bool, True),
        gamma_rule=take("gamma_rule", default="sum_sq"),
        freeze_weights=take("freeze_weights", _parse_bool, True),
        warm_start=take("warm_start", _parse_bool, False),
        out_dir=take("out_dir", default="bench_out"),
        threads=take("threads", _optional_int),
        save_params=take("save_params", _parse_bool, True))
    if unread:
        raise DataFormatError(
            f"unknown config key(s): {', '.join(repr(k) for k in sorted(unread))}")
    return ExperimentConfig(**fields)


def _config_from_args(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    for key in ("dataset", "test_dataset", "out_dir", "algorithms", "seeds",
                "delta", "threads"):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            values[key] = str(v)
    return build_experiment_config(values)


def _save_params(rows, out_dir):
    for r in rows:
        if r.params is None:
            continue
        path = os.path.join(out_dir, f"params_{r.algorithm}_seed{r.seed}.npz")
        np.savez(path, weights=r.params.weights)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    rows = run_experiment(cfg)
    paths = emit_results(rows, cfg.out_dir, config=cfg)
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
    spec = SplitSpec(seed=args.seed, logger_frac=args.logger_frac)
    train, _valid, logger_subset = split_dataset(ds, spec)
    logger = train_logger(logger_subset, LoggerSpec(alpha=args.logger_alpha))
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
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--dataset")
    p_run.add_argument("--test-dataset", dest="test_dataset")
    p_run.add_argument("--out-dir", dest="out_dir")
    p_run.add_argument("--algorithms")
    p_run.add_argument("--seeds")
    p_run.add_argument("--delta", type=int)
    p_run.add_argument("--threads", type=int)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="replay-count sweep")
    p_sweep.add_argument("--config", help="flat key=value config file")
    p_sweep.add_argument("--deltas", required=True, help="e.g. 1,4,16,64")
    p_sweep.add_argument("--sweep-seeds", dest="sweep_seeds")
    p_sweep.add_argument("--dataset")
    p_sweep.add_argument("--test-dataset", dest="test_dataset")
    p_sweep.add_argument("--out-dir", dest="out_dir")
    p_sweep.add_argument("--algorithms")
    p_sweep.add_argument("--threads", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("convert", help="write a bandit log from a dataset")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--delta", type=int, default=4)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--logger-frac", type=float, default=0.05)
    p_conv.add_argument("--logger-alpha", type=float, default=0.5)
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
