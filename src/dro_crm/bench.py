"""Experiment orchestration: end-to-end runs, hyper-parameter selection,
replay-count sweeps, significance testing, and CSV emission.

One cell = (algorithm, seed).  Each cell splits the data, trains the logging
policy on a small fraction of the train pool, generates train and validation
bandit logs, minimizes the algorithm's objective at every grid point, selects
the grid point with the lowest unclipped importance-weighted validation risk,
and reports exact expected and greedy Hamming loss on the test set, alongside
the logging policy and a fully supervised skyline fit of the same family.

Cells are independent: they may be scheduled on a process pool of `threads`
workers; rows are keyed and sorted afterwards, and a single-worker run writes
byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bandit import (LoggerSpec, SplitSpec, SupervisedDataset, append_bias,
                     evaluate_policy, generate_bandit_log, ips_validation_score,
                     load_multilabel_svmlight, split_dataset, train_logger)
from .errors import ContractViolation
from .objectives import RULES, make_objective
from .optim import OptimConfig, minimize
from .policy import PolicyParams
from .special import student_t_sf

ALGORITHMS = tuple(RULES)

_VALID_LOG_STREAM = 1  # train logs use stream 0


def default_grids() -> Dict[str, np.ndarray]:
    """Log-spaced search ranges: penalty 1e-6..1, temperature 1e-3..1e4,
    radius 1e-6..1; 8 points each.  The plain clipped estimator has no grid."""
    return {
        "poem": 10.0 ** np.linspace(-6.0, 0.0, 8),
        "klcrm": 10.0 ** np.linspace(-3.0, 4.0, 8),
        "aklcrm": 10.0 ** np.linspace(-6.0, 0.0, 8),
    }


@dataclass
class ExperimentConfig:
    dataset: str
    test_dataset: Optional[str] = None
    test_frac: float = 0.25               # used only when test_dataset is None
    algorithms: Tuple[str, ...] = ALGORITHMS
    seeds: Tuple[int, ...] = tuple(range(20))
    delta: int = 4
    valid_delta: Optional[int] = None     # defaults to delta
    train_frac: float = 0.75
    logger_frac: float = 0.05
    logger: LoggerSpec = field(default_factory=LoggerSpec)
    grids: Dict[str, Sequence[float]] = field(default_factory=default_grids)
    optim: OptimConfig = field(default_factory=OptimConfig)
    add_bias: bool = True
    warm_start: bool = False      # start each fit from the logger's weights
    out_dir: str = "bench_out"
    threads: Optional[int] = None         # pool workers; defaults to the CPU count
    save_params: bool = True

    def __post_init__(self):
        if len(set(self.seeds)) != len(self.seeds):
            raise ContractViolation("seeds must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ContractViolation(f"seeds must be non-negative, got {min(self.seeds)}")
        for name in ("delta", "valid_delta", "threads"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractViolation(f"{name} must be at least 1, got {value}")
        fractions = ("train_frac", "logger_frac") + (
            ("test_frac",) if self.test_dataset is None else ())
        for name in fractions:
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ContractViolation(f"{name} must lie in (0, 1), got {value}")
        for alg, grid in self.grids.items():
            # poem's penalty may be zero; a temperature or a radius may not
            bad = [v for v in grid if not (v >= 0.0 if alg == "poem" else v > 0.0)]
            if bad:
                sign = "non-negative" if alg == "poem" else "positive"
                raise ContractViolation(f"{alg} grid values must be {sign}, got {bad[0]}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ContractViolation(f"unknown algorithm {alg!r}")
            if alg != "cips" and not len(self.grids.get(alg, ())):
                raise ContractViolation(f"algorithm {alg!r} needs a non-empty grid")

    def worker_count(self) -> int:
        return self.threads if self.threads is not None else (os.cpu_count() or 1)


@dataclass
class ResultRow:
    dataset: str
    algorithm: str
    seed: int
    delta: int
    hyper_name: str
    hyper_value: float
    expected_loss: float
    greedy_loss: float
    valid_score: float
    logger_expected: float
    logger_greedy: float
    skyline_expected: float
    skyline_greedy: float
    grid_scores: Tuple[float, ...]
    status: str = "ok"
    message: str = ""
    wall_time_s: float = 0.0
    params: Optional[PolicyParams] = None


_HYPER_NAME = {alg: name for alg, (name, _) in RULES.items()} | {"baseline": ""}


def _pad_columns(ds: SupervisedDataset, d: int, q: int) -> SupervisedDataset:
    X = ds.X if ds.n_features == d else np.hstack(
        [ds.X, np.zeros((ds.n_examples, d - ds.n_features))])
    Y = ds.Y if ds.n_labels == q else np.hstack(
        [ds.Y, np.zeros((ds.n_examples, q - ds.n_labels))])
    return SupervisedDataset(X, Y, has_bias=ds.has_bias, label_base=ds.label_base)


def _load_pools(cfg: ExperimentConfig, seed: int
                ) -> Tuple[SupervisedDataset, SupervisedDataset]:
    """(non-test pool, test set).  Without a test file, a test fraction is
    carved from the file deterministically per seed before the 75/25 split.
    A separate test file is parsed with the pool's label convention and both
    are padded to common feature/label dimensions."""
    full = load_multilabel_svmlight(cfg.dataset, add_bias=False)
    if cfg.test_dataset is not None:
        test = load_multilabel_svmlight(cfg.test_dataset, add_bias=False,
                                        zero_based=full.label_base == 0)
        d = max(full.n_features, test.n_features)
        q = max(full.n_labels, test.n_labels)
        full, test = _pad_columns(full, d, q), _pad_columns(test, d, q)
    else:
        perm = np.random.default_rng((seed, 0xD5)).permutation(full.n_examples)
        n_test = int(cfg.test_frac * full.n_examples)
        full, test = full.subset(perm[n_test:]), full.subset(perm[:n_test])
    if cfg.add_bias:
        full, test = append_bias(full), append_bias(test)
    return full, test


def run_single(cfg: ExperimentConfig, algorithm: str, seed: int) -> ResultRow:
    """Run one (algorithm, seed) cell; failures are captured in the row."""
    t0 = time.perf_counter()
    try:
        row = _run_single_inner(cfg, algorithm, seed)
    except Exception as exc:  # the run continues with other cells
        row = ResultRow(cfg.dataset, algorithm, seed, cfg.delta,
                        _HYPER_NAME[algorithm], math.nan, math.nan, math.nan,
                        math.nan, math.nan, math.nan, math.nan, math.nan, (),
                        status="failed", message=f"{type(exc).__name__}: {exc}")
    row.wall_time_s = time.perf_counter() - t0
    return row


def _run_single_inner(cfg: ExperimentConfig, algorithm: str, seed: int) -> ResultRow:
    pool, test = _load_pools(cfg, seed)
    split = SplitSpec(cfg.train_frac, 1.0 - cfg.train_frac, cfg.logger_frac, seed)
    train, valid, logger_subset = split_dataset(pool, split)

    logger = train_logger(logger_subset, cfg.logger)
    skyline = train_logger(train, LoggerSpec(l2=cfg.logger.l2, alpha=1.0,
                                             max_iters=cfg.logger.max_iters))
    if algorithm == "baseline":
        return ResultRow(
            dataset=cfg.dataset, algorithm=algorithm, seed=seed, delta=cfg.delta,
            hyper_name="", hyper_value=math.nan, expected_loss=math.nan,
            greedy_loss=math.nan, valid_score=math.nan,
            logger_expected=evaluate_policy(logger, test, "expected"),
            logger_greedy=evaluate_policy(logger, test, "greedy"),
            skyline_expected=evaluate_policy(skyline, test, "expected"),
            skyline_greedy=evaluate_policy(skyline, test, "greedy"),
            grid_scores=(), status="baseline")

    train_log = generate_bandit_log(logger, train, cfg.delta, seed, stream=0)
    valid_log = generate_bandit_log(logger, valid, cfg.valid_delta or cfg.delta,
                                    seed, stream=_VALID_LOG_STREAM)

    grid = [None] if algorithm == "cips" else [float(h) for h in cfg.grids[algorithm]]
    candidates: List[PolicyParams] = []
    scores: List[float] = []
    for hyper in grid:
        fun, shape = make_objective(algorithm, train_log, hyper)
        theta0 = logger.weights.ravel() if cfg.warm_start else np.zeros(shape[0] * shape[1])
        theta, _ = minimize(fun, theta0, cfg.optim)
        params = PolicyParams(theta.reshape(shape))
        candidates.append(params)
        scores.append(ips_validation_score(params, valid_log))

    best = int(np.argmin(scores))
    chosen = candidates[best]
    hyper_value = math.nan if grid[best] is None else float(grid[best])

    return ResultRow(
        dataset=cfg.dataset, algorithm=algorithm, seed=seed, delta=cfg.delta,
        hyper_name=_HYPER_NAME[algorithm], hyper_value=hyper_value,
        expected_loss=evaluate_policy(chosen, test, "expected"),
        greedy_loss=evaluate_policy(chosen, test, "greedy"),
        valid_score=scores[best],
        logger_expected=evaluate_policy(logger, test, "expected"),
        logger_greedy=evaluate_policy(logger, test, "greedy"),
        skyline_expected=evaluate_policy(skyline, test, "expected"),
        skyline_greedy=evaluate_policy(skyline, test, "greedy"),
        grid_scores=tuple(scores), params=chosen)


# ---------------------------------------------------------------------------
# Significance testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    p_value: float
    t_stat: float
    dof: int
    degenerate: bool = False


def paired_t_test_one_tailed(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """One-tailed paired t-test of H1: mean(a - b) > 0.

    t = mean(d) / (sd(d) / sqrt(k)) with sd using divisor k-1; the p-value is
    the Student-t upper tail via the regularized incomplete beta.  Zero-variance
    differences are degenerate: p = 0.5 when all differences vanish, else the
    limit 0 (positive mean) or 1 (negative mean), all flagged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ContractViolation("need two equal-length vectors with k >= 2")
    d = a - b
    k = d.size
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.5, 0.0, k - 1, degenerate=True)
        return TTestResult(0.0 if mean > 0.0 else 1.0,
                           math.inf if mean > 0.0 else -math.inf,
                           k - 1, degenerate=True)
    t = mean / (sd / math.sqrt(k))
    return TTestResult(student_t_sf(t, k - 1), t, k - 1)


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.6g}"
    return str(x)


RESULTS_HEADER = ("dataset,algorithm,seed,delta,hyper_name,hyper_value,"
                  "expected_loss,greedy_loss,valid_score,logger_expected,"
                  "logger_greedy,skyline_expected,skyline_greedy,grid_scores,status")


def emit_results(rows: List[ResultRow], out_dir,
                 meta: Iterable[Tuple[str, str]] = ()) -> Dict[str, str]:
    """Write results.csv (one row per cell, no timings), summary.csv
    (per-algorithm mean, standard error, p-value against the best algorithm),
    timings.csv, and run_meta (versions, then the `key = value` pairs of
    `meta`).  All numbers use 6 significant digits.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    rows = sorted(rows, key=lambda r: (r.algorithm, r.seed))

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in rows:
            grid_str = ";".join(_fmt(s) for s in r.grid_scores)
            fh.write(",".join([
                r.dataset, r.algorithm, str(r.seed), str(r.delta), r.hyper_name,
                _fmt(r.hyper_value), _fmt(r.expected_loss), _fmt(r.greedy_loss),
                _fmt(r.valid_score), _fmt(r.logger_expected), _fmt(r.logger_greedy),
                _fmt(r.skyline_expected), _fmt(r.skyline_greedy), grid_str,
                r.status]) + "\n")

    timings_path = os.path.join(out_dir, "timings.csv")
    with open(timings_path, "w", encoding="utf-8") as fh:
        fh.write("algorithm,seed,wall_time_s\n")
        for r in rows:
            fh.write(f"{r.algorithm},{r.seed},{r.wall_time_s:.3f}\n")

    usable = [r for r in rows if r.status in ("ok", "baseline")]
    ok = [r for r in rows if r.status == "ok"]
    by_alg: Dict[str, List[ResultRow]] = {}
    for r in ok:
        by_alg.setdefault(r.algorithm, []).append(r)

    means = {alg: float(np.mean([r.expected_loss for r in rs]))
             for alg, rs in by_alg.items()}
    best_alg = min(means, key=means.get) if means else None

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("algorithm,n_seeds,mean_expected,se_expected,mean_greedy,"
                 "se_greedy,p_value_vs_best\n")
        if usable:
            any_rows = sorted(usable, key=lambda r: r.seed)
            base = {}
            for r in any_rows:
                base.setdefault(r.seed, r)
            pi0 = [base[s].logger_expected for s in sorted(base)]
            pi0_g = [base[s].logger_greedy for s in sorted(base)]
            sky = [base[s].skyline_expected for s in sorted(base)]
            sky_g = [base[s].skyline_greedy for s in sorted(base)]
            for name, exp_vals, gr_vals in (("pi0", pi0, pi0_g), ("crf", sky, sky_g)):
                fh.write(",".join([
                    name, str(len(exp_vals)), _fmt(float(np.mean(exp_vals))),
                    _fmt(_stderr(exp_vals)), _fmt(float(np.mean(gr_vals))),
                    _fmt(_stderr(gr_vals)), ""]) + "\n")
        for alg in sorted(by_alg):
            rs = sorted(by_alg[alg], key=lambda r: r.seed)
            exp_vals = [r.expected_loss for r in rs]
            gr_vals = [r.greedy_loss for r in rs]
            if alg == best_alg or len(rs) < 2:
                p_str = ""
            else:
                best_rs = {r.seed: r for r in by_alg[best_alg]}
                pairs = [(r.expected_loss, best_rs[r.seed].expected_loss)
                         for r in rs if r.seed in best_rs]
                if len(pairs) >= 2:
                    p = paired_t_test_one_tailed([x for x, _ in pairs],
                                                 [y for _, y in pairs]).p_value
                    p_str = _fmt(p)
                else:
                    p_str = ""
            fh.write(",".join([
                alg, str(len(rs)), _fmt(float(np.mean(exp_vals))),
                _fmt(_stderr(exp_vals)), _fmt(float(np.mean(gr_vals))),
                _fmt(_stderr(gr_vals)), p_str]) + "\n")

    meta_path = os.path.join(out_dir, "run_meta")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"version = {__version__}\n")
        fh.write(f"python = {sys.version.split()[0]}\n")
        fh.write(f"numpy = {np.__version__}\n")
        for key, value in meta:
            fh.write(f"{key} = {value}\n")
    return {"results": results_path, "summary": summary_path,
            "timings": timings_path, "meta": meta_path}


def _stderr(vals) -> float:
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size < 2:
        return 0.0
    return float(vals.std(ddof=1) / math.sqrt(vals.size))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _cell(args):
    cfg, algorithm, seed = args
    return run_single(cfg, algorithm, seed)


def _run_cells(cells: List[Tuple[ExperimentConfig, str, int]],
               workers: int) -> List[ResultRow]:
    """One row per (config, algorithm, seed) cell, in cell order: in this
    process for one worker or one cell, else on a process pool."""
    if workers <= 1 or len(cells) <= 1:
        return [_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell, cells))


def run_experiment(cfg: ExperimentConfig) -> List[ResultRow]:
    cells = [(cfg, alg, seed) for alg in cfg.algorithms for seed in cfg.seeds]
    if not cells:  # baselines (logger and skyline) still get evaluated
        cells = [(cfg, "baseline", seed) for seed in cfg.seeds]
    rows = _run_cells(cells, cfg.worker_count())
    return sorted(rows, key=lambda r: (r.algorithm, r.seed))


SWEEP_HEADER = "dataset,algorithm,delta,seed,expected_loss,greedy_loss"


def replay_sweep(cfg: ExperimentConfig, deltas: Sequence[int],
                 seeds: Optional[Sequence[int]] = None) -> List[Tuple]:
    """Run every (algorithm, delta, seed) cell (default 10 seeds) and return
    plot-ready tuples matching SWEEP_HEADER."""
    if any(d < 1 for d in deltas):
        raise ContractViolation("replay counts must be at least 1")
    seeds = tuple(seeds) if seeds is not None else tuple(range(10))
    cells = [(replace(cfg, delta=int(d), seeds=(seed,)), alg, seed)
             for d in deltas for alg in cfg.algorithms for seed in seeds]
    rows = _run_cells(cells, cfg.worker_count())
    out = [(r.dataset, r.algorithm, r.delta, r.seed, r.expected_loss, r.greedy_loss)
           for r in rows]
    return sorted(out, key=lambda t: (t[1], t[2], t[3]))


def write_sweep_csv(rows: List[Tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for dataset, alg, delta, seed, exp_l, gr_l in rows:
            fh.write(f"{dataset},{alg},{delta},{seed},{_fmt(exp_l)},{_fmt(gr_l)}\n")


def read_sweep_csv(path) -> List[Tuple]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SWEEP_HEADER:
            raise ContractViolation(f"unexpected sweep header {header!r}")
        for line in fh:
            d, alg, delta, seed, e, g = line.strip().split(",")
            rows.append((d, alg, int(delta), int(seed), float(e), float(g)))
    return rows
