"""Experiment orchestration: end-to-end runs, hyper-parameter selection,
replay-count sweeps, significance testing, and CSV emission.

One cell = (algorithm, seed).  A seed's set-up is shared by all of its cells:
it splits the data, trains the logging policy on a small fraction of the train
pool and a fully supervised skyline of the same family, generates the train
and validation bandit logs, and evaluates the logger and the skyline on the
test set.  Each cell then minimizes its algorithm's objective at every grid
point, selects the grid point with the lowest unclipped importance-weighted
validation risk, and reports exact expected and greedy Hamming loss on the
test set, both from one `evaluate_policy` call.  Its row keeps each fit's
termination reason, which results.csv leaves out.  A cell that raises gives a
row of status "failed" that keeps only the cell's keys and the error.

The drivers run a seed's cells one after another and build its set-up once
per process, in the first of them that the process runs, whose wall time
therefore includes it; a bare `run_single` call builds its own.  At most one
set-up is held, and none outlives the driver call.  Cells may be scheduled on
a process pool of `threads` workers, a seed's cells to one worker when there
are at least as many seeds as workers; rows are keyed and sorted afterwards,
and a single-worker run writes byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bandit import (SupervisedDataset, append_bias, evaluate_policy,
                     generate_bandit_log, load_multilabel_svmlight,
                     split_dataset, train_logger)
from .errors import ContractViolation
# a name of its own, so perfbench/spans.py can time validation scoring alone
from .objectives import (RULES, BanditLog, ips_risk as ips_validation_score,
                         make_objective, rule_for)
from .optim import minimize
from .policy import PolicyParams

ALGORITHMS = tuple(RULES)

_VALID_LOG_STREAM = 1  # train logs use stream 0
_TEST_FRAC = 0.25      # carved from the dataset when there is no test file
# provenance in run_meta: results are thread-invariant, checked on OpenBLAS 0.3.31
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_grids() -> Dict[str, np.ndarray]:
    """8 log-spaced points over each RULES row's search range; a row without
    one (no hyper-parameter) has no grid."""
    return {alg: 10.0 ** np.linspace(*span, 8) for alg, (*_, span) in RULES.items() if span}


@dataclass
class ExperimentConfig:
    dataset: str
    test_dataset: Optional[str] = None
    algorithms: Tuple[str, ...] = ALGORITHMS
    seeds: Tuple[int, ...] = tuple(range(20))
    delta: int = 4                        # replays of the train and validation logs
    grids: Dict[str, Sequence[float]] = field(default_factory=default_grids)
    optim_max_iters: int = 500
    out_dir: str = "bench_out"
    threads: Optional[int] = None         # pool workers; defaults to the CPU count

    def __post_init__(self):
        if not self.seeds:
            raise ContractViolation("seeds must name at least one seed")
        for name in ("seeds", "algorithms"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ContractViolation(f"{name} must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ContractViolation(f"seeds must be non-negative, got {min(self.seeds)}")
        for name in ("delta", "optim_max_iters", "threads"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractViolation(f"{name} must be at least 1, got {value}")
        for alg, grid in {**dict.fromkeys(self.algorithms, [None]), **self.grids}.items():
            if alg in self.algorithms and not len(grid):
                raise ContractViolation(f"algorithm {alg!r} needs a non-empty grid")
            for hyper in grid:
                rule_for(alg, hyper)

    def worker_count(self) -> int:
        return self.threads if self.threads is not None else (os.cpu_count() or 1)


@dataclass
class ResultRow:
    dataset: str
    algorithm: str
    seed: int
    delta: int
    hyper_name: str = ""
    hyper_value: float = math.nan
    expected_loss: float = math.nan
    greedy_loss: float = math.nan
    valid_score: float = math.nan
    logger_expected: float = math.nan
    logger_greedy: float = math.nan
    skyline_expected: float = math.nan
    skyline_greedy: float = math.nan
    grid_scores: Tuple[float, ...] = ()
    terminations: Tuple[str, ...] = ()    # each grid point's fit; not in results.csv
    status: str = "ok"
    message: str = ""
    wall_time_s: float = 0.0
    params: Optional[PolicyParams] = None


def _load_pools(cfg: ExperimentConfig, seed: int
                ) -> Tuple[SupervisedDataset, SupervisedDataset]:
    """(non-test pool, test set), both with a bias column.  A test file is
    read with the dataset, so it takes the dataset's label ids and width.
    Without one, _TEST_FRAC of the file is carved out deterministically per
    seed."""
    if cfg.test_dataset is not None:
        full, test = load_multilabel_svmlight(cfg.dataset, cfg.test_dataset)
    else:
        full = load_multilabel_svmlight(cfg.dataset)[0]
        perm = np.random.default_rng((seed, 0xD5)).permutation(full.n_examples)
        n_test = int(_TEST_FRAC * full.n_examples)
        full, test = full.subset(perm[n_test:]), full.subset(perm[:n_test])
    return append_bias(full), append_bias(test)


@dataclass(frozen=True)
class _SeedSetup:
    """What the cells of one seed share: the test set, the train and
    validation logs drawn by the logging policy, and the logger's and the
    skyline's test losses, keyed by their ResultRow fields."""
    test: SupervisedDataset
    train_log: BanditLog
    valid_log: BanditLog
    baselines: Dict[str, float]


def _seed_setup(cfg: ExperimentConfig, seed: int) -> _SeedSetup:
    pool, test = _load_pools(cfg, seed)
    train, valid, logger_subset = split_dataset(pool, seed)
    logger = train_logger(logger_subset)
    skyline = train_logger(train, alpha=1.0)
    losses = evaluate_policy(logger, test) + evaluate_policy(skyline, test)
    return _SeedSetup(
        test=test,
        train_log=generate_bandit_log(logger, train, cfg.delta, seed, stream=0),
        valid_log=generate_bandit_log(logger, valid, cfg.delta, seed,
                                      stream=_VALID_LOG_STREAM),
        baselines=dict(zip(("logger_expected", "logger_greedy", "skyline_expected",
                            "skyline_greedy"), losses)))


# The set-up of the seed whose cells are running, keyed by what it is built
# from.  None outside a driver call, so a bare run_single builds its own.  It
# is module state, not an argument, because run_single keeps the signature
# perfbench/spans.py wraps as the traced cell.
_shared: Optional[Dict[tuple, _SeedSetup]] = None


def _setup_for(cfg: ExperimentConfig, seed: int) -> _SeedSetup:
    if _shared is None:
        return _seed_setup(cfg, seed)
    key = (cfg.dataset, cfg.test_dataset, cfg.delta, seed)
    if key not in _shared:
        _shared.clear()  # before building, so two seeds' logs never coexist
        _shared[key] = _seed_setup(cfg, seed)
    return _shared[key]


def run_single(cfg: ExperimentConfig, algorithm: str, seed: int) -> ResultRow:
    """Run one (algorithm, seed) cell; failures are captured in the row."""
    t0 = time.perf_counter()
    try:
        row = _fit_cell(cfg, algorithm, seed, _setup_for(cfg, seed))
    except Exception as exc:  # the run continues with other cells
        row = ResultRow(cfg.dataset, algorithm, seed, cfg.delta,
                        RULES.get(algorithm, ("",))[0], status="failed",
                        message=f"{type(exc).__name__}: {exc}")
    row.wall_time_s = time.perf_counter() - t0
    return row


def _fit_cell(cfg: ExperimentConfig, algorithm: str, seed: int,
              setup: _SeedSetup) -> ResultRow:
    if algorithm == "baseline":
        return ResultRow(cfg.dataset, algorithm, seed, cfg.delta,
                         **setup.baselines, status="baseline")

    # [None] for a row without a hyper-parameter; an unknown name fails in make_objective
    grid = cfg.grids.get(algorithm, [None])
    candidates: List[PolicyParams] = []
    scores: List[float] = []
    terminations: List[str] = []
    for hyper in grid:
        fun, shape = make_objective(algorithm, setup.train_log, hyper)
        theta, trace = minimize(fun, np.zeros(shape[0] * shape[1]),
                                max_iters=cfg.optim_max_iters)
        terminations.append(trace.termination)
        params = PolicyParams(theta.reshape(shape))
        candidates.append(params)
        scores.append(ips_validation_score(params, setup.valid_log))

    best = int(np.argmin(scores))
    chosen = candidates[best]
    hyper_value = math.nan if grid[best] is None else float(grid[best])
    expected, greedy = evaluate_policy(chosen, setup.test)
    return ResultRow(cfg.dataset, algorithm, seed, cfg.delta,
                     hyper_name=RULES[algorithm][0], hyper_value=hyper_value,
                     expected_loss=expected, greedy_loss=greedy,
                     valid_score=scores[best], **setup.baselines,
                     grid_scores=tuple(scores), terminations=tuple(terminations),
                     params=chosen)


# ---------------------------------------------------------------------------
# Significance testing
# ---------------------------------------------------------------------------

def _t_tail(t: float, dof: int) -> float:
    """P(T > t) for a Student-t variable with `dof` degrees of freedom: half
    the regularized incomplete beta I_x(a, b) at a = dof/2, b = 1/2 and
    x = dof / (dof + t^2) for t >= 0, one less that below.  Where
    x < (a + 1) / (a + b + 2), I_x is x^a (1 - x)^b / (a B(a, b)) times the
    series sum_n (a + b)_n / (a + 1)_n x^n (DLMF 8.17.8), else one less the
    same in 1 - x with a and b swapped.  Either way the term ratio
    (a + b + n) / (a + 1 + n) x is below 1 from the first term, so the terms
    are positive and fall; the sum stops at the first below 1e-17 of it."""
    x, y = dof / (dof + t * t), t * t / (dof + t * t)  # y = 1 - x, not cancelled
    a, b = 0.5 * dof, 0.5
    ibeta = x  # I_0 = 0 and I_1 = 1
    if 0.0 < x < 1.0:
        front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                         + a * math.log(x) + b * math.log(y))
        swap = x >= (a + 1.0) / (a + b + 2.0)
        if swap:
            a, b, x = b, a, y
        term = total = 1.0
        n = 0
        while term >= 1e-17 * total:
            term *= (a + b + n) / (a + 1.0 + n) * x
            total += term
            n += 1
        ibeta = front * total / a
        if swap:
            ibeta = 1.0 - ibeta
    tail = 0.5 * ibeta
    return tail if t >= 0.0 else 1.0 - tail


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
    # a non-finite sample, or differences that overflow, has no t statistic
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ContractViolation("paired differences need a finite mean and sd")
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.5, 0.0, k - 1, degenerate=True)
        return TTestResult(0.0 if mean > 0.0 else 1.0,
                           math.inf if mean > 0.0 else -math.inf,
                           k - 1, degenerate=True)
    t = mean / (sd / math.sqrt(k))
    return TTestResult(_t_tail(t, k - 1), t, k - 1)


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, tuple):
        return ";".join(map(_fmt, x))
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
    timings.csv, and run_meta (versions, the BLAS thread variables, each empty
    when unset, and the CPU count, then the `key = value` pairs of `meta`).
    All numbers use 6 significant digits.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    rows = sorted(rows, key=lambda r: (r.algorithm, r.seed))

    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(rows, results_path)

    timings_path = os.path.join(out_dir, "timings.csv")
    with open(timings_path, "w", encoding="utf-8") as fh:
        fh.write("algorithm,seed,wall_time_s\n")
        for r in rows:
            fh.write(f"{r.algorithm},{r.seed},{r.wall_time_s:.3f}\n")

    # (name, expected losses, greedy losses, p-value) per line: pi0 and the
    # skyline from each seed's first usable row, then each algorithm over its
    # ok rows, tested on shared seeds against the best (lowest mean among the
    # most ok seeds; no p-value for it, under two pairs or a degenerate test)
    base: Dict[int, ResultRow] = {}
    for r in rows:
        if r.status in ("ok", "baseline"):
            base.setdefault(r.seed, r)
    bs = [base[s] for s in sorted(base)]
    lines = [("pi0", [r.logger_expected for r in bs], [r.logger_greedy for r in bs], ""),
             ("crf", [r.skyline_expected for r in bs], [r.skyline_greedy for r in bs], "")
             ] if bs else []
    by_alg: Dict[str, List[ResultRow]] = {}
    for r in rows:
        if r.status == "ok":
            by_alg.setdefault(r.algorithm, []).append(r)
    most = max(map(len, by_alg.values()), default=0)
    means = {alg: np.mean([r.expected_loss for r in rs])
             for alg, rs in by_alg.items() if len(rs) == most}
    best_alg = min(means, key=means.get, default=None)
    best = {r.seed: r.expected_loss for r in by_alg.get(best_alg, ())}
    for alg, rs in sorted(by_alg.items()):
        pairs = [(r.expected_loss, best[r.seed]) for r in rs if r.seed in best]
        test = alg != best_alg and len(pairs) > 1 and paired_t_test_one_tailed(*zip(*pairs))
        p_value = _fmt(test.p_value) if test and not test.degenerate else ""
        lines.append((alg, [r.expected_loss for r in rs],
                      [r.greedy_loss for r in rs], p_value))

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("algorithm,n_seeds,mean_expected,se_expected,mean_greedy,"
                 "se_greedy,p_value_vs_best\n")
        for name, exp_vals, gr_vals, p_value in lines:
            fh.write(",".join([
                name, str(len(exp_vals)), _fmt(float(np.mean(exp_vals))),
                _stderr(exp_vals), _fmt(float(np.mean(gr_vals))),
                _stderr(gr_vals), p_value]) + "\n")

    meta_path = os.path.join(out_dir, "run_meta")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in [
            ("version", __version__), ("python", sys.version.split()[0]),
            ("numpy", np.__version__),
            *((var, os.environ.get(var, "")) for var in _BLAS_THREAD_VARS),
            ("cpu_count", os.cpu_count()), *meta])
    return {"results": results_path, "summary": summary_path,
            "timings": timings_path, "meta": meta_path}


def _stderr(vals) -> str:
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size < 2:
        return ""  # one seed has no spread to estimate
    return _fmt(float(vals.std(ddof=1) / math.sqrt(vals.size)))


def write_results_csv(rows: List[ResultRow], path) -> None:
    """RESULTS_HEADER, then per row the ResultRow fields it names, by _fmt."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        fh.writelines(",".join(_fmt(getattr(r, name)) for name in RESULTS_HEADER.split(","))
                      + "\n" for r in rows)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _cell(args):
    cfg, algorithm, seed = args
    return run_single(cfg, algorithm, seed)


def _share_setups() -> None:
    global _shared
    _shared = {}


def _run_cells(cells: List[Tuple[ExperimentConfig, str, int]],
               workers: int) -> List[ResultRow]:
    """One row per (config, algorithm, seed) cell, in (delta, seed) order, so
    that the cells of a seed run one after another and share its set-up: in
    this process for one worker or one cell, else on a process pool that hands
    a seed's cells to one worker while every worker gets some.  The pool has
    no more workers than cells, since it may start them all at once."""
    global _shared
    cells = sorted(cells, key=lambda c: (c[0].delta, c[2]))
    workers = min(workers, len(cells))
    _share_setups()
    try:
        if workers <= 1:
            return [_cell(c) for c in cells]
        per_seed = len(cells[0][0].algorithms) or 1  # baseline cells: one per seed
        chunk = min(per_seed, math.ceil(len(cells) / workers))
        from concurrent.futures import ProcessPoolExecutor  # serial runs load no pool
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_setups) as pool:
            return list(pool.map(_cell, cells, chunksize=chunk))
    finally:
        _shared = None


def run_experiment(cfg: ExperimentConfig) -> List[ResultRow]:
    """The row of every (algorithm, seed) cell of `cfg`, in that order."""
    return replay_sweep(cfg, (cfg.delta,))


def replay_sweep(cfg: ExperimentConfig, deltas: Sequence[int]) -> List[ResultRow]:
    """`run_experiment` at each of the distinct replay counts `deltas`, each
    replacing and checked as `cfg.delta`: the row of every (algorithm, delta,
    seed) cell, in that order.  With no algorithms, one "baseline" row per
    (delta, seed) evaluates the logger and the skyline."""
    if not deltas or len(set(deltas)) != len(deltas):
        raise ContractViolation(f"deltas must be distinct and non-empty, got {tuple(deltas)}")
    runs = [replace(cfg, delta=int(d)) for d in deltas]
    cells = [(run, alg, seed) for run in runs
             for alg in cfg.algorithms or ("baseline",) for seed in cfg.seeds]
    rows = _run_cells(cells, cfg.worker_count())
    return sorted(rows, key=lambda r: (r.algorithm, r.delta, r.seed))
