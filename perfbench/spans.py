"""Span tracer for the benchmark's traced run.

Spans are recorded only from this directory, by replacing the public names
each dro_crm layer exposes to the layer above it with timing wrappers, for the
length of one `bench run`:

- the functions `dro_crm.bench` imports from `bandit`, `objectives` and
  `optim`, and `bench.run_single` (one cell);
- the `policy` and `divergence` functions `dro_crm.objectives` imports;
- the callable returned by `make_objective` (one value+gradient evaluation);
- the `bench` and `cli` functions `cli.cmd_run` calls.

A name is patched in the namespace of the module that calls it, so calls a
layer makes into itself stay inside that layer's span.  Pool workers are
forked with the wrappers in place; the spans a worker records during a cell
ride back to the parent on the returned row and are merged there.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

_ROW_ATTR = "_perfbench_spans"


@dataclass
class Span:
    sid: Tuple[int, int]               # (pid, sequence number)
    parent: Optional[Tuple[int, int]]
    layer: str
    name: str
    t0: float
    t1: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory spans with a per-process stack of open spans."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._seq = 0

    @contextlib.contextmanager
    def span(self, layer: str, name: str, **attrs):
        self._seq += 1
        parent = self._stack[-1].sid if self._stack else None
        s = Span((os.getpid(), self._seq), parent, layer, name,
                 time.perf_counter(), attrs=attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def wrap(self, layer: str, name: str, fn, describe=None):
        """Timing wrapper around fn; describe(args, kwargs, result) returns
        attributes recorded on the span."""
        def wrapper(*args, **kwargs):
            with self.span(layer, name) as s:
                out = fn(*args, **kwargs)
                if describe is not None:
                    s.attrs.update(describe(args, kwargs, out))
            return out
        return wrapper


def _log_desc(args, kwargs, log):
    arrays = (log.X, log.Y, log.log_propensities, log.costs,
              log.replay_ids, log.example_ids)
    return {"records": log.n,
            "bytes": sum(a.nbytes for a in arrays if a is not None)}


def _minimize_desc(args, kwargs, out):
    _, trace = out
    return {"alg": getattr(args[0], "perfbench_alg", None),
            "iters": len(trace.iterations), "evals": trace.n_evals,
            "termination": trace.termination}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the layer boundaries of dro_crm for the duration of the block."""
    from dro_crm import bench, cli, objectives

    patches = []

    def patch(module, attr, make):
        orig = getattr(module, attr)
        patches.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def timed(layer, name=None, describe=None):
        return lambda fn: tracer.wrap(layer, name or fn.__name__, fn, describe)

    # cli -> bench, and the cli layer's own config parsing
    patch(cli, "read_config_file", timed("cli", "config"))
    patch(cli, "build_experiment_config", timed("cli", "config"))
    patch(cli, "run_experiment", lambda fn: _run_experiment(tracer, fn))
    patch(cli, "emit_results", timed("bench", "emit"))
    # bench -> bench (cells), bandit, objectives, optim
    patch(bench, "run_single", lambda fn: _run_single(tracer, fn))
    patch(bench, "load_multilabel_svmlight", timed("bandit", "parse"))
    patch(bench, "append_bias", timed("bandit"))
    patch(bench, "split_dataset", timed("bandit", "split"))
    patch(bench, "train_logger", timed("bandit"))
    patch(bench, "generate_bandit_log", timed("bandit", "loggen", _log_desc))
    patch(bench, "evaluate_policy", timed("bandit", "evaluate"))
    patch(bench, "ips_validation_score", timed("bandit", "ips_score"))
    patch(bench, "make_objective", lambda fn: _make_objective(tracer, fn))
    patch(bench, "minimize", timed("optim", "minimize", _minimize_desc))
    # objectives -> policy, divergence
    for attr in ("log_prob_matrix", "logits_matrix", "sigmoid"):
        patch(objectives, attr, timed("policy"))
    patch(objectives, "boltzmann_weights", timed("divergence", "boltzmann"))
    try:
        yield tracer
    finally:
        for module, attr, orig in reversed(patches):
            setattr(module, attr, orig)


def _run_experiment(tracer: Tracer, orig):
    def run_experiment(cfg):
        with tracer.span("bench", "run_experiment", workers=cfg.worker_count()):
            rows = orig(cfg)
        for row in rows:  # merge spans recorded in pool workers
            tracer.spans.extend(row.__dict__.pop(_ROW_ATTR, ()))
        return rows
    return run_experiment


def _run_single(tracer: Tracer, orig):
    def run_single(cfg, algorithm, seed):
        start = len(tracer.spans)
        with tracer.span("bench", "cell", alg=algorithm, seed=seed):
            row = orig(cfg, algorithm, seed)
        if os.getpid() != tracer.owner_pid:
            setattr(row, _ROW_ATTR, tracer.spans[start:])
            del tracer.spans[start:]
        return row
    return run_single


def _make_objective(tracer: Tracer, orig):
    def make_objective(algorithm, log, hyper, *args, **kwargs):
        with tracer.span("objectives", "make_objective"):
            fun, shape = orig(algorithm, log, hyper, *args, **kwargs)
        n, d = log.X.shape
        q = log.Y.shape[1]

        def evaluate(theta):
            with tracer.span("objectives", "eval", alg=algorithm, n=n, d=d, q=q):
                out = fun(theta)
            evaluate.last_gamma = fun.last_gamma  # minimize reads it off its callable
            return out
        evaluate.last_gamma = fun.last_gamma
        evaluate.perfbench_alg = algorithm
        return evaluate, shape
    return make_objective


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

TERMINATIONS = ("grad_tol", "f_tol", "max_iters", "line_search_failed",
                "nan_objective", "box_projection_stalled")
_CONVERGED = ("grad_tol", "f_tol")
_CELL_SETUP = ("parse", "append_bias", "split", "train_logger", "loggen")


def layer_metrics(spans: List[Span], root: Span) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Self time is a span's duration minus the durations of its children in
    the same process; layer self times are summed over all processes.  The
    parent process's self times plus `trace.unaccounted_s` (time in the root
    span outside every instrumented call) add up to the traced run_s.
    """
    by_id = {s.sid: s for s in spans}
    child_time: Dict[Tuple[int, int], float] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.pid == s.pid:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur

    def self_time(s: Span) -> float:
        return s.dur - child_time.get(s.sid, 0.0)

    def named(layer, name):
        return [s for s in spans if s.layer == layer and s.name == name]

    def total(layer, name):
        return sum(s.dur for s in named(layer, name))

    run_s = root.dur
    m: Dict[str, Tuple[float, str]] = {}
    for layer in ("cli", "bench", "bandit", "objectives", "policy", "optim"):
        m[f"{layer}.self_s"] = (sum(self_time(s) for s in spans
                                    if s.layer == layer and s is not root), "s")
    accounted = sum(self_time(s) for s in spans
                    if s.pid == root.pid and s is not root)
    m["trace.run_s"] = (run_s, "s")
    m["trace.spans"] = (float(len(spans)), "count")
    m["trace.unaccounted_s"] = (run_s - accounted, "s")

    # bench: cells, pool, emission
    cells = named("bench", "cell")
    algs = sorted({s.attrs["alg"] for s in cells})
    for alg in algs:
        m[f"bench.cell_s.{alg}"] = (
            sum(s.dur for s in cells if s.attrs["alg"] == alg), "s")
    cell_ids = {s.sid for s in cells}
    setup = sum(s.dur for s in spans
                if s.parent in cell_ids and s.layer == "bandit" and s.name in _CELL_SETUP)
    cell_total = sum(s.dur for s in cells)
    m["bench.cell_setup_share"] = (setup / cell_total if cell_total else 0.0, "ratio")
    m["bench.emit_s"] = (total("bench", "emit"), "s")
    pool = named("bench", "run_experiment")
    workers = max((s.attrs["workers"] for s in pool), default=1)
    m["bench.workers"] = (float(len({s.pid for s in cells}) or 1), "count")
    m["bench.parallel_efficiency"] = (cell_total / (workers * run_s), "ratio")

    # bandit
    for name in ("parse", "train_logger"):
        m[f"bandit.{name}_s"] = (total("bandit", name), "s")
        m[f"bandit.{name}_calls"] = (float(len(named("bandit", name))), "count")
    loggen = named("bandit", "loggen")
    loggen_s = sum(s.dur for s in loggen)
    m["bandit.loggen_s"] = (loggen_s, "s")
    m["bandit.loggen_records_per_s"] = (
        sum(s.attrs["records"] for s in loggen) / loggen_s if loggen_s else 0.0, "records/s")
    per_cell_bytes: Dict[object, int] = {}
    for s in loggen:
        per_cell_bytes[s.parent] = per_cell_bytes.get(s.parent, 0) + s.attrs["bytes"]
    m["bandit.log_bytes"] = (float(max(per_cell_bytes.values(), default=0)), "B")
    m["bandit.ips_score_s"] = (total("bandit", "ips_score"), "s")
    m["bandit.evaluate_s"] = (total("bandit", "evaluate"), "s")

    # objectives and the policy calls made inside evaluations
    evals = named("objectives", "eval")
    eval_total = sum(s.dur for s in evals)

    def eval_stats(prefix, group):
        durs = [s.dur for s in group]
        p50, p99 = np.percentile(durs, (50, 99)) if durs else (0.0, 0.0)
        m[f"{prefix}.evals"] = (float(len(durs)), "count")
        m[f"{prefix}.eval_s.p50"] = (float(p50), "s")
        m[f"{prefix}.eval_s.p99"] = (float(p99), "s")

    eval_stats("objectives", evals)
    for alg in algs:
        eval_stats(f"objectives.{alg}", [s for s in evals if s.attrs["alg"] == alg])
    m["objectives.eval_share"] = (eval_total / run_s, "ratio")
    if evals:
        n, d, q = (evals[0].attrs[k] for k in ("n", "d", "q"))
        # Three (n x d) by (d x q) products per evaluation: the logits inside
        # log_prob_matrix, the logits for the gradient, and the gradient itself.
        flops = sum(6.0 * s.attrs["n"] * s.attrs["d"] * s.attrs["q"] for s in evals)
        m["objectives.gflop_per_s"] = (flops / eval_total / 1e9, "GFLOP/s-computed")
        # X read three times, Y and the (n, q) logits read or written four times.
        m["objectives.bytes_per_eval"] = (8.0 * (3 * n * d + 4 * n * q), "B-computed")
    else:
        m["objectives.gflop_per_s"] = (0.0, "GFLOP/s-computed")
        m["objectives.bytes_per_eval"] = (0.0, "B-computed")
    eval_ids = {s.sid for s in evals}
    policy_in_evals = [s for s in spans if s.layer == "policy" and s.parent in eval_ids]
    m["policy.matrix_calls_per_eval"] = (
        len(policy_in_evals) / len(evals) if evals else 0.0, "count")

    # divergence
    boltz = named("divergence", "boltzmann")
    m["divergence.boltzmann_s"] = (sum(s.dur for s in boltz), "s")
    m["divergence.boltzmann_calls"] = (float(len(boltz)), "count")

    # optim
    fits = named("optim", "minimize")
    for alg in algs:
        m[f"optim.minimize_s.{alg}"] = (
            sum(s.dur for s in fits if s.attrs["alg"] == alg), "s")
    iters = sum(s.attrs["iters"] for s in fits)
    fit_evals = sum(s.attrs["evals"] for s in fits)
    m["optim.fits"] = (float(len(fits)), "count")
    m["optim.iters"] = (float(iters), "count")
    m["optim.evals_per_iter"] = (fit_evals / iters if iters else 0.0, "ratio")
    for reason in TERMINATIONS:
        m[f"optim.term.{reason}"] = (
            float(sum(s.attrs["termination"] == reason for s in fits)), "count")
    unconverged = sum(s.attrs["termination"] not in _CONVERGED for s in fits)
    m["optim.unconverged_frac"] = (unconverged / len(fits) if fits else 0.0, "ratio")
    return m
