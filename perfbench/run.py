"""dro-crm benchmark: one workload, timed `bench run` invocations, optional
traced run.  Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol-yeast-d4 --seed 1 --seconds 50 --trace 0

The workload's svmlight files are written from --seed under .perfbench_work/,
then `dro_crm.cli.main(["run", "--config", ...])` is called in-process, as the
`bench` console script does, until --seconds have been spent.  Every run passes
a correctness gate outside the timed region.  With --trace 1 one further run
is traced (see spans.py) and the per-layer metrics are reported instead of the
end-to-end ones.  The last stdout line is the result JSON; the line before it
records the environment, the sizes and the full metric set.  perfbench/README.md
lists the workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_T_START = time.perf_counter()  # set-up is timed from here

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = ".perfbench_work"
BASE_DATA_SEED = 0        # fixed training problem, see README "Inputs"
SETUP_REPEATS = 5
PROBE_PERIOD_S = 1.0      # host probe: one sample every this many seconds of a run


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_test: int
    n_features: int
    n_labels: int


# Train/test sizes of the public Yeast and Scene splits.
YEAST = Shape(1500, 917, 103, 14)
SCENE = Shape(1211, 1196, 294, 6)
TINY_YEAST = Shape(160, 60, 8, 4)
TINY_SCENE = Shape(140, 60, 12, 3)


def _grid_subset(alg: str, indices) -> Tuple[float, ...]:
    from dro_crm.bench import default_grids
    grid = default_grids()[alg]
    return tuple(float(grid[i]) for i in indices)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    tiny_shape: Shape
    delta: int
    algorithms: Tuple[str, ...]
    grid_indices: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    optim_max_iters: Optional[int] = None    # None keeps the OptimConfig default
    parallel: bool = False
    # Host probe (see README "Noise on a shared host"): rows of its matrix,
    # and the time of one of its samples on the build host.
    probe_rows: int = 4500
    probe_nominal_s: float = 0.0065

    def config_lines(self, train_path: str, test_path: str, tiny: bool,
                     workers: int) -> List[str]:
        # The parallel workload runs at least two cells per worker.
        n_seeds = -(-2 * workers // len(self.algorithms)) if self.parallel else 1
        seeds = f"0..{n_seeds - 1}"
        lines = [f"dataset = {train_path}", f"test_dataset = {test_path}",
                 f"algorithms = {','.join(self.algorithms)}", f"seeds = {seeds}",
                 f"delta = {self.delta}", f"threads = {workers}"]
        for alg, idx in self.grid_indices.items():
            lines.append(f"grid_{alg} = " + ",".join(repr(v) for v in _grid_subset(alg, idx)))
        max_iters = 15 if tiny else self.optim_max_iters
        if max_iters is not None:
            lines.append(f"optim_max_iters = {max_iters}")
        return lines


# The probe matrix has the width of the workload's log.  On protocol-yeast-d4
# it has the log's 4500 rows and stays in the cache like the log; on
# replay-scene-d64 it is capped at 64 MB, past a core's share of the cache,
# so that it depends on memory bandwidth like the 137 MB log.
_PROTOCOL = dict(
    shape=YEAST, tiny_shape=TINY_YEAST, delta=4,
    algorithms=("cips", "poem", "klcrm", "aklcrm"),
    grid_indices={"poem": (3,), "klcrm": (3,), "aklcrm": (3,)})

WORKLOADS = {w.name: w for w in (
    Workload("protocol-yeast-d4", **_PROTOCOL),
    Workload("replay-scene-d64", shape=SCENE, tiny_shape=TINY_SCENE, delta=64,
             algorithms=("cips", "aklcrm"), grid_indices={"aklcrm": (3,)},
             optim_max_iters=10, probe_rows=27_000, probe_nominal_s=0.049),
    Workload("parallel-yeast-d4", parallel=True, **_PROTOCOL),
)}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not os.path.isdir(libdir):
        return None
    for fname in sorted(os.listdir(libdir)):
        if "openblas" not in fname:
            continue
        lib = ctypes.CDLL(os.path.join(libdir, fname))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its config and returns nothing
        blas = {}
    return {
        "nproc": _nproc(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_effective": _openblas_threads(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "DRO_CRM_THREADS": os.environ.get("DRO_CRM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_inputs(shape: Shape, seed: int, train_path: str, test_path: str) -> None:
    """Training file from the fixed base problem; held-out test file drawn
    from the same model by `seed`."""
    import numpy as np
    from dro_crm import save_multilabel_svmlight, synthetic_multilabel
    pool = 4 * shape.n_test
    full = synthetic_multilabel(shape.n_train + pool, shape.n_features,
                                shape.n_labels, seed=BASE_DATA_SEED)
    save_multilabel_svmlight(full.subset(range(shape.n_train)), train_path)
    pick = np.random.default_rng(seed).choice(pool, size=shape.n_test, replace=False)
    save_multilabel_svmlight(full.subset(shape.n_train + pick), test_path)


# ---------------------------------------------------------------------------
# Runs and the correctness gate
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    run_s: float            # wall time less the host probe's samples
    cells: int
    failed: int
    results_csv: bytes
    expected_loss: float
    greedy_loss: float
    problem: str = ""
    host_s: float = math.nan    # mean host probe sample during the run
    scaled_s: float = math.nan  # run_s at the host's nominal speed


class HostProbe:
    """Samples the speed the shared host gives this process while a run is
    timed (see README "Noise on a shared host").  Every PROBE_PERIOD_S a
    SIGALRM handler in the main thread times a fixed piece of work that does
    not use dro_crm: a matrix-logit kernel on a log-shaped random matrix plus
    an interpreter loop, the mix that dominates a `bench run`.  The caller
    subtracts the probe's own time from the run's wall time."""

    def __init__(self, rows: int, features: int, labels: int, nominal_s: float) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((rows, features))
        self._w = rng.standard_normal((features, labels))
        self.nbytes = self._x.nbytes + self._w.nbytes
        self.nominal_s = nominal_s
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        import numpy as np
        t0 = time.perf_counter()
        z = self._x @ self._w
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        self._x.T @ p
        np.log(p + 1e-9).sum()
        acc = 0
        for i in range(20_000):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def spent_s(self) -> float:
        return math.fsum(self.samples)

    @property
    def host_s(self) -> float:
        # A run shorter than one period gets one sample after it.
        if not self.samples:
            self._sample(None, None)
        return statistics.fmean(self.samples)

    def scaled(self, wall_s: float) -> float:
        """`wall_s`, timed while sampling, at the host's nominal speed."""
        return wall_s * self.nominal_s / self.host_s


def bench_run(config_path: str, out_dir: str, probe: HostProbe,
              threads: Optional[int] = None) -> Tuple[float, int]:
    """Wall time of one `bench run` without the probe's samples, and its exit code."""
    from dro_crm import cli
    argv = ["run", "--config", config_path, "--out-dir", out_dir]
    if threads is not None:
        argv += ["--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with probe.sampling():
            code = cli.main(argv)
        run_s = time.perf_counter() - t0 - probe.spent_s
    return run_s, code


def check_run(run_s: float, code: int, out_dir: str, n_labels: int) -> RunResult:
    """Exit code 0, every row of results.csv `ok`, losses finite in [0, q]."""
    path = os.path.join(out_dir, "results.csv")
    if not os.path.exists(path):
        return RunResult(run_s, 0, 0, b"", math.nan, math.nan, f"exit {code}, no results.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    failed = sum(r["status"] != "ok" for r in rows)
    problems = [] if code == 0 else [f"exit code {code}"]
    if not rows:
        problems.append("no cells")
    if failed:
        problems.append(f"{failed} cells not ok")
    exp = [float(r["expected_loss"]) for r in rows if r["status"] == "ok"]
    gre = [float(r["greedy_loss"]) for r in rows if r["status"] == "ok"]
    if any(not (math.isfinite(v) and 0.0 <= v <= n_labels) for v in exp + gre):
        problems.append(f"loss outside [0, {n_labels}]")
    return RunResult(run_s, len(rows), failed, raw,
                     statistics.fmean(exp) if exp else math.nan,
                     statistics.fmean(gre) if gre else math.nan,
                     "; ".join(problems))


def peak_rss_mib(probe: HostProbe) -> float:
    """Peak resident set of this process, less the host probe's arrays, or of
    its reaped children (pool workers), whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - probe.nbytes
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return max(own, kids) / 2**20


def traced_run(config_path: str, out_dir: str, probe: HostProbe):
    """The probe runs here too, so that the traced run can be scaled like the
    untraced ones; its samples fall inside the layers' spans."""
    from dro_crm import cli
    import spans
    tracer = spans.Tracer()
    with spans.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        with probe.sampling(), tracer.span("cli", "main") as root:
            code = cli.main(["run", "--config", config_path, "--out-dir", out_dir])
    metrics = spans.layer_metrics(tracer.spans, root)
    metrics["host.probe_s"] = (probe.spent_s, "s")
    return root.dur - probe.spent_s, code, metrics


@dataclass
class Inputs:
    config_path: str
    config: List[str]
    setup_s: float          # import plus the median write
    writes_s: List[float]


def set_up(wl: Workload, shape: Shape, seed: int, tiny: bool, workers: int,
           work: str, import_s: float, probe: HostProbe) -> Inputs:
    """Writes are scaled to the host's nominal speed like the runs; the
    import, timed before numpy is loaded, is not."""
    train_path = os.path.join(work, "train.svm")
    test_path = os.path.join(work, "test.svm")
    config_path = os.path.join(work, "run.cfg")
    writes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with probe.sampling():
            write_inputs(shape, seed, train_path, test_path)
            config = wl.config_lines(train_path, test_path, tiny, workers)
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
        writes.append(probe.scaled(time.perf_counter() - t0 - probe.spent_s))
    return Inputs(config_path, config, import_s + statistics.median(writes), writes)


def timed_runs(config_path: str, work: str, seconds: float, n_labels: int,
               probe: HostProbe) -> List[RunResult]:
    """Untraced runs until the next one would pass `seconds`; at least one."""
    runs: List[RunResult] = []
    t_start = time.perf_counter()
    while True:
        out_dir = os.path.join(work, f"run{len(runs)}")
        run_s, code = bench_run(config_path, out_dir, probe)
        run = check_run(run_s, code, out_dir, n_labels)
        run.host_s, run.scaled_s = probe.host_s, probe.scaled(run_s)
        runs.append(run)
        shutil.rmtree(out_dir)
        if time.perf_counter() - t_start + run_s > seconds:
            return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to seconds (harness self-check)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    # One BLAS thread per process, set before numpy loads, so a pool of N
    # workers on N cores measures the program rather than oversubscription.
    # Pool workers are forked from this process and inherit both the
    # variables and the loaded library.  DRO_CRM_THREADS would cap the worker
    # count the config asks for.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DRO_CRM_THREADS", None)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dro_crm", "__init__.py")):
        print(f"error: no dro_crm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import dro_crm
    import_s = time.perf_counter() - _T_START
    if not os.path.abspath(dro_crm.__file__).startswith(src + os.sep):
        print(f"error: dro_crm imported from {dro_crm.__file__}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    shape = wl.tiny_shape if args.tiny else wl.shape
    workers = min(_nproc(), 4) if wl.parallel else 1
    work = os.path.join(WORK_ROOT, f"{wl.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(wl, args, shape, workers, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def measure(wl: Workload, args, shape: Shape, workers: int, work: str,
            import_s: float) -> int:
    from dro_crm.cli import build_experiment_config, read_config_file
    # Full size under --tiny too, so that the nominal sample time applies.
    probe = HostProbe(wl.probe_rows, wl.shape.n_features + 1, wl.shape.n_labels,
                      wl.probe_nominal_s)
    inputs = set_up(wl, shape, args.seed, args.tiny, workers, work, import_s, probe)
    cfg = build_experiment_config(read_config_file(inputs.config_path))
    env = environment(cfg.worker_count())

    runs = timed_runs(inputs.config_path, work, args.seconds, shape.n_labels, probe)
    rss = peak_rss_mib(probe)

    # Correctness gate, outside the timed region.
    problems = [r.problem for r in runs if r.problem]
    reference = runs[0].results_csv
    if any(r.results_csv != reference for r in runs):
        problems.append("results.csv differs between reruns")
    checked = list(runs)
    if wl.parallel:
        out_dir = os.path.join(work, "serial")
        serial = check_run(*bench_run(inputs.config_path, out_dir, probe, threads=1),
                           out_dir, shape.n_labels)
        checked.append(serial)
        if serial.problem:
            problems.append("1-worker run: " + serial.problem)
        elif serial.results_csv != reference:
            problems.append(f"results.csv with {workers} workers differs from 1 worker")

    info = {"workload": wl.name, "seed": args.seed, "tiny": args.tiny,
            "shape": shape.__dict__, "delta": wl.delta,
            "config": inputs.config,
            "env": env, "probe_nominal_s": probe.nominal_s,
            "run_wall_s_all": [r.run_s for r in runs],
            "host_probe_s_all": [r.host_s for r in runs],
            "run_s_all": [r.scaled_s for r in runs],
            "import_s": import_s, "writes_s_all": inputs.writes_s}
    if args.trace:
        out_dir = os.path.join(work, "traced")
        traced_s, code, metrics = traced_run(inputs.config_path, out_dir, probe)
        traced = check_run(traced_s, code, out_dir, shape.n_labels)
        traced.host_s, traced.scaled_s = probe.host_s, probe.scaled(traced_s)
        checked.append(traced)
        if traced.problem:
            problems.append("traced run: " + traced.problem)
        elif traced.results_csv != reference:
            problems.append("traced run changed results.csv")

    attempted = sum(max(r.cells, 1) for r in checked)
    failed = sum(max(r.cells, 1) if r.problem else r.failed for r in checked)
    # A run that fails the gate never counts as fast: run_s comes from the
    # runs that passed, or from all runs when none did (and `correct` is false).
    good = [r for r in runs if not r.problem] or runs
    run_s = statistics.median(r.scaled_s for r in good)
    if args.trace:
        metrics["trace.overhead_s"] = (traced.scaled_s - run_s, "s")
        metrics["host.sample_s"] = (statistics.median(r.host_s for r in good), "s")
    else:
        worst = float(shape.n_labels)  # stands in for a loss no ok row gave
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (inputs.setup_s, "s"),
            "peak_rss_mb": (rss, "MiB"),
            "expected_loss": (_finite_or(runs[0].expected_loss, worst), "Hamming"),
            "greedy_loss": (_finite_or(runs[0].greedy_loss, worst), "Hamming"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    info["failed_frac"] = failed / attempted
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}

    wanted = _declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    info["problems"] = problems
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": max(failed, 1) if problems else failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted if k in metrics},
    }))
    if problems:
        print("problems: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


def _finite_or(value: float, fallback: float) -> float:
    return value if math.isfinite(value) else fallback


def _declared_metrics(section: str) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


if __name__ == "__main__":
    sys.exit(main())
