"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Criteria 7 and 8 need the Scene and Yeast multilabel files
(see README, "Benchmark data"); they skip with a message when absent.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dro_crm import (DivergenceKind, ExperimentConfig, LossSample,
                     PolicyParams, akl_crm_objective, cips_risk,
                     gamma_star_approx, kl_crm_objective, kl_gamma_fixed_point,
                     paired_t_test_one_tailed, poem_objective,
                     robust_risk_chi2, robust_risk_kl_dual, run_experiment,
                     sample_losses, save_multilabel_svmlight,
                     synthetic_multilabel)
from dro_crm.bench import default_grids
from oracle import dro_oracle
from toy_logs import sample_log

CHI = DivergenceKind.CHI_SQUARE
KL = DivergenceKind.KULLBACK_LEIBLER

TABLE_EXPECTED = {  # mean expected Hamming loss, 20 seeds
    "scene": {"pi0": 1.529, "cips": 1.163, "poem": 1.157,
              "klcrm": 1.146, "aklcrm": 1.128},
    "yeast": {"pi0": 5.542, "cips": 4.658, "poem": 4.535,
              "klcrm": 4.604, "aklcrm": 4.553},
}


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def shared_instances(count=500, seed=2024):
    """The loss samples used by criteria 1 and 2: n in 2..8, uniform base
    weights, radii kept inside the chi-square interior regime."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        z = rng.uniform(0.0, 1.0, size=n)
        while z.max() - z.min() < 1e-3:
            z = rng.uniform(0.0, 1.0, size=n)
        s = LossSample(z)
        thr = s.variance() / (s.mean() - z.min()) ** 2
        eps = float(rng.uniform(0.05, 0.9)) * thr
        out.append((s, eps))
    return out


def find_dataset(name):
    roots = [os.environ.get("DRO_CRM_DATA", ""), "data",
             os.path.join(os.path.dirname(__file__), "..", "data")]
    for root in roots:
        if not root:
            continue
        for suffix in (".svm", ".txt", ""):
            path = os.path.join(root, name + suffix)
            if os.path.isfile(path):
                return path
    return None


def fd_gradient(fun, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2.0 * h)
    return g


def test_criterion_1_chi2_identity_and_oracle():
    t0 = time.perf_counter()
    instances = shared_instances()
    worst_formula, worst_oracle = 0.0, 0.0
    for s, eps in instances:
        sol = robust_risk_chi2(s, eps)
        formula = s.mean() + math.sqrt(eps * s.variance())
        worst_formula = max(worst_formula, abs(sol.robust_risk - formula))
        worst_oracle = max(worst_oracle, abs(sol.robust_risk - dro_oracle(s, CHI, eps)))
    elapsed = time.perf_counter() - t0
    ok = worst_formula <= 1e-12 and worst_oracle <= 1e-4 and elapsed < 10.0
    report(1, ok, f"formula gap {worst_formula:.2e} (<=1e-12), "
                  f"oracle gap {worst_oracle:.2e} (<=1e-4), {elapsed:.1f}s (<10s)")
    assert worst_formula <= 1e-12
    assert worst_oracle <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_kl_dual_and_fixed_point():
    t0 = time.perf_counter()
    instances = shared_instances()
    worst_oracle, worst_gamma = 0.0, 0.0
    native = attempted = 0
    for s, eps in instances:
        dual = robust_risk_kl_dual(s, eps)
        worst_oracle = max(worst_oracle, abs(dual.robust_risk - dro_oracle(s, KL, eps)))
        if not dual.saturated:
            attempted += 1
            fp = kl_gamma_fixed_point(s, eps, 1.0)
            native += fp.converged
            worst_gamma = max(worst_gamma, abs(fp.gamma - dual.gamma) / dual.gamma)
    elapsed = time.perf_counter() - t0
    ok = worst_oracle <= 1e-4 and worst_gamma <= 1e-5 and elapsed < 30.0
    report(2, ok, f"oracle gap {worst_oracle:.2e} (<=1e-4), gamma gap "
                  f"{worst_gamma:.2e} (<=1e-5), {native}/{attempted} native "
                  f"convergences, {elapsed:.1f}s (<30s)")
    assert worst_oracle <= 1e-4
    assert worst_gamma <= 1e-5
    # the agreement check must not be vacuous: most instances converge natively
    assert native >= 0.7 * attempted
    assert elapsed < 30.0


def test_criterion_3_temperature_approximation():
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(200):
        z = rng.uniform(-1.0, 0.0, size=100)
        s = LossSample(z)
        eps = float(10.0 ** rng.uniform(-4.0, math.log10(0.01)))
        approx = gamma_star_approx(s, eps).gamma
        exact = robust_risk_kl_dual(s, eps).gamma
        if abs(approx - exact) / exact <= 0.1:
            hits += 1
    ok = hits >= 180
    report(3, ok, f"{hits}/200 within 10% (need >=180)")
    assert hits >= 180


def test_criterion_4_remainder_decay():
    rng = np.random.default_rng(4)
    medians = []
    for n in (100, 1000, 10000):
        vals = []
        for _ in range(50):
            s = LossSample(rng.random(n) ** 4)  # bounded, right-skewed
            eps_n = 1.0 / n
            r = robust_risk_kl_dual(s, eps_n).robust_risk
            vals.append(math.sqrt(n) * abs(
                r - s.mean() - math.sqrt(eps_n * s.variance())))
        medians.append(float(np.median(vals)))
    ok = medians[0] > medians[1] > medians[2]
    report(4, ok, "medians " + " > ".join(f"{m:.5f}" for m in medians))
    assert medians[0] > medians[1] > medians[2]


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(5)
    objectives = {
        "cips": lambda log: (lambda p: cips_risk(p, log)),
        "poem": lambda log: (lambda p: poem_objective(p, log, 0.3)),
        "klcrm": lambda log: (lambda p: kl_crm_objective(p, log, 1.5)),
        "aklcrm": lambda log: (lambda p: akl_crm_objective(p, log, 0.2)),
    }
    worst = {name: 0.0 for name in objectives}
    for _ in range(100):
        log, _ = sample_log(rng)
        theta = 0.3 * rng.normal(size=6)
        params = PolicyParams(theta.reshape(2, 3))
        assert not sample_losses(params, log)[1].any()  # away from clip kinks
        for name, make in objectives.items():
            evaluate = make(log)
            report_obj = evaluate(params)
            if name in ("klcrm", "aklcrm"):
                s0 = report_obj.weights

                def surrogate(t, s0=s0, log=log):
                    z, _ = sample_losses(PolicyParams(t.reshape(2, 3)), log)
                    return float(s0 @ z)

                fd = fd_gradient(surrogate, theta)
            else:
                def value(t, evaluate=evaluate):
                    return evaluate(PolicyParams(t.reshape(2, 3))).risk

                fd = fd_gradient(value, theta)
            err = np.abs(report_obj.gradient.ravel() - fd).max() / \
                max(np.abs(fd).max(), 1e-12)
            worst[name] = max(worst[name], err)
    ok = all(v <= 1e-5 for v in worst.values())
    report(5, ok, ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " (<=1e-5)")
    assert all(v <= 1e-5 for v in worst.values())


def test_criterion_6_objective_equivalences():
    rng = np.random.default_rng(6)
    worst_poem, worst_kl, pessimism_ok = 0.0, 0.0, True
    for _ in range(100):
        log, _ = sample_log(rng, n=10)
        params = PolicyParams(0.3 * rng.normal(size=(2, 3)))
        z, _ = sample_losses(params, log)
        s = LossSample(z)
        thr = s.variance() / max((s.mean() - z.min()) ** 2, 1e-300)
        lam = 0.5 * math.sqrt(log.n * thr) * float(rng.uniform(0.1, 1.0))
        gap = abs(poem_objective(params, log, lam).risk
                  - robust_risk_chi2(s, lam * lam / log.n).robust_risk)
        worst_poem = max(worst_poem, gap)
        worst_kl = max(worst_kl, abs(kl_crm_objective(params, log, 1e9).risk
                                     - cips_risk(params, log).risk))
        base = cips_risk(params, log).risk
        for eps in (1e-3, 1e-1, 1.0):
            if akl_crm_objective(params, log, eps).risk < base - 1e-12:
                pessimism_ok = False
    ok = worst_poem <= 1e-10 and worst_kl <= 1e-8 and pessimism_ok
    report(6, ok, f"variance-penalty bridge {worst_poem:.2e} (<=1e-10), "
                  f"flat-temperature bridge {worst_kl:.2e} (<=1e-8), "
                  f"pessimism {'holds' if pessimism_ok else 'violated'}")
    assert worst_poem <= 1e-10
    assert worst_kl <= 1e-8
    assert pessimism_ok


def _benchmark(name, train, test, seeds, delta=4):
    cfg = ExperimentConfig(
        dataset=train, test_dataset=test, seeds=tuple(seeds), delta=delta,
        algorithms=("cips", "poem", "klcrm", "aklcrm"), grids=default_grids(),
        out_dir=f"/tmp/dro_crm_accept_{name}_d{delta}")
    rows = run_experiment(cfg)
    assert all(r.status == "ok" for r in rows), [r.message for r in rows]
    means = {}
    for alg in cfg.algorithms:
        means[alg] = float(np.mean([r.expected_loss for r in rows
                                    if r.algorithm == alg]))
    pi0 = float(np.mean([r.logger_expected for r in rows
                         if r.algorithm == "cips"]))
    return means, pi0, rows


def test_criterion_7_benchmark_tables():
    datasets = {}
    for name in ("scene", "yeast"):
        train = find_dataset(f"{name}_train")
        test = find_dataset(f"{name}_test")
        if train and test:
            datasets[name] = (train, test)
    if not datasets:
        report(7, True, "SKIPPED: Scene/Yeast files not found (see README, "
                        "'Benchmark data'); offline sandbox cannot fetch them")
        pytest.skip("Scene/Yeast datasets not available")
    t0 = time.perf_counter()
    all_ok = True
    for name, (train, test) in datasets.items():
        means, pi0, _ = _benchmark(name, train, test, seeds=range(20))
        expect = TABLE_EXPECTED[name]
        hard = all(m < pi0 for m in means.values())
        soft = {alg: abs(means[alg] - expect[alg]) / expect[alg] <= 0.15
                for alg in means}
        all_ok = all_ok and hard
        report(7, hard, f"{name}: pi0 {pi0:.3f} (ref {expect['pi0']:.3f}); " +
               ", ".join(f"{alg} {means[alg]:.3f}"
                         f"({'in' if soft[alg] else 'OUT OF'} 15% band of "
                         f"{expect[alg]:.3f})" for alg in means))
        assert hard, f"{name}: some learned policy did not beat the logger"
    elapsed = time.perf_counter() - t0
    print(f"[criterion 7] runtime {elapsed / 60.0:.1f} min (target < 30 min)")
    assert all_ok


def test_criterion_8_replay_sweep():
    train = find_dataset("yeast_train")
    test = find_dataset("yeast_test")
    if not (train and test):
        report(8, True, "SKIPPED: Yeast files not found (see README, "
                        "'Benchmark data'); offline sandbox cannot fetch them")
        pytest.skip("Yeast dataset not available")
    per_delta = {}
    for delta in (1, 4, 16, 64):
        means, _, _ = _benchmark("yeast", train, test, seeds=range(10), delta=delta)
        per_delta[delta] = means
    ok = all(per_delta[64][alg] <= per_delta[1][alg] for alg in per_delta[1])
    report(8, ok, "; ".join(
        f"{alg}: d1 {per_delta[1][alg]:.3f} -> d64 {per_delta[64][alg]:.3f}"
        for alg in per_delta[1]))
    kl_beats_poem = min(per_delta[1]["klcrm"],
                        per_delta[1]["aklcrm"]) <= per_delta[1]["poem"]
    print(f"[criterion 8] small-replay comparison (reported, not gated): "
          f"KL-based beat variance penalty at delta=1: {kl_beats_poem}")
    assert ok


def test_criterion_9_t_test_against_integration():
    quad = pytest.importorskip("scipy.integrate")

    def t_sf_oracle(t, dof):
        c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi)
                                         * math.gamma(dof / 2))
        val, _ = quad.quad(lambda u: c * (1 + u * u / dof) ** (-(dof + 1) / 2),
                           t, np.inf)
        return val

    k = 20
    base = np.arange(k, dtype=float)
    base = (base - base.mean()) / base.std(ddof=1)
    a = base + 1.729 / math.sqrt(k)
    res = paired_t_test_one_tailed(a, np.zeros(k))
    oracle = t_sf_oracle(1.729, 19)
    ok = abs(res.p_value - oracle) <= 1e-3 and abs(res.p_value - 0.05) <= 1e-3
    report(9, ok, f"p {res.p_value:.6f}, oracle {oracle:.6f}, |diff| "
                  f"{abs(res.p_value - oracle):.2e} (<=1e-3)")
    assert abs(res.p_value - oracle) <= 1e-3
    assert abs(res.p_value - 0.05) <= 1e-3


def test_criterion_10_byte_identical_runs(tmp_path):
    data = tmp_path / "synth.svm"
    save_multilabel_svmlight(synthetic_multilabel(150, 6, 2, seed=3,
                                                  label_noise=0.05), data)
    cfg = tmp_path / "exp.cfg"
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    cfg.write_text(
        f"dataset = {data}\n"
        "algorithms = cips,poem,klcrm,aklcrm\n"
        "seeds = 0,1\n"
        "delta = 2\n"
        "grid_poem = 1e-4,1e-2\n"
        "grid_klcrm = 1,100\n"
        "grid_aklcrm = 1e-4,1e-2\n"
        "optim_max_iters = 150\n"
        "threads = 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for out in outs:
        r = subprocess.run(
            [sys.executable, "-m", "dro_crm.cli", "run", "--config", str(cfg),
             "--out-dir", str(out)],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
    a = (outs[0] / "results.csv").read_bytes()
    b = (outs[1] / "results.csv").read_bytes()
    ok = a == b
    report(10, ok, f"results.csv identical across runs: {ok} ({len(a)} bytes)")
    assert ok
