import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from dro_crm import (ContractViolation, ExperimentConfig, PolicyParams,
                     default_grids, emit_results, evaluate, make_objective,
                     paired_t_test_one_tailed, replay_sweep, run_experiment,
                     run_single, synthetic_multilabel, save_multilabel_svmlight)
from dro_crm import bench
from dro_crm.bench import RESULTS_HEADER, ResultRow, write_results_csv
from dro_crm.cli import main
from dro_crm.objectives import RULES
from dro_crm.optim import OptimTrace
from numeric_oracles import t_sf_oracle
from toy_logs import sample_log


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.svm"
    save_multilabel_svmlight(synthetic_multilabel(200, 8, 3, seed=0,
                                                  label_noise=0.05), path)
    return str(path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def read_results_csv(path):
    """The lines after the RESULTS_HEADER line, each as a dict by its names."""
    header, *lines = read_lines(path)
    assert header == RESULTS_HEADER
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def small_config(synth_path, **kw):
    base = dict(dataset=synth_path, seeds=(0,), delta=2,
                optim_max_iters=150, threads=1,
                grids={"poem": [1e-4, 1e-2], "klcrm": [1.0, 100.0],
                       "aklcrm": [1e-4, 1e-2]})
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_duplicate_seeds_rejected(self, synth_path):
        with pytest.raises(ContractViolation):
            small_config(synth_path, seeds=(0, 0))

    def test_duplicate_algorithms_rejected(self, synth_path):
        # each cell would be fitted twice, and summary.csv would count its
        # seeds twice
        with pytest.raises(ContractViolation, match="^algorithms must be distinct$"):
            small_config(synth_path, algorithms=("cips", "cips"))

    def test_empty_grid_rejected(self, synth_path):
        with pytest.raises(ContractViolation):
            small_config(synth_path, algorithms=("poem",), grids={"poem": []})

    @pytest.mark.parametrize("alg", [alg for alg, (name, *_) in RULES.items() if name])
    def test_infinite_grid_value_rejected(self, synth_path, alg):
        name, _, domain, _ = RULES[alg]
        with pytest.raises(ContractViolation,
                           match=f"^{alg} {name} must be finite and {domain}, got inf$"):
            small_config(synth_path, algorithms=(alg,), grids={alg: [1.0, math.inf]})

    @pytest.mark.parametrize("alg", list(RULES))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_hyper_checked_as_evaluation_checks_it(self, synth_path, alg, value):
        # the config, make_objective and evaluate all raise or all accept; a
        # row without a hyper-parameter (cips) takes no value, not even a grid
        log, _ = sample_log(np.random.default_rng(5))
        checks = [lambda: small_config(synth_path, algorithms=(alg,), grids={alg: [value]}),
                  lambda: make_objective(alg, log, value),
                  lambda: evaluate(alg, PolicyParams.zeros(2, 3), log, value)]
        accepted = []
        for check in checks:
            try:
                check()
                accepted.append(True)
            except ContractViolation:
                accepted.append(False)
        assert accepted == [alg == "poem" and value == 0.0] * 3

    def test_added_row_needs_no_other_code(self, synth_path, monkeypatch):
        # a fifth algorithm is one RULES row: here poem's rule under a new name
        monkeypatch.setitem(RULES, "poem2", ("lambda", RULES["poem"][1], "non-negative",
                                             (-6.0, 0.0)))
        grids = {"poem": [1e-3], "poem2": [1e-3]}
        cfg = small_config(synth_path, algorithms=("poem", "poem2"), grids=grids)
        for bad in ({"poem": [1e-3]}, {**grids, "poem2": [-1.0]}):
            with pytest.raises(ContractViolation, match="^poem2 "):
                small_config(synth_path, algorithms=("poem2",), grids=bad)
        row = run_single(cfg, "poem2", 0)
        assert (row.status, row.hyper_name, row.hyper_value) == ("ok", "lambda", 1e-3)
        assert row.expected_loss == run_single(cfg, "poem", 0).expected_loss
        # its search range is the default grid, so a config needs no grid for it
        assert np.array_equal(default_grids()["poem2"], default_grids()["poem"])
        cfg = ExperimentConfig(synth_path, algorithms=("poem2",))
        assert np.array_equal(cfg.grids["poem2"], default_grids()["poem"])

    def test_unknown_algorithm_rejected(self, synth_path):
        with pytest.raises(ContractViolation):
            small_config(synth_path, algorithms=("sgd",))

    @pytest.mark.parametrize("bad", [dict(seeds=(0, -1)), dict(delta=0),
                                     dict(optim_max_iters=0)])
    def test_negative_seed_and_zero_replays_rejected(self, synth_path, bad):
        with pytest.raises(ContractViolation):
            small_config(synth_path, **bad)


class TestDefaultGrids:
    def test_endpoints_and_sizes(self):
        grids = default_grids()
        assert grids["poem"][0] == pytest.approx(1e-6)
        assert grids["poem"][-1] == pytest.approx(1.0)
        assert grids["klcrm"][0] == pytest.approx(1e-3)
        assert grids["klcrm"][-1] == pytest.approx(1e4)
        assert grids["aklcrm"][0] == pytest.approx(1e-6)
        assert grids["aklcrm"][-1] == pytest.approx(1.0)
        assert all(len(g) == 8 for g in grids.values())
        assert "cips" not in grids

    def test_same_arrays_as_the_literal_ranges(self):
        # the ranges moved into RULES; the grids they give are bit for bit
        # those the ranges written out in bench gave
        want = {"poem": 10.0 ** np.linspace(-6.0, 0.0, 8),
                "klcrm": 10.0 ** np.linspace(-3.0, 4.0, 8),
                "aklcrm": 10.0 ** np.linspace(-6.0, 0.0, 8)}
        grids = default_grids()
        assert list(grids) == list(want)
        assert all(np.array_equal(grids[alg], want[alg]) for alg in want)


class TestPairedTTest:
    def test_zero_variance_positive_mean(self):
        res = paired_t_test_one_tailed([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        assert res.degenerate
        assert res.p_value == 0.0

    def test_all_zero_differences(self):
        res = paired_t_test_one_tailed([1.0, 2.0], [1.0, 2.0])
        assert res.degenerate
        assert res.p_value == 0.5

    def test_symmetric_differences_give_half(self):
        rng = np.random.default_rng(0)
        half = rng.uniform(0.1, 1.0, size=50)
        b = rng.normal(size=100)
        a = b + np.concatenate([half, -half])  # differences exactly antithetic
        res = paired_t_test_one_tailed(a, b)
        assert res.t_stat == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)

    def test_critical_value_at_19_dof(self):
        # differences engineered to have sd 1 and mean t/sqrt(k): t = 1.729
        k = 20
        base = np.arange(k, dtype=float)
        base = (base - base.mean()) / base.std(ddof=1)
        target_t = 1.729
        a = base + target_t / math.sqrt(k)
        res = paired_t_test_one_tailed(a, np.zeros(k))
        assert res.t_stat == pytest.approx(target_t, rel=1e-12)
        assert res.p_value == pytest.approx(0.05, abs=2e-3)

    def test_against_density_integration(self):
        k = 20
        base = np.arange(k, dtype=float)
        base = (base - base.mean()) / base.std(ddof=1)
        for t_target in (0.5, 1.729, 2.9):
            a = base + t_target / math.sqrt(k)
            res = paired_t_test_one_tailed(a, np.zeros(k))
            assert res.p_value == pytest.approx(t_sf_oracle(t_target, 19), abs=1e-8)

    def test_tail_table_against_scipy(self):
        # both branches of the incomplete beta's series, the t of the branch
        # threshold x = (a + 1) / (a + b + 2), where the series needs the most
        # terms, and both signs of t, down to p near 1e-200
        from scipy import stats
        for dof in (*range(1, 41), 99, 999):
            k = dof + 1
            base = np.arange(k, dtype=float)
            base = (base - base.mean()) / base.std(ddof=1)
            for size in (*np.logspace(-3, 3, 49), math.sqrt(3.0 * dof / (dof + 2.0))):
                for t_target in (size, -size):
                    res = paired_t_test_one_tailed(base + t_target / math.sqrt(k),
                                                   np.zeros(k))
                    assert res.dof == dof and not res.degenerate
                    assert res.p_value == pytest.approx(
                        stats.t.sf(res.t_stat, res.dof), rel=1e-11), (dof, res.t_stat)

    def test_input_validation(self):
        with pytest.raises(ContractViolation):
            paired_t_test_one_tailed([1.0], [0.0])
        with pytest.raises(ContractViolation):
            paired_t_test_one_tailed([1.0, 2.0], [0.0])
        # a non-finite sample in either vector, and finite samples whose
        # differences, or the differences' mean, overflow
        cases = [pair for bad in (math.nan, math.inf, -math.inf)
                 for pair in (([1.0, bad, 3.0], [0.0, 1.0, 2.0]),
                              ([0.0, 1.0, 2.0], [1.0, 2.0, bad]))]
        cases += [([1e308, -1e308, 0.0], [-1e308, 1e308, 0.0]),
                  ([1.7e308, 1.7e308, 1.6e308], [0.0, 0.0, 0.0])]
        for a, b in cases:
            with pytest.raises(ContractViolation, match="need a finite mean and sd"), \
                    np.errstate(over="ignore", invalid="ignore"):
                paired_t_test_one_tailed(a, b)


class TestRunSingle:
    def test_cips_beats_logger_on_separable_data(self, synth_path):
        row = run_single(small_config(synth_path), "cips", 0)
        assert row.status == "ok"
        assert row.expected_loss < row.logger_expected

    def test_identical_runs_identical_rows(self, synth_path):
        cfg = small_config(synth_path)
        a = run_single(cfg, "poem", 0)
        b = run_single(cfg, "poem", 0)
        assert a.expected_loss == b.expected_loss
        assert a.greedy_loss == b.greedy_loss
        assert a.hyper_value == b.hyper_value
        assert a.grid_scores == b.grid_scores

    def test_single_point_grid_selected(self, synth_path):
        cfg = small_config(synth_path, grids={"poem": [0.123],
                                              "klcrm": [1.0], "aklcrm": [1.0]})
        row = run_single(cfg, "poem", 0)
        assert row.hyper_value == 0.123
        assert len(row.grid_scores) == 1

    def test_selection_minimizes_validation_score(self, synth_path):
        cfg = small_config(synth_path, grids={"poem": [1e-5, 1e-3, 0.1],
                                              "klcrm": [1.0], "aklcrm": [1.0]})
        row = run_single(cfg, "poem", 0)
        grid = list(cfg.grids["poem"])
        assert row.hyper_value == grid[int(np.argmin(row.grid_scores))]

    def test_failure_is_captured(self):
        cfg = ExperimentConfig(dataset="/nonexistent/file.svm", seeds=(0,))
        row = run_single(cfg, "cips", 0)
        assert row.status == "failed"
        assert "FileNotFoundError" in row.message

    def test_unknown_algorithm_is_captured(self, synth_path):
        row = run_single(small_config(synth_path), "bogus", 0)
        assert (row.status, row.message) == (
            "failed", "ContractViolation: unknown algorithm 'bogus'")
        assert (row.algorithm, row.seed, row.hyper_name) == ("bogus", 0, "")


# Each seed's logger and skyline test losses (expected, greedy, expected,
# greedy), as a seed's set-up gives them to all of its cells.
_BASELINES = {0: (4.5, 4.25, 0.75, 0.5), 1: (4.8125, 4.5, 0.8, 0.625),
              2: (4.6, 4.375, 0.7, 0.5)}


def pinned_row(algorithm, seed, expected=math.nan, greedy=math.nan, *,
               status="ok", hyper=math.nan, wall_time_s=0.5):
    """A row named field by field, as a cell of `status` builds it: a failed
    row knows only its cell, a baseline row only its seed's baselines."""
    known = status != "failed"
    base = _BASELINES[seed] if known else (math.nan,) * 4
    grid = (-0.5, hyper / 3) if status == "ok" and algorithm != "cips" else ()
    return ResultRow(
        dataset="d.svm", algorithm=algorithm, seed=seed, delta=4,
        hyper_name={"cips": "", "poem": "lam", "klcrm": "gamma",
                    "aklcrm": "eps", "baseline": ""}[algorithm],
        hyper_value=hyper, expected_loss=expected, greedy_loss=greedy,
        valid_score=-0.5 if status == "ok" else math.nan,
        logger_expected=base[0], logger_greedy=base[1],
        skyline_expected=base[2], skyline_greedy=base[3], grid_scores=grid,
        status=status, message="RuntimeError: boom" if not known else "",
        wall_time_s=wall_time_s)


def _mixed_rows():
    """cips on every seed; klcrm fails on seed 2; poem, the lowest mean,
    never ran seed 1; aklcrm ran seed 1 only.  So cips, the lowest mean on
    the most seeds, is the best; poem, which shares two seeds with it, gets a
    p-value.  klcrm shares two seeds too, but its differences from cips are
    equal, a degenerate test, so its p-value is empty, as is aklcrm's.  Given
    out of order: emit_results sorts."""
    return [
        pinned_row("poem", 2, 4.0123456789, 3.9, hyper=1e-4),
        pinned_row("cips", 1, 4.25, 4.0, wall_time_s=2.25),
        pinned_row("klcrm", 2, status="failed", wall_time_s=0.0125),
        pinned_row("cips", 0, 4.0, 3.75),
        pinned_row("klcrm", 0, 4.5, 4.0, hyper=10.0),
        pinned_row("aklcrm", 1, 4.9, 4.625, hyper=0.01),
        pinned_row("cips", 2, 4.125, 4.0),
        pinned_row("poem", 0, 3.875, 3.5, hyper=1e-6),
        pinned_row("klcrm", 1, 4.75, 4.5, hyper=1000.0),
    ]


def _baseline_rows():
    return [pinned_row("baseline", s, status="baseline", wall_time_s=1.0)
            for s in (1, 0)]


_HEADER = RESULTS_HEADER + "\n"
_SUMMARY_HEADER = ("algorithm,n_seeds,mean_expected,se_expected,mean_greedy,"
                   "se_greedy,p_value_vs_best\n")

PINNED_OUTPUTS = {
    "mixed": (_mixed_rows, {
        "results": _HEADER +
        "d.svm,aklcrm,1,4,eps,0.01,4.9,4.625,-0.5,4.8125,4.5,0.8,0.625,-0.5;0.00333333,ok\n"
        "d.svm,cips,0,4,,nan,4,3.75,-0.5,4.5,4.25,0.75,0.5,,ok\n"
        "d.svm,cips,1,4,,nan,4.25,4,-0.5,4.8125,4.5,0.8,0.625,,ok\n"
        "d.svm,cips,2,4,,nan,4.125,4,-0.5,4.6,4.375,0.7,0.5,,ok\n"
        "d.svm,klcrm,0,4,gamma,10,4.5,4,-0.5,4.5,4.25,0.75,0.5,-0.5;3.33333,ok\n"
        "d.svm,klcrm,1,4,gamma,1000,4.75,4.5,-0.5,4.8125,4.5,0.8,0.625,-0.5;333.333,ok\n"
        "d.svm,klcrm,2,4,gamma,nan,nan,nan,nan,nan,nan,nan,nan,,failed\n"
        "d.svm,poem,0,4,lam,1e-06,3.875,3.5,-0.5,4.5,4.25,0.75,0.5,-0.5;3.33333e-07,ok\n"
        "d.svm,poem,2,4,lam,0.0001,4.01235,3.9,-0.5,4.6,4.375,0.7,0.5,-0.5;3.33333e-05,ok\n",
        "summary": _SUMMARY_HEADER +
        "pi0,3,4.6375,0.0921389,4.375,0.0721688,\n"
        "crf,3,0.75,0.0288675,0.541667,0.0416667,\n"
        "aklcrm,1,4.9,,4.625,,\n"
        "cips,3,4.125,0.0721688,3.91667,0.0833333,\n"
        "klcrm,2,4.625,0.125,4.25,0.25,\n"
        "poem,2,3.94367,0.0686728,3.7,0.2,0.983479\n",
        "timings": "algorithm,seed,wall_time_s\n"
        "aklcrm,1,0.500\ncips,0,0.500\ncips,1,2.250\ncips,2,0.500\n"
        "klcrm,0,0.500\nklcrm,1,0.500\nklcrm,2,0.013\npoem,0,0.500\npoem,2,0.500\n",
    }),
    "baselines_only": (_baseline_rows, {
        "results": _HEADER +
        "d.svm,baseline,0,4,,nan,nan,nan,nan,4.5,4.25,0.75,0.5,,baseline\n"
        "d.svm,baseline,1,4,,nan,nan,nan,nan,4.8125,4.5,0.8,0.625,,baseline\n",
        "summary": _SUMMARY_HEADER +
        "pi0,2,4.65625,0.15625,4.375,0.125,\n"
        "crf,2,0.775,0.025,0.5625,0.0625,\n",
        "timings": "algorithm,seed,wall_time_s\nbaseline,0,1.000\nbaseline,1,1.000\n",
    }),
}


class TestEmitResults:
    def test_round_trip_and_pvalues(self, synth_path, tmp_path):
        cfg = small_config(synth_path, seeds=(0, 1, 2),
                           algorithms=("cips", "aklcrm"))
        rows = run_experiment(cfg)
        paths = emit_results(rows, tmp_path / "out")
        lines = read_lines(paths["results"])
        assert len(lines) == 1 + len(rows)
        # aggregates recomputable from rows
        body = [l.split(",") for l in lines[1:]]
        by_alg = {}
        for parts in body:
            by_alg.setdefault(parts[1], []).append(float(parts[6]))
        summary = {l.split(",")[0]: l.split(",") for l in
                   read_lines(paths["summary"])[1:]}
        for alg, vals in by_alg.items():
            assert float(summary[alg][2]) == pytest.approx(np.mean(vals), rel=1e-4)
        # p-value column against the best algorithm is recomputable
        means = {alg: np.mean(v) for alg, v in by_alg.items()}
        best = min(means, key=means.get)
        other = next(a for a in by_alg if a != best)
        expect = paired_t_test_one_tailed(by_alg[other], by_alg[best]).p_value
        assert float(summary[other][6]) == pytest.approx(expect, rel=1e-4)
        assert summary[best][6] == ""

    def test_empty_algorithms_emits_baselines(self, synth_path, tmp_path):
        cfg = small_config(synth_path, algorithms=())
        rows = run_experiment(cfg)
        paths = emit_results(rows, tmp_path / "out2")
        summary = read_lines(paths["summary"])
        names = [l.split(",")[0] for l in summary[1:]]
        assert "pi0" in names and "crf" in names

    def test_failed_rows_recorded_but_not_aggregated(self, synth_path, tmp_path):
        good = run_single(small_config(synth_path), "cips", 0)
        bad = ResultRow(synth_path, "cips", 1, 2, status="failed", message="boom")
        paths = emit_results([good, bad], tmp_path / "outf")
        lines = read_lines(paths["results"])
        assert len(lines) == 3
        assert any(l.endswith("failed") for l in lines[1:])
        summary = {l.split(",")[0]: l for l in
                   read_lines(paths["summary"])[1:]}
        assert summary["cips"].split(",")[1] == "1"  # only the good seed

    @pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
    def test_outputs_pinned_byte_for_byte(self, tmp_path, case):
        rows, want = PINNED_OUTPUTS[case]
        paths = emit_results(rows(), tmp_path / case)
        for name, text in want.items():
            with open(paths[name], "rb") as fh:
                assert fh.read() == text.encode(), name

    def test_no_wall_time_in_results(self, synth_path, tmp_path):
        cfg = small_config(synth_path)
        rows = run_experiment(cfg)
        paths = emit_results(rows, tmp_path / "out3")
        header = read_lines(paths["results"])[0]
        assert "wall" not in header
        assert os.path.exists(paths["timings"])


class TestFullProtocolSynthetic:
    def test_every_algorithm_beats_logger(self, synth_path):
        cfg = small_config(synth_path, seeds=tuple(range(6)),
                           algorithms=("cips", "poem", "klcrm", "aklcrm"),
                           delta=4, threads=None)
        rows = run_experiment(cfg)
        assert all(r.status == "ok" for r in rows)
        pi0 = np.mean([r.logger_expected for r in rows if r.algorithm == "cips"])
        for alg in cfg.algorithms:
            mean = np.mean([r.expected_loss for r in rows if r.algorithm == alg])
            assert mean < pi0, (alg, mean, pi0)
        # the supervised skyline is an upper reference: better than anything
        sky = np.mean([r.skyline_expected for r in rows if r.algorithm == "cips"])
        assert sky < pi0


class TestReplaySweep:
    def test_row_count_and_round_trip(self, synth_path, tmp_path):
        cfg = small_config(synth_path, algorithms=("cips", "poem"), seeds=(0, 1, 2))
        rows = replay_sweep(cfg, deltas=[1, 2])
        assert len(rows) == 2 * 2 * 3
        path = tmp_path / "sweep.csv"
        write_results_csv(rows, path)
        back = read_results_csv(path)
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert (got["dataset"], got["algorithm"], int(got["delta"]), int(got["seed"])
                    ) == (want.dataset, want.algorithm, want.delta, want.seed)
            assert float(got["expected_loss"]) == pytest.approx(want.expected_loss, rel=1e-5)
            assert float(got["greedy_loss"]) == pytest.approx(want.greedy_loss, rel=1e-5)
            assert (got["hyper_name"], got["status"]) == (want.hyper_name, "ok")

    def test_more_replays_do_not_hurt(self, synth_path):
        cfg = small_config(synth_path, algorithms=("cips", "aklcrm"),
                           seeds=tuple(range(10)), threads=None,
                           grids={"poem": [1e-3], "klcrm": [10.0],
                                  "aklcrm": [1e-4, 1e-2]})
        rows = replay_sweep(cfg, deltas=[1, 16])
        by = {}
        for r in rows:
            by.setdefault((r.algorithm, r.delta), []).append(r.expected_loss)
        for alg in ("cips", "aklcrm"):
            assert np.mean(by[(alg, 16)]) <= np.mean(by[(alg, 1)])

    def test_no_algorithms_gives_baseline_rows(self, synth_path):
        rows = replay_sweep(small_config(synth_path, algorithms=()), deltas=[1, 2])
        assert [(r.algorithm, r.delta, r.status) for r in rows] == [
            ("baseline", 1, "baseline"), ("baseline", 2, "baseline")]
        assert all(math.isfinite(r.logger_expected) for r in rows)

    def test_validates_deltas(self, synth_path):
        with pytest.raises(ContractViolation):
            replay_sweep(small_config(synth_path), deltas=[0])

    @pytest.mark.parametrize("deltas", [(2, 2), ()], ids=["repeated", "empty"])
    def test_rejects_repeated_or_no_deltas(self, synth_path, monkeypatch, deltas):
        # rejected before any cell runs
        monkeypatch.setattr(bench, "run_single", None)
        with pytest.raises(ContractViolation, match="deltas must be distinct and non-empty"):
            replay_sweep(small_config(synth_path), deltas)


def assert_same_rows(got, want):
    """Every field but the wall time equal, NaNs and parameter arrays included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(ResultRow):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "params":
                assert (x is None) == (y is None)
                if x is not None:
                    np.testing.assert_array_equal(x.weights, y.weights)
            elif f.name != "wall_time_s":
                np.testing.assert_equal(x, y, err_msg=f.name)


class TestSharedSetup:
    """A driver builds each seed's set-up once and shares it among that
    seed's cells; the rows are those of standalone run_single calls."""

    @pytest.fixture
    def split_paths(self, tmp_path):
        full = synthetic_multilabel(200, 8, 3, seed=4, label_noise=0.05)
        train, test = tmp_path / "train.svm", tmp_path / "test.svm"
        save_multilabel_svmlight(full.subset(range(150)), train)
        save_multilabel_svmlight(full.subset(range(150, 200)), test)
        return str(train), str(test)

    @staticmethod
    def count_calls(monkeypatch, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(bench, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bench, name, counted)
        return counts

    def test_each_seed_set_up_once(self, split_paths, monkeypatch):
        counts = self.count_calls(monkeypatch, ("load_multilabel_svmlight",
                                                "train_logger", "generate_bandit_log"))
        train, test = split_paths
        cfg = small_config(train, test_dataset=test, seeds=(0, 1), optim_max_iters=5)
        rows = run_experiment(cfg)
        assert len(rows) == 8 and all(r.status == "ok" for r in rows)
        # per seed: one read of both files, logger and skyline, train and
        # validation log
        assert counts == {"load_multilabel_svmlight": 2, "train_logger": 2 * 2,
                          "generate_bandit_log": 2 * 2}

    def test_test_file_takes_dataset_label_ids_and_width(self, tmp_path):
        # the dataset is 0-based with 8 features; the test file has no label 0
        # and never uses feature 8, so read alone it would be 1-based and narrower
        train, test = tmp_path / "train.svm", tmp_path / "test.svm"
        save_multilabel_svmlight(synthetic_multilabel(150, 8, 3, seed=4), train)
        test.write_text("1 1:0.5 7:2.0\n2,1 3:-1.0\n")
        cfg = small_config(str(train), test_dataset=str(test),
                           algorithms=("cips",), optim_max_iters=5)
        _, got = bench._load_pools(cfg, 0)
        assert got.Y.tolist() == [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        want_x = np.zeros((2, 9))
        want_x[0, [0, 6]], want_x[1, 2], want_x[:, 8] = (0.5, 2.0), -1.0, 1.0
        np.testing.assert_array_equal(got.X, want_x)
        assert [r.status for r in run_experiment(cfg)] == ["ok"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_standalone_cells(self, split_paths, threads):
        train, test = split_paths
        cfg = small_config(train, test_dataset=test, seeds=(0, 1),
                           optim_max_iters=20, threads=threads)
        standalone = [run_single(cfg, alg, seed)
                      for alg in sorted(cfg.algorithms) for seed in cfg.seeds]
        assert_same_rows(run_experiment(cfg), standalone)

    def test_sweep_rows_equal_standalone_cells(self, synth_path):
        cfg = small_config(synth_path, algorithms=("cips", "poem"), optim_max_iters=20)
        got = replay_sweep(cfg, deltas=[2, 1])  # one set-up per delta
        want = [run_single(dataclasses.replace(cfg, delta=delta), alg, 0)
                for alg in ("cips", "poem") for delta in (1, 2)]
        assert_same_rows(got, want)

    def test_rewritten_file_is_read_again(self, tmp_path):
        path = tmp_path / "data.svm"
        cfg = small_config(str(path), algorithms=("cips",), optim_max_iters=20)
        runs = []
        for data_seed in (5, 6):
            save_multilabel_svmlight(synthetic_multilabel(200, 8, 3, seed=data_seed), path)
            standalone = run_single(cfg, "cips", 0)  # after a run, built anew too
            rows = run_experiment(cfg)
            assert_same_rows(rows, [standalone])
            runs.append(rows[0])
        assert runs[0].logger_expected != runs[1].logger_expected

    def test_failed_set_up_fails_every_cell(self, monkeypatch):
        counts = self.count_calls(monkeypatch, ("load_multilabel_svmlight",))
        cfg = ExperimentConfig(dataset="/nonexistent/file.svm", seeds=(0, 1),
                               algorithms=("cips", "poem"), threads=1)
        rows = run_experiment(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r.status == "failed"
            assert r.message.startswith("FileNotFoundError:")
        assert len({r.message for r in rows}) == 1
        assert counts["load_multilabel_svmlight"] == 4  # failures are not kept

    @pytest.mark.parametrize("command, flags, cells", [
        ("run", ["--seeds", "0,1", "--delta", "2"],
         [("cips", 2, 0), ("cips", 2, 1), ("poem", 2, 0), ("poem", 2, 1)]),
        ("sweep", ["--deltas", "1,2", "--seeds", "0"],
         [("cips", 1, 0), ("cips", 2, 0), ("poem", 1, 0), ("poem", 2, 0)]),
    ], ids=["run", "sweep"])
    def test_failed_cells_reported(self, monkeypatch, capsys, tmp_path,
                                   command, flags, cells):
        counts = self.count_calls(monkeypatch, ("load_multilabel_svmlight",))
        assert main([command, "--dataset", "/nonexistent/file.svm",
                     "--algorithms", "cips,poem", "--threads", "1",
                     "--out-dir", str(tmp_path), *flags]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(cells)
        for line, (alg, delta, seed) in zip(lines, cells):
            assert line.startswith(f"[failed] {alg} delta={delta} seed={seed}: "
                                   "FileNotFoundError: ")
        assert counts["load_multilabel_svmlight"] == 4  # one try per cell

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--seeds", "0,1", "--delta", "2"]),
        ("sweep", ["--deltas", "2", "--seeds", "0,1"]),
    ], ids=["run", "sweep"])
    def test_partly_failed_run_exits_0(self, synth_path, monkeypatch, capsys,
                                       tmp_path, command, flags):
        seed_setup = bench._seed_setup

        def fail_seed_1(cfg, seed):
            if seed == 1:
                raise RuntimeError("no set-up")
            return seed_setup(cfg, seed)

        monkeypatch.setattr(bench, "_seed_setup", fail_seed_1)
        assert main([command, "--dataset", synth_path, "--algorithms", "cips",
                     "--threads", "1", "--out-dir", str(tmp_path), *flags]) == 0
        assert capsys.readouterr().err == (
            "[failed] cips delta=2 seed=1: RuntimeError: no set-up\n"
            "[fits] 1: 1 f_tol\n")

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--seeds", "0,1", "--delta", "2"]),
        ("sweep", ["--deltas", "1,2", "--seeds", "0"]),
    ], ids=["run", "sweep"])
    def test_fit_census_counts_the_traces(self, synth_path, monkeypatch, capsys,
                                          tmp_path, command, flags):
        reasons = []

        def traced(*args, _fit=bench.minimize, **kwargs):
            x, trace = _fit(*args, **kwargs)
            reasons.append(trace.termination)
            return x, trace

        monkeypatch.setattr(bench, "minimize", traced)
        cfg_file = tmp_path / "census.cfg"
        cfg_file.write_text("grid_poem = 1e-4,1e-2,30\ngrid_klcrm = 1,100\n"
                            "optim_max_iters = 40\n")
        assert main([command, "--config", str(cfg_file), "--dataset", synth_path,
                     "--algorithms", "cips,poem,klcrm", "--threads", "1",
                     "--out-dir", str(tmp_path / "out"), *flags]) == 0
        census = Counter(reasons)
        assert sum(census.values()) == 2 * (1 + 3 + 2) and len(census) > 1
        counts = ", ".join(f"{census[reason]} {reason}" for reason in sorted(census))
        assert capsys.readouterr().err == f"[fits] {len(reasons)}: {counts}\n"

    def test_fit_census_counts_a_nan_objective(self, synth_path, monkeypatch, capsys,
                                               tmp_path):
        # the cell's row still reads ok; the census is where its fit shows
        monkeypatch.setattr(bench, "minimize", lambda fun, x0, **kwargs: (
            x0, OptimTrace(termination="nan_objective")))
        assert main(["run", "--dataset", synth_path, "--algorithms", "cips",
                     "--seeds", "0", "--threads", "1", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "[fits] 1: 1 nan_objective\n"
        assert read_lines(tmp_path / "results.csv")[1].endswith(",ok")

    def test_pool_has_no_more_workers_than_cells(self, synth_path, monkeypatch):
        # a pool that records its size and runs the cells here, so no
        # process is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize):
                return map(fn, cells)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = small_config(synth_path, algorithms=("cips",), seeds=(0, 1),
                           optim_max_iters=5, threads=10**6)
        rows = run_experiment(cfg)
        assert sizes == [2]
        assert [r.status for r in rows] == ["ok", "ok"]

    def test_no_train_log_outlives_its_seed(self, split_paths, monkeypatch):
        # with the cyclic GC off only reference counts free a log, so a log
        # held in a reference cycle (a fitted objective's, say) would outlive
        # its seed's cells and the driver call
        refs, alive_before = [], []
        generate = bench.generate_bandit_log

        def spy(*args, stream, **kwargs):
            log = generate(*args, stream=stream, **kwargs)
            if stream == 0:
                alive_before.append([r() is not None for r in refs])
                refs.append(weakref.ref(log))
            return log

        monkeypatch.setattr(bench, "generate_bandit_log", spy)
        train, test = split_paths
        cfg = small_config(train, test_dataset=test, seeds=(0, 1), optim_max_iters=5)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            rows = run_experiment(cfg)
            alive = [r() is not None for r in refs]
        finally:
            if was_enabled:
                gc.enable()
        assert [r.status for r in rows] == ["ok"] * 8
        assert alive_before == [[], [False]]  # two seeds' logs never coexist
        assert alive == [False, False]  # none outlives the driver call

    def test_serial_run_loads_no_process_pool(self, synth_path, tmp_path):
        # in a fresh interpreter: neither the import nor a 1-worker run
        # loads multiprocessing, which only the pool branch needs; nor does
        # it load numpy.ma, unless numpy itself does (numpy 1.x)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_poem = 1e-3\noptim_max_iters = 5\n")
        run = ["run", "--config", str(cfg), "--dataset", synth_path,
               "--algorithms", "cips,poem", "--seeds", "0,1", "--threads", "1",
               "--out-dir", str(tmp_path)]
        script = ("import sys\n"
                  "import numpy\n"
                  "ma_with_numpy = 'numpy.ma' in sys.modules\n"
                  "import dro_crm\n"
                  "from dro_crm.cli import main\n"
                  "assert 'multiprocessing' not in sys.modules, 'after import'\n"
                  f"assert main({run!r}) == 0\n"
                  "assert 'multiprocessing' not in sys.modules, 'after run'\n"
                  "assert ma_with_numpy or 'numpy.ma' not in sys.modules, 'numpy.ma'\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert read_results_csv(tmp_path / "results.csv")[-1]["status"] == "ok"


class TestBlasThreads:
    def test_results_do_not_depend_on_blas_threads(self, tmp_path):
        # 1125 training examples by 104 features and 14 labels: the
        # gradient's product with the features spans five 256-example blocks;
        # unblocked, OpenBLAS gives that product other last bits at two
        # threads than at one, and the fits carry them into results.csv.
        # The second run takes every CPU, and at least two threads.
        data = tmp_path / "synth1500.svm"
        save_multilabel_svmlight(synthetic_multilabel(1500, 103, 14, seed=0), data)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_poem = 1e-3\ngrid_klcrm = 1\ngrid_aklcrm = 1e-3\n"
                       "delta = 4\nseeds = 0\nthreads = 1\n")
        results = []
        for blas in ("1", str(max(2, os.cpu_count() or 1))):
            out = tmp_path / f"blas{blas}"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
            r = subprocess.run(
                [sys.executable, "-m", "dro_crm.cli", "run", "--config", str(cfg),
                 "--dataset", str(data), "--out-dir", str(out)],
                capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            results.append((out / "results.csv").read_bytes())
        assert results[0].count(b",ok\n") == 4
        assert results[0] == results[1]
