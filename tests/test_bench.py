import dataclasses
import math
import os

import numpy as np
import pytest

from dro_crm import (ContractViolation, ExperimentConfig, default_grids,
                     emit_results, paired_t_test_one_tailed, replay_sweep,
                     run_experiment, run_single, synthetic_multilabel,
                     save_multilabel_svmlight)
from dro_crm import bench
from dro_crm.bench import SWEEP_HEADER, ResultRow, write_sweep_csv


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.svm"
    save_multilabel_svmlight(synthetic_multilabel(200, 8, 3, seed=0,
                                                  label_noise=0.05), path)
    return str(path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def read_sweep_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == SWEEP_HEADER
        for line in fh:
            d, alg, delta, seed, e, g = line.strip().split(",")
            rows.append((d, alg, int(delta), int(seed), float(e), float(g)))
    return rows


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

    def test_empty_grid_rejected(self, synth_path):
        with pytest.raises(ContractViolation):
            small_config(synth_path, algorithms=("poem",), grids={"poem": []})

    @pytest.mark.parametrize("alg", ["poem", "klcrm", "aklcrm"])
    def test_infinite_grid_value_rejected(self, synth_path, alg):
        with pytest.raises(ContractViolation,
                           match=f"{alg} grid values must be finite, got inf"):
            small_config(synth_path, algorithms=(alg,), grids={alg: [1.0, math.inf]})

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
        quad = pytest.importorskip("scipy.integrate")

        def t_sf_oracle(t, dof):
            c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi)
                                             * math.gamma(dof / 2))
            val, _ = quad.quad(
                lambda u: c * (1 + u * u / dof) ** (-(dof + 1) / 2), t, np.inf)
            return val

        k = 20
        base = np.arange(k, dtype=float)
        base = (base - base.mean()) / base.std(ddof=1)
        for t_target in (0.5, 1.729, 2.9):
            a = base + t_target / math.sqrt(k)
            res = paired_t_test_one_tailed(a, np.zeros(k))
            assert res.p_value == pytest.approx(t_sf_oracle(t_target, 19), abs=1e-8)

    def test_input_validation(self):
        with pytest.raises(ContractViolation):
            paired_t_test_one_tailed([1.0], [0.0])
        with pytest.raises(ContractViolation):
            paired_t_test_one_tailed([1.0, 2.0], [0.0])


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
        from dro_crm.bench import ResultRow
        import math as m
        good = run_single(small_config(synth_path), "cips", 0)
        bad = ResultRow(synth_path, "cips", 1, 2, "", m.nan, m.nan, m.nan,
                        m.nan, m.nan, m.nan, m.nan, m.nan, (),
                        status="failed", message="boom")
        paths = emit_results([good, bad], tmp_path / "outf")
        lines = read_lines(paths["results"])
        assert len(lines) == 3
        assert any(l.endswith("failed") for l in lines[1:])
        summary = {l.split(",")[0]: l for l in
                   read_lines(paths["summary"])[1:]}
        assert summary["cips"].split(",")[1] == "1"  # only the good seed

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
        cfg = small_config(synth_path, algorithms=("cips", "poem"))
        rows = replay_sweep(cfg, deltas=[1, 2], seeds=range(3))
        assert len(rows) == 2 * 2 * 3
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        back = read_sweep_csv(path)
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert got[:4] == want[:4]
            assert got[4] == pytest.approx(want[4], rel=1e-5)

    def test_more_replays_do_not_hurt(self, synth_path):
        cfg = small_config(synth_path, algorithms=("cips", "aklcrm"),
                           threads=None,
                           grids={"poem": [1e-3], "klcrm": [10.0],
                                  "aklcrm": [1e-4, 1e-2]})
        rows = replay_sweep(cfg, deltas=[1, 16], seeds=range(10))
        by = {}
        for _, alg, delta, _, exp_l, _ in rows:
            by.setdefault((alg, delta), []).append(exp_l)
        for alg in ("cips", "aklcrm"):
            assert np.mean(by[(alg, 16)]) <= np.mean(by[(alg, 1)])

    def test_validates_deltas(self, synth_path):
        with pytest.raises(ContractViolation):
            replay_sweep(small_config(synth_path), deltas=[0], seeds=(0,))


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
        got = replay_sweep(cfg, deltas=[2, 1], seeds=(0,))  # one set-up per delta
        want = []
        for alg in ("cips", "poem"):
            for delta in (1, 2):
                r = run_single(dataclasses.replace(cfg, delta=delta), alg, 0)
                want.append((r.dataset, alg, delta, 0, r.expected_loss, r.greedy_loss))
        assert got == want

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

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        cfg = small_config(synth_path, algorithms=("cips",), seeds=(0, 1),
                           optim_max_iters=5, threads=10**6)
        rows = run_experiment(cfg)
        assert sizes == [2]
        assert [r.status for r in rows] == ["ok", "ok"]
