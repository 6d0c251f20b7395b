import os
from dataclasses import replace
from types import ModuleType

import numpy as np
import pytest

import dro_crm
from dro_crm import (DataFormatError, ExperimentConfig, PolicyParams,
                     SupervisedDataset, append_bias, evaluate_policy,
                     load_multilabel_svmlight, save_bandit_log,
                     save_multilabel_svmlight, synthetic_multilabel)
from dro_crm import bench, cli, divergence
from dro_crm.bench import _seed_setup
from dro_crm.cli import (CONFIG_KEYS, _load_params, build_experiment_config, main,
                         read_config_file)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.svm"
    save_multilabel_svmlight(synthetic_multilabel(120, 6, 2, seed=1), path)
    return str(path)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path, synth_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            f"dataset = {synth_path}\n"
            "algorithms = cips,poem\n"
            "seeds = 0..2\n"
            "delta = 2\n"
            "grid_poem = 1e-4,1e-2\n"
            "# a comment line\n"
            "out_dir = results\n")
        cfg = build_experiment_config(read_config_file(cfg_file))
        assert cfg.algorithms == ("cips", "poem")
        assert cfg.seeds == (0, 1, 2)
        assert cfg.delta == 2
        assert list(cfg.grids["poem"]) == [1e-4, 1e-2]
        assert len(cfg.grids["klcrm"]) == 8  # untouched default

    def test_missing_dataset_rejected(self):
        with pytest.raises(Exception):
            build_experiment_config({})

    def test_every_key_is_read(self):
        values = {
            "dataset": "a.svm", "test_dataset": "b.svm", "algorithms": "cips,poem",
            "seeds": "1..2", "delta": "3", "grid_poem": "0.1", "grid_klcrm": "1,2",
            "grid_aklcrm": "0.5", "optim_max_iters": "9", "out_dir": "o",
            "threads": "2"}
        assert values.keys() == CONFIG_KEYS.keys()
        cfg = build_experiment_config(values)
        assert (cfg.dataset, cfg.test_dataset, cfg.algorithms) == (
            "a.svm", "b.svm", ("cips", "poem"))
        assert (cfg.seeds, cfg.delta, cfg.optim_max_iters) == ((1, 2), 3, 9)
        assert {alg: list(grid) for alg, grid in cfg.grids.items()} == {
            "poem": [0.1], "klcrm": [1.0, 2.0], "aklcrm": [0.5]}
        assert (cfg.out_dir, cfg.threads) == ("o", 2)

    def test_readme_example_builds(self, tmp_path):
        with open(README, encoding="utf-8") as fh:
            blocks = fh.read().split("```")[1::2]
        example = [b for b in blocks if b.lstrip().startswith("dataset")]
        assert len(example) == 1
        cfg_file = tmp_path / "readme.cfg"
        cfg_file.write_text(example[0])
        values = read_config_file(cfg_file)
        cfg = build_experiment_config(values)
        assert cfg.dataset == values["dataset"] and cfg.threads == int(values["threads"])

    def test_readme_library_example_runs(self, capsys):
        with open(README, encoding="utf-8") as fh:
            blocks = fh.read().split("```")[1::2]
        example = [b for b in blocks if b.startswith("python\n")]
        assert len(example) == 1
        exec(compile(example[0].removeprefix("python\n"), "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[0] == "0.2"

    def test_run_meta_echoes_every_key(self, tmp_path, synth_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"dataset = {synth_path}\nalgorithms = cips\nseeds = 0\nthreads = 1\n"
            "optim_max_iters = 5\ngrid_klcrm = 0.30000000000000004,1e-7\n"
            f"out_dir = {out}\n")
        cfg = build_experiment_config(read_config_file(cfg_file))
        assert main(["run", "--config", str(cfg_file)]) == 0
        lines = (out / "run_meta").read_text().splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert all(keys.count(key) == 1 for key in CONFIG_KEYS)
        meta = read_config_file(out / "run_meta")
        echoed = build_experiment_config({key: meta[key] for key in CONFIG_KEYS})
        assert replace(echoed, grids={}) == replace(cfg, grids={})
        assert echoed.grids.keys() == cfg.grids.keys()
        for alg, grid in cfg.grids.items():
            assert list(echoed.grids[alg]) == list(grid)  # exact, not 6 digits
        # the BLAS thread settings the run saw, each empty when unset
        assert (meta["OMP_NUM_THREADS"], meta["MKL_NUM_THREADS"]) == ("1", "")
        assert meta["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS", "")
        assert meta["cpu_count"] == str(os.cpu_count())

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "dataset = a.svm\nseeds = 1..2\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbfdataset")
        assert read_config_file(bom) == read_config_file(plain)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dataset = a.svm\ndelta = 4\n# comment\ndelta = 8\n")
        with pytest.raises(DataFormatError, match=r":4: key 'delta' repeats line 2"):
            read_config_file(cfg_file)

    def test_line_without_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dataset = a.svm\n# comment\ndelta 4\n")
        with pytest.raises(DataFormatError, match=r"exp.cfg:3: expected 'key = value'"):
            read_config_file(cfg_file)

    def test_flag_overrides_file_entry(self, tmp_path, synth_path):
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(f"dataset = {synth_path}\nalgorithms = cips\n"
                            "seeds = 0\ndelta = 4\noptim_max_iters = 5\n"
                            f"out_dir = {tmp_path / 'unused'}\n")
        assert main(["run", "--config", str(cfg_file), "--delta", "2",
                     "--out-dir", str(out), "--threads", "1"]) == 0
        assert (out / "results.csv").read_text().splitlines()[1].split(",")[3] == "2"
        assert not (tmp_path / "unused").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError, match="'optim_maxiters'"):
            build_experiment_config({"dataset": "a.svm", "optim_maxiters": "5"})

    def test_exports_no_modules(self):
        assert [name for name in dro_crm.__all__
                if isinstance(getattr(dro_crm, name), ModuleType)] == []
        assert "ExperimentConfig" in dro_crm.__all__
        assert set(dro_crm.__all__) == {
            "ALGORITHMS", "BanditLog", "ContractViolation", "DataFormatError",
            "ExperimentConfig", "IterRecord", "OptimTrace",
            "PolicyParams", "ResultRow", "RiskReport", "SupervisedDataset",
            "TTestResult", "append_bias", "boltzmann_weights",
            "compute_clip_constant", "default_grids", "emit_results", "evaluate",
            "evaluate_policy", "gamma_star_approx", "generate_bandit_log",
            "ips_risk", "load_multilabel_svmlight",
            "make_objective", "minimize", "paired_t_test_one_tailed",
            "replay_sweep", "robust_risk_chi2", "run_experiment", "run_single",
            "save_bandit_log", "save_multilabel_svmlight", "split_dataset",
            "synthetic_multilabel", "train_logger"}
        assert len(dro_crm.__all__) == 35


class TestCommands:
    def test_run_writes_outputs(self, tmp_path, synth_path, capsys, monkeypatch):
        rows = []  # the cells `run` saves, as run_experiment returns them

        def run_experiment(cfg):
            rows.extend(bench.run_experiment(cfg))
            return rows
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"dataset = {synth_path}\n"
            "algorithms = cips\n"
            "seeds = 0,1\n"
            "delta = 2\n"
            "threads = 1\n"
            "optim_max_iters = 120\n"
            "grid_poem = 30,100\n"
            f"out_dir = {out}\n")
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "run_meta").exists()
        assert not list(out.glob("*.npz"))
        # the saved weights are the cell's, bit for bit, and eval scores them
        params_path = out / "params_cips_seed0.npy"
        [row] = [r for r in rows if r.seed == 0]
        assert _load_params(params_path).weights.tobytes() == row.params.weights.tobytes()
        test = append_bias(load_multilabel_svmlight(synth_path, n_features=6)[0])
        capsys.readouterr()
        assert main(["eval", "--params", str(params_path), "--test", synth_path]) == 0
        assert capsys.readouterr().out == f"{evaluate_policy(row.params, test)[0]:.6g}\n"
        # poem at lam = 30 and 100 puts the chi-square radius past the
        # interior, so its fits solve on the face of the largest losses
        faces, face = [], divergence._face  # whether each solve drops a loss

        def spy(za, pa, n, epsilon):
            faces.append(za.size < n)
            return face(za, pa, n, epsilon)
        monkeypatch.setattr(divergence, "_face", spy)
        rows.clear()
        assert main(["run", "--config", str(cfg_file), "--algorithms", "poem",
                     "--out-dir", str(tmp_path / "poem")]) == 0
        assert [r.status for r in rows] == ["ok", "ok"] and any(faces)

    def test_convert_and_eval(self, tmp_path, synth_path):
        out = tmp_path / "conv"
        assert main(["convert", "--input", synth_path, "--out", str(out),
                     "--delta", "2", "--seed", "3"]) == 0
        assert (out / "bandit_log.csv").exists()
        assert (out / "bandit_log.meta").exists()
        with open(out / "bandit_log.csv") as fh:
            header = fh.readline().strip()
        assert header == ("record_id,replay,example_id,action_bits,"
                          "propensity,cost_raw,cost_scaled")

        params_path = tmp_path / "p.npy"
        np.save(params_path, np.zeros((2, 7)))  # 6 features + bias
        assert main(["eval", "--params", str(params_path),
                     "--test", synth_path, "--mode", "expected"]) == 0

    @pytest.mark.parametrize("seed, delta", [(0, 4), (3, 2), (0, None)])
    def test_convert_writes_the_runs_train_log(self, tmp_path, synth_path, seed, delta):
        # the log `run` fits at this seed and delta, after its 25% hold-out:
        # of 120 examples, 30 are held out and 67 of the other 90 train;
        # without --delta, at the replay count `run` defaults to
        out = tmp_path / "conv"
        flags = [] if delta is None else ["--delta", str(delta)]
        assert main(["convert", "--input", synth_path, "--out", str(out),
                     "--seed", str(seed), *flags]) == 0
        cfg = ExperimentConfig(synth_path, seeds=(seed,),
                               **({} if delta is None else {"delta": delta}))
        want = tmp_path / "want.csv", tmp_path / "want.meta"
        save_bandit_log(_seed_setup(cfg, seed).train_log, *want, seed)
        assert (out / "bandit_log.csv").read_bytes() == want[0].read_bytes()
        assert (out / "bandit_log.meta").read_bytes() == want[1].read_bytes()
        assert f"n_records = {67 * cfg.delta}\n" in want[1].read_text()

    def test_sweep_runs_the_configs_seeds(self, tmp_path, synth_path):
        # each --deltas value replaces the config's delta
        cfg_file = tmp_path / "sweep.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"dataset = {synth_path}\n"
            "algorithms = cips\n"
            "seeds = 0,1\n"
            "delta = 4\n"
            "threads = 1\n"
            "optim_max_iters = 5\n"
            f"out_dir = {out}\n")
        assert main(["sweep", "--config", str(cfg_file), "--deltas", "1,2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert [line.split(",")[2:4] for line in lines[1:]] == [
            ["0", "1"], ["1", "1"], ["0", "2"], ["1", "2"]]  # seed, delta

    def test_one_delta_sweep_writes_the_runs_results(self, tmp_path, synth_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"dataset = {synth_path}\nalgorithms = cips,poem\n"
                            "seeds = 0,1\ngrid_poem = 1e-3,1e-1\n"
                            "optim_max_iters = 20\nthreads = 1\n")
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", str(cfg_file), "--delta", "3",
                     "--out-dir", str(run)]) == 0
        assert main(["sweep", "--config", str(cfg_file), "--deltas", "3",
                     "--out-dir", str(sweep)]) == 0
        assert (sweep / "sweep.csv").read_bytes() == (run / "results.csv").read_bytes()

    @pytest.mark.parametrize("command, flags", [
        ("run", []), ("sweep", ["--deltas", "1,2"])], ids=["run", "sweep"])
    def test_unusable_out_dir_fails_before_any_cell(self, tmp_path, synth_path, capsys,
                                                    monkeypatch, command, flags):
        calls = []
        monkeypatch.setattr(bench, "_seed_setup", lambda *args: calls.append(args))
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main([command, "--dataset", synth_path, "--algorithms", "cips",
                     "--seeds", "0", "--threads", "1", "--out-dir", str(afile),
                     *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert calls == []

    @pytest.mark.parametrize("shape, message", [
        # the test file is wider than the params' 2 features and bias
        ((2, 3), "synth.svm: feature index 3 exceeds the width 2"),
        # the test file never uses the params' third label
        ((3, 7), "test labels (2) do not match params (3)"),
        ((2, 0), "params have no bias column"),
    ], ids=["features", "labels", "no_bias"])
    def test_eval_dimension_mismatch_fails(self, tmp_path, synth_path, capsys,
                                           shape, message):
        params_path = tmp_path / "bad.npy"
        np.save(params_path, np.zeros(shape))
        assert main(["eval", "--params", str(params_path),
                     "--test", synth_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_eval_pads_missing_top_features(self, tmp_path, capsys):
        # the file never uses feature 3 of the params' 3 features and bias
        test = tmp_path / "test.svm"
        test.write_text("0 1:0.5 2:-1.0\n1 2:2.0\n")
        weights = np.arange(8.0).reshape(2, 4) / 10.0
        params_path = tmp_path / "p.npy"
        np.save(params_path, weights)
        assert main(["eval", "--params", str(params_path), "--test", str(test)]) == 0
        X = np.array([[0.5, -1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0]])
        want = evaluate_policy(PolicyParams(weights), SupervisedDataset(X, np.eye(2)))
        assert main(["eval", "--params", str(params_path), "--test", str(test),
                     "--mode", "greedy"]) == 0
        assert capsys.readouterr().out == f"{want[0]:.6g}\n{want[1]:.6g}\n"

    def test_eval_reads_both_npy_header_versions(self, tmp_path, synth_path, capsys):
        weights = np.arange(14.0).reshape(2, 7) / 10.0
        for version in ((1, 0), (2, 0)):
            with open(tmp_path / "p.npy", "wb") as fh:
                np.lib.format.write_array(fh, weights, version=version)
            assert main(["eval", "--params", str(tmp_path / "p.npy"),
                         "--test", synth_path]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    @pytest.mark.parametrize("command", ["run", "eval", "convert"])
    def test_non_utf8_file_rejected(self, tmp_path, synth_path, capsys, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        params_path = tmp_path / "p.npy"
        np.save(params_path, np.zeros((2, 7)))
        argv = {"run": ["run", "--config", str(bad)],
                "eval": ["eval", "--params", str(params_path), "--test", str(bad)],
                "convert": ["convert", "--input", str(bad),
                            "--out", str(tmp_path / "conv")]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}: not UTF-8 text" in err

    @pytest.mark.parametrize("kind", ["text", "empty", "truncated", "oversize", "object",
                                      "str", "complex", "npz"])
    def test_eval_unreadable_params(self, tmp_path, synth_path, capsys, kind):
        path = tmp_path / "p.npy"
        weights = np.arange(14.0).reshape(2, 7)
        reason = "damaged 'weights' array"
        if kind == "text":
            path.write_text("weights = 0\n")
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "truncated":  # the header declares one more float than follows
            np.save(path, weights)
            path.write_bytes(path.read_bytes()[:-8])
        elif kind == "oversize":
            # a header alone that declares 2 PiB, more than a process can
            # map, so numpy's allocation fails at once and commits no memory
            with open(path, "wb") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 48,)})
        elif kind == "npz":  # the format of earlier runs
            path = tmp_path / "p.npz"
            np.savez(path, weights=weights)
        elif kind == "object":  # reading it would need pickle
            np.save(path, np.full((2, 7), None, dtype=object), allow_pickle=True)
        else:  # weights that load but are not real numbers
            np.save(path, {"str": np.full((2, 7), "0.5"),
                           "complex": np.full((2, 7), 0.5 + 1j)}[kind])
            reason = "'weights' is not a real numeric array"
        assert main(["eval", "--params", str(path), "--test", synth_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}")

    @pytest.mark.parametrize("index", [10 ** 17, 2 ** 64])
    def test_huge_feature_index(self, tmp_path, capsys, index):
        path = tmp_path / "huge.svm"
        path.write_text(f"0 1:1.0 {index}:2.0\n1 2:1.0\n")
        assert main(["convert", "--input", str(path), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"huge.svm: feature index {index}" in err
        params_path = tmp_path / "p.npy"
        np.save(params_path, np.zeros((2, 3)))
        assert main(["eval", "--params", str(params_path), "--test", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"huge.svm: feature index {index}" in err
        # bench run records the failed cell and exits 1
        assert main(["run", "--dataset", str(path), "--algorithms", "cips",
                     "--seeds", "0", "--out-dir", str(tmp_path / "run")]) == 1
        message = f"DataFormatError: {path}: feature index {index} is too large"
        assert message in capsys.readouterr().err

    def test_eval_params_too_wide_for_a_dense_test_matrix(self, tmp_path, synth_path,
                                                          capsys):
        # the weights hold no bytes, but numpy refuses the test matrix's
        # 10^17 - 1 columns without allocating
        params_path = tmp_path / "p.npy"
        np.save(params_path, np.zeros((0, 10 ** 17)))
        assert main(["eval", "--params", str(params_path), "--test", synth_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"synth.svm: the width {10 ** 17 - 1} is too large" in err

    @pytest.mark.parametrize("label", [10 ** 17, 2 ** 63])
    def test_huge_label_id(self, tmp_path, capsys, label):
        path = tmp_path / "huge.svm"
        path.write_text(f"0,{label} 1:1.0\n1 2:1.0\n")
        assert main(["convert", "--input", str(path), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"huge.svm: label id {label} is too large" in err

    def test_no_label_ids(self, tmp_path, capsys):
        path = tmp_path / "nolabels.svm"
        path.write_text(" 1:1.0\n 2:0.5\n 1:0.5 2:0.5\n 1:2.0\n")
        assert main(["convert", "--input", str(path), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}: no label ids" in err
        assert not (tmp_path / "c").exists()
        # bench run records the failed cell and exits 1
        assert main(["run", "--dataset", str(path), "--algorithms", "cips",
                     "--seeds", "0", "--out-dir", str(tmp_path / "run")]) == 1
        assert f"DataFormatError: {path}: no label ids" in capsys.readouterr().err

    def test_empty_hold_out_fails_every_cell(self, tmp_path, capsys):
        # 25% of three examples holds out none, so there is no test loss to report
        path = tmp_path / "three.svm"
        path.write_text("0 1:1.0\n1 2:1.0\n0,1 1:0.5 2:0.5\n")
        out = tmp_path / "run"
        assert main(["run", "--dataset", str(path), "--algorithms", "cips,poem",
                     "--seeds", "0", "--threads", "1", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("ContractViolation: test set must be non-empty") == 2
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(r.endswith(",failed") for r in rows)

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--dataset", "/no/such/file.svm",
                     "--out-dir", str(tmp_path / "x"), "--seeds", "0",
                     "--algorithms", "cips"]) != 0


class TestBadNumericInput:
    def _run(self, tmp_path, synth_path, capsys, extra, command="run", flags=()):
        """Run a small cips config plus the `key = value` lines of `extra`,
        which replace the base entries of their keys."""
        base = {"dataset": synth_path, "algorithms": "cips", "seeds": "0",
                "optim_max_iters": "5", "out_dir": tmp_path / "out"}
        for line in extra.splitlines():
            base.pop(line.split("=", 1)[0].strip(), None)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + extra)
        code = main([command, "--config", str(cfg_file), *flags])
        return code, capsys.readouterr().err

    def test_non_integer_delta(self, tmp_path, synth_path, capsys):
        code, err = self._run(tmp_path, synth_path, capsys, "delta = four\n")
        assert code == 2
        assert err.startswith("error:") and "'delta'" in err and "four" in err

    def test_non_integer_threads(self, tmp_path, synth_path, capsys):
        code, err = self._run(tmp_path, synth_path, capsys, "threads = two\n")
        assert code == 2
        assert err.startswith("error:") and "'threads'" in err and "two" in err

    def test_negative_seed(self, tmp_path, synth_path, capsys):
        code = main(["run", "--dataset", synth_path, "--algorithms", "cips",
                     "--seeds=-1", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "seeds" in err and "-1" in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("key", ["delta"])
    def test_replay_count_below_one(self, tmp_path, synth_path, capsys, key):
        code, err = self._run(tmp_path, synth_path, capsys, f"{key} = 0\n")
        assert code == 2
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_sweep_checks_the_configs_delta(self, tmp_path, synth_path, capsys):
        # as run checks it, although each --deltas value replaces it
        code, err = self._run(tmp_path, synth_path, capsys, "delta = 0\n", "sweep",
                              ["--deltas", "1,2"])
        assert code == 2
        assert err.startswith("error:") and "delta must be at least 1, got 0" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_convert_negative_seed(self, tmp_path, synth_path, capsys):
        code = main(["convert", "--input", synth_path, "--out", str(tmp_path / "conv"),
                     "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "seed" in err

    # numpy's MemoryError, "array is too big" and "maximum allowed dimension
    # exceeded", in turn, where `run` and `sweep` record a failed cell
    @pytest.mark.parametrize("delta", ["100000000000", "1000000000000000000",
                                       "100000000000000000000"])
    def test_convert_unallocatable_replay_count(self, tmp_path, synth_path, capsys, delta):
        code = main(["convert", "--input", synth_path, "--out", str(tmp_path / "conv"),
                     "--delta", delta])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: replay count {delta}: cannot allocate")
        assert not (tmp_path / "conv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--deltas", "four"], "--deltas: cannot parse 'four'"),
        (["--deltas", ""], "deltas must be distinct and non-empty, got ()"),
        (["--deltas", "2,1..2"], "deltas must be distinct and non-empty, got (2, 1, 2)"),
        (["--deltas", "2", "--seeds", "0..x"], "config key 'seeds': cannot parse '0..x'"),
        (["--deltas", "2", "--seeds", "1,1"], "seeds must be distinct"),
        (["--deltas", "1,1"], "deltas must be distinct and non-empty, got (1, 1)"),
        (["--deltas", "0"], "delta must be at least 1, got 0"),
        # ranges too long for a list fail before anything is allocated
        (["--deltas", "1..100000000000000000000"],
         "--deltas: cannot parse '1..100000000000000000000'"),
        (["--deltas", "2", "--seeds", "0..100000000000000000000"],
         "config key 'seeds': cannot parse '0..100000000000000000000'"),
    ])
    def test_bad_sweep_flag(self, tmp_path, synth_path, capsys, monkeypatch,
                            flags, message):
        monkeypatch.setattr(bench, "_seed_setup", None)  # no cell runs
        code, err = self._run(tmp_path, synth_path, capsys, "", "sweep", flags)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("entry, message", [
        # the protocol's constants are not config keys
        ("train_frac = 1.5", "unknown config key(s): 'train_frac'"),
        ("logger_frac = 0", "unknown config key(s): 'logger_frac'"),
        ("test_frac = 1.0", "unknown config key(s): 'test_frac'"),
        ("valid_delta = 4", "unknown config key(s): 'valid_delta'"),
        ("logger_alpha = 0.5", "unknown config key(s): 'logger_alpha'"),
        ("logger_max_iters = 200", "unknown config key(s): 'logger_max_iters'"),
        ("optim_memory = 10", "unknown config key(s): 'optim_memory'"),
        ("optim_grad_tol = 1e-6", "unknown config key(s): 'optim_grad_tol'"),
        ("warm_start = false", "unknown config key(s): 'warm_start'"),
        ("save_params = true", "unknown config key(s): 'save_params'"),
        ("add_bias = ture", "'add_bias'"),
        ("logger_l2 = nan", "'logger_l2'"),
        ("optim_f_tol = inf", "'optim_f_tol'"),
        ("test_frac = -inf", "'test_frac'"),
        ("gamma_rule = bogus", "unknown config key"),
        ("freeze_weights = 0", "unknown config key"),
        ("optim_maxiters = 5", "'optim_maxiters'"),
        ("grid_poem = 1e-3,nan", "'grid_poem'"),
        ("grid_poem = -1", "poem lambda must be finite and non-negative, got -1.0"),
        ("grid_klcrm = 1,0", "klcrm gamma must be finite and positive, got 0.0"),
        ("grid_aklcrm = -1e-3", "aklcrm epsilon must be finite and positive, got -0.001"),
        ("algorithms = cips,poem,cips", "algorithms must be distinct"),
        ("threads = 0", "threads must be at least 1, got 0"),
        ("seeds = ", "seeds must name at least one seed"),
    ])
    def test_bad_config_value(self, tmp_path, synth_path, capsys, entry, message):
        code, err = self._run(tmp_path, synth_path, capsys, entry + "\n")
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out" / "results.csv").exists()
