import os
from dataclasses import replace

import numpy as np
import pytest

from dro_crm import (DataFormatError, save_multilabel_svmlight,
                     synthetic_multilabel)
from dro_crm.cli import (CONFIG_KEYS, build_experiment_config, main,
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
            "dataset": "a.svm", "test_dataset": "b.svm", "test_frac": "0.3",
            "algorithms": "cips,poem", "seeds": "1..2", "delta": "3",
            "valid_delta": "2", "train_frac": "0.6", "logger_frac": "0.1",
            "logger_l2": "0.01", "logger_alpha": "0.7", "logger_max_iters": "50",
            "grid_poem": "0.1", "grid_klcrm": "1,2", "grid_aklcrm": "0.5",
            "optim_memory": "4", "optim_max_iters": "9", "optim_grad_tol": "1e-5",
            "optim_f_tol": "1e-8", "add_bias": "no", "warm_start": "yes", "out_dir": "o",
            "threads": "2", "save_params": "False"}
        cfg = build_experiment_config(values)
        assert (cfg.test_dataset, cfg.test_frac, cfg.seeds, cfg.valid_delta) == (
            "b.svm", 0.3, (1, 2), 2)
        assert (cfg.logger.alpha, cfg.optim.memory, cfg.optim.max_iters) == (0.7, 4, 9)
        assert list(cfg.grids["klcrm"]) == [1.0, 2.0]
        assert (cfg.add_bias, cfg.warm_start, cfg.save_params) == (False, True, False)
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

    def test_run_meta_echoes_every_key(self, tmp_path, synth_path):
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"dataset = {synth_path}\nalgorithms = cips\nseeds = 0\nthreads = 1\n"
            "optim_max_iters = 5\ngrid_klcrm = 0.30000000000000004,1e-7\n"
            f"logger_l2 = 0.001\nsave_params = no\nout_dir = {out}\n")
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

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dataset = a.svm\ndelta = 4\n# comment\ndelta = 8\n")
        with pytest.raises(DataFormatError, match=r":4: key 'delta' repeats line 2"):
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

    @pytest.mark.parametrize("key", ["add_bias", "warm_start", "save_params"])
    def test_unreadable_boolean_rejected(self, key):
        with pytest.raises(DataFormatError, match=f"'{key}'.*'ture'"):
            build_experiment_config({"dataset": "a.svm", key: "ture"})


class TestCommands:
    def test_run_writes_outputs(self, tmp_path, synth_path):
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"dataset = {synth_path}\n"
            "algorithms = cips\n"
            "seeds = 0,1\n"
            "delta = 2\n"
            "threads = 1\n"
            "optim_max_iters = 120\n"
            f"out_dir = {out}\n")
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "run_meta").exists()
        assert (out / "params_cips_seed0.npz").exists()

    def test_convert_and_eval(self, tmp_path, synth_path):
        out = tmp_path / "conv"
        assert main(["convert", "--input", synth_path, "--out", str(out),
                     "--delta", "2", "--seed", "3"]) == 0
        assert (out / "bandit_log.csv").exists()
        assert (out / "bandit_log.meta").exists()
        header = open(out / "bandit_log.csv").readline().strip()
        assert header == ("record_id,replay,example_id,action_bits,"
                          "propensity,cost_raw,cost_scaled")

        params_path = tmp_path / "p.npz"
        np.savez(params_path, weights=np.zeros((2, 7)))  # 6 features + bias
        assert main(["eval", "--params", str(params_path),
                     "--test", synth_path, "--mode", "expected"]) == 0

    def test_eval_dimension_mismatch_fails(self, tmp_path, synth_path):
        params_path = tmp_path / "bad.npz"
        np.savez(params_path, weights=np.zeros((2, 3)))
        assert main(["eval", "--params", str(params_path),
                     "--test", synth_path]) == 2

    @pytest.mark.parametrize("kind", ["no_weights", "text", "npy"])
    def test_eval_unreadable_params(self, tmp_path, synth_path, capsys, kind):
        path = tmp_path / "p.npz"
        if kind == "no_weights":
            np.savez(path, other=np.zeros((2, 7)))
        elif kind == "text":
            path.write_text("weights = 0\n")
        else:
            with open(path, "wb") as fh:
                np.save(fh, np.zeros((2, 7)))
        assert main(["eval", "--params", str(path), "--test", synth_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--dataset", "/no/such/file.svm",
                     "--out-dir", str(tmp_path / "x"), "--seeds", "0",
                     "--algorithms", "cips"]) != 0


class TestBadNumericInput:
    def _run(self, tmp_path, synth_path, capsys, extra):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            f"dataset = {synth_path}\n"
            "algorithms = cips\n"
            "seeds = 0\n"
            "optim_max_iters = 5\n"
            f"out_dir = {tmp_path / 'out'}\n" + extra)
        code = main(["run", "--config", str(cfg_file)])
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

    @pytest.mark.parametrize("key", ["delta", "valid_delta"])
    def test_replay_count_below_one(self, tmp_path, synth_path, capsys, key):
        code, err = self._run(tmp_path, synth_path, capsys, f"{key} = 0\n")
        assert code == 2
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_convert_negative_seed(self, tmp_path, synth_path, capsys):
        code = main(["convert", "--input", synth_path, "--out", str(tmp_path / "conv"),
                     "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("entry, message", [
        ("train_frac = 1.5", "train_frac must lie in (0, 1)"),
        ("logger_frac = 0", "logger_frac must lie in (0, 1)"),
        ("test_frac = 1.0", "test_frac must lie in (0, 1)"),
        ("gamma_rule = bogus", "unknown config key"),
        ("freeze_weights = 0", "unknown config key"),
        ("optim_maxiters = 5", "'optim_maxiters'"),
        ("add_bias = ture", "'add_bias'"),
        ("logger_l2 = nan", "'logger_l2'"),
        ("grid_poem = 1e-3,nan", "'grid_poem'"),
        ("optim_f_tol = inf", "'optim_f_tol'"),
        ("test_frac = -inf", "'test_frac'"),
        ("grid_poem = -1", "poem grid values must be non-negative, got -1.0"),
        ("grid_klcrm = 1,0", "klcrm grid values must be positive, got 0.0"),
        ("grid_aklcrm = -1e-3", "aklcrm grid values must be positive, got -0.001"),
        ("threads = 0", "threads must be at least 1, got 0"),
    ])
    def test_bad_config_value(self, tmp_path, synth_path, capsys, entry, message):
        code, err = self._run(tmp_path, synth_path, capsys, entry + "\n")
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out" / "results.csv").exists()
