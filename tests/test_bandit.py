import math
import warnings

import numpy as np
import pytest

from dro_crm import (BanditLog, ContractViolation, DataFormatError,
                     PolicyParams, append_bias, compute_clip_constant,
                     evaluate_policy, generate_bandit_log, ips_risk,
                     load_bandit_log, load_multilabel_svmlight,
                     save_bandit_log, save_multilabel_svmlight,
                     split_dataset, synthetic_multilabel, train_logger)
from dro_crm import bandit
from dro_crm._streams import record_uniforms
from dro_crm.bandit import SupervisedDataset
from dro_crm.errors import utf8_lines
from dro_crm.policy import log_prob_matrix, logits_matrix, sigmoid


def raw_costs(log):
    """Hamming distances behind the logged costs, cost = hamming / q - 1."""
    return (log.costs + 1.0) * log.Y.shape[1]


class TestSvmlightFormat:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("0,2 1:0.5 4:1.0\n")
        [ds] = load_multilabel_svmlight(path)
        assert ds.Y.tolist() == [[1.0, 0.0, 1.0]]
        assert ds.X.tolist() == [[0.5, 0.0, 0.0, 1.0]]

    def test_one_based_labels_detected(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("1,3 1:1.0\n2 2:1.0\n")
        [ds] = load_multilabel_svmlight(path)
        assert ds.n_labels == 3
        assert ds.Y.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_empty_label_list(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("0 1:1.0\n 2:0.5\n")
        [ds] = load_multilabel_svmlight(path)
        assert ds.Y[1].sum() == 0.0

    def test_empty_file_errors(self, tmp_path):
        path, first = tmp_path / "empty.svm", tmp_path / "first.svm"
        path.write_text("\n# only a comment\n")
        first.write_text("0 1:1.0\n")
        for paths in ([path], [first, path]):
            with pytest.raises(DataFormatError, match="empty.svm: no examples"):
                load_multilabel_svmlight(*paths)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("0 1:1.0\n0 broken\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_multilabel_svmlight(path)

    def test_bias_column_appended(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("0 1:2.0\n")
        [loaded] = load_multilabel_svmlight(path)
        assert loaded.X.tolist() == [[2.0]]
        ds = append_bias(loaded)
        assert ds.X.tolist() == [[2.0, 1.0]]

    def test_round_trip_identity(self, tmp_path):
        ds = synthetic_multilabel(10, 6, 3, seed=5)
        path = tmp_path / "rt.svm"
        save_multilabel_svmlight(ds, path)
        [back] = load_multilabel_svmlight(path)
        assert np.allclose(back.X, ds.X, atol=0.0)
        assert np.array_equal(back.Y, ds.Y)

    def test_writer_output_is_unchanged(self, tmp_path):
        # the per-element writer the package used, as the reference
        def reference(ds, path):
            with open(path, "w", encoding="utf-8") as fh:
                for r in range(ds.n_examples):
                    labels = ",".join(str(l) for l in np.flatnonzero(ds.Y[r]))
                    feats = " ".join(f"{i + 1}:{float(ds.X[r, i])!r}"
                                     for i in range(ds.n_features) if ds.X[r, i] != 0.0)
                    fh.write(f"{labels} {feats}".rstrip() + "\n")

        ds = synthetic_multilabel(40, 6, 3, seed=7)
        ds.X[ds.X < 0.0] = 0.0
        ds.X[3] = -0.0
        ds.Y[5] = 0.0
        ds.Y[:2, 0] = 1.0
        save_multilabel_svmlight(ds, tmp_path / "new.svm")
        reference(ds, tmp_path / "old.svm")
        assert (tmp_path / "new.svm").read_bytes() == (tmp_path / "old.svm").read_bytes()

    def test_round_trip_with_an_empty_row(self, tmp_path):
        ds = SupervisedDataset(np.array([[0.0, 1.5], [0.0, 0.0], [2.0, 0.0]]),
                               np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        path = tmp_path / "rt.svm"
        save_multilabel_svmlight(ds, path)
        assert path.read_text() == "0,2 2:1.5\n1:0.0\n2 1:2.0\n"
        [back] = load_multilabel_svmlight(path)
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.Y, ds.Y)

    def test_splits_saved_apart_read_back_together(self, tmp_path):
        # the test split never sets label 0; ids stay 0-based in both files
        ds = SupervisedDataset(np.arange(1.0, 9.0).reshape(4, 2),
                               np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                         [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
        train, test = ds.subset(np.arange(2)), ds.subset(np.arange(2, 4))
        save_multilabel_svmlight(train, tmp_path / "train.svm")
        save_multilabel_svmlight(test, tmp_path / "test.svm")
        assert (tmp_path / "test.svm").read_text() == "1,2 1:5.0 2:6.0\n2 1:7.0 2:8.0\n"
        a, b = load_multilabel_svmlight(tmp_path / "train.svm", tmp_path / "test.svm")
        assert np.array_equal(a.Y, train.Y) and np.array_equal(b.Y, test.Y)
        assert np.array_equal(a.X, train.X) and np.array_equal(b.X, test.X)
        # read alone, the test file has no 0 and reads as 1-based
        [alone] = load_multilabel_svmlight(tmp_path / "test.svm")
        assert np.array_equal(alone.Y, test.Y[:, 1:])

    def test_files_share_label_ids_and_width(self, tmp_path):
        # the first file is 1-based; the second never uses label 3 or feature 3
        first, second = tmp_path / "a.svm", tmp_path / "b.svm"
        first.write_text("1,3 1:1.0\n2 3:2.0\n")
        second.write_text("1 2:0.5\n2,1 1:4.0\n")
        a, b = load_multilabel_svmlight(first, second)
        assert a.Y.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert a.X.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        assert b.Y.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
        assert b.X.tolist() == [[0.0, 0.5, 0.0], [4.0, 0.0, 0.0]]
        # read alone, the second file is narrower
        [alone] = load_multilabel_svmlight(second)
        assert alone.Y.shape == (2, 2) and alone.X.shape == (2, 2)

    def test_first_file_decides_label_base(self, tmp_path):
        first, second = tmp_path / "a.svm", tmp_path / "b.svm"
        first.write_text("0 1:1.0\n1 1:2.0\n")
        second.write_text("1,2 1:3.0\n")  # no 0: 1-based if read alone
        a, b = load_multilabel_svmlight(first, second)
        assert a.Y.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert b.Y.tolist() == [[0.0, 1.0, 1.0]]
        first.write_text("1 1:1.0\n")  # 1-based: a 0 in a later file is an error
        second.write_text("0 1:1.0\n")
        with pytest.raises(DataFormatError, match="b.svm: label 0 below the first id 1"):
            load_multilabel_svmlight(first, second)

    def test_given_width_pads_and_bounds(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("0 1:1.0 3:2.0\n")
        [ds] = load_multilabel_svmlight(path, n_features=5)
        assert ds.X.tolist() == [[1.0, 0.0, 2.0, 0.0, 0.0]]
        with pytest.raises(DataFormatError,
                           match="toy.svm: feature index 3 exceeds the width 2"):
            load_multilabel_svmlight(path, n_features=2)
        path.write_text(f"0 1:1.0 {2 ** 64}:2.0\n")
        with pytest.raises(DataFormatError,
                           match=f"toy.svm: feature index {2 ** 64} exceeds the width 2"):
            load_multilabel_svmlight(path, n_features=2)

    # numpy refuses both widths without allocating: 10^17 doubles exceed any
    # address space, and 2^64 exceeds the largest dimension
    @pytest.mark.parametrize("index", [10 ** 17, 2 ** 64])
    def test_huge_index_without_width(self, tmp_path, index):
        path = tmp_path / "toy.svm"
        path.write_text(f"0 1:1.0 {index}:2.0\n")
        with pytest.raises(DataFormatError,
                           match=f"toy.svm: feature index {index} is too large"):
            load_multilabel_svmlight(path)

    # as for feature indices, numpy refuses both label counts without allocating
    @pytest.mark.parametrize("label", [10 ** 17, 2 ** 63])
    def test_huge_label_id(self, tmp_path, label):
        path = tmp_path / "toy.svm"
        path.write_text(f"0,{label} 1:1.0\n")
        with pytest.raises(DataFormatError,
                           match=f"toy.svm: label id {label} is too large"):
            load_multilabel_svmlight(path)

    @pytest.mark.parametrize("first", ["label", "index"])
    def test_first_bad_row_is_reported(self, tmp_path, first):
        # a label below the first id and an index past the width: the earlier
        # row's error wins, and within one row the label's
        lines = ["1 1:1.0", "0 1:1.0", "1 4:1.0"]
        if first == "index":
            lines[1:] = lines[:0:-1]
        (tmp_path / "a.svm").write_text("1 1:1.0\n")
        (tmp_path / "b.svm").write_text("\n".join(lines) + "\n")
        message = {"label": "b.svm: label 0 below the first id 1",
                   "index": "b.svm: feature index 4 exceeds the width 2"}[first]
        with pytest.raises(DataFormatError, match=message):
            load_multilabel_svmlight(tmp_path / "a.svm", tmp_path / "b.svm", n_features=2)
        (tmp_path / "b.svm").write_text("0 4:1.0\n")
        with pytest.raises(DataFormatError, match="b.svm: label 0 below the first id 1"):
            load_multilabel_svmlight(tmp_path / "a.svm", tmp_path / "b.svm", n_features=2)


# One line of each malformed class, then valid forms the line grammar reads
# with int()/float() or skips.  Each sits on line 2 of a small file.
_MALFORMED = ["1:2:3", "5 1:2:3", ":3", "3:", "1.0:2", "1e0:2", "a:1", "1:x",
              "1:nan", "1:4e400", "0:1", "0,x 1:1", "1,,2 3:1 1", "1 2:1 3:1e", "1 2:1-3",
              "1 2:1..5", "1 2:+-1", "1 2:.", "1 2:1e5.5", "1 3: :4", "1 2:5 7 3:",
              "1 2:\t3", "1 2:\x0c3"]
_VALID = ["+3:1", "1:1_0", "1\t2:1.5\t3:-2", "1  2:1.5   3:0.25", "1 2:1 # note",
          "# only a comment", "", "   ", "2,1", "1:0.5 2:1e-3", "1 2:1.0 2:3.0",
          "1 3:1 2:2", "1 2:-0.0 3:.5 4:5. 5:-1.5E+2 6:007", "1 2:\uff11",
          "1 2:1e-400 3:1\x1c4:2"]


def _svmlight_file(tmp_path, line, crlf=False):
    path = tmp_path / "case.svm"
    text = f"0,2 1:0.5 4:1.0\n{line}\n1 2:-0.25\n"
    path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode())
    return path


def _load_or_error(paths, **kwargs):
    try:
        return [(ds.X.tobytes(), ds.X.shape, ds.Y.tobytes(), ds.Y.shape)
                for ds in load_multilabel_svmlight(*paths, **kwargs)]
    except DataFormatError as exc:
        return str(exc)


def _both_paths(monkeypatch, paths, **kwargs):
    """What the loader gives with its block path, then with every block
    read by the line grammar; numpy's warnings are errors throughout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _load_or_error(paths, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(bandit, "_parse_block", lambda block: None)
            slow = _load_or_error(paths, **kwargs)
    return fast, slow


class TestSvmlightBlockPath:
    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("line", _MALFORMED + _VALID)
    def test_matches_line_grammar(self, tmp_path, monkeypatch, line, crlf):
        fast, slow = _both_paths(monkeypatch, [_svmlight_file(tmp_path, line, crlf)])
        assert fast == slow
        assert isinstance(fast, str) == (line in _MALFORMED)
        if isinstance(fast, str):
            assert "case.svm:2: " in fast

    def test_label_free_first_line_and_last_value_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "case.svm"
        path.write_text("1:0.5 3:2\n\n2,0\n0 2:1 2:4 3:1\n")
        fast, slow = _both_paths(monkeypatch, [path])
        assert fast == slow
        [ds] = load_multilabel_svmlight(path)
        assert ds.X.tolist() == [[0.5, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 4.0, 1.0]]
        assert ds.Y.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]

    def test_error_in_a_later_block_keeps_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "long.svm"
        lines = [f"{i % 3} 1:{i}.5 2:-1e-3" for i in range(700)]
        lines[599] = "1 1:2.5 2:oops"
        path.write_text("\n".join(lines) + "\n")
        fast, slow = _both_paths(monkeypatch, [path])
        assert fast == slow == f"{path}:600: bad feature token '2:oops'"

    def test_non_utf8_file(self, tmp_path, monkeypatch):
        path = tmp_path / "latin.svm"
        path.write_bytes(b"0 1:1.0\n1 2:\xe9\n")
        fast, slow = _both_paths(monkeypatch, [path])
        assert fast == slow and "latin.svm: not UTF-8 text" in fast

    @pytest.mark.parametrize("width", [3, 6])
    def test_collection_and_width(self, tmp_path, monkeypatch, width):
        first, second = tmp_path / "a.svm", tmp_path / "b.svm"
        first.write_text("1,3 1:1.0\n2 3:2.0\n")
        second.write_text("1 2:0.5 5:1 3000000000:0\n0 1:4.0\n")
        fast, slow = _both_paths(monkeypatch, [first, second], n_features=width)
        assert fast == slow

    def test_takes_the_writer_output(self, tmp_path):
        # the fast path, not the line grammar, reads what the package writes
        ds = synthetic_multilabel(300, 7, 3, seed=2)
        ds.X[ds.X < -1.0] = 0.0
        path = tmp_path / "w.svm"
        save_multilabel_svmlight(ds, path)
        blocks = list(utf8_lines(path))
        assert bandit._parse_block(blocks[:256]) is not None
        assert bandit._parse_block(blocks[256:]) is not None
        [back] = load_multilabel_svmlight(path)
        assert back.X.tobytes() == ds.X.tobytes() and np.array_equal(back.Y, ds.Y)


class TestSplit:
    def test_fractions_and_ceiling_rule(self):
        ds = synthetic_multilabel(100, 4, 2, seed=0)
        train, valid, logger = split_dataset(ds, 3)
        assert train.n_examples == 75
        assert valid.n_examples == 25
        assert logger.n_examples == math.ceil(0.05 * 75)

    def test_same_seed_identical(self):
        ds = synthetic_multilabel(60, 4, 2, seed=0)
        a = split_dataset(ds, 9)
        b = split_dataset(ds, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x.X, y.X)

    def test_different_seeds_differ(self):
        ds = synthetic_multilabel(1000, 4, 2, seed=0)
        a, _, _ = split_dataset(ds, 0)
        b, _, _ = split_dataset(ds, 1)
        assert not np.array_equal(a.X, b.X)

    def test_partitions_disjoint(self):
        ds = synthetic_multilabel(40, 3, 2, seed=1)
        ds.X[:, 0] = np.arange(40)  # tag rows
        train, valid, logger = split_dataset(ds, 2)
        train_ids = set(train.X[:, 0].tolist())
        valid_ids = set(valid.X[:, 0].tolist())
        assert not train_ids & valid_ids
        assert set(logger.X[:, 0].tolist()) <= train_ids

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractViolation):
            split_dataset(synthetic_multilabel(20, 3, 2, seed=0), -1)


class TestLoggerTraining:
    def test_spec_validation(self):
        ds = synthetic_multilabel(10, 3, 2, seed=0)
        for alpha in (math.inf, math.nan, 0.0, -0.5):
            with pytest.raises(ContractViolation, match="alpha must be positive and finite"):
                train_logger(ds, alpha=alpha)

    def test_always_on_label(self):
        X = np.array([[1.0, 1.0]])
        Y = np.array([[1.0]])
        ds = SupervisedDataset(X, Y)
        params = train_logger(ds)
        assert sigmoid(logits_matrix(params, X))[0, 0] > 0.5

    def test_tiny_alpha_gives_uniform(self):
        ds = synthetic_multilabel(30, 4, 3, seed=2)
        params = train_logger(ds, alpha=1e-6)
        lp = log_prob_matrix(params, ds.X, ds.Y)
        assert np.allclose(np.exp(lp), 2.0 ** -3, atol=1e-4)

    def test_likelihood_beats_zero_weights(self):
        ds = synthetic_multilabel(50, 5, 3, seed=3)
        params = train_logger(ds, alpha=1.0)
        trained = log_prob_matrix(params, ds.X, ds.Y).mean()
        baseline = log_prob_matrix(PolicyParams.zeros(3, 5), ds.X, ds.Y).mean()
        assert trained > baseline


class TestBanditGeneration:
    def test_record_count(self):
        ds = synthetic_multilabel(5, 3, 2, seed=4)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=2, seed=0)
        assert log.n == 10

    def test_uniform_logger_action_frequency(self):
        ds = synthetic_multilabel(10_000, 2, 1, seed=5)
        logger = PolicyParams.zeros(1, 2)
        log = generate_bandit_log(logger, ds, delta=1, seed=1)
        freq = log.Y[:, 0].mean()
        assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / log.n)

    def test_perfect_sample_cost_is_scaled_zero_hamming(self):
        ds = synthetic_multilabel(50, 3, 2, seed=6)
        logger = PolicyParams(np.full((2, 3), 0.0))
        log = generate_bandit_log(logger, ds, delta=1, seed=2)
        raw = raw_costs(log)
        perfect = raw == 0.0
        assert perfect.any()
        assert np.allclose(log.costs[perfect], -1.0)

    def test_raw_cost_is_hamming_distance(self):
        ds = synthetic_multilabel(20, 3, 4, seed=6)
        log = generate_bandit_log(PolicyParams.zeros(4, 3), ds, delta=2, seed=2)
        raw = raw_costs(log)
        for i, example in enumerate(log.example_ids):
            differing = sum(int(a != b) for a, b in zip(log.Y[i], ds.Y[example]))
            assert raw[i] == pytest.approx(differing, abs=1e-12)
        assert len(set(raw.round())) > 2  # the check sees several distances

    def test_reproducible_bit_identical(self):
        ds = synthetic_multilabel(20, 3, 2, seed=7)
        logger = train_logger(ds)
        a = generate_bandit_log(logger, ds, delta=3, seed=5)
        b = generate_bandit_log(logger, ds, delta=3, seed=5)
        assert a.Y.tobytes() == b.Y.tobytes()
        assert a.log_propensities.tobytes() == b.log_propensities.tobytes()
        assert a.costs.tobytes() == b.costs.tobytes()
        assert a.clip_m == b.clip_m

    def test_propensities_match_reevaluation(self):
        ds = synthetic_multilabel(30, 3, 2, seed=8)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=2, seed=3)
        again = log_prob_matrix(logger, log.X[log.example_ids], log.Y)
        assert np.abs(again - log.log_propensities).max() < 1e-12

    def test_mean_cost_matches_expected_loss(self):
        ds = synthetic_multilabel(300, 3, 2, seed=9)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=8, seed=4)
        raw = raw_costs(log)
        expected = evaluate_policy(logger, ds, "expected")
        # hamming per record is bounded by q = 2: conservative 3 sigma
        sigma = 2.0 / math.sqrt(log.n)
        assert abs(raw.mean() - expected) < 3 * sigma

    def test_clip_constant_at_least_one(self):
        ds = synthetic_multilabel(40, 3, 2, seed=10)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=1, seed=5)
        assert log.clip_m >= 1.0

    def test_delta_must_be_positive(self):
        ds = synthetic_multilabel(5, 3, 2, seed=11)
        with pytest.raises(ContractViolation):
            generate_bandit_log(PolicyParams.zeros(2, 3), ds, delta=0, seed=0)


class TestRecordStreams:
    """Each record's draws equal numpy's per-record SeedSequence stream."""

    @staticmethod
    def _numpy_draws(seed, stream, replay_ids, example_ids, q):
        return np.array([
            np.random.default_rng(np.random.SeedSequence(
                (seed, stream, int(r), int(e)))).random(q)
            for r, e in zip(replay_ids, example_ids)])

    # seeds of 1, 2 and 4 words: the longer keys overflow the 4-word pool
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 7, 2**100 + 3])
    @pytest.mark.parametrize("stream", [0, 1, 2**33])
    @pytest.mark.parametrize("q", [1, 14])
    def test_matches_numpy_seed_sequence(self, seed, stream, q):
        rng = np.random.default_rng(seed % 1000 + 31 * q)
        replay_ids = rng.integers(0, 100, size=24)
        example_ids = rng.integers(0, 5000, size=24)
        replay_ids[0], example_ids[1] = 2**32 - 1, 2**32 - 1
        got = record_uniforms(seed, stream, replay_ids, example_ids, q)
        want = self._numpy_draws(seed, stream, replay_ids, example_ids, q)
        assert got.tobytes() == want.tobytes()

    def test_log_records_use_their_own_stream(self):
        ds = synthetic_multilabel(7, 3, 4, seed=21)
        logger = PolicyParams(np.full((4, 3), 0.3))
        log = generate_bandit_log(logger, ds, delta=3, seed=2**40 + 7, stream=2)
        probs = sigmoid(logits_matrix(logger, ds.X))
        u = self._numpy_draws(2**40 + 7, 2, log.replay_ids, log.example_ids, 4)
        assert np.array_equal(log.Y, (u < probs[log.example_ids]).astype(np.float64))

    def test_more_replays_extend_the_log(self):
        ds = synthetic_multilabel(25, 3, 2, seed=22)
        logger = train_logger(ds)
        one = generate_bandit_log(logger, ds, delta=1, seed=13)
        three = generate_bandit_log(logger, ds, delta=3, seed=13)
        n_ex = ds.n_examples
        assert three.Y[:n_ex].tobytes() == one.Y.tobytes()
        assert three.log_propensities[:n_ex].tobytes() == one.log_propensities.tobytes()
        assert three.costs[:n_ex].tobytes() == one.costs.tobytes()

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_negative_key_rejected(self, seed, stream):
        ds = synthetic_multilabel(5, 3, 2, seed=23)
        with pytest.raises(ContractViolation):
            generate_bandit_log(PolicyParams.zeros(2, 3), ds, delta=1, seed=seed,
                                stream=stream)

    @pytest.mark.parametrize("replay, example", [(2**32, 0), (0, 2**32), (-1, 0)])
    def test_ids_outside_32_bits_rejected(self, replay, example):
        with pytest.raises(ContractViolation):
            record_uniforms(0, 0, np.array([replay]), np.array([example]), 2)


class TestHammingAndClip:
    def test_clip_equal_propensities(self):
        assert compute_clip_constant(np.full(7, 0.3)) == 1.0

    def test_clip_interpolation_rule(self):
        p = np.arange(0.1, 1.01, 0.1)
        assert compute_clip_constant(p) == pytest.approx(0.91 / 0.19, rel=1e-12)

    def test_clip_single_element(self):
        assert compute_clip_constant(np.array([0.4])) == 1.0

    def test_clip_validates_range(self):
        with pytest.raises(ContractViolation):
            compute_clip_constant(np.array([0.0, 0.5]))


class TestEvaluation:
    def test_uniform_policy_half_q(self):
        ds = synthetic_multilabel(30, 4, 5, seed=12)
        assert evaluate_policy(PolicyParams.zeros(5, 4), ds, "expected") == pytest.approx(2.5)

    def test_perfect_policy_zero(self):
        from dro_crm import append_bias
        ds = append_bias(synthetic_multilabel(30, 4, 2, seed=13))
        # a policy with huge logits matching the labels exactly
        params = train_logger(ds, alpha=60.0)
        assert evaluate_policy(params, ds, "greedy") == 0.0
        assert evaluate_policy(params, ds, "expected") < 0.05

    def test_expected_matches_monte_carlo(self):
        ds = synthetic_multilabel(3, 3, 2, seed=14)
        rng = np.random.default_rng(0)
        params = PolicyParams(0.7 * rng.normal(size=(2, 3)))
        exact = evaluate_policy(params, ds, "expected")
        probs = sigmoid(logits_matrix(params, ds.X))
        rng = np.random.default_rng(1)
        draws = 100_000
        total = 0.0
        for _ in range(draws):
            i = int(rng.integers(ds.n_examples))
            y = rng.random(ds.n_labels) < probs[i]
            total += np.abs(y - ds.Y[i]).sum()
        sigma = 2.0 / math.sqrt(draws)
        assert abs(total / draws - exact) < 3 * sigma

    def test_unknown_mode(self):
        ds = synthetic_multilabel(5, 3, 2, seed=15)
        with pytest.raises(ContractViolation):
            evaluate_policy(PolicyParams.zeros(2, 3), ds, "other")


class TestValidationScore:
    def test_logger_scores_its_mean_cost(self):
        ds = synthetic_multilabel(40, 3, 2, seed=17)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=2, seed=7)
        assert ips_risk(logger, log) == pytest.approx(
            float(log.costs.mean()), abs=1e-12)


class TestLogSerialization:
    def test_round_trip(self, tmp_path):
        ds = synthetic_multilabel(15, 3, 2, seed=18)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=2, seed=8)
        csv_path, meta_path = tmp_path / "log.csv", tmp_path / "log.meta"
        save_bandit_log(log, csv_path, meta_path, seed=8)
        back = load_bandit_log(csv_path, meta_path, ds)
        assert np.array_equal(back.Y, log.Y)
        assert np.allclose(back.log_propensities, log.log_propensities, atol=1e-14)
        assert np.allclose(back.costs, log.costs, atol=0.0)
        assert back.clip_m == log.clip_m
        meta = meta_path.read_text().splitlines()
        assert "delta = 2" in meta and "seed = 8" in meta
        assert np.array_equal(back.X, log.X)

    def test_csv_is_unchanged(self, tmp_path):
        # the per-record writer the package used, as the reference
        def reference(log, path):
            raw = (log.costs + 1.0) / (1.0 / log.Y.shape[1])
            p = np.exp(log.log_propensities)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("record_id,replay,example_id,action_bits,propensity,"
                         "cost_raw,cost_scaled\n")
                for i in range(log.n):
                    bits = "".join(str(int(b)) for b in log.Y[i])
                    fh.write(f"{i},{log.replay_ids[i]},{log.example_ids[i]},{bits},"
                             f"{float(p[i])!r},{float(raw[i])!r},{float(log.costs[i])!r}\n")

        ds = synthetic_multilabel(25, 4, 5, seed=3)
        log = generate_bandit_log(train_logger(ds), ds, delta=3, seed=4)
        save_bandit_log(log, tmp_path / "log.csv", tmp_path / "log.meta", seed=4)
        reference(log, tmp_path / "old.csv")
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_header_checked(self, tmp_path):
        (tmp_path / "bad.csv").write_text("wrong,header\n")
        (tmp_path / "bad.meta").write_text("clip_m = 1.0\ncost_scale = 1.0\ncost_offset = 0.0\n")
        ds = synthetic_multilabel(5, 3, 2, seed=19)
        with pytest.raises(DataFormatError):
            load_bandit_log(tmp_path / "bad.csv", tmp_path / "bad.meta", ds)


class TestLogValidation:
    @staticmethod
    def _saved(tmp_path):
        ds = synthetic_multilabel(6, 3, 2, seed=20)
        log = generate_bandit_log(PolicyParams.zeros(2, 3), ds, delta=2, seed=9)
        csv_path, meta_path = tmp_path / "log.csv", tmp_path / "log.meta"
        save_bandit_log(log, csv_path, meta_path, seed=9)
        return ds, log, csv_path, meta_path

    @staticmethod
    def _set_meta(meta_path, key, value):
        lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
                 for line in meta_path.read_text().splitlines()]
        meta_path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def _corrupt(csv_path, field, value):
        lines = csv_path.read_text().splitlines()
        parts = lines[2].split(",")  # second record, line 3 of the file
        parts[field] = value
        lines[2] = ",".join(parts)
        csv_path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field,value,message", [
        (1, "-5", "replay id -5 outside 0..1"),
        (1, "2", "replay id 2 outside 0..1"),
        (2, "-1", "example id -1"),
        (2, "6", "example id 6"),
        (2, "x", "bad number"),
        (3, "12", "action '12'"),
        (3, "1", "action '1'"),
        (3, "101", "action '101'"),
        (4, "0.0", "propensity"),
        (4, "1.5", "propensity"),
        (4, "nan", "propensity"),
        (6, "inf", "non-finite cost"),
        (6, "nan", "non-finite cost"),
    ])
    def test_loader_rejects_bad_record(self, tmp_path, field, value, message):
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        self._corrupt(csv_path, field, value)
        with pytest.raises(DataFormatError, match=f"log.csv:3: {message}"):
            load_bandit_log(csv_path, meta_path, ds)

    def test_loader_rejects_missing_meta_entry(self, tmp_path):
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        meta_path.write_text("clip_m = 2.0\n")
        with pytest.raises(DataFormatError, match="cost_scale"):
            load_bandit_log(csv_path, meta_path, ds)

    @pytest.mark.parametrize("key,value", [
        ("cost_scale", "1.0"), ("cost_scale", "0.25"), ("cost_offset", "0.0")])
    def test_loader_rejects_other_cost_map(self, tmp_path, key, value):
        # q = 2 labels: the package's map is scale 0.5, offset -1.0
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        self._set_meta(meta_path, key, value)
        with pytest.raises(DataFormatError, match="log.meta: cost map"):
            load_bandit_log(csv_path, meta_path, ds)

    def test_loader_rejects_replay_beyond_delta(self, tmp_path):
        # 6 examples, delta 2: the first record of replay 1 is on line 8
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        self._set_meta(meta_path, "delta", "1")
        with pytest.raises(DataFormatError, match="log.csv:8: replay id 1 outside 0..0"):
            load_bandit_log(csv_path, meta_path, ds)

    def test_loader_rejects_truncated_log(self, tmp_path):
        ds, log, csv_path, meta_path = self._saved(tmp_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError,
                           match=f"n_records = {log.n}, but .*log.csv holds {log.n - 1}"):
            load_bandit_log(csv_path, meta_path, ds)

    @pytest.mark.parametrize("value", ["nan", "inf", "0.0"])
    def test_loader_rejects_bad_clip_constant(self, tmp_path, value):
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        self._set_meta(meta_path, "clip_m", value)
        with pytest.raises(DataFormatError, match="log.meta: clip constant"):
            load_bandit_log(csv_path, meta_path, ds)

    @pytest.mark.parametrize("which", ["csv", "meta"])
    def test_loader_rejects_non_utf8_file(self, tmp_path, which):
        ds, _, csv_path, meta_path = self._saved(tmp_path)
        bad = csv_path if which == "csv" else meta_path
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(DataFormatError, match=f"{bad.name}: not UTF-8 text"):
            load_bandit_log(csv_path, meta_path, ds)

    def test_loader_keeps_features_once(self, tmp_path):
        ds, log, csv_path, meta_path = self._saved(tmp_path)
        back = load_bandit_log(csv_path, meta_path, ds)
        assert back.X is ds.X
        assert np.array_equal(back.example_ids, log.example_ids)
        assert np.array_equal(back.replay_ids, log.replay_ids)

    def test_constructor_checks(self):
        X = np.zeros((3, 2))
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        logp = np.log(np.array([0.5, 0.25]))
        costs = np.array([-1.0, 0.0])
        BanditLog(X, Y, logp, costs, 2.0, example_ids=np.array([0, 2]))
        bad = [
            dict(example_ids=np.array([0, -1])),
            dict(example_ids=np.array([0, 3])),
            dict(example_ids=np.array([0.0, 1.0])),
            dict(example_ids=np.array([0, 1, 2])),
            dict(example_ids=None),  # X has 3 rows for 2 records
            dict(Y=np.array([[1.0, 0.0], [2.0, 1.0]])),
            dict(log_propensities=np.array([0.1, np.log(0.5)])),
            dict(log_propensities=np.array([-np.inf, np.log(0.5)])),
            dict(log_propensities=np.array([np.nan, np.log(0.5)])),
            dict(costs=np.array([np.inf, 0.0])),
            dict(costs=np.array([np.nan, 0.0])),
            dict(clip_m=0.0),
            dict(clip_m=math.nan),
            dict(clip_m=math.inf),
        ]
        for override in bad:
            args = dict(X=X, Y=Y, log_propensities=logp, costs=costs, clip_m=2.0,
                        example_ids=np.array([0, 2]))
            args.update(override)
            with pytest.raises(ContractViolation):
                BanditLog(**args)
