import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dro_crm import (BanditLog, ContractViolation, DataFormatError,
                     PolicyParams, append_bias, compute_clip_constant,
                     evaluate, evaluate_policy, generate_bandit_log, ips_risk,
                     load_multilabel_svmlight, save_bandit_log,
                     save_multilabel_svmlight, split_dataset,
                     synthetic_multilabel, train_logger)
from dro_crm import bandit
from dro_crm.bandit import SupervisedDataset
from dro_crm.errors import utf8_lines
from dro_crm.policy import log_prob_matrix, logits_matrix, sigmoid


def raw_costs(log, ds):
    """Hamming distances between the logged actions and their examples' labels."""
    return np.abs(log.Y - ds.Y[log.example_ids]).sum(axis=1)


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

    def test_no_label_ids_errors(self, tmp_path):
        # no policy can be fitted on a collection without one label id; a
        # file without one is read when another file of its collection has one
        path, other = tmp_path / "nolabels.svm", tmp_path / "other.svm"
        path.write_text(" 1:1.0\n 2:0.5\n")
        other.write_text(" 1:2.0\n")
        for paths in ([path], [path, other]):
            with pytest.raises(DataFormatError, match="nolabels.svm: no label ids$"):
                load_multilabel_svmlight(*paths)
        other.write_text("0 1:2.0\n")
        ds, _ = load_multilabel_svmlight(path, other)
        assert ds.Y.tolist() == [[0.0], [0.0]]

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

    def test_writer_bytes_on_edge_rows(self, tmp_path):
        # an empty row, a label-only row, features without a label, and -0.0
        # (not written: it equals 0.0), 1e-300 and 1e300
        ds = SupervisedDataset(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                         [0.5, 0.0, 0.0], [-0.0, 1e-300, 1e300]]),
                               np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]]))
        path = tmp_path / "edge.svm"
        save_multilabel_svmlight(ds, path)
        assert path.read_bytes() == b"1:0.0\n0,1\n 1:0.5\n1 2:1e-300 3:1e+300\n"
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

    def test_byte_order_mark_is_ignored(self, tmp_path, monkeypatch):
        text = "0,1 1:1.0 3:-2\n2 2:0.5\n"
        plain, bom = tmp_path / "plain.svm", tmp_path / "bom.svm"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf0,1 ")
        want = _both_paths(monkeypatch, [plain])
        assert isinstance(want[0], list)
        assert _both_paths(monkeypatch, [bom]) == want

    @pytest.mark.parametrize("width", [3, 6])
    def test_collection_and_width(self, tmp_path, monkeypatch, width):
        first, second = tmp_path / "a.svm", tmp_path / "b.svm"
        first.write_text("1,3 1:1.0\n2 3:2.0\n")
        second.write_text("1 2:0.5 5:1 3000000000:0\n0 1:4.0\n")
        fast, slow = _both_paths(monkeypatch, [first, second], n_features=width)
        assert fast == slow

    def test_both_grammars_give_the_same_compact_block(self, tmp_path):
        ds = synthetic_multilabel(40, 294, 6, seed=3)
        ds.X[ds.X < -1.0] = 0.0
        ds.X[7] = 0.0
        ds.Y[9] = 0.0
        path = tmp_path / "scene.svm"
        save_multilabel_svmlight(ds, path)
        block = list(utf8_lines(path))
        fast, slow = bandit._parse_block(block), bandit._parse_lines(path, block)
        assert fast is not None and fast[0] == slow[0]
        for a, b in zip(fast[1:], slow[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        labels, counts, cols, vals = fast
        assert cols.dtype == np.int32 and vals.dtype == np.float64
        assert counts.tolist() == np.count_nonzero(ds.X, axis=1).tolist()

    @pytest.mark.parametrize("index", [2 ** 31, 2 ** 31 + 1, 2 ** 32 + 5, 2 ** 63])
    def test_index_beyond_int32_keeps_the_width_error(self, tmp_path, monkeypatch, index):
        path = tmp_path / "wide.svm"
        path.write_text(f"0 1:1.0\n1 2:0.5 {index}:2.0\n")
        fast, slow = _both_paths(monkeypatch, [path], n_features=2)
        assert fast == slow == f"{path}: feature index {index} exceeds the width 2"

    def test_blocks_end_at_the_text_budget(self, tmp_path, monkeypatch):
        # Scene-shaped 6.8 KB lines: a block ends at the line that takes its
        # text to _BLOCK_CHARS, and an error in a later block keeps its line
        ds = synthetic_multilabel(250, 294, 6, seed=4)
        path = tmp_path / "scene.svm"
        save_multilabel_svmlight(ds, path)
        blocks = list(bandit._blocks(utf8_lines(path)))
        assert len(blocks) >= 3
        assert sum(len(b) for b in blocks) == 250
        for block in blocks[:-1]:
            chars = [len(raw) for _, raw in block]
            assert sum(chars) - chars[-1] < bandit._BLOCK_CHARS <= sum(chars)
        fast, slow = _both_paths(monkeypatch, [path])
        assert fast == slow and isinstance(fast, list)
        lines = path.read_text().splitlines()
        lines[-2] = lines[-2].replace(":", ":x", 1)
        path.write_text("\n".join(lines) + "\n")
        fast, slow = _both_paths(monkeypatch, [path])
        assert fast == slow and fast.startswith(f"{path}:249: bad feature token ")

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
        raw = raw_costs(log, ds)
        perfect = raw == 0.0
        assert perfect.any()
        assert np.allclose(log.costs[perfect], -1.0)

    def test_raw_cost_is_hamming_distance(self):
        ds = synthetic_multilabel(20, 3, 4, seed=6)
        log = generate_bandit_log(PolicyParams.zeros(4, 3), ds, delta=2, seed=2)
        for i, example in enumerate(log.example_ids):
            differing = sum(int(a != b) for a, b in zip(log.Y[i], ds.Y[example]))
            assert log.costs[i] == pytest.approx(differing / 4 - 1.0, abs=1e-12)
        assert len(set(raw_costs(log, ds))) > 2  # the check sees several distances

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
        again = log_prob_matrix(logger, log.X, log.Y)
        assert np.array_equal(again, log.log_propensities)

    def test_logger_ratios_are_exactly_one(self):
        # the logs' propensities are the kernel's pi at the logger, bit for bit
        ds = append_bias(synthetic_multilabel(600, 5, 4, seed=12, label_noise=0.1))
        train, valid, subset = split_dataset(ds, seed=6)
        logger = train_logger(subset)
        for part, stream in ((train, 0), (valid, 1)):
            log = generate_bandit_log(logger, part, delta=3, seed=6, stream=stream)
            assert np.all(evaluate("cips", logger, log).ratio == 1.0)

    def test_mean_cost_matches_expected_loss(self):
        ds = synthetic_multilabel(300, 3, 2, seed=9)
        logger = train_logger(ds)
        log = generate_bandit_log(logger, ds, delta=8, seed=4)
        raw = raw_costs(log, ds)
        expected, _ = evaluate_policy(logger, ds)
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
    """Each replay pass draws its records' uniforms from one numpy stream."""

    @staticmethod
    def _numpy_passes(seed, stream, delta, n_examples, q):
        return np.stack([np.random.default_rng((seed, stream, d)).random((n_examples, q))
                         for d in range(delta)])

    # seeds of 1, 2 and 4 words: the longer keys overflow SeedSequence's 4-word pool
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 7, 2**100 + 3])
    @pytest.mark.parametrize("stream", [0, 1, 2**33])
    @pytest.mark.parametrize("q", [1, 14])
    def test_matches_numpy_seed_sequence(self, seed, stream, q):
        ds = synthetic_multilabel(9, 3, q, seed=seed % 1000 + 31 * q)
        logger = PolicyParams(np.random.default_rng(q).normal(size=(q, 3)))
        log = generate_bandit_log(logger, ds, delta=3, seed=seed, stream=stream)
        probs = sigmoid(logits_matrix(logger, ds.X))
        u = self._numpy_passes(seed, stream, 3, 9, q)
        want = (u < probs).astype(np.float64).reshape(-1, q)
        assert log.Y.tobytes() == want.tobytes()

    def test_log_records_use_their_own_stream(self):
        # record k draws row example_ids[k] of pass replay_ids[k]'s stream
        ds = synthetic_multilabel(7, 3, 4, seed=21)
        logger = PolicyParams(np.full((4, 3), 0.3))
        log = generate_bandit_log(logger, ds, delta=3, seed=2**40 + 7, stream=2)
        probs = sigmoid(logits_matrix(logger, ds.X))
        u = self._numpy_passes(2**40 + 7, 2, 3, 7, 4)[log.replay_ids, log.example_ids]
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

    def test_streams_draw_apart(self):
        # a uniform logger on the same examples: only the stream differs
        ds = synthetic_multilabel(50, 3, 4, seed=24)
        logger = PolicyParams.zeros(4, 3)
        train = generate_bandit_log(logger, ds, delta=2, seed=3, stream=0)
        valid = generate_bandit_log(logger, ds, delta=2, seed=3, stream=1)
        assert not np.array_equal(train.Y, valid.Y)
        assert not np.array_equal(train.Y[:50], train.Y[50:])

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_negative_key_rejected(self, seed, stream):
        ds = synthetic_multilabel(5, 3, 2, seed=23)
        with pytest.raises(ContractViolation, match="must be non-negative"):
            generate_bandit_log(PolicyParams.zeros(2, 3), ds, delta=1, seed=seed,
                                stream=stream)


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
        assert evaluate_policy(PolicyParams.zeros(5, 4), ds)[0] == pytest.approx(2.5)

    def test_perfect_policy_zero(self):
        from dro_crm import append_bias
        ds = append_bias(synthetic_multilabel(30, 4, 2, seed=13))
        # a policy with huge logits matching the labels exactly
        params = train_logger(ds, alpha=60.0)
        expected, greedy = evaluate_policy(params, ds)
        assert greedy == 0.0
        assert expected < 0.05

    def test_expected_matches_monte_carlo(self):
        ds = synthetic_multilabel(3, 3, 2, seed=14)
        rng = np.random.default_rng(0)
        params = PolicyParams(0.7 * rng.normal(size=(2, 3)))
        exact, _ = evaluate_policy(params, ds)
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
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=str)
        ids = rows[:, :3].astype(int)
        assert np.array_equal(ids, np.column_stack(
            [np.arange(log.n), log.replay_ids, log.example_ids]))
        assert np.array_equal([[float(b) for b in bits] for bits in rows[:, 3]], log.Y)
        assert np.allclose(np.log(rows[:, 4].astype(float)), log.log_propensities,
                           atol=1e-14)
        assert np.array_equal(rows[:, 5].astype(float), raw_costs(log, ds))
        assert np.array_equal(rows[:, 6].astype(float), log.costs)
        meta = dict(line.split(" = ") for line in meta_path.read_text().splitlines())
        assert float(meta["clip_m"]) == log.clip_m
        assert (meta["seed"], meta["delta"], meta["n_records"]) == ("8", "2", str(log.n))

    def test_csv_is_unchanged(self, tmp_path):
        # the per-record writer the package used, as the reference
        def reference(log, path):
            raw = raw_costs(log, ds)
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

    @pytest.mark.parametrize("q", [3, 5, 6, 14])
    def test_cost_raw_is_the_integer_hamming_distance(self, tmp_path, q):
        ds = synthetic_multilabel(60, 3, q, seed=q)
        log = generate_bandit_log(PolicyParams.zeros(q, 3), ds, delta=2, seed=1)
        save_bandit_log(log, tmp_path / "log.csv", tmp_path / "log.meta", seed=1)
        rows = np.loadtxt(tmp_path / "log.csv", delimiter=",", skiprows=1, dtype=str)
        raw = rows[:, 5].astype(float)
        assert all(r.is_integer() for r in raw)
        assert np.array_equal(raw, raw_costs(log, ds))


class TestLogValidation:
    def test_constructor_checks(self):
        X = np.zeros((2, 2))
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        logp = np.log(np.array([0.5, 0.25, 0.125, 0.5]))
        costs = np.array([-1.0, 0.0, -0.5, -1.0])
        log = BanditLog(X, Y, logp, costs, 2.0)
        assert log.delta == 2
        assert log.replay_ids.tolist() == [0, 0, 1, 1]
        assert log.example_ids.tolist() == [0, 1, 0, 1]
        bad = [
            dict(X=np.zeros((3, 2))),  # 4 records are not whole replays of 3 examples
            dict(X=np.zeros((0, 2))),
            dict(Y=Y[:3], log_propensities=logp[:3], costs=costs[:3]),
            dict(Y=np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 0.0]])),
            dict(log_propensities=np.array([0.1, *logp[1:]])),
            dict(log_propensities=np.array([-np.inf, *logp[1:]])),
            dict(log_propensities=np.array([np.nan, *logp[1:]])),
            dict(costs=np.array([np.inf, *costs[1:]])),
            dict(costs=np.array([np.nan, *costs[1:]])),
            dict(clip_m=0.0),
            dict(clip_m=math.nan),
            dict(clip_m=math.inf),
        ]
        for override in bad:
            args = dict(X=X, Y=Y, log_propensities=logp, costs=costs, clip_m=2.0)
            args.update(override)
            with pytest.raises(ContractViolation):
                BanditLog(**args)
        with pytest.raises(ContractViolation, match="4 records are not whole replays of 3"):
            BanditLog(np.zeros((3, 2)), Y, logp, costs, 2.0)


class TestDatasetValidation:
    @pytest.mark.parametrize("label", [0.5, math.nan, 2.0, -1.0])
    def test_labels_must_be_binary(self, label):
        X = np.zeros((2, 2))
        SupervisedDataset(X, np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ContractViolation, match="labels must be 0/1"):
            SupervisedDataset(X, np.array([[0.0, 1.0], [label, 1.0]]))


def _traced_peak(fn):
    """fn's result and the peak of the memory tracemalloc sees allocated
    while it runs, above what was allocated when it started."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestDataPathMemory:
    """Bounds on the data path's temporaries, as tracemalloc counts them
    (numpy's buffers included).  Each bound has margin both ways: above the
    peak of a path that holds one block of lines or one row at a time, and
    below the peak of one that holds a whole file or log in temporaries."""

    def test_reader_peak_is_a_small_multiple_of_its_arrays(self, tmp_path):
        # a Scene-shaped pair: 1211 + 1196 examples, 294 features, 6 labels;
        # holding a whole file's intp (row, index) pairs and values peaks at 3.8x
        full = synthetic_multilabel(1211 + 1196, 294, 6, seed=0)
        save_multilabel_svmlight(full.subset(np.arange(1211)), tmp_path / "train.svm")
        save_multilabel_svmlight(full.subset(np.arange(1211, 2407)), tmp_path / "test.svm")
        pair, peak = _traced_peak(
            lambda: load_multilabel_svmlight(tmp_path / "train.svm", tmp_path / "test.svm"))
        assert np.array_equal(pair[0].X, full.X[:1211])
        arrays = sum(ds.X.nbytes + ds.Y.nbytes for ds in pair)
        assert peak <= 2.5 * arrays

    def test_writer_peak_does_not_grow_with_rows(self, tmp_path):
        full = synthetic_multilabel(400, 294, 6, seed=1)
        small, big = full.subset(np.arange(100)), full
        _, small_peak = _traced_peak(lambda: save_multilabel_svmlight(small, tmp_path / "s.svm"))
        _, big_peak = _traced_peak(lambda: save_multilabel_svmlight(big, tmp_path / "b.svm"))
        assert big_peak <= 1.5 * small_peak

    def test_log_generation_peak_above_its_log(self):
        # the Scene-shaped train log of a delta-64 run: 908 examples, 294
        # features and a bias, 6 labels; float64 Hamming temporaries of
        # (64, 908, 6) put the peak 5.0 MiB above the log's 3.5 MiB
        ds = append_bias(synthetic_multilabel(908, 294, 6, seed=2))
        W = 0.1 * np.random.default_rng(2).normal(size=(6, 295))
        log, peak = _traced_peak(lambda: generate_bandit_log(PolicyParams(W), ds, 64, seed=0))
        kept = log.Y.nbytes + log.log_propensities.nbytes + log.costs.nbytes
        assert log.n == 64 * 908
        assert peak - kept <= 3.5 * 2 ** 20
