"""Supervised-to-bandit conversion and exact policy evaluation.

A multilabel dataset (features plus ground-truth label bit-vectors) is split
into train/valid pools; a stochastic logging policy is fitted by regularized
maximum likelihood on a small fraction of the train pool, then replayed over
the pool `delta` times, each pass sampling an action per example, recording
its probability, and charging the Hamming distance to the ground truth as the
cost.  Costs are rescaled to [-1, 0] (cost = hamming / q - 1) before logging;
a saved log writes this one fixed map to its sidecar beside the raw costs.  The
ratio clipping constant is set from the logged propensities as the ratio of
their 90th to 10th percentile.

Each replay pass d draws the uniforms of all its records from one numpy
stream, keyed by (seed, stream, d), so a pass does not depend on how many
passes the log holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractViolation, DataFormatError, utf8_lines
from .objectives import BanditLog
from .optim import minimize
from .policy import (PolicyParams, _sigmoid_from, log_prob, logit_terms,
                     logits_matrix, score_gradient, sigmoid)


@dataclass
class SupervisedDataset:
    """Dense multilabel dataset: X (N, D) features, Y (N, q) 0/1 labels."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2 or self.X.shape[0] != self.Y.shape[0]:
            raise ContractViolation("X and Y must be matrices with equal row counts")
        if not np.all(np.isfinite(self.X)):
            raise ContractViolation("features must be finite")
        if not np.all((self.Y == 0.0) | (self.Y == 1.0)):
            raise ContractViolation("labels must be 0/1 bit vectors")

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        return self.Y.shape[1]

    def subset(self, idx: np.ndarray) -> "SupervisedDataset":
        return SupervisedDataset(self.X[idx], self.Y[idx])


# The protocol: train/validation split, the share of train the logging policy
# is fitted on, and the multiplier that softens it (the skyline uses 1).
TRAIN_FRAC = 0.75
LOGGER_FRAC = 0.05
LOGGER_ALPHA = 0.5
_LOGGER_L2 = 1e-4          # L2 strength of the maximum-likelihood fit
_LOGGER_MAX_ITERS = 200
_COST_OFFSET = -1.0        # logged cost = hamming / q + _COST_OFFSET


# ---------------------------------------------------------------------------
# svmlight-style multilabel text format
# ---------------------------------------------------------------------------

# A block of lines ends at the line that takes its text to this many
# characters (about 38 Scene-shaped lines of 6.8 KB), so that no more than
# one block's joined tokens are held at once.
_BLOCK_CHARS = 2 ** 18
# What the fast path lets a feature value hold besides digits; a block with
# any other byte in a token goes to the line grammar.
_VALUE_BYTES = b"+-.eE"
# Larger feature indices go to the line grammar, so the fast path's indices
# - 1 fit int32 and its row keys (row * _MAX_INDEX + index) are exact.
_MAX_INDEX = 2 ** 31


def _split_line(raw: str):
    """A line's label token ("" when it has none) and the text of its feature
    tokens, or None for a blank or comment-only line."""
    parts = raw.split("#", 1)[0].strip().split(None, 1)
    if not parts:
        return None
    if ":" in parts[0]:
        parts.insert(0, "")
    return parts[0], " ".join(parts[1:])


def _label_ids(label_tok: str) -> List[int]:
    return [int(t) for t in label_tok.split(",") if t != ""]


def _parse_line(path, lineno: int, label_tok: str, feats_text: str):
    """The grammar of one split line: (label ids, feature indices - 1,
    values); an index given twice keeps its last value."""
    try:
        labels = _label_ids(label_tok)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad label list {label_tok!r}") from exc
    feats = {}
    for tok in feats_text.split():
        try:
            idx_s, val_s = tok.split(":")
            idx, val = int(idx_s), float(val_s)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
        if idx < 1:
            raise DataFormatError(f"{path}:{lineno}: feature indices are 1-based")
        if not math.isfinite(val):
            raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
        feats[idx - 1] = val
    return labels, list(feats), list(feats.values())


def _parse_lines(path, block):
    """A block of (line number, label token, feature text) triples read by
    the line grammar: (label ids per example, feature counts per example,
    feature indices - 1, values).  The indices are int32 when they fit, else
    kept exact for the loader's width error."""
    labels, counts, cols, vals = [], [], [], []
    for line in block:
        line_labels, line_cols, line_vals = _parse_line(path, *line)
        labels.append(line_labels)
        counts.append(len(line_cols))
        cols += line_cols
        vals += line_vals
    try:
        cols = np.array(cols, dtype=np.int32 if max(cols, default=0) < _MAX_INDEX else np.intp)
    except OverflowError:
        cols = np.array(cols, dtype=object)
    return labels, np.array(counts, dtype=np.intp), cols, np.array(vals, dtype=np.float64)


def _parse_block(block):
    """The same as `_parse_lines`, read with bytes operations and one
    np.loadtxt of the joined feature text, or None when a line needs the line
    grammar: a label list that is not integers, a feature token that is not
    ASCII digits, ":" and a plain decimal number, whitespace other than one
    space between tokens, an index below 1 or above _MAX_INDEX, a non-finite
    value, or indices that do not strictly ascend within a line."""
    labels, counts, texts = [], [], []
    for _, label_tok, feats_text in block:
        try:
            labels.append(_label_ids(label_tok))
        except ValueError:
            return None
        counts.append(feats_text.count(":"))
        if feats_text:
            texts.append(feats_text)
    text = " ".join(texts)
    n = sum(counts)
    # With the digits gone, the separators must read ": : ... :" (every
    # token holds one ":" and only digits and _VALUE_BYTES, one space apart),
    # and every ":" must follow a space or the start (every index is digits).
    # An empty index or value shows as a short count below.
    seps = text.encode().translate(None, b"0123456789")
    if (seps.translate(None, _VALUE_BYTES) != (b": " * n)[:-1]
            or seps.count(b" :") + seps.startswith(b":") != n):
        return None
    try:  # any text, since a colon-free line such as "0 5" passes with n = 0
        nums = (np.loadtxt([text.replace(":", " ")], delimiter=" ", ndmin=1)
                if text else np.empty(0))
    except ValueError:
        return None
    if nums.size != 2 * n:
        return None
    idx, vals = nums[0::2], nums[1::2]
    if not (np.all(np.isfinite(vals)) and np.all((idx >= 1) & (idx <= _MAX_INDEX))):
        return None
    counts = np.array(counts, dtype=np.intp)
    cols = (idx - 1).astype(np.int32)
    if np.any(np.diff(_rows(0, counts) * _MAX_INDEX + cols) <= 0):
        return None
    return labels, counts, cols, vals.copy()  # the copy lets `nums` go


def _rows(start: int, counts: np.ndarray) -> np.ndarray:
    """The example of each value of a block whose first example is `start`."""
    return np.repeat(np.arange(start, start + counts.size), counts)


def _blocks(lines):
    """The (line number, line) pairs in lists, each ending at the line that
    takes its text to _BLOCK_CHARS characters."""
    block, chars = [], 0
    for item in lines:
        block.append(item)
        chars += len(item[1])
        if chars >= _BLOCK_CHARS:
            yield block
            block, chars = [], 0
    if block:
        yield block


def _read_svmlight(path):
    """One file's label ids per example and, per block of lines, its first
    example, feature counts per example, feature indices - 1 and values."""
    labels, feats = [], []
    for block in _blocks(utf8_lines(path)):
        block = [(lineno, *parts) for lineno, raw in block if (parts := _split_line(raw))]
        block_labels, *arrays = _parse_block(block) or _parse_lines(path, block)
        feats.append((len(labels), *arrays))
        labels += block_labels
    if not labels:
        raise DataFormatError(f"{path}: no examples")
    return labels, feats


def _widen(A: np.ndarray, width: int) -> np.ndarray:
    """A zero-padded on the right to `width` columns, or A itself when it is
    that wide already."""
    return A if A.shape[1] == width else np.pad(A, [(0, 0), (0, width - A.shape[1])])


def load_multilabel_svmlight(*paths, n_features: Optional[int] = None
                             ) -> List[SupervisedDataset]:
    """One dataset per file, read from lines "l1,l2,... idx:val idx:val ...".

    The files are read as one collection, such as a train and a test split.
    Feature indices are 1-based.  Label ids may be 0- or 1-based: the first
    file decides for all of them (a 0 anywhere in it means 0-based), and
    labels are remapped to 0..q-1.  Empty label lists yield all-zero rows,
    but a collection with no label id at all is an error.
    Every dataset gets the label count and the feature width of the whole
    collection, zero-padded where a file never uses the top ids;
    `n_features` sets the width instead, and a larger index is an error.

    Each file is read a block of lines at a time, a block ending at the line
    that takes its text to _BLOCK_CHARS characters.  Each line is split once
    into its label token and feature text, blank and comment lines dropped,
    and the block is read by `_parse_block`; a block it does not take is read
    by the line grammar, `_parse_line`, which gives the same arrays or the
    line-numbered error.  Until its matrices are filled, a file is held as
    its label ids and, per block, the feature counts per example, int32
    feature indices and float64 values: 12 bytes a value.
    """
    if not paths:
        raise ContractViolation("load_multilabel_svmlight needs at least one path")
    shift, arrays = None, []
    for path in paths:
        labels, feats = _read_svmlight(path)
        ids = [l for ls in labels for l in ls]
        if shift is None:  # the first file decides
            shift = 1 if min(ids, default=0) > 0 else 0
        q = max(ids, default=shift - 1) - shift + 1
        d = n_features if n_features is not None else 1 + max(
            (int(cols.max()) for _, _, cols, _ in feats if cols.size), default=-1)
        try:
            X = np.zeros((len(labels), d))
        except (MemoryError, ValueError) as exc:  # numpy's refusals of such a width
            what = f"feature index {d}" if n_features is None else f"the width {d}"
            raise DataFormatError(
                f"{path}: {what} is too large for a dense feature matrix") from exc
        try:
            Y = np.zeros((len(labels), q))
        except (MemoryError, ValueError) as exc:
            raise DataFormatError(
                f"{path}: label id {max(ids)} is too large for a dense label matrix"
            ) from exc
        # the first bad row is reported, its labels before its features
        low = next(((r, lab) for r, ls in enumerate(labels) for lab in ls if lab < shift),
                   None)
        wide = next(((int(_rows(start, counts)[k]), int(cols[k]) + 1)
                     for start, counts, cols, _ in feats
                     for k in np.flatnonzero(cols >= d)[:1]), None)
        if low and not (wide and wide[0] < low[0]):
            raise DataFormatError(f"{path}: label {low[1]} below the first id {shift}")
        if wide:
            raise DataFormatError(f"{path}: feature index {wide[1]} exceeds the width {d}")
        for r, ls in enumerate(labels):
            for lab in ls:
                Y[r, lab - shift] = 1.0
        for start, counts, cols, vals in feats:
            X[_rows(start, counts), cols] = vals
        arrays.append((X, Y))
        del feats  # one file's arrays at a time bounds the parse's memory
    d = max(X.shape[1] for X, _ in arrays)
    q = max(Y.shape[1] for _, Y in arrays)
    if q == 0:  # no policy can be fitted or scored on no labels
        raise DataFormatError(f"{paths[0]}: no label ids")
    return [SupervisedDataset(_widen(X, d), _widen(Y, q)) for X, Y in arrays]


def save_multilabel_svmlight(ds: SupervisedDataset, path) -> None:
    """Write the dataset back out with 1-based feature indices and 0-based
    label ids, and a row with no label and no nonzero feature as "1:0.0",
    since the loader skips blank lines.  Label ids are always 0-based, so
    that splits saved apart read back together; a lone file whose label 0 is
    never set reads back as 1-based, one label short.  Rows are formatted
    and written one at a time, so no more than one row is held as Python
    floats."""
    keys = [f"{i}:" for i in range(1, ds.n_features + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(ds.X, ds.Y):
            labels = ",".join([str(j) for j, v in enumerate(y.tolist()) if v])
            feats = " ".join([k + repr(v) for k, v in zip(keys, x.tolist()) if v != 0.0])
            fh.write((f"{labels} {feats}".rstrip() or "1:0.0") + "\n")


def synthetic_multilabel(n_examples: int, n_features: int, n_labels: int,
                         seed: int, label_noise: float = 0.0) -> SupervisedDataset:
    """Linearly separable multilabel data (optionally with label noise), used
    by tests and as a self-contained benchmark stand-in."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n_labels, n_features)) / np.sqrt(n_features)
    b = 0.2 * rng.normal(size=n_labels)
    X = rng.normal(size=(n_examples, n_features))
    Y = (X @ W.T + b > 0.0).astype(np.float64)
    if label_noise > 0.0:
        flips = rng.random(Y.shape) < label_noise
        Y = np.where(flips, 1.0 - Y, Y)
    return SupervisedDataset(X, Y)


def append_bias(ds: SupervisedDataset) -> SupervisedDataset:
    X = np.hstack([ds.X, np.ones((ds.n_examples, 1))])
    return SupervisedDataset(X, ds.Y.copy())


# ---------------------------------------------------------------------------
# Splitting, logger training, log generation
# ---------------------------------------------------------------------------

def split_dataset(ds: SupervisedDataset, seed: int
                  ) -> Tuple[SupervisedDataset, SupervisedDataset, SupervisedDataset]:
    """Deterministic shuffle by seed into (train: the leading TRAIN_FRAC, valid,
    logger_subset: the leading ceil(LOGGER_FRAC * |train|) of train)."""
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    perm = np.random.default_rng(seed).permutation(ds.n_examples)
    n_train = int(TRAIN_FRAC * ds.n_examples)
    train_idx, valid_idx = perm[:n_train], perm[n_train:]
    n_logger = max(1, math.ceil(LOGGER_FRAC * n_train))
    return ds.subset(train_idx), ds.subset(valid_idx), ds.subset(train_idx[:n_logger])


def train_logger(subset: SupervisedDataset, alpha: float = LOGGER_ALPHA) -> PolicyParams:
    """Fit the factorized exponential policy by L2-regularized maximum
    likelihood (q independent logistic fits, run jointly), then multiply the
    weights by alpha (below 1 keeps the logger stochastic)."""
    if not 0.0 < alpha < math.inf:
        raise ContractViolation(f"alpha must be positive and finite, got {alpha}")
    if subset.n_examples < 1:
        raise ContractViolation("logger subset must be non-empty")
    X, Y = subset.X, subset.Y
    m, d = X.shape
    q = subset.n_labels
    c = np.full(m, -1.0 / m)  # the score coefficients of the mean negative log-likelihood

    def fun(theta_flat):
        W = theta_flat.reshape(q, d)
        U, e, softplus = logit_terms(logits_matrix(PolicyParams(W), X))
        f = -float(np.sum(log_prob(Y, U, softplus))) / m + 0.5 * _LOGGER_L2 * float(np.dot(theta_flat, theta_flat))
        return f, lambda: (score_gradient(c, Y, U, e, X) + _LOGGER_L2 * W).ravel()

    theta, _ = minimize(fun, np.zeros(q * d), max_iters=_LOGGER_MAX_ITERS, grad_tol=1e-8)
    return PolicyParams(alpha * theta.reshape(q, d))


def compute_clip_constant(propensities: np.ndarray) -> float:
    """Ratio of the 90th to the 10th percentile of the propensities
    (linear interpolation between order statistics), floored at 1.

    Both percentiles come from one partition, with the arithmetic of
    ``np.quantile(p, q, method="linear")``, so they equal its results bit
    for bit; unlike it, they never import numpy.ma."""
    p = np.asarray(propensities, dtype=np.float64).ravel()
    n = p.size
    if n < 1:
        raise ContractViolation("propensities must be non-empty")
    if not np.all((p > 0.0) & (p <= 1.0)):  # NaN too
        raise ContractViolation("propensities must lie in (0, 1]")
    picks = []  # (lower order statistic, upper one, weight of the upper)
    for q in (0.9, 0.1):
        index = (n - 1) * q  # numpy's virtual index
        i = math.floor(index)
        picks.append((i, min(i + 1, n - 1), index - i))
    ordered = np.partition(p, sorted({k for i, j, _ in picks for k in (i, j)}))
    hi, lo = (_lerp(float(ordered[i]), float(ordered[j]), gamma)
              for i, j, gamma in picks)
    return max(1.0, hi / lo)


def _lerp(a: float, b: float, gamma: float) -> float:
    """numpy's quantile interpolation: from the nearer end, as `_lerp` in
    numpy/lib/_function_base_impl.py."""
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def generate_bandit_log(logger: PolicyParams, train: SupervisedDataset,
                        delta: int, seed: int, stream: int = 0) -> BanditLog:
    """Replay the logger `delta` times over the dataset, sampling one action
    per example per pass and logging (action, propensity, scaled cost).  The
    log keeps `train.X` once, in `BanditLog`'s replay-major layout: pass d
    holds records d * n_examples to (d + 1) * n_examples - 1.

    Pass d draws its (n_examples, q) uniforms as
    ``default_rng((seed, stream, d)).random((n_examples, q))``, so a log of
    delta passes begins with the log of fewer, and the train and validation
    logs (streams 0 and 1) draw apart.  Each pass's actions are written into
    the log's (delta * n_examples, q) action matrix as they are drawn, and
    the costs count the disagreements of the 0/1 actions and labels on
    booleans, so every other (delta, n_examples, q) array it builds holds
    booleans, one byte an entry."""
    if delta < 1:
        raise ContractViolation("replay count must be at least 1")
    if seed < 0 or stream < 0:
        raise ContractViolation(
            f"seed and stream must be non-negative, got {seed} and {stream}")
    n_ex, q = train.n_examples, train.n_labels
    U, e, softplus = logit_terms(logits_matrix(logger, train.X))
    probs = _sigmoid_from(U, e)
    # passes[d, i] is the action of record (replay d, example i)
    try:
        passes = np.empty((delta, n_ex, q))
    except (MemoryError, ValueError) as exc:  # a count numpy cannot hold or allocate
        raise ContractViolation(
            f"replay count {delta}: cannot allocate its {delta} x {n_ex} x {q} "
            f"actions ({exc})") from None
    for d in range(delta):
        passes[d] = np.random.default_rng((seed, stream, d)).random((n_ex, q)) < probs
    log_p = log_prob(passes, U, softplus)  # the kernel's log pi at the logger
    # actions and labels are 0/1, so the Hamming distance counts disagreements
    raw_cost = (passes != train.Y).sum(axis=2).ravel()
    costs = raw_cost * (1.0 / q) + _COST_OFFSET
    clip_m = compute_clip_constant(np.exp(log_p))
    return BanditLog(train.X, passes.reshape(-1, q), log_p, costs, clip_m)


def evaluate_policy(params: PolicyParams, test: SupervisedDataset) -> Tuple[float, float]:
    """Mean test Hamming losses from one logits product: (the exact expected
    loss under the stochastic policy, the loss of its greedy decoding)."""
    if test.n_examples < 1:
        raise ContractViolation("test set must be non-empty")
    U = logits_matrix(params, test.X)
    S = sigmoid(U)
    expected = (test.Y * (1.0 - S) + (1.0 - test.Y) * S).sum(axis=1).mean()
    greedy = np.abs((U > 0.0) - test.Y).sum(axis=1).mean()
    return float(expected), float(greedy)


# ---------------------------------------------------------------------------
# Bandit log serialization (CSV plus key-value sidecar)
# ---------------------------------------------------------------------------

_LOG_HEADER = "record_id,replay,example_id,action_bits,propensity,cost_raw,cost_scaled"


def save_bandit_log(log: BanditLog, csv_path, meta_path, seed: int) -> None:
    """CSV with one row per record plus a sidecar `key = value` metadata file
    (clip constant, cost map, the generating seed, replay and record counts)."""
    n, q = log.n, log.Y.shape[1]
    scale = 1.0 / q
    raw = (log.costs - _COST_OFFSET) / scale
    # a cost on generate_bandit_log's map is written as its Hamming distance
    hamming = np.clip(np.rint(raw), 0, q)
    raw = np.where(hamming * scale + _COST_OFFSET == log.costs, hamming, raw)
    p = np.exp(log.log_propensities)
    # the actions are 0/1 (BanditLog checks), so a row's ASCII digits are its bits
    bits = (log.Y.astype(np.uint8) + ord("0")).view(f"S{q}")
    records = zip(range(n), log.replay_ids.tolist(), log.example_ids.tolist(),
                  bits.ravel().tolist(), p.tolist(), raw.tolist(), log.costs.tolist())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(_LOG_HEADER + "\n")
        fh.writelines(f"{i},{r},{e},{b.decode()},{pi!r},{ri!r},{c!r}\n"
                      for i, r, e, b, pi, ri, c in records)
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"clip_m = {log.clip_m!r}\n")
        fh.write(f"cost_scale = {scale!r}\n")
        fh.write(f"cost_offset = {_COST_OFFSET!r}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"delta = {log.delta}\n")
        fh.write(f"n_records = {n}\n")
