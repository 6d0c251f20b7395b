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

Each record (replay d, example i) samples its action from one SeedSequence
stream of its own, keyed by (seed, stream, d, i).  `record_uniforms`
reproduces those streams for a whole block of records in one vectorized
pass, bit for bit; a test checks it against numpy's `default_rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._streams import record_uniforms
from .errors import ContractViolation, DataFormatError, utf8_lines
from .objectives import BanditLog
from .optim import OptimConfig, minimize
from .policy import (PolicyParams, clamp_logits, log1p_exp, logits_matrix,
                     sigmoid)


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

def _parse_svmlight(path) -> List[tuple]:
    """(label ids, [(feature index - 1, value), ...]) for each example line."""
    rows = []
    for lineno, raw in utf8_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if ":" in tokens[0]:
            labels, feat_tokens = [], tokens
        else:
            label_tok, feat_tokens = tokens[0], tokens[1:]
            try:
                labels = [int(t) for t in label_tok.split(",") if t != ""]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad label list {label_tok!r}") from exc
        feats = []
        for tok in feat_tokens:
            try:
                idx_s, val_s = tok.split(":")
                idx, val = int(idx_s), float(val_s)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
            if idx < 1:
                raise DataFormatError(f"{path}:{lineno}: feature indices are 1-based")
            if not math.isfinite(val):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            feats.append((idx - 1, val))
        rows.append((labels, feats))
    if not rows:
        raise DataFormatError(f"{path}: no examples")
    return rows


def load_multilabel_svmlight(*paths, n_features: Optional[int] = None
                             ) -> List[SupervisedDataset]:
    """One dataset per file, read from lines "l1,l2,... idx:val idx:val ...".

    The files are read as one collection, such as a train and a test split.
    Feature indices are 1-based.  Label ids may be 0- or 1-based: the first
    file decides for all of them (a 0 anywhere in it means 0-based), and
    labels are remapped to 0..q-1.  Empty label lists yield all-zero rows.
    Every dataset gets the label count and the feature width of the whole
    collection, zero-padded where a file never uses the top ids;
    `n_features` sets the width instead, and a larger index is an error.
    """
    shift, arrays = None, []
    for path in paths:
        rows = _parse_svmlight(path)
        ids = [l for labels, _ in rows for l in labels]
        if shift is None:  # the first file decides
            shift = 1 if min(ids, default=0) > 0 else 0
        q = max(ids, default=shift - 1) - shift + 1
        d = n_features if n_features is not None else 1 + max(
            (i for _, feats in rows for i, _ in feats), default=-1)
        X, Y = np.zeros((len(rows), d)), np.zeros((len(rows), q))
        for r, (labels, feats) in enumerate(rows):
            for lab in labels:
                if lab < shift:
                    raise DataFormatError(f"{path}: label {lab} below the first id {shift}")
                Y[r, lab - shift] = 1.0
            for i, v in feats:
                if i >= d:
                    raise DataFormatError(f"{path}: feature index {i + 1} exceeds the width {d}")
                X[r, i] = v
        arrays.append((X, Y))
        del rows  # one file's tokens at a time bounds the parse's memory
    d = max(X.shape[1] for X, _ in arrays)
    q = max(Y.shape[1] for _, Y in arrays)
    return [SupervisedDataset(np.pad(X, [(0, 0), (0, d - X.shape[1])]),
                              np.pad(Y, [(0, 0), (0, q - Y.shape[1])]))
            for X, Y in arrays]


def save_multilabel_svmlight(ds: SupervisedDataset, path) -> None:
    """Write the dataset back out (0-based labels, 1-based feature indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(ds.n_examples):
            labels = ",".join(str(l) for l in np.flatnonzero(ds.Y[r]))
            feats = " ".join(f"{i + 1}:{float(ds.X[r, i])!r}"
                             for i in range(ds.n_features) if ds.X[r, i] != 0.0)
            fh.write(f"{labels} {feats}".rstrip() + "\n")


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

    def fun(theta_flat):
        W = theta_flat.reshape(q, d)
        U = X @ W.T
        f = float(np.sum(log1p_exp(U) - Y * U)) / m + 0.5 * _LOGGER_L2 * float(theta_flat @ theta_flat)
        G = (sigmoid(U) - Y).T @ X / m + _LOGGER_L2 * W
        return f, G.ravel()

    cfg = OptimConfig(max_iters=_LOGGER_MAX_ITERS, grad_tol=1e-8)
    theta, _ = minimize(fun, np.zeros(q * d), cfg)
    return PolicyParams(alpha * theta.reshape(q, d))


def compute_clip_constant(propensities: np.ndarray) -> float:
    """Ratio of the 90th to the 10th percentile of the propensities
    (linear interpolation between order statistics), floored at 1."""
    p = np.asarray(propensities, dtype=np.float64)
    if p.size < 1:
        raise ContractViolation("propensities must be non-empty")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ContractViolation("propensities must lie in (0, 1]")
    hi = float(np.quantile(p, 0.9, method="linear"))
    lo = float(np.quantile(p, 0.1, method="linear"))
    return max(1.0, hi / lo)


# Records drawn per block: bounds the stream helper's temporaries (a few
# uint64 columns of this length) so generation does not raise peak memory.
_BLOCK_RECORDS = 4096


def generate_bandit_log(logger: PolicyParams, train: SupervisedDataset,
                        delta: int, seed: int, stream: int = 0) -> BanditLog:
    """Replay the logger `delta` times over the dataset, sampling one action
    per example per pass and logging (action, propensity, scaled cost).  The
    log keeps `train.X` once; records point into it by example id.

    Record (replay d, example i) draws its q uniforms from its own stream,
    ``default_rng(SeedSequence((seed, stream, d, i))).random(q)``, so a record
    does not depend on how generation is ordered or partitioned across
    workers."""
    if delta < 1:
        raise ContractViolation("replay count must be at least 1")
    n_ex, q = train.n_examples, train.n_labels
    n = delta * n_ex
    U = clamp_logits(logits_matrix(logger, train.X))
    probs = sigmoid(U)

    replay_ids = np.repeat(np.arange(delta, dtype=np.int64), n_ex)
    example_ids = np.tile(np.arange(n_ex, dtype=np.int64), delta)
    Y = np.empty((n, q))
    for start in range(0, n, _BLOCK_RECORDS):
        block = slice(start, start + _BLOCK_RECORDS)
        ids = example_ids[block]
        Y[block] = record_uniforms(seed, stream, replay_ids[block], ids, q) < probs[ids]

    log_p = (Y * U[example_ids] - log1p_exp(U)[example_ids]).sum(axis=1)
    raw_cost = np.abs(Y - train.Y[example_ids]).sum(axis=1)
    costs = raw_cost * (1.0 / q) + _COST_OFFSET
    clip_m = compute_clip_constant(np.exp(log_p))
    return BanditLog(train.X, Y, log_p, costs, clip_m,
                     replay_ids=replay_ids, example_ids=example_ids)


def evaluate_policy(params: PolicyParams, test: SupervisedDataset, mode: str) -> float:
    """Mean test loss: exact expected Hamming under the stochastic policy
    ("expected") or the Hamming loss of its greedy decoding ("greedy")."""
    U = logits_matrix(params, test.X)
    if mode == "expected":
        S = sigmoid(U)
        per = (test.Y * (1.0 - S) + (1.0 - test.Y) * S).sum(axis=1)
        return float(per.mean())
    if mode == "greedy":
        Yg = (U > 0.0).astype(np.float64)
        return float(np.abs(Yg - test.Y).sum(axis=1).mean())
    raise ContractViolation(f"unknown evaluation mode {mode!r}")


# ---------------------------------------------------------------------------
# Bandit log serialization (CSV plus key-value sidecar)
# ---------------------------------------------------------------------------

_LOG_HEADER = "record_id,replay,example_id,action_bits,propensity,cost_raw,cost_scaled"


def save_bandit_log(log: BanditLog, csv_path, meta_path, seed: int) -> None:
    """CSV with one row per record plus a sidecar `key = value` metadata file
    (clip constant, cost map, the generating seed, replay and record counts)."""
    n = log.n
    replay = log.replay_ids if log.replay_ids is not None else np.zeros(n, dtype=np.int64)
    example = log.example_ids
    scale = 1.0 / log.Y.shape[1]
    raw = (log.costs - _COST_OFFSET) / scale
    p = np.exp(log.log_propensities)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(_LOG_HEADER + "\n")
        for i in range(n):
            bits = "".join(str(int(b)) for b in log.Y[i])
            fh.write(f"{i},{replay[i]},{example[i]},{bits},{float(p[i])!r},"
                     f"{float(raw[i])!r},{float(log.costs[i])!r}\n")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"clip_m = {log.clip_m!r}\n")
        fh.write(f"cost_scale = {scale!r}\n")
        fh.write(f"cost_offset = {_COST_OFFSET!r}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"delta = {int(replay.max()) + 1}\n")
        fh.write(f"n_records = {n}\n")


def load_bandit_log(csv_path, meta_path, dataset: SupervisedDataset) -> BanditLog:
    """Rebuild a log from its CSV and sidecar; the log keeps `dataset.X` and
    the stored example ids.  Every record is checked against the dataset and
    the sidecar: replay ids in 0..delta-1, example ids in range, q-bit 0/1
    actions, propensities in (0, 1] and finite costs; the sidecar's cost map
    and record count must match."""
    meta = {}
    for _, line in utf8_lines(meta_path):
        if "=" in line:
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
    n_ex, q = dataset.n_examples, dataset.n_labels
    lines = utf8_lines(csv_path)
    header = next(lines, (1, ""))[1].strip()
    if header != _LOG_HEADER:
        raise DataFormatError(f"{csv_path}: unexpected header {header!r}")
    try:
        clip_m = float(meta["clip_m"])
        cost_map = (float(meta["cost_scale"]), float(meta["cost_offset"]))
        n_records, delta = int(meta["n_records"]), int(meta["delta"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{meta_path}: missing or malformed entry ({exc})") from exc
    if cost_map != (1.0 / q, _COST_OFFSET):
        raise DataFormatError(f"{meta_path}: cost map {cost_map} is not hamming / {q} - 1")
    replay, example, Y, p, costs = [], [], [], [], []
    for lineno, line in lines:
        where = f"{csv_path}:{lineno}"
        parts = line.strip().split(",")
        if len(parts) != 7:
            raise DataFormatError(f"{where}: expected 7 fields")
        try:
            r, e, prop, cost = int(parts[1]), int(parts[2]), float(parts[4]), float(parts[6])
        except ValueError as exc:
            raise DataFormatError(f"{where}: bad number ({exc})") from exc
        bits = parts[3]
        if not 0 <= r < delta:
            raise DataFormatError(f"{where}: replay id {r} outside 0..{delta - 1}")
        if not 0 <= e < n_ex:
            raise DataFormatError(f"{where}: example id {e} outside 0..{n_ex - 1}")
        if len(bits) != q or set(bits) - {"0", "1"}:
            raise DataFormatError(f"{where}: action {bits!r} is not {q} bits of 0/1")
        if not 0.0 < prop <= 1.0:
            raise DataFormatError(f"{where}: propensity {prop!r} outside (0, 1]")
        if not math.isfinite(cost):
            raise DataFormatError(f"{where}: non-finite cost {cost!r}")
        replay.append(r)
        example.append(e)
        Y.append([float(c) for c in bits])
        p.append(prop)
        costs.append(cost)
    if not Y:
        raise DataFormatError(f"{csv_path}: no records")
    if n_records != len(Y):
        raise DataFormatError(
            f"{meta_path}: n_records = {n_records}, but {csv_path} holds {len(Y)} records")
    try:
        return BanditLog(dataset.X, np.array(Y), np.log(np.array(p)), np.array(costs),
                         clip_m, replay_ids=np.array(replay, dtype=np.int64),
                         example_ids=np.array(example, dtype=np.int64))
    except ContractViolation as exc:
        raise DataFormatError(f"{meta_path}: {exc}") from exc
