"""Supervised-to-bandit conversion and exact policy evaluation.

A multilabel dataset (features plus ground-truth label bit-vectors) is split
into train/valid pools; a stochastic logging policy is fitted by regularized
maximum likelihood on a small fraction of the train pool, then replayed over
the pool `delta` times, each pass sampling an action per example, recording
its probability, and charging the Hamming distance to the ground truth as the
cost.  Costs are rescaled to [-1, 0] (cost = hamming / q - 1) before logging;
the affine map is stored in the log so raw values remain recoverable.  The
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
from typing import Optional, Tuple

import numpy as np

from ._streams import record_uniforms
from .errors import ContractViolation, DataFormatError
from .objectives import BanditLog, CostScaling, ips_risk
from .optim import OptimConfig, minimize
from .policy import (PolicyParams, clamp_logits, log1p_exp, logits_matrix,
                     sigmoid)


@dataclass
class SupervisedDataset:
    """Dense multilabel dataset: X (N, D) features, Y (N, q) 0/1 labels.
    `label_base` records the label-id convention of the source file (0 or 1)."""

    X: np.ndarray
    Y: np.ndarray
    has_bias: bool = False
    label_base: int = 0

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
        return SupervisedDataset(self.X[idx], self.Y[idx], self.has_bias, self.label_base)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.75
    valid_frac: float = 0.25
    logger_frac: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("train_frac", "valid_frac", "logger_frac"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ContractViolation(f"{name} must lie in (0, 1)")
        if abs(self.train_frac + self.valid_frac - 1.0) > 1e-9:
            raise ContractViolation("train and valid fractions must sum to 1")
        if self.seed < 0:
            raise ContractViolation(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class LoggerSpec:
    l2: float = 1e-4           # L2 strength of the maximum-likelihood fit
    alpha: float = 0.5         # sharpness multiplier applied to the fitted weights
    max_iters: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ContractViolation(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.l2 < math.inf:
            raise ContractViolation(f"l2 must be nonnegative and finite, got {self.l2}")


# ---------------------------------------------------------------------------
# svmlight-style multilabel text format
# ---------------------------------------------------------------------------

def load_multilabel_svmlight(path, add_bias: bool = True,
                             n_features: Optional[int] = None,
                             n_labels: Optional[int] = None,
                             zero_based: Optional[bool] = None) -> SupervisedDataset:
    """Parse lines of the form "l1,l2,... idx:val idx:val ...".

    Feature indices are 1-based.  Label ids may be 0- or 1-based; the
    convention is auto-detected (a 0 anywhere means 0-based) unless forced by
    `zero_based`, and labels are remapped to 0..q-1.  Empty label lists yield
    all-zero rows.  Dimensions are inferred from the global maxima unless
    given explicitly.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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

    all_labels = [l for labels, _ in rows for l in labels]
    if zero_based is None:
        zero_based = (min(all_labels) == 0) if all_labels else True
    shift = 0 if zero_based else 1
    max_label = max(all_labels) - shift if all_labels else -1
    q = n_labels if n_labels is not None else max_label + 1
    max_feat = max((i for _, feats in rows for i, _ in feats), default=-1)
    d = n_features if n_features is not None else max_feat + 1

    X = np.zeros((len(rows), d + (1 if add_bias else 0)))
    Y = np.zeros((len(rows), q))
    for r, (labels, feats) in enumerate(rows):
        for lab in labels:
            lab -= shift
            if not 0 <= lab < q:
                raise DataFormatError(f"{path}: label {lab + shift} outside 0..{q - 1 + shift}")
            Y[r, lab] = 1.0
        for i, v in feats:
            if i >= d:
                raise DataFormatError(f"{path}: feature index {i + 1} exceeds declared dim")
            X[r, i] = v
    if add_bias:
        X[:, -1] = 1.0
    return SupervisedDataset(X, Y, has_bias=add_bias, label_base=shift)


def save_multilabel_svmlight(ds: SupervisedDataset, path) -> None:
    """Write the dataset back out (0-based labels, 1-based feature indices).
    The bias column, when present, is not written."""
    d = ds.n_features - (1 if ds.has_bias else 0)
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(ds.n_examples):
            labels = ",".join(str(l) for l in np.flatnonzero(ds.Y[r]))
            feats = " ".join(f"{i + 1}:{float(ds.X[r, i])!r}"
                             for i in range(d) if ds.X[r, i] != 0.0)
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
    return SupervisedDataset(X, Y, has_bias=False)


def append_bias(ds: SupervisedDataset) -> SupervisedDataset:
    if ds.has_bias:
        return ds
    X = np.hstack([ds.X, np.ones((ds.n_examples, 1))])
    return SupervisedDataset(X, ds.Y.copy(), has_bias=True, label_base=ds.label_base)


# ---------------------------------------------------------------------------
# Splitting, logger training, log generation
# ---------------------------------------------------------------------------

def split_dataset(ds: SupervisedDataset, spec: SplitSpec
                  ) -> Tuple[SupervisedDataset, SupervisedDataset, SupervisedDataset]:
    """Deterministic shuffle by seed into (train, valid, logger_subset); the
    logger subset is the leading ceil(logger_frac * |train|) of train."""
    perm = np.random.default_rng(spec.seed).permutation(ds.n_examples)
    n_train = int(spec.train_frac * ds.n_examples)
    train_idx, valid_idx = perm[:n_train], perm[n_train:]
    n_logger = max(1, math.ceil(spec.logger_frac * n_train))
    return ds.subset(train_idx), ds.subset(valid_idx), ds.subset(train_idx[:n_logger])


def train_logger(subset: SupervisedDataset, spec: LoggerSpec) -> PolicyParams:
    """Fit the factorized exponential policy by L2-regularized maximum
    likelihood (q independent logistic fits, run jointly), then multiply the
    weights by alpha to keep the logger stochastic."""
    if subset.n_examples < 1:
        raise ContractViolation("logger subset must be non-empty")
    X, Y = subset.X, subset.Y
    m, d = X.shape
    q = subset.n_labels

    def fun(theta_flat):
        W = theta_flat.reshape(q, d)
        U = X @ W.T
        f = float(np.sum(log1p_exp(U) - Y * U)) / m + 0.5 * spec.l2 * float(theta_flat @ theta_flat)
        G = (sigmoid(U) - Y).T @ X / m + spec.l2 * W
        return f, G.ravel()

    cfg = OptimConfig(max_iters=spec.max_iters, grad_tol=1e-8, box_bound=None)
    theta, _ = minimize(fun, np.zeros(q * d), cfg)
    return PolicyParams(spec.alpha * theta.reshape(q, d))


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
    scaling = CostScaling(scale=1.0 / q, offset=-1.0)
    costs = raw_cost * scaling.scale + scaling.offset
    clip_m = compute_clip_constant(np.exp(log_p))
    return BanditLog(train.X, Y, log_p, costs, clip_m, scaling,
                     replay_ids=replay_ids, example_ids=example_ids,
                     seed=seed, delta=delta)


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


def ips_validation_score(params: PolicyParams, valid_log: BanditLog) -> float:
    """Unclipped importance-weighted mean cost on the validation log."""
    return ips_risk(params, valid_log)


# ---------------------------------------------------------------------------
# Bandit log serialization (CSV plus key-value sidecar)
# ---------------------------------------------------------------------------

_LOG_HEADER = "record_id,replay,example_id,action_bits,propensity,cost_raw,cost_scaled"


def save_bandit_log(log: BanditLog, csv_path, meta_path) -> None:
    """CSV with one row per record plus a sidecar `key = value` metadata file
    (clip constant, cost scaling, seed, replay count)."""
    n = log.n
    replay = log.replay_ids if log.replay_ids is not None else np.zeros(n, dtype=np.int64)
    example = log.example_ids
    raw = log.cost_scaling.to_raw(log.costs)
    p = np.exp(log.log_propensities)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(_LOG_HEADER + "\n")
        for i in range(n):
            bits = "".join(str(int(b)) for b in log.Y[i])
            fh.write(f"{i},{replay[i]},{example[i]},{bits},{float(p[i])!r},"
                     f"{float(raw[i])!r},{float(log.costs[i])!r}\n")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"clip_m = {log.clip_m!r}\n")
        fh.write(f"cost_scale = {log.cost_scaling.scale!r}\n")
        fh.write(f"cost_offset = {log.cost_scaling.offset!r}\n")
        fh.write(f"seed = {log.seed if log.seed is not None else ''}\n")
        fh.write(f"delta = {log.delta if log.delta is not None else ''}\n")
        fh.write(f"n_records = {n}\n")


def load_bandit_log(csv_path, meta_path, dataset: SupervisedDataset) -> BanditLog:
    """Rebuild a log from its CSV and sidecar; the log keeps `dataset.X` and
    the stored example ids.  Every record is checked against the dataset:
    example ids in range, q-bit 0/1 actions, propensities in (0, 1] and
    finite costs."""
    meta = {}
    with open(meta_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                meta[k.strip()] = v.strip()
    n_ex, q = dataset.n_examples, dataset.n_labels
    replay, example, Y, p, costs = [], [], [], [], []
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _LOG_HEADER:
            raise DataFormatError(f"{csv_path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            where = f"{csv_path}:{lineno}"
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise DataFormatError(f"{where}: expected 7 fields")
            try:
                r, e, prop, cost = int(parts[1]), int(parts[2]), float(parts[4]), float(parts[6])
            except ValueError as exc:
                raise DataFormatError(f"{where}: bad number ({exc})") from exc
            bits = parts[3]
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
    try:
        clip_m = float(meta["clip_m"])
        scaling = CostScaling(scale=float(meta["cost_scale"]),
                              offset=float(meta["cost_offset"]))
        seed = int(meta["seed"]) if meta.get("seed") else None
        delta = int(meta["delta"]) if meta.get("delta") else None
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{meta_path}: missing or malformed entry ({exc})") from exc
    return BanditLog(dataset.X, np.array(Y), np.log(np.array(p)), np.array(costs),
                     clip_m, scaling, replay_ids=np.array(replay, dtype=np.int64),
                     example_ids=np.array(example, dtype=np.int64),
                     seed=seed, delta=delta)
