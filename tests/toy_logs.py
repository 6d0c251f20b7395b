"""Small bandit logs built directly from arrays, for the objective tests."""

import numpy as np

from dro_crm import BanditLog, PolicyParams
from dro_crm.policy import log_prob_matrix, logits_matrix, sigmoid


def sample_log(rng, n=8, q=2, d=3, clip_m=50.0, cost_low=-1.0, cost_high=0.0):
    """(log, logger): n records logged by a random logger.  For each record in
    turn it draws the features, q uniforms for the action bits (bit l is 1
    when its uniform falls below sigmoid(u_l)) and the cost, in that order."""
    logger = PolicyParams(0.5 * rng.normal(size=(q, d)))
    X, Y, costs = np.empty((n, d)), np.empty((n, q)), np.empty(n)
    for i in range(n):
        X[i] = rng.normal(size=d)
        Y[i] = rng.random(q) < sigmoid(logits_matrix(logger, X[i:i + 1]))[0]
        costs[i] = rng.uniform(cost_low, cost_high)
    return BanditLog(X, Y, log_prob_matrix(logger, X, Y), costs, clip_m), logger


def one_feature_log(x, y, propensities, costs, clip_m):
    """Log of records with one feature each: feature values `x`, action bits
    `y` (one row per record), propensities and costs."""
    x = np.asarray(x, dtype=np.float64)
    return BanditLog(x.reshape(-1, 1), np.asarray(y, dtype=np.float64).reshape(x.size, -1),
                     np.log(np.asarray(propensities, dtype=np.float64)),
                     np.asarray(costs, dtype=np.float64), clip_m)
