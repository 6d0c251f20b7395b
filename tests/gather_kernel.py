"""The objective kernel as written before the replay-major fold: logits,
softplus and sigmoid once per example, gathered per record through
log.example_ids, and the gradient's per-example rows summed by one
np.bincount per label.  It reads records in any order, so it pins the folded
kernel in `objectives.RiskReport` bit for bit on replay-major logs."""

from types import SimpleNamespace

import numpy as np

from dro_crm.objectives import _RATIO_LOG_CAP
from dro_crm.policy import logit_terms, logits_matrix


def gather_report(params, log, rule, hyper):
    """The value path's arrays, the rule's results and `gradient()`, under
    the attribute names of `RiskReport`."""
    U, e, softplus = logit_terms(logits_matrix(params, log.X))
    sig = np.maximum(e, U >= 0.0) / (1.0 + e)
    ids = log.example_ids
    log_pi = (np.einsum("ij,ij->i", log.Y, np.take(U, ids, axis=0))
              - np.take(softplus.sum(axis=1), ids))
    r = SimpleNamespace()
    r.ratio = np.exp(np.minimum(log_pi - log.log_propensities, _RATIO_LOG_CAP))
    r.clipped = r.ratio >= log.clip_m
    r.losses = log.costs * np.minimum(r.ratio, log.clip_m)
    r.risk, r.weights, r.gamma_used = rule(r.losses, hyper)

    def gradient():
        n_ex, q = sig.shape
        c = r.weights * np.where(r.clipped, 0.0, log.costs * r.ratio)
        R = np.empty((n_ex, q))
        for label in range(q):
            R[:, label] = np.bincount(ids, weights=c * log.Y[:, label], minlength=n_ex)
        R -= np.bincount(ids, weights=c, minlength=n_ex)[:, None] * sig
        return R.T @ log.X

    r.gradient = gradient
    return r
