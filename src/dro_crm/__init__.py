"""Counterfactual risk minimization from logged bandit feedback, with
chi-square and Kullback-Leibler distributionally robust objectives."""

__version__ = "0.1.0"

from .divergence import boltzmann_weights, gamma_star_approx, robust_risk_chi2
from .errors import ContractViolation, DataFormatError
from .objectives import (BanditLog, RiskReport, evaluate, ips_risk,
                         make_objective)
from .optim import IterRecord, OptimTrace, minimize
from .policy import PolicyParams
from .bandit import (SupervisedDataset, append_bias, compute_clip_constant,
                     evaluate_policy, generate_bandit_log,
                     load_multilabel_svmlight, save_bandit_log,
                     save_multilabel_svmlight, split_dataset,
                     synthetic_multilabel, train_logger)
from .bench import (ALGORITHMS, ExperimentConfig, ResultRow, TTestResult,
                    default_grids, emit_results, paired_t_test_one_tailed,
                    replay_sweep, run_experiment, run_single)

from types import ModuleType as _ModuleType

# The API names; the submodules imported above are attributes too, not exports.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
