"""Counterfactual risk minimization from logged bandit feedback, with
chi-square and Kullback-Leibler distributionally robust objectives."""

__version__ = "0.1.0"

from .divergence import (DivergenceKind, DualSolution, FixedPointResult,
                         GammaApprox, LossSample, boltzmann_weights,
                         chi2_quantile_1dof, chi2_radius, divergence,
                         gamma_star_approx, kl_gamma_fixed_point,
                         phi_conjugate, phi_value, robust_risk_chi2,
                         robust_risk_kl_dual, robust_risk_kl_fixed_gamma)
from .errors import ContractViolation, DataFormatError
from .objectives import (BanditLog, CostScaling, RiskReport,
                         akl_crm_objective, cips_risk, ips_risk,
                         kl_crm_objective, make_objective, poem_objective,
                         sample_losses)
from .optim import IterRecord, OptimConfig, OptimTrace, minimize
from .policy import PolicyParams
from .bandit import (LoggerSpec, SplitSpec, SupervisedDataset, append_bias,
                     compute_clip_constant, evaluate_policy,
                     generate_bandit_log, ips_validation_score,
                     load_bandit_log, load_multilabel_svmlight,
                     save_bandit_log, save_multilabel_svmlight, split_dataset,
                     synthetic_multilabel, train_logger)
from .bench import (ALGORITHMS, ExperimentConfig, ResultRow, TTestResult,
                    default_grids, emit_results, paired_t_test_one_tailed,
                    replay_sweep, run_experiment, run_single)

__all__ = [name for name in dir() if not name.startswith("_")]
