"""Communication-efficient surrogate-likelihood inference over sharded data.

One machine's loss, tilted by a single round of gradient communication,
stands in for the pooled loss; estimation, confidence intervals, sparse
fits and posterior sampling then run locally. The cluster object meters
every vector that crosses a machine boundary.
"""

from .bayes import (Chain, CslBayesResult, McmcSettings, Prior, full_log_posterior,
                    marginal_l1, metropolis, run_csl_bayes, surrogate_log_posterior)
from .cluster import CommLedger, Cluster, split_rows
from .datagen import derive_rng, gen_logistic, gen_sparse_linear
from .errors import (ConfigError, CslError, DataError, NonConvergenceError,
                     SingularHessianError, WorkerError)
from .estimators import (IleaTrajectory, averaging_estimator, ilea, minimize_surrogate,
                         one_step_update, subsample_estimator)
from .experiments import (ExperimentConfig, RunResult, config_from_mapping, desk_presets,
                          paper_presets, parse_config_text, report, results_hash,
                          run_experiment)
from .inference import (ConfidenceIntervals, confidence_intervals, normal_quantile,
                        sandwich, sigma_cross, sigma_global, sigma_local)
from .losses import DataShard, LossModel, ShardLoss, shard_to_csv
from .solvers import (L1Settings, LassoFit, SolverSettings, SparseEstimate, fista_l1,
                      lambda_heuristic, local_fit, newton_minimize, run_fit, soft_threshold)
from .sparse import averaging_lasso, csl_lasso, iterative_csl_lasso, local_lasso
from .surrogate import SurrogateLoss, build_surrogate

__version__ = "0.1.0"
