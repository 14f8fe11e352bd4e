"""Structured tensor completion for multi-environment linear regression."""

from .baselines import maximin, meta_lm_star, pooled_gram, projected_fits
from .completion import (CompletionModel, diagnose_generalizability,
                         estimate_loading, fit_tensordg, load_model,
                         save_model)
from .datasets import IngestResult, ingest_csv, write_csv
from .errors import (ConditioningError, ConvergenceError, DimensionError,
                     NonFiniteError)
from .experiments import (CSV_HEADER, ExperimentConfig, MetricsRecord,
                          run_experiment, summarize, write_metrics_csv)
from .highdim import (choose_lambda, fit_highdim, group_lasso,
                      group_lasso_kkt, select_support)
from .metrics import adge, al2e, tle
from .patterns import (ObservationPattern, build_pattern, load_pattern,
                       pattern_from_config, pattern_to_config, save_pattern)
from .regression import (GroupedDataset, GroupedStatistics, GroupEstimates,
                         GroupFit, fit_all, ols_fit, ols_fits)
from .simulate import (Scenario, ScenarioConfig, default_pattern,
                       generate_tensor, make_scenario)
from .spectral import ModeSpectrum, arm_blocks, mode_gram, spectral_step
from .transfer import (TransferResult, cross_validate_lambda,
                       default_lambda, lasso_kkt, lasso_offset, tensortl)
from .tensor import (DenseTensor, load_tensor, matricize, mode_product,
                     save_tensor, tucker_assemble)

__all__ = [name for name in dir() if not name.startswith("_")]
