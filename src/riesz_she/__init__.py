"""Monte Carlo laboratory for spatial averages of the stochastic heat
equation with Riesz-correlated multiplicative noise."""

__version__ = "0.1.0"

from .noise import (Lattice, RieszSpec, SpatialField, SpectralCovariance,
                    build_embedding, cell_self_energy, sample_slice)
from .engine import (DegenerateSigmaError, FieldState, InitialCondition,
                     InstabilityError, NonlinearitySpec, heat_semigroup,
                     mean_field, simulate, step)
from .observables import (Region, estimate_eta, k_beta, limit_covariance,
                          region_average)
from .stats import (StatsReport, correlation_decay_check,
                    covariance_diagnostic, functional_cov_check,
                    increment_moment_fit, ks_distance, lemma31_check,
                    rate_fit, scaling_fit, standardize)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .runner import ResultSet, emit_results, run_experiment
