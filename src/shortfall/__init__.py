"""Robust nonparametric expected-shortfall estimation and benchmarks."""

from . import corrupt, dist, estim, functionals, mc, report, rng
from .dist import (
    AR1,
    IID,
    AtomMix,
    Exponential,
    Logistic,
    Lognormal,
    Normal,
    Pareto,
    ScaledBernoulli,
    StudentT,
    ar1_path,
    sample,
)
from .errors import (
    InfiniteShortfallError,
    NoDensityError,
    ParameterError,
    QuadratureError,
    ShortfallError,
)
from .estim import (
    EstimatorConfig,
    block_estimates,
    interp_quantile,
    median_of_blocks,
    plugin_es,
    suggested_block_size,
    trimmed_es,
    truncated_es,
)
from .functionals import (
    VarianceResult,
    es_by_distortion,
    es_by_quadrature,
    es_exact,
    lipschitz_D,
    sigma_es,
)
from .mc import (
    DeviationCurve,
    ExperimentSpec,
    HistogramResult,
    deviation_curves,
    deviation_probability,
    histogram,
    longrun_sigma_oracle,
    run_trials,
)

__version__ = "0.1.0"
