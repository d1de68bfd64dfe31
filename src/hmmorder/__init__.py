"""Order selection for nonparametric hidden Markov models.

The estimator thresholds the tail statistics of the singular values of
a kernel-smoothed pair operator, computed exactly from Gram matrices of
the smoothing kernels.  The package also ships the simulator, a
spectral baseline and a replicated experiment harness.
"""

from .estimator import (
    OrderEstimate,
    ThresholdRule,
    consistency_schedule,
    estimate_order,
    estimate_order_max_univariate,
    practical_threshold,
    tail_stats,
    theoretical_threshold,
)
from .gram import (
    PairSelectors,
    SingularSpectrum,
    build_gram,
    build_selectors,
    build_shifted_product,
    estimate_operator_matrix,
    psd_sqrt,
    singular_spectrum,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    emit_table,
    load_config,
    run_experiment,
    run_method_comparison,
    success_frequencies,
    timing_report,
)
from .kernels import (
    BandwidthRule,
    CustomKernel,
    KernelSpec,
    cross_gram,
    cross_gram_matrix,
    kernel_eval,
    kernel_l2_norm_sq,
    select_bandwidth,
    silverman_kappa,
)
from .quadrature import (
    GaussianComponent,
    GaussianPairMixture,
    GridOperator,
    empirical_grid_operator,
    quadrature_svd_oracle,
    smoothing_bias_profile,
)
from .series import ObservedSeries
from .seriesio import (
    DatasetDescriptor,
    export_diagnostics,
    load_series,
    save_series,
)
from .simulate import (
    Beta,
    GaussianLoc,
    HmmSpec,
    ShiftNoise,
    VonMisesLoc,
    get_scenario,
    make_transition_nu,
    paper_scenarios,
    shift_scenario,
    simulate,
    stationary_distribution,
)
from .spectral import (
    SpectralConfig,
    SpectralResult,
    build_nhat,
    scale_to_unit,
    spectral_order,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthRule",
    "Beta",
    "CustomKernel",
    "DatasetDescriptor",
    "ExperimentConfig",
    "GaussianComponent",
    "GaussianLoc",
    "GaussianPairMixture",
    "GridOperator",
    "HmmSpec",
    "KernelSpec",
    "ObservedSeries",
    "OrderEstimate",
    "PairSelectors",
    "ResultTable",
    "ShiftNoise",
    "SingularSpectrum",
    "SpectralConfig",
    "SpectralResult",
    "ThresholdRule",
    "VonMisesLoc",
    "build_gram",
    "build_nhat",
    "build_selectors",
    "build_shifted_product",
    "consistency_schedule",
    "cross_gram",
    "cross_gram_matrix",
    "emit_table",
    "empirical_grid_operator",
    "estimate_operator_matrix",
    "estimate_order",
    "estimate_order_max_univariate",
    "export_diagnostics",
    "get_scenario",
    "kernel_eval",
    "kernel_l2_norm_sq",
    "load_config",
    "load_series",
    "make_transition_nu",
    "paper_scenarios",
    "practical_threshold",
    "psd_sqrt",
    "quadrature_svd_oracle",
    "run_experiment",
    "run_method_comparison",
    "save_series",
    "scale_to_unit",
    "select_bandwidth",
    "shift_scenario",
    "silverman_kappa",
    "simulate",
    "singular_spectrum",
    "smoothing_bias_profile",
    "spectral_order",
    "stationary_distribution",
    "success_frequencies",
    "tail_stats",
    "theoretical_threshold",
    "timing_report",
]
