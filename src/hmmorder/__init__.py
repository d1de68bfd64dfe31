"""Order selection for nonparametric hidden Markov models.

The estimator thresholds the tail statistics of the singular values of
a kernel-smoothed pair operator, computed exactly from Gram matrices of
the smoothing kernels.  The package also ships the simulator, a
spectral baseline and a replicated experiment harness.

Only the entry points are exported here.  The layers behind them (the
Gram pipeline in ``hmmorder.gram``, the kernel closed forms in
``hmmorder.kernels``, the threshold helpers in ``hmmorder.estimator``,
the emission classes in ``hmmorder.simulate``, the spectral internals
in ``hmmorder.spectral``) and the grid-quadrature oracle in
``hmmorder.quadrature`` are imported from their modules.
"""

from .estimator import (
    OrderEstimate,
    ThresholdRule,
    estimate_order,
    estimate_order_max_univariate,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    emit_table,
    load_config,
    run_experiment,
    run_method_comparison,
)
from .kernels import BandwidthRule, CustomKernel, KernelSpec
from .series import ObservedSeries
from .seriesio import (
    DatasetDescriptor,
    export_diagnostics,
    load_series,
    save_series,
)
from .simulate import get_scenario, paper_scenarios, shift_scenario, simulate
from .spectral import SpectralConfig, spectral_order

__version__ = "0.1.0"

__all__ = [
    "BandwidthRule",
    "CustomKernel",
    "DatasetDescriptor",
    "ExperimentConfig",
    "KernelSpec",
    "ObservedSeries",
    "OrderEstimate",
    "ResultTable",
    "SpectralConfig",
    "ThresholdRule",
    "emit_table",
    "estimate_order",
    "estimate_order_max_univariate",
    "export_diagnostics",
    "get_scenario",
    "load_config",
    "load_series",
    "paper_scenarios",
    "run_experiment",
    "run_method_comparison",
    "save_series",
    "shift_scenario",
    "simulate",
    "spectral_order",
]
