"""Bell-inequality tests for two-mode path-entangled number states.

The library exposes four layers:

* :mod:`noonbell.correlators` -- closed-form detection probabilities and the
  displaced-parity/Wigner correlators;
* :mod:`noonbell.inequalities` -- the Bell-functional catalog (CH, CHSH, the
  three-event Bell-Wigner pair, and the six-event combinations j1..j4) and
  the generic evaluator that is the one way to evaluate them;
* :mod:`noonbell.optimizer` -- deterministic multi-start derivative-free
  violation search with grid certification;
* :mod:`noonbell.marginals` -- closed-form marginal densities, correlation
  statistics, and samplable density grids;

plus :mod:`noonbell.fock`, a truncated Fock-space simulator that serves as an
independent numerical oracle for all of the closed forms, and a command-line
interface (``noonbell``).
"""

from noonbell.correlators import (
    click_probabilities,
    laguerre,
    parity_corr,
    q_joint,
    q_single_a,
    wigner,
)
from noonbell.fock import (
    TruncationError,
    apply_swap_unitary,
    coherent_state,
    default_cutoff,
    displacement_matrix,
    noon_state,
    oracle_parity_corr,
    oracle_q_joint,
)
from noonbell.inequalities import (
    BellFunctional,
    catalog,
    catalog_json,
    ch_analytic_reduced,
    ch_analytic_reduced_margin,
    ch_reduced_settings,
    evaluate_functional,
    functional_limit,
    validate_settings,
)
from noonbell.marginals import (
    DensityGrid,
    correlation_coefficient,
    density_grid,
    factored_l1_distance,
    grid_from_csv,
    grid_to_csv,
    marginal_integral,
    marginal_q,
    marginal_w,
)
from noonbell.optimizer import (
    CertificationReport,
    OptimizationResult,
    OptimizerConfig,
    certify_with_grid,
    format_amplitude,
    optimize,
    result_to_dict,
    result_to_json,
    sweep_n,
    sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "laguerre",
    "q_joint",
    "q_single_a",
    "click_probabilities",
    "parity_corr",
    "wigner",
    "TruncationError",
    "noon_state",
    "coherent_state",
    "displacement_matrix",
    "oracle_q_joint",
    "oracle_parity_corr",
    "apply_swap_unitary",
    "default_cutoff",
    "BellFunctional",
    "catalog",
    "catalog_json",
    "validate_settings",
    "evaluate_functional",
    "functional_limit",
    "ch_analytic_reduced",
    "ch_analytic_reduced_margin",
    "ch_reduced_settings",
    "OptimizerConfig",
    "OptimizationResult",
    "CertificationReport",
    "optimize",
    "sweep_n",
    "certify_with_grid",
    "result_to_dict",
    "result_to_json",
    "sweep_to_csv",
    "format_amplitude",
    "DensityGrid",
    "marginal_q",
    "marginal_w",
    "marginal_integral",
    "correlation_coefficient",
    "factored_l1_distance",
    "density_grid",
    "grid_to_csv",
    "grid_from_csv",
    "__version__",
]
