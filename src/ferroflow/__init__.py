"""Fermionic renormalization-group flows on finite Grassmann algebras.

The library provides exact Grassmann calculus, fermionic Gaussian
integrals and heat-kernel convolutions, the matrix and algebra norms used to
control effective actions, a direct integrator for the nonlinear flow
equation of the effective action, a Hamilton-Jacobi norm majorant solved by
the method of characteristics, and a concrete quartically perturbed model
with a Gaussian-regularized covariance.
"""

from .algebra import (
    GeneratorSet,
    GrassmannElement,
    analytic_apply,
    exp_of,
    gradient,
    log_of,
    parity_magnitudes,
    wedge,
)
from .gaussian import (
    AntisymmetricCovariance,
    covariance_split_check,
    gaussian_expectation,
    gaussian_moment,
    heat_kernel_convolve,
    laplacian,
    pfaffian,
)
from .norms import (
    NormSeries,
    convergence_radius,
    gram_bound_check,
    matrix_norm_1inf,
    norm_coefficients,
)
from .schedule import ScaleSchedule
from .flow import (
    FlowTrajectory,
    effective_action_exact,
    flow_integrate,
    rg_map,
)
from .majorant import (
    CharacteristicSolution,
    MajorantSpec,
    existence_check,
    hopflax_solve,
    majorant_coefficients,
    rhs_coefficient_bound,
)
from .psi4 import (
    Psi4Params,
    build_desk_instance,
    coupling_bound,
    covariance_matrix,
    covariance_rate_norm,
    effective_flow_time,
    sigma_squared_closed_form,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "GeneratorSet", "GrassmannElement", "analytic_apply", "exp_of",
    "gradient", "log_of", "parity_magnitudes", "wedge",
    "AntisymmetricCovariance", "covariance_split_check",
    "gaussian_expectation", "gaussian_moment", "heat_kernel_convolve",
    "laplacian", "pfaffian",
    "NormSeries", "convergence_radius", "gram_bound_check", "matrix_norm_1inf",
    "norm_coefficients",
    "ScaleSchedule",
    "FlowTrajectory", "effective_action_exact", "flow_integrate", "rg_map",
    "CharacteristicSolution", "MajorantSpec", "existence_check",
    "hopflax_solve", "majorant_coefficients", "rhs_coefficient_bound",
    "Psi4Params", "build_desk_instance", "coupling_bound", "covariance_matrix",
    "covariance_rate_norm", "effective_flow_time", "sigma_squared_closed_form",
    "errors",
]
