"""Six-vertex model with domain wall boundaries.

Exact finite-size operator algebra, Bethe-equation solving, determinant
representations of scalar products and correlators, and the thermodynamic
limit of the emptiness formation probability on the central horizontal line.
"""

from .algebra import (
    AnisotropyParam,
    LatticeSpec,
    bethe_state,
    boltzmann_weights,
    correlator_bruteforce,
    dual_state,
    homogeneous_spec,
    ket_bra,
    l_matrix,
    monodromy,
    partition_bruteforce,
    projector_pi,
    qism_pi,
    qism_projectors,
    rtt_residual,
    transfer,
)
from .bethe import (
    BetheRootSet,
    counting_function,
    eigenvalue_residual,
    eigenvalue_t,
    flip_sign_residual,
    ground_state_numbers,
    p_n,
    p_n_deriv,
    solve_bae,
    solve_ground_state,
)
from .determinant import (
    EfpRequest,
    cauchy_det_check,
    d_action_check,
    efp_finite,
    efp_profile,
    g_coefficient,
    gaudin_norm,
    log_gaudin_norm,
    neville_extrapolate,
    psi_phi_rows,
    scalar_product_ratio,
    slavnov_scalar_product,
    varphi_prime_matrix,
)
from .errors import ConvergenceError, PoleError
from .thermo import (
    ContourGrid,
    DensityProfile,
    EfpResult,
    contour_grid,
    efp_sum_finite,
    efp_thermo,
    ground_state_theta,
    kernel_K,
    local_densities,
    solve_density,
    varphi_prime_thermo_row_check,
)

__version__ = "0.1.0"
