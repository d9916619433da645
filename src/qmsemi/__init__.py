"""Numerical toolkit for quantum Markov semigroups on matrix algebras.

Builds Lindblad generators from Hermitian jumps, certifies the gradient
order condition between carre-du-champ forms by semidefinite pencils,
brackets log-Sobolev-type decay constants, constructs subordinated
generators by spectral functional calculus, and ships a casebook of
explicit computations with machine-checked assertions.
"""

from .algebra import (
    ModuleBasis,
    SubAlgebra,
    commutant,
    conditional_expectation,
    diagonal_algebra,
    full_algebra,
    module_basis,
    scalar_algebra,
)
from .constants import (
    FlsiEstimate,
    check_decay_bound,
    check_lp_decay,
    flsi_estimate,
    gamma_dual_norm,
    geometric_talagrand_check,
    rho_multiplier,
    rho_multiplier_inv,
    schatten_norm,
)
from .cporder import (
    FormKernel,
    GammaECertificate,
    best_lambda,
    cb_norm_1_to_inf,
    choi_matrix,
    cp_order_holds,
    gamma_e,
    gamma_e_constant,
    kernel_from_jumps,
    kernel_from_superop,
    kernel_ie,
    return_time,
)
from .entropy import (
    DecayTrace,
    d_sub,
    default_grid,
    fisher,
    fisher_n,
    relative_entropy,
    simulate_decay,
)
from .generator import (
    JumpSet,
    LindbladGenerator,
    derivation,
    gradient_form,
    gradient_form_ie,
    gradient_form_weak,
    jump_set,
    lindblad,
    spectral_gap,
    validate_generator,
)
from .matops import (
    Superop,
    hs_inner,
    hs_norm,
    make_state,
    make_superop,
    matrix_function,
    divided_difference_multiplier,
    norm_trace,
    random_hermitian,
    random_state,
    semigroup_apply,
    tensor_sum_generator,
)
from .models import (
    dephasing_generator,
    depolarizing_generator,
    pauli,
    random_lindblad,
)
from .subordinate import (
    WeightProfile,
    density_approximation,
    eps_sigma_generator,
    eps_sigma_scalar,
    fractional_power,
    phi_of_lambda,
    psi_r_map,
    subordinated_generator,
    theta_family_report,
)

__version__ = "0.1.0"
