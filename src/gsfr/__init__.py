"""Sobolev-stable flux reconstruction correction functions and a 1D FR workbench.

Submodules:
    legendre    -- exact Legendre polynomial algebra
    correction  -- correction-function solver, stability bounds, family maps
    operators   -- 1D FR semi-discretization and explicit time stepping
    spectral    -- von Neumann analysis: dispersion, dissipation, CFL limits
    experiments -- order-of-accuracy, aliasing energy, and CFL search studies
    cli         -- command-line front end
"""

from .correction import (
    CorrectionPair,
    CorrectionParams,
    StabilityBounds,
    correction_matrix,
    esfr3_gradient,
    esfr3_weights,
    osfr_correction,
    osfr_iota,
    pair_from_json,
    pair_to_json,
    recover_weights_p3,
    sobolev_norm_squared,
    solve_correction,
    sufficient_bounds,
)
from .experiments import (
    EnergyReport,
    OoaReport,
    SearchReport,
    cfl_search,
    hetero_energy_study,
    ooa_study,
)
from .legendre import (
    LegendreSeries,
    endpoint_derivative,
    integral_dm_dm1,
    legendre_b,
    series_derivative,
)
from .operators import (
    MeshState,
    ReferenceElement,
    SchemeOperators,
    build_reference_element,
    build_scheme_operators,
    linear_advection_rhs,
    make_heterogeneous_rhs,
    rk_advance,
    uniform_mesh,
)
from .spectral import (
    StabilityResult,
    bloch_matrix,
    cfl_limit,
    dispersion_sweep,
    spectral_radius,
    update_matrix,
)

__version__ = "0.1.0"
