"""Equilibria of an electrostatically actuated plate over a dielectric-coated electrode."""

from .bounds import (
    ComparisonBVP,
    kappa0_bound,
    kappa0_case_bounds,
    q_profile,
    solve_comparison_bvp,
)
from .errors import *  # noqa: F401,F403
from .fields import (
    FieldGrid,
    FieldSolver,
    GapMap,
    PotentialField,
    check_max_principle,
)
from .forces import (
    ForceProfile,
    compute_force,
    directional_derivative_check,
    force_analytic_flat,
    force_load_vector,
)
from .hermite import (
    PlateGrid,
    PlateState,
    assemble_bending_and_stretch,
    assemble_mass,
    interpolate,
    mechanical_energy,
    project_obstacle,
)
from .minimize import (
    EnergyReport,
    SolveContext,
    SolverSettings,
    coercivity_check,
    coercivity_constant,
    continuation_pipeline,
    energy_total,
    make_context,
)
from .params import (
    BoundaryDataFamily,
    DerivedConstants,
    PhysicalParams,
    build_canonical_boundary_data,
    compute_A,
    compute_m_constants,
    derive_constants,
    sigma_bar,
)
from .verify import (
    CoincidenceReport,
    check_apriori_bound,
    check_coincidence_interval,
    run_suite,
)

__version__ = "0.1.0"
