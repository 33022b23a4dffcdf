"""Coadjoint orbits of the planar Aristotle group and its extensions.

The package covers five models of the group of planar rotations, space
translations and time translations: the bare group, its two central
extensions, a noncentral extension carrying force generators, and the
central extension of the latter whose orbits are noncommutative phase
spaces with a built-in magnetic term {p1, p2} = -m omega.

Layers:

* lie_core: structure constants, brackets, Jacobi defects, adjoint and
  coadjoint matrices, Kirillov forms, and the exponential-series oracle.
* group_models: multiplication laws, inverses, the two-cocycle, and
  closed-form adjoint/coadjoint actions for each model, on group elements
  that are parameter arrays with optional leading batch axes.
* orbit_chart: orbit coordinates, Casimir invariants, restricted forms,
  Poisson tensors and brackets; chart points and Casimir labels are
  arrays with optional leading batch axes.
* dynamics: exact group time flows and numeric Hamiltonian flows with
  invariant-drift tracking.
* cli / verify: the aristotle-orbits command line tool and its property
  suites.
"""

from .lie_core import (
    EPS0,
    DimensionMismatchError,
    ModelParams,
    SeriesConvergenceError,
    StructureTensor,
    ad_matrix,
    bracket,
    coad_matrix,
    cross2,
    eps_vec,
    exp_coadjoint,
    jacobi_defect,
    kirillov_matrix,
    rotation,
)
from .group_models import (
    ALGEBRA_LABELS,
    DUAL_LABELS,
    ModelId,
    ModelMismatchError,
    adjoint,
    algebra_vector,
    bracket_table,
    coadjoint,
    cocycle,
    dual_vector,
    identity_element,
    inverse,
    multiply,
    one_param_element,
    sample_dual,
    sample_element,
    structure_tensor,
)
from .orbit_chart import (
    CASIMIR_NAMES,
    CHART_COORDS,
    OMEGA_BASIS,
    ChartDegeneracyError,
    OrbitPoint,
    SingularityError,
    canonicalize_noncentral,
    casimirs,
    chart_from_dual,
    chart_poisson,
    coordinate_gradient,
    dual_from_chart,
    gradient_fd,
    omega_chart,
    omega_matrix,
    orbit_point,
    phase_space_blocks,
    poisson_bracket,
    poisson_tensor,
)
from .dynamics import (
    FlowSingularityError,
    FlowSpec,
    QuadraticHamiltonian,
    SolverConvergenceError,
    Trajectory,
    energy_hamiltonian,
    hamiltonian_flow,
    invariant_drift,
    kinetic_hamiltonian,
    magnetic_strength,
    time_flow_exact,
)
from .verify import Report, run_verify

__version__ = "0.1.0"
