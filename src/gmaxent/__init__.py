"""Maximum-entropy inference over convex operational models.

Constraints are convex subsets of a model's state space (the kernel of an
affine condition intersected with the states); the feasible set of a problem
is their lattice meet, and the solvers maximize the model-appropriate entropy
over it: Shannon (classical), von Neumann (quantum, via the exponential-family
dual), or a pluggable concave objective (general polytope models).
"""

from .config import DEFAULT_SOLVER, SolverConfig
from .errors import (
    DegenerateInput,
    GmaxentError,
    IncompatibleObjective,
    InvalidEffect,
    InvalidObservable,
    InvalidState,
    InvalidTarget,
    ModelMismatch,
    NoValues,
    NotAProjection,
    NotOrthogonal,
    NumericalFailure,
    Unsupported,
    UnsupportedRepresentation,
)
from .hermitian import (
    EigenDecomposition,
    HermitianMatrix,
    eig,
    entropy_from_spectrum,
)
from .models import (
    Classical,
    Effect,
    ModelSpace,
    Observable,
    Outcome,
    Polytope,
    PovmValidation,
    Quantum,
    State,
    StateAxiomReport,
    check_state_axioms,
    effect_from_matrix,
    evaluate,
    indicator_observable,
    is_pure,
    maximally_mixed,
    mean_value,
    pure_state_from_vector,
    random_effect,
    random_povm,
    random_state,
    spectral_mixture,
    spectral_observable,
    unit_effect,
    validate_povm,
)
from .oracle import OracleResult, oracle_maxent
from .regions import (
    ConvexRegion,
    FeasibilityResult,
    FeasibilityStatus,
    LinearConstraint,
    enumerate_vertices,
    feasibility,
    includes,
    join,
    meet,
    region_from_effect,
    region_from_mean,
    whole_space,
)
from .solver import (
    CustomObjective,
    FiducialMeasurementEntropy,
    MaxEntProblem,
    MaxEntSolution,
    Shannon,
    SolveStatus,
    VonNeumann,
    default_objective,
    dual_gradient,
    entropy,
    partition_function,
    solve,
    solve_dual,
    solve_polytope,
)

__version__ = "0.1.0"
