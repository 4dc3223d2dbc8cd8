"""Maximum-entropy inference over convex operational models.

Constraints are convex subsets of a model's state space (the kernel of an
affine condition intersected with the states); the feasible set of a problem
is their lattice meet, and the solvers maximize the model-appropriate entropy
over it: Shannon (classical), von Neumann (quantum, via the exponential-family
dual), or the outcome entropies of fiducial measurements (polytope models).
"""

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
from .hermitian import HermitianMatrix, entropy_from_spectrum
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
    maximally_mixed,
    random_effect,
    random_povm,
    random_state,
    spectral_observable,
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
    DEFAULT_SOLVER,
    FiducialMeasurementEntropy,
    MaxEntProblem,
    MaxEntSolution,
    Shannon,
    SolveStatus,
    SolverConfig,
    VonNeumann,
    default_objective,
    solve,
    solve_dual,
    solve_polytope,
)

__version__ = "0.1.0"
