"""Tolerance and cap records.

Every numerical threshold used by the package lives in one of these frozen
dataclasses so tests and callers can override them in one place.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericsConfig:
    """Tolerances for Hermitian matrix algebra."""

    hermiticity_atol: float = 1e-12     # construction check |A - A^dagger|
    reconstruction_rtol: float = 1e-10  # eig: |U diag(k) U^dagger - A|
    unitarity_atol: float = 1e-10       # eig: |U^dagger U - I|
    log_zero_floor: float = 1e-300      # eigenvalues below this contribute ln = 0
    dd_degeneracy_rtol: float = 1e-9    # divided-difference pair merging


@dataclass(frozen=True)
class ModelConfig:
    """Tolerances for states, effects, and observables."""

    unit_atol: float = 1e-10            # |u(omega) - 1|
    cone_atol: float = 1e-10            # classical/quantum cone membership slack
    membership_lp_tol: float = 1e-8     # polytope Phase-I residual
    purity_atol: float = 1e-8           # |rho^2 - rho| and vertex coincidence
    effect_range_atol: float = 1e-10    # effect spectrum slack outside [0, 1]
    completeness_atol: float = 1e-10    # POVM sum-to-unit residual, componentwise
    clamp_atol: float = 1e-10           # evaluate() clamps within this of [0, 1]
    projection_atol: float = 1e-8       # axiom checker: |P^2 - P| and |P_i P_j|
    axiom_atol: float = 1e-9            # axiom residual pass threshold
    mixture_weight_floor: float = 1e-12 # spectral_mixture drops smaller weights


@dataclass(frozen=True)
class RegionConfig:
    """Tolerances and caps for constraint regions and lattice operations."""

    constraint_atol: float = 1e-8       # generator-vs-constraint residual
    duplicate_rtol: float = 1e-10       # normalized-functional duplicate detection
    generator_dedup_atol: float = 1e-8  # pairwise distance for v-rep dedup
    vertex_nonneg_atol: float = 1e-9    # BFS weight nonnegativity slack
    enumeration_cap: int = 12           # constraint count + ambient dim limit
    lp_pivot_tol: float = 1e-10
    lp_feasibility_tol: float = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Dual-Newton and Frank-Wolfe controls."""

    grad_tol: float = 1e-10             # stop when the dual gradient inf-norm is below
    residual_tol: float = 1e-8          # redundancy consistency; certificate c < -this => Infeasible
    max_iter: int = 500
    multiplier_bound: float = 1e4       # max |lambda| past this => recession certificate decides
    hessian_ridge: float = 1e-12
    rank_pivot_tol: float = 1e-10       # constraint independence threshold
    boundary_rank_tol: float = 1e-9     # min spectrum below this => BoundaryOnly
    boundary_residual_tol: float = 1e-3 # past the bound, no certificate, residual below => BoundaryOnly
    armijo_c: float = 1e-4
    max_backtracks: int = 60
    fw_gap_tol: float = 1e-7
    fw_max_iter: int = 5000


@dataclass(frozen=True)
class OracleConfig:
    """Brute-force grid caps."""

    classical_max_dim: int = 4
    quantum_max_dim: int = 2
    polytope_max_vertices: int = 4
    max_grid_points: float = 4e7        # estimated points before Unsupported
    chunk: int = 1_000_000
    consistency_tol: float = 1e-9       # affine-system lstsq residual => infeasible


DEFAULT_NUMERICS = NumericsConfig()
DEFAULT_MODEL = ModelConfig()
DEFAULT_REGION = RegionConfig()
DEFAULT_SOLVER = SolverConfig()
DEFAULT_ORACLE = OracleConfig()
