"""Workload instances, the timed operation for each, and its certificate.

Every workload is a pool of operations in round-robin order over its instance
classes, built from the seed through gmaxent's public constructors. The seed
changes only instance contents; counts per class are fixed, so percentiles
sit at the same ranks on every seed. Each operation has a check that runs
after timing and does not reuse the code under test: entropies, residuals
and Frank-Wolfe gaps are recomputed here, and CLI exit codes are compared
with outcomes known from the tests or from how the input was built.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh  # bound before tracing starts

import gmaxent
import gmaxent.cli
from gmaxent import SolveStatus

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

# Absolute tolerance on |S(rho) - (lambda0 + lambda . r)| for dual solves.
DUAL_GAP_TOL = 1e-7
# Frank-Wolfe accepts gaps up to 10x fw_gap_tol when the line search stalls.
FW_GAP_FACTOR = 10.0
POLYTOPE_RESIDUAL_TOL = 1e-8


@dataclass
class Op:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    corrupt: Callable[[Any], Any]


@dataclass
class Workload:
    name: str
    ops: list[Op]        # the pool, round-robin over classes
    trace_passes: int    # passes over ``ops`` in each half of a traced run
    # Parts of reference.PARTS resembling what the ops spend their time on.
    reference: tuple[str, ...] = ("interpreter", "small_arrays", "eigh")
    cleanup: Callable[[], None] = lambda: None

    def warm_up(self):
        """One untimed op per instance class."""
        seen: dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.cls, op)
        for op in seen.values():
            op.run()


# ---------------------------------------------------------------------------
# Dual workloads (Shannon and von Neumann)
# ---------------------------------------------------------------------------


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def _check_dual(problem, solution) -> bool:
    if solution.status is not SolveStatus.CONVERGED or solution.state is None:
        return False
    coords = np.asarray(solution.state.coords)
    constraints = problem.region.h_rep
    residual = max(abs(float(c.functional @ coords) - c.target) for c in constraints)
    if residual > gmaxent.DEFAULT_SOLVER.residual_tol:
        return False
    if problem.model.kind == "quantum":
        spectrum = _eigvalsh(solution.state.density_matrix().entries)
    else:
        spectrum = coords
    if np.min(spectrum) < -1e-12:
        return False
    targets = np.array([constraints[i].target for i in solution.diagnostics.kept_indices])
    dual = solution.lambda0 + float(np.asarray(solution.multipliers) @ targets)
    return abs(_entropy(np.clip(spectrum, 0.0, None)) - dual) <= DUAL_GAP_TOL


def _perturb_multiplier(solution):
    multipliers = np.array(solution.multipliers, dtype=float)
    multipliers[0] += 1.0
    return dataclasses.replace(solution, multipliers=multipliers)


def _dual_op(cls: str, problem) -> Op:
    return Op(
        cls=cls,
        run=lambda: gmaxent.solve(problem),
        check=lambda sol: _check_dual(problem, sol),
        corrupt=_perturb_multiplier,
    )


def _meet_all(regions: list):
    """The meet of all regions, taken pairwise in a balanced tree. Each meet
    compares every constraint of both sides, so a chain of m meets costs
    O(m^3) comparisons and the tree O(m^2)."""
    while len(regions) > 1:
        regions = [gmaxent.meet(*regions[i:i + 2]) if i + 1 < len(regions) else regions[i]
                   for i in range(0, len(regions), 2)]
    return regions[0]


def _dual_instance(model, objective, m: int, rng: np.random.Generator):
    """m random-effect conditions with targets from one full-support state."""
    interior = gmaxent.random_state(model, rng)
    conditions = []
    for _ in range(m):
        effect = gmaxent.random_effect(model, rng)
        conditions.append(gmaxent.region_from_effect(effect, gmaxent.evaluate(effect, interior)))
    return gmaxent.MaxEntProblem(model, _meet_all(conditions), objective)


def _dual_workload(name, model, objective, ms, per_class, trace_passes, rng, **kwargs) -> Workload:
    ops = []
    for _ in range(per_class):
        for m in ms:
            ops.append(_dual_op(f"m={m}", _dual_instance(model, objective, m, rng)))
    return Workload(name, ops, trace_passes=trace_passes, **kwargs)


def quantum_dual(rng, tiny: bool) -> Workload:
    # Solves spend their time contracting coordinates with the basis and in eigh.
    reference = ("interpreter", "eigh", "einsum")
    if tiny:
        return _dual_workload("quantum_dual", gmaxent.Quantum(4), gmaxent.VonNeumann(), (1, 2, 3), 2, 1, rng,
                              reference=reference)
    return _dual_workload("quantum_dual", gmaxent.Quantum(32), gmaxent.VonNeumann(), (1, 4, 16), 12, 1, rng,
                          reference=reference)


def classical_dual(rng, tiny: bool) -> Workload:
    # Phase I rows of 10^4 entries stream through memory, not cache.
    reference = ("interpreter", "small_arrays", "stream")
    if tiny:
        return _dual_workload("classical_dual", gmaxent.Classical(50), gmaxent.Shannon(), (2, 4, 8), 2, 1, rng,
                              reference=reference)
    return _dual_workload("classical_dual", gmaxent.Classical(10_000), gmaxent.Shannon(), (4, 16, 32), 40, 1, rng,
                          reference=reference)


# ---------------------------------------------------------------------------
# Frank-Wolfe on polytopes
# ---------------------------------------------------------------------------


def regular_polygon(n: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def sphere_points(nv: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((nv, 3))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _fiducial_gradient(objective, x: np.ndarray) -> np.ndarray:
    g = np.zeros_like(x)
    for measurement in objective.measurements:
        rows = np.stack([out.effect.functional for out in measurement.outcomes])
        g -= (1.0 + np.log(np.maximum(rows @ x, 1e-300))) @ rows
    return g


def _check_polytope(problem, solution) -> bool:
    """Converged, feasible, and a Frank-Wolfe gap recomputed with HiGHS."""
    from scipy.optimize import linprog

    if solution.status is not SolveStatus.CONVERGED or solution.state is None:
        return False
    x = np.asarray(solution.state.coords)
    constraints = problem.region.h_rep
    if max((abs(float(c.functional @ x) - c.target) for c in constraints), default=0.0) > POLYTOPE_RESIDUAL_TOL:
        return False
    v = np.asarray(problem.model.vertices)
    a_eq = np.vstack([np.ones(len(v))] + [v @ c.functional for c in constraints])
    b_eq = np.array([1.0] + [c.target for c in constraints])
    g = _fiducial_gradient(problem.objective, x)
    lp = linprog(-(v @ g), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if lp.status != 0:
        return False
    gap = -lp.fun - float(g @ x)
    return gap <= FW_GAP_FACTOR * gmaxent.DEFAULT_SOLVER.fw_gap_tol + 1e-12


def _nudge_state(problem):
    def corrupt(solution):
        x = 0.999 * np.asarray(solution.state.coords) + 0.001 * np.asarray(problem.model.vertices[0])
        return dataclasses.replace(solution, state=gmaxent.State(problem.model, x))
    return corrupt


def _polytope_op(cls: str, model, rng) -> Op:
    measurements = (gmaxent.random_povm(model, rng, 3), gmaxent.random_povm(model, rng, 3))
    effect = gmaxent.random_effect(model, rng)
    interior = gmaxent.random_state(model, rng)
    region = gmaxent.region_from_effect(effect, gmaxent.evaluate(effect, interior))
    problem = gmaxent.MaxEntProblem(model, region, gmaxent.FiducialMeasurementEntropy(measurements))
    return Op(cls, lambda: gmaxent.solve(problem), lambda sol: _check_polytope(problem, sol), _nudge_state(problem))


def polytope_fw(rng, tiny: bool) -> Workload:
    sizes, per_class = ((8, 16), 2) if tiny else ((8, 16, 32), 100)
    models = {n: gmaxent.Polytope(regular_polygon(n)) for n in sizes}
    ops = [_polytope_op(f"n={n}", models[n], rng) for _ in range(per_class) for n in sizes]
    return Workload("polytope_fw", ops, trace_passes=1)


def polytope_sphere(rng, tiny: bool) -> Workload:
    sizes, per_class = (8, 16), (1 if tiny else 4)
    ops = [
        _polytope_op(f"nv={nv}", gmaxent.Polytope(sphere_points(nv, rng)), rng)
        for _ in range(per_class) for nv in sizes
    ]
    return Workload("polytope_sphere", ops, trace_passes=1)


# ---------------------------------------------------------------------------
# CLI on files
# ---------------------------------------------------------------------------

# Checked-in problem files: expected exit codes for validate and solve, each
# from a test or, where no test covers it, from the file's contents.
VALIDATE_EXPECT = {
    "validate_demo": 0,          # test_cli TestValidate.test_valid_file
    "povm_invalid": 1,           # test_cli TestValidate.test_invalid_povm
    "boundary_sigmaz": 0,        # projective sigma_z, valued, no states
    "classical_d3_mean": 0,      # indicator observable with values, mean condition
    "classical_uniform_d7": 0,   # no observables, states or conditions
    "effect_condition_qubit": 0, # diag(0.3,0.7) + diag(0.7,0.3) = I, target 0.65 in [0,1]
    "gibbs_qubit": 0,            # projective, valued, mean condition
    "infeasible_bloch": 0,       # projective sigma_z/sigma_x; infeasibility is solve's question
    "squarebit_center": 0,       # complete two-outcome measurements on the square
    "squarebit_x09": 0,          # same, probability target 0.9 in [0,1]
}
SOLVE_EXPECT = {
    "gibbs_qubit": 0,            # test_cli TestSolve.test_gibbs
    "infeasible_bloch": 3,       # test_cli TestSolve.test_infeasible_exit_code, acceptance 7
    "boundary_sigmaz": 4,        # test_cli TestSolve.test_boundary_exit_code, acceptance 7
    "classical_uniform_d7": 0,   # test_cli TestSolve.test_classical_uniform
    "squarebit_x09": 0,          # test_cli TestSolve.test_squarebit
    "effect_condition_qubit": 0, # test_cli TestSolve.test_effect_condition
    "povm_invalid": 1,           # test_cli TestSolve.test_invalid_povm_blocks_solve
    "classical_d3_mean": 0,      # mean 0.8 lies strictly inside [0, 2]: full-support optimum
    "squarebit_center": 0,       # no conditions: interior optimum at the centre
    "validate_demo": 0,          # no conditions: I/2, zero gradient at the start
}
# (op, region a, region b, exit code, "result" for leq or None)
LATTICE_EXPECT = [
    ("leq", "region_whole_quantum", "region_sigmaz_mean0", 0, False),  # test_leq_whole_space
    ("leq", "region_sigmaz_mean0", "region_whole_quantum", 0, True),   # test_leq_whole_space
    ("meet", "region_classical3_plane", "region_classical3_plane", 0, None),  # test_meet_reports_dedup
    ("join", "region_sigmaz_mean0", "region_sigmax_mean0", 6, None),   # test_join_quantum_hrep_unsupported
    ("join", "region_point_top", "region_point_bottom", 0, None),      # test_join_points
    ("meet", "region_classical3_pair", "region_classical3_plane", 0, None),  # test_join_then_meet_classical
    ("meet", "region_sigmaz_mean0", "region_sigmax_mean0", 0, None),   # meet concatenates H-reps on any model
    ("meet", "region_point_top", "region_point_bottom", 0, None),      # meet of generator regions uses affine hulls
    ("join", "region_classical3_pair", "region_classical3_plane", 0, None),  # classical hulls are exact
    ("join", "region_whole_quantum", "region_point_top", 6, None),     # quantum region without generators
    ("leq", "region_classical3_pair", "region_classical3_whole", 0, True),   # everything lies in the whole space
    ("leq", "region_classical3_whole", "region_classical3_pair", 0, False),  # the simplex is not inside one edge
    ("leq", "region_point_top", "region_sigmaz_mean0", 0, False),      # |0><0| has <sigma_z> = 1, not 0
    ("leq", "region_point_top", "region_whole_quantum", 0, True),      # everything lies in the whole space
]

_STATUS_CODE = {"converged": 0, "infeasible": 3, "boundary_only": 4, "non_convergence": 5}

_PAULI = {
    "SX": np.array([[0, 1], [1, 0]], dtype=complex),
    "SY": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "SZ": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _spectral_json(matrix: np.ndarray, values=(1.0, -1.0)) -> dict:
    """Two-outcome observable: projectors onto the +1 and -1 eigenspaces."""
    d = matrix.shape[0]
    plus = (np.eye(d) + matrix) / 2.0
    outcomes = [{"label": "plus", "matrix": _matrix_json(plus), "value": values[0]},
                {"label": "minus", "matrix": _matrix_json(np.eye(d) - plus), "value": values[1]}]
    return {"outcomes": outcomes}


def _problem_json(dim: int, observables: dict, targets: dict) -> dict:
    return {
        "model": {"kind": "quantum", "dimension": dim},
        "observables": observables,
        "conditions": [{"observable": k, "type": "mean", "target": float(t)} for k, t in targets.items()],
        "objective": {"name": "von_neumann"},
    }


def near_boundary_problems(rng: np.random.Generator, per_family: int) -> list[tuple[str, dict, int]]:
    """(name, problem, expected exit code) for targets on both sides of the boundary.

    A target strictly inside the state space's image gives 0, one on its
    boundary gives 4 and one outside gives 3; delta is log-uniform in
    [1e-4, 5e-2].
    """
    def delta():
        return float(math.exp(rng.uniform(math.log(1e-4), math.log(5e-2))))

    sz = {"SZ": _spectral_json(_PAULI["SZ"])}
    bloch = {k: _spectral_json(v) for k, v in _PAULI.items()}
    out = [("sz_plus1", _problem_json(2, sz, {"SZ": 1.0}), 4),
           ("sz_minus1", _problem_json(2, sz, {"SZ": -1.0}), 4)]
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    proj = np.outer(psi, psi.conj())
    qutrit = {"P": {"outcomes": [
        {"label": "in", "matrix": _matrix_json(proj), "value": 1.0},
        {"label": "out", "matrix": _matrix_json(np.eye(3) - proj), "value": 0.0},
    ]}}
    out.append(("qutrit_p0", _problem_json(3, qutrit, {"P": 0.0}), 4))
    for i in range(per_family):
        for sign in (1.0, -1.0):
            d = delta()
            out.append((f"sz_in_{i}_{sign:+.0f}", _problem_json(2, sz, {"SZ": sign * (1.0 - d)}), 0))
            d = delta()
            out.append((f"sz_out_{i}_{sign:+.0f}", _problem_json(2, sz, {"SZ": sign * (1.0 + d)}), 3))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        for side, code in ((-1.0, 0), (1.0, 3)):
            r = (1.0 + side * delta()) * direction
            out.append((f"bloch_{i}_{code}", _problem_json(2, bloch, dict(zip(("SX", "SY", "SZ"), r))), code))
        for side, code in ((1.0, 0), (-1.0, 3)):
            out.append((f"qutrit_{i}_{code}", _problem_json(3, qutrit, {"P": side * delta()}), code))
    return out


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _route_cli_logging():
    """The CLI's own logging set-up, with its stderr stream swapped for a sink.

    ``cli.main`` calls ``logging.basicConfig``, which is a no-op once the
    root logger has a handler, so records are still formatted as for a user.
    """
    logging.basicConfig(level=logging.INFO, stream=_Discard(), format="%(levelname)s %(message)s")


def _run_cli(argv: list[str]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = gmaxent.cli.main(argv)
    return code, buffer.getvalue()


def _check_cli(command: str, expected_code: int, expected_result):
    def check(outcome) -> bool:
        code, text = outcome
        if code != expected_code:
            return False
        if command == "validate":
            return ("FAIL" in text) == (code == 1)
        if code in (1, 2, 6, 7):  # errors are logged; no report is printed
            return text == ""
        report = json.loads(text)
        if command == "solve":
            return _STATUS_CODE.get(report.get("status")) == code
        if command == "leq":
            return report.get("result") is expected_result
        return isinstance(report.get("constraints"), list)
    return check


def _wrong_code(outcome):
    code, text = outcome
    return code + 1, text


def _cli_op(cls: str, argv: list[str], command: str, code: int, result=None) -> Op:
    return Op(cls, lambda: _run_cli(argv), _check_cli(command, code, result), _wrong_code)


def cli_files(rng, tiny: bool, workdir: Path, outside: bool = False) -> Workload:
    """Commands on the checked-in files plus generated near-boundary solves.

    Generated targets outside the state space (expected exit 3) form their
    own workload, ``outside=True``: at this commit the quantum dual labels
    most of them boundary-only, so each of those runs fails ops.
    """
    _route_cli_logging()
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    if not outside:
        for name, code in VALIDATE_EXPECT.items():
            ops.append(_cli_op("validate", ["validate", str(PROBLEMS / f"{name}.json")], "validate", code))
        for name, code in SOLVE_EXPECT.items():
            ops.append(_cli_op("solve", ["solve", str(PROBLEMS / f"{name}.json")], "solve", code))
        for op, a, b, code, result in LATTICE_EXPECT:
            argv = ["lattice", op, str(PROBLEMS / f"{a}.json"), str(PROBLEMS / f"{b}.json")]
            ops.append(_cli_op("lattice", argv, op, code, result))
    for name, problem, code in near_boundary_problems(rng, 1 if tiny else 17):
        if (code == 3) != outside:
            continue
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        ops.append(_cli_op("near_boundary", ["solve", str(path)], "solve", code))

    def cleanup():
        for path in workdir.glob("*.json"):
            path.unlink()
        with contextlib.suppress(OSError):
            workdir.rmdir()
            workdir.parent.rmdir()

    name = "cli_outside" if outside else "cli_files"
    return Workload(name, ops, trace_passes=1 if tiny else 4, cleanup=cleanup)


LIBRARY_WORKLOADS = {
    "quantum_dual": quantum_dual,
    "classical_dual": classical_dual,
    "polytope_fw": polytope_fw,
    "polytope_sphere": polytope_sphere,
}


def build(name: str, seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    if name in ("cli_files", "cli_outside"):
        workdir = ROOT / "perfbench" / "_work" / f"cli-{os.getpid()}"
        return cli_files(rng, tiny, workdir, outside=name == "cli_outside")
    return LIBRARY_WORKLOADS[name](rng, tiny)
