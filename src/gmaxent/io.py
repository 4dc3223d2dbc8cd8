"""Problem and region files, and machine-readable reports.

One structured JSON format. Complex numbers are two-element arrays [re, im],
matrices are row-major nested lists of those pairs, and every float is
emitted with 17 significant digits so that parse -> serialize -> parse is
lossless.

Problem files::

    {
      "model": {"kind": "quantum", "dimension": 2},
      "observables": {
        "H": {"outcomes": [
          {"label": "0", "matrix": [[[0,0],[0,0]],[[0,0],[0,0]]], "value": 0.0},
          ...
        ]}
      },
      "states": {"rho": {"matrix": ...}},              # optional, for validate
      "conditions": [
        {"observable": "H", "type": "mean", "target": 0.3},
        {"observable": "M", "outcome": "+", "type": "probability", "target": 0.9}
      ],
      "objective": {"name": "von_neumann"},            # shannon | von_neumann |
                                                       # fiducial (+"measurements")
      "solver": {"tolerance": 1e-10, "max_iter": 500}  # optional; a "seed" key
    }                                                  # is accepted and ignored

"max_iter" caps Newton and Frank-Wolfe iterations alike.

Classical and polytope effects/states use "vector" instead of "matrix"; a
polytope effect vector is the affine form (constant, linear part) over the
vertex coordinates, and a polytope state vector is its bare point in R^k.

Region files replace "conditions" with a "region" section holding
"constraints" (observable/effect references or literal functionals) and
optional "generators".
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .config import DEFAULT_SOLVER, SolverConfig
from .errors import GmaxentError
from .models import (
    CLASSICAL,
    POLYTOPE,
    QUANTUM,
    Classical,
    Effect,
    ModelSpace,
    Observable,
    Outcome,
    Polytope,
    Quantum,
    State,
)
from .regions import ConvexRegion, LinearConstraint, meet, region_from_effect, region_from_mean, whole_space
from .solver import (
    FiducialMeasurementEntropy,
    MaxEntSolution,
    Objective,
    Shannon,
    VonNeumann,
    default_objective,
)


class SchemaError(GmaxentError):
    """Structurally invalid input file (missing keys, bad shapes, unknown names)."""


# ---------------------------------------------------------------------------
# 17-significant-digit JSON
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    if not any(ch in text for ch in ".eE") and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def dumps_17g(obj: Any, indent: int = 2) -> str:
    """JSON text with floats at 17 significant digits (lossless round trip)."""

    def emit(o, depth):
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _format_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = ", ".join(emit(v, depth + 1) for v in o)
            if len(inner) <= 72 and "\n" not in inner:
                return f"[{inner}]"
            body = (",\n" + pad_in).join(emit(v, depth + 1) for v in o)
            return "[\n" + pad_in + body + "\n" + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()]
            body = (",\n" + pad_in).join(items)
            return "{\n" + pad_in + body + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _of_type(value, kind: type, context: str):
    """``value`` when it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise SchemaError(f"{context}: expected {'an object' if kind is dict else 'an array'}, got {value!r}")
    return value


def _section(raw: dict, key: str, kind: type):
    """An optional section of ``raw``, empty when absent."""
    return _of_type(raw.get(key, kind()), kind, f"{key} section")


def _require(mapping: dict, key: str, context: str):
    _of_type(mapping, dict, context)
    if key not in mapping:
        raise SchemaError(f"{context}: missing '{key}'")
    return mapping[key]


def _number(raw, context: str, kind: type = float):
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{context}: expected a number, got {raw!r}") from exc


def _iteration_cap(raw, context: str) -> int:
    cap = _number(raw, context, int)
    if cap < 0:
        raise SchemaError(f"{context}: expected a non-negative integer, got {raw!r}")
    return cap


def positive_finite(raw, context: str) -> float:
    tol = _number(raw, context)
    if not 0.0 < tol < np.inf:
        raise SchemaError(f"{context}: expected a positive finite number, got {raw!r}")
    return tol


def _real_vector(raw: dict, context: str) -> np.ndarray:
    try:
        return np.asarray(_require(raw, "vector", context), dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: vector entries must be numbers") from exc


def parse_complex_matrix(raw, context: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: matrix entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise SchemaError(f"{context}: expected d x d x 2 nested arrays, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def complex_matrix_to_jsonable(m: np.ndarray) -> list:
    stacked = np.stack([m.real, m.imag], axis=-1)
    return stacked.tolist()


def parse_model(raw: dict) -> ModelSpace:
    kind = _require(raw, "kind", "model")
    try:
        if kind == CLASSICAL:
            return Classical(int(_require(raw, "dimension", "model")))
        if kind == QUANTUM:
            return Quantum(int(_require(raw, "dimension", "model")))
        if kind == POLYTOPE:
            return Polytope(np.asarray(_require(raw, "vertices", "model"), dtype=float))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"model: {exc}") from exc
    raise SchemaError(f"model: unknown kind '{kind}'")


def model_to_jsonable(model: ModelSpace) -> dict:
    if model.kind == POLYTOPE:
        return {"kind": POLYTOPE, "vertices": model.user_vertices.tolist()}
    return {"kind": model.kind, "dimension": model.dim}


def _quantum_coords(model: Quantum, raw: dict, context: str) -> np.ndarray:
    """Coordinates of a Hermitian "matrix" entry of the model's dimension."""
    matrix = parse_complex_matrix(_require(raw, "matrix", context), context)
    if matrix.shape[0] != model.dim:
        raise SchemaError(f"{context}: matrix dimension {matrix.shape[0]} != model {model.dim}")
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-10:
        raise SchemaError(f"{context}: matrix is not Hermitian")
    return model.matrix_to_coords(matrix)


def _parse_functional(model: ModelSpace, raw: dict, context: str) -> np.ndarray:
    if model.kind == QUANTUM:
        return _quantum_coords(model, raw, context)
    vec = _real_vector(raw, context)
    if vec.shape != (model.ambient_dim,):
        raise SchemaError(
            f"{context}: expected {model.ambient_dim} components"
            + (" (constant, then linear part)" if model.kind == POLYTOPE else "")
            + f", got {vec.shape}"
        )
    return vec


def _parse_state_coords(model: ModelSpace, raw: dict, context: str) -> np.ndarray:
    if model.kind == QUANTUM:
        return _quantum_coords(model, raw, context)
    vec = _real_vector(raw, context)
    if model.kind == POLYTOPE and vec.shape == (model.ambient_dim - 1,):
        return model.embed_point(vec)
    if vec.shape != (model.ambient_dim,):
        raise SchemaError(f"{context}: bad state vector shape {vec.shape}")
    return vec


@dataclass(frozen=True)
class ParsedCondition:
    observable: str
    outcome: Optional[str]
    kind: str  # "mean" | "probability"
    target: float


def _parse_condition(entry: dict, observables: dict[str, Observable], context: str) -> ParsedCondition:
    obs_name = _require(entry, "observable", context)
    if obs_name not in observables:
        raise SchemaError(f"{context}: unknown observable '{obs_name}'")
    kind = _require(entry, "type", context)
    if kind not in ("mean", "probability"):
        raise SchemaError(f"{context}: type must be 'mean' or 'probability'")
    outcome = entry.get("outcome")
    if kind == "probability":
        if outcome is None:
            raise SchemaError(f"{context}: probability conditions need an 'outcome'")
        labels = [out.label for out in observables[obs_name].outcomes]
        if str(outcome) not in labels:
            raise SchemaError(f"{context}: observable '{obs_name}' has no outcome '{outcome}'")
    target = _number(_require(entry, "target", context), context)
    return ParsedCondition(obs_name, None if outcome is None else str(outcome), kind, target)


def _condition_region(cond: ParsedCondition, observables: dict[str, Observable]) -> ConvexRegion:
    obs = observables[cond.observable]
    if cond.kind == "mean":
        return region_from_mean(obs, cond.target)
    out = next(o for o in obs.outcomes if o.label == cond.outcome)
    return region_from_effect(out.effect, cond.target)


@dataclass
class ParsedProblem:
    model: ModelSpace
    observables: dict[str, Observable]
    state_coords: dict[str, np.ndarray]
    conditions: list[ParsedCondition]
    objective_raw: Optional[dict]
    solver_settings: dict  # SolverConfig fields set by the "solver" section
    raw: dict


def parse_problem(raw: dict) -> ParsedProblem:
    if not isinstance(raw, dict):
        raise SchemaError("problem file must be a JSON object")
    model = parse_model(_require(raw, "model", "problem"))
    observables: dict[str, Observable] = {}
    for name, body in _section(raw, "observables", dict).items():
        outs = []
        outcomes = _require(body, "outcomes", f"observable {name}")
        for i, entry in enumerate(_of_type(outcomes, list, f"observable {name} outcomes")):
            context = f"observable {name}, outcome {i}"
            functional = _parse_functional(model, entry, context)
            label = str(entry.get("label", i))
            value = entry.get("value")
            value = None if value is None else _number(value, context)
            outs.append(Outcome(label, Effect(model, functional, check=False), value))
        observables[name] = Observable(model, tuple(outs), check=False)
    state_coords: dict[str, np.ndarray] = {}
    for name, body in _section(raw, "states", dict).items():
        state_coords[name] = _parse_state_coords(model, body, f"state {name}")
    conditions = [
        _parse_condition(entry, observables, f"condition {i}")
        for i, entry in enumerate(_section(raw, "conditions", list))
    ]
    objective_raw = raw.get("objective")
    if objective_raw is not None:
        name = _require(objective_raw, "name", "objective")
        if name not in ("shannon", "von_neumann", "fiducial"):
            raise SchemaError(f"objective: unknown name '{name}'")
        if name == "fiducial":
            for m in _of_type(_require(objective_raw, "measurements", "objective"), list, "objective"):
                if not isinstance(m, str) or m not in observables:
                    raise SchemaError(f"objective: unknown measurement '{m}'")
    solver_settings = _solver_settings(_section(raw, "solver", dict))
    return ParsedProblem(model, observables, state_coords, conditions, objective_raw, solver_settings, raw)


def load_problem(path) -> ParsedProblem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(json.load(fh))


def serialize_problem(parsed: ParsedProblem) -> str:
    return dumps_17g(parsed.raw)


def build_region(parsed: ParsedProblem) -> ConvexRegion:
    """The meet of all condition regions."""
    region = whole_space(parsed.model)
    for cond in parsed.conditions:
        region = meet(region, _condition_region(cond, parsed.observables))
    return region


def build_objective(parsed: ParsedProblem) -> Objective:
    raw = parsed.objective_raw
    if raw is None:
        if parsed.model.kind == POLYTOPE:
            measurements = tuple(parsed.observables[k] for k in sorted(parsed.observables))
            if not measurements:
                raise SchemaError("polytope problems need observables or an explicit objective")
            return FiducialMeasurementEntropy(measurements)
        return default_objective(parsed.model)
    name = raw["name"]
    if name == "shannon":
        return Shannon()
    if name == "von_neumann":
        return VonNeumann()
    measurements = tuple(parsed.observables[k] for k in raw["measurements"])
    return FiducialMeasurementEntropy(measurements)


def _solver_settings(raw: dict) -> dict:
    settings = {}
    if "tolerance" in raw:
        settings["grad_tol"] = positive_finite(raw["tolerance"], "solver tolerance")
    if "max_iter" in raw:
        settings["max_iter"] = settings["fw_max_iter"] = _iteration_cap(raw["max_iter"], "solver max_iter")
    return settings


def solver_config_from(parsed: ParsedProblem, tolerance=None, max_iter=None) -> SolverConfig:
    changes = dict(parsed.solver_settings)
    if tolerance is not None:
        changes["grad_tol"] = positive_finite(tolerance, "--tolerance")
    if max_iter is not None:
        changes["max_iter"] = changes["fw_max_iter"] = _iteration_cap(max_iter, "--max-iter")
    return dataclasses.replace(DEFAULT_SOLVER, **changes) if changes else DEFAULT_SOLVER


# ---------------------------------------------------------------------------
# Region files
# ---------------------------------------------------------------------------


@dataclass
class ParsedRegion:
    model: ModelSpace
    region: ConvexRegion
    raw: dict


def parse_region(raw: dict) -> ParsedRegion:
    parsed = parse_problem({k: v for k, v in raw.items() if k != "region"} | {"conditions": []})
    model = parsed.model
    section = _section(raw, "region", dict)
    constraints = []
    for i, entry in enumerate(_section(section, "constraints", list)):
        context = f"region constraint {i}"
        if "functional" in _of_type(entry, dict, context):
            functional = _parse_functional(model, entry["functional"], context)
            target = _number(_require(entry, "target", context), context)
            constraints.append(LinearConstraint(model, functional, target))
        else:
            cond = _parse_condition(entry, parsed.observables, context)
            constraints.extend(_condition_region(cond, parsed.observables).h_rep)
    generators = None
    if "generators" in section:
        generators = tuple(
            State(model, _parse_state_coords(model, entry, f"region generator {i}"))
            for i, entry in enumerate(_of_type(section["generators"], list, "region generators"))
        )
    region = ConvexRegion(model, tuple(constraints), generators)
    return ParsedRegion(model, region, raw)


def load_region(path) -> ParsedRegion:
    with open(path, encoding="utf-8") as fh:
        return parse_region(json.load(fh))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def state_to_jsonable(state: Optional[State]) -> Optional[dict]:
    if state is None:
        return None
    model = state.model
    if model.kind == QUANTUM:
        return {"matrix": complex_matrix_to_jsonable(state.density_matrix().entries)}
    if model.kind == CLASSICAL:
        return {"probabilities": state.coords.tolist()}
    return {"coords": state.coords.tolist(), "point": state.point().tolist()}


def functional_to_jsonable(model: ModelSpace, functional: np.ndarray) -> dict:
    if model.kind == QUANTUM:
        return {"matrix": complex_matrix_to_jsonable(model.coords_to_matrix(functional).entries)}
    return {"vector": functional.tolist()}


def solution_report(solution: MaxEntSolution, wall_time_ms: float) -> dict:
    return {
        "status": solution.status.value,
        "state": state_to_jsonable(solution.state),
        "multipliers": solution.multipliers.tolist(),
        "lambda0": solution.lambda0,
        "entropy": solution.entropy,
        "residuals": None if solution.residuals is None else solution.residuals.tolist(),
        "iterations": solution.iterations,
        "wall_time_ms": wall_time_ms,
    }


def region_report(region: ConvexRegion, deduplicated: Optional[int] = None) -> dict:
    report = {
        "model": model_to_jsonable(region.model),
        "constraints": [
            functional_to_jsonable(region.model, c.functional) | {"target": c.target}
            for c in region.h_rep
        ],
        "generators": None
        if region.v_rep is None
        else [state_to_jsonable(s) for s in region.v_rep],
        "known_empty": region.known_empty,
    }
    if deduplicated is not None:
        report["deduplicated"] = deduplicated
    return report
