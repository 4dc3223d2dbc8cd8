"""Problem and region files, and machine-readable reports.

One structured JSON format. Complex numbers are two-element arrays [re, im],
matrices are row-major nested lists of those pairs, and every float is
emitted with 17 significant digits so that parse -> serialize -> parse is
lossless. Every number read must be a finite JSON number: NaN, Infinity,
literals that overflow to inf, strings and booleans are schema errors.

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
      "solver": {"tolerance": 1e-9, "max_iter": 500}   # optional; a "seed" key
    }                                                  # is accepted and ignored

An outcome's label defaults to its index; the labels of one observable are distinct.
"max_iter" caps Newton and Frank-Wolfe iterations alike; "tolerance" bounds
the dual gradient of a Newton solve and the gap of a Frank-Wolfe solve.

Classical and polytope effects/states use "vector" instead of "matrix"; a
polytope effect vector is the affine form (constant, linear part) over the
vertex coordinates, and a polytope state vector is its bare point in R^k.

Region files replace "conditions" with a "region" section holding
"constraints" (observable/effect references or literal functionals) and
optional "generators"; an empty "generators" list is the empty region.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str, without the encoder set-up
from typing import Any, Optional

import numpy as np

from .errors import GmaxentError
from .hermitian import _HERMITICITY_ATOL
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
    _sealed,
)
from .regions import ConvexRegion, LinearConstraint, meet, region_from_effect, region_from_mean, whole_space
from .solver import (
    DEFAULT_SOLVER,
    FiducialMeasurementEntropy,
    MaxEntSolution,
    Objective,
    Shannon,
    SolverConfig,
    VonNeumann,
    default_objective,
)


class SchemaError(GmaxentError):
    """Structurally invalid input file (missing keys, bad shapes, unknown names)."""


# ---------------------------------------------------------------------------
# 17-significant-digit JSON
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text:  # an integral value; "g" writes no "E"
        text += ".0"
    return text


def dumps_17g(obj: Any) -> str:
    """JSON text with floats at 17 significant digits (lossless round trip)."""

    def emit(o, depth):
        kind = type(o)  # a report's floats, lists and dicts are matched by exact type before the isinstance chain
        if kind is float:
            return _format_float(o)
        if kind is not list and kind is not dict:
            if o is None:
                return "null"
            if isinstance(o, bool):
                return "true" if o else "false"
            if isinstance(o, (int, np.integer)):
                return str(int(o))
            if isinstance(o, (float, np.floating)):
                return _format_float(float(o))
            if isinstance(o, str):
                return _json_string(o)
            if not isinstance(o, (list, tuple, dict)):
                raise TypeError(f"cannot serialize {type(o)!r}")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        pad_in = "  " * (depth + 1)
        if isinstance(o, dict):
            parts = [f"{_json_string(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()]
            return "{\n" + pad_in + (",\n" + pad_in).join(parts) + "\n" + "  " * depth + "}"
        parts = [emit(v, depth + 1) for v in o]
        inner = ", ".join(parts)
        if len(inner) <= 72 and "\n" not in inner:
            return f"[{inner}]"
        return "[\n" + pad_in + (",\n" + pad_in).join(parts) + "\n" + "  " * depth + "]"

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


def _shape(raw, context: str, expected: str) -> tuple[int, ...]:
    """The shape of nested lists of JSON numbers; a ragged nesting, a string, a boolean or any other leaf, and an
    integer past the float range, are schema errors."""
    shape, level = [], [raw]
    while level and isinstance(level[0], list):
        n = len(level[0])
        if not all(isinstance(item, list) and len(item) == n for item in level):
            raise SchemaError(f"{context}: {expected}")
        shape.append(n)
        level = [x for item in level for x in item]
    for x in level:
        if not (isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max)):
            raise SchemaError(f"{context}: {expected}, got {x!r}")
    return tuple(shape)


def _numbers(raw, context: str, expected: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array, checked by ``_shape``."""
    _shape(raw, context, expected)
    return np.asarray(raw, dtype=float)


def _number(raw, context: str) -> float:
    if isinstance(raw, list):
        raise SchemaError(f"{context}: expected a number, got {raw!r}")
    return float(_numbers(raw, context, "expected a number"))


def _integer(raw, context: str, minimum: int) -> int:
    """``raw`` when it is an integer of at least ``minimum``; a float, a boolean or a string is not one."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < minimum:
        raise SchemaError(f"{context}: expected an integer >= {minimum}, got {raw!r}")
    return raw


def positive_finite(raw, context: str) -> float:
    tol = _number(raw, context)
    if not 0.0 < tol < np.inf:
        raise SchemaError(f"{context}: expected a positive finite number, got {raw!r}")
    return tol


def _real_vector(raw: dict, context: str) -> np.ndarray:
    return _numbers(_require(raw, "vector", context), context, "vector entries must be numbers")


def complex_matrix_to_jsonable(m: np.ndarray) -> list:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*np.shape(m), 2).tolist()


def parse_model(raw: dict) -> ModelSpace:
    kind = _require(raw, "kind", "model")
    try:
        if kind == CLASSICAL:
            return Classical(_integer(_require(raw, "dimension", "model"), "model dimension", 1))
        if kind == QUANTUM:
            return Quantum(_integer(_require(raw, "dimension", "model"), "model dimension", 1))
        if kind == POLYTOPE:
            return Polytope(_numbers(_require(raw, "vertices", "model"), "model", "vertex coordinates must be numbers"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"model: {exc}") from exc
    raise SchemaError(f"model: unknown kind '{kind}'")


def model_to_jsonable(model: ModelSpace) -> dict:
    if model.kind == POLYTOPE:
        return {"kind": POLYTOPE, "vertices": model.vertices[:, 1:].tolist()}
    return {"kind": model.kind, "dimension": model.dim}


def _quantum_coords(model: Quantum, entries: list, contexts: list) -> list[np.ndarray]:
    """Coordinates of each entry's Hermitian "matrix", read as one stack by one conversion, one complex build and one
    Hermiticity check; an error names the context of the first entry at fault. Each matrix gets its own
    ``matrix_to_coords``, since a product over stacked rows can round apart from the same product over one."""
    raws = [_require(entry, "matrix", context) for entry, context in zip(entries, contexts)]
    for raw, context in zip(raws, contexts):
        shape = _shape(raw, context, "matrix entries must be [re, im] pairs of numbers")
        if len(shape) != 3 or shape[0] != shape[1] or shape[2] != 2:
            raise SchemaError(f"{context}: expected d x d x 2 nested arrays, got {shape}")
        if shape[0] != model.dim:
            raise SchemaError(f"{context}: matrix dimension {shape[0]} != model {model.dim}")
    pairs = np.array(raws, dtype=float).reshape(len(raws), model.dim, model.dim, 2)
    matrices = pairs[..., 0] + 1j * pairs[..., 1]
    asymmetry = np.abs(matrices - matrices.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    for context, gap in zip(contexts, asymmetry):
        if not gap <= _HERMITICITY_ATOL:
            raise SchemaError(f"{context}: matrix is not Hermitian")
    return [model.matrix_to_coords(m) for m in matrices]


def _functionals(model: ModelSpace, entries: list, contexts: list) -> list[np.ndarray]:
    """Each entry's functional: a quantum "matrix", or a classical or polytope "vector"."""
    if model.kind == QUANTUM:
        return _quantum_coords(model, entries, contexts)
    functionals = [_real_vector(entry, context) for entry, context in zip(entries, contexts)]
    for vec, context in zip(functionals, contexts):
        if vec.shape != (model.ambient_dim,):
            layout = " (constant, then linear part)" if model.kind == POLYTOPE else ""
            raise SchemaError(f"{context}: expected {model.ambient_dim} components{layout}, got {vec.shape}")
    return functionals


def _parse_state_coords(model: ModelSpace, raw: dict, context: str) -> np.ndarray:
    if model.kind == QUANTUM:
        return _quantum_coords(model, [raw], [context])[0]
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


def parse_problem(raw: dict) -> ParsedProblem:
    if not isinstance(raw, dict):
        raise SchemaError("problem file must be a JSON object")
    model = parse_model(_require(raw, "model", "problem"))
    observables: dict[str, Observable] = {}
    for name, body in _section(raw, "observables", dict).items():
        outs = []
        entries = _of_type(_require(body, "outcomes", f"observable {name}"), list, f"observable {name} outcomes")
        contexts = [f"observable {name}, outcome {i}" for i in range(len(entries))]
        functionals = _functionals(model, entries, contexts)
        for i, (entry, context, functional) in enumerate(zip(entries, contexts, functionals)):
            label = str(entry.get("label", i))
            if any(out.label == label for out in outs):
                raise SchemaError(f"{context}: duplicate label '{label}'")
            value = entry.get("value")
            value = None if value is None else _number(value, context)
            outs.append(Outcome(label, Effect(model, _sealed(functional), check=False), value))
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
            measurements = _of_type(_require(objective_raw, "measurements", "objective"), list, "objective")
            if not measurements:
                raise SchemaError("objective: a fiducial objective needs at least one measurement")
            for m in measurements:
                if not isinstance(m, str) or m not in observables:
                    raise SchemaError(f"objective: unknown measurement '{m}'")
    solver_settings = _solver_settings(_section(raw, "solver", dict))
    return ParsedProblem(model, observables, state_coords, conditions, objective_raw, solver_settings)


def _finite_float(text: str) -> float:
    """A JSON number literal or the constant NaN, Infinity or -Infinity, accepted only when finite."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"number {text} is not finite")
    return value


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)


def load_problem(path) -> ParsedProblem:
    return parse_problem(_load_json(path))


def build_region(parsed: ParsedProblem) -> ConvexRegion:
    """The meet of all condition regions, taken as one meet of their constraints: a chain of meets keeps the same."""
    constraints = tuple(c for cond in parsed.conditions for c in _condition_region(cond, parsed.observables).h_rep)
    return meet(whole_space(parsed.model), ConvexRegion(parsed.model, constraints))


def build_objective(parsed: ParsedProblem) -> Objective:
    raw = parsed.objective_raw
    if raw is None:
        if parsed.model.kind == POLYTOPE:
            measurements = tuple(parsed.observables[k] for k in sorted(parsed.observables))
            if not measurements:
                raise SchemaError("polytope problems need observables or an explicit objective")
            return FiducialMeasurementEntropy(measurements)
        return default_objective(parsed.model)
    if raw["name"] != "fiducial":
        return {"shannon": Shannon, "von_neumann": VonNeumann}[raw["name"]]()
    return FiducialMeasurementEntropy(tuple(parsed.observables[k] for k in raw["measurements"]))


def _solver_settings(raw: dict, names=("solver tolerance", "solver max_iter")) -> dict:
    """SolverConfig fields set by the "tolerance" and "max_iter" entries of raw, checked under names."""
    settings = {}
    if "tolerance" in raw:
        settings["grad_tol"] = settings["fw_gap_tol"] = positive_finite(raw["tolerance"], names[0])
    if "max_iter" in raw:
        settings["max_iter"] = settings["fw_max_iter"] = _integer(raw["max_iter"], names[1], 0)
    return settings


def solver_config_from(parsed: ParsedProblem, tolerance=None, max_iter=None) -> SolverConfig:
    """The file's solver settings, overridden by the --tolerance and --max-iter values that are given."""
    flags = {key: v for key, v in (("tolerance", tolerance), ("max_iter", max_iter)) if v is not None}
    changes = parsed.solver_settings | _solver_settings(flags, ("--tolerance", "--max-iter"))
    return dataclasses.replace(DEFAULT_SOLVER, **changes) if changes else DEFAULT_SOLVER


# ---------------------------------------------------------------------------
# Region files
# ---------------------------------------------------------------------------


def parse_region(raw: dict) -> ConvexRegion:
    parsed = parse_problem({k: v for k, v in raw.items() if k != "region"} | {"conditions": []})
    model = parsed.model
    section = _section(raw, "region", dict)
    constraints = []
    for i, entry in enumerate(_section(section, "constraints", list)):
        context = f"region constraint {i}"
        if "functional" in _of_type(entry, dict, context):
            (functional,) = _functionals(model, [entry["functional"]], [context])
            target = _number(_require(entry, "target", context), context)
            constraints.append(LinearConstraint(model, _sealed(functional), target))
        else:
            cond = _parse_condition(entry, parsed.observables, context)
            constraints.extend(_condition_region(cond, parsed.observables).h_rep)
    generators = None
    if "generators" in section:
        generators = tuple(
            State(model, _sealed(_parse_state_coords(model, entry, f"region generator {i}")))
            for i, entry in enumerate(_of_type(section["generators"], list, "region generators"))
        )
    return ConvexRegion(model, tuple(constraints), generators)


def load_region(path) -> ConvexRegion:
    return parse_region(_load_json(path))


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
            functional_to_jsonable(region.model, c.functional) | {"target": c.target} for c in region.h_rep
        ],
        "generators": None if region.v_rep is None else [state_to_jsonable(s) for s in region.v_rep],
        "known_empty": region.known_empty,
    }
    if deduplicated is not None:
        report["deduplicated"] = deduplicated
    return report
