"""File-format tests: lossless round trips and schema rejection."""

import dataclasses
import glob
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmaxent import (
    DEFAULT_SOLVER,
    FiducialMeasurementEntropy,
    HermitianMatrix,
    MaxEntProblem,
    MaxEntSolution,
    Polytope,
    Quantum,
    SolverConfig,
    SolveStatus,
    State,
    solve,
)
from gmaxent.io import (
    SchemaError,
    build_objective,
    build_region,
    dumps_17g,
    load_problem,
    load_region,
    model_to_jsonable,
    parse_model,
    parse_problem,
    solution_report,
    solver_config_from,
)

from helpers import random_hermitian, region_eq

PROBLEM_FILES = [p for p in sorted(glob.glob("problems/*.json")) if "region_" not in p]
REGION_FILES = [p for p in sorted(glob.glob("problems/region_*.json"))]


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

TRICKY_FLOATS = [0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, np.pi, 2.0 ** -1074, -0.3e-8, 1.0]

GOLDEN_LAYOUT = """\
{
  "empty_list": [],
  "empty_dict": {},
  "short": [1, 2.0, -0.5, true, null, "x"],
  "wraps": [
    0.10000000000000001,
    0.33333333333333331,
    1e-300,
    12345678901234568.0,
    -2.4999999999999999e-08,
    7,
    false
  ],
  "dicts": [
    {
      "a": 1,
      "b": []
    },
    {
      "c": [1.5, {}]
    }
  ],
  "report": {
    "status": "converged",
    "state": {
      "matrix": [
        [
          [0.33333333333333343, 0.0],
          [0.088388347648318447, -0.044194173824159223],
          [0.0, 0.022097086912079612]
        ],
        [
          [0.088388347648318447, 0.044194173824159223],
          [0.33333333333333343, 0.0],
          [-0.070710678118654766, 0.0]
        ],
        [
          [0.0, -0.022097086912079612],
          [-0.070710678118654766, -0.0],
          [0.33333333333333343, 0.0]
        ]
      ]
    },
    "multipliers": [0.75, -0.0015],
    "lambda0": 1.0986122886681098,
    "entropy": 1.0859000000000001,
    "residuals": [3.0000000000000001e-12, -9.9999999999999994e-12],
    "iterations": 4,
    "wall_time_ms": 1.25
  }
}
"""


class TestDumps17g:
    def test_float_round_trip(self):
        for x in TRICKY_FLOATS:
            text = dumps_17g({"x": x})
            assert json.loads(text)["x"] == x

    def test_floats_stay_floats(self):
        parsed = json.loads(dumps_17g({"x": 1.0, "n": 1}))
        assert isinstance(parsed["x"], float)
        assert isinstance(parsed["n"], int)

    def test_nested_structures(self):
        obj = {"a": [1, 2.5, [0.1, {"b": None, "c": True}]], "d": "text"}
        assert json.loads(dumps_17g(obj)) == obj

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_17g({"x": float("nan")})

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
            dumps_17g({"x": {1.0}})

    @pytest.mark.parametrize(
        "obj,text",
        [
            (np.float64(0.1), "0.10000000000000001\n"),
            (np.int64(-7), "-7\n"),
            (True, "true\n"),
            ((1, 2.5, "a"), '[1, 2.5, "a"]\n'),
            ([], "[]\n"),
            ({}, "{}\n"),
            (
                [[0.1, 0.2, 0.30000000000000004], [1e-300, -2.5, (3, np.float64(4.0))], [[], {}]],
                "[\n  [0.10000000000000001, 0.20000000000000001, 0.30000000000000004],\n"
                "  [1e-300, -2.5, [3, 4.0]],\n  [[], {}]\n]\n",
            ),
            ([np.float64(2.0), (np.int64(3),), {"k": (True, False, None)}],
             '[\n  2.0,\n  [3],\n  {\n    "k": [true, false, null]\n  }\n]\n'),
        ],
        ids=["float64", "int64", "true", "tuple", "empty-list", "empty-dict", "wrapped-nest", "mixed"],
    )
    def test_golden_types(self, obj, text):
        # Numpy scalars, booleans and tuples take the isinstance path, the report's floats, lists and dicts
        # the exact-type one; both print the same text. The nest's inline form passes 72 characters, so it wraps.
        assert dumps_17g(obj) == text

    def test_golden_layout(self):
        # Every layout branch: empty containers, a list short enough for one
        # line, one that wraps, dicts inside a list, and a qutrit report whose
        # matrix nests wrapped lists three deep. The state's only diagonal
        # coordinate is the identity's, so its matrix is the same on any BLAS.
        model = Quantum(3)
        coords = np.array([1 / np.sqrt(3), 0.125, -0.0625, 0.0, 0.03125, -0.1, 0.0, 0.0, 0.0])
        solution = MaxEntSolution(
            state=State(model, coords),
            multipliers=np.array([0.75, -1.5e-3]),
            lambda0=1.0986122886681098,
            entropy=1.0859,
            iterations=np.int64(4),
            residuals=np.array([3e-12, -1e-11]),
            status=SolveStatus.CONVERGED,
        )
        obj = {
            "empty_list": [],
            "empty_dict": {},
            "short": [1, 2.0, -0.5, True, None, "x"],
            "wraps": [0.1, 1 / 3, 1e-300, 12345678901234567.0, -2.5e-8, 7, False],
            "dicts": [{"a": 1, "b": []}, {"c": [1.5, {}]}],
            "report": solution_report(solution, wall_time_ms=1.25),
        }
        assert dumps_17g(obj) == GOLDEN_LAYOUT


class TestProblemRoundTrip:
    @pytest.mark.parametrize("path", PROBLEM_FILES)
    def test_shipped_files_round_trip(self, path):
        raw = load_json(path)
        reread = json.loads(dumps_17g(raw))
        assert reread == raw
        first, second = parse_problem(raw), parse_problem(reread)
        assert list(first.observables) == list(second.observables)
        for name in first.observables:
            a, b = first.observables[name], second.observables[name]
            assert len(a.outcomes) == len(b.outcomes)
            for oa, ob in zip(a.outcomes, b.outcomes):
                assert oa.label == ob.label and oa.value == ob.value
                np.testing.assert_array_equal(oa.effect.functional, ob.effect.functional)
        assert first.conditions == second.conditions

    @pytest.mark.parametrize("path", REGION_FILES)
    def test_shipped_region_files_round_trip(self, path):
        with open(path, encoding="utf-8") as fh:
            section = json.load(fh)["region"]
        first = load_region(path)
        second = load_region(path)
        # One constraint per entry of "constraints", one generator per entry of "generators".
        assert len(first.h_rep) == len(section.get("constraints", []))
        if "generators" in section:
            assert len(first.v_rep) == len(section["generators"])
        else:
            assert first.v_rep is None
        if first.model.kind == "quantum" and first.h_rep and first.v_rep is None:
            # Inclusion of quantum regions without generators is unsupported; compare the constraints.
            for a, b in zip(first.h_rep, second.h_rep, strict=True):
                np.testing.assert_array_equal(a.functional, b.functional)
                assert a.target == b.target
        else:
            assert region_eq(first, second)


class TestSchemaErrors:
    def test_unknown_model_kind(self):
        with pytest.raises(SchemaError):
            parse_problem({"model": {"kind": "fuzzy", "dimension": 2}})

    def test_missing_model(self):
        with pytest.raises(SchemaError):
            parse_problem({})

    @pytest.mark.parametrize("vertices", [[], [[]]])
    def test_polytope_without_vertices(self, vertices):
        with pytest.raises(ValueError, match="at least one vertex"):
            Polytope(vertices)
        with pytest.raises(SchemaError, match="at least one vertex"):
            parse_model({"kind": "polytope", "vertices": vertices})

    def test_fiducial_objective_without_measurements(self):
        raw = load_json("problems/squarebit_center.json")
        raw["objective"] = {"name": "fiducial", "measurements": []}
        with pytest.raises(SchemaError, match="at least one measurement"):
            parse_problem(raw)

    def test_condition_references_unknown_observable(self):
        raw = {
            "model": {"kind": "classical", "dimension": 2},
            "observables": {},
            "conditions": [{"observable": "nope", "type": "mean", "target": 0.5}],
        }
        with pytest.raises(SchemaError):
            parse_problem(raw)

    def test_probability_condition_needs_outcome(self):
        raw = {
            "model": {"kind": "classical", "dimension": 2},
            "observables": {"A": {"outcomes": [{"label": "x", "vector": [1.0, 1.0]}]}},
            "conditions": [{"observable": "A", "type": "probability", "target": 0.5}],
        }
        with pytest.raises(SchemaError):
            parse_problem(raw)

    def test_bad_matrix_shape(self):
        raw = {
            "model": {"kind": "quantum", "dimension": 2},
            "observables": {"A": {"outcomes": [{"label": "x", "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}},
        }
        with pytest.raises(SchemaError):
            parse_problem(raw)

    def test_non_hermitian_matrix(self):
        raw = {
            "model": {"kind": "quantum", "dimension": 2},
            "observables": {
                "A": {
                    "outcomes": [
                        {"label": "x", "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
                    ]
                }
            },
        }
        with pytest.raises(SchemaError):
            parse_problem(raw)

    @pytest.mark.parametrize("asymmetry,accepted", [(5e-11, True), (2e-10, False)], ids=["5e-11", "2e-10"])
    def test_one_hermiticity_bound(self, asymmetry, accepted):
        # A file matrix and a HermitianMatrix pass the same bound on |A - A^dagger|.
        plus = [[0.5, 0.5], [0.5 + asymmetry, 0.5]]
        minus = [[0.5, -0.5], [-0.5, 0.5]]
        outcomes = [{"matrix": [[[x, 0.0] for x in row] for row in m]} for m in (plus, minus)]
        raw = {"model": {"kind": "quantum", "dimension": 2}, "observables": {"X": {"outcomes": outcomes}}}
        if accepted:
            parse_problem(raw)
            m = HermitianMatrix(plus).entries
            assert np.array_equal(m, m.conj().T)
        else:
            with pytest.raises(SchemaError, match="observable X, outcome 0: matrix is not Hermitian"):
                parse_problem(raw)
            with pytest.raises(ValueError, match="not Hermitian"):
                HermitianMatrix(plus)

    @pytest.mark.parametrize(
        "outcome,message",
        [
            ([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "matrix entries must be \\[re, im\\] pairs of numbers$"),
            ([[[0.0, 0.0], ["0", 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "matrix entries must be \\[re, im\\] pairs of numbers, got '0'$"),
            ([[[0.0, 0.0], [2e-10, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "matrix is not Hermitian$"),
            # A caller's dict is not read by the JSON parser, so a NaN reaches the reader.
            ([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [math.nan, 0.0]]], "matrix entries must be \\[re, im\\] pairs of numbers, got nan$"),
        ],
        ids=["ragged", "string-entry", "asymmetry-2e-10", "nan-entry"],
    )
    def test_stacked_outcomes_keep_their_context(self, outcome, message):
        # The outcomes of an observable are read as one stack; an error still names the outcome at fault.
        diagonal = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        outcomes = [{"matrix": m} for m in diagonal + [outcome]]
        raw = {"model": {"kind": "quantum", "dimension": 2}, "observables": {"X": {"outcomes": outcomes}}}
        with pytest.raises(SchemaError, match="^observable X, outcome 2: " + message):
            parse_problem(raw)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
    def test_stacked_coordinates_are_each_outcomes_own(self, seed, d, n):
        # A product over stacked rows can round apart from the same product over one row, so every outcome's
        # coordinates must be those that matrix_to_coords gives its matrix alone, bit for bit.
        rng = np.random.default_rng(seed)
        model = Quantum(d)
        matrices = [random_hermitian(rng, d).entries for _ in range(n)]
        outcomes = [{"matrix": np.stack([m.real, m.imag], axis=-1).tolist()} for m in matrices]
        raw = {"model": {"kind": "quantum", "dimension": d}, "observables": {"X": {"outcomes": outcomes}}}
        parsed = parse_problem(raw)
        for out, m in zip(parsed.observables["X"].outcomes, matrices):
            assert np.array_equal(out.effect.functional, model.matrix_to_coords(m))

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda r: r["conditions"].append({"observable": "MX", "type": "variance", "target": 0.0}),
             "type must be 'mean' or 'probability'"),
            (lambda r: r["conditions"].append({"observable": "MX", "type": "probability", "outcome": "0", "target": 0.5}),
             "observable 'MX' has no outcome '0'"),
            (lambda r: r.update(objective={"name": "renyi"}), "objective: unknown name 'renyi'"),
            (lambda r: r.update(objective={"name": "fiducial", "measurements": ["MX", "MZ"]}),
             "objective: unknown measurement 'MZ'"),
            (lambda r: r["observables"]["MX"]["outcomes"][0].update(vector=[[0.5, 0.5], [0.0]]),
             "observable MX, outcome 0: vector entries must be numbers$"),
            (lambda r: r["observables"]["MX"]["outcomes"][1].update(label="+"),
             "observable MX, outcome 1: duplicate label '\\+'$"),
            # Outcome 1's default label is its index, which outcome 0 already carries.
            (lambda r: (r["observables"]["MY"]["outcomes"][0].update(label="1"),
                        r["observables"]["MY"]["outcomes"][1].pop("label")),
             "observable MY, outcome 1: duplicate label '1'$"),
            (lambda r: r["conditions"].append({"observable": "MX", "type": "mean", "target": [0.5]}),
             "expected a number, got \\[0.5\\]$"),
            (lambda r: r["observables"]["MX"]["outcomes"][0].update(vector=[0.5, 0.5]),
             "observable MX, outcome 0: expected 3 components \\(constant, then linear part\\), got \\(2,\\)$"),
        ],
        ids=["condition-type", "outcome-label", "objective-name", "fiducial-measurement", "ragged-vector",
             "duplicate-label", "duplicate-default-label", "list-target", "short-vector"],
    )
    def test_unknown_names_and_ragged_arrays(self, change, message):
        raw = load_json("problems/squarebit_center.json")
        change(raw)
        with pytest.raises(SchemaError, match=message):
            parse_problem(raw)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda r: r["observables"]["A"]["outcomes"][0].update(vector=[math.nan, 0.0]),
             "^observable A, outcome 0: vector entries must be numbers, got nan$"),
            (lambda r: r["observables"]["A"]["outcomes"][1].update(vector=[0.0, math.inf]),
             "^observable A, outcome 1: vector entries must be numbers, got inf$"),
            (lambda r: r["conditions"][0].update(target=math.nan), "^condition 0: expected a number, got nan$"),
            (lambda r: r["observables"]["A"]["outcomes"][0].update(value=-math.inf),
             "^observable A, outcome 0: expected a number, got -inf$"),
        ],
        ids=["nan-vector", "inf-vector", "nan-target", "inf-value"],
    )
    def test_non_finite_numbers_from_a_dict(self, change, message):
        # A caller's dict is not read by the JSON parser, so its floats reach the reader as they are.
        raw = {
            "model": {"kind": "classical", "dimension": 2},
            "observables": {"A": {"outcomes": [{"vector": [1.0, 0.0], "value": 0.0}, {"vector": [0.0, 1.0], "value": 1.0}]}},
            "conditions": [{"observable": "A", "type": "mean", "target": 0.5}],
        }
        parse_problem(raw)
        change(raw)
        with pytest.raises(SchemaError, match=message):
            parse_problem(raw)

    @pytest.mark.parametrize("raw", [[], "problem", 3])
    def test_problem_file_not_an_object(self, raw):
        with pytest.raises(SchemaError, match="problem file must be a JSON object"):
            parse_problem(raw)


class TestReports:
    def test_polytope_model_written_as_constructed(self):
        # The caller's array stays writable; the model and its report keep the points it held.
        points = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        model = Polytope(points)
        points[0, 0] = 5.0
        assert model_to_jsonable(model) == {
            "kind": "polytope",
            "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        }
        np.testing.assert_array_equal(model.vertices[0], [1.0, 1.0, 1.0])

    def test_solution_report_round_trips(self):
        parsed = load_problem("problems/gibbs_qubit.json")
        problem_region = build_region(parsed)
        from gmaxent import MaxEntProblem

        problem = MaxEntProblem(parsed.model, problem_region, build_objective(parsed))
        solution = solve(problem, solver_config_from(parsed))
        report = solution_report(solution, wall_time_ms=1.25)
        recovered = json.loads(dumps_17g(report))
        assert recovered == json.loads(dumps_17g(recovered))
        assert recovered["status"] == SolveStatus.CONVERGED.value
        assert recovered["entropy"] == solution.entropy
        assert recovered["lambda0"] == solution.lambda0

    def test_quantum_state_serialized_as_re_im_pairs(self):
        parsed = load_problem("problems/gibbs_qubit.json")
        from gmaxent import MaxEntProblem

        problem = MaxEntProblem(parsed.model, build_region(parsed), build_objective(parsed))
        solution = solve(problem)
        report = solution_report(solution, 0.0)
        matrix = report["state"]["matrix"]
        arr = np.asarray(matrix, dtype=float)
        assert arr.shape == (2, 2, 2)
        assert arr[0, 0, 0] == pytest.approx(0.7, abs=1e-9)


class TestSolverSection:
    def test_every_field_has_a_caller(self):
        # --tolerance, --max-iter and the solver section set every field.
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["grad_tol", "max_iter", "fw_gap_tol"]

    def test_residual_tol_is_a_constant(self):
        # The benchmark checks dual residuals against residual_tol; no caller sets it.
        assert DEFAULT_SOLVER.residual_tol == SolverConfig.residual_tol == 1e-8
        with pytest.raises(TypeError):
            SolverConfig(residual_tol=1e-6)
        with pytest.raises(TypeError):
            dataclasses.replace(DEFAULT_SOLVER, residual_tol=1e-6)

    def test_one_iteration_cap(self):
        with pytest.raises(TypeError):
            SolverConfig(fw_max_iter=9)

    def test_overrides(self):
        parsed = load_problem("problems/gibbs_qubit.json")
        config = solver_config_from(parsed)
        assert config.grad_tol == 1e-10 and config.max_iter == 500
        config = solver_config_from(parsed, tolerance=1e-6, max_iter=17)
        assert config.grad_tol == 1e-6 and config.max_iter == 17

    def test_max_iter_caps_frank_wolfe(self):
        parsed = load_problem("problems/squarebit_x09.json")
        assert solver_config_from(parsed).max_iter == 500
        assert solver_config_from(parsed, max_iter=17).max_iter == 17
        raw = load_json("problems/squarebit_x09.json")
        raw["solver"] = {"max_iter": 9}
        assert solver_config_from(parse_problem(raw)).max_iter == 9

    def test_tolerance_sets_both_solvers(self):
        parsed = load_problem("problems/squarebit_x09.json")
        config = solver_config_from(parsed, tolerance=1e-3)
        assert config.grad_tol == config.fw_gap_tol == 1e-3
        raw = load_json("problems/squarebit_x09.json")
        raw["solver"] = {"tolerance": 1e-3}
        config = solver_config_from(parse_problem(raw))
        assert config.grad_tol == config.fw_gap_tol == 1e-3

    def test_polytope_without_objective_gets_the_fiducial_one(self):
        # With no "objective", a polytope problem is scored on all its observables, in name order.
        raw = load_json("problems/squarebit_center.json")
        del raw["objective"]
        parsed = parse_problem(raw)
        objective = build_objective(parsed)
        assert objective == FiducialMeasurementEntropy((parsed.observables["MX"], parsed.observables["MY"]))
        assert solve(MaxEntProblem(parsed.model, build_region(parsed), objective)).status is SolveStatus.CONVERGED

    def test_polytope_objective_required_information(self):
        raw = {
            "model": {"kind": "polytope", "vertices": [[1.0], [-1.0]]},
            "observables": {},
            "conditions": [],
        }
        parsed = parse_problem(raw)
        with pytest.raises(SchemaError):
            build_objective(parsed)
