"""File-format tests: lossless round trips and schema rejection."""

import glob
import json

import numpy as np
import pytest

from gmaxent import SolveStatus, solve
from gmaxent.io import (
    SchemaError,
    build_objective,
    build_region,
    dumps_17g,
    load_problem,
    load_region,
    parse_problem,
    serialize_problem,
    solution_report,
    solver_config_from,
)

PROBLEM_FILES = [p for p in sorted(glob.glob("problems/*.json")) if "region_" not in p]
REGION_FILES = [p for p in sorted(glob.glob("problems/region_*.json"))]

TRICKY_FLOATS = [0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, np.pi, 2.0 ** -1074, -0.3e-8, 1.0]


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


class TestProblemRoundTrip:
    @pytest.mark.parametrize("path", PROBLEM_FILES)
    def test_shipped_files_round_trip(self, path):
        first = load_problem(path)
        text = serialize_problem(first)
        second = parse_problem(json.loads(text))
        assert first.raw == second.raw
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
        first = load_region(path)
        second = load_region(path)
        assert first.raw == second.raw
        assert len(first.region.h_rep) == len(second.region.h_rep)


class TestSchemaErrors:
    def test_unknown_model_kind(self):
        with pytest.raises(SchemaError):
            parse_problem({"model": {"kind": "fuzzy", "dimension": 2}})

    def test_missing_model(self):
        with pytest.raises(SchemaError):
            parse_problem({})

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


class TestReports:
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
    def test_overrides(self):
        parsed = load_problem("problems/gibbs_qubit.json")
        config = solver_config_from(parsed)
        assert config.grad_tol == 1e-10 and config.max_iter == 500
        config = solver_config_from(parsed, tolerance=1e-6, max_iter=17)
        assert config.grad_tol == 1e-6 and config.max_iter == 17

    def test_max_iter_caps_frank_wolfe(self):
        parsed = load_problem("problems/squarebit_x09.json")
        assert solver_config_from(parsed).fw_max_iter == 5000
        assert solver_config_from(parsed, max_iter=17).fw_max_iter == 17
        parsed.raw["solver"] = {"max_iter": 9}
        assert solver_config_from(parse_problem(parsed.raw)).fw_max_iter == 9

    def test_polytope_objective_required_information(self):
        raw = {
            "model": {"kind": "polytope", "vertices": [[1.0], [-1.0]]},
            "observables": {},
            "conditions": [],
        }
        parsed = parse_problem(raw)
        with pytest.raises(SchemaError):
            build_objective(parsed)
