"""CLI behavior: exit codes, report contents, determinism."""

import argparse
import glob
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmaxent
from gmaxent.cli import _parse_args, build_parser, main

GIBBS_ENTROPY = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))

# A classical problem with one mean condition whose target is TARGET.
MEAN_CONDITION = json.dumps({
    "model": {"kind": "classical", "dimension": 2},
    "observables": {"A": {"outcomes": [{"vector": [1, 0], "value": 0.0}, {"vector": [0, 1], "value": 1.0}]}},
    "conditions": [{"observable": "A", "type": "mean", "target": "TARGET"}],
})

UNIT_SQUARE = {"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}

# (validate, solve) exit codes of the shipped files; every other file gives (0, 0).
SHIPPED_EXIT_CODES = {"povm_invalid": (1, 1), "boundary_sigmaz": (0, 4), "infeasible_bloch": (0, 3)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestValidate:
    def test_valid_file(self, capsys):
        code, out = run(capsys, "validate", "problems/validate_demo.json")
        assert code == 0
        assert "observable E: PASS" in out
        assert "state mixed: PASS" in out

    def test_invalid_povm(self, capsys):
        code, out = run(capsys, "validate", "problems/povm_invalid.json")
        assert code == 1
        assert "observable bad_range: FAIL" in out
        assert "negative" in out and "exceeds unit" in out
        assert "completeness residual" in out

    def test_failed_states_and_conditions(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "model": {"kind": "classical", "dimension": 2},
            "observables": {"A": {"outcomes": [{"label": "x", "vector": [1, 0]}, {"label": "y", "vector": [0, 1]}]}},
            "states": {"outside": {"vector": [1.5, -0.5]}, "inside": {"vector": [0.25, 0.75]}},
            "conditions": [
                {"observable": "A", "type": "mean", "target": 0.5},
                {"observable": "A", "type": "probability", "outcome": "x", "target": 1.5},
            ],
        }))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert out.splitlines() == [
            "observable A: PASS",
            "state outside: FAIL (cone membership violated by 0.5)",
            "state inside: PASS",
            "condition 0: FAIL (mean condition on unvalued observable)",
            "condition 1: FAIL (probability target 1.5 outside [0, 1])",
        ]

    @pytest.mark.parametrize(
        "point,expected,logged",
        [
            ([0.5, 0.5], (0, "state p: PASS\n"), ""),
            ([2.0, 0.5], (1, "state p: FAIL (cone membership violated by 1)\n"), ""),
            # Neither a bare point (2 entries) nor homogeneous coordinates (3 entries).
            ([0.5, 0.5, 0.1, 0.2], (2, ""), "schema error: state p: bad state vector shape (4,)"),
        ],
        ids=["inside", "outside", "length-4"],
    )
    def test_polytope_state_is_a_bare_point(self, tmp_path, capsys, caplog, point, expected, logged):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"model": UNIT_SQUARE, "states": {"p": {"vector": point}}}))
        assert run(capsys, "validate", str(path)) == expected
        assert logged in caplog.text
        assert "Traceback" not in caplog.text

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {"kind": "classical", "dimension": 3e+}}')
        code, _ = run(capsys, "validate", str(bad))
        assert code == 2

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {"kind": "classical"}}')
        code, _ = run(capsys, "validate", str(bad))
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "solve", "oracle"])
    def test_fiducial_objective_without_measurements(self, tmp_path, capsys, command):
        raw = json.loads(Path("problems/squarebit_center.json").read_text())
        raw["objective"] = {"name": "fiducial", "measurements": []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "raw",
        [
            {
                "model": {"kind": "quantum", "dimension": 2},
                "states": {"rho": {"matrix": [[[1 / 3, 0]] * 3] * 3}},
            },
            {
                "model": {"kind": "classical", "dimension": 2},
                "observables": {"A": {"outcomes": [{"vector": ["x", 1]}, {"vector": [1, 0]}]}},
            },
            {
                "model": {"kind": "classical", "dimension": 2},
                "observables": {"A": {"outcomes": [
                    {"vector": [1, 0], "value": 0.0}, {"vector": [0, 1], "value": 1.0},
                ]}},
                "conditions": [{"observable": "A", "type": "mean", "target": "high"}],
            },
            {"model": {"kind": "classical", "dimension": 0}},
            {"model": {"kind": "classical", "dimension": 2}, "observables": []},
            {"model": {"kind": "classical", "dimension": 2}, "conditions": [1]},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"max_iter": "many"}},
            {"model": {"kind": "classical", "dimension": 2}, "observables": {"A": {"outcomes": 3}}},
            {"model": {"kind": "classical", "dimension": 2}, "objective": {"name": "fiducial", "measurements": 3}},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"max_iter": -1}},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"tolerance": -1e-10}},
            MEAN_CONDITION.replace('"TARGET"', "NaN"),
            MEAN_CONDITION.replace('"TARGET"', "Infinity"),
            MEAN_CONDITION.replace('"TARGET"', "-Infinity"),
            MEAN_CONDITION.replace('"TARGET"', "1e999"),
            {
                "model": {"kind": "quantum", "dimension": 2},
                "observables": {"Z": {"outcomes": [
                    {"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]]},
                    {"matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
                ]}},
            },
            {"model": {"kind": "classical", "dimension": 2.5}},
            {"model": {"kind": "quantum", "dimension": True}},
            {"model": {"kind": "classical", "dimension": "2"}},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"max_iter": 2.5}},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"max_iter": True}},
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"max_iter": "7"}},
            MEAN_CONDITION.replace('"TARGET"', '"0.25"'),
            {"model": {"kind": "classical", "dimension": 2}, "solver": {"tolerance": "1e-3"}},
            {
                "model": {"kind": "classical", "dimension": 2},
                "observables": {"A": {"outcomes": [{"vector": [True, False]}, {"vector": [False, True]}]}},
            },
            MEAN_CONDITION.replace('"value": 0.0', '"value": true').replace('"TARGET"', "0.5"),
            {
                "model": {"kind": "quantum", "dimension": 2},
                "states": {"rho": {"matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}},
            },
            {
                "model": {"kind": "polytope", "vertices": [["1", 1], [1, -1], [-1, 1], [-1, -1]]},
                "observables": {"X": {"outcomes": [{"vector": [0.5, 0.5, 0]}, {"vector": [0.5, -0.5, 0]}]}},
            },
            {"model": {"kind": "polytope", "vertices": []}},
            {"model": {"kind": "polytope", "vertices": [1, -1]}},
            {
                "model": {"kind": "classical", "dimension": 2},
                "observables": {"A": {"outcomes": [{"label": "x", "vector": [1, 0]}, {"label": "x", "vector": [0, 1]}]}},
                "conditions": [{"observable": "A", "type": "probability", "outcome": "x", "target": 0.2}],
            },
        ],
        ids=["state-dimension", "vector-entry", "target", "dimension-zero",
             "observables-array", "condition-number", "max-iter-text", "outcomes-number", "measurements-number",
             "max-iter-negative", "tolerance-negative", "target-nan", "target-infinity", "target-minus-infinity",
             "target-overflow", "matrix-nan", "dimension-float", "dimension-bool", "dimension-string",
             "max-iter-float", "max-iter-bool", "max-iter-string", "target-string", "tolerance-string",
             "vector-bool", "value-bool", "matrix-string", "vertices-string", "vertices-empty",
             "vertices-flat", "duplicate-label"],
    )
    def test_malformed_file_is_a_schema_error(self, tmp_path, capsys, command, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        code, out = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""


class TestSolve:
    def test_gibbs(self, capsys):
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "converged"
        assert abs(report["entropy"] - GIBBS_ENTROPY) <= 1e-8
        assert abs(report["multipliers"][0] - np.log(7.0 / 3.0)) <= 1e-8
        assert report["state"]["matrix"][0][0][0] == pytest.approx(0.7, abs=1e-8)

    def test_infeasible_exit_code(self, capsys):
        code, out = run(capsys, "solve", "problems/infeasible_bloch.json")
        assert code == 3
        assert json.loads(out)["status"] == "infeasible"

    def test_boundary_exit_code(self, capsys):
        code, out = run(capsys, "solve", "problems/boundary_sigmaz.json")
        assert code == 4
        report = json.loads(out)
        assert report["status"] == "boundary_only"
        assert report["state"]["matrix"][0][0][0] == pytest.approx(1.0, abs=1e-3)
        assert '"entropy": 0.0,' in out

    def test_no_conditions(self, capsys):
        code, out = run(capsys, "solve", "problems/validate_demo.json")
        assert code == 0
        report = json.loads(out)
        assert (report["status"], report["iterations"], report["multipliers"]) == ("converged", 0, [])
        assert report["entropy"] == pytest.approx(np.log(2.0), rel=1e-15)

    def test_classical_uniform(self, capsys):
        code, out = run(capsys, "solve", "problems/classical_uniform_d7.json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["entropy"] - np.log(7.0)) <= 1e-10
        np.testing.assert_allclose(report["state"]["probabilities"], np.full(7, 1 / 7), atol=1e-12)

    def test_squarebit(self, capsys):
        code, out = run(capsys, "solve", "problems/squarebit_x09.json")
        assert code == 0
        report = json.loads(out)
        assert report["state"]["point"][0] == pytest.approx(0.8, abs=1e-5)

    def test_effect_condition(self, capsys):
        code, out = run(capsys, "solve", "problems/effect_condition_qubit.json")
        assert code == 0
        expected = -(0.125 * np.log(0.125) + 0.875 * np.log(0.875))
        assert json.loads(out)["entropy"] == pytest.approx(expected, abs=1e-8)

    def test_non_convergence_exit_code(self, capsys):
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json", "--max-iter", "1")
        assert code == 5
        assert json.loads(out)["status"] == "non_convergence"

    def test_max_iter_caps_frank_wolfe(self, capsys):
        code, out = run(capsys, "solve", "problems/squarebit_x09.json", "--max-iter", "0")
        assert code == 5
        report = json.loads(out)
        assert report["status"] == "non_convergence"
        assert report["iterations"] == 0

    def test_negative_max_iter_flag_is_a_schema_error(self, capsys):
        code, out = run(capsys, "solve", "--max-iter=-1", "problems/gibbs_qubit.json")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_flag_is_a_schema_error(self, capsys, value):
        code, out = run(capsys, "solve", f"--tolerance={value}", "problems/gibbs_qubit.json")
        assert code == 2
        assert out == ""

    def test_invalid_povm_blocks_solve(self, tmp_path, capsys):
        raw = json.loads(Path("problems/povm_invalid.json").read_text())
        raw["conditions"] = []
        path = tmp_path / "p.json"
        path.write_text(json.dumps(raw))
        code, _ = run(capsys, "solve", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "condition,message",
        [
            ({"observable": "A", "type": "probability", "outcome": "x", "target": 1.5},
             "validation failure: effect probability target 1.5 outside [0, 1]"),
            ({"observable": "A", "type": "mean", "target": 0.5}, "validation failure: mean-value region needs outcome values"),
        ],
        ids=["probability-target", "unvalued-mean"],
    )
    def test_invalid_condition_is_a_validation_failure(self, tmp_path, capsys, caplog, condition, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "model": {"kind": "classical", "dimension": 2},
            "observables": {"A": {"outcomes": [{"label": "x", "vector": [1, 0]}, {"label": "y", "vector": [0, 1]}]}},
            "conditions": [condition],
        }))
        assert run(capsys, "solve", str(path)) == (1, "")
        assert message in caplog.text

    def test_output_flag(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json", "--output", str(target))
        assert code == 0
        assert target.read_text() == out

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_output_write_failure(self, tmp_path, capsys, caplog, target):
        path = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json", "--output", str(path))
        assert code == 2
        assert json.loads(out)["status"] == "converged"
        assert f"cannot write {path}: " in caplog.text

    def test_deterministic_given_seed(self, capsys):
        _, out1 = run(capsys, "solve", "problems/gibbs_qubit.json")
        _, out2 = run(capsys, "solve", "problems/gibbs_qubit.json")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
        assert r1 == r2


class TestLattice:
    def test_leq_whole_space(self, capsys):
        code, out = run(capsys, "lattice", "leq", "problems/region_whole_quantum.json", "problems/region_sigmaz_mean0.json")
        assert code == 0
        assert json.loads(out)["result"] is False
        code, out = run(capsys, "lattice", "leq", "problems/region_sigmaz_mean0.json", "problems/region_whole_quantum.json")
        assert code == 0
        assert json.loads(out)["result"] is True

    def test_meet_reports_dedup(self, capsys):
        code, out = run(capsys, "lattice", "meet", "problems/region_classical3_plane.json", "problems/region_classical3_plane.json")
        assert code == 0
        report = json.loads(out)
        assert len(report["constraints"]) == 1
        assert report["deduplicated"] == 1

    @pytest.mark.parametrize(
        "other,deduplicated,empty",
        [("region_point_top", 4, False), ("region_point_bottom", 4, True), ("region_sigmax_mean0", 1, False)],
    )
    def test_meet_counts_a_generator_side_by_its_hull_constraints(self, capsys, other, deduplicated, empty):
        # A point of Quantum(2) enters a meet as the 4 constraints of its affine hull; its own are duplicates,
        # the other point's conflict with them, and sigma_x's mean 0 is one of them.
        code, out = run(capsys, "lattice", "meet", "problems/region_point_top.json", f"problems/{other}.json")
        report = json.loads(out)
        assert (code, len(report["constraints"]), report["deduplicated"], report["known_empty"]) == (
            0, 4, deduplicated, empty
        )

    def test_meet_of_quantum_constraints(self, capsys):
        code, out = run(capsys, "lattice", "meet", "problems/region_sigmax_mean0.json", "problems/region_sigmaz_mean0.json")
        assert code == 0
        report = json.loads(out)
        assert (report["model"], report["generators"], report["known_empty"], report["deduplicated"]) == (
            {"kind": "quantum", "dimension": 2}, None, False, 0
        )
        # Each functional is written back as its matrix, in [re, im] pairs: sigma_x, then sigma_z.
        sigma_x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        sigma_z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        assert [c["target"] for c in report["constraints"]] == [0.0, 0.0]
        for got, want in zip(report["constraints"], (sigma_x, sigma_z)):
            np.testing.assert_allclose(got["matrix"], want, rtol=0, atol=1e-15)

    def test_join_quantum_hrep_unsupported(self, capsys):
        code, _ = run(capsys, "lattice", "join", "problems/region_sigmaz_mean0.json", "problems/region_sigmax_mean0.json")
        assert code == 6

    def test_join_points(self, capsys):
        code, out = run(capsys, "lattice", "join", "problems/region_point_top.json", "problems/region_point_bottom.json")
        assert code == 0
        report = json.loads(out)
        assert len(report["generators"]) == 2

    @pytest.mark.parametrize(
        "region",
        [
            [], {"constraints": [1]}, {"constraints": {}}, {"generators": 5},
            '{"constraints": [{"functional": {"vector": [1, 0]}, "target": NaN}]}',
            '{"constraints": [{"functional": {"vector": [1, Infinity]}, "target": 0.5}]}',
            '{"constraints": [{"functional": {"vector": [1, 0]}, "target": -Infinity}]}',
            '{"generators": [{"vector": [1e999, 0]}]}',
        ],
        ids=["region-array", "constraint-number", "constraints-object", "generators-number",
             "target-nan", "functional-infinity", "target-minus-infinity", "generator-overflow"],
    )
    def test_malformed_region_file_is_a_schema_error(self, tmp_path, capsys, region):
        bad = tmp_path / "bad.json"
        region = region if isinstance(region, str) else json.dumps(region)
        bad.write_text('{"model": {"kind": "classical", "dimension": 2}, "region": ' + region + "}")
        code, out = run(capsys, "lattice", "meet", str(bad), str(bad))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_empty_generator_list_is_the_empty_region(self, tmp_path, capsys, kind):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "model": {"kind": kind, "dimension": 3 if kind == "classical" else 2},
            "region": {"constraints": [], "generators": []},
        }))
        whole = f"problems/region_{'classical3_whole' if kind == 'classical' else 'whole_quantum'}.json"
        for op, other in (("meet", whole), ("join", str(empty))):
            code, out = run(capsys, "lattice", op, str(empty), other)
            assert code == 0
            report = json.loads(out)
            assert report["known_empty"] is True
            assert report["constraints"] == []
        code, out = run(capsys, "lattice", "leq", whole, str(empty))
        assert (code, json.loads(out)) == (0, {"result": False})
        code, out = run(capsys, "lattice", "leq", str(empty), whole)
        assert (code, json.loads(out)) == (0, {"result": True})

    def test_join_past_the_enumeration_cap(self, tmp_path, capsys):
        # Classical(11) with two constraints passed the old cap of 12 on constraint
        # count plus ambient dimension; the vertex walk has no such cap.
        paths = []
        for i in (1, 2):
            functional = np.zeros(11)
            functional[i] = 1.0
            constraints = [{"functional": {"vector": [1.0] + [0.0] * 10}, "target": 0.25},
                           {"functional": {"vector": functional.tolist()}, "target": 0.25}]
            path = tmp_path / f"region{i}.json"
            path.write_text(json.dumps({"model": {"kind": "classical", "dimension": 11},
                                        "region": {"constraints": constraints}}))
            paths.append(str(path))
        code, out = run(capsys, "lattice", "join", *paths)
        assert code == 0
        report = json.loads(out)
        # Each side has 9 vertices: p0 = pi = 0.25 and the other half on one of 9 outcomes.
        assert len(report["generators"]) == 18 and not report["known_empty"]
        hull = tmp_path / "join.json"
        generators = [{"vector": g["probabilities"]} for g in report["generators"]]
        hull.write_text(json.dumps({"model": report["model"], "region": {"constraints": [], "generators": generators}}))
        for side in paths:
            code, out = run(capsys, "lattice", "leq", side, str(hull))
            assert (code, json.loads(out)) == (0, {"result": True})
        # region2 fixes p2 = 0.25, and over region1 p2 spans [0, 0.5].
        code, out = run(capsys, "lattice", "leq", *paths)
        assert (code, json.loads(out)) == (0, {"result": False})

    def test_join_then_meet_classical(self, capsys):
        code, out = run(capsys, "lattice", "meet", "problems/region_classical3_pair.json", "problems/region_classical3_plane.json")
        assert code == 0
        report = json.loads(out)
        assert not report["known_empty"]


class TestOracle:
    def test_compare_gibbs(self, capsys):
        code, out = run(capsys, "oracle", "problems/gibbs_qubit.json", "--resolution", "1e-3", "--compare")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "feasible"
        assert report["entropy_delta"] <= 2e-3

    def test_compare_takes_the_solver_flags(self, capsys):
        code, out = run(capsys, "oracle", "problems/gibbs_qubit.json", "--compare", "--max-iter", "0", "--tolerance", "1e-3")
        assert code == 0
        assert json.loads(out)["solver_status"] == "non_convergence"

    def test_classical_compare(self, capsys):
        code, out = run(capsys, "oracle", "problems/classical_d3_mean.json", "--resolution", "1e-3", "--compare")
        assert code == 0
        report = json.loads(out)
        assert report["entropy_delta"] <= 2e-3

    def test_unsupported_dimension(self, tmp_path, capsys):
        raw = {
            "model": {"kind": "quantum", "dimension": 3},
            "observables": {},
            "conditions": [],
            "objective": {"name": "von_neumann"},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        code, _ = run(capsys, "oracle", str(path), "--resolution", "1e-2")
        assert code == 7

    def test_invalid_povm_refused_as_by_solve(self, capsys, caplog):
        code, out = run(capsys, "oracle", "problems/povm_invalid.json", "--resolution", "1e-2", "--compare")
        assert (code, out) == (1, "")
        oracle_log = caplog.text
        caplog.clear()
        assert run(capsys, "solve", "problems/povm_invalid.json") == (1, "")
        assert "observable bad_range failed validation: " in oracle_log and oracle_log == caplog.text

    def test_infeasible_reported(self, capsys):
        code, out = run(capsys, "oracle", "problems/infeasible_bloch.json", "--resolution", "1e-3")
        assert code == 0
        assert json.loads(out)["status"] == "infeasible"

    @pytest.mark.parametrize("value,expected", [("0", 2), ("-1", 2), ("nan", 2), ("inf", 2), ("1e-300", 7)])
    def test_bad_resolution(self, capsys, value, expected):
        code, out = run(capsys, "oracle", "problems/gibbs_qubit.json", f"--resolution={value}")
        assert code == expected
        assert out == ""


class TestRepeatedCalls:
    """One process calls ``main`` many times; no call sees another's arguments."""

    def test_overrides_do_not_carry_over(self, capsys):
        _, plain = run(capsys, "solve", "problems/gibbs_qubit.json")
        _, overridden = run(capsys, "solve", "problems/gibbs_qubit.json", "--tolerance", "1e-3", "--max-iter", "3")
        _, plain_again = run(capsys, "solve", "problems/gibbs_qubit.json")
        reports = [json.loads(text) for text in (plain, overridden, plain_again)]
        for report in reports:
            report.pop("wall_time_ms")
        assert reports[1] != reports[0]
        assert reports[2] == reports[0]

    def test_subcommands_in_sequence(self, capsys):
        code, out = run(capsys, "lattice", "leq", "problems/region_sigmaz_mean0.json", "problems/region_whole_quantum.json")
        assert (code, json.loads(out)) == (0, {"result": True})
        code, out = run(capsys, "validate", "problems/validate_demo.json")
        assert code == 0
        assert "observable E: PASS" in out
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json")
        assert code == 0
        assert json.loads(out)["status"] == "converged"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["validate", "problems/validate_demo.json"], ["--tolerance", "1e-3"]),
            (["validate", "problems/validate_demo.json"], ["--max-iter=-1"]),
            (["lattice", "leq", "problems/region_sigmaz_mean0.json", "problems/region_whole_quantum.json"],
             ["--max-iter", "3"]),
            (["lattice", "meet", "problems/region_classical3_plane.json", "problems/region_classical3_pair.json"],
             ["--tolerance", "1e-3"]),
        ],
        ids=["validate-tolerance", "validate-max-iter", "lattice-max-iter", "lattice-tolerance"],
    )
    def test_solver_flags_only_on_commands_that_solve(self, capsys, argv, flag):
        # validate and lattice solve nothing, so they reject the flags instead of ignoring them.
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        code, out = run(capsys, *argv)
        assert code == 0
        assert out

    def test_good_call_after_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "problems/gibbs_qubit.json", "--max-iter", "many"])
        assert exc.value.code == 2
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json")
        assert code == 0
        assert json.loads(out)["status"] == "converged"


# argv that parse, per command with options before and after the positionals; files are named, not read.
GOOD_ARGV = {
    "validate": ["validate", "p.json"],
    "validate-output-first": ["validate", "--output", "o.json", "p.json"],
    "validate-output-equals": ["validate", "p.json", "--output=o.json"],
    "solve": ["solve", "p.json"],
    "solve-flags-after": ["solve", "p.json", "--tolerance", "1e-3", "--max-iter", "3", "--output", "o.json"],
    "solve-flags-first-equals": ["solve", "--max-iter=3", "--tolerance=1e-3", "--output=o.json", "p.json"],
    "lattice": ["lattice", "meet", "a.json", "b.json"],
    "lattice-output-after": ["lattice", "join", "a.json", "b.json", "--output", "o.json"],
    "lattice-output-first-equals": ["lattice", "--output=o.json", "leq", "a.json", "b.json"],
    "oracle": ["oracle", "p.json"],
    "oracle-flags-after": ["oracle", "p.json", "--resolution", "1e-2", "--compare", "--max-iter", "4"],
    "oracle-flags-first-equals": ["oracle", "--compare", "--resolution=1e-2", "--tolerance=1e-3", "p.json"],
}

# argv that exit: help exits 0, every other row 2.
BAD_ARGV = {
    "no-argv": [],
    "unknown-command": ["nosuch", "p.json"],
    "help": ["-h"],
    "validate-help": ["validate", "-h"],
    "solve-help": ["solve", "--help"],
    "lattice-help": ["lattice", "-h"],
    "oracle-help": ["oracle", "p.json", "-h"],
    "missing-path": ["solve"],
    "lattice-missing-path": ["lattice", "meet", "a.json"],
    "max-iter-many": ["solve", "p.json", "--max-iter", "many"],
    "validate-unknown-flag": ["validate", "p.json", "--bogus"],
    "solve-unknown-flag": ["solve", "p.json", "--bogus"],
    "lattice-unknown-flag": ["lattice", "leq", "a.json", "b.json", "--bogus", "x"],
    "oracle-unknown-flag": ["oracle", "p.json", "--bogus"],
    "lattice-bogus-op": ["lattice", "bogus", "a.json", "b.json"],
}


def parse_outcome(capsys, parse, argv):
    """(the Namespace or the SystemExit code, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,parses",
    [(argv, True) for argv in GOOD_ARGV.values()] + [(argv, False) for argv in BAD_ARGV.values()],
    ids=[*GOOD_ARGV, *BAD_ARGV],
)
def test_command_parse_matches_parse_args(capsys, monkeypatch, argv, parses):
    # Every argv parses, or exits with the same code and output, as the top-level parse_args has it; a known
    # command is parsed by its subparser alone.
    parser, commands = build_parser()
    expected = parse_outcome(capsys, parser.parse_args, argv)
    assert isinstance(expected[0], argparse.Namespace) == parses
    parse_known_args, parsers = argparse.ArgumentParser.parse_known_args, []

    def recorded(self, *args):
        parsers.append(self)
        return parse_known_args(self, *args)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
    assert parse_outcome(capsys, _parse_args, argv) == expected
    if argv and argv[0] in commands:
        assert parsers == [commands[argv[0]]]
    else:
        assert parsers[0] is parser


@pytest.mark.parametrize("path", sorted(glob.glob("problems/*.json")))
def test_shipped_file_exit_codes(capsys, path):
    validate_code, _ = run(capsys, "validate", path)
    solve_code, _ = run(capsys, "solve", path)
    assert (validate_code, solve_code) == SHIPPED_EXIT_CODES.get(Path(path).stem, (0, 0))


def test_missing_file(capsys):
    code, _ = run(capsys, "solve", "problems/does_not_exist.json")
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "solve", "lattice", "oracle"])
@pytest.mark.parametrize("input_kind", ["directory", "utf-16", "missing"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, caplog, command, input_kind):
    # A path that cannot be opened or decoded as UTF-8 exits 2 with one log line, empty stdout, no traceback.
    path = tmp_path / "input.json"
    if input_kind == "directory":
        path.mkdir()
    elif input_kind == "utf-16":
        path.write_bytes(b"\xff\xfe" + json.dumps(UNIT_SQUARE).encode("utf-16-le"))
    argv = ["lattice", "leq", "problems/gibbs_qubit.json", str(path)] if command == "lattice" else [command, str(path)]
    code, out = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert [(r.levelname, r.getMessage().split(":")[0]) for r in caplog.records] == [("ERROR", "cannot read input")]
    assert "Traceback" not in caplog.text


def test_module_entry_point(capsys, monkeypatch):
    # python -m gmaxent reads its arguments from sys.argv and exits with main's code.
    monkeypatch.setattr(sys, "argv", ["gmaxent", "solve", "problems/infeasible_bloch.json"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("gmaxent", run_name="__main__")
    assert exit_info.value.code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


# Runs one solve per GMAXENT_LOG level given on the command line, all in one
# process, and ends each call's stderr with a marker line.
LOG_LEVELS_IN_ONE_PROCESS = """
import os, sys
from gmaxent.cli import main
for level in sys.argv[1:]:
    os.environ["GMAXENT_LOG"] = level
    print(main(["solve", "problems/gibbs_qubit.json"]), file=sys.stderr)
    print("--- end of call ---", file=sys.stderr)
"""


def test_log_level_env_var():
    # A fresh process, because pytest's own root handlers hide what the CLI's
    # logging set-up does on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(gmaxent.__file__).resolve().parents[1]))
    for levels in (["info", "quiet"], ["quiet", "info", "debug"]):
        result = subprocess.run(
            [sys.executable, "-c", LOG_LEVELS_IN_ONE_PROCESS, *levels],
            capture_output=True, text=True, env=env, check=True,
        )
        calls = result.stderr.split("--- end of call ---\n")
        assert calls[-1] == ""
        assert [call.splitlines()[-1] for call in calls[:-1]] == ["0"] * len(levels)
        assert [("INFO solve finished" in call) for call in calls[:-1]] == [level != "quiet" for level in levels]
