"""CLI behavior: exit codes, report contents, determinism."""

import glob
import json
from pathlib import Path

import numpy as np
import pytest

from gmaxent.cli import main

GIBBS_ENTROPY = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))

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
        ],
        ids=["state-dimension", "vector-entry", "target", "dimension-zero",
             "observables-array", "condition-number", "max-iter-text", "outcomes-number", "measurements-number",
             "max-iter-negative", "tolerance-negative"],
    )
    def test_malformed_file_is_a_schema_error(self, tmp_path, capsys, command, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
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

    def test_output_flag(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run(capsys, "solve", "problems/gibbs_qubit.json", "--output", str(target))
        assert code == 0
        assert target.read_text() == out

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
        [[], {"constraints": [1]}, {"constraints": {}}, {"generators": 5}],
        ids=["region-array", "constraint-number", "constraints-object", "generators-number"],
    )
    def test_malformed_region_file_is_a_schema_error(self, tmp_path, capsys, region):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"kind": "classical", "dimension": 2}, "region": region}))
        code, out = run(capsys, "lattice", "meet", str(bad), str(bad))
        assert code == 2
        assert out == ""

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

    def test_infeasible_reported(self, capsys):
        code, out = run(capsys, "oracle", "problems/infeasible_bloch.json", "--resolution", "1e-3")
        assert code == 0
        assert json.loads(out)["status"] == "infeasible"

    @pytest.mark.parametrize("value,expected", [("0", 2), ("-1", 2), ("nan", 2), ("inf", 2), ("1e-300", 7)])
    def test_bad_resolution(self, capsys, value, expected):
        code, out = run(capsys, "oracle", "problems/gibbs_qubit.json", f"--resolution={value}")
        assert code == expected
        assert out == ""


@pytest.mark.parametrize("path", sorted(glob.glob("problems/*.json")))
def test_shipped_file_exit_codes(capsys, path):
    validate_code, _ = run(capsys, "validate", path)
    solve_code, _ = run(capsys, "solve", path)
    assert (validate_code, solve_code) == SHIPPED_EXIT_CODES.get(Path(path).stem, (0, 0))


def test_missing_file(capsys):
    code, _ = run(capsys, "solve", "problems/does_not_exist.json")
    assert code == 2


def test_log_level_env_var(monkeypatch, capsys):
    monkeypatch.setenv("GMAXENT_LOG", "debug")
    code, _ = run(capsys, "validate", "problems/validate_demo.json")
    assert code == 0
    monkeypatch.setenv("GMAXENT_LOG", "quiet")
    code, _ = run(capsys, "solve", "problems/gibbs_qubit.json")
    assert code == 0
