"""Batch front door: validate, solve, lattice queries, and oracle runs.

Exit codes: 0 ok/converged, 1 validation failure, 2 parse error or an
--output path that cannot be written, 3 infeasible, 4 boundary-only,
5 non-convergence, 6 unsupported representation, 7 unsupported instance
(oracle grid cap, or a vertex walk past its cap on bases).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from .errors import (
    GmaxentError,
    InvalidEffect,
    InvalidObservable,
    InvalidState,
    InvalidTarget,
    NoValues,
    Unsupported,
    UnsupportedRepresentation,
)
from .hermitian import HermitianMatrix
from .io import (
    SchemaError,
    build_objective,
    build_region,
    dumps_17g,
    load_problem,
    load_region,
    positive_finite,
    region_report,
    solution_report,
    solver_config_from,
    state_to_jsonable,
)
from .models import QUANTUM, State, check_state_axioms, validate_povm
from .oracle import FEASIBLE, oracle_maxent
from .regions import _effective_h_rep, includes, join, meet
from .solver import MaxEntProblem, SolveStatus, solve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BOUNDARY = 4
EXIT_NON_CONVERGENCE = 5
EXIT_UNSUPPORTED_REP = 6
EXIT_UNSUPPORTED_INSTANCE = 7

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.BOUNDARY_ONLY: EXIT_BOUNDARY,
    SolveStatus.NON_CONVERGENCE: EXIT_NON_CONVERGENCE,
}

log = logging.getLogger("gmaxent")


def _configure_logging():
    level = logging.ERROR if os.environ.get("GMAXENT_LOG") == "quiet" else logging.INFO
    # basicConfig installs the stderr handler once per process; the level is
    # set on the package logger so that every call applies GMAXENT_LOG.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(level)


class _WriteFailure(Exception):
    """The report could not be written to the ``--output`` path."""


def _emit(text: str, output_path):
    sys.stdout.write(text)
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _WriteFailure(f"cannot write {output_path}: {exc.strerror or exc}") from exc


def _computational_basis(dim: int) -> list[HermitianMatrix]:
    return [HermitianMatrix(np.diag(e).astype(complex)) for e in np.eye(dim)]


def cmd_validate(args) -> int:
    parsed = load_problem(args.path)
    failed = False
    lines = []
    for name, obs in parsed.observables.items():
        report = validate_povm(obs)
        if report.valid:
            lines.append(f"observable {name}: PASS")
        else:
            failed = True
            lines.append(f"observable {name}: FAIL ({'; '.join(report.issues())})")
    for name, coords in parsed.state_coords.items():
        try:
            state = State(parsed.model, coords)
        except InvalidState as exc:
            failed = True
            lines.append(f"state {name}: FAIL ({exc})")
            continue
        if parsed.model.kind == QUANTUM:
            axioms = check_state_axioms(state, _computational_basis(parsed.model.dim))
            failed |= not axioms.passed
            verdict = "PASS" if axioms.passed else "FAIL"
            lines.append(f"state {name}: {verdict} (axiom residual {axioms.max_residual():.3g})")
        else:
            lines.append(f"state {name}: PASS")
    for i, cond in enumerate(parsed.conditions):
        obs = parsed.observables[cond.observable]
        if cond.kind == "mean" and not obs.has_values():
            failed = True
            lines.append(f"condition {i}: FAIL (mean condition on unvalued observable)")
        elif cond.kind == "probability" and not 0.0 <= cond.target <= 1.0:
            failed = True
            lines.append(f"condition {i}: FAIL (probability target {cond.target} outside [0, 1])")
        else:
            lines.append(f"condition {i}: PASS")
    _emit("".join(line + "\n" for line in lines), args.output)
    return EXIT_VALIDATION if failed else EXIT_OK


def _checked_problem(parsed) -> MaxEntProblem:
    """The file's MaxEntProblem; a GmaxentError, which exits 1, when one of its observables is not a POVM."""
    for name, obs in parsed.observables.items():
        report = validate_povm(obs)
        if not report.valid:
            raise GmaxentError(f"observable {name} failed validation: {'; '.join(report.issues())}")
    return MaxEntProblem(parsed.model, build_region(parsed), build_objective(parsed))


def cmd_solve(args) -> int:
    parsed = load_problem(args.path)
    problem = _checked_problem(parsed)
    config = solver_config_from(parsed, args.tolerance, args.max_iter)
    start = time.perf_counter()
    solution = solve(problem, config)
    wall_ms = (time.perf_counter() - start) * 1e3
    log.info("solve finished: %s in %d iterations (%.2f ms)", solution.status.value, solution.iterations, wall_ms)
    _emit(dumps_17g(solution_report(solution, wall_ms)), args.output)
    return _STATUS_EXIT[solution.status]


def cmd_lattice(args) -> int:
    region_a = load_region(args.path_a)
    region_b = load_region(args.path_b)
    if args.op == "leq":
        _emit(dumps_17g({"result": bool(includes(region_b, region_a))}), args.output)
        return EXIT_OK
    if args.op == "meet":
        result_region = meet(region_a, region_b)
        dedup = len(_effective_h_rep(region_a)) + len(_effective_h_rep(region_b)) - len(result_region.h_rep)
        _emit(dumps_17g(region_report(result_region, deduplicated=dedup)), args.output)
        return EXIT_OK
    result_region = join(region_a, region_b)
    _emit(dumps_17g(region_report(result_region)), args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    parsed = load_problem(args.path)
    problem = _checked_problem(parsed)
    result = oracle_maxent(problem, positive_finite(args.resolution, "--resolution"))
    report = {
        "status": result.status,
        "entropy": result.entropy,
        "state": state_to_jsonable(result.state),
        "points_scanned": result.points_scanned,
        "resolution": args.resolution,
    }
    if args.compare:
        solution = solve(problem, solver_config_from(parsed, args.tolerance, args.max_iter))
        report["solver_status"] = solution.status.value
        report["solver_entropy"] = solution.entropy
        if result.status == FEASIBLE and solution.entropy is not None:
            report["entropy_delta"] = abs(result.entropy - solution.entropy)
    _emit(dumps_17g(report), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gmaxent`` argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="also write the report to this path")
    common.add_argument("--tolerance", type=float, help="Newton gradient and Frank-Wolfe gap tolerance override")
    common.add_argument("--max-iter", type=int, help="Newton and Frank-Wolfe iteration cap override")

    parser = argparse.ArgumentParser(
        prog="gmaxent",
        description="Maximum-entropy inference over convex operational models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[common], help="validate observables, states, and conditions")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", parents=[common], help="solve the MaxEnt problem in a file")
    p_solve.add_argument("path")
    p_solve.set_defaults(func=cmd_solve)

    p_lattice = sub.add_parser("lattice", parents=[common], help="meet/join/leq of two region files")
    p_lattice.add_argument("op", choices=["meet", "join", "leq"])
    p_lattice.add_argument("path_a")
    p_lattice.add_argument("path_b")
    p_lattice.set_defaults(func=cmd_lattice)

    p_oracle = sub.add_parser("oracle", parents=[common], help="brute-force grid search for small instances")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--resolution", type=float, default=1e-3)
    p_oracle.add_argument("--compare", action="store_true", help="also run the solver and report the delta")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        log.error("parse error at line %d, column %d: %s", exc.lineno, exc.colno, exc.msg)
        return EXIT_PARSE
    except SchemaError as exc:
        log.error("schema error: %s", exc)
        return EXIT_PARSE
    except _WriteFailure as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        log.error("cannot read %s", exc.filename)
        return EXIT_PARSE
    except UnsupportedRepresentation as exc:
        log.error("unsupported representation: %s", exc)
        return EXIT_UNSUPPORTED_REP
    except Unsupported as exc:
        log.error("unsupported instance: %s", exc)
        return EXIT_UNSUPPORTED_INSTANCE
    except (InvalidTarget, NoValues, InvalidState, InvalidEffect, InvalidObservable) as exc:
        log.error("validation failure: %s", exc)
        return EXIT_VALIDATION
    except GmaxentError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())
