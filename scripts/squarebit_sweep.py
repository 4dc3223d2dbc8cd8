#!/usr/bin/env python3
"""MaxEnt on the square bit under a sweep of x-measurement conditions.

The objective is the summed outcome entropy of the two fiducial measurements
(x and y). Fixing p(x = +1) slides the state along the x axis while the y
marginal stays uniform, so the solution should sit at (2p - 1, 0). A coarse
grid oracle cross-checks each solve; the script exits 1 when a solve does
not converge or its entropy falls more than twice the oracle resolution
below the oracle.
"""

import argparse
import sys

import numpy as np

from gmaxent import (
    Effect,
    FiducialMeasurementEntropy,
    MaxEntProblem,
    Observable,
    Outcome,
    Polytope,
    SolveStatus,
    oracle_maxent,
    region_from_effect,
    solve_polytope,
)


def squarebit():
    model = Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mx = Observable(model, (
        Outcome("+", Effect(model, np.array([0.5, 0.5, 0.0])), 1.0),
        Outcome("-", Effect(model, np.array([0.5, -0.5, 0.0])), -1.0),
    ))
    my = Observable(model, (
        Outcome("+", Effect(model, np.array([0.5, 0.0, 0.5])), 1.0),
        Outcome("-", Effect(model, np.array([0.5, 0.0, -0.5])), -1.0),
    ))
    return model, mx, my


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=9)
    parser.add_argument("--oracle-resolution", type=float, default=2e-3)
    args = parser.parse_args()

    model, mx, my = squarebit()
    objective = FiducialMeasurementEntropy((mx, my))
    print(f"{'p(x+)':>8} {'x':>10} {'y':>10} {'entropy':>12} {'oracle':>12} {'delta':>10}  status")
    worst_gap = -np.inf
    unconverged = 0
    for p in np.linspace(0.1, 0.9, args.steps):
        region = region_from_effect(mx.outcomes[0].effect, float(p))
        problem = MaxEntProblem(model, region, objective)
        sol = solve_polytope(problem)
        oracle = oracle_maxent(problem, args.oracle_resolution)
        x, y = sol.state.point()
        delta = abs(sol.entropy - oracle.entropy)
        worst_gap = max(worst_gap, oracle.entropy - sol.entropy)  # positive iff the oracle beat the solver
        unconverged += sol.status is not SolveStatus.CONVERGED
        print(f"{p:8.3f} {x:10.6f} {y:10.6f} {sol.entropy:12.8f} {oracle.entropy:12.8f} {delta:10.2e}  {sol.status.value}")
    print(f"\nworst oracle-minus-solver gap: {worst_gap:+.3e} (bound {2 * args.oracle_resolution:.1e})")
    print(f"solves not converged: {unconverged} of {args.steps}")
    if worst_gap > 2 * args.oracle_resolution or unconverged:
        sys.exit(1)


if __name__ == "__main__":
    main()
