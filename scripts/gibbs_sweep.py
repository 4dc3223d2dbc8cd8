#!/usr/bin/env python3
"""Sweep the mean-energy condition on a qubit and compare with closed forms.

For H = diag(0, 1) and the condition <H> = t, the entropy maximizer is the
Gibbs state diag(1-t, t) with multiplier ln((1-t)/t), so every solver output
can be checked analytically. Targets on the boundary t in {0, 1} must be
reported boundary-only, and targets just outside [0, 1] infeasible. Targets
just inside the boundary must converge with the closed-form entropy; their
multiplier deviation is printed but not bounded, since the gradient
tolerance over t(1-t) exceeds MAX_DEVIATION there. The script exits 1 when a
solve inside does not converge, a multiplier or entropy deviates from its
closed form by more than MAX_DEVIATION, or a boundary or outside target gets
another status.
"""

import argparse
import sys

import numpy as np

from gmaxent import (
    MaxEntProblem,
    Quantum,
    SolveStatus,
    VonNeumann,
    region_from_mean,
    solve_dual,
    spectral_observable,
)

MAX_DEVIATION = 1e-8
EXPECTED_STATUS = {
    -1e-3: SolveStatus.INFEASIBLE,
    -1e-6: SolveStatus.INFEASIBLE,
    0.0: SolveStatus.BOUNDARY_ONLY,
    1.0: SolveStatus.BOUNDARY_ONLY,
    1.0 + 1e-6: SolveStatus.INFEASIBLE,
    1.0 + 1e-3: SolveStatus.INFEASIBLE,
}
NEAR_BOUNDARY_INSIDE = (1e-3, 1e-4, 1e-6, 1.0 - 1e-4, 1.0 - 1e-6)


def binary_entropy(t):
    return -(t * np.log(t) + (1.0 - t) * np.log(1.0 - t))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=19)
    args = parser.parse_args()

    model = Quantum(2)
    hamiltonian = spectral_observable(model, np.diag([0.0, 1.0]).astype(complex))

    def solve_at(t):
        return solve_dual(MaxEntProblem(model, region_from_mean(hamiltonian, float(t)), VonNeumann()))

    print(f"{'target':>8} {'lambda1':>12} {'lambda1*':>12} {'entropy':>12} {'entropy*':>12} {'iters':>6}")
    worst = 0.0
    unconverged = 0
    for t in np.linspace(0.05, 0.95, args.steps):
        sol = solve_at(t)
        if sol.status is not SolveStatus.CONVERGED:
            unconverged += 1
            print(f"{t:8.3f} {sol.status.value}")
            continue
        lam_exact = np.log((1.0 - t) / t)
        ent_exact = binary_entropy(t)
        worst = max(worst, abs(sol.multipliers[0] - lam_exact), abs(sol.entropy - ent_exact))
        print(
            f"{t:8.3f} {sol.multipliers[0]:12.8f} {lam_exact:12.8f} "
            f"{sol.entropy:12.8f} {ent_exact:12.8f} {sol.iterations:6d}"
        )
    print(f"\n{'target':>10} {'status':>14} {'lambda1 dev':>12} {'entropy dev':>12} {'iters':>6}")
    for t in NEAR_BOUNDARY_INSIDE:
        sol = solve_at(t)
        if sol.status is not SolveStatus.CONVERGED:
            unconverged += 1
            print(f"{t:10.6f} {sol.status.value:>14}")
            continue
        ent_dev = abs(sol.entropy - binary_entropy(t))
        worst = max(worst, ent_dev)
        lam_dev = abs(sol.multipliers[0] - np.log((1.0 - t) / t))
        print(f"{t:10.6f} {sol.status.value:>14} {lam_dev:12.3e} {ent_dev:12.3e} {sol.iterations:6d}")
    print(f"\n{'target':>10} {'status':>14} {'expected':>14} {'iters':>6}")
    mismatched = 0
    for t, expected in EXPECTED_STATUS.items():
        sol = solve_at(t)
        mismatched += sol.status is not expected
        print(f"{t:10.6f} {sol.status.value:>14} {expected.value:>14} {sol.iterations:6d}")
    print(f"\nworst deviation from closed form: {worst:.3e} (bound {MAX_DEVIATION:.1e})")
    print(f"solves not converged: {unconverged} of {args.steps + len(NEAR_BOUNDARY_INSIDE)}")
    print(f"boundary and outside targets with another status: {mismatched} of {len(EXPECTED_STATUS)}")
    if worst > MAX_DEVIATION or unconverged or mismatched:
        sys.exit(1)


if __name__ == "__main__":
    main()
