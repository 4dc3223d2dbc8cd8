"""LP core tests: revised two-phase simplex.

Both phases price by the most negative reduced cost in the first improving
block, with Bland's rule after a degenerate pivot.
"""

import numpy as np
import pytest

from gmaxent import Classical, random_effect, random_state
from gmaxent.regions import LinearConstraint, _weight_system
from gmaxent.simplex import FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, Basis, feasible_basis, phase_one, solve_lp

from helpers import reference_phase_one, reference_solve_lp


def test_maximize_over_simplex():
    # max 2x + y on {x + y + z = 1, all >= 0} -> vertex (1, 0, 0)
    result = solve_lp([2.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], maximize=True)
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert result.value == 2.0


def test_minimize_with_two_constraints():
    # min x1 on {x1 + x2 = 1, x2 + x3 = 0.4}
    result = solve_lp([1.0, 0.0, 0.0], [[1, 1, 0], [0, 1, 1]], [1.0, 0.4])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [0.6, 0.4, 0.0], atol=1e-12)


def test_infeasible():
    result = solve_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert result.status == INFEASIBLE


def test_unbounded():
    result = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert result.status == UNBOUNDED


def test_negative_rhs_handled():
    result = solve_lp([1.0, 1.0], [[-1.0, 0.0]], [-0.5])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [0.5, 0.0], atol=1e-12)


def test_redundant_rows():
    result = solve_lp([0.0, 1.0], [[1, 1], [2, 2]], [1.0, 2.0])
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-12)


def test_degenerate_vertex_terminates():
    # Degenerate basic solutions: pricing must still terminate.
    a = [[1, 1, 1, 0], [1, 0, 0, 1]]
    b = [1.0, 1.0]
    result = solve_lp([0.0, -1.0, 0.0, 0.0], a, b)
    assert result.status == OPTIMAL


def test_phase_two_enters_the_most_negative_reduced_cost():
    # Phase I ends at the vertex e_0. Bland's rule would enter column 1 (the
    # smallest improving index) and then column 2; Phase II enters column 2,
    # whose reduced cost is the most negative, in one pivot.
    basis = feasible_basis([[1.0, 1.0, 1.0]], [1.0])
    np.testing.assert_array_equal(basis.x(), [1.0, 0.0, 0.0])
    start = basis._pivots
    result = basis.optimize([1.0, 2.0, 5.0], maximize=True)
    np.testing.assert_array_equal(result.x, [0.0, 0.0, 1.0])
    assert basis._pivots - start == 1


def test_degenerate_fallback_terminates_on_beales_cycling_lp():
    # Beale's (1955) LP, slack columns first: from the slack basis, pricing by
    # the most negative reduced cost alone cycles through degenerate pivots.
    # Phase II switches to Bland's rule after a degenerate pivot, so it ends
    # at the optimum that HiGHS reports. The slack basis is built by pivoting
    # each slack column into its row of the all-artificial basis.
    a = [[1, 0, 0, 0.25, -8, -1, 9], [0, 1, 0, 0.5, -12, -0.5, 3], [0, 0, 1, 0, 0, 1, 0]]
    b = [0.0, 0.0, 1.0]
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    basis = Basis(a, b)
    for row in range(3):
        basis._pivot(row, row, basis._inv_x[:, :-1] @ basis._a[:, row])
    np.testing.assert_array_equal(basis._basis, [0, 1, 2])
    np.testing.assert_array_equal(basis.x(), [0, 0, 1, 0, 0, 0, 0])
    start = basis._pivots
    result = basis.optimize(c)
    assert result.status == OPTIMAL
    assert result.value == pytest.approx(-1.25, abs=1e-12)
    assert np.max(np.abs(np.asarray(a) @ result.x - b)) <= 1e-12
    assert basis._pivots - start <= 10


def test_phase_one_feasible():
    residual, x = phase_one([[1.0, 1.0]], [1.0])
    assert residual <= 1e-12
    assert x is not None and abs(x.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("scale", [100.0, 1e4])
def test_phase_one_witness_meets_the_system(scale):
    # Classical(3) with s (0, 1, 2) . x = 2 s - 1e-9: Phase I ends with an artificial basic at about -1e-9, within
    # FEASIBILITY_TOL; the witness is read once it is driven out, so it is the exact vertex that feasible_basis gives.
    a = np.array([[1.0, 1.0, 1.0], [0.0, scale, 2.0 * scale]])
    b = np.array([1.0, 2.0 * scale - 1e-9])
    residual, x = phase_one(a, b)
    assert 0.0 < residual <= FEASIBILITY_TOL
    assert np.abs(a @ x - b).max() <= 1e-12
    np.testing.assert_array_equal(x, feasible_basis(a, b).x())


def test_phase_one_infeasible_reports_residual():
    residual, x = phase_one([[1.0, 1.0], [1.0, 1.0]], [1.0, 3.0])
    assert x is None
    assert residual >= 1.0


def test_random_lps_match_bruteforce_vertices():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        c = rng.standard_normal(n)
        a = np.vstack([np.ones(n), rng.standard_normal(n)])
        anchor = rng.dirichlet(np.ones(n))
        b = np.array([1.0, float(a[1] @ anchor)])
        result = solve_lp(c, a, b, maximize=True)
        assert result.status == OPTIMAL
        # feasibility of the reported point
        np.testing.assert_allclose(a @ result.x, b, atol=1e-8)
        assert np.min(result.x) >= -1e-12
        # optimality vs. the anchor point (a known feasible point)
        assert result.value >= float(c @ anchor) - 1e-8


# ---------------------------------------------------------------------------
# Property test: the revised simplex against the dense-tableau reference in
# helpers.py and against HiGHS.
# ---------------------------------------------------------------------------

LP_FAMILIES = ("generic", "degenerate", "redundant", "negative_rhs", "infeasible", "unbounded")


def _random_lp(rng, family):
    """(c, a, b) of one family; feasible and bounded unless the family says otherwise."""
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 2, 10))
    if family == "degenerate":
        # Small integer entries tie ratio tests; a duplicated column ties
        # pricing; a sparse anchor makes the feasible vertex degenerate.
        a = np.vstack([np.ones(n), rng.integers(-1, 3, (m - 1, n))]).astype(float)
        a[:, -1] = a[:, 0]
        anchor = np.zeros(n)
        anchor[rng.choice(n, size=max(1, m - 1), replace=False)] = 1.0
        anchor /= anchor.sum()
        c = rng.integers(-2, 3, n).astype(float)
        return c, a, a @ anchor
    c = rng.standard_normal(n)
    anchor = rng.dirichlet(np.ones(n))
    if family == "unbounded":
        # Columns u and -u make a recession direction along which c decreases.
        a = rng.standard_normal((m, n))
        a[:, 1] = -a[:, 0]
        c[1] = -c[0] - 1.0
        return c, a, a @ anchor
    a = np.vstack([np.ones(n), rng.standard_normal((m - 1, n))])
    b = a @ anchor
    if family == "redundant":
        mix = rng.standard_normal((2, m))
        a, b = np.vstack([a, mix @ a]), np.concatenate([b, mix @ b])
    elif family == "negative_rhs":
        flip = np.arange(len(b)) % 2 == 1
        a[flip] *= -1.0
        b[flip] *= -1.0
        b[0] = -b[0]
        a[0] = -a[0]
    elif family == "infeasible":
        b[-1] = np.max(a[-1]) + 0.5  # beyond every convex combination of the columns
    return c, a, b


def _wide_weight_system(rng):
    """The classical dual's Phase I system: Classical(10^4), m = 32 random effects."""
    model = Classical(10_000)
    interior = random_state(model, rng)
    functionals = [random_effect(model, rng).functional for _ in range(32)]
    constraints = [LinearConstraint(model, f, float(f @ interior.coords)) for f in functionals]
    return _weight_system(model, constraints)


def _highs(c, a, b, maximize):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(-c if maximize else c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    return status, (None if status != OPTIMAL else (-res.fun if maximize else res.fun))


def _check_against_references(c, a, b, maximize):
    result = solve_lp(c, a, b, maximize=maximize)
    reference = reference_solve_lp(c, a, b, maximize=maximize)
    highs_status, highs_value = _highs(c, a, b, maximize)
    assert result.status == reference.status == highs_status
    if result.status == OPTIMAL:
        scale = max(1.0, abs(reference.value))
        assert abs(result.value - reference.value) <= 1e-9 * scale
        assert abs(result.value - highs_value) <= 1e-9 * scale
        assert np.min(result.x) >= 0.0
        assert np.max(np.abs(a @ result.x - b)) <= 1e-8
        assert abs(result.value - float(c @ result.x)) <= 1e-12 * scale

    residual, x = phase_one(a, b)
    ref_residual, ref_x = reference_phase_one(a, b)
    assert (x is None) == (ref_x is None) == (result.status == INFEASIBLE)
    if x is not None:
        assert residual <= 1e-8
        assert np.max(np.abs(a @ x - b)) <= 1e-8
        np.testing.assert_allclose(x, ref_x, atol=1e-9)  # the same Phase I pivots as the reference
    else:
        assert abs(residual - ref_residual) <= 1e-9 * max(1.0, ref_residual)


@pytest.mark.parametrize("family", LP_FAMILIES)
@pytest.mark.parametrize("seed", range(4))
def test_random_lps_match_reference_and_highs(family, seed):
    rng = np.random.default_rng([seed, LP_FAMILIES.index(family)])
    for _ in range(10):
        c, a, b = _random_lp(rng, family)
        for maximize in (False, True):
            _check_against_references(c, a, b, maximize)


def test_wide_classical_weight_system():
    rng = np.random.default_rng(11)
    a, b = _wide_weight_system(rng)
    residual, x = phase_one(a, b)
    _, ref_x = reference_phase_one(a, b)
    assert residual <= 1e-12
    assert np.max(np.abs(a @ x - b)) <= 1e-8
    np.testing.assert_allclose(x, ref_x, atol=1e-12)  # the same Phase I pivots as the reference

    c = rng.standard_normal(a.shape[1])
    result = solve_lp(c, a, b)
    highs_status, highs_value = _highs(c, a, b, False)
    assert result.status == highs_status == OPTIMAL
    assert abs(result.value - highs_value) <= 1e-9 * max(1.0, abs(highs_value))
    assert np.max(np.abs(a @ result.x - b)) <= 1e-8


def test_cost_shape_checked_before_phase_one(monkeypatch):
    import gmaxent.simplex

    monkeypatch.setattr(gmaxent.simplex, "_phase_one", lambda *args: pytest.fail("Phase I ran"))
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0, 3.0], [[1.0, 1.0]], [1.0])


def test_basis_checks_its_shapes():
    with pytest.raises(ValueError, match="^inconsistent LP shapes$"):
        Basis([[1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="^inconsistent LP shapes$"):
        Basis([[1.0, 1.0]], [1.0]).optimize([1.0, 2.0, 3.0])


def test_constant_large_cost_is_optimal_at_once():
    # c is 100 times the condition's row, so c . x is the same at every feasible
    # x; its reduced costs are rounding noise of order 1e-10, below the floor
    # 1e-13 max|c| = 2e-7, where an absolute floor of 1e-10 cycled to the pivot budget.
    model = Classical(3)
    a, b = _weight_system(model, (LinearConstraint(model, np.array([2e4, 1e4, -1e4]), 14811.252869568007),))
    for maximize in (False, True):
        result = solve_lp((2e6, 1e6, -1e6), a, b, maximize=maximize)
        assert result.status == OPTIMAL
        assert abs(result.value - 1481125.2869568006) <= 1e-6


def test_basic_solutions_pass_through_a_degenerate_vertex():
    # x = (1, 0, 0, 0) is basic for {0, 1}, {0, 2} and {0, 3}; {1, 2} is singular.
    basis = feasible_basis([[1, 1, 1, 0], [1, 0, 0, 1]], [1.0, 1.0])
    expected = [[1, 0, 0, 0]] * 3 + [[0, 1, 0, 1], [0, 0, 1, 1]]
    np.testing.assert_allclose(basis.basic_solutions(), expected, atol=1e-12)
