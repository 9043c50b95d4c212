from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperfair import simplex
from hyperfair.linalg import RatMatrix
from hyperfair.partition import MAXIMIZE, solve_alpha
from hyperfair.simplex import LpOutcome, LpProblem, LpStatus, certified_solve, simplex_solve

from conftest import random_profile, random_proper_goal, random_target
from oracles import lp_bland_reference, lp_optimum_by_vertices, lp_value_reachable

F = Fraction


def solve(objective, rows, rhs, maximize=True) -> LpOutcome:
    return simplex_solve(LpProblem(
        tuple(F(x) for x in objective),
        RatMatrix.from_rows(rows),
        tuple(F(x) for x in rhs),
        maximize=maximize,
    ))


def test_two_variable_split():
    # max x0 over x0 + x1 = 1: put everything on x0
    out = solve([1, 0], [[1, 1]], [1])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert out.witness == (F(1), F(0))


def test_minimize_flips_the_answer():
    out = solve([1, 0], [[1, 1]], [1], maximize=False)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 0
    assert out.witness == (F(0), F(1))


def test_negative_rhs_rows_are_handled():
    # -x0 - x1 = -1 is the same constraint written upside down
    out = solve([1, 0], [[-1, -1]], [-1])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1


def test_infeasible_system():
    out = solve([1, 0], [[1, 1], [1, 1]], [1, 2])
    assert out.status is LpStatus.INFEASIBLE
    assert out.value is None
    assert out.witness is None


def test_infeasible_by_signs():
    # x0 + x1 = -1 has no nonnegative solution
    out = solve([0, 0], [[1, 1]], [-1])
    assert out.status is LpStatus.INFEASIBLE


def test_unbounded_ray():
    out = solve([1, 0], [[1, -1]], [0])
    assert out.status is LpStatus.UNBOUNDED
    # the oracle agrees that arbitrarily large values stay feasible
    big = F(10**6)
    assert lp_value_reachable((F(1), F(0)), RatMatrix.from_rows([[1, -1]]), (F(0),), big)


def test_redundant_rows_are_dropped_not_fatal():
    out = solve([0, 1], [[1, 1], [2, 2]], [1, 2])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1


def test_degenerate_vertex_terminates():
    # several constraints meet at the same point; Bland's rule must not cycle
    rows = [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 0]]
    out = solve([0, 1, 0, 0], rows, [1, 1, 1])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 0


def test_fractional_data_stays_exact():
    out = solve(["1/3", "1/7"], [["2/5", "3/5"]], ["1/10"])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(1, 3) * F(1, 4)
    assert out.witness == (F(1, 4), F(0))


def _random_lp(rng, nvars, nrows):
    rows = [
        [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars)]
        for _ in range(nrows)
    ]
    # choose the right-hand side as A @ x0 for a nonnegative x0, so the
    # instance is feasible by construction
    x0 = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(nvars)]
    a = RatMatrix.from_rows(rows)
    rhs = a.mat_vec(tuple(x0))
    objective = tuple(F(rng.randint(-2, 2)) for _ in range(nvars))
    return objective, a, rhs


@given(st.integers(1, 4), st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
def test_matches_vertex_enumeration_on_feasible_instances(nvars, nrows, maximize, rng):
    objective, a, rhs = _random_lp(rng, nvars, nrows)
    out = simplex_solve(LpProblem(objective, a, rhs, maximize=maximize))
    assert out.status in (LpStatus.OPTIMAL, LpStatus.UNBOUNDED)
    if out.status is LpStatus.UNBOUNDED:
        # some huge objective value must actually be reachable
        huge = F(10**9) if maximize else F(-(10**9))
        assert lp_value_reachable(objective, a, rhs, huge)
        return
    status, best = lp_optimum_by_vertices(objective, a, rhs, maximize=maximize)
    assert status == "optimal"
    assert out.value == best


@given(st.integers(1, 4), st.integers(1, 3), st.randoms(use_true_random=False))
def test_witness_is_feasible_and_attains_value(nvars, nrows, rng):
    objective, a, rhs = _random_lp(rng, nvars, nrows)
    out = simplex_solve(LpProblem(objective, a, rhs))
    if out.status is not LpStatus.OPTIMAL:
        return
    x = out.witness
    assert all(v >= 0 for v in x)
    assert a.mat_vec(x) == tuple(rhs)
    assert sum((c * v for c, v in zip(objective, x)), F(0)) == out.value


@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_random_infeasible_instances_are_reported(nvars, rng):
    # pin the same linear form to two different values
    row = [F(rng.randint(1, 3)) for _ in range(nvars)]
    a = RatMatrix.from_rows([row, row])
    rhs = (F(1), F(2))
    out = simplex_solve(LpProblem((F(0),) * nvars, a, rhs))
    assert out.status is LpStatus.INFEASIBLE


def _pivot_stress_lp(rng):
    """A small LP built to reach every branch of the two-phase method.

    Entries are small and often zero or tied, so ratio tests tie and
    vertices are degenerate; singleton columns of either sign (crash
    candidates, the negative ones only usable on a zero right-hand
    side) are mixed in; a multiple of an earlier row, possibly negated,
    adds a redundant row; right-hand sides are zero, negative or
    positive, from a nonnegative point or at random (often infeasible).
    """
    nvars, nrows = rng.randint(1, 5), rng.randint(1, 3)
    entries = [0, 0, 0, 1, 1, -1, 2, F(1, 2), F(-3, 2)]
    rows = [[F(rng.choice(entries)) for _ in range(nvars)] for _ in range(nrows)]
    for i in range(nrows):
        if rng.random() < 0.5:
            for k, row in enumerate(rows):
                row.append(F(rng.choice([1, 2, -1])) if k == i else F(0))
    if rng.random() < 0.4:
        source = rng.choice(rows)
        scale = F(rng.choice([1, 2, -1, -2]))
        rows.append([scale * x for x in source])
    ncols = len(rows[0])
    if rng.random() < 0.6:
        point = [F(rng.choice([0, 0, 1, 2])) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, point)), F(0)) for row in rows]
    else:
        rhs = [F(rng.choice([0, 1, -1, 2])) for _ in rows]
    objective = tuple(F(rng.choice([-1, 0, 0, 1, 2])) for _ in range(ncols))
    return objective, RatMatrix.from_rows(rows), tuple(rhs)


def _agrees_with_reference(objective, a, rhs, maximize, events=None) -> LpOutcome:
    out = simplex_solve(LpProblem(objective, a, rhs, maximize=maximize))
    status, value, witness = lp_bland_reference(objective, a, rhs, maximize, events)
    assert (out.status.value, out.value, out.witness) == (status, value, witness)
    return out


@given(st.booleans(), st.randoms(use_true_random=False))
def test_pivots_match_the_fraction_tableau_reference(maximize, rng):
    _agrees_with_reference(*_pivot_stress_lp(rng), maximize)


def test_reference_comparison_reaches_every_branch():
    # The property above only means something if its inputs reach each
    # branch whose pivots could differ; this seeded sweep shows they do.
    rng = random.Random(20171)
    events, statuses = set(), set()
    for _ in range(400):
        out = _agrees_with_reference(*_pivot_stress_lp(rng), rng.random() < 0.5, events)
        statuses.add(out.status)
    assert statuses == set(LpStatus)
    assert events == {"negative_rhs", "crash", "crash_negative", "tie", "dropped_row"}


def test_ratio_tie_break_decides_the_witness():
    # Both optima score 3; breaking ratio-test ties towards the
    # larger basic index would end on (0, 0, 0, 3, 0) instead.
    out = _agrees_with_reference(
        (F(0), F(0), F(1), F(1), F(0)),
        RatMatrix.from_rows([[2, 0, 1, 2, 1], [1, 0, 0, 1, 1]]),
        (F(6), F(3)), True)
    assert out.value == 3
    assert out.witness == (F(0), F(0), F(3), F(0), F(3))


def test_drive_out_pivot_decides_the_witness():
    # Rows 0 and 1 cancel, so phase 1 ends with both on artificials at
    # zero: row 0 pivots out on its first nonzero column and row 1 is
    # dropped.  Pivoting on the last nonzero column instead would end
    # on (4/3, 0, 2/3, 0), which also scores 2.
    out = _agrees_with_reference(
        (F(1), F(0), F(1), F(0)),
        RatMatrix.from_rows([[-1, 2, 2, 0], [1, -2, -2, 0], [1, 0, 1, 2]]),
        (F(0), F(0), F(2)), True)
    assert out.value == 2
    assert out.witness == (F(2), F(1), F(0), F(0))


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        LpProblem((F(1),), RatMatrix.from_rows([[1, 1]]), (F(1),))
    with pytest.raises(ValueError):
        LpProblem((F(1), F(1)), RatMatrix.from_rows([[1, 1]]), (F(1), F(2)))


# -- certified_solve: floats pick the basis, one exact elimination proves it --

def _certified_agrees_with_reference(objective, a, rhs, maximize) -> LpOutcome:
    out = certified_solve(LpProblem(objective, a, rhs, maximize=maximize))
    status, value, _ = lp_bland_reference(objective, a, rhs, maximize)
    assert (out.status.value, out.value) == (status, value)
    if out.status is LpStatus.OPTIMAL:
        x = out.witness
        assert all(v >= 0 for v in x)
        assert a.mat_vec(x) == tuple(rhs)
        assert sum((c * v for c, v in zip(objective, x)), F(0)) == out.value
    else:
        assert out.witness is None
    return out


@given(st.booleans(), st.booleans(), st.integers(1, 7), st.integers(1, 5),
       st.randoms(use_true_random=False))
def test_certified_solve_matches_the_bland_reference(stress, maximize, nvars, nrows, rng):
    lp = _pivot_stress_lp(rng) if stress else _random_lp(rng, nvars, nrows)
    _certified_agrees_with_reference(*lp, maximize)


def test_certified_solve_reaches_every_status_on_the_stress_family():
    # On these small entries every float comparison agrees with the exact
    # one, so the float run ends on Bland's basis and the witness is his.
    rng = random.Random(20172)
    statuses = set()
    for _ in range(300):
        lp, maximize = _pivot_stress_lp(rng), rng.random() < 0.5
        out = _certified_agrees_with_reference(*lp, maximize)
        assert out == simplex_solve(LpProblem(*lp, maximize=maximize))
        statuses.add(out.status)
    assert statuses == set(LpStatus)


def test_certified_solve_keeps_the_frozen_bland_witnesses():
    for objective, rows, rhs, witness in [
        ((0, 0, 1, 1, 0), [[2, 0, 1, 2, 1], [1, 0, 0, 1, 1]], (6, 3), (0, 0, 3, 0, 3)),
        ((1, 0, 1, 0), [[-1, 2, 2, 0], [1, -2, -2, 0], [1, 0, 1, 2]], (0, 0, 2), (2, 1, 0, 0)),
    ]:
        problem = LpProblem(tuple(map(F, objective)), RatMatrix.from_rows(rows), tuple(map(F, rhs)))
        assert certified_solve(problem).witness == tuple(map(F, witness))


def _counting_simplex_solve(monkeypatch):
    calls = []

    def counting(problem):
        calls.append(problem)
        return simplex_solve(problem)

    monkeypatch.setattr(simplex, "simplex_solve", counting)
    return calls


# max x0 over x0 + 2 x1 + x2 = 2, 2 x0 + 4 x1 + x3 = 5; Bland ends on
# columns {0, 3}.  Columns 0 and 1 are parallel (a singular basis),
# {0, 2} puts x2 at -1/2 (primal infeasible) and {2, 3} is the
# feasible vertex x0 = 0 (not optimal).
SMALL_LP = LpProblem((F(1), F(0), F(0), F(0)),
                     RatMatrix.from_rows([[1, 2, 1, 0], [2, 4, 0, 1]]), (F(2), F(5)))


def test_certified_solve_takes_the_float_basis_it_can_prove(monkeypatch):
    calls = _counting_simplex_solve(monkeypatch)
    assert simplex._float_basis(SMALL_LP, simplex._equality_rows(SMALL_LP)) == [0, 3]
    assert certified_solve(SMALL_LP) == simplex_solve(SMALL_LP)
    assert certified_solve(SMALL_LP).witness == (F(2), F(0), F(0), F(1))
    assert calls == []


def _overflow(problem, base):
    raise OverflowError("entry beyond float range")


@pytest.mark.parametrize("float_stage", [
    lambda problem, base: [0, 1],  # singular
    lambda problem, base: [0, 2],  # primal infeasible
    lambda problem, base: [2, 3],  # feasible, not optimal
    lambda problem, base: [0],  # too short: row 1 is left over
    lambda problem, base: [0, 0],  # a column twice
    lambda problem, base: [0, 9],  # no such column
    lambda problem, base: None,
    _overflow,
], ids=["singular", "infeasible", "not_optimal", "short", "repeated", "out_of_range", "none",
        "overflow"])
def test_an_unproven_float_basis_falls_back_to_bland(monkeypatch, float_stage):
    expected = simplex_solve(SMALL_LP)
    monkeypatch.setattr(simplex, "_float_basis", float_stage)
    calls = _counting_simplex_solve(monkeypatch)
    assert certified_solve(SMALL_LP) == expected
    assert calls == [SMALL_LP]


def test_the_float_pivot_limit_falls_back_to_bland(monkeypatch):
    monkeypatch.setattr(simplex, "_FLOAT_PIVOTS", 0)
    calls = _counting_simplex_solve(monkeypatch)
    rng = random.Random(5)
    for _ in range(40):
        problem = LpProblem(*_pivot_stress_lp(rng), maximize=rng.random() < 0.5)
        assert certified_solve(problem) == simplex_solve(problem)
    calls.clear()
    assert certified_solve(SMALL_LP) == simplex_solve(SMALL_LP)
    assert calls == [SMALL_LP]  # Bland needs a pivot here


@pytest.mark.parametrize("huge", [10**400, F(1, 10**400)])
def test_certified_solve_is_exact_beyond_float_range(huge):
    # float(10**400) overflows; 10**-400 rounds to zero, so the float
    # stage sees a different problem and its basis must not be trusted
    objective = (F(1), F(huge), F(0))
    a = RatMatrix.from_rows([[huge, 1, 1], [1, huge, 0]])
    for rhs in ((F(1), F(huge)), (F(huge), F(2))):
        for maximize in (True, False):
            _certified_agrees_with_reference(objective, a, rhs, maximize)


def test_weight_lps_are_certified_without_bland(monkeypatch, trio_profile, trio_goal, uniform3):
    calls = _counting_simplex_solve(monkeypatch)
    weights, delta = solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE)
    assert delta == F(1, 3)
    rng = random.Random(1)
    for _ in range(30):
        profile = random_profile(rng, max_atoms=8, force_dependent=rng.random() < 0.5)
        solve_alpha(profile, random_proper_goal(rng, profile), random_target(rng, profile.n), MAXIMIZE)
    assert calls == []
