"""Acceptance gate: the frozen desk-scale values and the bulk invariants.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line (visible with ``pytest -s``), and asserts the stated time budget.
Run the module alone with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hyperfair.hyperfree import (
    GoalMatrix,
    TargetPoint,
    delta_bound,
    necessary_condition_check,
    spectral_delta_bound,
    stochastic_factor,
)
from hyperfair.linalg import RatMatrix, pseudo_inverse
from hyperfair.measures import gram_matrix, measure_relations
from hyperfair.partition import MAXIMIZE, build_from_weights, build_via_stochastic_factor, solve_alpha
from hyperfair.relations import RelationMatrix, solve_relations, verify_relation_solution
from hyperfair.verify import sharing_matrix

from conftest import (
    TRIO_GRAM_ROWS,
    TRIO_PINV_K_ROWS,
    TRIO_PINV_ROWS,
    TRIO_SHARING_ROWS,
    random_independent_profile,
    random_profile,
    random_proper_goal,
    random_target,
)
from oracles import gauss_jordan

F = Fraction


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS  {name}  ({elapsed * 1000:.1f} ms, budget {budget_s * 1000:.0f} ms)")
    assert elapsed <= budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.3f}s"


def test_criterion_01_gram_reproduction(trio_profile):
    with criterion(1, "Gram matrix of the running example", 0.001):
        assert gram_matrix(trio_profile) == RatMatrix.from_rows(TRIO_GRAM_ROWS)


def test_criterion_02_kernel_reproduction(trio_profile):
    with criterion(2, "canonical measure relation", 0.001):
        assert measure_relations(trio_profile) == [(F(1), F(9), F(-10))]


def test_criterion_03_pseudo_inverse_and_margin_bound(trio_profile, trio_goal, uniform3):
    with criterion(3, "pseudo-inverse, max entry 512/455, bound 455/1536", 0.010):
        g_plus = pseudo_inverse(gram_matrix(trio_profile))
        assert g_plus == RatMatrix.from_rows(TRIO_PINV_ROWS)
        gk = g_plus @ trio_goal.mat
        assert gk == RatMatrix.from_rows(TRIO_PINV_K_ROWS)
        assert gk.max_abs() == F(512, 455)
        assert delta_bound(g_plus, trio_goal, uniform3) == F(455, 1536)


def test_criterion_04_sign_pattern_decisions(trio_goal, trio_relation):
    with criterion(4, "first pattern infeasible, second feasible", 0.100):
        blocked = RelationMatrix.from_symbols([[">", "=", "<"], [">", ">", "<"], ["<", "<", ">"]])
        witnessed = RelationMatrix.from_symbols([[">", "=", "<"], ["<", ">", ">"], ["<", ">", ">"]])
        assert not solve_relations(blocked, [trio_relation]).feasible
        sol = solve_relations(witnessed, [trio_relation])
        assert sol.feasible
        assert verify_relation_solution(sol.k, witnessed, [trio_relation])
        assert verify_relation_solution(trio_goal, witnessed, [trio_relation])


def test_criterion_05_partition_reproduction(trio_profile, trio_goal, uniform3):
    from hyperfair.measures import Interval

    with criterion(5, "exact partition and sharing matrix at margin 1/6", 0.100):
        weights, achieved = solve_alpha(trio_profile, trio_goal, uniform3, F(1, 6))
        assert achieved == F(1, 6)
        part = build_from_weights(trio_profile, weights)
        assert part.pieces == (
            (Interval.make("0", "1/20"), Interval.make("1/10", "7/20")),
            (Interval.make("1/20", "1/12"), Interval.make("7/20", "2/3")),
            (Interval.make("1/12", "1/10"), Interval.make("2/3", "1")),
        )
        assert sharing_matrix(trio_profile, part).mat == RatMatrix.from_rows(TRIO_SHARING_ROWS)


def _unique_weight_solution(profile, k, p, delta):
    """Solve the equality system for the atom weights by elimination only.

    Independent of the simplex path: builds the linear system directly
    from the atom measures and reads the unique solution off the
    reduced row echelon form.  Returns None when the system is not
    uniquely solvable.
    """
    n = profile.n
    atoms = range(len(profile.atoms))
    nvars = len(profile.atoms) * n
    rows, rhs = [], []
    for a in atoms:
        row = [F(0)] * nvars
        for j in range(n):
            row[a * n + j] = F(1)
        rows.append(row)
        rhs.append(F(1))
    for i in range(n):
        for j in range(n):
            row = [F(0)] * nvars
            for a in atoms:
                row[a * n + j] = profile.atom_measure(i, a)
            rows.append(row)
            rhs.append(p.shares[j] + k.mat[i, j] * delta)
    red, pivots = gauss_jordan(RatMatrix.from_rows([row + [b] for row, b in zip(rows, rhs)]))
    if pivots != tuple(range(nvars)):
        return None
    return [red[t][nvars] for t in range(nvars)]


def test_criterion_06_margin_maximization(trio_profile, trio_goal, uniform3):
    with criterion(6, "maximal margin 1/3, grid sweep at resolution 1/1000", 1.0):
        _, achieved = solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE)
        assert achieved == F(1, 3)

        # independent oracle: the equality system pins the weights
        # uniquely per margin and the solution is affine in it, so one
        # elimination at 0 and one at 1 give the whole family
        at0 = _unique_weight_solution(trio_profile, trio_goal, uniform3, F(0))
        at1 = _unique_weight_solution(trio_profile, trio_goal, uniform3, F(1))
        assert at0 is not None and at1 is not None
        direction = [b - a for a, b in zip(at0, at1)]
        feasible_grid = [
            F(step, 1000)
            for step in range(1001)
            if all(a + F(step, 1000) * d >= 0 for a, d in zip(at0, direction))
        ]
        assert feasible_grid, "margin 0 must be admissible"
        assert max(feasible_grid) == F(333, 1000)
        assert max(feasible_grid) <= achieved < max(feasible_grid) + F(1, 1000)


def test_criterion_07_factor_route_reproduction(trio_profile, trio_goal, uniform3):
    with criterion(7, "pseudo-inverse route matches the target at margin 1/6", 0.100):
        part = build_via_stochastic_factor(trio_profile, trio_goal, uniform3, F(1, 6))
        assert sharing_matrix(trio_profile, part).mat == RatMatrix.from_rows(TRIO_SHARING_ROWS)


def test_criterion_08_bound_ordering(trio_profile, trio_goal, uniform3):
    with criterion(8, "spectral bound below the exact bound; factor admissible at it", 30.0):
        # the running example first: its Gram matrix is singular, so only
        # the exact-bound half applies there
        g = gram_matrix(trio_profile)
        g_plus = pseudo_inverse(g)
        bound = delta_bound(g_plus, trio_goal, uniform3)
        cert = stochastic_factor(g, g_plus, trio_goal, uniform3, bound)
        assert all(e >= 0 for e in cert.factor.entries)
        assert g @ cert.factor == cert.target

        rng = random.Random(8_2026)
        for _ in range(100):
            profile = random_independent_profile(rng, max_atoms=6)
            g = gram_matrix(profile)
            g_plus = pseudo_inverse(g)
            k = random_proper_goal(rng, profile)
            p = random_target(rng, profile.n)
            bound = delta_bound(g_plus, k, p)
            _, hi = spectral_delta_bound(g, k, p, F(1, 2**20))
            assert hi <= bound
            cert = stochastic_factor(g, g_plus, k, p, bound)
            assert all(e >= 0 for e in cert.factor.entries)
            assert g @ cert.factor == cert.target


def test_criterion_09_penrose_and_gram_invariants():
    with criterion(9, "Penrose identities, row preservation, diagonal floor", 30.0):
        rng = random.Random(9_2026)
        ones = {}
        for trial in range(200):
            profile = random_profile(rng, force_dependent=trial % 2 == 1)
            g = gram_matrix(profile)
            n = profile.n
            g_plus = pseudo_inverse(g)
            assert g @ g_plus @ g == g
            assert g_plus @ g @ g_plus == g_plus
            assert (g @ g_plus).transpose() == g @ g_plus
            assert (g_plus @ g).transpose() == g_plus @ g
            e = ones.setdefault(n, tuple(F(1) for _ in range(n)))
            assert g_plus.mat_vec(e) == e
            assert all(g[i, i] >= F(1, n) for i in range(n))


def test_criterion_10_necessary_condition():
    with criterion(10, "constructed plans pass the audit", 10.0):
        rng = random.Random(10_2026)
        for _ in range(100):
            profile = random_profile(rng, force_dependent=rng.random() < 0.5)
            g = gram_matrix(profile)
            g_plus = pseudo_inverse(g)
            k = random_proper_goal(rng, profile)
            p = TargetPoint.uniform(profile.n)
            delta = delta_bound(g_plus, k, p) / 2
            cert = stochastic_factor(g, g_plus, k, p, delta)
            assert necessary_condition_check(cert.target, delta, measure_relations(profile))


def test_criterion_11_route_equivalence():
    with criterion(11, "LP route and factor route share one sharing matrix", 60.0):
        rng = random.Random(11_2026)
        for _ in range(50):
            profile = random_profile(rng, n=rng.randint(2, 3), max_atoms=5,
                                     force_dependent=rng.random() < 0.5)
            g_plus = pseudo_inverse(gram_matrix(profile))
            k = random_proper_goal(rng, profile)
            p = random_target(rng, profile.n)
            bound = delta_bound(g_plus, k, p)
            _, best = solve_alpha(profile, k, p, MAXIMIZE)
            delta = min(bound, best) / 2
            weights, _ = solve_alpha(profile, k, p, delta)
            lp_part = build_from_weights(profile, weights)
            factor_part = build_via_stochastic_factor(profile, k, p, delta)
            lp_shares = sharing_matrix(profile, lp_part)
            factor_shares = sharing_matrix(profile, factor_part)
            assert lp_shares.mat == factor_shares.mat
            assert lp_shares.mat == p.as_matrix() + delta * k.mat
