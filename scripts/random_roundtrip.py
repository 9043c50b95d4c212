#!/usr/bin/env python3
"""Random sweep over generated instances, auditing every construction.

Each trial draws a profile of step densities on a shared grid (odd
trials force a measure relation by mixing one density from the others),
builds a proper goal matrix from the Gram range, and then:

  * checks the certified margin bound is finite and positive,
  * constructs the division at half the bound by both routes (weight
    LP and stochastic factor) and verifies they produce the same
    sharing matrix,
  * audits the result with the fairness checker,
  * maximizes the margin by LP, cuts and audits that partition too,
    and records how conservative the sufficient bound is, plus the
    spectral bound when it applies,
  * checks what the spectral theorem states: the enclosure's lower end
    lies in [0, bound], and G - (bound / scale) I, with
    scale = min p / (n max |k_ij|), is not positive definite (a plain
    LDL^T of it meets a nonpositive pivot), so G has an eigenvalue at
    most bound / scale,
  * checks that the eigenvalue enclosure behind the spectral bound is
    one cell of its dyadic grid, no wider than the default tolerance.

    python3 scripts/random_roundtrip.py --trials 100 --seed 7
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

from hyperfair import (
    DEFAULT_TOL,
    MAXIMIZE,
    GoalMatrix,
    StepDensity,
    TargetPoint,
    build_via_stochastic_factor,
    build_from_weights,
    check_fairness,
    common_refinement,
    delta_bound,
    gram_matrix,
    is_proper,
    measure_relations,
    pseudo_inverse,
    sharing_matrix,
    smallest_eigenvalue,
    solve_alpha,
    spectral_delta_bound,
)


def random_density(rng: random.Random, grid: int) -> StepDensity:
    breakpoints = tuple(Fraction(i, grid) for i in range(grid + 1))
    while True:
        raw = [rng.randint(0, 9) for _ in range(grid)]
        if any(raw):
            break
    total = sum(Fraction(v, grid) for v in raw)
    return StepDensity(breakpoints, tuple(Fraction(v) / total for v in raw))


def random_profile(rng: random.Random, n: int, grid: int, dependent: bool):
    densities = [random_density(rng, grid) for _ in range(n)]
    if dependent and n >= 2:
        # Replace the last density by a rational convex mixture of the
        # others, forcing a nontrivial measure relation.
        coeffs = [Fraction(rng.randint(1, 5)) for _ in range(n - 1)]
        total = sum(coeffs)
        mixed = tuple(
            sum((c * d.values[k] for c, d in zip(coeffs, densities[:-1])),
                Fraction(0)) / total
            for k in range(grid)
        )
        densities[-1] = StepDensity(densities[0].breakpoints, mixed)
    return common_refinement(densities)


def random_goal(rng: random.Random, g) -> GoalMatrix:
    """Rank-one proper direction: a Gram-range vector times a zero-sum one."""
    n = g.rows
    while True:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        u = g.mat_vec(x)
        shifts = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        mean = sum(shifts) / n
        v = [s - mean for s in shifts]
        rows = [[ui * vj for vj in v] for ui in u]
        scale = max(abs(e) for row in rows for e in row)
        if scale:
            return GoalMatrix.make([[e / scale for e in row] for row in rows])


def random_target(rng: random.Random, n: int) -> TargetPoint:
    raw = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    total = sum(raw)
    return TargetPoint.make([r / total for r in raw])


def has_nonpositive_pivot(a) -> bool:
    """True when the symmetric ``a`` is not positive definite.

    Gaussian elimination without pivoting (LDL^T) on Fractions: a
    symmetric matrix is positive definite exactly when every pivot is
    positive, so the first pivot <= 0 proves it is not.
    """
    a = [list(row) for row in a]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return True
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, len(a)):
                a[i][j] -= f * a[k][j]
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--players", type=int, default=3)
    ap.add_argument("--grid", type=int, default=8)
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    dependent_count = 0
    ratios: list[Fraction] = []
    spectral_ratios: list[Fraction] = []

    for trial in range(args.trials):
        profile = random_profile(rng, args.players, args.grid,
                                 dependent=trial % 2 == 1)
        g = gram_matrix(profile)
        relations = measure_relations(profile)
        dependent_count += bool(relations)
        k = random_goal(rng, g)
        p = random_target(rng, args.players)
        assert is_proper(k, relations)

        g_plus = pseudo_inverse(g)
        bound = delta_bound(g_plus, k, p)
        assert isinstance(bound, Fraction) and bound > 0

        half = bound / 2
        weights, achieved = solve_alpha(profile, k, p, half)
        assert achieved == half
        lp_part = build_from_weights(profile, weights)
        factor_part = build_via_stochastic_factor(profile, k, p, half)
        m = sharing_matrix(profile, lp_part)
        assert m.mat == sharing_matrix(profile, factor_part).mat
        audit = check_fairness(m, k, p)
        assert audit.hyper_envy_free and audit.hyper_delta == half

        weights, best = solve_alpha(profile, k, p, MAXIMIZE)
        assert best >= bound
        best_part = build_from_weights(profile, weights)
        audit = check_fairness(sharing_matrix(profile, best_part), k, p)
        assert audit.hyper_envy_free and audit.hyper_delta == best
        ratios.append(bound / best)

        if not relations:
            lo, hi = spectral_delta_bound(g, k, p)
            assert 0 <= lo <= bound
            # the theorem: scale * (smallest eigenvalue of G) <= bound
            scale = min(p.shares) / (args.players * k.mat.max_abs())
            shift = bound / scale
            assert has_nonpositive_pivot(
                [[x - shift * (i == j) for j, x in enumerate(g.row(i))] for i in range(g.rows)])
            spectral_ratios.append(hi / bound)
            # The eigenvalue enclosure is one cell of the grid of width
            # R / 2^k (R the largest absolute row sum, k the least level
            # at which a cell is no wider than the tolerance).
            lam_lo, lam_hi = smallest_eigenvalue(g)
            width = lam_hi - lam_lo
            cells = max(sum(map(abs, g.row(i))) for i in range(g.rows)) / width
            assert width <= DEFAULT_TOL and (cells == 1 or 2 * width > DEFAULT_TOL)
            assert cells.denominator == 1 and cells.numerator & (cells.numerator - 1) == 0
            assert (lam_lo / width).denominator == 1

    def stats(values):
        lo, hi = min(values), max(values)
        mean = sum(values) / len(values)
        return f"min {float(lo):.3f}  mean {float(mean):.3f}  max {float(hi):.3f}"

    print(f"trials                      {args.trials}")
    print(f"profiles with relations     {dependent_count}")
    print(f"certified bound / LP max    {stats(ratios)}")
    if spectral_ratios:
        print(f"spectral / certified bound  {stats(spectral_ratios)}"
              f"   (over {len(spectral_ratios)} independent profiles)")
    print("every construction audited  True")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
