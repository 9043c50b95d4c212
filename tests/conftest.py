from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from hyperfair import (
    GoalMatrix,
    Interval,
    RatMatrix,
    StepDensity,
    TargetPoint,
    common_refinement,
    kernel_basis,
)

# st.randoms() draws a large base example by design; the generators
# below consume it gradually, so the related health checks only get in
# the way here.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[
        HealthCheck.large_base_example,
        HealthCheck.data_too_large,
        HealthCheck.too_slow,
    ],
)
settings.load_profile("suite")


# The running three-player instance: one density packed on [0, 1/10],
# one packed on [1/10, 1], one uniform.  Its measures satisfy exactly
# one linear relation and its Gram matrix is singular.
@pytest.fixture(scope="session")
def trio_profile():
    return common_refinement([
        StepDensity.make(["0", "1/10", "1"], ["10", "0"]),
        StepDensity.make(["0", "1/10", "1"], ["0", "10/9"]),
        StepDensity.make(["0", "1"], ["1"]),
    ])


@pytest.fixture(scope="session")
def trio_goal():
    return GoalMatrix.make([
        ["1", "0", "-1"],
        ["-1/3", "1/9", "2/9"],
        ["-1/5", "1/10", "1/10"],
    ])


@pytest.fixture(scope="session")
def trio_relation():
    return (Fraction(1), Fraction(9), Fraction(-10))


@pytest.fixture(scope="session")
def uniform3():
    return TargetPoint.uniform(3)


TRIO_GRAM_ROWS = [
    ["10/11", "0", "1/11"],
    ["0", "10/19", "9/19"],
    ["1/11", "9/19", "91/209"],
]

TRIO_PINV_ROWS = [
    ["36191/33124", "-3519/33124", "113/8281"],
    ["-3519/33124", "19471/33124", "4293/8281"],
    ["113/8281", "4293/8281", "3875/8281"],
]

TRIO_PINV_K_ROWS = [
    ["512/455", "-19/1820", "-2029/1820"],
    ["-554/1365", "1919/16380", "4729/16380"],
    ["-23/91", "19/182", "27/182"],
]

TRIO_SHARING_ROWS = [
    ["1/2", "1/3", "1/6"],
    ["5/18", "19/54", "10/27"],
    ["3/10", "7/20", "7/20"],
]


# -- random generators shared by property and acceptance tests ----------

def random_fraction(rng: random.Random, max_den: int = 8, lo: int = -2, hi: int = 2) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_profile(rng: random.Random, n: int | None = None, max_atoms: int = 6,
                   allow_zeros: bool = True, force_dependent: bool = False):
    """Random step-density family on a shared grid of at most max_atoms cells."""
    n = n if n is not None else rng.randint(2, 4)
    cells = rng.randint(max(1, n - 1), max_atoms)
    grid = sorted(rng.sample([Fraction(i, 24) for i in range(1, 24)], cells - 1)) if cells > 1 else []
    breaks = [Fraction(0), *grid, Fraction(1)]
    densities = []
    count_direct = n - 1 if force_dependent else n
    for _ in range(count_direct):
        while True:
            vals = [Fraction(rng.randint(0 if allow_zeros else 1, 6)) for _ in range(cells)]
            if any(v > 0 for v in vals):
                break
        densities.append(StepDensity.normalized(breaks, vals))
    if force_dependent:
        # a rational convex mix of the others is again a unit-mass density
        weights = [Fraction(rng.randint(1, 3)) for _ in range(n - 1)]
        total = sum(weights)
        mixed = [
            sum((w * d.values[c] for w, d in zip(weights, densities)), Fraction(0)) / total
            for c in range(cells)
        ]
        densities.append(StepDensity(tuple(breaks), tuple(mixed)))
    return common_refinement(densities)


def blocky_profile(rng, kind):
    """Densities constant over runs of cells, many cells sharing one column.

    Each cell takes a column from a small palette of value vectors, at
    scale 1 or 2, so equal and proportional columns repeat along the
    grid.  ``kind`` is ``"null"`` to make one cell vanish for every
    player, or ``"dependent"`` to replace the last density by a mix of
    the others (a forced measure relation).
    """
    n = rng.randint(2, 3)
    cells = rng.randint(3, 8)
    palette = [[rng.randint(0, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    columns = [[rng.randint(1, 2) * v for v in rng.choice(palette)] for _ in range(cells)]
    if kind == "null":
        columns[rng.randrange(cells)] = [0] * n
    for i in range(n):  # every density needs some mass
        if not any(col[i] for col in columns):
            columns[rng.randrange(cells)][i] = 1
    breaks = [Fraction(c, cells) for c in range(cells + 1)]
    densities = [StepDensity.normalized(breaks, [col[i] for col in columns]) for i in range(n)]
    if kind == "dependent":
        mix = [Fraction(rng.randint(1, 3)) for _ in range(n - 1)]
        values = [sum((w * d.values[c] for w, d in zip(mix, densities)), Fraction(0)) / sum(mix)
                  for c in range(cells)]
        densities[-1] = StepDensity(tuple(breaks), tuple(values))
    return common_refinement(densities)


def random_independent_profile(rng: random.Random, n: int | None = None, max_atoms: int = 6):
    """Random profile whose Gram matrix is nonsingular (retry loop)."""
    from hyperfair import gram_matrix

    while True:
        profile = random_profile(rng, n=n, max_atoms=max_atoms)
        if not kernel_basis(gram_matrix(profile)):
            return profile


def random_zero_sum_rows(rng: random.Random, n: int) -> list[list[Fraction]]:
    rows = []
    for _ in range(n):
        row = [random_fraction(rng, max_den=6) for _ in range(n)]
        shift = sum(row) / n
        rows.append([x - shift for x in row])
    return rows


def random_proper_goal(rng: random.Random, profile) -> GoalMatrix:
    """Random nonzero goal matrix compatible with the profile's relations."""
    from hyperfair import measure_relations

    n = profile.n
    relations = measure_relations(profile)
    if relations:
        directions = kernel_basis(RatMatrix.from_rows(relations))
    else:
        directions = [tuple(Fraction(1 if t == s else 0) for t in range(n)) for s in range(n)]
    while True:
        total = RatMatrix.zeros(n, n)
        for direction in directions:
            weights = [random_fraction(rng, max_den=4) for _ in range(n)]
            shift = sum(weights) / n
            weights = [w - shift for w in weights]
            outer = RatMatrix(n, n, tuple(
                direction[i] * weights[j] for i in range(n) for j in range(n)
            ))
            total = total + outer
        if any(e != 0 for e in total.entries):
            return GoalMatrix(total)


def random_target(rng: random.Random, n: int) -> TargetPoint:
    raw = [Fraction(rng.randint(1, 6)) for _ in range(n)]
    total = sum(raw)
    return TargetPoint(tuple(x / total for x in raw))


def fine_tiling(count: int = 3000, players: int = 3) -> tuple[tuple[Interval, ...], ...]:
    """``count`` intervals tiling [0, 1], cut at fractions with distinct odd
    20-bit denominators and dealt to the players in turn, shuffled."""
    rng = random.Random(0)
    cuts = sorted(Fraction(rng.randrange(1, d), d)
                  for d in rng.sample(range(2**19 + 1, 2**20, 2), count - 1))
    points = [Fraction(0), *cuts, Fraction(1)]
    pieces = [[] for _ in range(players)]
    for t, (lo, hi) in enumerate(zip(points, points[1:])):
        pieces[t % players].append(Interval(lo, hi))
    for ivs in pieces:
        rng.shuffle(ivs)
    return tuple(map(tuple, pieces))
