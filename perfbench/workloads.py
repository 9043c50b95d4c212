"""Seeded problem generators for the benchmark workloads.

Everything here is plain ``fractions`` code: the generated problems
depend only on the workload name and the seed, never on the package
under test.  Set-up (in ``run.py``) later adds the pieces that need the
package itself: the margin ``delta_bound / 2`` and the verify
partitions.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checker

WORKLOADS = ("analyze", "solve_fixed", "solve_max")


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _density(raw: list[int]) -> list[Fraction]:
    total = Fraction(sum(raw), len(raw))
    return [Fraction(v) / total for v in raw]


def _levels(rng: random.Random, cells: int, draw) -> list[Fraction]:
    """Integer levels 0..9 from ``draw``, redrawn until they sum to 4.5 per cell.

    Every player's density then has the same normalizer, which keeps the
    exact numbers of one problem about as long as those of the next: the
    run-to-run spread of the timings comes from the work, not from a few
    inputs with far longer denominators.
    """
    while True:
        raw = draw(rng, cells)
        if 2 * sum(raw) == 9 * cells:
            return _density(raw)


def random_values(rng: random.Random, cells: int) -> list[Fraction]:
    """Independent level per cell."""
    return _levels(rng, cells, lambda r, c: [r.randint(0, 9) for _ in range(c)])


def _blocks(rng: random.Random, cells: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, cells), rng.randint(2, 3)))
    raw: list[int] = []
    for lo, hi in zip([0] + cuts, cuts + [cells]):
        raw += [rng.randint(0, 9)] * (hi - lo)
    return raw


def blocky_values(rng: random.Random, cells: int) -> list[Fraction]:
    """Levels that change at only two or three of the cell boundaries."""
    return _levels(rng, cells, _blocks)


def force_relation(rng: random.Random, values: list[list[Fraction]]) -> None:
    """Replace the last player's values by a convex mixture of the others."""
    coeffs = [Fraction(rng.randint(1, 5)) for _ in values[:-1]]
    total = sum(coeffs)
    values[-1] = [sum(c * row[a] for c, row in zip(coeffs, values[:-1])) / total
                  for a in range(len(values[0]))]


def random_goal(rng: random.Random, g: list[list[Fraction]]) -> list[list[Fraction]]:
    """Rank-one proper goal matrix: a Gram-range vector times a zero-sum one."""
    n = len(g)
    while True:
        x = [rng.randint(-3, 3) for _ in range(n)]
        u = [sum(g[i][j] * x[j] for j in range(n)) for i in range(n)]
        shifts = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        mean = sum(shifts) / n
        rows = [[ui * (s - mean) for s in shifts] for ui in u]
        scale = max(abs(e) for row in rows for e in row)
        if scale:
            return [[e / scale for e in row] for row in rows]


def random_target(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    return [Fraction(r, sum(raw)) for r in raw]


def random_pattern(rng: random.Random, n: int) -> list[list[str]]:
    """Sign pattern whose every row has both strict signs or neither.

    At least one row is strict, so the pattern asks for a positive slack.
    """
    while True:
        rows = []
        for _ in range(n):
            if rng.random() < 0.2:
                rows.append(["="] * n)
                continue
            row = [rng.choice("<=>") for _ in range(n)]
            up, down = rng.sample(range(n), 2)
            row[up], row[down] = ">", "<"
            rows.append(row)
        if any(s != "=" for row in rows for s in row):
            return rows


def _problem(values: list[list[Fraction]], cells: int) -> dict:
    breakpoints = [fmt(Fraction(i, cells)) for i in range(cells + 1)]
    return {
        "players": len(values),
        "densities": [{"breakpoints": breakpoints, "values": [fmt(v) for v in row]}
                      for row in values],
    }


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` problem specs for one workload, a pure function of the seed.

    Each spec is ``{"name", "problem"}``.  Shapes follow the
    problem index, so every run sees the same mix:

    * ``analyze``: n = 8 to 10 on 16 cells; every other profile carries a
      forced measure relation.  Independent profiles stay at n = 8: their
      eigenvalue enclosure doubles in cost by n = 10, and a few such
      problems would decide the tail of a whole run.
    * ``solve_fixed``: n = 4 on 8 cells, an independent level per cell.
    * ``solve_max``: n = 4 on 12 blocky cells; every other problem states
      a sign pattern instead of a goal matrix, and half of each kind sit
      on a dependent profile.

    ``solve_max`` problems say ``"delta": "max"``; set-up adds the fixed
    margin of the other two.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for idx in range(count):
        if workload == "analyze":
            dependent = idx % 2 == 1
            n, cells, draw = 8 + (idx // 2 % 3 if dependent else 0), 16, random_values
        elif workload == "solve_fixed":
            n, cells, dependent, draw = 4, 8, False, random_values
        else:
            n, cells, dependent, draw = 4, 12, idx % 4 >= 2, blocky_values
        values = [draw(rng, cells) for _ in range(n)]
        if dependent:
            force_relation(rng, values)
        problem = _problem(values, cells)
        problem["p"] = [fmt(s) for s in random_target(rng, n)]
        if workload == "solve_max" and idx % 2 == 1:
            problem["R"] = random_pattern(rng, n)
        else:
            grid = [Fraction(i, cells) for i in range(cells + 1)]
            g = checker.gram([(grid, row) for row in values])
            problem["K"] = [[fmt(e) for e in row] for row in random_goal(rng, g)]
        if workload == "solve_max":
            problem["delta"] = "max"
        specs.append({"name": f"{workload}-{idx:03d}", "problem": problem})
    return specs
