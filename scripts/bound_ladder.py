#!/usr/bin/env python3
"""The paper's margin bounds against the largest margin a division reaches.

For every proper goal matrix of the seed-1 and seed-2 ``solve_max``
benchmark pools (a problem's given ``K``, or the witness ``K`` of a
feasible sign pattern), generated by ``perfbench/workloads.py``, and of
``lp_ladder.py``'s default weight LP rungs, it computes the explicit
bound ``delta_bound = min(p) / max |G^+ K|``, the factor bound (the
largest margin at which the stochastic factor ``G^+ (P + delta K)``
stays nonnegative) and the maximum margin ``delta*`` of the weight LP.
It prints each bound's ratio to ``delta*`` per input group: the least,
the three quartiles and the largest.  It exits 1 unless
``0 < delta_bound <= factor_bound <= delta*`` holds on every goal
matrix, as the theory says it must.

    PYTHONPATH=src python3 scripts/bound_ladder.py
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import lp_ladder

from hyperfair import (
    MAXIMIZE,
    common_refinement,
    delta_bound,
    factor_delta_bound,
    gram_matrix,
    is_proper,
    kernel_basis,
    pseudo_inverse,
    solve_alpha,
    solve_relations,
)
from hyperfair.problem_io import parse_problem

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

#: problems in each benchmark pool, as perfbench/run.py generates them
POOL = 160


def pool_cases(seed: int):
    """``(profile, K, p)`` of each proper goal matrix of one solve_max pool."""
    for spec in workloads.generate("solve_max", seed, POOL):
        problem = parse_problem(spec["problem"])
        profile = common_refinement(problem.densities)
        k = problem.k
        if problem.r is not None:
            solution = solve_relations(problem.r, kernel_basis(gram_matrix(profile)))
            if not solution.feasible:
                continue
            k = solution.k
        yield profile, k, problem.p


def ladder_cases():
    """``(profile, K, p)`` of each of lp_ladder.py's default weight LP rungs."""
    for spec in lp_ladder.RUNGS:
        players, grid = (int(x) for x in spec.split("x"))
        for seed in lp_ladder.SEEDS:
            yield lp_ladder.rung_problem(players, grid, seed)


def ratios(cases) -> tuple[list[Fraction], list[Fraction], int]:
    """Each bound's ratio to ``delta*``, and the number of goal matrices
    where the ladder ``0 < delta_bound <= factor_bound <= delta*`` fails."""
    to_delta, to_factor, failures = [], [], 0
    for profile, k, p in cases:
        g = gram_matrix(profile)
        g_plus = pseudo_inverse(g)
        if not is_proper(k, kernel_basis(g)):
            failures += 1
            continue
        low, high = delta_bound(g_plus, k, p), factor_delta_bound(g_plus @ k.mat, p)
        best = solve_alpha(profile, k, p, MAXIMIZE)[1]
        if not all(isinstance(x, Fraction) for x in (low, high, best)) or not 0 < low <= high <= best:
            failures += 1
            continue
        to_delta.append(low / best)
        to_factor.append(high / best)
    return to_delta, to_factor, failures


def summary(values: list[Fraction]) -> str:
    """Least, quartiles and largest, to three decimals."""
    if len(values) < 2:
        return "  ".join(f"{float(x):.3f}" for x in values)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return "  ".join(f"{float(x):.3f}" for x in (min(values), q1, median, q3, max(values)))


def main() -> int:
    start = time.perf_counter()
    groups = [(f"solve_max/seed{seed}", pool_cases(seed)) for seed in (1, 2)]
    groups.append(("lp_ladder", ladder_cases()))
    failed = 0
    print(f"{'group':<16} {'K':>4} {'bound':<13} {'min':>5}  {'q1':>5}  {'median':>5}  {'q3':>5}  {'max':>5}")
    for name, cases in groups:
        to_delta, to_factor, failures = ratios(cases)
        failed += failures
        for bound, values in (("delta_bound", to_delta), ("factor_bound", to_factor)):
            print(f"{name:<16} {len(values):>4} {bound:<13} {summary(values)}")
            name = ""
        if failures:
            print(f"{'':<16} {failures:>4} goal matrices break 0 < delta_bound <= factor_bound <= delta*")
    print(f"ratios to delta*; {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
