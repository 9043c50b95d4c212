#!/usr/bin/env python3
"""Max-delta weight LP ladder: LP shape, float pivots and stage times.

Each rung ``n x grid`` draws one independent profile, a proper goal
matrix and a target with the generators of ``random_roundtrip.py``
(its first trial at that seed) and maximizes the margin with
``solve_alpha``.  For every rung and seed it prints the LP's shape;
the float pivots outside Bland's iterations (the crossover's, and the
drive-out of artificials if phase 1 ran), those inside them, and the
number of Bland runs (1, phase 2, after a crossover; 2 or more where
the float stage fell back to both phases); the seconds of the float
stage, of the exact certificate and of the whole ``solve_alpha`` call;
and the fallbacks to the exact Bland simplex.  Exits 1 on any fallback.

    PYTHONPATH=src python3 scripts/lp_ladder.py --rungs 8x16 12x16 --seeds 1 2
"""

from __future__ import annotations

import argparse
import random
import time

from random_roundtrip import random_goal, random_profile, random_target

from hyperfair import MAXIMIZE, gram_matrix, simplex, solve_alpha


class _Probe:
    """Counts and times the float stage, the certificate and the fallbacks
    of the LPs solved inside ``with probe:``, by wrapping them where
    ``simplex`` looks them up."""

    def __init__(self) -> None:
        self.shape = (0, 0)
        self.crossover_pivots = self.bland_pivots = self.bland_phases = self.fallbacks = 0
        self.float_s = self.certify_s = 0.0
        self._in_bland = False
        self._saved: dict = {}

    def __enter__(self) -> _Probe:
        names = ("_float_basis", "_certify", "_float_iterate", "_float_pivot", "simplex_solve")
        self._saved = {name: getattr(simplex, name) for name in names}
        float_basis, certify, float_iterate, float_pivot, exact = self._saved.values()

        def timed_float_basis(goal, base):
            self.shape = (len(base), len(goal.objective))
            t = time.perf_counter()
            try:
                return float_basis(goal, base)
            finally:
                self.float_s += time.perf_counter() - t

        def timed_certify(goal, base, basis):
            t = time.perf_counter()
            try:
                return certify(goal, base, basis)
            finally:
                self.certify_s += time.perf_counter() - t

        def counted_iterate(*args):
            self.bland_phases += 1
            self._in_bland = True
            try:
                return float_iterate(*args)
            finally:
                self._in_bland = False

        def counted_pivot(*args):
            if self._in_bland:
                self.bland_pivots += 1
            else:
                self.crossover_pivots += 1
            return float_pivot(*args)

        def counted_exact(problem):
            self.fallbacks += 1
            return exact(problem)

        wrappers = (timed_float_basis, timed_certify, counted_iterate, counted_pivot, counted_exact)
        for name, wrapper in zip(names, wrappers):
            setattr(simplex, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for name, f in self._saved.items():
            setattr(simplex, name, f)


def rung(players: int, grid: int, seed: int) -> tuple[_Probe, float]:
    rng = random.Random(seed)
    profile = random_profile(rng, players, grid, dependent=False)
    k = random_goal(rng, gram_matrix(profile))
    p = random_target(rng, players)
    with _Probe() as probe:
        t = time.perf_counter()
        solve_alpha(profile, k, p, MAXIMIZE)
        total = time.perf_counter() - t
    return probe, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", default=["8x16", "12x16"],
                    help="players x grid, e.g. 12x16")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = ap.parse_args(argv)

    fallbacks = 0
    print(f"{'rung':>7} {'seed':>4} {'LP shape':>9} {'crossover':>9} {'Bland':>6} {'phases':>6}"
          f" {'float s':>7} {'cert s':>7} {'max s':>7} {'fallbacks':>9}")
    for spec in args.rungs:
        players, grid = (int(x) for x in spec.lower().split("x"))
        for seed in args.seeds:
            probe, total = rung(players, grid, seed)
            fallbacks += probe.fallbacks
            shape = f"{probe.shape[0]} x {probe.shape[1]}"
            print(f"{players:>3} x {grid:<3}{seed:>4} {shape:>9} {probe.crossover_pivots:>9}"
                  f" {probe.bland_pivots:>6} {probe.bland_phases:>6} {probe.float_s:>7.3f}"
                  f" {probe.certify_s:>7.3f} {total:>7.3f} {probe.fallbacks:>9}")
    return 1 if fallbacks else 0


if __name__ == "__main__":
    raise SystemExit(main())
