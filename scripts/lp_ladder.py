#!/usr/bin/env python3
"""Weight LP ladder: LP shape, float pivots and stage times, at the maximum
margin and at half of it, and the sign-pattern LPs.

Each rung ``n x grid`` draws one independent profile, a proper goal
matrix and a target with the generators of ``random_roundtrip.py``
(its first trial at that seed), maximizes the margin with
``solve_alpha`` and then solves the fixed margin ``delta*/2``, half
the maximum, which caps the margin by one more row.  At every seed the
ladder also decides the super-envy-free pattern of each of
``SIGN_RUNGS`` with ``solve_relations``: at 12 and 16 players under
one random integer relation (entries in [-5, 5], drawn from the seed),
whose entries of both signs make the pattern infeasible, so that the
alternative LP refutes it; and at 16 players with no relation, where
the pattern is feasible with slack 1/15 and the row test leaves the
primal sign LP to find it; these rungs print as ``n rel count``.  For
every rung, seed and LP it prints the LP's shape; the pivots outside
Bland's iterations (the crossover's, and the drive-out of artificials if
phase 1 ran); the float run's pivot limit, ``simplex._FLOAT_PIVOTS``
times the LP's rows and columns; Bland's pivots in floats and in
Fractions, and the number of Bland runs (1, phase 2, after a crossover;
2 where both phases ran); the seconds of the float stage, of the exact
certificate and of the whole call; and the fallbacks to the exact Bland
simplex.  Exits 1 on any fallback, on any float run that takes more
than half its pivot limit, and on any weight LP whose float stage runs
more than one Bland phase, as both weight LPs start at a feasible point
and need no phase 1; the alternative LP starts at one too, and the
primal sign LP has none and runs both.  An LP with a start point gets
the crossover as its only float run, so a weight or alternative LP
whose crossover is lost shows as a fallback, not as a second Bland
phase.

Last, once and at seed 1 whatever ``--seeds`` says, the ladder decides
``DEPENDENT_RUNG``: the super-envy-free pattern at 12 players under the four
measure relations of a dependent 8-cell profile, drawn by
``random_profile``.  Its 145 x 265 alternative LP is expected to fall
back: the float crossover's phase 2 runs to the pivot limit, 1,640
pivots, and the exact simplex answers from its own crossover with one
more Bland phase, 537 pivots.  Its row prints as ``n dep cells``, with
both runs' pivots and phases, and it fails the ladder unless its float
run stops exactly at its limit, or if the exact run builds a phase-1
tableau or ``verify_refutation`` rejects the refutation.  It is checked
on these counts, not on seconds; it takes 8 to 13 s on a shared 2-vCPU
host.

    PYTHONPATH=src python3 scripts/lp_ladder.py --rungs 8x16 12x16 --seeds 1 2
"""

from __future__ import annotations

import argparse
import random
import time
from fractions import Fraction

from random_roundtrip import random_goal, random_profile, random_target

from hyperfair import MAXIMIZE, gram_matrix, simplex, solve_alpha
from hyperfair.measures import measure_relations
from hyperfair.relations import RelationMatrix, solve_relations, verify_refutation

#: players and number of random relations of the super-envy-free sign
#: patterns, each run at every seed
SIGN_RUNGS = ((12, 1), (16, 1), (16, 0))
#: players, cells and seed of the dependent profile whose super-envy-free
#: pattern's alternative LP falls back to the exact simplex
DEPENDENT_RUNG = (12, 8, 1)
#: the default weight LP rungs, players x grid, and seeds
RUNGS = ("8x16", "12x16")
SEEDS = (1, 2)


class _Probe:
    """Counts and times the float stage, the certificate and the fallbacks
    of the LPs solved inside ``with probe:``, by wrapping them where
    ``simplex`` looks them up.

    ``budget`` is the float run's pivot limit, the budget of the first
    Bland iteration outside the exact ``_solve``, or ``None`` if the float
    run never reached one.  Bland's pivots count apart in each arithmetic;
    the crossover's and the phases count in both, but a fallback fails the
    ladder anyway, except on ``DEPENDENT_RUNG``, which counts the phase-1
    tableaus its fallback builds.
    """

    def __init__(self) -> None:
        self.shape = (0, 0)
        self.budget = None
        self.crossover_pivots = self.float_pivots = self.exact_pivots = 0
        self.bland_phases = self.fallbacks = self.exact_phase1_tableaus = 0
        self.float_s = self.certify_s = 0.0
        self._in_bland = self._in_exact = False
        self._saved: dict = {}

    def __enter__(self) -> _Probe:
        names = ("_float_basis", "_certify", "_iterate", "_pivot", "_solve", "_phase1_tableau")
        self._saved = {name: getattr(simplex, name) for name in names}
        float_basis, certify, iterate, pivot, exact, phase1_tableau = self._saved.values()

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
            if self.budget is None and not self._in_exact:
                self.budget = args[-1]
            self._in_bland = True
            try:
                return iterate(*args)
            finally:
                self._in_bland = False

        def counted_pivot(*args):
            if self._in_bland and self._in_exact:
                self.exact_pivots += 1
            elif self._in_bland:
                self.float_pivots += 1
            else:
                self.crossover_pivots += 1
            return pivot(*args)

        def counted_exact(goal, base):
            self.fallbacks += 1
            self._in_exact = True
            try:
                return exact(goal, base)
            finally:
                self._in_exact = False

        def counted_phase1_tableau(base, nvars):
            self.exact_phase1_tableaus += self._in_exact
            return phase1_tableau(base, nvars)

        wrappers = (timed_float_basis, timed_certify, counted_iterate, counted_pivot, counted_exact,
                    counted_phase1_tableau)
        for name, wrapper in zip(names, wrappers):
            setattr(simplex, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for name, f in self._saved.items():
            setattr(simplex, name, f)


def probed(solve, *args) -> tuple[_Probe, float, object]:
    """The probe and seconds of one ``solve(*args)`` call, and its answer."""
    with _Probe() as probe:
        t = time.perf_counter()
        answer = solve(*args)
        total = time.perf_counter() - t
    return probe, total, answer


def rung_problem(players: int, grid: int, seed: int):
    """The profile, goal matrix and target of one rung at one seed."""
    rng = random.Random(seed)
    profile = random_profile(rng, players, grid, dependent=False)
    k = random_goal(rng, gram_matrix(profile))
    return profile, k, random_target(rng, players)


def rung(players: int, grid: int, seed: int) -> list[tuple[str, _Probe, float]]:
    """The maximum-margin and the half-margin call of one rung."""
    profile, k, p = rung_problem(players, grid, seed)
    probe, total, (_, best) = probed(solve_alpha, profile, k, p, MAXIMIZE)
    half, half_total, _ = probed(solve_alpha, profile, k, p, best / 2)
    return [("max", probe, total), ("max/2", half, half_total)]


def sign_rung(players: int, count: int, seed: int) -> list[tuple[str, _Probe, float]]:
    """The super-envy-free pattern under ``count`` random integer relations."""
    rng = random.Random(seed)
    relations = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(players))
                 for _ in range(count)]
    pattern = RelationMatrix.super_envy_free(players)
    probe, total, solution = probed(solve_relations, pattern, relations)
    if relations:
        assert verify_refutation(solution.refutation, pattern, relations)
    else:
        assert solution.margin == Fraction(1, players - 1)
    return [("sign", probe, total)]


def dependent_rung(players: int, grid: int, seed: int) -> tuple[_Probe, float]:
    """The super-envy-free pattern under the measure relations of one
    dependent profile, which the exact simplex refutes after the float
    run is lost."""
    profile = random_profile(random.Random(seed), players, grid, dependent=True)
    relations = measure_relations(profile)
    pattern = RelationMatrix.super_envy_free(players)
    probe, total, solution = probed(solve_relations, pattern, relations)
    assert verify_refutation(solution.refutation, pattern, relations)
    return probe, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", default=list(RUNGS),
                    help="weight LP rungs, players x grid, e.g. 12x16")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    args = ap.parse_args(argv)

    def show(label: str, seed: int, margin: str, probe: _Probe, total: float) -> None:
        shape = f"{probe.shape[0]} x {probe.shape[1]}"
        budget = "-" if probe.budget is None else probe.budget
        print(f"{label:<9}{seed:>4} {margin:>5} {shape:>9} {probe.crossover_pivots:>9} {budget:>6}"
              f" {probe.float_pivots:>6} {probe.exact_pivots:>6} {probe.bland_phases:>6}"
              f" {probe.float_s:>7.3f} {probe.certify_s:>7.3f} {total:>7.3f}"
              f" {probe.fallbacks:>9}")

    failed = False
    print(f"{'rung':>8} {'seed':>4} {'LP':>5} {'LP shape':>9} {'crossover':>9} {'budget':>6}"
          f" {'float':>6} {'exact':>6} {'phases':>6} {'float s':>7} {'cert s':>7} {'total s':>7}"
          f" {'fallbacks':>9}")
    ladder = [(rung, *(int(x) for x in spec.lower().split("x"))) for spec in args.rungs]
    for run, players, size in ladder + [(sign_rung, *spec) for spec in SIGN_RUNGS]:
        label = f"{players:>3} x {size:<3}" if run is rung else f"{players:>3} rel {size}"
        for seed in args.seeds:
            for margin, probe, total in run(players, size, seed):
                failed |= (probe.fallbacks > 0 or (run is rung and probe.bland_phases > 1)
                           or probe.float_pivots > probe.budget / 2)
                show(label, seed, margin, probe, total)
    players, cells, seed = DEPENDENT_RUNG
    probe, total = dependent_rung(players, cells, seed)
    failed |= probe.exact_phase1_tableaus > 0 or probe.float_pivots != probe.budget
    show(f"{players:>3} dep {cells}", seed, "sign", probe, total)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
