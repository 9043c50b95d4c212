#!/usr/bin/env python3
"""End-to-end tour of the bundled three-player instance.

Loads ``problems/three_players.json``, prints every intermediate object
on the way from densities to a verified division — refinement atoms,
Gram matrix, measure relations, pseudo-inverse, margin bound — then
constructs the partition by both routes (weight LP and stochastic
factor), audits the result, and decides the two bundled sign patterns.

Run from the repository root:

    python3 scripts/worked_example.py
    python3 scripts/worked_example.py --delta max
"""

from __future__ import annotations

import argparse
from pathlib import Path

from hyperfair import (
    MAXIMIZE,
    UNBOUNDED,
    UNCONSTRAINED,
    DeltaTooLargeError,
    build_from_weights,
    build_via_stochastic_factor,
    check_fairness,
    common_refinement,
    delta_bound,
    fmt,
    gram_matrix,
    is_proper,
    measure_relations,
    pseudo_inverse,
    rawlsian_distance,
    rn_weights,
    sharing_matrix,
    solve_alpha,
    solve_relations,
    verify_refutation,
    verify_relation_solution,
)
from hyperfair.problem_io import load_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def show(label: str, mat) -> None:
    print(f"{label}:")
    for i in range(mat.rows):
        print("   ", "  ".join(fmt(x).rjust(12) for x in mat.row(i)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problem", type=Path,
                    default=PROBLEMS / "three_players.json")
    ap.add_argument("--delta", default=None,
                    help="margin to realize ('max' or a rational; "
                         "default: the problem file's)")
    args = ap.parse_args(argv)

    problem = load_problem(args.problem)
    profile = common_refinement(problem.densities)
    n = profile.n
    print(f"Problem: {args.problem}")
    print(f"Players: {n}")
    print("Atoms of the common refinement:")
    for a, iv in enumerate(profile.atoms):
        weights = ", ".join(fmt(x) for x in rn_weights(profile, a))
        print(f"    [{fmt(iv.lo)}, {fmt(iv.hi)}]  normalized weights ({weights})")

    g = gram_matrix(profile)
    show("Gram matrix", g)
    relations = measure_relations(profile)
    if relations:
        for lam in relations:
            print("Measure relation:", tuple(fmt(x) for x in lam))
    else:
        print("Measure relations: none (independent measures)")

    k, p = problem.k, problem.p
    if k is None or p is None:
        print("No goal matrix in the problem file; stopping after analysis.")
        return 0

    report = is_proper(k, relations)
    print(f"Goal matrix proper: {bool(report)}")
    g_plus = pseudo_inverse(g)
    show("Pseudo-inverse", g_plus)
    show("Pseudo-inverse times goal", g_plus @ k.mat)
    bound = delta_bound(g_plus, k, p)
    print("Margin bound:",
          "unbounded" if bound is UNBOUNDED else fmt(bound))

    delta = args.delta if args.delta is not None else problem.delta
    if delta is None:
        delta = MAXIMIZE
    weights, achieved = solve_alpha(profile, k, p, delta)
    label = ("unconstrained" if achieved is UNCONSTRAINED else fmt(achieved))
    print(f"Margin delta: {label}")
    part = build_from_weights(profile, weights)
    for j, pieces in enumerate(part.pieces):
        spans = " ".join(f"[{fmt(iv.lo)}, {fmt(iv.hi)}]" for iv in pieces)
        print(f"    player {j}: {spans}")

    m = sharing_matrix(profile, part)
    show("Sharing matrix", m.mat)
    fairness = check_fairness(m, k, p, problem.r)
    for name in ("proportional", "exact_division", "equitable", "envy_free",
                 "super_envy_free", "hyper_envy_free"):
        print(f"    {name}: {getattr(fairness, name)}")
    print("    rawlsian_distance:", fmt(rawlsian_distance(m)))

    if achieved is not UNCONSTRAINED and achieved != 0:
        try:
            other = build_via_stochastic_factor(profile, k, p, achieved)
        except DeltaTooLargeError:
            # The LP route can certify margins past the point where the
            # factor matrix goes negative; only the LP witness exists there.
            print("Stochastic-factor route: margin out of reach "
                  "(factor goes negative)")
        else:
            same = sharing_matrix(profile, other).mat == m.mat
            print(f"Stochastic-factor route agrees: {same}")

    print()
    print("Bundled sign patterns:")
    for name in ("three_players_infeasible_pattern.json",
                 "three_players_feasible_pattern.json"):
        pattern = load_problem(PROBLEMS / name).r
        sol = solve_relations(pattern, relations)
        if not sol.feasible:
            ok = verify_refutation(sol.refutation, pattern, relations)
            print(f"    {name}: infeasible (refutation verified: {ok})")
            continue
        margin = ("unconstrained" if sol.margin is UNCONSTRAINED
                  else fmt(sol.margin))
        ok = verify_relation_solution(sol.k, pattern, relations)
        print(f"    {name}: feasible (slack {margin}, witness verified: {ok})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
