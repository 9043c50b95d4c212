"""Command line interface.

Three subcommands share one problem-file format:

* ``gram``    print the Gram matrix, the measure relations, the exact
              pseudo-inverse, and (with a goal matrix) the margin bound.
* ``solve``   decide a sign pattern and/or construct an explicit
              partition realizing ``P + delta K``.
* ``verify``  audit a partition file against a problem file.

Exit codes are stable: 0 success, 1 infeasible or a failed audit,
2 invalid input, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from fractions import Fraction

from .hyperfree import (
    UNBOUNDED,
    UNCONSTRAINED,
    DEFAULT_TOL,
    GoalMatrix,
    TargetPoint,
    _delta_bound_of,
    factor_delta_bound,
    factor_matrix,
    is_proper,
    spectral_delta_bound,
)
from .linalg import _grid, fmt, kernel_basis, pseudo_inverse, rat
from .measures import MeasureProfile, common_refinement, gram_matrix
from .partition import MAXIMIZE, InfeasibleError, Partition, build_from_weights, factor_weights, solve_alpha
from .problem_io import (
    Problem,
    load_partition,
    load_problem,
    matrix_to_strings,
    serialize_partition,
    serialize_problem,
    vector_to_strings,
    write_json,
)
from .relations import RelationMatrix, solve_relations
from .verify import FairnessReport, check_fairness, sharing_matrix

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _print_matrix(title: str, cells: list[list[str]]) -> None:
    """Print a matrix from its report strings, laid out as ``RatMatrix.__str__`` does."""
    print(f"{title}:", *(f"  {line}" for line in _grid(cells).splitlines()), sep="\n")


def _text(x) -> str | None:
    """Report form of a margin or bound: a rational, a sentinel's name, or None."""
    if x is None:
        return None
    if x is UNBOUNDED:
        return "unbounded"
    if x is UNCONSTRAINED:
        return "unconstrained"
    return fmt(x)


def _fairness_dict(report: FairnessReport) -> dict:
    return {
        "proportional": report.proportional,
        "exact_division": report.exact_division,
        "equitable": report.equitable,
        "envy_free": report.envy_free,
        "super_envy_free": report.super_envy_free,
        "hyper_envy_free": report.hyper_envy_free,
        "hyper_delta": _text(report.hyper_delta),
        "relation_satisfied": report.relation_satisfied,
        "rawlsian_distance": fmt(report.rawlsian),
    }


def _analysis(problem: Problem, tol: Fraction) -> tuple[dict, dict]:
    """Shared first stage: profile, Gram data, and bound block."""
    profile = common_refinement(problem.densities)
    g = gram_matrix(profile)
    relations, g_plus = kernel_basis(g), pseudo_inverse(g)  # one reduction of g
    p = problem.p if problem.p is not None else TargetPoint.uniform(problem.n)

    report: dict = {
        "inputs": serialize_problem(problem),
        "atoms": [[fmt(iv.lo), fmt(iv.hi)] for iv in profile.atoms],
        "gram": matrix_to_strings(g),
        "kernel_basis": [vector_to_strings(v) for v in relations],
        "pseudo_inverse": matrix_to_strings(g_plus),
        "pinv_times_k": None,
        "delta_bound": None,
        "factor_bound": None,
        "spectral_bound": None,
    }
    gk = proper = factor_bound = None
    if problem.k is not None:
        gk = g_plus @ problem.k.mat
        report["pinv_times_k"] = matrix_to_strings(gk)
        proper = is_proper(problem.k, relations)
        if proper:  # no margin is admissible otherwise
            report["delta_bound"] = _text(_delta_bound_of(gk, p))
            factor_bound = factor_delta_bound(gk, p)
            report["factor_bound"] = _text(factor_bound)
        if not relations and not problem.k.is_zero():
            lo, hi = spectral_delta_bound(g, problem.k, p, tol)
            report["spectral_bound"] = [fmt(lo), fmt(hi)]
    state = {"profile": profile, "relations": relations, "g_plus": g_plus, "gk": gk,
             "proper": proper, "factor_bound": factor_bound, "p": p}
    return report, state


def _audit(profile: MeasureProfile, part: Partition, k: GoalMatrix | None, p: TargetPoint,
           r: RelationMatrix | None) -> dict:
    """Three report fields: partition, sharing matrix and fairness verdicts."""
    shares = sharing_matrix(profile, part)
    return {
        "partition": serialize_partition(part)["intervals"],
        "sharing_matrix": matrix_to_strings(shares.mat),
        "fairness": _fairness_dict(check_fairness(shares, k=k, p=p, r=r)),
    }


def cmd_gram(args: argparse.Namespace) -> tuple[int, dict]:
    problem = load_problem(args.input)
    report, state = _analysis(problem, args.tol)

    _print_matrix("Gram matrix", report["gram"])
    if report["kernel_basis"]:
        print("Measure relations (kernel basis):")
        for v in report["kernel_basis"]:
            print("  (" + ", ".join(v) + ")")
    else:
        print("Measure relations: none (independent measures)")
    _print_matrix("Pseudo-inverse", report["pseudo_inverse"])
    if problem.k is not None:
        _print_matrix("Pseudo-inverse times goal matrix", report["pinv_times_k"])
        print(f"Margin bound: {report['delta_bound'] or 'none (the goal matrix is not proper)'}")
        if report["spectral_bound"] is not None:
            lo, hi = report["spectral_bound"]
            print(f"Spectral margin bound: [{lo}, {hi}]")
    return EXIT_OK, report


def cmd_solve(args: argparse.Namespace) -> tuple[int, dict]:
    problem = load_problem(args.input)
    report, state = _analysis(problem, args.tol)
    profile, relations, p = state["profile"], state["relations"], state["p"]

    k = problem.k
    if problem.r is not None:
        solution = solve_relations(problem.r, relations)
        k = solution.k  # None, as is the margin, when the pattern is infeasible
        report["feasibility"] = {"status": "feasible" if solution.feasible else "infeasible",
                                 "margin": _text(solution.margin),
                                 "k": None if k is None else matrix_to_strings(k.mat)}
        if not solution.feasible:
            # Motzkin's alternative (a, b_1, ..., b_L), one b per kernel_basis vector
            report["feasibility"]["refutation"] = [vector_to_strings(v) for v in solution.refutation]
            print("Sign pattern: infeasible (no proper goal matrix matches)")
            return EXIT_INFEASIBLE, report
        print(f"Sign pattern: feasible (slack {report['feasibility']['margin']})")
        _print_matrix("Witness goal matrix", report["feasibility"]["k"])
    elif k is None:
        print("Problem file has neither a goal matrix nor a sign pattern; analysis only.")
        return EXIT_OK, report
    elif not state["proper"]:
        # Every realizable M - P is proper, so no division has a positive margin.
        report["delta"] = None
        print("Construction: infeasible (no weight system realizes the target at a positive "
              "margin: the goal matrix is not proper)")
        return EXIT_INFEASIBLE, report

    # k is proper from here on: the given one or the sign pattern's witness.
    delta_req = problem.delta if problem.delta is not None else MAXIMIZE
    weights = None
    if delta_req != MAXIMIZE:
        # The factor S = G^+ (P + delta K) = P + delta G^+ K is nonnegative up
        # to the factor bound and cuts the partition without an LP.  A given
        # K's bound is the analysis's; a sign pattern's witness needs its own.
        gk, bound = state["gk"], state["factor_bound"]
        if problem.r is not None:
            gk = state["g_plus"] @ k.mat
            bound = factor_delta_bound(gk, p)
        if bound is UNBOUNDED or delta_req <= bound:
            weights, achieved = factor_weights(profile, factor_matrix(gk, p, delta_req)), delta_req
    report["route"] = "lp" if weights is None else "factor"
    if weights is None:
        try:
            weights, achieved = solve_alpha(profile, k, p, delta_req)
        except InfeasibleError as exc:
            report["delta"] = None
            print(f"Construction: infeasible ({exc})")
            return EXIT_INFEASIBLE, report
        # "max" on a proper nonzero K reaches at least the factor bound,
        # which is positive; fixed margins are positive by input checks.
        assert achieved != 0, "a proper nonzero goal matrix has a positive maximum margin"

    part = build_from_weights(profile, weights)
    report["delta"] = _text(achieved)
    report["weight_system"] = [vector_to_strings(row) for row in weights.weights]
    report.update(_audit(profile, part, k, p, problem.r))

    print(f"Margin delta: {report['delta']}")
    print("Partition:")
    for j, pieces in enumerate(report["partition"]):
        spans = " ".join(f"[{lo}, {hi}]" for lo, hi in pieces) or "(nothing)"
        print(f"  player {j}: {spans}")
    _print_matrix("Sharing matrix", report["sharing_matrix"])
    print(f"Rawlsian distance: {report['fairness']['rawlsian_distance']}")
    return EXIT_OK, report


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    problem = load_problem(args.input)
    part = load_partition(args.partition)
    profile = common_refinement(problem.densities)
    p = problem.p if problem.p is not None else TargetPoint.uniform(problem.n)

    report = {"inputs": serialize_problem(problem), **_audit(profile, part, problem.k, p, problem.r)}
    fairness = report["fairness"]
    _print_matrix("Sharing matrix", report["sharing_matrix"])
    for key, value in fairness.items():
        print(f"  {key}: {value}")

    failed = [name for name in ("hyper_envy_free", "relation_satisfied") if fairness[name] is False]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_INFEASIBLE, report
    return EXIT_OK, report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyperfair",
        description="Exact construction and audit of sign-constrained fair divisions of [0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gram": ("Gram matrix, measure relations, pseudo-inverse, margin bounds", False),
        "solve": ("decide a sign pattern and build an explicit partition", False),
        "verify": ("audit a partition file against a problem file", True),
    }
    for name, (help_text, needs_partition) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--output", help="write the full report here (JSON)")
        p.add_argument("--tol", default=str(DEFAULT_TOL),
                       help="enclosure width for eigenvalue bounds (exact rational)")
        if needs_partition:
            p.add_argument("--partition", required=True, help="partition file (JSON)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        args.tol = rat(args.tol)
        if args.tol <= 0:
            raise ValueError("tolerance must be positive")
        # looked up per call, so a wrapped command function is the one run
        command = {"gram": cmd_gram, "solve": cmd_solve, "verify": cmd_verify}[args.command]
        code, report = command(args)
        if args.output:
            write_json(args.output, report)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
