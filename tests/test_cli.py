from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, strategies as st

from hyperfair import (GoalMatrix, Partition, RatMatrix, TargetPoint, cli, common_refinement,
                       factor_delta_bound, factor_weights, gram_matrix, linalg, problem_io, sharing_matrix,
                       spectral_delta_bound)
from hyperfair.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from hyperfair.relations import RelationMatrix, verify_refutation

from conftest import (TRIO_GRAM_ROWS, TRIO_PINV_K_ROWS, TRIO_PINV_ROWS, TRIO_SHARING_ROWS, fine_tiling,
                      random_profile, random_proper_goal, random_target)

F = Fraction

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


# -- gram ----------------------------------------------------------------------

def test_gram_prints_the_analysis(capsys):
    code, out, _ = run(capsys, "gram", "--input", str(PROBLEMS / "three_players.json"))
    assert code == EXIT_OK
    assert "Gram matrix" in out
    assert "(1, 9, -10)" in out
    assert "Margin bound: 455/1536" in out


def test_gram_report_file_is_exact(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "gram", "--input", str(PROBLEMS / "three_players.json"),
                     "--output", str(out_path))
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["gram"] == TRIO_GRAM_ROWS
    assert report["pseudo_inverse"] == TRIO_PINV_ROWS
    assert report["pinv_times_k"] == TRIO_PINV_K_ROWS
    assert report["kernel_basis"] == [["1", "9", "-10"]]
    assert report["delta_bound"] == "455/1536"
    assert report["factor_bound"] == "1820/6087"
    assert report["spectral_bound"] is None  # dependent measures
    assert report["atoms"] == [["0", "1/10"], ["1/10", "1"]]


TRIO = json.loads((PROBLEMS / "three_players.json").read_text())


@pytest.mark.parametrize("problem, bound", [
    # the trio's densities with a K that breaks the relation (1, 9, -10)
    (dict(TRIO, K=[["1", "-1", "0"], ["0", "0", "0"], ["0", "0", "0"]]), None),
    # two identical players: G^+ K is zero, yet no positive margin is admissible
    ({"players": 2, "densities": [{"breakpoints": ["0", "1"], "values": ["1"]}] * 2,
      "K": [["1", "-1"], ["-1", "1"]]}, None),
    # a zero K is proper, and every margin realizes the target P
    (dict(TRIO, K=[["0"] * 3] * 3), "unbounded"),
], ids=["trio", "twins", "zero"])
def test_gram_gives_a_margin_bound_only_for_a_proper_goal_matrix(capsys, tmp_path, problem, bound):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "gram", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert f"Margin bound: {bound or 'none (the goal matrix is not proper)'}\n" in out
    report = json.loads(out_path.read_text())
    assert report["pinv_times_k"] is not None
    assert report["delta_bound"] == report["factor_bound"] == bound


def test_gram_reports_a_spectral_enclosure_for_independent_measures(capsys, tmp_path):
    problem = {
        "players": 2,
        "densities": [
            {"breakpoints": ["0", "1/2", "1"], "values": ["2", "0"]},
            {"breakpoints": ["0", "1/2", "1"], "values": ["0", "2"]},
        ],
        "K": [["1", "-1"], ["-1", "1"]],
    }
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "gram", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path), "--tol", "1/1024")
    assert code == EXIT_OK
    assert "independent measures" in out
    report = json.loads(out_path.read_text())
    lo, hi = (F(x) for x in report["spectral_bound"])
    # identity Gram matrix: the enclosure brackets (1/2) * 1 / (2 * 1)
    assert lo < F(1, 4) <= hi
    assert hi - lo <= F(1, 1024)
    assert report["delta_bound"] == "1/2"


def test_gram_and_solve_reduce_the_gram_matrix_once(capsys, tmp_path, monkeypatch):
    # One reduction of the n x 2n block [G | I] gives the kernel and the
    # pseudo-inverse, for a singular G as for a nonsingular one: the
    # projectors onto the kernels' complements are built by Gram-Schmidt,
    # not by a second reduction.  The spectral bound's nullity check reads
    # the kernel of the CLI's G, already reduced, and reduces nothing more;
    # on a fresh singular G it reduces that matrix once.
    shapes = []
    pivot_on = linalg._pivot_on

    def counting_pivot_on(rows, columns, below=False):
        shapes.append((len(rows), len(rows[0][0])))
        return pivot_on(rows, columns, below)

    monkeypatch.setattr(linalg, "_pivot_on", counting_pivot_on)
    thirds = ["0", "1/3", "2/3", "1"]
    independent = {
        "players": 3,
        "densities": [{"breakpoints": thirds, "values": ["3" if i == j else "0" for j in range(3)]}
                      for i in range(3)],
        "K": [["2", "-1", "-1"], ["-1", "2", "-1"], ["-1", "-1", "2"]],
    }
    code, out, _ = run(capsys, "gram", "--input", write(tmp_path, "p.json", independent))
    assert code == EXIT_OK and "Spectral margin bound" in out
    assert shapes == [(3, 6)]

    for command in ("gram", "solve"):
        shapes.clear()
        code, _, _ = run(capsys, command, "--input", str(PROBLEMS / "three_players.json"))
        assert code == EXIT_OK
        assert shapes == [(3, 6)]  # rank 2

    shapes.clear()
    g = RatMatrix.from_rows(TRIO_GRAM_ROWS)
    with pytest.raises(ValueError, match="nonsingular"):
        spectral_delta_bound(g, GoalMatrix.make(independent["K"]), TargetPoint.uniform(3))
    assert shapes == [(3, 6)]


# -- solve ----------------------------------------------------------------------

def test_solve_constructs_the_trio_partition(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", str(PROBLEMS / "three_players.json"),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert "Margin delta: 1/6" in out
    assert "player 0: [0, 1/20] [1/10, 7/20]" in out
    report = json.loads(out_path.read_text())
    assert report["route"] == "factor"  # 1/6 is below the factor bound 1820/6087
    assert report["delta"] == "1/6"
    assert report["sharing_matrix"] == TRIO_SHARING_ROWS
    assert report["partition"] == [
        [["0", "1/20"], ["1/10", "7/20"]],
        [["1/20", "1/12"], ["7/20", "2/3"]],
        [["1/12", "1/10"], ["2/3", "1"]],
    ]
    assert report["weight_system"] == [
        ["1/2", "1/3", "1/6"],
        ["5/18", "19/54", "10/27"],
    ]
    fairness = report["fairness"]
    assert fairness["hyper_envy_free"] is True
    assert fairness["hyper_delta"] == "1/6"
    assert fairness["proportional"] is True
    assert fairness["rawlsian_distance"] == "13/10"


def test_solve_maximizes_the_margin(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", str(PROBLEMS / "three_players_max.json"),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert "Margin delta: 1/3" in out
    report = json.loads(out_path.read_text())
    assert report["route"] == "lp"
    assert report["delta"] == "1/3"
    assert report["fairness"]["hyper_delta"] == "1/3"


def test_solve_margin_between_factor_bound_and_maximum_takes_the_lp(capsys, tmp_path):
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["delta"] = "3/10"  # above 1820/6087, below the 1/3 maximum
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert "Margin delta: 3/10" in out
    report = json.loads(out_path.read_text())
    assert report["route"] == "lp"
    assert report["fairness"]["hyper_delta"] == "3/10"


def test_solve_rejects_an_infeasible_pattern(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve",
                       "--input", str(PROBLEMS / "three_players_infeasible_pattern.json"),
                       "--output", str(out_path))
    assert code == EXIT_INFEASIBLE
    assert "Sign pattern: infeasible" in out
    report = json.loads(out_path.read_text())
    assert report["feasibility"] == {"status": "infeasible", "margin": None, "k": None,
                                     "refutation": [["0", "0", "0"], ["1/20", "0", "0"]]}
    assert "partition" not in report


def test_every_infeasible_pool_pattern_ships_a_refutation_that_checks(monkeypatch, capsys, tmp_path):
    # The sign patterns of the benchmark's seed-1 and seed-2 solve_max pools
    # (160 problems each, as perfbench/run.py generates them): each infeasible
    # report's refutation, read back from its strings, must prove the verdict
    # against the report's own kernel basis; a feasible report has none.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checker
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out_path, infeasible = tmp_path / "report.json", 0
    for seed in (1, 2):
        for problem in (s["problem"] for s in workloads.generate("solve_max", seed, 160)):
            if "R" not in problem:
                continue
            code, _, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                             "--output", str(out_path))
            report = json.loads(out_path.read_text())
            feasibility = report["feasibility"]
            assert code == (EXIT_OK if feasibility["status"] == "feasible" else EXIT_INFEASIBLE)
            if code == EXIT_OK:
                assert "refutation" not in feasibility
                continue
            infeasible += 1
            refutation = [[linalg.rat(x) for x in v] for v in feasibility["refutation"]]
            relations = [[linalg.rat(x) for x in v] for v in report["kernel_basis"]]
            assert verify_refutation(refutation, RelationMatrix.from_symbols(problem["R"]), relations)
    assert infeasible == 64


def test_solve_builds_from_a_feasible_pattern(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve",
                       "--input", str(PROBLEMS / "three_players_feasible_pattern.json"),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert "Sign pattern: feasible (slack 3/7)" in out
    report = json.loads(out_path.read_text())
    assert report["feasibility"]["status"] == "feasible"
    assert report["feasibility"]["margin"] == "3/7"
    assert report["delta"] == "1/6"
    assert report["fairness"]["relation_satisfied"] is True
    assert report["fairness"]["hyper_envy_free"] is True


def test_solve_report_partition_passes_verify(capsys, tmp_path):
    solve_report = tmp_path / "report.json"
    code, _, _ = run(capsys, "solve",
                     "--input", str(PROBLEMS / "three_players_feasible_pattern.json"),
                     "--output", str(solve_report))
    assert code == EXIT_OK
    partition_file = write(
        tmp_path, "partition.json",
        {"intervals": json.loads(solve_report.read_text())["partition"]},
    )
    code, out, _ = run(capsys, "verify",
                       "--input", str(PROBLEMS / "three_players_feasible_pattern.json"),
                       "--partition", partition_file)
    assert code == EXIT_OK
    assert "relation_satisfied: True" in out


def test_solve_without_plan_is_analysis_only(capsys, tmp_path):
    problem = {
        "players": 2,
        "densities": [
            {"breakpoints": ["0", "1"], "values": ["1"]},
            {"breakpoints": ["0", "1"], "values": ["1"]},
        ],
    }
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem))
    assert code == EXIT_OK
    assert "analysis only" in out


def test_solve_on_an_all_equal_pattern_leaves_the_margin_unconstrained(capsys, tmp_path):
    # the pattern's witness is K = 0, and with no margin given any margin
    # realizes the same target
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    del problem["K"], problem["delta"]
    problem["R"] = [["="] * 3] * 3
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_OK
    assert "Sign pattern: feasible (slack unconstrained)" in out
    assert "Margin delta: unconstrained" in out
    report = json.loads(out_path.read_text())
    assert report["feasibility"]["margin"] == "unconstrained"
    assert report["delta"] == "unconstrained"
    assert report["fairness"]["hyper_delta"] == "unconstrained"


def test_solve_reports_infeasible_margins(capsys, tmp_path):
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["delta"] = "1/2"  # past the 1/3 maximum
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_INFEASIBLE
    assert "Construction: infeasible" in out
    report = json.loads(out_path.read_text())
    assert report["route"] == "lp"
    assert report["delta"] is None


@pytest.mark.parametrize("delta", ["max", "1/4"])
def test_solve_reports_a_zero_margin_as_infeasible(capsys, tmp_path, delta):
    # two identical players can realize this improper K only at margin 0
    problem = {"players": 2, "densities": [{"breakpoints": ["0", "1"], "values": ["1"]}] * 2,
               "K": [["1", "-1"], ["-1", "1"]], "delta": delta}
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_INFEASIBLE
    assert "Construction: infeasible (no weight system realizes the target at" in out
    assert "Margin delta" not in out
    report = json.loads(out_path.read_text())
    assert "route" not in report
    assert report["delta"] is None
    assert "weight_system" not in report


def test_solve_improper_goal_falls_back_to_the_lp(capsys, tmp_path):
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["K"] = [["1", "-1", "0"], ["0", "0", "0"], ["0", "0", "0"]]  # breaks (1, 9, -10)
    problem["delta"] = "1/100"
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_INFEASIBLE
    assert "Construction: infeasible" in out
    assert "route" not in json.loads(out_path.read_text())


def solve_capturing_the_factor_rows(capsys, monkeypatch, source, out_path):
    """Run ``solve`` on ``source`` and return its report and the rows of the
    factor ``S`` it passed to the factor weights."""
    seen = []

    def capture(profile, factor):
        seen.append(factor)
        return factor_weights(profile, factor)

    monkeypatch.setattr(cli, "factor_weights", capture)
    code, _, _ = run(capsys, "solve", "--input", source, "--output", str(out_path))
    assert code == EXIT_OK
    (factor,) = seen
    report = json.loads(out_path.read_text())
    assert report["route"] == "factor"
    return report, factor.to_rows()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dependent", [False, True])
def test_solve_forms_the_factor_rows_as_p_plus_delta_times_pinv_k(capsys, tmp_path, monkeypatch,
                                                                   seed, dependent):
    rng = random.Random(seed)
    profile = random_profile(rng, n=rng.randint(3, 4), force_dependent=dependent)
    k, p = random_proper_goal(rng, profile), random_target(rng, profile.n)
    gk = linalg.pseudo_inverse(gram_matrix(profile)) @ k.mat
    delta = factor_delta_bound(gk, p) * F(rng.randint(1, 4), 4)
    problem = {
        "players": profile.n,
        "densities": [{"breakpoints": list(map(str, d.breakpoints)), "values": list(map(str, d.values))}
                      for d in profile.densities],
        "p": list(map(str, p.shares)),
        "K": [list(map(str, row)) for row in k.mat.to_rows()],
        "delta": str(delta),
    }
    report, rows = solve_capturing_the_factor_rows(
        capsys, monkeypatch, write(tmp_path, "p.json", problem), tmp_path / "report.json")
    factor = p.as_matrix() + delta * gk
    assert rows == factor.to_rows()
    assert report["weight_system"] == [list(map(str, row))
                                       for row in factor_weights(profile, factor).weights]


def test_solve_forms_the_factor_rows_of_a_sign_pattern_witness(capsys, tmp_path, monkeypatch):
    source = PROBLEMS / "three_players_feasible_pattern.json"
    report, rows = solve_capturing_the_factor_rows(capsys, monkeypatch, str(source),
                                                   tmp_path / "report.json")
    problem = problem_io.load_problem(str(source))
    g = gram_matrix(common_refinement(problem.densities))
    k = RatMatrix.from_rows(report["feasibility"]["k"])
    assert rows == (problem.p.as_matrix() + problem.delta * (linalg.pseudo_inverse(g) @ k)).to_rows()


def _counting_factor_bounds(monkeypatch):
    bounds = []

    def counting(gk, p):
        bounds.append(factor_delta_bound(gk, p))
        return bounds[-1]

    monkeypatch.setattr(cli, "factor_delta_bound", counting)
    return bounds


def test_solve_at_a_fixed_margin_takes_the_factor_bound_of_its_analysis(capsys, tmp_path, monkeypatch):
    bounds = _counting_factor_bounds(monkeypatch)
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "solve", "--input", str(PROBLEMS / "three_players.json"),
                     "--output", str(out_path))
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["route"] == "factor"
    assert [str(b) for b in bounds] == [report["factor_bound"]]


def test_solve_bounds_the_witness_of_a_sign_pattern(capsys, tmp_path, monkeypatch):
    bounds = _counting_factor_bounds(monkeypatch)
    source = PROBLEMS / "three_players_feasible_pattern.json"
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "solve", "--input", str(source), "--output", str(out_path))
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    problem = problem_io.load_problem(str(source))
    g_plus = linalg.pseudo_inverse(gram_matrix(common_refinement(problem.densities)))
    witness = RatMatrix.from_rows(report["feasibility"]["k"])
    assert report["factor_bound"] is None  # the file states no goal matrix
    assert bounds == [factor_delta_bound(g_plus @ witness, problem.p)]


@pytest.mark.parametrize("delta", ["max", "1/100"])
def test_solve_answers_an_improper_goal_without_a_construction(capsys, tmp_path, monkeypatch, delta):
    # the properness check of the analysis settles it: no factor probe, no LP
    def refuse(*_):
        raise AssertionError("an improper goal matrix needs no construction")

    monkeypatch.setattr(cli, "solve_alpha", refuse)
    monkeypatch.setattr(cli, "factor_weights", refuse)
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["K"] = [["1", "-1", "0"], ["0", "0", "0"], ["0", "0", "0"]]  # breaks (1, 9, -10)
    problem["delta"] = delta
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                       "--output", str(out_path))
    assert code == EXIT_INFEASIBLE
    assert out.endswith("Construction: infeasible (no weight system realizes the target at a "
                        "positive margin: the goal matrix is not proper)\n")
    report = json.loads(out_path.read_text())
    assert report["delta"] is None and report["delta_bound"] is None
    assert "route" not in report and "weight_system" not in report


def test_readme_shows_what_solve_prints(capsys):
    readme = (PROBLEMS.parent / "README.md").read_text(encoding="utf-8")
    _, after = readme.split("`solve` on the bundled three-player instance prints:\n\n```\n", 1)
    shown, _ = after.split("```\n", 1)
    code, out, _ = run(capsys, "solve", "--input", str(PROBLEMS / "three_players.json"))
    assert code == EXIT_OK
    assert out == shown


# -- verify ----------------------------------------------------------------------

def test_verify_accepts_the_reference_partition(capsys):
    code, out, _ = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                       "--partition", str(PROBLEMS / "three_players_partition.json"))
    assert code == EXIT_OK
    assert "hyper_envy_free: True" in out
    assert "hyper_delta: 1/6" in out
    assert "rawlsian_distance: 13/10" in out


def test_verify_flags_a_partition_missing_the_plan(capsys, tmp_path):
    grab_all = write(tmp_path, "partition.json",
                     {"intervals": [[["0", "1"]], [], []]})
    code, out, _ = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                       "--partition", grab_all)
    assert code == EXIT_INFEASIBLE
    assert "FAILED: hyper_envy_free" in out


def test_verify_checks_sign_patterns(capsys, tmp_path):
    grab_all = write(tmp_path, "partition.json",
                     {"intervals": [[["0", "1"]], [], []]})
    code, out, _ = run(capsys, "verify",
                       "--input", str(PROBLEMS / "three_players_feasible_pattern.json"),
                       "--partition", grab_all)
    assert code == EXIT_INFEASIBLE
    assert "FAILED: relation_satisfied" in out


def test_verify_names_every_failed_check(capsys, tmp_path):
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["R"] = json.loads((PROBLEMS / "three_players_feasible_pattern.json").read_text())["R"]
    grab_all = write(tmp_path, "partition.json", {"intervals": [[["0", "1"]], [], []]})
    code, out, _ = run(capsys, "verify", "--input", write(tmp_path, "p.json", problem),
                       "--partition", grab_all)
    assert code == EXIT_INFEASIBLE
    assert "  hyper_envy_free: False\n" in out and "  relation_satisfied: False\n" in out
    assert out.endswith("FAILED: hyper_envy_free, relation_satisfied\n")


def _read_back(entry: str) -> Fraction:
    # int() keeps the interpreter's digit limit, so read 1000 digits at a time
    def integer(digits: str) -> int:
        value = 0
        for k in range(0, len(digits), 1000):
            chunk = digits[k:k + 1000]
            value = value * 10**len(chunk) + int(chunk)
        return value

    num, _, den = entry.partition("/")
    return Fraction(integer(num), integer(den or "1"))


def test_verify_writes_entries_past_the_int_to_str_digit_limit(capsys, tmp_path):
    # The 3,000 cuts of fine_tiling() have distinct 20-bit denominators, so
    # the sharing matrix has entries of more digits than str(int) allows.
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    del problem["K"], problem["delta"]
    pieces = Partition(fine_tiling())
    cut = tmp_path / "fine.json"
    problem_io.write_json(cut, problem_io.serialize_partition(pieces))
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--input", write(tmp_path, "p.json", problem),
                       "--partition", str(cut), "--output", str(report))
    assert code == EXIT_OK
    assert out.startswith("Sharing matrix:")
    written = json.loads(report.read_text())["sharing_matrix"]
    assert max(len(entry) for row in written for entry in row) > 4300
    m = sharing_matrix(common_refinement(problem_io.parse_problem(problem).densities), pieces)
    assert [[_read_back(entry) for entry in row] for row in written] == \
        [list(m.mat.row(i)) for i in range(3)]


# -- report files ------------------------------------------------------------------

def test_report_file_is_written_on_every_exit_but_invalid_input(capsys, tmp_path):
    plain = {
        "players": 2,
        "densities": [
            {"breakpoints": ["0", "1"], "values": ["1"]},
            {"breakpoints": ["0", "1"], "values": ["1"]},
        ],
    }
    analysis = tmp_path / "analysis.json"
    code, _, _ = run(capsys, "solve", "--input", write(tmp_path, "p.json", plain),
                     "--output", str(analysis))
    assert code == EXIT_OK
    report = json.loads(analysis.read_text())
    assert report["kernel_basis"] == [["1", "-1"]]
    assert "route" not in report

    failed = tmp_path / "failed.json"
    grab_all = write(tmp_path, "partition.json", {"intervals": [[["0", "1"]], [], []]})
    code, out, _ = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                       "--partition", grab_all, "--output", str(failed))
    assert code == EXIT_INFEASIBLE
    assert "FAILED: hyper_envy_free" in out
    report = json.loads(failed.read_text())
    assert report["partition"] == [[["0", "1"]], [], []]
    assert report["fairness"]["hyper_envy_free"] is False

    invalid = tmp_path / "invalid.json"
    for argv in (["gram", "--input", str(PROBLEMS / "three_players.json"), "--tol", "fast"],
                 ["verify", "--input", str(PROBLEMS / "three_players.json"),
                  "--partition", str(tmp_path / "missing.json")]):
        code, _, _ = run(capsys, *argv, "--output", str(invalid))
        assert code == EXIT_INVALID
        assert not invalid.exists()


# -- error handling ----------------------------------------------------------------

def test_missing_input_option_returns_the_input_error_code(capsys):
    code, out, err = run(capsys, "gram")
    assert code == EXIT_INVALID
    assert "the following arguments are required: --input" in err
    assert out == ""


def test_unknown_subcommand_returns_the_input_error_code(capsys):
    code, _, err = run(capsys, "split", "--input", str(PROBLEMS / "three_players.json"))
    assert code == EXIT_INVALID
    assert "invalid choice: 'split'" in err


def test_help_returns_success(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "usage: hyperfair" in out


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once; calls must not see each other's state
    problem = str(PROBLEMS / "three_players.json")
    first = run(capsys, "solve", "--input", problem)
    assert first[0] == EXIT_OK
    assert run(capsys, "solve", "--tol", "1/3")[0] == EXIT_INVALID
    assert run(capsys, "solve", "--input", problem) == first
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "gram", "--input", problem, "--bogus")[0] == EXIT_INVALID
    assert run(capsys, "solve", "--input", problem) == first


def test_an_unexpected_failure_prints_a_traceback_and_returns_3(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("no such state")

    monkeypatch.setattr(cli, "cmd_gram", fail)
    code, out, err = run(capsys, "gram", "--input", str(PROBLEMS / "three_players.json"))
    assert code == cli.EXIT_INTERNAL == 3
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: no such state\n")
    assert out == ""


def test_missing_input_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "gram", "--input", str(tmp_path / "missing.json"))
    assert code == EXIT_INVALID
    assert "error:" in err


def test_float_in_problem_file_is_an_input_error(capsys, tmp_path):
    problem = {
        "players": 2,
        "densities": [
            {"breakpoints": [0, 0.5, 1], "values": [2, 0]},
            {"breakpoints": [0, 1], "values": [1]},
        ],
    }
    code, _, err = run(capsys, "gram", "--input", write(tmp_path, "p.json", problem))
    assert code == EXIT_INVALID
    assert "floating point" in err
    assert "breakpoints[1]" in err


@pytest.mark.parametrize("zero", ["\u0660", "\U00011f50"], ids=["arabic_indic", "kawi"])
def test_non_ascii_digit_in_problem_file_is_an_input_error(capsys, tmp_path, zero):
    # a digit zero of another script in place of the file's "0"
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    assert problem["K"][0][1] == "0"
    problem["K"][0][1] = zero
    code, out, err = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem))
    assert code == EXIT_INVALID
    assert ".K[0][1]" in err
    assert out == ""


def test_non_list_interval_entry_in_partition_file_is_an_input_error(capsys, tmp_path):
    bad = write(tmp_path, "partition.json", {"intervals": ["0", [], []]})
    code, out, err = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                         "--partition", bad)
    assert code == EXIT_INVALID
    assert "intervals[0]: expected a list of [lo, hi] pairs" in err
    assert out == ""


def _primes_above(lo, count):
    primes, q = [], lo + 1 | 1
    while len(primes) < count:
        if all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
            primes.append(q)
        q += 2
    return primes


def _reported(err: str, check: str) -> Fraction:
    """The number an input error gives after ``check + ", got "``, read back exactly."""
    assert err.startswith("error: ") and err.endswith("\n")
    _, sep, text = err[:-1].partition(check + ", got ")
    assert sep and len(text) > 4300
    return _read_back(text)


def test_density_mass_past_the_digit_limit_is_reported_in_full(capsys, tmp_path):
    # 1,200 equal cells with values 1/q, q the first 1,200 primes above 2**20:
    # the mass has a denominator of some 7,600 digits
    primes = _primes_above(2**20, 1200)
    cells = len(primes)
    problem = {"players": 1, "densities": [{
        "breakpoints": [str(F(j, cells)) for j in range(cells + 1)],
        "values": [f"1/{q}" for q in primes],
    }]}
    code, out, err = run(capsys, "gram", "--input", write(tmp_path, "p.json", problem))
    assert code == EXIT_INVALID and out == ""
    assert ".densities[0]: density must integrate to 1, got " in err
    assert _reported(err, "density must integrate to 1") == sum(F(1, cells * q) for q in primes)


def test_share_sum_past_the_digit_limit_is_reported_in_full(capsys, tmp_path):
    # shares 1/(10**1500 + k): pairwise coprime denominators, a sum of some 4,500 digits
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["p"] = [f"1/{10**1500 + k}" for k in (7, 9, 21)]
    code, out, err = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem))
    assert code == EXIT_INVALID and out == ""
    assert "shares must sum to 1, got " in err
    assert _reported(err, "shares must sum to 1") == sum(F(1, 10**1500 + k) for k in (7, 9, 21))


def test_gap_in_partition_file_is_an_input_error(capsys, tmp_path):
    gap = write(tmp_path, "partition.json",
                {"intervals": [[["0", "1/2"]], [["3/5", "1"]], []]})
    code, _, err = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                       "--partition", gap)
    assert code == EXIT_INVALID
    assert "gap [1/2, 3/5]" in err


def test_junk_tolerance_is_an_input_error(capsys):
    code, _, err = run(capsys, "gram", "--input", str(PROBLEMS / "three_players.json"),
                       "--tol", "fast")
    assert code == EXIT_INVALID
    assert "error:" in err


@pytest.mark.parametrize("tol", ["0", "-1", "-1/3", "fast"])
@pytest.mark.parametrize("command", ["gram", "solve", "verify"])
def test_tolerance_must_be_a_positive_rational_for_every_command(capsys, tmp_path, command, tol):
    # three_players.json has a measure relation, so no spectral bound
    # is computed that could trip over the tolerance later
    partition = ["--partition", str(PROBLEMS / "three_players_partition.json")]
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, command, "--input", str(PROBLEMS / "three_players.json"),
                         *(partition if command == "verify" else []),
                         f"--tol={tol}", "--output", str(out_path))
    assert code == EXIT_INVALID
    assert err.startswith("error:")
    assert out == ""
    assert not out_path.exists()


def test_zero_margin_is_an_input_error(capsys, tmp_path):
    problem = json.loads((PROBLEMS / "three_players.json").read_text())
    problem["delta"] = "0"
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "solve", "--input", write(tmp_path, "p.json", problem),
                         "--output", str(out_path))
    assert code == EXIT_INVALID
    assert ".delta" in err
    assert out == ""
    assert not out_path.exists()


def test_wrong_player_count_partition_is_an_input_error(capsys, tmp_path):
    two = write(tmp_path, "partition.json", {"intervals": [[["0", "1/2"]], [["1/2", "1"]]]})
    code, _, err = run(capsys, "verify", "--input", str(PROBLEMS / "three_players.json"),
                       "--partition", two)
    assert code == EXIT_INVALID
    assert "players" in err


# -- hostile input files -------------------------------------------------------------

BASE_PROBLEM = {
    **json.loads((PROBLEMS / "three_players.json").read_text()),
    "R": json.loads((PROBLEMS / "three_players_feasible_pattern.json").read_text())["R"],
}
BASE_PARTITION = json.loads((PROBLEMS / "three_players_partition.json").read_text())
BAD_RATIONALS = [
    "3/", "1/0", "1/01", "1_0", "+1", " 1 / 2 ", "\u0661", "\u0663/\u0664", "1.5", "",
    "1" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301, "3" * 4301 + "/0",
]
JSON_VALUES = st.sampled_from([None, True, 0, 7, 2.5, "x", "1/2", [], {}, [[]], {"a": 1}])


def _spots(node):
    """``(container, key)`` for every value below ``node``."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _spots(node[key])


@st.composite
def hostile_inputs(draw):
    """A problem and a partition file with one hostile mutation."""
    problem, partition = copy.deepcopy(BASE_PROBLEM), copy.deepcopy(BASE_PARTITION)
    kind = draw(st.sampled_from(
        ["rational", "breakpoints", "ragged", "type", "unsorted", "tiling", "intervals"]))
    if kind == "rational":
        target = draw(st.sampled_from([problem, partition]))
        spots = [(c, k) for c, k in _spots(target) if isinstance(c[k], str)]
        container, key = draw(st.sampled_from(spots))
        container[key] = draw(st.sampled_from(BAD_RATIONALS))
    elif kind == "breakpoints":
        cells = draw(st.integers(1000, 4000))
        values = ["1"] * cells
        values[draw(st.integers(0, cells - 1))] = draw(st.sampled_from(["1", "2", "0", "-1"]))
        problem["densities"][draw(st.integers(0, 2))] = {
            "breakpoints": [f"{k}/{cells}" for k in range(cells + 1)], "values": values}
    elif kind == "ragged":
        row = problem[draw(st.sampled_from(["K", "R"]))][draw(st.integers(0, 2))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])
    elif kind == "type":
        target = draw(st.sampled_from([problem, partition]))
        container, key = draw(st.sampled_from(list(_spots(target))))
        container[key] = draw(JSON_VALUES)
    elif kind == "unsorted":
        # a third breakpoint at or before the second one
        density = problem["densities"][draw(st.integers(0, 1))]
        density["breakpoints"].insert(2, draw(st.sampled_from(["0", "1/20", "1/10"])))
        density["values"].append("0")
    elif kind == "tiling":
        pieces = partition["intervals"][draw(st.integers(0, 2))]
        pair = pieces[draw(st.integers(0, len(pieces) - 1))]
        end = draw(st.integers(0, 1))
        value = F(pair[end]) + draw(st.sampled_from([F(1, 1000), F(-1, 1000), F(1, 10**30)]))
        pair[end] = str(min(max(value, F(0)), F(1)))
    else:
        # thousands of intervals, dealt round-robin; sometimes one is dropped or doubled
        count = draw(st.integers(1000, 3000))
        cuts = [f"{k}/{count}" for k in range(count + 1)]
        pairs = [[a, b] for a, b in zip(cuts, cuts[1:])]
        change = draw(st.sampled_from(["none", "drop", "double"]))
        at = draw(st.integers(0, count - 1))
        if change == "drop":
            del pairs[at]
        elif change == "double":
            pairs.insert(at, pairs[at])
        partition = {"intervals": [pairs[j::3] for j in range(3)]}
    event(kind)
    return problem, partition


@given(hostile_inputs())
def test_hostile_input_files_end_in_an_input_error_or_a_result(files):
    problem, partition = files
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("problem.json", problem), ("partition.json", partition)):
            path = Path(tmp) / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths.append(str(path))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["verify", "--input", paths[0], "--partition", paths[1]])
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_INVALID), sink.getvalue()
    event(f"exit {code}")


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"players": 1, "densities": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, "gram", "--input", str(path))
    assert code == EXIT_INVALID
    assert err == f"error: {path}: JSON nested too deeply\n"
    assert out == ""
