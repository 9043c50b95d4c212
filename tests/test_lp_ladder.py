from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

from hyperfair import simplex
from hyperfair.partition import MAXIMIZE, solve_alpha

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _lp_ladder(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # for its random_roundtrip import
    spec = importlib.util.spec_from_file_location("lp_ladder", SCRIPTS / "lp_ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ladder_counts_a_fallback_to_exact_bland(monkeypatch, trio_profile, trio_goal, uniform3):
    # The ladder exits 1 on any fallback; its probe must see one when the
    # float stage gives no basis, and none when the basis is certified.
    ladder = _lp_ladder(monkeypatch)
    probe, _, (_, best) = ladder.probed(solve_alpha, trio_profile, trio_goal, uniform3, MAXIMIZE)
    assert best == Fraction(1, 3)
    assert probe.fallbacks == 0 and probe.bland_phases == 1
    monkeypatch.setattr(simplex, "_float_basis", lambda goal, base: None)
    probe, _, (_, forced) = ladder.probed(solve_alpha, trio_profile, trio_goal, uniform3, MAXIMIZE)
    assert forced == best
    assert probe.fallbacks == 1


def test_a_sign_rung_runs_one_lp_without_a_fallback(monkeypatch):
    # Under a relation the alternative LP refutes the pattern after a
    # crossover, one Bland phase; with none the row test leaves the primal
    # sign LP, both phases, to find the witness.  sign_rung asserts both.
    ladder = _lp_ladder(monkeypatch)
    for players, count, phases in ((12, 1, 1), (6, 0, 2)):
        [(_, probe, _)] = ladder.sign_rung(players, count, 1)
        assert probe.fallbacks == 0 and probe.bland_phases == phases


def test_the_probe_counts_the_phase_1_tableaus_a_fallback_builds(monkeypatch, trio_profile, trio_goal,
                                                                  uniform3):
    # The dependent rung fails on a fallback that builds a phase-1
    # tableau.  With no float basis, the weight LP's exact run crosses
    # over from its start point and builds none; the primal sign LP has
    # no start point, and its exact run builds one.
    ladder = _lp_ladder(monkeypatch)
    monkeypatch.setattr(simplex, "_float_basis", lambda goal, base: None)
    probe, _, (_, best) = ladder.probed(solve_alpha, trio_profile, trio_goal, uniform3, MAXIMIZE)
    assert best == Fraction(1, 3)
    assert probe.fallbacks == 1 and probe.exact_phase1_tableaus == 0
    [(_, probe, _)] = ladder.sign_rung(6, 0, 1)
    assert probe.fallbacks == 1 and probe.exact_phase1_tableaus == 1


def test_the_probe_reports_the_float_pivot_limit(monkeypatch, trio_profile, trio_goal, uniform3):
    # The ladder fails any LP whose float run takes over half its limit,
    # and the dependent rung unless its float run stops at the limit; a
    # zero limit stops the trio weight LP's, which then falls back.
    ladder = _lp_ladder(monkeypatch)
    probe, _, _ = ladder.probed(solve_alpha, trio_profile, trio_goal, uniform3, MAXIMIZE)
    rows, columns = probe.shape
    assert probe.budget == 4 * (rows + columns) and 0 < probe.float_pivots <= probe.budget / 2
    assert probe.fallbacks == probe.exact_pivots == 0
    monkeypatch.setattr(simplex, "_FLOAT_PIVOTS", 0)
    probe, _, (_, best) = ladder.probed(solve_alpha, trio_profile, trio_goal, uniform3, MAXIMIZE)
    assert best == Fraction(1, 3)
    assert probe.budget == probe.float_pivots == 0 and probe.fallbacks == 1
