from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfair import partition, simplex
from hyperfair.hyperfree import (UNCONSTRAINED, GoalMatrix, TargetPoint, delta_bound, factor_delta_bound,
                                 stochastic_factor)
from hyperfair.linalg import RatMatrix, pseudo_inverse
from hyperfair.measures import (Interval, StepDensity, common_refinement, gram_matrix, measure_of,
                                measure_relations)
from hyperfair.partition import (
    MAXIMIZE,
    InfeasibleError,
    Partition,
    PartitionError,
    WeightSystem,
    build_from_weights,
    build_via_stochastic_factor,
    factor_weights,
    solve_alpha,
)
from hyperfair.verify import check_fairness, sharing_matrix

from conftest import blocky_profile, fine_tiling, random_profile, random_proper_goal, random_target
from oracles import atom_factor_weights, cursor_cut, lp_bland_reference

F = Fraction

TRIO_WEIGHTS = WeightSystem.make([
    ["1/2", "1/3", "1/6"],
    ["5/18", "19/54", "10/27"],
])

TRIO_PIECES = (
    (Interval.make("0", "1/20"), Interval.make("1/10", "7/20")),
    (Interval.make("1/20", "1/12"), Interval.make("7/20", "2/3")),
    (Interval.make("1/12", "1/10"), Interval.make("2/3", "1")),
)


# -- WeightSystem / Partition validation ------------------------------------

def test_weight_system_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        WeightSystem.make([["1/2", "1/3"]])
    with pytest.raises(ValueError, match="negative"):
        WeightSystem.make([["3/2", "-1/2"]])
    with pytest.raises(ValueError, match="at least one"):
        WeightSystem(())
    w = WeightSystem.make([["1/2", "1/2"], ["1", "0"]])
    assert w.num_atoms == 2
    assert w.n == 2


def test_partition_accepts_a_clean_tiling():
    part = Partition(TRIO_PIECES)
    assert part.n == 3
    assert part.total_length(0) == F(1, 20) + F(1, 4)
    assert sum((part.total_length(j) for j in range(3)), F(0)) == 1


def test_partition_ignores_zero_length_intervals():
    part = Partition((
        (Interval.make("0", "1"), Interval.make("1/2", "1/2")),
        (),
    ))
    assert part.total_length(0) == 1


def test_partition_reports_interior_gap():
    with pytest.raises(PartitionError, match=r"gap \[1/2, 3/5\]"):
        Partition((
            (Interval.make("0", "1/2"),),
            (Interval.make("3/5", "1"),),
        ))


def test_partition_reports_tail_gap():
    with pytest.raises(PartitionError, match=r"gap \[1/2, 1\]"):
        Partition(((Interval.make("0", "1/2"),), ()))


def test_partition_reports_overlap():
    with pytest.raises(PartitionError, match="overlaps"):
        Partition((
            (Interval.make("0", "1/2"),),
            (Interval.make("2/5", "1"),),
        ))


# -- tiling order when endpoints tie as floats ---------------------------------

HALF, TINY = F(1, 2), F(1, 10**30)  # HALF + k * TINY all round to the float 0.5


def test_partition_orders_endpoints_whose_floats_tie():
    # player 0's first interval lies after player 1's second one
    part = Partition((
        (Interval(HALF + TINY, HALF + 2 * TINY), Interval(HALF + 2 * TINY, F(1))),
        (Interval(F(0), HALF), Interval(HALF, HALF + TINY)),
    ))
    assert part.total_length(0) + part.total_length(1) == 1


def test_partition_overlap_among_float_ties_is_named_in_exact_order():
    with pytest.raises(PartitionError) as exc:
        Partition((
            (Interval(HALF + TINY, HALF + 3 * TINY), Interval(HALF + 3 * TINY, F(1))),
            (Interval(F(0), HALF),),
            (Interval(HALF, HALF + 2 * TINY),),
        ))
    assert str(exc.value) == (
        f"interval [{HALF + TINY}, {HALF + 3 * TINY}] of player 0 overlaps "
        f"[{HALF + TINY}, {HALF + 2 * TINY}]"
    )
    with pytest.raises(PartitionError) as exc:
        Partition(((Interval(HALF, F(1)),), (Interval(F(0), HALF + TINY),)))
    assert str(exc.value) == f"interval [1/2, 1] of player 0 overlaps [1/2, {HALF + TINY}]"


def test_partition_gap_among_float_ties_is_named_exactly():
    with pytest.raises(PartitionError) as exc:
        Partition(((Interval(HALF + TINY, F(1)),), (Interval(F(0), HALF),)))
    assert str(exc.value) == f"coverage gap [1/2, {HALF + TINY}] is assigned to nobody"


def test_partition_names_intervals_that_share_a_start():
    # the shorter of two intervals that start together comes first
    with pytest.raises(PartitionError) as exc:
        Partition((
            (Interval.make("0", "1/2"),),
            (Interval.make("0", "1/3"), Interval.make("1/2", "1")),
        ))
    assert str(exc.value) == "interval [0, 1/2] of player 0 overlaps [0, 1/3]"
    with pytest.raises(PartitionError) as exc:
        Partition((
            (Interval.make("1/3", "1"),),
            (Interval.make("0", "1/3"),),
            (Interval.make("1/3", "2/3"),),
        ))
    assert str(exc.value) == "interval [1/3, 1] of player 0 overlaps [1/3, 2/3]"


def test_partition_names_a_doubled_interval():
    with pytest.raises(PartitionError) as exc:
        Partition(((Interval.make("0", "1/2"), Interval.make("0", "1/2")),
                   (Interval.make("1/2", "1"),)))
    assert str(exc.value) == "interval [0, 1/2] of player 0 overlaps [0, 1/2]"
    with pytest.raises(PartitionError) as exc:
        Partition(((Interval.make("0", "1/2"),),
                   (Interval.make("0", "1/2"), Interval.make("1/2", "1"))))
    assert str(exc.value) == "interval [0, 1/2] of player 1 overlaps [0, 1/2]"


def test_partition_validates_a_fine_tiling_with_distinct_denominators():
    pieces = fine_tiling()
    part = Partition(pieces)
    assert [(lo, hi) for _, lo, _, hi, *_ in part.records] == sorted(
        (iv.lo, iv.hi) for ivs in pieces for iv in ivs)
    assert sum((part.total_length(j) for j in range(3)), F(0)) == 1
    moved = list(pieces[0])
    moved[0] = Interval(moved[0].lo, moved[0].hi - F(1, 2**60))
    with pytest.raises(PartitionError, match="coverage gap"):
        Partition((tuple(moved), *pieces[1:]))


# -- cutting atoms by weights -------------------------------------------------

def test_build_from_weights_reproduces_the_trio_partition(trio_profile):
    part = build_from_weights(trio_profile, TRIO_WEIGHTS)
    assert part.pieces == TRIO_PIECES


def test_build_from_weights_drops_zero_slices(trio_profile):
    w = WeightSystem.make([[1, 0, 0], [0, 0, 1]])
    part = build_from_weights(trio_profile, w)
    assert part.pieces == (
        (Interval.make("0", "1/10"),),
        (),
        (Interval.make("1/10", "1"),),
    )


def test_build_from_weights_validates_shapes(trio_profile):
    with pytest.raises(ValueError, match="rows"):
        build_from_weights(trio_profile, WeightSystem.make([[1, 0, 0]]))
    with pytest.raises(ValueError, match="players"):
        build_from_weights(trio_profile, WeightSystem.make([[1, 0], [0, 1]]))


@given(st.randoms(use_true_random=False))
def test_piece_measures_match_the_weighted_atom_sums(rng):
    profile = random_profile(rng)
    n = profile.n
    rows = []
    for _ in profile.atoms:
        raw = [F(rng.randint(0, 4)) for _ in range(n)]
        if all(x == 0 for x in raw):
            raw[rng.randrange(n)] = F(1)
        total = sum(raw)
        rows.append([x / total for x in raw])
    w = WeightSystem.make(rows)
    part = build_from_weights(profile, w)
    for i in range(n):
        for j in range(n):
            direct = sum(
                (measure_of(profile, i, iv) for iv in part.pieces[j]), F(0)
            )
            weighted = sum(
                (w.weights[a][j] * profile.atom_measure(i, a)
                 for a in range(len(profile.atoms))),
                F(0),
            )
            assert direct == weighted


@pytest.mark.parametrize("rows, message", [
    ([["1/2", "1/2"], ["3/2", "-1/2"]], "atom 1 has a negative weight"),
    ([["-1", "1"]], "atom 0 has a negative weight"),  # sums to 0 too: the sign is named first
    ([["1", "0"], ["1/2", "1/3"]], "atom 1 weights must sum to 1"),
    ([[]], "atom 0 weights must sum to 1"),  # a zero-width row: nothing to take the least of
    ([["1/2", "1/2"], ["1"]], "weight rows have inconsistent lengths"),
    ([["-1", "1", "1"], ["1"]], "atom 0 has a negative weight"),  # rows are checked in order
    ([["1"], ["-1", "2"]], "weight rows have inconsistent lengths"),
])
def test_weight_system_names_the_first_bad_atom(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightSystem.make(rows)


def test_weight_system_integer_rows_are_its_rows_over_their_least_denominator():
    w = WeightSystem.make([["1/2", "1/3", "1/6"], ["0", "1", "0"], ["2/5", "0", "3/5"]])
    assert w.int_rows == (((3, 2, 1), 6), ((0, 1, 0), 1), ((2, 0, 3), 5))


# Cut points for merged grids: twelfths and sevenths, and the ends of a
# fine tiling, whose denominators are distinct odd 20-bit numbers.
SMALL_CUTS = sorted({F(k, 12) for k in range(1, 12)} | {F(k, 7) for k in range(1, 7)})
FINE_CUTS = sorted({iv.hi for piece in fine_tiling(count=60) for iv in piece} - {F(1)})


def merged_profile(rng, cuts):
    """Two to four densities, each breaking at points of its own from ``cuts``;
    half the time all of them vanish on one stretch between two cuts, so
    the merged grid has a null atom there."""
    n = rng.randint(2, 4)
    null = sorted(rng.sample(cuts, 2)) if rng.random() < 0.5 else None
    densities = []
    for _ in range(n):
        own = set(rng.sample(cuts, rng.randint(1, 6))) | set(null or ())
        breaks = [F(0), *sorted(own), F(1)]
        while True:
            vals = [0 if null and null[0] <= lo < null[1] else rng.randint(0, 3) for lo in breaks[:-1]]
            if any(vals):
                break
        densities.append(StepDensity.normalized(breaks, vals))
    return common_refinement(densities)


def random_weight_rows(rng, atoms, n):
    """Weight rows of three kinds: one owner, some zero weights, all weights
    positive with up to 20-bit numerators."""
    rows = []
    for _ in range(atoms):
        kind = rng.randrange(3)
        if kind == 0:
            row = [F(0)] * n
            row[rng.randrange(n)] = F(1)
        else:
            raw = [rng.randint(0 if kind == 1 else 1, 3 if kind == 1 else 2**20) for _ in range(n)]
            if not any(raw):
                raw[rng.randrange(n)] = 1
            row = [F(x, sum(raw)) for x in raw]
        rows.append(tuple(row))
    return tuple(rows)


def profile_of_kind(rng, kind):
    if kind == "random":
        return random_profile(rng)
    if kind in ("null", "dependent"):
        return blocky_profile(rng, kind)
    return merged_profile(rng, SMALL_CUTS if kind == "merged" else FINE_CUTS)


@given(st.randoms(use_true_random=False), st.sampled_from(["random", "null", "merged", "fine"]))
def test_build_from_weights_matches_a_fraction_cursor_cut(rng, kind):
    profile = profile_of_kind(rng, kind)
    rows = random_weight_rows(rng, len(profile.atoms), profile.n)
    expected = cursor_cut([(iv.lo, iv.hi) for iv in profile.atoms], rows)
    part = build_from_weights(profile, WeightSystem(rows))
    assert part == Partition(tuple(tuple(Interval(lo, hi) for lo, hi in piece) for piece in expected))


@settings(max_examples=30)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["random", "forced", "null", "dependent", "merged"]))
def test_factor_weights_and_the_stochastic_route_match_fraction_oracles(rng, kind):
    if kind == "forced":
        profile = random_profile(rng, n=rng.randint(3, 4), force_dependent=True)
    else:
        profile = profile_of_kind(rng, kind)
    k, p = random_proper_goal(rng, profile), random_target(rng, profile.n)
    g = gram_matrix(profile)
    g_plus = pseudo_inverse(g)
    delta = factor_delta_bound(g_plus @ k.mat, p) * F(rng.randint(0, 4), 4)
    factor = stochastic_factor(g, g_plus, k, p, delta).factor
    expected = atom_factor_weights([list(row) for row in profile.atom_values], factor.to_rows())
    assert [list(row) for row in factor_weights(profile, factor).weights] == expected
    part = build_via_stochastic_factor(profile, k, p, delta)
    cut = cursor_cut([(iv.lo, iv.hi) for iv in profile.atoms], expected)
    assert part == Partition(tuple(tuple(Interval(lo, hi) for lo, hi in piece) for piece in cut))


# -- the weight LP -------------------------------------------------------------

def test_solve_alpha_at_the_trio_margin(trio_profile, trio_goal, uniform3):
    w, achieved = solve_alpha(trio_profile, trio_goal, uniform3, "1/6")
    assert achieved == F(1, 6)
    assert w == TRIO_WEIGHTS


def test_solve_alpha_maximizes_to_one_third(trio_profile, trio_goal, uniform3):
    w, achieved = solve_alpha(trio_profile, trio_goal, uniform3)
    assert achieved == F(1, 3)
    assert w == WeightSystem.make([
        ["2/3", "1/3", "0"],
        ["2/9", "10/27", "11/27"],
    ])


def _overflow(goal, base):
    raise OverflowError("entry beyond float range")


@pytest.mark.parametrize("float_stage", [lambda goal, base: None, _overflow], ids=["none", "overflow"])
def test_an_unproven_weight_lp_basis_falls_back_to_bland(monkeypatch, trio_profile, trio_goal,
                                                         uniform3, float_stage):
    best = solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE)
    monkeypatch.setattr(simplex, "_float_basis", float_stage)
    calls = []

    def counting(goal, base, solve=simplex._solve):
        calls.append(goal)
        return solve(goal, base)

    monkeypatch.setattr(simplex, "_solve", counting)
    assert solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE) == best
    assert best[1] == F(1, 3)
    assert len(calls) == 1
    assert solve_alpha(trio_profile, trio_goal, uniform3, F(1, 6)) == (TRIO_WEIGHTS, F(1, 6))
    assert len(calls) == 2


def test_solve_alpha_rejects_margins_past_the_maximum(trio_profile, trio_goal, uniform3):
    with pytest.raises(InfeasibleError, match="margin 1/2"):
        solve_alpha(trio_profile, trio_goal, uniform3, "1/2")


def test_solve_alpha_zero_goal_leaves_the_margin_unconstrained(trio_profile, uniform3):
    w, achieved = solve_alpha(trio_profile, GoalMatrix.zero(3), uniform3, MAXIMIZE)
    assert achieved is UNCONSTRAINED
    part = build_from_weights(trio_profile, w)
    for i in range(3):
        for j in range(3):
            got = sum((measure_of(trio_profile, i, iv) for iv in part.pieces[j]), F(0))
            assert got == F(1, 3)


def test_solve_alpha_rejects_junk_margin_strings(trio_profile, trio_goal, uniform3):
    with pytest.raises(ValueError, match="margin must be"):
        solve_alpha(trio_profile, trio_goal, uniform3, "maximal")
    with pytest.raises(ValueError, match="nonnegative"):
        solve_alpha(trio_profile, trio_goal, uniform3, "-1/6")


def test_solve_alpha_sends_null_atoms_to_player_zero():
    from hyperfair.measures import StepDensity, common_refinement

    profile = common_refinement([
        StepDensity.make(["0", "1/4", "1/2", "1"], ["2", "0", "1"]),
        StepDensity.make(["0", "1/4", "1/2", "1"], ["2", "0", "1"]),
    ])
    assert profile.is_null_atom(1)
    w, _ = solve_alpha(profile, GoalMatrix.zero(2), TargetPoint.uniform(2), 0)
    assert w.weights[1] == (F(1), F(0))


# -- the LP-free route ----------------------------------------------------------

def test_stochastic_route_reproduces_the_trio_partition(trio_profile, trio_goal, uniform3):
    part = build_via_stochastic_factor(trio_profile, trio_goal, uniform3, "1/6")
    assert part.pieces == TRIO_PIECES


def test_factor_weights_of_the_trio_factor(trio_profile, trio_goal, uniform3):
    g = gram_matrix(trio_profile)
    cert = stochastic_factor(g, pseudo_inverse(g), trio_goal, uniform3, "1/6")
    assert factor_weights(trio_profile, cert.factor) == TRIO_WEIGHTS
    with pytest.raises(ValueError, match="number of players"):
        factor_weights(trio_profile, RatMatrix.identity(2))


def test_stochastic_route_sends_null_atoms_to_player_zero():
    from hyperfair.measures import StepDensity, common_refinement

    profile = common_refinement([
        StepDensity.make(["0", "1/4", "1/2", "1"], ["2", "0", "1"]),
        StepDensity.make(["0", "1/4", "1/2", "1"], ["2", "0", "1"]),
    ])
    part = build_via_stochastic_factor(profile, GoalMatrix.zero(2), TargetPoint.uniform(2), 0)
    assert Interval.make("1/4", "1/2") in part.pieces[0]


@settings(max_examples=20)
@given(st.randoms(use_true_random=False))
def test_lp_maximum_is_at_least_the_certified_bound(rng):
    profile = random_profile(rng, n=rng.randint(2, 3), max_atoms=4,
                             force_dependent=rng.random() < 0.5)
    k = random_proper_goal(rng, profile)
    p = TargetPoint.uniform(profile.n)
    bound = delta_bound(pseudo_inverse(gram_matrix(profile)), k, p)
    _, achieved = solve_alpha(profile, k, p, MAXIMIZE)
    assert achieved >= bound


@settings(max_examples=20)
@given(st.randoms(use_true_random=False))
def test_both_routes_realize_the_same_sharing_values(rng):
    profile = random_profile(rng, n=rng.randint(2, 3), max_atoms=4,
                             force_dependent=rng.random() < 0.5)
    k = random_proper_goal(rng, profile)
    p = TargetPoint.uniform(profile.n)
    bound = delta_bound(pseudo_inverse(gram_matrix(profile)), k, p)
    delta = bound / 2
    w, achieved = solve_alpha(profile, k, p, delta)
    assert achieved == delta
    lp_part = build_from_weights(profile, w)
    factor_part = build_via_stochastic_factor(profile, k, p, delta)
    expected = p.as_matrix() + delta * k.mat
    for part in (lp_part, factor_part):
        for i in range(profile.n):
            for j in range(profile.n):
                got = sum((measure_of(profile, i, iv) for iv in part.pieces[j]), F(0))
                assert got == expected[i, j]


# -- the block-merged LP against the full per-atom LP ---------------------------

def full_atom_lp_max(profile, k, p):
    """Max margin of the LP with one row per atom and all n * n coupling rows."""
    n, atoms = profile.n, len(profile.atoms)
    nvars = atoms * n + 1
    rows, rhs = [], []
    for a in range(atoms):
        rows.append([F(int(v // n == a)) for v in range(nvars - 1)] + [F(0)])
        rhs.append(F(1))
    for i in range(n):
        for j in range(n):
            row = [F(0)] * nvars
            for a in range(atoms):
                row[a * n + j] = profile.atom_values[i][a] * profile.atoms[a].length
            row[-1] = -k.mat[i, j]
            rows.append(row)
            rhs.append(p.shares[j])
    objective = [F(0)] * (nvars - 1) + [F(1)]
    status, value, _ = lp_bland_reference(objective, RatMatrix.from_rows(rows), rhs)
    assert status == "optimal"
    return value


@settings(max_examples=15)
@pytest.mark.parametrize("kind", ["plain", "null", "dependent"])
@given(rng=st.randoms(use_true_random=False))
def test_block_merged_lp_matches_the_full_atom_lp(kind, rng):
    profile = blocky_profile(rng, kind)
    n = profile.n
    k = random_proper_goal(rng, profile)
    p = random_target(rng, n)

    w, best = solve_alpha(profile, k, p, MAXIMIZE)
    assert best == full_atom_lp_max(profile, k, p)
    with pytest.raises(InfeasibleError):
        solve_alpha(profile, k, p, best + F(1, 10**9))

    rows_of: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}
    for a in range(len(profile.atoms)):
        column = [profile.atom_values[i][a] for i in range(n)]
        total = sum(column, F(0))
        if total:
            key = tuple(v / total for v in column)
            assert rows_of.setdefault(key, w.weights[a]) == w.weights[a]

    audit = check_fairness(sharing_matrix(profile, build_from_weights(profile, w)), k, p)
    assert audit.hyper_envy_free is True
    assert audit.hyper_delta == best


# -- the max-margin LP's crossover from the point delta = 0, alpha = p ------------

def _recorded_weight_lps(monkeypatch) -> list:
    """The goal and rows of each LP that solve_alpha hands to the simplex."""
    lps = []
    solve = partition._certified_solve
    monkeypatch.setattr(partition, "_certified_solve",
                        lambda goal, rows: lps.append((goal, rows)) or solve(goal, rows))
    return lps


def _counted(monkeypatch, name: str) -> list:
    """Patch ``simplex.<name>`` to record the results of its calls."""
    results = []
    f = getattr(simplex, name)
    monkeypatch.setattr(simplex, name, lambda *args: results.append(f(*args)) or results[-1])
    return results


def test_the_crossover_reaches_the_exact_maximum_without_a_fallback(monkeypatch):
    exact = simplex._solve
    lps = _recorded_weight_lps(monkeypatch)
    bland = _counted(monkeypatch, "_solve")
    crossovers = _counted(monkeypatch, "_crossover")
    rng = random.Random(18)
    seen = {"null": 0, "repeated": 0, "dependent": 0}
    for trial in range(48):
        if trial % 4 == 0:
            profile = blocky_profile(rng, ("plain", "null", "dependent")[trial // 4 % 3])
        else:
            profile = random_profile(rng, n=rng.randint(2, 6), max_atoms=10,
                                     force_dependent=trial % 2 == 1)
        n = profile.n
        _, best = solve_alpha(profile, random_proper_goal(rng, profile), random_target(rng, n),
                              MAXIMIZE)
        goal, rows = lps[-1]
        assert goal.start is not None and crossovers[-1][1] is not None
        # exact Bland from phase 1, which runs no crossover
        assert exact(goal._replace(start=None), rows).value == best
        nulls = sum(map(profile.is_null_atom, range(len(profile.atoms))))
        seen["null"] += nulls > 0
        seen["repeated"] += (len(goal.objective) - 1) // n < len(profile.atoms) - nulls
        seen["dependent"] += bool(measure_relations(profile))
    assert bland == [] and len(crossovers) == 48
    assert all(seen.values()), seen


def test_a_rejected_crossover_basis_falls_back_to_exact_bland(monkeypatch):
    rng = random.Random(4)
    profile = random_profile(rng, n=5, max_atoms=10)
    k, p = random_proper_goal(rng, profile), random_target(rng, 5)
    _, best = solve_alpha(profile, k, p, MAXIMIZE)
    crossovers = _counted(monkeypatch, "_crossover")
    monkeypatch.setattr(simplex, "_certify", lambda goal, base, basis: None)
    bland = _counted(monkeypatch, "_solve")
    assert solve_alpha(profile, k, p, MAXIMIZE)[1] == best
    assert crossovers[0][1] is not None and len(bland) == 1


def test_solve_alpha_refuses_a_goal_of_another_size(trio_profile, uniform3):
    with pytest.raises(ValueError, match=r"^goal matrix / target size must match the profile$"):
        solve_alpha(trio_profile, GoalMatrix.zero(2), uniform3, MAXIMIZE)


# -- a fixed margin caps the maximized one ---------------------------------------

class _Phase1Built(Exception):
    pass


def _realizes(profile, w, expected) -> bool:
    part = build_from_weights(profile, w)
    return all(sum((measure_of(profile, i, iv) for iv in part.pieces[j]), F(0)) == expected[i, j]
               for i in range(profile.n) for j in range(profile.n))


def test_the_weight_lp_builds_no_phase_1_tableau(monkeypatch, trio_profile, trio_goal, uniform3):
    def refuse(base, nvars):
        raise _Phase1Built

    monkeypatch.setattr(simplex, "_phase1_tableau", refuse)
    rng = random.Random(25)
    cases = [(trio_profile, trio_goal, uniform3)]
    for trial in range(6):
        profile = random_profile(rng, n=rng.randint(2, 5), max_atoms=8, force_dependent=trial % 2 == 1)
        cases.append((profile, random_proper_goal(rng, profile), random_target(rng, profile.n)))
    for profile, k, p in cases:
        _, best = solve_alpha(profile, k, p, MAXIMIZE)
        assert solve_alpha(profile, k, p, best / 2)[1] == best / 2
        assert solve_alpha(profile, k, p, best)[1] == best
        zero = GoalMatrix.zero(profile.n)
        assert solve_alpha(profile, zero, p, MAXIMIZE)[1] is UNCONSTRAINED
        assert solve_alpha(profile, zero, p, best)[1] == best


def test_a_lost_float_run_is_answered_from_the_exact_crossover(monkeypatch, trio_profile, trio_goal,
                                                              uniform3):
    # With no float basis, the exact run crosses over from the weight LP's
    # start point and runs phase 2 from its vertex: no phase-1 tableau is
    # built, and status and value are the certified ones, with the frozen
    # trio weights at 1/6.
    lps = _recorded_weight_lps(monkeypatch)
    assert solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE)[1] == F(1, 3)
    assert solve_alpha(trio_profile, trio_goal, uniform3, F(1, 6)) == (TRIO_WEIGHTS, F(1, 6))
    certified = [simplex._certified_solve(goal, rows) for goal, rows in lps]

    def refuse(base, nvars):
        raise _Phase1Built

    monkeypatch.setattr(simplex, "_float_basis", lambda goal, base: None)
    monkeypatch.setattr(simplex, "_phase1_tableau", refuse)
    bland = _counted(monkeypatch, "_solve")
    assert solve_alpha(trio_profile, trio_goal, uniform3, MAXIMIZE)[1] == F(1, 3)
    assert solve_alpha(trio_profile, trio_goal, uniform3, F(1, 6)) == (TRIO_WEIGHTS, F(1, 6))
    assert [(out.status, out.value) for out in bland] == [(out.status, out.value) for out in certified]


def test_a_fixed_margin_is_feasible_exactly_up_to_the_maximum():
    # the profiles, goals and targets of the crossover test above
    rng = random.Random(18)
    for trial in range(48):
        if trial % 4 == 0:
            profile = blocky_profile(rng, ("plain", "null", "dependent")[trial // 4 % 3])
        else:
            profile = random_profile(rng, n=rng.randint(2, 6), max_atoms=10,
                                     force_dependent=trial % 2 == 1)
        n = profile.n
        k, p = random_proper_goal(rng, profile), random_target(rng, n)
        _, best = solve_alpha(profile, k, p, MAXIMIZE)
        for delta in (best, best / 2):
            w, achieved = solve_alpha(profile, k, p, delta)
            assert achieved == delta
            assert _realizes(profile, w, p.as_matrix() + delta * k.mat)
        past = best + F(1, 10**6)
        with pytest.raises(InfeasibleError, match=rf"margin {re.escape(str(past))}$"):
            solve_alpha(profile, k, p, past)
        w, achieved = solve_alpha(profile, GoalMatrix.zero(n), p, best)
        assert achieved == best
        assert _realizes(profile, w, p.as_matrix())
