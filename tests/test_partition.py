from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfair import simplex
from hyperfair.hyperfree import UNCONSTRAINED, GoalMatrix, TargetPoint, delta_bound, stochastic_factor
from hyperfair.linalg import RatMatrix, pseudo_inverse
from hyperfair.measures import Interval, StepDensity, common_refinement, gram_matrix, measure_of
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

from conftest import random_profile, random_proper_goal, random_target
from oracles import lp_bland_reference

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

    def counting(problem, solve=simplex.simplex_solve):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(simplex, "simplex_solve", counting)
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
    breaks = [F(c, cells) for c in range(cells + 1)]
    densities = [StepDensity.normalized(breaks, [col[i] for col in columns]) for i in range(n)]
    if kind == "dependent":
        mix = [F(rng.randint(1, 3)) for _ in range(n - 1)]
        values = [sum((w * d.values[c] for w, d in zip(mix, densities)), F(0)) / sum(mix)
                  for c in range(cells)]
        densities[-1] = StepDensity(tuple(breaks), tuple(values))
    return common_refinement(densities)


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
