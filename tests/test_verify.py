from __future__ import annotations

import ast
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hyperfair
from hyperfair import hyperfree
from hyperfair.hyperfree import UNCONSTRAINED, GoalMatrix, TargetPoint, is_proper
from hyperfair.linalg import RatMatrix, _to_row, kernel_basis, pseudo_inverse
from hyperfair.measures import Interval, StepDensity, _cell_rows, common_refinement, gram_matrix, measure_of
from hyperfair.partition import MAXIMIZE, Partition, build_from_weights, build_via_stochastic_factor, solve_alpha
from hyperfair.relations import RelationMatrix
from hyperfair.verify import (
    FairnessReport,
    SharingMatrix,
    check_fairness,
    rawlsian_distance,
    sharing_matrix,
)

from conftest import TRIO_GRAM_ROWS, TRIO_SHARING_ROWS, fine_tiling, random_profile, random_proper_goal
from oracles import fairness_verdicts, gram_by_atoms, refine, sharing_by_intervals

F = Fraction


def trio_sharing():
    return SharingMatrix(RatMatrix.from_rows(TRIO_SHARING_ROWS))


def uniform_sharing(n):
    return SharingMatrix(RatMatrix.from_rows([[F(1, n)] * n] * n))


# -- SharingMatrix ------------------------------------------------------------

def test_sharing_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        SharingMatrix(RatMatrix.from_rows([[1, 0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        SharingMatrix(RatMatrix.from_rows([[2, -1], [0, 1]]))
    with pytest.raises(ValueError, match=r"rows \[0\]"):
        SharingMatrix(RatMatrix.from_rows([["1/2", "1/3"], ["1/2", "1/2"]]))
    m = trio_sharing()
    assert m.n == 3
    assert m[1, 2] == F(10, 27)


def test_hyperfree_defines_the_sharing_matrix_type_and_imports_only_at_module_level():
    # a plan's P + delta K is a sharing matrix too, so hyperfree owns the
    # type and needs nothing from verify, which imports hyperfree
    assert SharingMatrix is hyperfree.SharingMatrix is hyperfair.SharingMatrix
    tree = ast.parse(open(hyperfree.__file__, encoding="utf-8").read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)
    assert all(node.module != "verify" for node in imports)


def test_sharing_matrix_of_the_trio_partition(trio_profile):
    part = Partition((
        (Interval.make("0", "1/20"), Interval.make("1/10", "7/20")),
        (Interval.make("1/20", "1/12"), Interval.make("7/20", "2/3")),
        (Interval.make("1/12", "1/10"), Interval.make("2/3", "1")),
    ))
    assert sharing_matrix(trio_profile, part).mat == RatMatrix.from_rows(TRIO_SHARING_ROWS)


def test_sharing_matrix_when_one_player_takes_everything(trio_profile):
    part = Partition(((Interval.make("0", "1"),), (), ()))
    got = sharing_matrix(trio_profile, part)
    assert got.mat == RatMatrix.from_rows([[1, 0, 0]] * 3)


@st.composite
def profiles_with_off_grid_partitions(draw):
    """A profile on a 1/12 grid with a null atom (when there are two or
    more), and a partition cut on a 1/60 grid that ignores the atoms.
    Repeated cuts and the extra [0, 0] and [1, 1] give zero-length
    pieces; the first and last pieces touch 0 and 1; with few cuts a
    piece spans several atoms, and with none one player takes [0, 1]."""
    n = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 5))
    inner = sorted(draw(st.sets(st.integers(1, 11), min_size=cells - 1, max_size=cells - 1)))
    breaks = [F(0), *(F(c, 12) for c in inner), F(1)]
    null = draw(st.integers(0, cells - 1)) if cells > 1 else None
    densities = []
    for _ in range(n):
        values = [F(draw(st.integers(0, 5))) for _ in range(cells)]
        if null is not None:
            values[null] = F(0)
        if not any(values):
            values[0 if null != 0 else 1] = F(1)
        densities.append(StepDensity.normalized(breaks, values))
    points = [F(0), *sorted(F(c, 60) for c in draw(st.lists(st.integers(0, 60), max_size=8))), F(1)]
    pieces = [[] for _ in range(n)]
    for lo, hi in [*zip(points, points[1:]), (F(0), F(0)), (F(1), F(1))]:
        pieces[draw(st.integers(0, n - 1))].append(Interval(lo, hi))
    return common_refinement(densities), Partition(tuple(map(tuple, pieces)))


@given(profiles_with_off_grid_partitions())
def test_sharing_matrix_equals_per_piece_sums_of_measure_of(case):
    profile, part = case
    n = profile.n
    expected = [[sum((measure_of(profile, i, iv) for iv in part.pieces[j]), F(0))
                 for j in range(n)] for i in range(n)]
    assert sharing_matrix(profile, part).mat.to_rows() == expected


def test_sharing_matrix_rejects_player_count_mismatch(trio_profile):
    part = Partition(((Interval.make("0", "1"),), ()))
    with pytest.raises(ValueError, match="players"):
        sharing_matrix(trio_profile, part)


# -- rawlsian distance ---------------------------------------------------------

def test_rawlsian_distance_of_identity_is_zero():
    assert rawlsian_distance(RatMatrix.identity(3)) == 0


def test_rawlsian_distance_of_trio_matrix():
    assert rawlsian_distance(trio_sharing()) == F(13, 10)


def test_rawlsian_distance_of_uniform_shares():
    assert rawlsian_distance(uniform_sharing(3)) == F(4, 3)
    assert rawlsian_distance(uniform_sharing(2)) == 1


# -- fairness predicates ---------------------------------------------------------

def test_trio_matrix_fairness_flags(trio_goal, trio_relation, uniform3):
    r2 = RelationMatrix.from_symbols([[">", "=", "<"], ["<", ">", ">"], ["<", ">", ">"]])
    report = check_fairness(trio_sharing(), k=trio_goal, p=uniform3, r=r2)
    assert report.proportional
    assert not report.exact_division
    assert not report.equitable
    # player 1 values player 2's piece at 10/27, above their own 19/54:
    # margins above the target for other players' pieces are the point
    # of this plan, and they rule plain envy-freeness out
    assert not report.envy_free
    assert not report.super_envy_free
    assert report.rawlsian == F(13, 10)
    assert report.hyper_envy_free
    assert report.hyper_delta == F(1, 6)
    assert report.relation_satisfied


def test_uniform_shares_are_exact_but_not_super():
    report = check_fairness(uniform_sharing(3))
    assert report.proportional
    assert report.exact_division
    assert report.equitable
    assert report.envy_free
    assert not report.super_envy_free
    assert report.rawlsian == F(4, 3)
    assert report.hyper_envy_free is None
    assert report.relation_satisfied is None


def test_gram_matrix_as_sharing_is_proportional_but_envious():
    report = check_fairness(SharingMatrix(RatMatrix.from_rows(TRIO_GRAM_ROWS)))
    assert report.proportional
    assert not report.envy_free  # player 2 values player 1's piece above their own
    assert not report.super_envy_free


def test_super_envy_free_example():
    m = SharingMatrix(RatMatrix.from_rows([
        ["2/3", "1/6", "1/6"],
        ["1/6", "2/3", "1/6"],
        ["1/6", "1/6", "2/3"],
    ]))
    report = check_fairness(m)
    assert report.super_envy_free
    assert report.envy_free
    assert report.proportional
    assert report.equitable
    assert not report.exact_division


def test_hyper_check_recovers_the_margin(trio_goal, uniform3):
    report = check_fairness(trio_sharing(), k=trio_goal, p=uniform3)
    assert report.hyper_envy_free
    assert report.hyper_delta == F(1, 6)


def test_hyper_check_fails_for_the_wrong_goal(uniform3):
    wrong = GoalMatrix.make([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
    report = check_fairness(trio_sharing(), k=wrong, p=uniform3)
    assert report.hyper_envy_free is False
    assert report.hyper_delta is None


def test_hyper_check_zero_goal_wants_the_exact_target(uniform3):
    report = check_fairness(uniform_sharing(3), k=GoalMatrix.zero(3), p=uniform3)
    assert report.hyper_envy_free
    assert report.hyper_delta is UNCONSTRAINED
    off = check_fairness(trio_sharing(), k=GoalMatrix.zero(3), p=uniform3)
    assert off.hyper_envy_free is False


def test_hyper_check_demands_a_positive_margin(trio_goal, uniform3):
    # delta = 0 solves m = P + delta K only when m is the target itself,
    # and that does not count as a strict improvement
    report = check_fairness(uniform_sharing(3), k=trio_goal, p=uniform3)
    assert report.hyper_envy_free is False


def test_check_fairness_validates_optional_inputs(trio_goal, uniform3):
    with pytest.raises(ValueError, match="target point"):
        check_fairness(trio_sharing(), k=trio_goal)
    with pytest.raises(ValueError, match="target point"):
        check_fairness(trio_sharing(), r=RelationMatrix.super_envy_free(3))
    with pytest.raises(ValueError, match="size"):
        check_fairness(uniform_sharing(2), k=trio_goal, p=uniform3)


def test_relation_check_compares_against_the_target(uniform3):
    r = RelationMatrix.from_symbols([[">", "=", "<"], ["<", ">", ">"], ["<", ">", ">"]])
    report = check_fairness(trio_sharing(), p=uniform3, r=r)
    assert report.relation_satisfied
    flipped = RelationMatrix.super_envy_free(3)
    report = check_fairness(trio_sharing(), p=uniform3, r=flipped)
    assert report.relation_satisfied is False


# -- implications that must hold for every sharing matrix -----------------------

def _random_sharing(rng, n) -> SharingMatrix:
    rows = []
    for _ in range(n):
        raw = [F(rng.randint(0, 6)) for _ in range(n)]
        if all(x == 0 for x in raw):
            raw[rng.randrange(n)] = F(1)
        total = sum(raw)
        rows.append([x / total for x in raw])
    return SharingMatrix(RatMatrix.from_rows(rows))


@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_predicate_implications(n, rng):
    report = check_fairness(_random_sharing(rng, n))
    if report.super_envy_free:
        assert report.envy_free
    if report.envy_free:
        assert report.proportional
    if report.exact_division:
        assert report.proportional and report.equitable and report.envy_free
        assert not report.super_envy_free
    assert 0 <= report.rawlsian <= 2


@given(st.randoms(use_true_random=False))
def test_sharing_matrices_from_partitions_always_validate(rng):
    profile = random_profile(rng)
    n = profile.n
    rows = []
    for _ in profile.atoms:
        raw = [F(rng.randint(0, 3)) for _ in range(n)]
        if all(x == 0 for x in raw):
            raw[0] = F(1)
        total = sum(raw)
        rows.append([x / total for x in raw])
    from hyperfair.partition import WeightSystem

    part = build_from_weights(profile, WeightSystem.make(rows))
    m = sharing_matrix(profile, part)  # __post_init__ would raise if broken
    assert m.mat.row_sums() == (F(1),) * n


@given(st.randoms(use_true_random=False))
def test_solver_outputs_always_pass_their_own_audit(rng):
    from conftest import random_proper_goal
    from hyperfair.linalg import pseudo_inverse
    from hyperfair.measures import gram_matrix
    from hyperfair.hyperfree import delta_bound

    profile = random_profile(rng, n=rng.randint(2, 3), max_atoms=4,
                             force_dependent=rng.random() < 0.5)
    k = random_proper_goal(rng, profile)
    p = TargetPoint.uniform(profile.n)
    bound = delta_bound(pseudo_inverse(gram_matrix(profile)), k, p)
    delta = bound / 2
    w, _ = solve_alpha(profile, k, p, delta)
    part = build_from_weights(profile, w)
    report = check_fairness(sharing_matrix(profile, part), k=k, p=p)
    assert report.hyper_envy_free
    assert report.hyper_delta == delta


# -- the audit against the independent oracles -----------------------------------

@st.composite
def mixed_denominator_cases(draw):
    """Densities cut in sevenths or ninths that all vanish on one fifth of
    [0, 1] (a null atom), and a partition cut at points over 5, 7, 8, 9,
    11 and 13.  Repeated points and the extra [0, 0] give zero-length
    pieces, and with few cuts a piece spans many atoms."""
    n = draw(st.integers(1, 4))
    z = draw(st.integers(0, 4))
    null = (F(z, 5), F(z + 1, 5))
    densities = []
    for _ in range(n):
        q = draw(st.sampled_from([7, 9]))
        cuts = {F(c, q) for c in draw(st.sets(st.integers(1, q - 1), max_size=5))}
        breaks = sorted({F(0), F(1), *null, *cuts})
        cells = list(zip(breaks, breaks[1:]))
        live = [c for c, (lo, hi) in enumerate(cells) if not null[0] <= lo < hi <= null[1]]
        values = [F(0)] * len(cells)
        for c in live:
            values[c] = F(draw(st.integers(0, 4)))
        if not any(values):
            values[live[0]] = F(1)
        densities.append(StepDensity.normalized(breaks, values))
    dens = draw(st.lists(st.sampled_from([5, 7, 8, 9, 11, 13]), max_size=8))
    points = [F(0), *sorted(F(draw(st.integers(0, q)), q) for q in dens), F(1)]
    pieces = [[] for _ in range(n)]
    for lo, hi in [*zip(points, points[1:]), (F(0), F(0))]:
        pieces[draw(st.integers(0, n - 1))].append(Interval(lo, hi))
    return densities, Partition(tuple(map(tuple, pieces)))


@given(mixed_denominator_cases())
def test_sharing_and_gram_matrices_match_the_oracles(case):
    densities, part = case
    profile = common_refinement(densities)
    atoms, values = refine(densities)
    pieces = [[(iv.lo, iv.hi) for iv in ivs] for ivs in part.pieces]
    assert sharing_matrix(profile, part).mat.to_rows() == sharing_by_intervals(atoms, values, pieces)
    assert gram_matrix(profile).to_rows() == gram_by_atoms(atoms, values)


@st.composite
def fairness_cases(draw):
    """A sharing matrix (of a drawn partition, or drawn row by row with
    uniform and identity rows), shares, a goal matrix that the matrix
    meets exactly, misses by one entry, meets at a negative margin, or
    is zero, and a sign grid that holds or has one cell flipped."""
    if draw(st.booleans()):
        densities, part = draw(mixed_denominator_cases())
        m = sharing_matrix(common_refinement(densities), part).mat.to_rows()
    else:
        n = draw(st.integers(1, 4))
        m = []
        for i in range(n):
            kind = draw(st.sampled_from(["uniform", "identity", "drawn"]))
            raw = ([1] * n if kind == "uniform" else [int(j == i) for j in range(n)]
                   if kind == "identity" else draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
            if not any(raw):
                raw[i] = 1
            m.append([F(x, sum(raw)) for x in raw])
    n = len(m)
    raw = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    p = [F(x, sum(raw)) for x in raw]
    kind = draw(st.sampled_from(["exact", "missed", "negative", "zero"]))
    scale = draw(st.sampled_from([F(1), F(3), F(2, 7)])) * (-1 if kind == "negative" else 1)
    k = [[(m[i][j] - p[j]) * scale * (kind != "zero") for j in range(n)] for i in range(n)]
    if kind == "missed" and n > 1:
        i = draw(st.integers(0, n - 1))
        k[i][0] += F(1, 11)
        k[i][1] -= F(1, 11)
    r = [["<" if x < y else "=" if x == y else ">" for x, y in zip(row, p)] for row in m]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        r[i][j] = "=" if r[i][j] != "=" else "<"
    return m, k, p, r


@given(fairness_cases())
def test_check_fairness_matches_the_oracle(case):
    m, k, p, r = case
    shares = SharingMatrix(RatMatrix.from_rows(m))
    report = check_fairness(shares, k=GoalMatrix.make(k), p=TargetPoint(tuple(p)),
                            r=RelationMatrix.from_symbols(r))
    want = fairness_verdicts(m, k, p, r)
    assert report.proportional == want["proportional"]
    assert report.exact_division == want["exact_division"]
    assert report.equitable == want["equitable"]
    assert report.envy_free == want["envy_free"]
    assert report.super_envy_free == want["super_envy_free"]
    assert report.rawlsian == want["rawlsian"]
    assert rawlsian_distance(shares) == rawlsian_distance(shares.mat) == want["rawlsian"]
    assert report.hyper_envy_free == want["hyper"]
    delta = "unconstrained" if report.hyper_delta is UNCONSTRAINED else report.hyper_delta
    assert delta == want["hyper_delta"]
    assert report.relation_satisfied == want["relation"]


def test_audit_of_a_fine_tiling_matches_the_oracle(trio_profile, trio_goal, uniform3):
    # 3,000 intervals cut at fractions with distinct 20-bit denominators;
    # the entries' denominators run to about 22,000 bits
    pieces = fine_tiling()
    m = sharing_matrix(trio_profile, Partition(pieces))
    atoms, values = refine(trio_profile.densities)
    rows = sharing_by_intervals(atoms, values, [[(iv.lo, iv.hi) for iv in ivs] for ivs in pieces])
    assert m.mat.to_rows() == rows
    report = check_fairness(m, k=trio_goal, p=uniform3)
    want = fairness_verdicts(rows, trio_goal.mat.to_rows(), uniform3.shares)
    assert (report.envy_free, report.rawlsian, report.hyper_envy_free) == (
        want["envy_free"], want["rawlsian"], want["hyper"])


# -- the shared integer rows of a matrix, a density, a profile and a partition ------

def profiles():
    """Densities on one shared grid of 4 cells, the trio's merged grid, and
    one shared grid of 70 cells (two ``_cell_rows`` chunks per density)."""
    quarters, seventieths = ["0", "1/4", "1/2", "3/4", "1"], [F(i, 70) for i in range(71)]
    return {
        "shared": common_refinement([StepDensity.normalized(quarters, values) for values in (
            ["1", "1", "1", "1"], ["2", "2", "0", "1"], ["0", "1", "3", "2"])]),
        "merged": common_refinement([
            StepDensity.make(["0", "1/10", "1"], ["10", "0"]),
            StepDensity.make(["0", "1/10", "1"], ["0", "10/9"]),
            StepDensity.make(["0", "1"], ["1"]),
        ]),
        "long": common_refinement([StepDensity.normalized(seventieths, [(i * s) % 7 + 1 for i in range(70)])
                                   for s in (1, 2, 3)]),
    }


def test_a_profile_takes_a_density_value_row_as_built_only_where_the_refinement_kept_its_cells():
    built = profiles()
    for name, profile in built.items():
        for d, row, values in zip(profile.densities, profile.value_rows, profile.atom_values):
            assert row == _to_row(values)
            # a merged grid reads each density afresh, atom by atom, and a
            # density of more than 64 cells keeps its values in two rows
            assert (row is d.int_rows[0][1]) == (name == "shared")
    assert [len(d.int_rows) for d in built["long"].densities] == [2, 2, 2]


def test_every_reader_leaves_the_cached_integer_rows_as_built():
    m = RatMatrix.from_rows(TRIO_SHARING_ROWS)
    p = TargetPoint.uniform(3)
    k = GoalMatrix(m - p.as_matrix())
    first = m @ m
    check_fairness(SharingMatrix(m), k, p, RelationMatrix.from_symbols([[">", "<", "<"]] * 3))
    rawlsian_distance(m)
    with pytest.raises(ValueError, match="sum to 0"):
        GoalMatrix(m)
    assert is_proper(m, [(F(1), F(-1), F(0))]).bad_rows == (0, 1, 2)
    pseudo_inverse(m)
    kernel_basis(m)
    for mat in (m, k.mat):
        assert mat.int_rows == tuple((tuple(v), d) for v, d in map(_to_row, map(mat.row, range(3))))
    assert m @ m == first
    # a density's rows, its profile's value rows and a partition's piece
    # records, after the Gram matrix, both construction routes and the audit
    rng = random.Random(5)
    for profile in profiles().values():
        goal, target = random_proper_goal(rng, profile), TargetPoint.uniform(profile.n)
        g = gram_matrix(profile)
        weights, _ = solve_alpha(profile, goal, target, MAXIMIZE)
        parts = [build_from_weights(profile, weights),
                 build_via_stochastic_factor(profile, goal, target, hyperfree.delta_bound(
                     pseudo_inverse(g), goal, target))]
        for part in parts:
            check_fairness(sharing_matrix(profile, part), goal, target)
        for d in profile.densities:
            assert d.int_rows == _cell_rows(d.breakpoints, d.values)
        assert profile.value_rows == tuple(map(_to_row, profile.atom_values))
        assert gram_matrix(profile) == g
        for part in parts:
            assert part.records == Partition(part.pieces).records


def test_the_audit_refuses_a_non_square_matrix_and_a_pattern_of_another_size():
    with pytest.raises(ValueError, match=r"^square matrix required$"):
        rawlsian_distance(RatMatrix.zeros(2, 3))
    m = SharingMatrix(RatMatrix.from_rows(TRIO_SHARING_ROWS))
    with pytest.raises(ValueError, match=r"^relation matrix / target size must match the sharing matrix$"):
        check_fairness(m, p=TargetPoint.uniform(3), r=RelationMatrix.from_symbols([["="] * 2] * 2))
