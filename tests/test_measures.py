from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from hyperfair.linalg import RatMatrix, kernel_basis
from hyperfair.measures import (
    Interval,
    MeasureProfile,
    StepDensity,
    common_refinement,
    gram_matrix,
    measure_of,
    measure_relations,
    rn_weights,
)

from conftest import TRIO_GRAM_ROWS, blocky_profile, random_profile
from oracles import refine

F = Fraction


# -- Interval / StepDensity basics ---------------------------------------

def test_interval_validation():
    Interval.make("1/3", "1/2")
    with pytest.raises(ValueError):
        Interval.make("1/2", "1/3")
    with pytest.raises(ValueError):
        Interval.make("-1/2", "1/3")
    with pytest.raises(ValueError):
        Interval.make("1/2", "3/2")


def test_interval_length_and_str():
    iv = Interval.make("1/4", "3/4")
    assert iv.length == F(1, 2)
    assert str(iv) == "[1/4, 3/4]"


def test_step_density_rejects_bad_mass():
    with pytest.raises(ValueError, match="integrate to 1"):
        StepDensity.make(["0", "1"], ["2"])


def test_step_density_rejects_bad_breakpoints():
    with pytest.raises(ValueError, match="start at 0"):
        StepDensity.make(["1/4", "1"], ["4/3"])
    with pytest.raises(ValueError, match="strictly increase"):
        StepDensity.make(["0", "1/2", "1/2", "1"], ["1", "1", "1"])
    with pytest.raises(ValueError, match="one value per cell"):
        StepDensity.make(["0", "1/2", "1"], ["1"])


def test_step_density_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        StepDensity.make(["0", "1/2", "1"], ["3", "-1"])


def test_normalized_rescales_and_rejects_zero_mass():
    d = StepDensity.normalized(["0", "1/2", "1"], ["3", "1"])
    assert d.values == (F(3, 2), F(1, 2))
    with pytest.raises(ValueError, match="zero total mass"):
        StepDensity.normalized(["0", "1"], ["0"])


def test_value_on_rejects_straddling_interval():
    d = StepDensity.make(["0", "1/2", "1"], ["2", "0"])
    assert d.value_on(Interval.make("0", "1/2")) == 2
    assert d.value_on(Interval.make("1/2", "1")) == 0
    with pytest.raises(ValueError, match="crosses a breakpoint"):
        d.value_on(Interval.make("1/4", "3/4"))


def test_integral_crosses_cells():
    d = StepDensity.make(["0", "1/2", "1"], ["2", "0"])
    assert d.integral(Interval.make("1/4", "3/4")) == F(1, 2)
    assert d.integral(Interval.make("0", "1")) == 1
    assert d.integral(Interval.make("3/5", "1")) == 0


# Interval refuses endpoints outside [0, 1]; integral() only reads .lo
# and .hi, so this stand-in checks the clamping to the breakpoints.
_Span = namedtuple("_Span", "lo hi")


def _integral_cell_by_cell(d, lo, hi):
    return sum((v * max(F(0), min(hi, b) - max(lo, a))
                for v, a, b in zip(d.values, d.breakpoints, d.breakpoints[1:])), F(0))


@given(st.randoms(use_true_random=False))
def test_integral_matches_the_cell_by_cell_sum(rng):
    cells = rng.randint(1, 6)
    inner = sorted(rng.sample([F(i, 12) for i in range(1, 12)], cells - 1))
    breakpoints = [F(0), *inner, F(1)]
    values = [F(rng.choice([0, 0, 1, 2, 5])) for _ in range(cells)]
    values[rng.randrange(cells)] += 1  # some mass somewhere
    d = StepDensity.normalized(breakpoints, values)
    points = breakpoints + [F(rng.randint(0, 24), 24) for _ in range(3)] + [F(-1, 2), F(3, 2)]
    # every pair, so endpoints on breakpoints, zero lengths and spans
    # past either end all occur
    for lo, hi in combinations_with_replacement(sorted(set(points)), 2):
        span = Interval(lo, hi) if 0 <= lo and hi <= 1 else _Span(lo, hi)
        assert d.integral(span) == _integral_cell_by_cell(d, lo, hi)


# -- common refinement -----------------------------------------------------

def test_refinement_of_trio_has_two_atoms(trio_profile):
    assert trio_profile.atoms == (
        Interval.make("0", "1/10"),
        Interval.make("1/10", "1"),
    )
    assert trio_profile.atom_values == (
        (F(10), F(0)),
        (F(0), F(10, 9)),
        (F(1), F(1)),
    )


def test_refinement_merges_coincident_breakpoints():
    profile = common_refinement([
        StepDensity.make(["0", "1/3", "1"], ["3/2", "3/4"]),
        StepDensity.make(["0", "1/3", "2/3", "1"], ["1", "1", "1"]),
    ])
    assert [(iv.lo, iv.hi) for iv in profile.atoms] == [
        (F(0), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1)),
    ]
    assert all(iv.length > 0 for iv in profile.atoms)


def test_atom_measure_and_null_atoms():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
    ])
    assert profile.atom_measure(0, 0) == 1
    assert profile.atom_measure(0, 1) == 0
    assert not profile.is_null_atom(0)
    assert profile.is_null_atom(1)


def test_measure_of_worked_values(trio_profile):
    assert measure_of(trio_profile, 0, Interval.make("0", "1/20")) == F(1, 2)
    assert measure_of(trio_profile, 1, Interval.make("1/10", "7/20")) == F(5, 18)
    assert measure_of(trio_profile, 2, Interval.make("0", "1")) == 1
    with pytest.raises(ValueError, match="player index"):
        measure_of(trio_profile, 3, Interval.make("0", "1"))


# -- Radon-Nikodym weights -------------------------------------------------

def test_rn_weights_on_trio(trio_profile):
    assert rn_weights(trio_profile, 0) == (F(10, 11), F(0), F(1, 11))
    assert rn_weights(trio_profile, 1) == (F(0), F(10, 19), F(9, 19))


def test_rn_weights_vanish_on_null_atom():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
    ])
    assert rn_weights(profile, 1) == (F(0), F(0))


# -- Gram matrix -----------------------------------------------------------

def test_gram_matrix_of_trio(trio_profile):
    assert gram_matrix(trio_profile) == RatMatrix.from_rows(TRIO_GRAM_ROWS)


def test_gram_of_identical_densities_is_all_equal_shares():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["3/2", "1/2"]),
        StepDensity.make(["0", "1/2", "1"], ["3/2", "1/2"]),
        StepDensity.make(["0", "1/2", "1"], ["3/2", "1/2"]),
    ])
    third = F(1, 3)
    assert gram_matrix(profile) == RatMatrix.from_rows([[third] * 3] * 3)


def test_gram_of_disjoint_supports_is_identity():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
        StepDensity.make(["0", "1/2", "1"], ["0", "2"]),
    ])
    assert gram_matrix(profile) == RatMatrix.identity(2)


# -- measure relations -----------------------------------------------------

def test_relations_of_trio(trio_profile, trio_relation):
    assert measure_relations(trio_profile) == [trio_relation]


def test_relations_empty_for_disjoint_supports():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["2", "0"]),
        StepDensity.make(["0", "1/2", "1"], ["0", "2"]),
    ])
    assert measure_relations(profile) == []


def test_duplicated_density_yields_difference_relation():
    profile = common_refinement([
        StepDensity.make(["0", "1/2", "1"], ["3/2", "1/2"]),
        StepDensity.make(["0", "1/2", "1"], ["3/2", "1/2"]),
        StepDensity.make(["0", "1"], ["1"]),
    ])
    assert (F(1), F(-1), F(0)) in measure_relations(profile)


# -- properties on random profiles ----------------------------------------

@given(st.randoms(use_true_random=False))
def test_gram_is_symmetric_row_stochastic_with_big_diagonal(rng):
    profile = random_profile(rng)
    g = gram_matrix(profile)
    n = profile.n
    assert g.is_symmetric()
    assert g.row_sums() == (F(1),) * n
    assert all(g[i, i] >= F(1, n) for i in range(n))
    assert all(e >= 0 for e in g.entries)


@given(st.randoms(use_true_random=False))
def test_gram_quadratic_form_is_nonnegative(rng):
    profile = random_profile(rng)
    g = gram_matrix(profile)
    v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(profile.n))
    gv = g.mat_vec(v)
    assert sum((a * b for a, b in zip(v, gv)), F(0)) >= 0


@given(st.randoms(use_true_random=False))
def test_kernel_vectors_are_measure_relations_atom_by_atom(rng):
    # whatever annihilates the Gram matrix annihilates every atom measure
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    for lam in measure_relations(profile):
        for a in range(len(profile.atoms)):
            combo = sum(
                (lam[i] * profile.atom_measure(i, a) for i in range(profile.n)),
                F(0),
            )
            assert combo == 0


@given(st.randoms(use_true_random=False))
def test_forced_dependent_profile_has_a_relation(rng):
    profile = random_profile(rng, n=rng.randint(3, 4), force_dependent=True)
    assert measure_relations(profile)
    g = gram_matrix(profile)
    assert kernel_basis(g) == measure_relations(profile)


@given(st.randoms(use_true_random=False))
def test_measure_is_additive_over_a_split(rng):
    profile = random_profile(rng)
    lo = F(rng.randint(0, 10), 20)
    hi = F(rng.randint(11, 20), 20)
    mid = (lo + hi) / 2
    whole = Interval(lo, hi)
    for player in range(profile.n):
        split = measure_of(profile, player, Interval(lo, mid)) + measure_of(
            profile, player, Interval(mid, hi)
        )
        assert measure_of(profile, player, whole) == split
    assert measure_of(profile, 0, Interval.make(0, 1)) == 1


# -- exact density checks and refinement on mixed grids -------------------------

def test_mass_error_names_the_exact_mass():
    with pytest.raises(ValueError, match=r"^density must integrate to 1, got 5/4$"):
        StepDensity.make(["0", "1/2", "1"], ["2", "1/2"])
    # 100 cells span two integer rows of the check
    cuts = [F(k, 100) for k in range(101)]
    with pytest.raises(ValueError, match=r"^density must integrate to 1, got 101/100$"):
        StepDensity(tuple(cuts), (F(2),) + (F(1),) * 99)
    assert StepDensity(tuple(cuts), (F(1),) * 100).values[-1] == 1


@pytest.mark.parametrize("repeat", [62, 63, 64, 65])
def test_repeated_breakpoint_is_caught_on_either_side_of_a_row_boundary(repeat):
    cuts = [F(k, 130) for k in range(131)]
    cuts[repeat + 1] = cuts[repeat]
    with pytest.raises(ValueError, match="strictly increase"):
        StepDensity(tuple(cuts), (F(1),) * 130)


@st.composite
def mixed_grid_densities(draw):
    """Densities on shared, partly shared and disjoint breakpoint grids.

    Some candidate cuts differ by 10**-30, so their floats tie.
    """
    tiny = F(1, 10**30)
    pool = sorted({F(k, 12) for k in range(1, 12)} | {F(1, 3) + tiny, F(1, 2) - tiny})
    shared = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
    densities = []
    for _ in range(draw(st.integers(1, 4))):
        mode = draw(st.sampled_from(["shared", "partly", "own"]))
        own = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
        inner = {"shared": shared, "partly": shared[: len(shared) // 2] + own, "own": own}[mode]
        breaks = [F(0), *sorted(set(inner)), F(1)]
        vals = draw(st.lists(st.integers(0, 5), min_size=len(breaks) - 1,
                             max_size=len(breaks) - 1).filter(any))
        densities.append(StepDensity.normalized(breaks, vals))
    return densities


@given(mixed_grid_densities())
def test_refinement_matches_the_cell_lookup_oracle(densities):
    profile = common_refinement(densities)
    atoms, values = refine(densities)
    assert [(iv.lo, iv.hi) for iv in profile.atoms] == atoms
    assert [list(row) for row in profile.atom_values] == values
    assert all(isinstance(row, tuple) for row in profile.atom_values)


# -- atom blocks against a Fraction derivation -----------------------------------

def assert_blocks_match_fractions(profile):
    """``profile.blocks`` against blocks found here from Fraction weights.

    A non-null atom's key is its value column divided by the column sum;
    atoms share a block exactly when their keys are equal, null atoms map
    to None, and blocks are numbered by a key's first appearance.
    """
    n, atoms = profile.n, range(len(profile.atoms))
    numbering: dict[tuple[Fraction, ...], int] = {}
    expected = []
    for a in atoms:
        column = [profile.atom_values[i][a] for i in range(n)]
        total = sum(column, F(0))
        key = tuple(v / total for v in column) if total else None
        expected.append(None if key is None else numbering.setdefault(key, len(numbering)))
        assert rn_weights(profile, a) == (key or (F(0),) * n)
    block_of, columns, measures = profile.blocks
    assert list(block_of) == expected
    assert all(math.gcd(*c) == 1 for c in columns)
    assert [tuple(F(x, sum(c)) for x in c) for c in columns] == list(numbering)
    for i, (row, d) in enumerate(measures):
        assert [F(x, d) for x in row] == [
            sum((profile.atom_measure(i, a) for a in atoms if expected[a] == b), F(0))
            for b in range(len(numbering))]


@given(st.randoms(use_true_random=False))
def test_blocks_match_a_fraction_derivation_on_one_grid(rng):
    assert_blocks_match_fractions(random_profile(rng, max_atoms=8, force_dependent=rng.random() < 0.5))
    assert_blocks_match_fractions(blocky_profile(rng, rng.choice(["plain", "null", "dependent"])))


@given(mixed_grid_densities())
def test_blocks_match_a_fraction_derivation_on_merged_grids(densities):
    assert_blocks_match_fractions(common_refinement(densities))


def test_fewer_than_two_breakpoints_and_no_density_are_refused():
    with pytest.raises(ValueError, match=r"^need at least two breakpoints$"):
        StepDensity((F(0),), ())
    with pytest.raises(ValueError, match=r"^need at least one density$"):
        common_refinement([])


def test_a_zero_length_interval_has_value_zero():
    d = StepDensity.make(["0", "1/2", "1"], ["2", "0"])
    assert d.value_on(Interval(F(1, 4), F(1, 4))) == 0
    assert d.value_on(Interval(F(1, 4), F(1, 2))) == 2
