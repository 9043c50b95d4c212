from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfair.hyperfree import (
    UNBOUNDED,
    DeltaTooLargeError,
    GoalMatrix,
    ImproperMatrixError,
    TargetPoint,
    delta_bound,
    factor_delta_bound,
    is_proper,
    necessary_condition_check,
    spectral_delta_bound,
    stochastic_factor,
    target_matrix,
)
from hyperfair.linalg import RatMatrix, pseudo_inverse
from hyperfair.measures import StepDensity, common_refinement, gram_matrix, measure_relations
from hyperfair.partition import MAXIMIZE, solve_alpha

from conftest import (
    TRIO_GRAM_ROWS,
    TRIO_PINV_K_ROWS,
    TRIO_PINV_ROWS,
    TRIO_SHARING_ROWS,
    random_independent_profile,
    random_profile,
    random_proper_goal,
    random_target,
)
from oracles import charpoly_by_cofactors, factor_threshold, real_roots_in, symmetric_pinv

F = Fraction


def trio_gram():
    return RatMatrix.from_rows(TRIO_GRAM_ROWS)


def trio_pinv():
    return RatMatrix.from_rows(TRIO_PINV_ROWS)


# -- TargetPoint / GoalMatrix ----------------------------------------------

def test_target_point_validation():
    TargetPoint.make(["1/2", "1/3", "1/6"])
    with pytest.raises(ValueError, match="strictly positive"):
        TargetPoint.make(["1/2", "1/2", "0"])
    with pytest.raises(ValueError, match="sum to 1"):
        TargetPoint.make(["1/2", "1/3"])
    with pytest.raises(ValueError, match="at least one"):
        TargetPoint(())


def test_target_point_uniform_and_matrix():
    p = TargetPoint.uniform(3)
    assert p.shares == (F(1, 3),) * 3
    m = TargetPoint.make(["1/2", "1/2"]).as_matrix()
    assert m.to_rows() == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]


def test_goal_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        GoalMatrix(RatMatrix.from_rows([[1, -1]]))
    with pytest.raises(ValueError, match="rows \\[1\\]"):
        GoalMatrix.make([[1, -1], [1, 1]])
    assert GoalMatrix.zero(3).is_zero()
    assert not GoalMatrix.make([[1, -1], [0, 0]]).is_zero()


def test_target_matrix_of_trio_plan(trio_goal):
    got = target_matrix(TargetPoint.uniform(3), trio_goal, F(1, 6))
    assert got == RatMatrix.from_rows(TRIO_SHARING_ROWS)


# -- properness -------------------------------------------------------------

def test_trio_goal_is_proper(trio_goal, trio_relation):
    report = is_proper(trio_goal, [trio_relation])
    assert report
    assert report.bad_rows == ()
    assert report.bad_pairs == ()


def test_zero_goal_is_proper(trio_relation):
    assert is_proper(GoalMatrix.zero(3), [trio_relation])


def test_improper_goal_reports_offending_columns(trio_relation):
    bad = GoalMatrix.make([[1, -1, 0], [0, 0, 0], [0, 0, 0]])
    report = is_proper(bad, [trio_relation])
    assert not report
    assert report.bad_rows == ()
    assert report.bad_pairs == ((0, 0), (0, 1))


def test_is_proper_flags_bad_row_sums_on_raw_matrices(trio_relation):
    raw = RatMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    report = is_proper(raw, [trio_relation])
    assert report.bad_rows == (0,)


def test_is_proper_rejects_wrong_relation_length(trio_goal):
    with pytest.raises(ValueError, match="relation 0"):
        is_proper(trio_goal, [(F(1), F(-1))])


# -- margin bounds -----------------------------------------------------------

def test_pinv_times_goal_matches_known_values(trio_goal):
    assert trio_pinv() @ trio_goal.mat == RatMatrix.from_rows(TRIO_PINV_K_ROWS)


def test_delta_bound_of_trio(trio_goal, uniform3):
    assert delta_bound(trio_pinv(), trio_goal, uniform3) == F(455, 1536)


def test_delta_bound_unbounded_for_zero_goal(uniform3):
    assert delta_bound(trio_pinv(), GoalMatrix.zero(3), uniform3) is UNBOUNDED
    assert factor_delta_bound(RatMatrix.zeros(3, 3), uniform3) is UNBOUNDED
    assert repr(UNBOUNDED) == "UNBOUNDED"


def test_delta_bound_two_player_independent():
    # disjoint supports: the Gram matrix is the identity and the swap
    # direction admits margins up to half the smaller share
    k = GoalMatrix.make([[1, -1], [-1, 1]])
    p = TargetPoint.uniform(2)
    assert delta_bound(RatMatrix.identity(2), k, p) == F(1, 2)


def test_spectral_bound_two_player_overlap():
    g = RatMatrix.from_rows([["5/8", "3/8"], ["3/8", "5/8"]])
    k = GoalMatrix.make([[1, -1], [-1, 1]])
    p = TargetPoint.uniform(2)
    lo, hi = spectral_delta_bound(g, k, p, F(1, 2**30))
    # eigenvalues of g are 1/4 and 1, so the bound is (1/2) * (1/4) / 2
    assert lo < F(1, 16) <= hi
    assert hi - lo <= F(1, 2**30) / 4  # the scale factor shrinks the width
    # and it never beats the pseudo-inverse bound (here 1/8)
    assert hi <= F(1, 8)


def test_spectral_bound_identity_gram():
    k = GoalMatrix.make([[1, -1], [-1, 1]])
    p = TargetPoint.uniform(2)
    lo, hi = spectral_delta_bound(RatMatrix.identity(2), k, p, F(1, 2**20))
    assert lo < F(1, 4) <= hi


def test_spectral_bound_rejects_singular_gram(trio_goal, uniform3):
    with pytest.raises(ValueError, match="nonsingular"):
        spectral_delta_bound(trio_gram(), trio_goal, uniform3)


def test_spectral_bound_rejects_zero_goal(uniform3):
    with pytest.raises(ValueError, match="nonzero"):
        spectral_delta_bound(RatMatrix.identity(3), GoalMatrix.zero(3), uniform3)


def test_bounds_scale_inversely_with_the_goal():
    g = RatMatrix.from_rows([["5/8", "3/8"], ["3/8", "5/8"]])
    k = GoalMatrix.make([[1, -1], [-1, 1]])
    k3 = GoalMatrix.make([[3, -3], [-3, 3]])
    p = TargetPoint.uniform(2)
    assert delta_bound(pseudo_inverse(g), k, p) == 3 * delta_bound(pseudo_inverse(g), k3, p)
    lo1, hi1 = spectral_delta_bound(g, k, p, F(1, 2**20))
    lo3, hi3 = spectral_delta_bound(g, k3, p, F(1, 2**20))
    assert (lo1, hi1) == (3 * lo3, 3 * hi3)


# -- the stochastic factor ----------------------------------------------------

def test_stochastic_factor_reproduces_trio_target(trio_goal, uniform3):
    g = trio_gram()
    cert = stochastic_factor(g, trio_pinv(), trio_goal, uniform3, "1/6")
    assert cert.delta == F(1, 6)
    assert cert.target == RatMatrix.from_rows(TRIO_SHARING_ROWS)
    assert g @ cert.factor == cert.target
    assert cert.factor.row_sums() == (F(1),) * 3
    assert all(e >= 0 for e in cert.factor.entries)


def test_stochastic_factor_at_zero_margin_returns_the_target_rows(trio_goal, uniform3):
    cert = stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3, 0)
    assert cert.factor == uniform3.as_matrix()
    assert cert.target == uniform3.as_matrix()


def test_stochastic_factor_accepts_the_certified_bound(trio_goal, uniform3):
    cert = stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3, F(455, 1536))
    assert all(e >= 0 for e in cert.factor.entries)


def test_stochastic_factor_true_threshold_is_above_the_bound(trio_goal, uniform3):
    # the factor is P + delta * (pinv @ K) here, so its smallest entry
    # hits zero at delta = (1/3) / (2029/1820), strictly above 455/1536
    threshold = F(1, 3) / F(2029, 1820)
    assert threshold == F(1820, 6087)
    assert threshold > F(455, 1536)
    assert factor_delta_bound(trio_pinv() @ trio_goal.mat, uniform3) == threshold
    cert = stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3, threshold)
    assert min(cert.factor.entries) == 0
    with pytest.raises(DeltaTooLargeError):
        stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3,
                          threshold + F(1, 6087))


def test_stochastic_factor_rejects_large_margin(trio_goal, uniform3):
    with pytest.raises(DeltaTooLargeError):
        stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3, "2/5")


def test_stochastic_factor_rejects_improper_goal(uniform3):
    bad = GoalMatrix.make([[1, -1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ImproperMatrixError):
        stochastic_factor(trio_gram(), trio_pinv(), bad, uniform3, "1/100")


def test_stochastic_factor_rejects_negative_margin(trio_goal, uniform3):
    with pytest.raises(ValueError, match="nonnegative"):
        stochastic_factor(trio_gram(), trio_pinv(), trio_goal, uniform3, "-1/6")


# -- the audit ---------------------------------------------------------------

def test_necessary_condition_accepts_the_trio_matrix(trio_relation):
    m = RatMatrix.from_rows(TRIO_SHARING_ROWS)
    assert necessary_condition_check(m, "1/6", [trio_relation])


def test_necessary_condition_rejects_an_incompatible_matrix(trio_relation):
    bad_goal = GoalMatrix.make([[1, -1, 0], [0, 0, 0], [0, 0, 0]])
    m = target_matrix(TargetPoint.uniform(3), bad_goal, F(1, 6))
    assert all(e >= 0 for e in m.entries)
    assert not necessary_condition_check(m, "1/6", [trio_relation])


def test_necessary_condition_validates_inputs(trio_relation):
    m = RatMatrix.from_rows(TRIO_SHARING_ROWS)
    with pytest.raises(ValueError, match="strictly positive"):
        necessary_condition_check(m, 0, [trio_relation])
    with pytest.raises(ValueError, match="sum to 1"):
        necessary_condition_check(RatMatrix.from_rows([[1, 1], [0, 1]]), 1, [])
    with pytest.raises(ValueError, match="nonnegative"):
        necessary_condition_check(RatMatrix.from_rows([[2, -1], [0, 1]]), 1, [])


# -- properties over random instances ----------------------------------------

@given(st.randoms(use_true_random=False))
def test_proper_nonzero_goals_always_get_a_finite_positive_bound(rng):
    # properness forces the goal's columns into the range of the Gram
    # matrix, so the pseudo-inverse can never annihilate a nonzero goal
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    k = random_proper_goal(rng, profile)
    p = random_target(rng, profile.n)
    bound = delta_bound(pseudo_inverse(g), k, p)
    assert bound is not UNBOUNDED
    assert bound > 0


@given(st.randoms(use_true_random=False))
def test_factor_at_the_certified_bound_is_admissible(rng):
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    g_plus = pseudo_inverse(g)
    k = random_proper_goal(rng, profile)
    p = random_target(rng, profile.n)
    bound = delta_bound(g_plus, k, p)
    cert = stochastic_factor(g, g_plus, k, p, bound)
    assert g @ cert.factor == cert.target
    assert cert.factor.row_sums() == (F(1),) * profile.n
    assert all(e >= 0 for e in cert.factor.entries)


@given(st.randoms(use_true_random=False))
def test_realized_targets_pass_the_audit(rng):
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    g_plus = pseudo_inverse(g)
    k = random_proper_goal(rng, profile)
    p = TargetPoint.uniform(profile.n)
    bound = delta_bound(g_plus, k, p)
    delta = bound / 2
    if delta == 0:
        return
    cert = stochastic_factor(g, g_plus, k, p, delta)
    # the realized sharing matrix is the target itself, and the audit
    # recovers the goal direction from it
    assert necessary_condition_check(cert.target, delta, measure_relations(profile))


def _assert_spectral_enclosure_within_the_pinv_bound(g, k, p, tol):
    # The theorem bounds the enclosed margin min(p) lambda / (n max|k|),
    # not the enclosure's upper end: lambda may lie below tol, where the
    # cell is (0, tol].  So some eigenvalue of g lies in (0, bound / scale].
    lo, hi = spectral_delta_bound(g, k, p, tol)
    bound = delta_bound(pseudo_inverse(g), k, p)
    assert 0 <= lo < hi
    assert lo <= bound
    scale = min(p.shares) / (k.n * k.mat.max_abs())
    assert real_roots_in(charpoly_by_cofactors(g), F(0), bound / scale) >= 1
    return lo, hi, bound


@given(st.randoms(use_true_random=False))
def test_spectral_enclosure_never_beats_the_pinv_bound(rng):
    profile = random_independent_profile(rng, max_atoms=4)
    g = gram_matrix(profile)
    k = random_proper_goal(rng, profile)
    p = random_target(rng, profile.n)
    _assert_spectral_enclosure_within_the_pinv_bound(g, k, p, F(1, 2**20))


def test_spectral_enclosure_upper_end_may_pass_the_pinv_bound():
    # The smallest eigenvalue is below tol = 2^-20, so the enclosure is
    # the first cell (0, w], and its upper end passes delta_bound.
    breaks = [0, F(1, 2), F(7, 12), F(23, 24), 1]
    profile = common_refinement([StepDensity.normalized(breaks, vals) for vals in
                                 ([6, 4, 1, 3], [6, 1, 3, 6], [6, 0, 5, 4], [5, 2, 3, 1])])
    k = GoalMatrix(RatMatrix.from_rows([
        ["-1/8", "3/8", "3/8", "-5/8"],
        ["-35/24", "11/8", "1/24", "1/24"],
        ["1/2", "-1/6", "1/6", "-1/2"],
        [0, "3/4", -1, "1/4"],
    ]))
    p = TargetPoint((F(1, 12), F(1, 6), F(1, 3), F(5, 12)))
    lo, hi, bound = _assert_spectral_enclosure_within_the_pinv_bound(
        gram_matrix(profile), k, p, F(1, 2**20))
    assert (lo, hi) == (0, F(1, 73400320))
    assert bound == F(7383, 597344776430) < hi


@given(st.randoms(use_true_random=False))
def test_pinv_keeps_the_ones_vector(rng):
    # g is symmetric and g @ 1 = 1, so g_plus @ 1 = 1: every row of the
    # pseudo-inverse sums to 1, dependent profiles included
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    oracle = symmetric_pinv(g)
    assert all(sum(row) == 1 for row in oracle)
    assert pseudo_inverse(g).to_rows() == oracle


@given(st.randoms(use_true_random=False))
def test_factor_bound_is_the_exact_threshold_of_the_factor(rng):
    profile = random_profile(rng, force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    g_plus = pseudo_inverse(g)
    k = random_proper_goal(rng, profile) if rng.random() < 0.9 else GoalMatrix.zero(profile.n)
    p = random_target(rng, profile.n)
    bound = factor_delta_bound(g_plus @ k.mat, p)
    expected = factor_threshold(g, k.mat.to_rows(), p.shares)
    assert bound == (UNBOUNDED if expected is None else expected)
    if bound is UNBOUNDED:
        return
    cert = stochastic_factor(g, g_plus, k, p, bound)
    assert min(cert.factor.entries) == 0
    with pytest.raises(DeltaTooLargeError):
        stochastic_factor(g, g_plus, k, p, bound * (1 + F(1, 1000)))


@settings(max_examples=20)
@given(st.randoms(use_true_random=False))
def test_margin_bounds_form_a_ladder(rng):
    # delta_bound <= factor_delta_bound <= the LP maximum
    profile = random_profile(rng, n=rng.randint(2, 3), max_atoms=4,
                             force_dependent=rng.random() < 0.5)
    g = gram_matrix(profile)
    g_plus = pseudo_inverse(g)
    k = random_proper_goal(rng, profile)
    p = random_target(rng, profile.n)
    factor = factor_threshold(g, k.mat.to_rows(), p.shares)
    _, lp_max = solve_alpha(profile, k, p, MAXIMIZE)
    assert delta_bound(g_plus, k, p) <= factor_delta_bound(g_plus @ k.mat, p) == factor <= lp_max
