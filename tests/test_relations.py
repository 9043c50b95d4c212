from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperfair.hyperfree import UNCONSTRAINED, GoalMatrix
from hyperfair.linalg import RatMatrix
from hyperfair.relations import (
    Relation,
    RelationMatrix,
    RelationSolution,
    solve_relations,
    verify_relation_solution,
)

from oracles import grid_sign_feasible, lp_bland_reference

F = Fraction

INFEASIBLE_SYMBOLS = [[">", "=", "<"], [">", ">", "<"], ["<", "<", ">"]]
FEASIBLE_SYMBOLS = [[">", "=", "<"], ["<", ">", ">"], ["<", ">", ">"]]


# -- Relation / RelationMatrix basics ---------------------------------------

def test_relation_symbols_round_trip():
    for s in "<=>":
        assert Relation.from_symbol(s).value == s
    with pytest.raises(ValueError, match="expected one of"):
        Relation.from_symbol(">=")


def test_relation_matches_signs():
    assert Relation.GT.matches(F(1, 7))
    assert Relation.EQ.matches(F(0))
    assert Relation.LT.matches(F(-2))
    assert not Relation.GT.matches(F(0))
    assert not Relation.LT.matches(F(3))


def test_relation_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        RelationMatrix.from_symbols([["<", ">"]])
    with pytest.raises(ValueError, match="square"):
        RelationMatrix.from_symbols([])


def test_relation_matrix_accessors():
    r = RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS)
    assert r.n == 3
    assert r[0, 0] is Relation.GT
    assert r[0, 1] is Relation.EQ
    assert r.has_strict
    assert r.to_symbols() == INFEASIBLE_SYMBOLS


def test_super_envy_free_builder():
    r = RelationMatrix.super_envy_free(3)
    assert r.to_symbols() == [
        [">", "<", "<"],
        ["<", ">", "<"],
        ["<", "<", ">"],
    ]


# -- the two running sign patterns -------------------------------------------

def test_first_trio_pattern_is_infeasible(trio_relation):
    sol = solve_relations(RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS), [trio_relation])
    assert sol == RelationSolution(False)
    assert sol.k is None and sol.margin is None


def test_second_trio_pattern_is_feasible(trio_relation):
    r = RelationMatrix.from_symbols(FEASIBLE_SYMBOLS)
    sol = solve_relations(r, [trio_relation])
    assert sol.feasible
    assert sol.has_strict
    assert sol.margin == F(3, 7)
    assert verify_relation_solution(sol.k, r, [trio_relation])
    assert sol.k.mat.max_abs() <= 1


def test_trio_goal_matches_second_pattern_not_first(trio_goal, trio_relation):
    blocked = RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS)
    witnessed = RelationMatrix.from_symbols(FEASIBLE_SYMBOLS)
    assert verify_relation_solution(trio_goal, witnessed, [trio_relation])
    assert not verify_relation_solution(trio_goal, blocked, [trio_relation])


def test_all_equalities_need_no_slack(trio_relation):
    r = RelationMatrix.from_symbols([["="] * 3] * 3)
    sol = solve_relations(r, [trio_relation])
    assert sol.feasible
    assert not sol.has_strict
    assert sol.margin is UNCONSTRAINED
    assert sol.k.is_zero()


def test_super_pattern_without_relations_has_margin_one_over_n_minus_one():
    # row sums force the diagonal to absorb n-1 off-diagonal entries of
    # size at least t inside the unit box, so the best slack is 1/(n-1)
    for n in (2, 3, 4):
        sol = solve_relations(RelationMatrix.super_envy_free(n), [])
        assert sol.feasible
        assert sol.margin == F(1, n - 1)
        assert verify_relation_solution(sol.k, RelationMatrix.super_envy_free(n), [])


def test_super_pattern_with_identical_measures_is_infeasible():
    # k_00 = k_10 is forced by the relation, but the pattern wants them
    # on opposite sides of zero
    sol = solve_relations(RelationMatrix.super_envy_free(2), [(F(1), F(-1))])
    assert not sol.feasible


def test_solve_relations_rejects_mismatched_relation_length():
    with pytest.raises(ValueError, match="length"):
        solve_relations(RelationMatrix.super_envy_free(2), [(F(1), F(1), F(1))])


def test_verify_rejects_mismatched_sizes(trio_goal):
    with pytest.raises(ValueError, match="sizes differ"):
        verify_relation_solution(trio_goal, RelationMatrix.super_envy_free(2), [])


def test_scaling_a_witness_preserves_the_pattern(trio_goal, trio_relation):
    witnessed = RelationMatrix.from_symbols(FEASIBLE_SYMBOLS)
    for c in (F(1, 7), F(3), F(100)):
        scaled = GoalMatrix(c * trio_goal.mat)
        assert verify_relation_solution(scaled, witnessed, [trio_relation])


# -- exhaustive and sampled comparisons against independent oracles -----------

def _row_wise_feasible(symbols) -> bool:
    # with no relations the rows are independent, and a row with strict
    # cells balances to zero exactly when both strict signs appear
    for row in symbols:
        has_gt = ">" in row
        has_lt = "<" in row
        if has_gt != has_lt:
            return False
    return True


def test_two_player_patterns_exhaustively_no_relations():
    for cells in product("<=>", repeat=4):
        symbols = [list(cells[:2]), list(cells[2:])]
        sol = solve_relations(RelationMatrix.from_symbols(symbols), [])
        assert sol.feasible == _row_wise_feasible(symbols), symbols
        assert sol.feasible == grid_sign_feasible(symbols, [], 2), symbols
        if sol.feasible and sol.has_strict:
            assert verify_relation_solution(sol.k, RelationMatrix.from_symbols(symbols), [])
            assert sol.margin > 0


def test_two_player_patterns_exhaustively_identical_measures():
    lam = (F(1), F(-1))
    for cells in product("<=>", repeat=4):
        symbols = [list(cells[:2]), list(cells[2:])]
        r = RelationMatrix.from_symbols(symbols)
        sol = solve_relations(r, [lam])
        assert sol.feasible == grid_sign_feasible(symbols, [lam], 2), symbols
        if sol.feasible and sol.has_strict:
            assert verify_relation_solution(sol.k, r, [lam])


def test_three_player_patterns_sampled_no_relations():
    rng = random.Random(20260819)
    for _ in range(120):
        symbols = [[rng.choice("<=>") for _ in range(3)] for _ in range(3)]
        r = RelationMatrix.from_symbols(symbols)
        sol = solve_relations(r, [])
        assert sol.feasible == _row_wise_feasible(symbols), symbols
        if sol.feasible and sol.has_strict:
            assert verify_relation_solution(sol.k, r, [])


@settings(max_examples=40)
@given(st.lists(st.sampled_from("<=>"), min_size=9, max_size=9))
def test_three_player_patterns_against_grid_oracle(flat):
    symbols = [flat[:3], flat[3:6], flat[6:]]
    lam = (F(1), F(9), F(-10))
    r = RelationMatrix.from_symbols(symbols)
    sol = solve_relations(r, [lam])
    if sol.feasible:
        if sol.has_strict:
            assert verify_relation_solution(sol.k, r, [lam])
            assert sol.margin > 0
    else:
        # the grid oracle only ever finds genuinely feasible points, so
        # it must come up empty on anything the solver rejects
        assert not grid_sign_feasible(symbols, [lam], 3)


def _sign_lp_by_fractions(r: RelationMatrix, relations):
    """``solve_relations``' LP written out in Fractions, same columns and rows.

    Columns: ``u`` then ``v`` (``k = u - v``, row-major), the slack ``t``,
    then a surplus and a box slack per strict cell.  Rows: row sums,
    each relation against each column, two rows per strict cell, then
    one row per equality cell.
    """
    n = r.n
    strict = [(i, j) for i in range(n) for j in range(n) if r[i, j] is not Relation.EQ]
    t = 2 * n * n
    nvars = t + 1 + 2 * len(strict)
    rows, rhs = [], []

    def add(entries, b=0):
        row = [F(0)] * nvars
        for col, x in entries:
            row[col] = F(x)
        rows.append(row)
        rhs.append(F(b))

    def k(i, j, x):
        return [(i * n + j, x), (n * n + i * n + j, -x)]

    for i in range(n):
        add([e for j in range(n) for e in k(i, j, 1)])
    for lam in relations:
        for j in range(n):
            add([e for i in range(n) for e in k(i, j, lam[i])])
    for idx, (i, j) in enumerate(strict):
        sign = r[i, j].sign
        add(k(i, j, sign) + [(t, -1), (t + 1 + 2 * idx, -1)])
        add(k(i, j, sign) + [(t + 2 + 2 * idx, 1)], 1)
    for i in range(n):
        for j in range(n):
            if r[i, j] is Relation.EQ:
                add(k(i, j, 1))
    objective = [F(0)] * nvars
    objective[t] = F(1)
    return objective, RatMatrix.from_rows(rows), rhs


@settings(max_examples=30)
@given(st.data())
def test_sign_lp_keeps_blands_witness(data):
    # The witness K is the basic point Bland's rule ends on; the Fraction
    # tableau reference must end on the same one.  Half the patterns are
    # the signs of a proper K (rows summing to zero, and rows a and b
    # equal for a relation c * (e_a - e_b)), so that most of those are
    # feasible; the other half are drawn freely.
    n = data.draw(st.integers(2, 4))
    ints = st.integers(-2, 2)
    k = [row + [-sum(row)] for row in data.draw(
        st.lists(st.lists(ints, min_size=n - 1, max_size=n - 1), min_size=n, max_size=n))]
    relations = []
    for a, b, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                st.sampled_from([-3, -1, 2])), max_size=2)):
        if a != b:
            k[b] = k[a]
            relations.append(tuple(F(c * ((i == a) - (i == b))) for i in range(n)))
    if data.draw(st.booleans()):
        symbols = [["<=>"[(x > 0) - (x < 0) + 1] for x in row] for row in k]
    else:
        symbols = data.draw(st.lists(st.lists(st.sampled_from("<=>"), min_size=n, max_size=n),
                                     min_size=n, max_size=n))
    r = RelationMatrix.from_symbols(symbols)
    assume(r.has_strict)
    sol = solve_relations(r, relations)
    status, value, x = lp_bland_reference(*_sign_lp_by_fractions(r, relations))
    assert status == "optimal"
    assert sol.feasible == (value > 0)
    if sol.feasible:
        assert sol.margin == value
        assert sol.k.mat == RatMatrix(n, n, tuple(x[i] - x[n * n + i] for i in range(n * n)))
