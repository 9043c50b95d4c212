from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from hyperfair import simplex
from hyperfair.hyperfree import UNBOUNDED, UNCONSTRAINED, GoalMatrix
from hyperfair.linalg import RatMatrix
from hyperfair.measures import measure_relations
from hyperfair.relations import (
    Relation,
    RelationMatrix,
    RelationSolution,
    _refutation,
    _refutation_lp,
    solve_relations,
    verify_refutation,
    verify_relation_solution,
)
from hyperfair.simplex import LpStatus

from conftest import random_profile, random_proper_goal
from oracles import (
    grid_sign_feasible,
    integer_kernel,
    lp_bland_reference,
    proper_basis,
    weight_sign_lp,
)

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
    r = RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS)
    sol = solve_relations(r, [trio_relation])
    assert sol == RelationSolution(False)
    assert sol.k is None and sol.margin is None
    assert verify_refutation(sol.refutation, r, [trio_relation])


def test_a_refutation_must_meet_every_strict_sign(trio_relation):
    r = RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS)
    a, b = solve_relations(r, [trio_relation]).refutation
    zero = (F(0),) * 3
    assert not verify_refutation((zero, zero), r, [trio_relation])  # no strict cell > 0
    assert not verify_refutation((a, tuple(-x for x in b)), r, [trio_relation])
    # a row whose strict cells share one sign refutes with a alone
    assert verify_refutation(((F(0), F(0), F(1)), zero), RelationMatrix.from_symbols(
        [[">", "<", "="], ["<", ">", "="], ["=", ">", ">"]]), [trio_relation])
    with pytest.raises(ValueError, match="sizes differ"):
        verify_refutation((a,), r, [trio_relation])
    with pytest.raises(ValueError, match="sizes differ"):
        verify_refutation((a, b[:2]), r, [trio_relation])


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


def test_the_margin_sentinels_survive_copy_and_pickle(trio_relation):
    # Callers test a margin by identity, so a copied or unpickled
    # sentinel must be the same object, and a solution that holds one
    # must equal its copy.
    for sentinel in (UNBOUNDED, UNCONSTRAINED):
        assert copy.deepcopy(sentinel) is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel
    sol = solve_relations(RelationMatrix.from_symbols([["="] * 3] * 3), [trio_relation])
    assert sol.margin is UNCONSTRAINED
    assert copy.deepcopy(sol) == sol and pickle.loads(pickle.dumps(sol)) == sol


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
    assert verify_refutation(sol.refutation, RelationMatrix.super_envy_free(2), [(F(1), F(-1))])


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
        if not sol.feasible:
            assert verify_refutation(sol.refutation, RelationMatrix.from_symbols(symbols), [])


def test_two_player_patterns_exhaustively_identical_measures():
    lam = (F(1), F(-1))
    for cells in product("<=>", repeat=4):
        symbols = [list(cells[:2]), list(cells[2:])]
        r = RelationMatrix.from_symbols(symbols)
        sol = solve_relations(r, [lam])
        assert sol.feasible == grid_sign_feasible(symbols, [lam], 2), symbols
        if sol.feasible and sol.has_strict:
            assert verify_relation_solution(sol.k, r, [lam])
        if not sol.feasible:
            assert verify_refutation(sol.refutation, r, [lam])


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
        assert verify_refutation(sol.refutation, r, [lam])


def _z(refutation, relations, n) -> list[F]:
    """Z = a 1^T + sum_l relations[l] b_l^T, row-major."""
    a, *bs = refutation
    return [a[i] + sum((lam[i] * b[j] for lam, b in zip(relations, bs)), F(0))
            for i in range(n) for j in range(n)]


def test_every_refutation_is_orthogonal_to_the_proper_matrices(trio_relation):
    # Every infeasible verdict carries a refutation that passes
    # verify_refutation, and its Z is orthogonal to each matrix of an
    # independent basis of the proper matrices that vanish on "=" cells.
    cases = [(INFEASIBLE_SYMBOLS, [trio_relation])]
    rng, scales = random.Random(28), random.Random(5)
    while len(cases) < 60:
        n = rng.randint(2, 4)
        profile = random_profile(rng, n, max_atoms=rng.choice([max(1, n - 1), 6]),
                                 force_dependent=rng.random() < 0.5)
        symbols = _signs(random_proper_goal(rng, profile).mat.to_rows())
        if rng.random() < 0.7:  # a pattern drawn freely, often infeasible
            symbols = [[rng.choice("<=>") for _ in row] for row in symbols]
        # a relation's scale is free; a fractional one tests the LP's denominators
        relations = [tuple(x / scales.randint(1, 5) for x in lam)
                     for lam in measure_relations(profile)]
        cases.append((symbols, relations))
    refuted = set()
    for symbols, relations in cases:
        r = RelationMatrix.from_symbols(symbols)
        sol = solve_relations(r, relations)
        if sol.feasible:
            assert sol.refutation is None
            continue
        refuted.add(len(relations))
        assert verify_refutation(sol.refutation, r, relations), symbols
        z = _z(sol.refutation, relations, r.n)
        for e in proper_basis(symbols, relations, r.n):
            assert sum(x * y for x, y in zip(z, e)) == 0
    assert refuted == {0, 1, 2}


def test_the_row_test_agrees_with_the_alternative_lp_without_relations():
    # With no relation Z = a 1^T, so the LP finds a refutation exactly
    # when some row's strict cells all have one sign.
    patterns = [[list(cells[:2]), list(cells[2:])] for cells in product("<=>", repeat=4)]
    rng = random.Random(20261020)
    patterns += [[[rng.choice("<=>") for _ in range(n)] for _ in range(n)]
                 for n in (3, 4) for _ in range(40)]
    for symbols in patterns:
        r = RelationMatrix.from_symbols(symbols)
        if not r.has_strict:
            continue
        strict = [(i, j) for i, row in enumerate(symbols) for j, c in enumerate(row) if c != "="]
        by_rows, by_lp = _refutation(r, [], strict), _refutation_lp(r, [], strict)
        assert (by_rows is None) == (by_lp is None) == _row_wise_feasible(symbols), symbols
        if by_lp is not None:
            assert verify_refutation(by_lp, r, []) and verify_refutation(by_rows, r, [])


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


def _signs(rows) -> list[list[str]]:
    return [["<=>"[(x > 0) - (x < 0) + 1] for x in row] for row in rows]


def test_sign_lps_are_certified_without_bland(monkeypatch, trio_relation):
    # Each sign LP is one float run and one exact certificate: neither
    # falls back to the exact Bland simplex.  A strict pattern under
    # relations runs the alternative LP, and a feasible pattern the
    # primal LP after it; without relations the row test runs no LP.
    float_runs, bland_runs = [], []
    float_basis, solve = simplex._float_basis, simplex._solve
    monkeypatch.setattr(simplex, "_float_basis",
                        lambda goal, base: float_runs.append(goal) or float_basis(goal, base))
    monkeypatch.setattr(simplex, "_solve",
                        lambda goal, base: bland_runs.append(goal) or solve(goal, base))
    cases = [(INFEASIBLE_SYMBOLS, [trio_relation]), (FEASIBLE_SYMBOLS, [trio_relation])]
    rng = random.Random(1)
    for _ in range(30):
        profile = random_profile(rng, max_atoms=8, force_dependent=rng.random() < 0.5)
        symbols = _signs(random_proper_goal(rng, profile).mat.to_rows())
        if rng.random() < 0.5:  # a pattern drawn freely, often infeasible
            symbols = [[rng.choice("<=>") for _ in row] for row in symbols]
        cases.append((symbols, measure_relations(profile)))
    patterns = [(RelationMatrix.from_symbols(s), rel) for s, rel in cases]
    strict = [(r, rel) for r, rel in patterns if r.has_strict]
    verdicts = [solve_relations(r, rel).feasible for r, rel in strict]
    assert verdicts[:2] == [False, True]
    assert True in verdicts[2:] and False in verdicts[2:]
    with_relations = sum(1 for _, rel in strict if rel)
    assert 0 < with_relations < len(strict)
    assert len(float_runs) == with_relations + sum(verdicts)
    assert bland_runs == []
    # the counter sees a fallback: with no float basis, the same pattern
    # goes to exact Bland once per LP, the alternative's and the primal's,
    # and gets the same verdict and witness
    r, rel = patterns[1]
    certified = solve_relations(r, rel)
    monkeypatch.setattr(simplex, "_float_basis", lambda goal, base: None)
    assert solve_relations(r, rel) == certified and certified.feasible
    assert len(bland_runs) == 2


def test_a_lost_float_run_refutes_the_pattern_from_the_exact_crossover(monkeypatch, trio_relation):
    # With no float basis, the alternative LP is answered by the exact
    # crossover from Z = 0, w = 1 and phase 2 from its vertex: no phase-1
    # tableau is built, status and value are the certified ones, and the
    # refutation checks.
    r = RelationMatrix.from_symbols(INFEASIBLE_SYMBOLS)
    float_basis, certify, solve = simplex._float_basis, simplex._certify, simplex._solve
    exact_runs = []

    def refuse(base, nvars):
        raise AssertionError("a phase-1 tableau was built")

    monkeypatch.setattr(simplex, "_float_basis", lambda goal, base: None)
    monkeypatch.setattr(simplex, "_phase1_tableau", refuse)
    monkeypatch.setattr(simplex, "_solve",
                        lambda goal, base: exact_runs.append((goal, base, solve(goal, base)))
                        or exact_runs[-1][2])
    solution = solve_relations(r, [trio_relation])
    assert not solution.feasible
    assert verify_refutation(solution.refutation, r, [trio_relation])
    [(goal, base, out)] = exact_runs
    certified = certify(goal, base, float_basis(goal, base))
    assert (out.status, out.value) == (certified.status, certified.value) == (LpStatus.OPTIMAL, 1)


@settings(max_examples=40)
@given(st.data())
def test_a_feasible_pattern_is_one_some_division_realizes(data):
    # The paper's theorem, against an LP over the atom weights that
    # never forms a goal matrix: a proper goal matrix has the signs of
    # r exactly when some division's sharing matrix M has the signs of
    # r against p.  Atoms are abstract: player i's measure of atom a is
    # masses[i][a], and the relations are the kernel of those measures.
    # Half the patterns are the signs of some division's M - P.
    n = data.draw(st.integers(2, 3))
    atoms = data.draw(st.integers(1, 4))

    def unit(length, lo=0):
        raw = data.draw(st.lists(st.integers(lo, 4), min_size=length, max_size=length))
        raw = raw if any(raw) else [1] * length
        return [F(x, sum(raw)) for x in raw]

    masses = [unit(atoms) for _ in range(n)]
    if data.draw(st.booleans()):  # the last measure mixes the others
        mix = unit(n - 1, lo=1)
        masses[-1] = [sum(w * row[a] for w, row in zip(mix, masses)) for a in range(atoms)]
    p = unit(n, lo=1)
    if data.draw(st.booleans()):
        alpha = [unit(n) for _ in range(atoms)]
        symbols = _signs([[sum(alpha[a][j] * masses[i][a] for a in range(atoms)) - p[j]
                           for j in range(n)] for i in range(n)])
    else:
        symbols = data.draw(st.lists(st.lists(st.sampled_from("<=>"), min_size=n, max_size=n),
                                     min_size=n, max_size=n))
    r = RelationMatrix.from_symbols(symbols)
    assume(r.has_strict)
    relations = integer_kernel(RatMatrix(atoms, n, tuple(
        masses[i][a] for a in range(atoms) for i in range(n))))
    status, t_star, _ = lp_bland_reference(*weight_sign_lp(masses, p, symbols))
    assert status == "optimal"
    event(f"realizable: {t_star > 0}")
    assert solve_relations(r, relations).feasible == (t_star > 0)


def test_an_improper_goal_fails_the_check_whatever_its_signs(trio_relation):
    # (1, 9, -10) must annihilate every column of K; it takes K's first
    # column to -8, though every sign of K matches the pattern
    k = GoalMatrix.make([["1", "-1", "0"], ["-1", "1", "0"], ["0", "0", "0"]])
    r = RelationMatrix.from_symbols([[">", "<", "="], ["<", ">", "="], ["=", "=", "="]])
    assert all(r[i, j].matches(k.mat[i, j]) for i in range(3) for j in range(3))
    assert not verify_relation_solution(k, r, [trio_relation])
