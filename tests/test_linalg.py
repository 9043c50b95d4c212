from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from hyperfair import gram_matrix, linalg
from hyperfair.linalg import (
    DEFAULT_TOL,
    RatMatrix,
    _inertia,
    inverse,
    kernel_basis,
    pseudo_inverse,
    rank,
    rank_factorization,
    rat,
    rref,
    smallest_eigenvalue,
)

from conftest import TRIO_GRAM_ROWS, random_independent_profile, random_profile
from oracles import (
    charpoly_by_cofactors,
    gauss_jordan,
    integer_kernel,
    poly_eval,
    real_roots_in,
    symmetric_pinv,
)

F = Fraction


def trio_gram():
    return RatMatrix.from_rows(TRIO_GRAM_ROWS)


# -- rat / fmt -----------------------------------------------------------

def test_rat_accepts_ints_strings_fractions():
    assert rat(3) == F(3)
    assert rat("-3/4") == F(-3, 4)
    assert rat(F(1, 2)) == F(1, 2)


def test_rat_rejects_floats_and_decimal_strings():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("1.5")
    with pytest.raises(TypeError):
        rat(True)


# The accepted grammar, written out here rather than imported: an
# optional sign and digits, then optionally a slash and digits that do
# not start with 0, with whitespace around the whole and spaces around
# the slash.  The value is Fraction's reading with the spaces removed.
REFERENCE_RATIONAL = re.compile(r"\s*[-+]?\d+(?: */ *[1-9]\d*)?\s*")


def reference_rat(text):
    if not REFERENCE_RATIONAL.fullmatch(text):
        raise ValueError(text)
    return F(text.replace(" ", ""))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(st.text(alphabet="0123456789-+/ _\t\n\u00a0\u0661\u0662\u00b2x.e", max_size=12))
@example("3/")
@example("1/0")
@example("1/01")
@example("1_0")
@example("+1")
@example(" 1 / 2 ")
@example("1\t/2")
@example("1/\u00a02")
@example("\u0661/2")
@example("-0/7")
@example("1" * 4301)
@example("-" + "7" * 4301)
@example("1/" + "3" * 4301)
@example("4" * 4300 + "/" + "9" * 4300)
def test_rat_agrees_with_an_independent_reading_of_the_grammar(text):
    got, want = outcome(rat, text), outcome(reference_rat, text)
    assert got == want
    assert type(got) is type(want)


# -- products --------------------------------------------------------------

@st.composite
def product_operands(draw):
    """``(a, b, v)``: ``a`` is m x k, ``b`` is k x p and ``v`` has length k.
    Any of m, k and p may be 0; entries are signed with unlike denominators."""
    m, k, p = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=30)

    def matrix(rows, cols):
        return RatMatrix(rows, cols, tuple(draw(entry) for _ in range(rows * cols)))

    return matrix(m, k), matrix(k, p), tuple(draw(entry) for _ in range(k))


def _triple_loop(a, b):
    out = [[F(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                out[i][j] += a[i, t] * b[t, j]
    return out


@given(product_operands())
@example((RatMatrix.zeros(0, 3), RatMatrix.zeros(3, 2), (F(1), F(2), F(3))))
@example((RatMatrix.zeros(3, 0), RatMatrix.zeros(0, 2), ()))
@example((RatMatrix.zeros(2, 3), RatMatrix.zeros(3, 0), (F(0), F(-1), F(1, 2))))
@example((RatMatrix.from_rows([["1/2", "-2/3"], ["-5/6", "7/10"]]),
          RatMatrix.from_rows([["3/5", "-1"], ["-7/4", "1/9"]]),
          (F(-1, 6), F(5, 9))))
def test_products_match_a_plain_fraction_triple_loop(operands):
    a, b, v = operands
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert c.to_rows() == _triple_loop(a, b)
    assert all(type(x) is Fraction for x in c.entries)
    expected = [F(0)] * a.rows
    for i in range(a.rows):
        for t in range(a.cols):
            expected[i] += a[i, t] * v[t]
    assert a.mat_vec(v) == tuple(expected)
    assert all(type(x) is Fraction for x in a.mat_vec(v))


def test_products_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        RatMatrix.zeros(2, 3) @ RatMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match="vector length"):
        RatMatrix.zeros(2, 3).mat_vec((F(1), F(2)))


# -- rref ------------------------------------------------------------------

@st.composite
def rectangular_matrices(draw):
    """Matrices up to 5 x 6, empty shapes included, with zero rows, zero
    columns and rows that combine earlier ones, so many are rank-deficient."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3, 2), F(1, 3), F(5, 7)])
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            grid[i] = [F(0)] * cols
        elif kind == "combination" and i > 0:
            a, b = draw(entry), draw(entry)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            grid[i] = [a * x + b * y for x, y in zip(grid[j], grid[k])]
    if cols:
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in grid:
                row[c] = F(0)
    return RatMatrix(rows, cols, tuple(x for row in grid for x in row))


@given(rectangular_matrices())
@example(RatMatrix.zeros(0, 3))
@example(RatMatrix.zeros(3, 0))
@example(RatMatrix.zeros(2, 3))
@example(RatMatrix.from_rows([[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]]))
def test_rref_matches_the_gauss_jordan_oracle(m):
    red, pivots = rref(m)
    want, want_pivots = gauss_jordan(m)
    assert pivots == want_pivots
    assert red == RatMatrix(m.rows, m.cols, tuple(x for row in want for x in row))
    assert kernel_basis(m) == integer_kernel(m)


# -- kernel --------------------------------------------------------------

def test_kernel_of_trio_gram_is_canonical_integer_vector():
    assert kernel_basis(trio_gram()) == [(F(1), F(9), F(-10))]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_of_all_ones_2x2():
    m = RatMatrix.from_rows([[1, 1], [1, 1]])
    assert kernel_basis(m) == [(F(1), F(-1))]


@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_kernel_vectors_annihilate_and_count_matches_rank(n, rng):
    m = RatMatrix.from_rows([
        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(rng.randint(1, n))
    ])
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    zero = tuple(F(0) for _ in range(m.rows))
    for v in basis:
        assert m.mat_vec(v) == zero
        # canonical form: integers, content one, positive leading entry
        assert all(x.denominator == 1 for x in v)
        lead = next(x for x in v if x != 0)
        assert lead > 0


# -- rank factorization ---------------------------------------------------

def test_rank_factorization_identity():
    c, f = rank_factorization(RatMatrix.identity(3))
    assert c == RatMatrix.identity(3)
    assert f == RatMatrix.identity(3)


def test_rank_factorization_zero_matrix_has_zero_inner_dim():
    z = RatMatrix.zeros(2, 3)
    c, f = rank_factorization(z)
    assert (c.rows, c.cols) == (2, 0)
    assert (f.rows, f.cols) == (0, 3)
    assert c @ f == z


def test_rank_factorization_multiplies_back_on_trio_gram():
    g = trio_gram()
    c, f = rank_factorization(g)
    assert c.cols == 2
    assert c @ f == g


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_rank_factorization_multiplies_back(rows, cols, rng):
    m = RatMatrix.from_rows([
        [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols)] for _ in range(rows)
    ])
    c, f = rank_factorization(m)
    assert c @ f == m
    assert c.cols == rank(m)


# -- pseudo-inverse -------------------------------------------------------

def test_pseudo_inverse_matches_known_values_on_trio_gram():
    from conftest import TRIO_PINV_ROWS

    assert pseudo_inverse(trio_gram()) == RatMatrix.from_rows(TRIO_PINV_ROWS)


def test_pseudo_inverse_of_nonsingular_is_inverse():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    assert pseudo_inverse(m) == inverse(m)


def test_pseudo_inverse_diag_2_0():
    m = RatMatrix.from_rows([[2, 0], [0, 0]])
    assert pseudo_inverse(m) == RatMatrix.from_rows([["1/2", 0], [0, 0]])


def _random_matrix(rng, rows, cols, rank_limit=None):
    if rank_limit is None:
        return RatMatrix.from_rows([
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ])
    a = _random_matrix(rng, rows, rank_limit)
    b = _random_matrix(rng, rank_limit, cols)
    return a @ b


@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.randoms(use_true_random=False))
def test_penrose_identities_hold_exactly(rows, cols, deficient, rng):
    limit = max(1, min(rows, cols) - 1) if deficient else None
    m = _random_matrix(rng, rows, cols, rank_limit=limit)
    plus = pseudo_inverse(m)
    assert m @ plus @ m == m
    assert plus @ m @ plus == plus
    assert (m @ plus).transpose() == m @ plus
    assert (plus @ m).transpose() == plus @ m


@given(st.integers(1, 5), st.booleans(), st.randoms(use_true_random=False))
def test_pseudo_inverse_of_a_gram_like_matrix_on_both_rank_branches(n, deficient, rng):
    # m = a a^T has the rank of a: n takes the inverse shortcut, n - 1
    # the rank-factorization formula.
    width = n - 1 if deficient else n
    while True:
        a = _random_matrix(rng, n, width) if width else RatMatrix.zeros(n, 1)
        if rank(a) == width:
            break
    m = a @ a.transpose()
    plus = pseudo_inverse(m)
    assert m @ plus @ m == m
    assert plus @ m @ plus == plus
    assert (m @ plus).transpose() == m @ plus
    assert (plus @ m).transpose() == plus @ m
    assert plus == RatMatrix.from_rows(symmetric_pinv(m))
    if not deficient:
        assert plus == inverse(m)


# -- characteristic polynomial oracle -------------------------------------

def test_cofactor_oracle_trio_gram_frozen():
    assert charpoly_by_cofactors(trio_gram()) == [F(0), F(182, 209), F(-391, 209), F(1)]


# -- smallest eigenvalue ---------------------------------------------------

def test_smallest_eigenvalue_identity():
    lo, hi = smallest_eigenvalue(RatMatrix.identity(3), F(1, 1000))
    assert lo < 1 <= hi
    assert hi - lo <= F(1, 1000)


def test_smallest_eigenvalue_diagonal_quarter():
    m = RatMatrix.from_rows([["1/4", 0], [0, 3]])
    lo, hi = smallest_eigenvalue(m, F(1, 2**20))
    assert lo < F(1, 4) <= hi


def test_smallest_eigenvalue_trio_gram_skips_zero():
    # the nonzero spectrum is {182/209, 1}; the enclosure must isolate
    # the smaller value even though the matrix is singular
    lo, hi = smallest_eigenvalue(trio_gram(), F(1, 2**30))
    target = F(182, 209)
    assert lo < target <= hi
    assert hi - lo <= F(1, 2**30)
    assert poly_eval(charpoly_by_cofactors(trio_gram()), target) == 0


def test_smallest_eigenvalue_repeated_root():
    m = RatMatrix.from_rows([["1/4", 0, 0], [0, "1/4", 0], [0, 0, 3]])
    lo, hi = smallest_eigenvalue(m, F(1, 2**20))
    assert lo < F(1, 4) <= hi


def test_smallest_eigenvalue_rejects_asymmetric_and_zero():
    with pytest.raises(ValueError):
        smallest_eigenvalue(RatMatrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        smallest_eigenvalue(RatMatrix.zeros(2, 2))


def test_smallest_eigenvalue_split_point_on_an_eigenvalue():
    # the first split point, 1/2, is itself an eigenvalue: m - I/2 is singular
    m = RatMatrix.from_rows([["1/2", 0], [0, 1]])
    lo, hi = smallest_eigenvalue(m, F(1, 2**20))
    assert lo < F(1, 2) <= hi
    assert hi - lo <= F(1, 2**20)


def test_smallest_eigenvalue_zero_leading_pivot_off_the_spectrum():
    # two identical players: at 1/2 the leading pivot of m - I/2 is zero,
    # yet 1/2 is not an eigenvalue (the spectrum is {0, 1})
    m = RatMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    lo, hi = smallest_eigenvalue(m, F(1, 2**20))
    assert lo < 1 <= hi
    assert hi - lo <= F(1, 2**20)


@given(st.integers(1, 4), st.booleans(), st.randoms(use_true_random=False))
def test_smallest_eigenvalue_encloses_the_first_positive_root(n, deficient, rng):
    b = _random_matrix(rng, n, n, rank_limit=max(1, n - 1) if deficient else None)
    m = b.transpose() @ b  # symmetric positive-semidefinite
    tol = F(1, 2**20)
    try:
        lo, hi = smallest_eigenvalue(m, tol)
    except ValueError:
        assert all(e == 0 for e in m.entries)
        return
    assert hi - lo <= tol
    assert 0 <= lo < hi
    p = charpoly_by_cofactors(m)
    assert real_roots_in(p, F(0), lo) == 0
    assert real_roots_in(p, F(0), hi) >= 1


def _oracle_cell(m, tol):
    """The cell ``((J - 1) w, J w]`` that bisection from ``(0, R]`` ends in.

    ``w`` is ``R`` halved until it is at most ``tol``, and ``J`` the least
    integer with a root of the characteristic polynomial in ``(0, J w]``.
    """
    p = charpoly_by_cofactors(m)
    width, cells = max(sum(map(abs, m.row(i)), F(0)) for i in range(m.rows)), 1
    while width > tol:
        width, cells = width / 2, cells * 2
    low, high = 1, cells
    while low < high:
        mid = (low + high) // 2
        if real_roots_in(p, F(0), mid * width) >= 1:
            high = mid
        else:
            low = mid + 1
    return (low - 1) * width, low * width


@given(st.integers(1, 4), st.booleans(), st.sampled_from([F(1, 3), F(1, 2**20), DEFAULT_TOL]),
       st.randoms(use_true_random=False))
def test_smallest_eigenvalue_is_the_bisection_cell_of_the_first_positive_root(n, deficient, tol, rng):
    b = _random_matrix(rng, n, n, rank_limit=max(1, n - 1) if deficient else None)
    m = b.transpose() @ b
    assume(any(m.entries))
    assert smallest_eigenvalue(m, tol) == _oracle_cell(m, tol)


def _counting_inertia(monkeypatch):
    calls = []

    def counting(a):
        calls.append(len(a))
        return _inertia(a)

    monkeypatch.setattr(linalg, "_inertia", counting)
    return calls


BAD_ESTIMATES = {
    "nan": lambda good, width: float("nan"),
    "inf": lambda good, width: float("inf"),
    "-inf": lambda good, width: float("-inf"),
    "cell above": lambda good, width: float(good[1] + width / 2),
    "cell below": lambda good, width: float(good[0] - width / 2),
}


@pytest.mark.parametrize("rows", [TRIO_GRAM_ROWS, [["1/4", 0], [0, 3]]])
@pytest.mark.parametrize("estimate", [*BAD_ESTIMATES, "overflow"])
def test_smallest_eigenvalue_falls_back_to_bisection_on_a_bad_estimate(monkeypatch, rows, estimate):
    m = RatMatrix.from_rows(rows)
    good = _oracle_cell(m, DEFAULT_TOL)
    width = good[1] - good[0]

    def bad(matrix, index):
        if estimate == "overflow":
            raise OverflowError("estimate out of range")
        return BAD_ESTIMATES[estimate](good, width)

    monkeypatch.setattr(linalg, "_float_eigenvalue", bad)
    calls = _counting_inertia(monkeypatch)
    assert smallest_eigenvalue(m) == good
    assert len(calls) > 3  # the bisection ran


@pytest.mark.parametrize("rows, estimate", [
    ([[F(1, 2**50), 0], [0, 1]], -1.0),  # eigenvalue in the first cell, (0, w]
    ([[1, 0], [0, 1]], 5.0),  # eigenvalue R, in the last cell
])
def test_smallest_eigenvalue_clamps_an_estimate_outside_the_grid(monkeypatch, rows, estimate):
    m = RatMatrix.from_rows(rows)
    monkeypatch.setattr(linalg, "_float_eigenvalue", lambda matrix, index: estimate)
    calls = _counting_inertia(monkeypatch)
    assert smallest_eigenvalue(m) == _oracle_cell(m, DEFAULT_TOL)
    assert len(calls) <= 3


def test_smallest_eigenvalue_beyond_float_range():
    # float(10**400) overflows, so the estimate fails and bisection answers
    big = 10**400
    m = RatMatrix.from_rows([[2 * big, big], [big, 2 * big]])  # spectrum {big, 3 big}
    lo, hi = smallest_eigenvalue(m)
    assert lo < big <= hi and hi - lo <= DEFAULT_TOL
    assert (lo, hi) == _oracle_cell(m, DEFAULT_TOL)


def test_smallest_eigenvalue_certifies_the_estimate_with_three_inertia_counts(monkeypatch):
    rng = random.Random(1)
    grams = [trio_gram()]
    for _ in range(6):
        grams.append(gram_matrix(random_independent_profile(rng, n=8, max_atoms=16)))
        grams.append(gram_matrix(random_profile(rng, n=8, max_atoms=16, force_dependent=True)))
    calls = _counting_inertia(monkeypatch)
    cells = []
    for g in grams:
        calls.clear()
        cells.append(smallest_eigenvalue(g))
        assert len(calls) <= 3
    assert cells[0] == _oracle_cell(grams[0], DEFAULT_TOL)
    monkeypatch.setattr(linalg, "_float_eigenvalue", lambda m, index: float("nan"))
    assert [smallest_eigenvalue(g) for g in grams] == cells


@pytest.mark.parametrize("exponent", [56, 60, 80])
def test_smallest_eigenvalue_below_float_resolution_bisects_from_the_estimate(monkeypatch, exponent):
    # A cell of width 2^-56 or less is finer than the float estimate
    # resolves, so its check may fail; the estimate's cell at the finest
    # level a float resolves is certified instead, and the halving runs
    # from there.
    m, tol = trio_gram(), F(1, 2**exponent)
    width, steps = max(sum(map(abs, m.row(i)), F(0)) for i in range(m.rows)), 0
    while width > tol:
        width, steps = width / 2, steps + 1
    coarse = min(steps, linalg._FLOAT_LEVELS)
    calls = _counting_inertia(monkeypatch)
    cell = smallest_eigenvalue(m, tol)
    assert len(calls) <= steps - coarse + 5
    assert cell == _oracle_cell(m, tol)
    monkeypatch.setattr(linalg, "_float_eigenvalue", lambda matrix, index: float("nan"))
    calls.clear()
    assert smallest_eigenvalue(m, tol) == cell
    assert len(calls) == steps + 1  # the count at 0, then one per halving


@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_inertia_matches_the_characteristic_polynomial(n, rng):
    # small entries with many zeros reach the zero-diagonal congruence step
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.choice([-2, -1, 0, 0, 0, 1, 2])
    p = charpoly_by_cofactors(RatMatrix.from_rows(rows))
    zero = next(k for k, c in enumerate(p) if c != 0)
    below = real_roots_in(p, F(-2 * n - 1), F(0))  # eigenvalues in (-2n-1, 0]
    assert _inertia([list(r) for r in rows]) == (below - zero, zero)
