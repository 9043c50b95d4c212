from __future__ import annotations

import ast
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from hyperfair import gram_matrix, linalg
from hyperfair.linalg import (
    DEFAULT_TOL,
    RatMatrix,
    _inertia,
    kernel_basis,
    pseudo_inverse,
    rank_factorization,
    rat,
    rref,
    smallest_eigenvalue,
)

from conftest import TRIO_GRAM_ROWS, random_independent_profile, random_profile
from oracles import (
    adjugate_inverse,
    charpoly_by_cofactors,
    full_rank_pinv,
    gauss_jordan,
    integer_kernel,
    poly_eval,
    real_roots_in,
    symmetric_pinv,
)

F = Fraction


def trio_gram():
    return RatMatrix.from_rows(TRIO_GRAM_ROWS)


def test_oracles_import_nothing_from_the_package_but_the_matrix_type():
    # the oracles check linalg's results, so they must not share its code
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text(encoding="utf-8"))
    imports = [(node.module, [a.name for a in node.names]) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    imports += [(a.name, None) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names]
    ours = [(module, names) for module, names in imports if module and module.split(".")[0] == "hyperfair"]
    assert ours == [("hyperfair.linalg", ["RatMatrix"])]


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
# optional sign and ASCII digits, then optionally a slash and ASCII
# digits that do not start with 0, with whitespace around the whole and
# spaces around the slash.  The value is Fraction's reading with the
# spaces removed.
REFERENCE_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(?: */ *[1-9][0-9]*)?\s*")


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


@pytest.mark.parametrize("text", [
    "\u0663",  # ARABIC-INDIC DIGIT THREE
    "\u0663/2",
    "1/1\u0664",  # ARABIC-INDIC DIGIT FOUR
    "\U00011f53",  # KAWI DIGIT THREE, which \d reads as 3 from Python 3.12 (Unicode 15.0) on
    "1/1\U00011f53",
], ids=["arabic_indic", "arabic_indic_numerator", "arabic_indic_denominator", "kawi",
        "kawi_denominator"])
def test_rat_refuses_digits_outside_ascii_on_every_python_version(text):
    with pytest.raises(ValueError, match="expected an integer or 'num/den' string"):
        rat(text)


@pytest.mark.parametrize("text, message", [
    ("1" * 4301, "integer has 4301 digits"),
    (" -00" + "7" * 4299 + " ", "integer has 4301 digits"),  # sign and spaces are not digits
    ("+" + "2" * 5000 + " / 3", "numerator has 5000 digits"),
    ("1/" + "3" * 4301, "denominator has 4301 digits"),
    ("4" * 4300 + "/" + "9" * 5000, "denominator has 5000 digits"),
], ids=["integer", "integer_signed", "numerator", "denominator", "denominator_only"])
def test_rat_names_the_digit_count_past_the_limit_on_every_python_version(text, message):
    # the interpreter's own text differs between versions; this one does not
    with pytest.raises(ValueError) as raised:
        rat(text)
    assert str(raised.value) == f"{message}, more than Python's limit of 4300 on integer strings"


def test_rat_reads_the_digit_limit_when_it_reads_a_string():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit
        assert rat("1/" + "3" * 5000) == F(1, int("3" * 5000))
        sys.set_int_max_str_digits(640)
        assert rat("-" + "7" * 640) == -int("7" * 640)
        with pytest.raises(ValueError, match="^numerator has 641 digits, more than Python's limit of 640 "):
            rat("7" * 641 + "/2")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value, text", [
    (F(10**5000, 3), "1" + "0" * 5000 + "/3"),
    (F(-(10**5000) - 1), "-1" + "0" * 4999 + "1"),
    (F(3, 7 * 10**9000 + 3), "3/7" + "0" * 8999 + "3"),
])
def test_fmt_writes_integers_past_the_int_to_str_digit_limit(value, text):
    # the lower halves start with zeros, which the split must keep
    assert linalg.fmt(value) == text


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


@given(rectangular_matrices(), st.permutations(range(4)))
@example(RatMatrix.zeros(0, 3), [0, 1, 2, 3])
@example(RatMatrix.from_rows(TRIO_GRAM_ROWS), [3, 2, 1, 0])
def test_rref_kernel_rank_factors_and_pseudo_inverse_share_one_reduction(m, order):
    # whichever reads it first, the matrix's reduction of [m | I] is made
    # once, and reading it again changes no later result
    functions = [rref, kernel_basis, rank_factorization, pseudo_inverse]
    with mock.patch.object(linalg, "_pivot_on", wraps=linalg._pivot_on) as pivot_on:
        results = {i: functions[i](m) for i in order for _ in range(2)}
    assert pivot_on.call_count == 1
    for i, result in results.items():
        assert result == functions[i](RatMatrix(m.rows, m.cols, m.entries))


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
    assert len(basis) == m.cols - len(rref(m)[1])
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
    assert c.cols == len(rref(m)[1])


# -- pseudo-inverse -------------------------------------------------------

def test_pseudo_inverse_matches_known_values_on_trio_gram():
    from conftest import TRIO_PINV_ROWS

    assert pseudo_inverse(trio_gram()) == RatMatrix.from_rows(TRIO_PINV_ROWS)


def test_pseudo_inverse_of_nonsingular_is_inverse():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    assert pseudo_inverse(m) == RatMatrix.from_rows(adjugate_inverse(m.to_rows()))


def test_pseudo_inverse_diag_2_0():
    m = RatMatrix.from_rows([[2, 0], [0, 0]])
    assert pseudo_inverse(m) == RatMatrix.from_rows([["1/2", 0], [0, 0]])


def _random_matrix(rng, rows, cols, rank_limit=None):
    if rank_limit is None:
        return RatMatrix(rows, cols, tuple(
            F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows * cols)))
    a = _random_matrix(rng, rows, rank_limit)
    b = _random_matrix(rng, rank_limit, cols)
    return a @ b


@given(st.integers(0, 5), st.integers(0, 5), st.booleans(), st.randoms(use_true_random=False))
def test_penrose_identities_hold_exactly(rows, cols, deficient, rng):
    limit = max(1, min(rows, cols) - 1) if deficient else None
    m = _random_matrix(rng, rows, cols, rank_limit=limit)
    plus = pseudo_inverse(m)
    assert (plus.rows, plus.cols) == (cols, rows)
    assert m @ plus @ m == m
    assert plus @ m @ plus == plus
    assert (m @ plus).transpose() == m @ plus
    assert (plus @ m).transpose() == plus @ m


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_pseudo_inverse_of_an_empty_matrix_is_its_empty_transpose(rows, cols):
    assert pseudo_inverse(RatMatrix.zeros(rows, cols)) == RatMatrix.zeros(cols, rows)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.randoms(use_true_random=False))
def test_pseudo_inverse_of_a_gram_like_matrix_at_every_nullity(shape, rng):
    # m = a a^T has the rank of a, so its nullity is n - width: from 0
    # (the inverse) to n (the zero matrix), with Gram-Schmidt over up to
    # n kernel vectors on each side in between.
    n, nullity = shape
    width = n - nullity
    while True:
        a = _random_matrix(rng, n, width) if width else RatMatrix.zeros(n, 1)
        if len(rref(a)[1]) == width:
            break
    m = a @ a.transpose()
    plus = pseudo_inverse(m)
    assert len(kernel_basis(m)) == nullity
    assert m @ plus @ m == m
    assert plus @ m @ plus == plus
    assert (m @ plus).transpose() == m @ plus
    assert (plus @ m).transpose() == plus @ m
    assert plus == RatMatrix.from_rows(symmetric_pinv(m))
    if not nullity:
        assert plus == RatMatrix.from_rows(adjugate_inverse(m.to_rows()))


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


@pytest.mark.parametrize("m", [
    RatMatrix.from_rows([[1, 1], [0, 1]]),
    RatMatrix.from_rows([["1/2", "1/3"], ["1/6", "1/2"]]),  # unequal over unequal denominators
    RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),
    RatMatrix.from_rows([[1], [0]]),
])
def test_smallest_eigenvalue_names_a_matrix_that_is_not_symmetric(m):
    with pytest.raises(ValueError, match="^smallest_eigenvalue needs a symmetric matrix$"):
        smallest_eigenvalue(m)


@given(product_operands())
@example((RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0), ()))
@example((RatMatrix.zeros(2, 0), RatMatrix.zeros(0, 0), ()))
@example((RatMatrix.from_rows([["-7/3", "1/2"], ["2", "-5/6"]]), RatMatrix.zeros(2, 0), ()))
def test_max_abs_is_the_largest_absolute_entry(operands):
    m = operands[0]
    expected = F(0)
    for x in m.entries:
        expected = max(expected, -x if x < 0 else x)
    assert m.max_abs() == expected
    assert type(m.max_abs()) is Fraction


def test_max_abs_compares_rows_over_distinct_denominators():
    assert RatMatrix.from_rows([["-7/3", "1/2"], ["2", "-5/6"]]).max_abs() == F(7, 3)
    assert RatMatrix.from_rows([["1/3", "-1/7"], ["-2/5", "0"]]).max_abs() == F(2, 5)
    assert RatMatrix.zeros(0, 0).max_abs() == 0


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

    def bad(matrix):
        if estimate == "overflow":
            raise OverflowError("estimate out of range")
        return [BAD_ESTIMATES[estimate](good, width)] * matrix.rows

    monkeypatch.setattr(linalg, "_float_spectrum", bad)
    calls = _counting_inertia(monkeypatch)
    assert smallest_eigenvalue(m) == good
    assert len(calls) > 3  # the bisection ran


@pytest.mark.parametrize("rows, estimate", [
    ([[F(1, 2**50), 0], [0, 1]], -1.0),  # eigenvalue in the first cell, (0, w]
    ([[1, 0], [0, 1]], 5.0),  # eigenvalue R, in the last cell
])
def test_smallest_eigenvalue_clamps_an_estimate_outside_the_grid(monkeypatch, rows, estimate):
    m = RatMatrix.from_rows(rows)
    monkeypatch.setattr(linalg, "_float_spectrum", lambda matrix: [estimate] * matrix.rows)
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


def test_smallest_eigenvalue_runs_the_float_spectrum_once(monkeypatch):
    # a singular matrix reads the estimates at index 0 and at its nullity,
    # both from one Jacobi run
    runs, spectrum = [], linalg._float_spectrum
    monkeypatch.setattr(linalg, "_float_spectrum", lambda m: runs.append(m) or spectrum(m))
    for g in (trio_gram(), RatMatrix.identity(3)):
        runs.clear()
        assert smallest_eigenvalue(g) == _oracle_cell(g, DEFAULT_TOL)
        assert runs == [g]


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
    monkeypatch.setattr(linalg, "_float_spectrum", lambda m: [float("nan")] * m.rows)
    assert [smallest_eigenvalue(g) for g in grams] == cells


@pytest.mark.parametrize("exponent", [48, 52])
def test_smallest_eigenvalue_between_the_float_levels_and_float_resolution(monkeypatch, exponent):
    # Cells of width 2^-48 and 2^-52 are finer than _FLOAT_LEVELS but
    # still resolved by the estimate: its cell at the final level checks
    # out, so the count at 0 and the two at the cell's ends answer.
    m, tol = trio_gram(), F(1, 2**exponent)
    calls = _counting_inertia(monkeypatch)
    assert smallest_eigenvalue(m, tol) == _oracle_cell(m, tol)
    assert len(calls) <= 3


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
    monkeypatch.setattr(linalg, "_float_spectrum", lambda matrix: [float("nan")] * matrix.rows)
    calls.clear()
    assert smallest_eigenvalue(m, tol) == cell
    assert len(calls) == steps + 1  # the count at 0, then one per halving


def test_smallest_eigenvalue_of_a_nonsingular_gram_matrix_takes_two_inertia_counts(monkeypatch):
    # the estimate's cell starts above 0, so a count of 0 at its lower end
    # proves the nullity 0 and no count is made at 0
    rng = random.Random(23)
    calls = _counting_inertia(monkeypatch)
    for n in range(2, 9):
        g = gram_matrix(random_independent_profile(rng, n=n, max_atoms=12))
        width = max(sum(map(abs, g.row(i)), F(0)) for i in range(n))
        while width > DEFAULT_TOL:
            width /= 2
        assert linalg._float_spectrum(g)[0] > width
        calls.clear()
        cell = smallest_eigenvalue(g)
        assert len(calls) <= 2
        assert cell == _oracle_cell(g, DEFAULT_TOL)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_smallest_eigenvalue_of_a_zero_matrix_is_refused_without_a_count(monkeypatch, n):
    calls = _counting_inertia(monkeypatch)
    with pytest.raises(ValueError, match="matrix has no nonzero eigenvalue"):
        smallest_eigenvalue(RatMatrix.zeros(n, n))
    assert calls == []


@pytest.mark.parametrize("entry", ["1", "-1", "3/7", "1/2", F(1, 2**60), 10**30, 10**400])
@pytest.mark.parametrize("estimate", [None, "nan"])
def test_smallest_eigenvalue_of_a_one_by_one_matrix(monkeypatch, entry, estimate):
    m = RatMatrix.from_rows([[entry]])
    if estimate == "nan":
        monkeypatch.setattr(linalg, "_float_spectrum", lambda matrix: [float("nan")] * matrix.rows)
    calls = _counting_inertia(monkeypatch)
    if rat(entry) < 0:
        with pytest.raises(ValueError, match="matrix has no nonzero eigenvalue"):
            smallest_eigenvalue(m)
        return
    lo, hi = smallest_eigenvalue(m)
    assert lo < rat(entry) <= hi and hi - lo <= DEFAULT_TOL
    assert (lo, hi) == _oracle_cell(m, DEFAULT_TOL)
    if estimate is None and entry != 10**400:  # float(10**400) overflows
        assert len(calls) <= 2


def _refuse_projectors(monkeypatch):
    def refuse(basis, size):
        raise AssertionError("a nonsingular matrix needs no projector")

    monkeypatch.setattr(linalg, "_projector", refuse)


def test_pseudo_inverse_of_a_nonsingular_gram_matrix_is_the_right_block(monkeypatch):
    _refuse_projectors(monkeypatch)
    rng = random.Random(29)
    for _ in range(12):
        g = gram_matrix(random_independent_profile(rng))
        expected = RatMatrix.from_rows(adjugate_inverse(g.to_rows()))
        assert pseudo_inverse(g) == expected
        assert (kernel_basis(g), pseudo_inverse(g)) == ([], expected)


@pytest.mark.parametrize("rows", [
    [[1, 2], [3, 4], [5, 7]],  # 3x2, full column rank
    [[1, 0, "1/2"], [0, 1, 3]],  # 2x3, full row rank
    [["1/2", "1/2"], ["1/2", "1/2"]],  # singular
])
def test_pseudo_inverse_of_a_singular_or_oblong_matrix_uses_the_projectors(monkeypatch, rows):
    sizes = []
    project = linalg._projector
    monkeypatch.setattr(linalg, "_projector",
                        lambda basis, size: sizes.append(size) or project(basis, size))
    m = RatMatrix.from_rows(rows)
    expected = symmetric_pinv(m) if m.is_square() else full_rank_pinv(m.to_rows())
    assert pseudo_inverse(m) == RatMatrix.from_rows(expected)
    assert sizes == [m.cols, m.rows]


def test_pseudo_inverse_of_singular_gram_matrices_uses_the_projectors(monkeypatch):
    calls = []
    project = linalg._projector
    monkeypatch.setattr(linalg, "_projector",
                        lambda basis, size: calls.append(basis) or project(basis, size))
    rng = random.Random(31)
    for _ in range(6):
        g = gram_matrix(random_profile(rng, force_dependent=True))
        calls.clear()
        assert pseudo_inverse(g) == RatMatrix.from_rows(symmetric_pinv(g))
        assert len(calls) == 2 and all(calls)


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


# The canonical spelling, written out here rather than taken from the
# package: digits without leading zeros, a minus sign only, lowest terms,
# no "/1" and no "-0".
CANONICAL_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def is_canonical(text):
    match = CANONICAL_RATIONAL.fullmatch(text)
    if match is None or text == "-0":
        return False
    num, den = match.groups()
    return den is None or (den != "1" and math.gcd(int(num), int(den)) == 1)


@st.composite
def rational_spellings(draw):
    """Strings ``rat`` accepts, canonical or not."""
    digits = st.sampled_from("0123456789")
    def number(min_size):
        return "".join(draw(st.lists(digits, min_size=min_size, max_size=5)))
    text = draw(st.sampled_from(["", "", "", "-", "+"])) + number(1)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["/", "/", "/", " / "]))
        text += draw(st.sampled_from("123456789")) + number(0)
    space = st.sampled_from(["", "", "", "", " ", "\t"])
    return draw(space) + text + draw(space)


@given(rational_spellings())
@example("2/6")
@example(" 1/3")
@example("+1")
@example("-0")
@example("007")
@example("4/1")
@example("0/5")
@example("-3/4")
def test_fmt_writes_back_exactly_the_canonical_spellings(text):
    assert (linalg.fmt(rat(text)) == text) == is_canonical(text) == linalg._read(text)[1]


@pytest.mark.parametrize("value, text", [
    (0, "0"), (F(0), "0"), (F(-0), "0"), (7, "7"), (-7, "-7"), (F(-7), "-7"),
    (F(-3, 4), "-3/4"),
    pytest.param(10**5000, "1" + "0" * 5000, id="long"),
    pytest.param(-(10**5000) - 1, "-1" + "0" * 4999 + "1", id="long-negative"),
])
def test_fmt_writes_ints_zero_and_long_integers(value, text):
    assert linalg.fmt(value) == text


@pytest.mark.parametrize("call, error, message", [
    (lambda: RatMatrix(-1, 0, ()), ValueError, r"^matrix dimensions must be nonnegative$"),
    (lambda: RatMatrix(2, 2, (F(1),)), ValueError, r"^shape 2x2 needs 4 entries, got 1$"),
    (lambda: RatMatrix.from_rows([[1, 2], [3]]), ValueError, r"^rows have inconsistent lengths$"),
    (lambda: RatMatrix.identity(2)[2, 0], IndexError, r"^index \(2, 0\) out of range for 2x2$"),
    (lambda: RatMatrix.zeros(2, 2) + RatMatrix.zeros(2, 3), ValueError, r"^shape mismatch: 2x2 vs 2x3$"),
    (lambda: smallest_eigenvalue(RatMatrix.identity(2), 0), ValueError, r"^tolerance must be positive$"),
], ids=["negative_size", "entry_count", "ragged_rows", "index", "shape", "tolerance"])
def test_matrix_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_str_right_justifies_each_column_two_spaces_apart():
    assert str(RatMatrix.from_rows([[1, "-1/2"], [10, 0]])) == " 1  -1/2\n10     0"
