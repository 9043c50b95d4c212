"""Exact dense linear algebra over the rationals.

Every matrix entry is a ``fractions.Fraction``; nothing in this module
ever rounds.  It provides the elimination kit used by the rest of the
package (reduced row echelon form, kernel bases, rank factorization,
the Moore-Penrose pseudo-inverse) and a rational enclosure of the
smallest (nonzero) eigenvalue of a symmetric positive-semidefinite
matrix, certified by exact inertia counts (Sylvester's law of
inertia).  Floats appear in one place only: a float estimate of that
eigenvalue picks the candidate cell of the enclosure, two exact
inertia counts certify it, and bisection on exact counts takes over
when they do not, so the enclosure is rigorous rather than floating
point.

Row reduction and products run on integer rows (int numerators over
one positive denominator per row, in lowest terms).  Their private
primitives are the package's one exact row reduction, used by
:func:`rref` and the simplex tableau (only the inertia count has its
own, Bareiss), and its one exact sum of products, ``RatMatrix.__matmul__``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

Rational = Fraction

_RAT_RE = re.compile(r"^\s*[+-]?\d+( */ *[1-9]\d*)?\s*$")


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"-3/4"`` to a Fraction.

    A string is an optional sign and an integer, optionally followed by
    ``/`` and a denominator that does not start with ``0``, with
    whitespace allowed around the whole and spaces (no other
    whitespace, on every Python version) around the slash.
    The common form, an optional ``-`` and ASCII digits only, is split
    on ``/`` and read with ``int``; every other string goes through
    ``_RAT_RE`` and ``Fraction(str)``.  Both paths accept the same
    strings with the same values and errors, and an integer longer
    than Python's string conversion limit (4300 digits by default)
    raises ``ValueError`` on either.

    Floats and decimal strings are rejected: they have no place in an
    exact pipeline, and accepting them would hide rounding at the door.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if _is_digits(num.removeprefix("-")):
            if not slash:
                return Fraction(int(num))
            if _is_digits(den) and den[0] != "0":
                return Fraction(int(num), int(den))
        if not _RAT_RE.match(value):
            raise ValueError(f"expected an integer or 'num/den' string, got {value!r}")
        return Fraction(value.replace(" ", ""))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an exact rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")


def fmt(value: Fraction) -> str:
    """Canonical string form: ``"num/den"`` in lowest terms, or ``"num"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RatMatrix:
    """Dense exact-rational matrix, stored row-major.

    Degenerate shapes (zero rows or zero columns) are legal; they show
    up naturally in rank factorizations of the zero matrix.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"shape {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> RatMatrix:
        data = [list(r) for r in rows]
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("rows have inconsistent lengths")
        return RatMatrix(len(data), width, tuple(rat(x) for r in data for x in r))

    @staticmethod
    def identity(n: int) -> RatMatrix:
        one, zero = Fraction(1), Fraction(0)
        return RatMatrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMatrix:
        return RatMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> RatMatrix:
        return RatMatrix(
            self.cols, self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return RatMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __mul__(self, scalar: int | Fraction) -> RatMatrix:
        c = rat(scalar)
        return RatMatrix(self.rows, self.cols, tuple(a * c for a in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        """Exact product: each entry is one dot product of two integer rows."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [_to_row(self.row(i)) for i in range(self.rows)]
        cols = [_to_row(other.entries[j::other.cols]) for j in range(other.cols)]
        return RatMatrix(self.rows, other.cols, tuple(
            Fraction(sum(map(operator.mul, v, u)), d * e) for v, d in rows for u, e in cols
        ))

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return (self @ RatMatrix(len(v), 1, tuple(v))).entries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(self.row(i), Fraction(0)) for i in range(self.rows))

    def max_abs(self) -> Fraction:
        return max((abs(e) for e in self.entries), default=Fraction(0))

    def __str__(self) -> str:
        cells = [[fmt(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max((len(cells[i][j]) for i in range(self.rows)), default=0) for j in range(self.cols)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)

    def _same_shape(self, other: RatMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def hstack(left: RatMatrix, right: RatMatrix) -> RatMatrix:
    if left.rows != right.rows:
        raise ValueError("hstack needs matching row counts")
    out = []
    for i in range(left.rows):
        out.extend(left.row(i))
        out.extend(right.row(i))
    return RatMatrix(left.rows, left.cols + right.cols, tuple(out))


# An integer row: numerators ``v`` over one positive denominator ``d``.
_Row = tuple[list[int], int]


def _to_row(values: Sequence[Fraction]) -> _Row:
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _lowest_terms(v: list[int], d: int) -> _Row:
    g = math.gcd(d, *v)
    if g > 1:
        return [x // g for x in v], d // g
    return v, d


def _unit_at(v: list[int], col: int) -> _Row:
    """The row ``v`` divided by its entry ``v[col]``, which must be nonzero."""
    e = v[col]
    if e < 0:
        v, e = [-x for x in v], -e
    return _lowest_terms(v, e)


def _support(v: list[int]) -> list[int]:
    """Indices of the nonzero entries of ``v``."""
    return [j for j, x in enumerate(v) if x]


def _eliminate(row: _Row, pivot_row: _Row, col: int, support: list[int]) -> _Row:
    """``row`` minus its ``col`` entry times ``pivot_row``, whose ``col`` entry is 1.

    ``support`` lists the nonzero columns of ``pivot_row``; only those
    entries of ``row`` change beyond the common scaling.
    """
    (v, d), (u, e) = row, pivot_row
    f = v[col]
    w = v.copy() if e == 1 else [e * x for x in v]
    for j in support:
        w[j] -= f * u[j]
    if d * e == 1:
        return w, 1
    return _lowest_terms(w, d * e)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    First nonzero entry in each column is taken as pivot, which keeps
    the output deterministic; with exact arithmetic there is no
    numerical reason to prefer any other choice.
    """
    work = [_to_row(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if work[i][0][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        work[r] = unit = _unit_at(work[r][0], c)
        support = _support(unit[0])
        for i, other in enumerate(work):
            if i != r and other[0][c] != 0:
                work[i] = _eliminate(other, unit, c, support)
        pivots.append(c)
    flat = tuple(Fraction(x, d) for v, d in work for x in v)
    return RatMatrix(m.rows, m.cols, flat), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def _canonical_kernel_vector(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # Scale so the first nonzero entry is +1, clear denominators, and
    # divide out the integer content.  The leading entry stays positive.
    lead = next(x for x in v if x != 0)
    scaled = [x / lead for x in v]
    den = reduce(math.lcm, (x.denominator for x in scaled), 1)
    ints = [int(x * den) for x in scaled]
    content = reduce(math.gcd, (abs(i) for i in ints))
    return tuple(Fraction(i // content) for i in ints)


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right null space of ``m``.

    Each basis vector has integer entries with content 1 and a positive
    leading entry, so equal subspaces produce identical bases and tests
    can compare them literally.  A full-rank matrix yields ``[]``.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, free]
        basis.append(_canonical_kernel_vector(v))
    return basis


def rank_factorization(m: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Write ``m = c @ f`` with ``c`` of full column rank and ``f`` of full row rank.

    ``c`` collects the pivot columns of ``m`` in order; ``f`` is the
    nonzero part of the reduced row echelon form.  For the zero matrix
    the factors have a zero inner dimension and the product is still
    exact.
    """
    red, pivots = rref(m)
    r = len(pivots)
    c = RatMatrix(m.rows, r, tuple(m[i, p] for i in range(m.rows) for p in pivots))
    f = RatMatrix(r, m.cols, tuple(red[i, j] for i in range(r) for j in range(m.cols)))
    return c, f


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square():
        raise ValueError("only square matrices have inverses")
    n = m.rows
    red, pivots = rref(hstack(m, RatMatrix.identity(n)))
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise ValueError("matrix is singular")
    return RatMatrix(n, n, tuple(red[i, n + j] for i in range(n) for j in range(n)))


def pseudo_inverse(m: RatMatrix) -> RatMatrix:
    """Exact Moore-Penrose pseudo-inverse via rank factorization.

    With ``m = c @ f`` as in :func:`rank_factorization`, the
    pseudo-inverse is ``f' (f f')^-1 (c' c)^-1 c'`` where the primes are
    transposes.  Both inner matrices are r x r and nonsingular, and
    ``c' m f' = (c' c)(f f')``, so one inverse gives the product
    ``f' (c' m f')^-1 c'``.  A nonsingular ``m`` (full rank and square)
    skips both products: its pseudo-inverse is ``inverse(m)``.  The
    result is exact and satisfies the four Penrose identities with
    equality, not approximately.
    """
    c, f = rank_factorization(m)
    if c.cols == 0:
        return RatMatrix.zeros(m.cols, m.rows)
    if c.cols == m.rows == m.cols:
        return inverse(m)
    ft, ct = f.transpose(), c.transpose()
    return ft @ inverse(ct @ m @ ft) @ ct




def _inertia(a: list[list[int]]) -> tuple[int, int]:
    """Numbers of negative and of zero eigenvalues of the symmetric integer matrix ``a``.

    Fraction-free symmetric elimination (Bareiss): after ``k`` steps the
    working block is the Schur complement times the ``k``-th leading
    principal minor, so every division is exact, and the ``k``-th LDL^T
    pivot is negative exactly when consecutive minors differ in sign.
    Each step is a congruence, so by Sylvester's law of inertia the
    counts are those of ``a``.  Only a nonzero diagonal entry is used as
    a pivot; when the whole remaining diagonal is zero but some
    ``a[i][j]`` is not, adding row and column ``j`` to row and column
    ``i`` (another congruence) makes ``a[i][i] = 2 a[i][j]`` nonzero.
    When the remaining block is zero, its size is the nullity.  ``a`` is
    consumed.
    """
    neg, prev = 0, 1
    while a:
        k = next((i for i, r in enumerate(a) if r[i]), None)
        if k is None:
            ij = next(((i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x), None)
            if ij is None:
                return neg, len(a)
            k, j = ij
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for r in a:
                r[k] += r[j]
        pivot_row = a.pop(k)
        pivot = pivot_row.pop(k)
        if (pivot < 0) != (prev < 0):
            neg += 1
        rest = []
        for r in a:
            f = r.pop(k)
            rest.append([(pivot * x - f * y) // prev for x, y in zip(r, pivot_row)])
        a, prev = rest, pivot
    return neg, 0


#: Default enclosure width for :func:`smallest_eigenvalue` and the
#: spectral margin bound built on it.
DEFAULT_TOL = Fraction(1, 2**40)

#: Sweep limit of the float estimate in :func:`smallest_eigenvalue`.
#: Jacobi converges quadratically, so a few sweeps reach float accuracy;
#: an estimate that falls short only costs the bisection fallback.
_JACOBI_SWEEPS = 8


#: Finest level of :func:`smallest_eigenvalue`'s dyadic grid on which a
#: float estimate picks the cell: a width of 2^-44 of the row-sum bound
#: leaves room for the estimate's rounding, about 2^-52 of it.
_FLOAT_LEVELS = 44


def _float_eigenvalue(m: RatMatrix, index: int) -> float:
    """Float estimate of the ``index``-th smallest eigenvalue of the symmetric ``m``.

    Cyclic Jacobi rotations on float copies of the entries, stopped
    when the off-diagonal part is negligible or after
    ``_JACOBI_SWEEPS`` sweeps.  The result is a guess with no
    guarantee: it may be inaccurate or not finite, and ``float`` raises
    ``OverflowError`` on an entry beyond float range.
    """
    n = m.rows
    a = [[float(x) for x in m.row(i)] for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    # off-diagonal norm at most 2^-55 of the whole: below float accuracy
    negligible = sum(x * x for r in a for x in r) * 2.0**-110
    for _ in range(_JACOBI_SWEEPS):
        if sum(a[p][q] * a[p][q] for p, q in pairs) <= negligible:
            break
        for p, q in pairs:
            apq = a[p][q]
            if apq == 0.0:
                continue
            # The rotation that zeroes a[p][q], in the stable form of
            # Rutishauser (Numerical Recipes, section 11.1).
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            tau = s / (1.0 + c)
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            for r in range(n):
                if r != p and r != q:
                    g, h = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = g - s * (h + g * tau)
                    a[r][q] = a[q][r] = h + s * (g - h * tau)
    return sorted(a[i][i] for i in range(n))[index]


def smallest_eigenvalue(m: RatMatrix, tol: Fraction | int | str = DEFAULT_TOL) -> tuple[Fraction, Fraction]:
    """Rational enclosure of the smallest nonzero eigenvalue of ``m``.

    ``m`` must be symmetric and is assumed positive-semidefinite, so
    its spectrum is real and nonnegative.  The eigenvalues at most
    ``sigma`` are counted from the inertia of ``m - sigma I``.  Starting
    from ``(0, largest absolute row sum]``, which holds every positive
    eigenvalue, halving the interval until its width is at most ``tol``
    (keeping the lower half when it holds an eigenvalue beyond the
    count at 0, the nullity, and the upper half otherwise) ends in one
    cell ``(j w, (j + 1) w]`` of a fixed dyadic grid: ``w`` is the row
    sum over ``2^k`` for the least ``k`` that makes ``w <= tol``.  The
    count is monotone in ``sigma``, so that cell is the only one whose
    lower end counts just the nullity and whose upper end counts more.

    A float estimate of the eigenvalue (:func:`_float_eigenvalue`)
    picks the candidate ``j``, and two exact inertia counts at the
    cell's ends certify it.  A ``tol`` below about ``2^-44`` of the row
    sum asks for a cell finer than the estimate resolves; when that
    cell fails, the estimate's cell at level ``_FLOAT_LEVELS`` is
    certified the same way and the halving runs from there, one count
    per level.  The floats only choose which cell to test: when the
    estimate is not finite, overflows, or lands in the wrong cell, the
    halving above runs on exact counts from ``(0, R]`` instead, and it
    returns the same cell.  No step of the certificate rounds, so the
    enclosure is rigorous.  For a nonsingular matrix this is the
    smallest eigenvalue outright.

    Returns ``(lo, hi)`` with ``lo < smallest nonzero eigenvalue <= hi``
    and ``hi - lo <= tol``; both ends are dyadic rationals.
    """
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not m.is_symmetric():
        raise ValueError("smallest_eigenvalue needs a symmetric matrix")
    den = reduce(math.lcm, (x.denominator for x in m.entries), 1)
    scaled = [[int(x * den) for x in m.row(i)] for i in range(m.rows)]

    def at_most(sigma: Fraction) -> int:
        # q * den * (m - sigma I) with sigma = p/q: integer, same inertia
        shift, q = sigma.numerator * den, sigma.denominator
        neg, zero = _inertia([[q * x - (shift if i == j else 0) for j, x in enumerate(r)]
                              for i, r in enumerate(scaled)])
        return neg + zero

    nullity = at_most(Fraction(0))
    if nullity == m.rows:
        raise ValueError("matrix has no nonzero eigenvalue")
    lo, hi = Fraction(0), max(sum(map(abs, m.row(i)), Fraction(0)) for i in range(m.rows))
    steps = (math.ceil(hi / tol) - 1).bit_length()  # least k with hi / 2^k <= tol
    try:
        estimate = Fraction(_float_eigenvalue(m, nullity))
    except (OverflowError, ValueError):
        estimate = None
    # The estimate's cell at level ``steps``, else at the finest level a
    # float resolves, from which the halving goes on down.
    levels = dict.fromkeys((steps, min(steps, _FLOAT_LEVELS))) if estimate is not None else {}
    for level in levels:
        width = hi / 2**level
        j = min(max(math.ceil(estimate / width) - 1, 0), 2**level - 1)
        cell = j * width, (j + 1) * width
        # at_most(0) is the nullity by definition
        if (j == 0 or at_most(cell[0]) == nullity) and at_most(cell[1]) > nullity:
            lo, hi = cell
            break
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if at_most(mid) > nullity:
            hi = mid
        else:
            lo = mid
    return lo, hi
