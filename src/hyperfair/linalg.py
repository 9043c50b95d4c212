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
one positive denominator per row, in lowest terms); a matrix's own are
built once, as :attr:`RatMatrix.int_rows`, and only read.  ``_pivot_on``
is the package's one column-pivot loop on integer rows, of the
reduction of ``[m | I]`` (Gauss-Jordan) and of
:func:`hyperfair.simplex.certified_solve`'s certificate (forward
elimination); only the inertia count has its own, Bareiss.
``_products`` is its one exact sum of products.  A matrix's one
reduction of ``[m | I]`` is built once too, as
:attr:`RatMatrix.reduction`, and :func:`rref`, :func:`kernel_basis`,
:func:`rank_factorization` and :func:`pseudo_inverse` all read it, so
``hyperfair gram`` reduces G once: its right block gives a
{1}-inverse ``X``, and the pseudo-inverse is ``P_row X P_col``, with
the projectors onto the complements of the right and the left kernel
built by exact Gram-Schmidt.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Rational = Fraction

_RAT_RE = re.compile(r"\s*([+-]?[0-9]+)(?: */ *([1-9][0-9]*))?\s*")


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"-3/4"`` to a Fraction.

    A string is an optional sign and an integer, optionally followed by
    ``/`` and a denominator that does not start with ``0``, both in the
    ASCII digits ``0``-``9`` (a digit of any other script is refused, on
    every Python version whatever its Unicode tables hold), with
    whitespace allowed around the whole and spaces (no other
    whitespace, on every Python version) around the slash.  One regex,
    ``_RAT_RE``, matches the whole string and captures the numerator
    and the denominator, and ``int`` reads each.  An integer with more
    digits than Python's limit on converting strings to integers
    (``sys.get_int_max_str_digits()``, 4300 by default, 0 for none)
    raises ``ValueError`` with a message of this module that names its
    digit count and the limit, the same on every Python version.  A
    string that :func:`fmt` writes is read by :func:`_read` without the
    regex, to the same value.

    Floats and decimal strings are rejected: they have no place in an
    exact pipeline, and accepting them would hide rounding at the door.
    """
    if isinstance(value, str):
        return _read(value)[0]
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an exact rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")


def _read(text: str) -> tuple[Fraction, bool]:
    """``(rat(text), fmt(rat(text)) == text)``, the package's one reader of number strings.

    A string that :func:`fmt` writes, ``str(n)`` or ``str(n) + "/" +
    str(d)`` with ``d > 1`` and ``n / d`` in lowest terms, is read by its
    two integers alone; any other goes to ``_RAT_RE``.
    """
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:  # not two integers, or past the digit limit
        pass
    else:
        if str(n) == num and (not slash or d > 1 and str(d) == den):
            value = Fraction(n, d)
            if value.denominator == d:  # in lowest terms
                return value, True
    match = _RAT_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"expected an integer or 'num/den' string, got {text!r}")
    num, den = match.groups()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    for part, digits in (("numerator" if den else "integer", num.lstrip("+-")), ("denominator", den or "")):
        if 0 < limit < len(digits):
            raise ValueError(f"{part} has {len(digits)} digits, more than Python's limit of {limit} "
                             "on integer strings")
    return Fraction(int(num), int(den)) if den else Fraction(int(num)), False


def fmt(value: Fraction) -> str:
    """Canonical string form: ``"num/den"`` in lowest terms, or ``"num"``.

    That is ``str(value)`` of a Fraction or an int.  An integer longer
    than the interpreter's limit on int-to-str digits (4300 by default)
    is written by :mod:`decimal`, which has no such limit.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


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

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row's integer numerators over its least common denominator,
        built once per matrix and shared by every reader, so read-only."""
        return tuple((tuple(v), d) for v, d in (_to_row(self.row(i)) for i in range(self.rows)))

    @cached_property
    def reduction(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...],
                                 tuple[tuple[int, ...], ...]]:
        """The one row reduction of ``[m | I]``: its integer rows, ``m``'s pivot
        columns and the right kernel's primitive integer basis, built once per
        matrix and shared by :func:`rref`, :func:`kernel_basis`,
        :func:`rank_factorization` and :func:`pseudo_inverse`, so read-only.

        Only the columns of ``m`` are pivoted, so the left block is
        ``rref(m)`` and the right block is the row operations ``E`` with
        ``E m = rref(m)``.  The rows past the pivots are zero in the left
        block, and their right blocks span the left kernel of ``m``.
        """
        n = self.rows
        work = [([*v, *(d if j == i else 0 for j in range(n))], d)
                for i, (v, d) in enumerate(self.int_rows)]
        pivots = _pivot_on(work, range(self.cols))
        kernel = _right_kernel(work, pivots, self.cols)
        return tuple((tuple(v), d) for v, d in work), tuple(pivots), tuple(map(tuple, kernel))

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
        return _products(self.int_rows, _columns(other))

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return (self @ RatMatrix(len(v), 1, tuple(v))).entries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and _symmetric([self.row(i) for i in range(self.rows)])

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(self.row(i), Fraction(0)) for i in range(self.rows))

    def max_abs(self) -> Fraction:
        """The largest absolute entry, 0 for an empty matrix; from :attr:`int_rows`."""
        worst, d = _least([(0, 1), *((-max(map(abs, v), default=0), d) for v, d in self.int_rows)])
        return Fraction(-worst, d)

    def __str__(self) -> str:
        return _grid([[fmt(x) for x in self.row(i)] for i in range(self.rows)])

    def _same_shape(self, other: RatMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _grid(cells: Sequence[Sequence[str]]) -> str:
    """Rows of strings laid out as right-justified columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


# An integer row: numerators ``v`` over one positive denominator ``d``.
_Row = tuple[list[int], int]


def _to_row(values: Sequence[Fraction]) -> _Row:
    pairs = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in pairs])
    return [x * (den // d) for x, d in pairs], den


def _symmetric(rows: Sequence[Sequence]) -> bool:
    """Whether the square array ``rows`` equals its transpose."""
    return all(r[j] == rows[j][i] for i, r in enumerate(rows) for j in range(i))


def _columns(m: RatMatrix) -> list[_Row]:
    """:func:`_to_row` of each column of ``m``."""
    return [_to_row(m.entries[j::m.cols]) for j in range(m.cols)]


def _ratio_row(pairs: Sequence[tuple[int, int]]) -> _Row:
    """:func:`_to_row` of the rationals ``num / den`` (``den > 0``), from the pairs."""
    reduced = [(x // g, d // g) for x, d in pairs for g in (math.gcd(x, d),)]
    den = math.lcm(*(d for _, d in reduced))
    return [x * (den // d) for x, d in reduced], den


def _least(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The first least of the rationals ``num / den`` (``den > 0``), by cross-multiplication."""
    return functools.reduce(lambda a, b: b if b[0] * a[1] < a[0] * b[1] else a, pairs)


def _products(rows: Sequence[_Row], cols: Sequence[_Row]) -> RatMatrix:
    """Every ``rows[i] . cols[j]``: one integer dot product and one Fraction each."""
    return RatMatrix(len(rows), len(cols), tuple(
        Fraction(sum(map(operator.mul, v, u)), d * e) for v, d in rows for u, e in cols
    ))


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


def _pivot_on(rows: list[_Row], columns: Sequence[int], below: bool = False) -> list[int]:
    """Pivot on each of ``columns`` in the first row not yet pivoted that is
    nonzero there, swapped up to the next place and made the unit row at
    that column, which is cleared from the other rows; returns the columns
    pivoted.  With ``below``, a column is cleared below its pivot row only
    (forward elimination), and the pivoted rows end upper triangular, not
    reduced."""
    pivots: list[int] = []
    for c in columns:
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][0][c] != 0), None)
        if pivot_row is not None:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            rows[r] = unit = _unit_at(rows[r][0], c)
            support = _support(unit[0])
            for i in range(r + 1 if below else 0, len(rows)):
                if i != r and rows[i][0][c] != 0:
                    rows[i] = _eliminate(rows[i], unit, c, support)
            pivots.append(c)
    return pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    First nonzero entry in each column is taken as pivot, which keeps
    the output deterministic; with exact arithmetic there is no
    numerical reason to prefer any other choice.
    """
    work, pivots, _ = m.reduction
    flat = tuple(Fraction(x, d) for v, d in work for x in v[:m.cols])
    return RatMatrix(m.rows, m.cols, flat), pivots


def _primitive(v: Sequence[int]) -> list[int]:
    """The integer vector ``v`` divided by its content, first nonzero entry positive."""
    g = math.gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return [x // g for x in v]


def _right_kernel(work: list[_Row], pivots: list[int], w: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Free column ``j`` gives 1 at ``j`` and minus ``rref(m)``'s column ``j``
    at the pivot columns, scaled by the pivot rows' common denominator.
    """
    den = math.lcm(*(d for _, d in work[:len(pivots)]))
    kernel = []
    for j in sorted(set(range(w)).difference(pivots)):
        x = [0] * w
        x[j] = den
        for (v, d), p in zip(work, pivots):
            x[p] = -v[j] * (den // d)
        kernel.append(_primitive(x))
    return kernel


def _projector(basis: Sequence[Sequence[int]], size: int) -> tuple[list[list[int]], int]:
    """The orthogonal projector onto the complement of the span of ``basis``,
    as integer numerators over one denominator.

    Exact Gram-Schmidt makes the basis orthogonal, vector by vector on
    integers; then the projector is ``I`` minus ``q q' / (q' q)`` for
    every orthogonal ``q``.
    """
    qs: list[tuple[list[int], int]] = []
    for k in basis:
        den = math.lcm(*(nq for _, nq in qs))
        u = [den * x for x in k]
        for q, nq in qs:
            f = den // nq * sum(map(operator.mul, k, q))
            u = [a - f * b for a, b in zip(u, q)]
        u = _primitive(u)
        qs.append((u, sum(x * x for x in u)))
    den = math.lcm(*(nq for _, nq in qs))
    proj = [[den if a == b else 0 for b in range(size)] for a in range(size)]
    for q, nq in qs:
        f = den // nq
        for a, x in enumerate(q):
            if x:
                fx, row = f * x, proj[a]
                for b, y in enumerate(q):
                    row[b] -= fx * y
    return proj, den


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right null space of ``m``.

    Each basis vector has integer entries with content 1 and a positive
    leading entry, so equal subspaces produce identical bases and tests
    can compare them literally.  A full-rank matrix yields ``[]``.
    """
    return [tuple(map(Fraction, x)) for x in m.reduction[2]]


def rank_factorization(m: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Write ``m = c @ f`` with ``c`` of full column rank and ``f`` of full row rank.

    ``c`` collects the pivot columns of ``m`` in order; ``f`` is the
    nonzero part of the reduced row echelon form.  For the zero matrix
    the factors have a zero inner dimension and the product is still
    exact.
    """
    w = m.cols
    work, pivots, _ = m.reduction
    c = RatMatrix(m.rows, len(pivots), tuple(m[i, p] for i in range(m.rows) for p in pivots))
    f = RatMatrix(len(pivots), w, tuple(Fraction(x, d) for v, d in work[:len(pivots)] for x in v[:w]))
    return c, f


def pseudo_inverse(m: RatMatrix) -> RatMatrix:
    """Exact Moore-Penrose pseudo-inverse ``P_row X P_col``.

    The reduction of ``[m | I]`` gives a {1}-inverse ``X`` of ``m`` (row
    ``pivots[k]`` is row ``k`` of the right block, every other row is
    zero), the right kernel from the left block and the left kernel
    from the right block of the rows that are zero in the left block.
    ``X m`` has row ``pivots[k]`` equal to row ``k`` of ``rref(m)``, so
    ``m X m`` is the rank factorization's ``c f = m``.  Exact
    Gram-Schmidt over each kernel gives the orthogonal projectors
    ``P_row = m+ m`` and ``P_col = m m+`` onto their complements, and
    ``m+ = P_row X P_col`` (Penrose 1955; Ben-Israel and Greville,
    *Generalized Inverses*, section 1.5).  Only the pivot rows of ``X``
    are nonzero, so each entry of the product is a dot product of
    length ``len(pivots)``.  The formula holds for every shape and
    rank.  For a nonsingular ``m`` both kernels are empty, so the
    projectors are ``I`` and ``m+`` is the right block ``X = m^-1`` as
    it stands, with no Gram-Schmidt and no product.  The result is
    exact and satisfies the four Penrose identities with equality, not
    approximately.
    """
    work, pivots, right = m.reduction
    w, r = m.cols, len(pivots)
    if r == len(work) == w:
        return RatMatrix(w, w, tuple(Fraction(x, d) for v, d in work for x in v[w:]))
    p_row, d_row = _projector(right, w)
    left = [_primitive(v[w:]) for v, _ in work[r:]]
    p_col, d_col = _projector(left, len(work))
    e = work[:r]
    den = math.lcm(*(d for _, d in e))
    # E P_col on integers over den * d_col; P_col is symmetric, so its rows are its columns
    ep = [[den // d * sum(map(operator.mul, v[w:], col)) for col in p_col] for v, d in e]
    cols = [([row[b] for row in ep], den * d_col) for b in range(len(work))]
    return _products([([row[p] for p in pivots], d_row) for row in p_row], cols)


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


def _float_spectrum(m: RatMatrix) -> list[float]:
    """Float estimates of the eigenvalues of the symmetric ``m``, in ascending order.

    Cyclic Jacobi rotations on float copies of the entries, stopped
    when the off-diagonal part is negligible or after
    ``_JACOBI_SWEEPS`` sweeps.  The results are guesses with no
    guarantee: they may be inaccurate or not finite, and ``float`` raises
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
    return sorted(a[i][i] for i in range(n))


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

    Every end is a multiple of ``w``, so each count is the inertia of
    an integer matrix, ``m``'s numerators over one denominator times a
    power of two less a multiple of the row-sum bound on the diagonal.
    One run of :func:`_float_spectrum` estimates every eigenvalue.  The
    smallest estimate picks the candidate ``j``, and two exact inertia
    counts at the cell's ends certify it: a count of 0 at a lower end
    above 0 proves the nullity 0, so the count at 0 is made only when
    that end is 0 or counts more (a singular matrix or a bad estimate),
    and then the estimate of the eigenvalue past the nullity, from the
    same run, picks the cell.  No
    point is counted twice.  A ``tol`` below about ``2^-44`` of the row
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
    flat, den = _to_row(m.entries)
    scaled = [flat[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
    if not (m.is_square() and _symmetric(scaled)):
        raise ValueError("smallest_eigenvalue needs a symmetric matrix")
    # Points are counted in units of R / 2^steps, R = bound / den the
    # largest absolute row sum: the least steps that makes a unit <= tol.
    bound = max((sum(map(abs, r)) for r in scaled), default=0)
    if bound == 0:
        raise ValueError("matrix has no nonzero eigenvalue")
    steps = (-(-bound * tol.denominator // (den * tol.numerator)) - 1).bit_length()
    top = 1 << steps
    counts: dict[int, int] = {}

    def at_most(t: int) -> int:
        # 2^steps * den * (m - (t units) I), divided by what its two terms share
        if t not in counts:
            g = math.gcd(t * bound, top)
            scale, shift = top // g, t * bound // g
            neg, zero = _inertia([[scale * x - (shift if i == j else 0) for j, x in enumerate(r)]
                                  for i, r in enumerate(scaled)])
            counts[t] = neg + zero
        return counts[t]

    try:  # each estimate as an integer ratio, or None where it is not finite
        estimates = [x.as_integer_ratio() if math.isfinite(x) else None for x in _float_spectrum(m)]
    except OverflowError:  # an entry beyond float range
        estimates = [None] * m.rows

    def cell(guess: tuple[int, int], level: int) -> int:
        # the lower end, in units, of the guess's cell among the 2^level cells
        a, b = guess
        j = -(-(a * den << level) // (b * bound)) - 1
        return min(max(j, 0), (1 << level) - 1) << (steps - level)

    # A count of 0 at the lower end of the estimate's cell, above 0, proves
    # the nullity 0; only otherwise is it counted at 0.
    guess = estimates[0]
    t = cell(guess, steps) if guess else 0
    counts[0] = nullity = 0 if t and at_most(t) == 0 else at_most(0)
    if nullity == m.rows:
        raise ValueError("matrix has no nonzero eigenvalue")
    if nullity and guess:
        guess = estimates[nullity]
    lo, hi = 0, top
    # The estimate's cell at level ``steps``, else at the finest level a
    # float resolves, from which the halving goes on down.
    for level in dict.fromkeys((steps, min(steps, _FLOAT_LEVELS))) if guess else ():
        t, span = cell(guess, level), 1 << (steps - level)
        if at_most(t) == nullity and at_most(t + span) > nullity:
            lo, hi = t, t + span
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid) > nullity:
            hi = mid
        else:
            lo = mid
    return Fraction(lo * bound, den << steps), Fraction(hi * bound, den << steps)
