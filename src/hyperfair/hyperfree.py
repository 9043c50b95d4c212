"""Goal matrices, admissible margins, and exact stochastic factors.

A division plan is encoded by a target point ``p`` (one share per
player, positive, summing to 1), a goal matrix ``K`` whose rows sum to
zero, and a margin ``delta >= 0``; the matrix ``P + delta K`` (rows of
``P`` all equal ``p``) lists the value player ``i`` should assign to
player ``j``'s piece, and a realizable plan's is a
:class:`SharingMatrix`.  Whether such a plan is realizable with
measures whose Gram matrix is ``G`` hinges on two things: ``K`` must
be proper (compatible with every linear relation among the measures),
and ``delta`` must be small enough that ``G^+ (P + delta K)`` stays
entrywise nonnegative.  This module computes the relevant bounds (the
sharp one, :func:`factor_delta_bound`, and the coarser
:func:`delta_bound`), an eigenvalue-based lower estimate of them, and
the stochastic factor itself, all in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import DEFAULT_TOL, RatMatrix, _least, _to_row, fmt, kernel_basis, rat, smallest_eigenvalue


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "_name", name)

    def __repr__(self) -> str:
        return self._name


#: Returned by the margin bounds when no finite margin constraint exists.
UNBOUNDED = _Sentinel("UNBOUNDED")
#: Used where a margin exists but is not pinned down by the problem.
UNCONSTRAINED = _Sentinel("UNCONSTRAINED")


class ImproperMatrixError(ValueError):
    """The goal matrix is incompatible with the measure relations."""


class DeltaTooLargeError(ValueError):
    """The requested margin drives the stochastic factor negative."""


@dataclass(frozen=True)
class TargetPoint:
    """Strictly positive shares, one per player, summing to exactly 1."""

    shares: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError("need at least one share")
        if any(s <= 0 for s in self.shares):
            raise ValueError("every share must be strictly positive")
        total = sum(self.shares, Fraction(0))
        if total != 1:
            raise ValueError(f"shares must sum to 1, got {fmt(total)}")

    @staticmethod
    def make(shares: Sequence[int | str | Fraction]) -> TargetPoint:
        return TargetPoint(tuple(rat(s) for s in shares))

    @staticmethod
    def uniform(n: int) -> TargetPoint:
        return TargetPoint(tuple(Fraction(1, n) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.shares)

    def as_matrix(self) -> RatMatrix:
        """The n x n matrix with every row equal to the share vector."""
        n = self.n
        return RatMatrix(n, n, tuple(self.shares[j] for _ in range(n) for j in range(n)))


@dataclass(frozen=True)
class GoalMatrix:
    """Square direction matrix with every row summing to exactly zero."""

    mat: RatMatrix

    def __post_init__(self) -> None:
        if not self.mat.is_square():
            raise ValueError("goal matrix must be square")
        bad = [i for i, (v, _) in enumerate(self.mat.int_rows) if sum(v)]
        if bad:
            raise ValueError(f"goal matrix rows must sum to 0; rows {bad} do not")

    @staticmethod
    def make(rows: Sequence[Sequence[int | str | Fraction]]) -> GoalMatrix:
        return GoalMatrix(RatMatrix.from_rows(rows))

    @staticmethod
    def zero(n: int) -> GoalMatrix:
        return GoalMatrix(RatMatrix.zeros(n, n))

    @property
    def n(self) -> int:
        return self.mat.rows

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.mat.entries)


@dataclass(frozen=True)
class SharingMatrix:
    """Row-stochastic matrix of cross-valuations, entries in [0, 1]: a realizable
    plan's ``P + delta K``, or what :func:`hyperfair.verify.sharing_matrix` finds."""

    mat: RatMatrix

    def __post_init__(self) -> None:
        if not self.mat.is_square():
            raise ValueError("sharing matrix must be square")
        rows = self.mat.int_rows
        if any(x < 0 for v, _ in rows for x in v):
            raise ValueError("sharing matrix entries must be nonnegative")
        bad = [i for i, (v, d) in enumerate(rows) if sum(v) != d]
        if bad:
            raise ValueError(f"sharing matrix rows must sum to 1; rows {bad} do not")

    @property
    def n(self) -> int:
        return self.mat.rows

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.mat[key]


@dataclass(frozen=True)
class PropernessReport:
    """Outcome of :func:`is_proper` with the violations spelled out."""

    ok: bool
    bad_rows: tuple[int, ...] = ()
    bad_pairs: tuple[tuple[int, int], ...] = ()  # (relation index, column)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class HyperFreeCertificate:
    """Margin, stochastic factor, and the realized target matrix."""

    delta: Fraction
    factor: RatMatrix
    target: RatMatrix


def target_matrix(p: TargetPoint, k: GoalMatrix, delta: Fraction) -> RatMatrix:
    if p.n != k.n:
        raise ValueError("target point and goal matrix sizes differ")
    return factor_matrix(k.mat, p, rat(delta))


def is_proper(k: GoalMatrix | RatMatrix,
              relations: Sequence[Sequence[Fraction]]) -> PropernessReport:
    """Check that a goal matrix is compatible with the measure relations.

    Proper means: every row sums to zero, and every relation vector
    annihilates every column, that is ``L @ K`` is zero for the matrix
    ``L`` whose rows are the relations.  The report lists offending
    rows and (relation, column) pairs; ``GoalMatrix`` inputs satisfy the
    row half by construction and are not summed again.
    """
    mat = k.mat if isinstance(k, GoalMatrix) else k
    if not mat.is_square():
        raise ValueError("goal matrix must be square")
    n = mat.rows
    bad_rows = () if isinstance(k, GoalMatrix) else tuple(i for i, (v, _) in enumerate(mat.int_rows) if sum(v))
    for a, lam in enumerate(relations):
        if len(lam) != n:
            raise ValueError(f"relation {a} has length {len(lam)}, expected {n}")
    bad_pairs = ()
    if relations:  # no relation, no product
        lam_k = RatMatrix(len(relations), n, tuple(x for lam in relations for x in lam)) @ mat
        bad_pairs = tuple((a, j) for a in range(lam_k.rows) for j in range(n) if lam_k[a, j] != 0)
    return PropernessReport(not bad_rows and not bad_pairs, bad_rows, bad_pairs)


def delta_bound(g_plus: RatMatrix, k: GoalMatrix, p: TargetPoint):
    """Largest margin certified by the pseudo-inverse route.

    Returns ``min(p) / max |(g_plus @ K)_{ij}|`` as an exact Fraction,
    or :data:`UNBOUNDED` when ``g_plus @ K`` is the zero matrix (then
    no entry of the factor ever turns negative).  The bound is
    sufficient, not necessary.
    """
    if g_plus.rows != k.n or p.n != k.n:
        raise ValueError("dimension mismatch between pseudo-inverse, goal matrix, and target")
    return _delta_bound_of(g_plus @ k.mat, p)


def _delta_bound_of(gk: RatMatrix, p: TargetPoint):
    """:func:`delta_bound` from ``gk = g_plus @ K``, by cross-multiplication."""
    worst, e = _least([(0, 1), *((-abs(x.numerator), x.denominator) for x in gk.entries)])
    if worst == 0:
        return UNBOUNDED
    least, d = _least((s.numerator, s.denominator) for s in p.shares)
    return Fraction(least * e, -worst * d)


def factor_delta_bound(gk: RatMatrix, p: TargetPoint):
    """Largest margin at which the stochastic factor stays nonnegative.

    ``gk`` is ``g_plus @ K``.  Returns the exact
    ``min p_j / -gk[i][j]`` over the entries with ``gk[i][j] < 0``, or
    :data:`UNBOUNDED` when no entry is negative; only the least, found by
    cross-multiplication, is divided out.

    The factor is ``S = g_plus @ (P + delta K) = g_plus @ P + delta gk``,
    and ``g_plus @ P = P``: the Gram matrix ``g`` is symmetric and
    row-stochastic, so ``g @ 1 = 1`` puts ``1`` in the range of ``g``;
    for symmetric ``g`` the product ``g_plus @ g`` is the orthogonal
    projector onto that range, so ``g_plus @ 1 = g_plus @ g @ 1 = 1``,
    and every column of ``P`` is a multiple of ``1``.  Entry ``(i, j)``
    of ``S`` is therefore ``p_j + delta * gk[i][j]``, which is
    nonnegative for every ``delta >= 0`` when ``gk[i][j] >= 0`` and
    exactly up to ``p_j / -gk[i][j]`` otherwise.  So ``S >= 0`` exactly
    when ``delta`` is at most this bound; it is never below
    :func:`delta_bound`, and unlike that bound it is sharp.  Whether
    ``S`` also reproduces the target is the separate properness
    question that :func:`stochastic_factor` checks.
    """
    if not gk.is_square() or p.n != gk.rows:
        raise ValueError("dimension mismatch between g_plus @ K and the target")
    limits = [(s.numerator * x.denominator, -x.numerator * s.denominator)
              for x, s in zip(gk.entries, p.shares * gk.rows) if x.numerator < 0]
    return Fraction(*_least(limits)) if limits else UNBOUNDED


def spectral_delta_bound(g: RatMatrix, k: GoalMatrix, p: TargetPoint,
                         tol: Fraction | int | str = DEFAULT_TOL) -> tuple[Fraction, Fraction]:
    """Eigenvalue-based enclosure of a margin that is always admissible.

    For independent measures (nonsingular ``g``) the smallest
    eigenvalue of ``g`` is its distance to the singular matrices in the
    spectral norm, and ``min(p) * that / (n * max |k_ij|)`` is a valid
    margin.  Returns a rational enclosure of that quantity obtained
    from :func:`hyperfair.linalg.smallest_eigenvalue` at tolerance
    ``tol``.  A singular ``g`` is refused by its
    :func:`hyperfair.linalg.kernel_basis`, which reads ``g``'s one
    reduction, so a ``g`` whose kernel is already known costs nothing
    more.  The enclosed margin never exceeds :func:`delta_bound`; the
    upper end can, by less than the enclosure's width, when the
    eigenvalue lies in the first cell ``(0, w]``.
    """
    if not g.is_square() or g.rows != k.n or p.n != k.n:
        raise ValueError("dimension mismatch")
    worst = k.mat.max_abs()
    if worst == 0:
        raise ValueError("goal matrix must be nonzero")
    if kernel_basis(g):
        raise ValueError("spectral bound needs independent measures (nonsingular matrix)")
    lo, hi = smallest_eigenvalue(g, tol)
    scale = min(p.shares) / (Fraction(k.n) * worst)
    return scale * lo, scale * hi


def factor_matrix(gk: RatMatrix, p: TargetPoint, delta: Fraction) -> RatMatrix:
    """The stochastic factor ``P + delta gk`` for ``gk = G^+ K``, built from integers.

    On ``p = pv / pd``, ``delta = a / b`` and ``gk``'s integer row
    ``v / d``, entry ``(i, j)`` is ``(pv_j b d + a v_j pd) / (pd b d)``.
    """
    (pv, pd), (a, b) = _to_row(p.shares), delta.as_integer_ratio()
    return RatMatrix(gk.rows, gk.cols, tuple(
        Fraction(x * b * d + a * pd * y, pd * b * d) for v, d in gk.int_rows for x, y in zip(pv, v)
    ))


def stochastic_factor(g: RatMatrix, g_plus: RatMatrix, k: GoalMatrix,
                      p: TargetPoint, delta: Fraction | int | str) -> HyperFreeCertificate:
    """Row-stochastic ``S`` with ``g @ S`` equal to ``P + delta K`` exactly.

    ``S`` is ``g_plus @ (P + delta K) = P + delta (g_plus @ K)``, as
    :func:`factor_delta_bound` shows.  Raises :class:`ImproperMatrixError`
    when ``S`` fails to reproduce the target (the goal matrix conflicts
    with the kernel of ``g``), and then :class:`DeltaTooLargeError` when
    ``delta`` exceeds :func:`factor_delta_bound`, where ``S`` turns negative.
    """
    delta = rat(delta)
    if delta < 0:
        raise ValueError("margin must be nonnegative")
    tgt = target_matrix(p, k, delta)
    gk = g_plus @ k.mat
    factor = factor_matrix(gk, p, delta)
    if (g @ factor) != tgt:
        raise ImproperMatrixError(
            "goal matrix is not compatible with the measure relations: "
            "the factored product cannot reproduce the target"
        )
    bound = factor_delta_bound(gk, p)
    if bound is not UNBOUNDED and delta > bound:
        raise DeltaTooLargeError(f"margin {fmt(delta)} drives the stochastic factor negative")
    return HyperFreeCertificate(delta, factor, tgt)


def necessary_condition_check(m: RatMatrix, delta: Fraction | int | str,
                              relations: Sequence[Sequence[Fraction]]) -> bool:
    """Audit a sharing matrix claimed to realize a uniform-target plan.

    Given a margin ``delta > 0`` and ``m``, which must pass
    :class:`SharingMatrix`'s checks, recover the direction
    ``K = (m - P) / delta`` against the uniform target and report
    whether it is proper.  Any realizable plan must pass.
    """
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("margin must be strictly positive")
    SharingMatrix(m)
    p = TargetPoint.uniform(m.rows)
    k = (m - p.as_matrix()) * (Fraction(1) / delta)
    return bool(is_proper(k, relations))
