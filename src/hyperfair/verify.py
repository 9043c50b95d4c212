"""Audit partitions: sharing matrices and fairness predicates.

The sharing matrix of a partition lists, exactly, the value player
``i``'s measure assigns to player ``j``'s piece.  Every fairness
notion tested here is a statement about that matrix alone, and the
matrix is computed from the profile and the intervals alone, so the
audit is independent of how the partition was produced.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .hyperfree import UNCONSTRAINED, GoalMatrix, TargetPoint
from .linalg import RatMatrix
from .measures import MeasureProfile
from .partition import Partition


@dataclass(frozen=True)
class SharingMatrix:
    """Row-stochastic matrix of cross-valuations, entries in [0, 1]."""

    mat: RatMatrix

    def __post_init__(self) -> None:
        if not self.mat.is_square():
            raise ValueError("sharing matrix must be square")
        if any(e < 0 for e in self.mat.entries):
            raise ValueError("sharing matrix entries must be nonnegative")
        bad = [i for i, s in enumerate(self.mat.row_sums()) if s != 1]
        if bad:
            raise ValueError(f"sharing matrix rows must sum to 1; rows {bad} do not")

    @property
    def n(self) -> int:
        return self.mat.rows

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.mat[key]


@dataclass(frozen=True)
class FairnessReport:
    """Exact verdicts for one sharing matrix.

    ``hyper_envy_free`` and ``relation_satisfied`` are ``None`` when the
    matching optional inputs were not supplied.  ``hyper_delta`` is the
    recovered margin when the hyper check succeeds, or
    :data:`hyperfair.hyperfree.UNCONSTRAINED` for a zero goal matrix
    matched exactly at the target.
    """

    proportional: bool
    exact_division: bool
    equitable: bool
    envy_free: bool
    super_envy_free: bool
    rawlsian: Fraction
    hyper_envy_free: bool | None = None
    hyper_delta: Fraction | object | None = None
    relation_satisfied: bool | None = None


def sharing_matrix(profile: MeasureProfile, part: Partition) -> SharingMatrix:
    """Exact cross-valuation matrix of a partition.

    It is the product of the density values on the atoms with ``held``,
    where ``held[a][j]`` is the length of player ``j``'s pieces inside
    atom ``a``.  One bisect over the atom starts finds the first atom of
    each interval, which then walks right to its end.
    """
    if part.n != profile.n:
        raise ValueError(f"partition has {part.n} players, profile has {profile.n}")
    n, atoms = profile.n, profile.atoms
    starts = [iv.lo for iv in atoms]
    held = [[Fraction(0)] * n for _ in atoms]
    for j, pieces in enumerate(part.pieces):
        for iv in pieces:
            cursor, a = iv.lo, bisect_right(starts, iv.lo) - 1
            while cursor < iv.hi:
                end = min(iv.hi, atoms[a].hi)
                held[a][j] += end - cursor
                cursor, a = end, a + 1
    mat = profile.value_matrix() @ RatMatrix(len(atoms), n, tuple(x for row in held for x in row))
    return SharingMatrix(mat)


def rawlsian_distance(m: SharingMatrix | RatMatrix) -> Fraction:
    """Worst-off row deviation from the identity matrix.

    ``max_i sum_j |m_ij - [i == j]|``: zero exactly for the division in
    which everyone values their own piece at 1 and everyone else's at
    0, and growing as players are pushed away from that ideal.
    """
    mat = m.mat if isinstance(m, SharingMatrix) else m
    if not mat.is_square():
        raise ValueError("square matrix required")
    worst = Fraction(0)
    for i in range(mat.rows):
        dev = sum(
            (abs(mat[i, j] - (1 if i == j else 0)) for j in range(mat.cols)), Fraction(0)
        )
        worst = max(worst, dev)
    return worst


def _recover_margin(mat: RatMatrix, k: GoalMatrix, p: TargetPoint):
    """Solve ``m = P + delta K`` for a single positive delta, exactly."""
    diff = mat - p.as_matrix()
    if k.is_zero():
        if all(e == 0 for e in diff.entries):
            return True, UNCONSTRAINED
        return False, None
    delta = None
    for i in range(mat.rows):
        for j in range(mat.cols):
            if k.mat[i, j] == 0:
                if diff[i, j] != 0:
                    return False, None
                continue
            cand = diff[i, j] / k.mat[i, j]
            if delta is None:
                delta = cand
            elif cand != delta:
                return False, None
    if delta is not None and delta > 0:
        return True, delta
    return False, None


def check_fairness(m: SharingMatrix, k: GoalMatrix | None = None,
                   p: TargetPoint | None = None,
                   r=None) -> FairnessReport:
    """Evaluate every fairness predicate on a sharing matrix.

    ``k`` and ``p`` together enable the hyper check (does ``m`` equal
    ``P + delta K`` for a single margin ``delta > 0``); ``r`` and ``p``
    together enable the sign-pattern check.  All comparisons are exact.
    """
    n = m.n
    share = Fraction(1, n)
    mat = m.mat
    proportional = all(mat[i, i] >= share for i in range(n))
    exact_division = all(e == share for e in mat.entries)
    equitable = all(mat[i, i] == mat[0, 0] for i in range(n))
    envy_free = all(mat[i, i] >= mat[i, j] for i in range(n) for j in range(n))
    super_envy_free = all(
        mat[i, j] > share if i == j else mat[i, j] < share
        for i in range(n) for j in range(n)
    )

    hyper = hyper_delta = None
    if k is not None:
        if p is None:
            raise ValueError("the hyper check needs a target point alongside the goal matrix")
        if k.n != n or p.n != n:
            raise ValueError("goal matrix / target size must match the sharing matrix")
        hyper, hyper_delta = _recover_margin(mat, k, p)

    relation_ok = None
    if r is not None:
        if p is None:
            raise ValueError("the sign-pattern check needs a target point")
        if r.n != n or p.n != n:
            raise ValueError("relation matrix / target size must match the sharing matrix")
        relation_ok = all(
            r[i, j].matches(mat[i, j] - p.shares[j]) for i in range(n) for j in range(n)
        )

    return FairnessReport(
        proportional=proportional,
        exact_division=exact_division,
        equitable=equitable,
        envy_free=envy_free,
        super_envy_free=super_envy_free,
        rawlsian=rawlsian_distance(m),
        hyper_envy_free=hyper,
        hyper_delta=hyper_delta,
        relation_satisfied=relation_ok,
    )
