"""Audit partitions: sharing matrices and fairness predicates.

The sharing matrix of a partition lists, exactly, the value player
``i``'s measure assigns to player ``j``'s piece.  Every fairness
notion tested here is a statement about that matrix alone, and the
matrix is computed from the profile and the intervals alone, so the
audit is independent of how the partition was produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hyperfree import UNCONSTRAINED, GoalMatrix, SharingMatrix, TargetPoint
from .linalg import RatMatrix, _least, _products, _to_row
from .measures import MeasureProfile
from .partition import Partition


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
    where ``held[j][a]`` is the length of player ``j``'s pieces inside
    atom ``a``.  Player ``j``'s row of ``held`` is one integer row over
    the least common multiple of the atom ends' and ``j``'s piece ends'
    denominators.  One walk along the partition's ``records`` and the atoms
    compares their ends by cross-multiplication and adds each fragment's
    length to its cell; each entry is one integer dot product.
    """
    if part.n != profile.n:
        raise ValueError(f"partition has {part.n} players, profile has {profile.n}")
    atoms = profile.atoms
    ends = [iv.hi.as_integer_ratio() for iv in atoms]
    dens = [math.lcm(*(e for _, e in ends))] * profile.n
    for _, _, _, _, j, _, _, b, _, d in part.records:
        dens[j] = math.lcm(dens[j], b, d)
    held = [[0] * len(atoms) for _ in dens]
    a, x, y = 0, 0, 1  # the walk is at x/y, inside atom a
    for _, _, _, _, j, _, _, _, c, d in part.records:
        row, den = held[j], dens[j]
        while x != c or y != d:  # to the nearer of the piece's end c/d and the atom's u/v
            u, v = ends[a]
            if c * v < u * d:
                row[a] += c * (den // d) - x * (den // y)
                x, y = c, d
            else:
                row[a] += u * (den // v) - x * (den // y)
                x, y = u, v
                a += 1
    return SharingMatrix(_products(profile.value_rows, list(zip(held, dens))))


def rawlsian_distance(m: SharingMatrix | RatMatrix) -> Fraction:
    """Worst-off row deviation from the identity matrix.

    ``max_i sum_j |m_ij - [i == j]|``: zero exactly for the division in
    which everyone values their own piece at 1 and everyone else's at
    0, and growing as players are pushed away from that ideal.  Rows are
    summed on their integer numerators and compared by cross-multiplication.
    """
    mat = m.mat if isinstance(m, SharingMatrix) else m
    if not mat.is_square():
        raise ValueError("square matrix required")
    num, den = _least([(0, 1)] + [(-sum(abs(x - d * (i == j)) for j, x in enumerate(v)), d)
                                   for i, (v, d) in enumerate(mat.int_rows)])
    return Fraction(-num, den)


def _recover_margin(excess: list[tuple[list[int], int]], k: GoalMatrix):
    """Solve ``m = P + delta K``, with ``excess`` the integer rows of ``m - P``,
    for a single positive delta; candidates are integer pairs in lowest terms."""
    deltas = set()
    for (v, d), (kv, kd) in zip(excess, k.mat.int_rows):
        for x, z in zip(v, kv):
            if z == 0 and x != 0:
                return False, None
            if z != 0:  # the sign of z makes the denominator positive
                g = math.gcd(x * kd, d * z) * (1 if z > 0 else -1)
                deltas.add((x * kd // g, d * z // g))
    if not deltas:  # K = 0 and m = P
        return True, UNCONSTRAINED
    if len(deltas) == 1 and (delta := deltas.pop())[0] > 0:
        return True, Fraction(*delta)
    return False, None


def check_fairness(m: SharingMatrix, k: GoalMatrix | None = None,
                   p: TargetPoint | None = None,
                   r=None) -> FairnessReport:
    """Evaluate every fairness predicate on a sharing matrix.

    ``k`` and ``p`` together enable the hyper check (does ``m`` equal
    ``P + delta K`` for a single margin ``delta > 0``); ``r`` and ``p``
    together enable the sign-pattern check.  All comparisons are exact,
    on each row's integer numerators, and only reported values are Fractions.
    """
    n, rows = m.n, m.mat.int_rows
    if p is not None:  # integer rows of m - P, over d * pd for row v / d and shares pv / pd
        pv, pd = _to_row(p.shares)
        excess = [([x * pd - y * d for x, y in zip(v, pv)], d * pd) for v, d in rows]

    hyper = hyper_delta = None
    if k is not None:
        if p is None:
            raise ValueError("the hyper check needs a target point alongside the goal matrix")
        if k.n != n or p.n != n:
            raise ValueError("goal matrix / target size must match the sharing matrix")
        hyper, hyper_delta = _recover_margin(excess, k)

    relation_ok = None
    if r is not None:
        if p is None:
            raise ValueError("the sign-pattern check needs a target point")
        if r.n != n or p.n != n:
            raise ValueError("relation matrix / target size must match the sharing matrix")
        relation_ok = all(r[i, j].matches(x)
                          for i, (v, _) in enumerate(excess) for j, x in enumerate(v))

    diag = [(v[i], d) for i, (v, d) in enumerate(rows)]
    return FairnessReport(
        proportional=all(n * x >= d for x, d in diag),
        exact_division=all(n * x == d for v, d in rows for x in v),
        equitable=all(x * diag[0][1] == diag[0][0] * d for x, d in diag),
        envy_free=all(x <= v[i] for i, (v, _) in enumerate(rows) for x in v),
        super_envy_free=all(n * x > d if i == j else n * x < d
                            for i, (v, d) in enumerate(rows) for j, x in enumerate(v)),
        rawlsian=rawlsian_distance(m),
        hyper_envy_free=hyper,
        hyper_delta=hyper_delta,
        relation_satisfied=relation_ok,
    )
