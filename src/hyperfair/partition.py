"""Explicit interval partitions from per-atom weight systems.

Realizing a target matrix does not need anything beyond cutting each
atom of the common refinement into consecutive player slices: if
player ``j`` receives fraction ``alpha[a][j]`` of atom ``a`` then
player ``i`` values player ``j``'s total piece at
``sum_a alpha[a][j] * measure_i(atom a)``, because densities are
constant on atoms.  Weights that hit ``P + delta K`` come from one of
two routes, and both land on the same sharing matrix:

* :func:`factor_weights` composes the normalized density weights with
  the Gram stochastic factor ``S = G^+ (P + delta K)``, as integer dot
  products of each block's column with the columns of ``S``.  No
  LP is needed; it applies whenever ``S`` is nonnegative and ``G S`` is
  the target, that is for a proper ``K`` and ``delta`` up to
  :func:`hyperfair.hyperfree.factor_delta_bound`.  ``hyperfair solve``
  takes this route first for a fixed margin.
* :func:`solve_alpha` solves an exact linear program.  It reaches every
  realizable margin, so ``solve`` uses it to maximize the margin and
  for fixed margins the factor cannot realize: a fixed margin caps the
  maximized one by one row, from the same start, ``delta = 0`` with
  every block split by ``p``.  Of the coupling rows it keeps ``n - 1``
  per player, as the last follows from the others.
  ``simplex._row`` lays out its block and coupling rows for the integer-row
  core of :func:`hyperfair.simplex.certified_solve`, so every weight
  and margin is exact.

Both find one weight row per block of :attr:`MeasureProfile.blocks`
(atoms with equal :func:`rn_weights`, so proportional measures), which
every atom of the block gets: the realizable sharing matrices do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .hyperfree import UNCONSTRAINED, GoalMatrix, TargetPoint, stochastic_factor
from .linalg import RatMatrix, _columns, _products, _to_row, fmt, pseudo_inverse, rat
from .measures import Interval, MeasureProfile, gram_matrix
# simplex_solve stays importable from here, where the benchmark's tracer
# (perfbench/spans.py) has always looked it up.
from .simplex import LpStatus, _certified_solve, _Objective, _row, simplex_solve  # noqa: F401

#: Mode marker for :func:`solve_alpha`: maximize the margin instead of fixing it.
MAXIMIZE = "max"


class InfeasibleError(Exception):
    """No weight system realizes the requested target."""


class PartitionError(ValueError):
    """The interval lists do not form a partition of [0, 1]."""


@dataclass(frozen=True)
class WeightSystem:
    """Row per atom, column per player; nonnegative rows summing to 1,
    checked on each row's integer numerators over one denominator."""

    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("need at least one atom row")
        width = len(self.weights[0])
        for a, (row, (v, d)) in enumerate(zip(self.weights, self.int_rows)):
            if len(row) != width:
                raise ValueError("weight rows have inconsistent lengths")
            if min(v, default=0) < 0:
                raise ValueError(f"atom {a} has a negative weight")
            if sum(v) != d:
                raise ValueError(f"atom {a} weights must sum to 1")

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row's integer numerators over its least common denominator,
        built once and only read."""
        return tuple((tuple(v), d) for v, d in map(_to_row, self.weights))

    @staticmethod
    def make(rows: Sequence[Sequence[int | str | Fraction]]) -> WeightSystem:
        return WeightSystem(tuple(tuple(rat(w) for w in row) for row in rows))

    @property
    def num_atoms(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return len(self.weights[0])


@dataclass(frozen=True)
class Partition:
    """One tuple of intervals per player, jointly tiling [0, 1].

    Construction validates the tiling: intervals must stay inside
    [0, 1], interiors must not overlap, and the union must cover
    everything; violations raise :class:`PartitionError` naming the
    offending spot.
    """

    pieces: tuple[tuple[Interval, ...], ...]
    # A canonical file's endpoint strings, for problem_io.serialize_partition to echo
    _text: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        cursor, c, d = Fraction(0), 0, 1
        for _, lo, _, hi, owner, iv, a, b, e, f in self.records:
            if a != c or b != d:
                if a * d > c * b:
                    raise PartitionError(f"coverage gap [{fmt(cursor)}, {fmt(lo)}] is assigned to nobody")
                raise PartitionError(
                    f"interval {iv} of player {owner} overlaps [{fmt(lo)}, {fmt(min(hi, cursor))}]")
            cursor, c, d = hi, e, f
        if c != d:
            raise PartitionError(f"coverage gap [{fmt(cursor)}, 1] is assigned to nobody")

    @cached_property
    def records(self) -> list[tuple]:
        """One record per interval of positive length, ``(lo as a float, lo, hi as a
        float, hi, owner, interval, *lo's integer pair, *hi's integer pair)``, in
        order of (lo, hi) and then owner; built once and only read.  Rounded floats
        are monotone (``a / b`` is ``float()``'s), so Fractions are compared only on
        float ties, and records that tie on both ends are equal up to the owner."""
        records = []
        for owner, ivs in enumerate(self.pieces):
            for iv in ivs:
                (a, b), (c, d) = iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()
                if a != c or b != d:
                    records.append((a / b, iv.lo, c / d, iv.hi, owner, iv, a, b, c, d))
        records.sort()
        return records

    @cached_property
    def tiling(self) -> list[tuple[Interval, int]]:
        """The intervals of positive length and their owners, in :attr:`records` order."""
        return [(iv, owner) for _, _, _, _, owner, iv, *_ in self.records]

    @property
    def n(self) -> int:
        return len(self.pieces)

    def total_length(self, player: int) -> Fraction:
        return sum((iv.length for iv in self.pieces[player]), Fraction(0))


def build_from_weights(profile: MeasureProfile, w: WeightSystem) -> Partition:
    """Cut every atom left to right in player order by the given weights.

    Player ``j``'s slice of an atom has length ``weight * atom length``;
    zero-length slices are dropped.  Each slice end is one Fraction built
    from integers: the atom's ends and the row's :attr:`WeightSystem.int_rows`
    entry.  The resulting piece of player ``j`` has measure
    ``sum_a w[a][j] * measure_i(atom a)`` under every player ``i``, exactly.
    """
    if w.num_atoms != len(profile.atoms):
        raise ValueError(f"weight system has {w.num_atoms} rows, profile has {len(profile.atoms)} atoms")
    if w.n != profile.n:
        raise ValueError("weight system and profile disagree on the number of players")
    pieces: list[list[Interval]] = [[] for _ in range(profile.n)]
    for atom, (v, d) in zip(profile.atoms, w.int_rows):
        # the atom is [a/b, c/e]; a slice ends at a/b + (s/d)(c/e - a/b), s the
        # running numerator sum, and the last one (s = d) on the atom's end
        (a, b), (c, e) = atom.lo.as_integer_ratio(), atom.hi.as_integer_ratio()
        start, length, den = a * e * d, c * b - a * e, b * e * d
        cursor, s = atom.lo, 0
        for j, x in enumerate(v):
            if x:
                s += x
                end = atom.hi if s == d else Fraction(start + s * length, den)
                pieces[j].append(Interval(cursor, end))
                cursor = end
    return Partition(tuple(tuple(p) for p in pieces))


def _weight_rows(profile: MeasureProfile, rows: Sequence[tuple[Fraction, ...]]) -> WeightSystem:
    """Weight system with ``rows[b]`` on each atom of the profile's block
    ``b``; null atoms (every density zero there) go wholly to player 0."""
    to_player_0 = tuple(Fraction(int(j == 0)) for j in range(profile.n))
    return WeightSystem(tuple(to_player_0 if b is None else rows[b] for b in profile.blocks[0]))


def solve_alpha(profile: MeasureProfile, k: GoalMatrix, p: TargetPoint,
                delta: Fraction | int | str = MAXIMIZE):
    """Weight system realizing ``P + delta K``, by linear programming.

    ``delta`` may be an exact rational (realize that margin or raise
    :class:`InfeasibleError`) or :data:`MAXIMIZE` (find the largest
    admissible margin).  Atoms where every density vanishes carry no
    constraints and are handed wholly to player 0.  The others come in
    the profile's :attr:`MeasureProfile.blocks`; the LP has ``n``
    variables per block, each player's share of it, and every atom of
    the block gets those shares as its weight row.  Constraint
    ``(i, j)`` says that player ``i`` values
    player ``j``'s piece at ``P[j] + delta K[i][j]``; the one for
    ``j = n - 1`` is left out, as it follows from the others.  The LP
    maximizes the margin in every mode; a fixed margin caps it by one
    more row, ``delta + s = cap`` with a slack ``s >= 0``, and so does a
    zero goal matrix under :data:`MAXIMIZE`, with cap 0.  The simplex
    crosses over to an optimal vertex from the feasible point
    ``delta = 0``, every block split by ``p`` (each player's non-null
    blocks hold all of their mass), and ``s = cap``.  The feasible
    points form a convex set that holds ``delta = 0``, so the optimum
    reaches the cap exactly when the cap is admissible.  Returns
    ``(weights, delta)``; when the goal matrix is zero and the margin
    was to be maximized, the margin is :data:`UNCONSTRAINED` because
    any value realizes the same target.
    """
    n = profile.n
    if k.n != n or p.n != n:
        raise ValueError("goal matrix / target size must match the profile")
    if delta == MAXIMIZE:
        cap = Fraction(0) if k.is_zero() else None
    else:
        try:
            cap = rat(delta)
        except (TypeError, ValueError):
            raise ValueError(
                f"margin must be a rational or {MAXIMIZE!r}, got {delta!r}"
            ) from None
        if cap < 0:
            raise ValueError("margin must be nonnegative")

    _, columns, measures = profile.blocks
    blocks = len(columns)
    delta_var = blocks * n
    nvars = delta_var + (1 if cap is None else 2)
    # The LP's integer rows of [A | b]: first, each block fully distributed.
    rows = [_row(nvars, ((b * n + j, 1) for j in range(n)), 1) for b in range(blocks)]
    # Player i's value of player j's piece.  Row (i, n-1) would be 1
    # minus the others on both sides: the block rows sum to 1, and so
    # do player i's measure, P and every row of P + delta K.
    for i, (measure, d) in enumerate(measures):
        for j, pj in enumerate(p.shares[:-1]):
            kij = k.mat[i, j]
            den = math.lcm(d, kij.denominator, pj.denominator)
            scale = den // d
            terms = [(b * n + j, measure[b] * scale) for b in range(blocks)]
            terms.append((delta_var, -kij.numerator * (den // kij.denominator)))
            rows.append(_row(nvars, terms, pj.numerator * (den // pj.denominator), den))
    start = p.shares * blocks + (0,)
    if cap is not None:  # delta + s = cap, with the slack s >= 0 last
        rows.append(_to_row([0] * delta_var + [1, 1, cap]))
        start += (cap,)

    objective = (0,) * delta_var + (1,) + (0,) * (nvars - delta_var - 1)
    outcome = _certified_solve(_Objective(objective, start=start), rows)
    assert outcome.status is LpStatus.OPTIMAL, "a nonzero goal entry or the cap bounds the margin"
    assert outcome.witness is not None
    x = outcome.witness
    if cap is not None and x[delta_var] < cap:
        raise InfeasibleError(f"no weight system realizes the target at margin {fmt(cap)}")
    # a cap under MAXIMIZE is a zero goal's: any margin realizes the same target
    achieved = UNCONSTRAINED if delta == MAXIMIZE and cap is not None else x[delta_var]
    return _weight_rows(profile, [x[b * n: b * n + n] for b in range(blocks)]), achieved


def factor_weights(profile: MeasureProfile, factor: RatMatrix) -> WeightSystem:
    """Weight system of a row-stochastic factor ``S``, without any LP.

    The weights are the product ``W @ S``, where row ``b`` of ``W``
    holds the :func:`rn_weights` of the profile's block ``b``, for every
    atom of the block; null atoms go wholly to player 0.  Each entry is
    one integer dot product of the block's primitive column with a
    column of ``S``, and one Fraction.  When
    ``gram_matrix(profile) @ S`` is ``P + delta K``, the cut realizes
    exactly that sharing matrix, because summing ``w_l * measure_i``
    over the blocks gives the Gram entry ``(i, l)``.
    """
    n = profile.n
    if factor.rows != n or factor.cols != n:
        raise ValueError("factor and profile disagree on the number of players")
    product = _products([(c, sum(c)) for c in profile.blocks[1]], _columns(factor))
    return _weight_rows(profile, [product.row(b) for b in range(product.rows)])


def build_via_stochastic_factor(profile: MeasureProfile, k: GoalMatrix, p: TargetPoint,
                                delta: Fraction | int | str) -> Partition:
    """LP-free construction through the Gram pseudo-inverse.

    Cuts the profile by :func:`factor_weights` of the stochastic factor
    ``S = G^+ (P + delta K)`` and raises the errors of
    :func:`hyperfair.hyperfree.stochastic_factor`.
    """
    g = gram_matrix(profile)
    cert = stochastic_factor(g, pseudo_inverse(g), k, p, delta)
    return build_from_weights(profile, factor_weights(profile, cert.factor))
