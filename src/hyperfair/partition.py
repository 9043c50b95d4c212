"""Explicit interval partitions from per-atom weight systems.

Realizing a target matrix does not need anything beyond cutting each
atom of the common refinement into consecutive player slices: if
player ``j`` receives fraction ``alpha[a][j]`` of atom ``a`` then
player ``i`` values player ``j``'s total piece at
``sum_a alpha[a][j] * measure_i(atom a)``, because densities are
constant on atoms.  Weights that hit ``P + delta K`` come from one of
two routes, and both land on the same sharing matrix:

* :func:`factor_weights` composes the normalized density weights with
  the Gram stochastic factor ``S = G^+ (P + delta K)``.  No LP is
  needed; it applies whenever ``S`` is nonnegative and ``G S`` is the
  target, that is for a proper ``K`` and ``delta`` up to
  :func:`hyperfair.hyperfree.factor_delta_bound`.  ``hyperfair solve``
  takes this route first for a fixed margin.
* :func:`solve_alpha` solves an exact linear program.  It reaches every
  realizable margin, so ``solve`` uses it to maximize the margin and
  for fixed margins the factor cannot realize.  Atoms with equal
  :func:`rn_weights` have proportional measures, so the LP takes them
  as one block with the summed measure and every atom of a block gets
  the block's row: the realizable sharing matrices do not change.  Of
  the coupling rows it keeps ``n - 1`` per player, as the last follows
  from the others.  The LP's rows are built as ``linalg`` integer rows,
  with no Fraction matrix, and go to the integer-row core of
  :func:`hyperfair.simplex.certified_solve`: floats only pick the
  basis, one exact elimination certifies it, and the exact Bland
  simplex answers whenever it does not, so every weight and margin is
  exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .hyperfree import UNCONSTRAINED, GoalMatrix, TargetPoint, stochastic_factor
from .linalg import RatMatrix, _Row, _to_row, pseudo_inverse, rat
from .measures import Interval, MeasureProfile, gram_matrix, rn_weights
# simplex_solve stays importable from here, where the benchmark's tracer
# (perfbench/spans.py) has always looked it up.
from .simplex import LpStatus, _certified_solve, _Objective, simplex_solve  # noqa: F401

#: Mode marker for :func:`solve_alpha`: maximize the margin instead of fixing it.
MAXIMIZE = "max"


class InfeasibleError(Exception):
    """No weight system realizes the requested target."""


class PartitionError(ValueError):
    """The interval lists do not form a partition of [0, 1]."""


@dataclass(frozen=True)
class WeightSystem:
    """Row per atom, column per player; nonnegative rows summing to 1."""

    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("need at least one atom row")
        width = len(self.weights[0])
        for a, row in enumerate(self.weights):
            if len(row) != width:
                raise ValueError("weight rows have inconsistent lengths")
            if any(w < 0 for w in row):
                raise ValueError(f"atom {a} has a negative weight")
            if sum(row, Fraction(0)) != 1:
                raise ValueError(f"atom {a} weights must sum to 1")

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

    def __post_init__(self) -> None:
        # Correctly rounded floats are monotone, so this key orders the
        # intervals by (lo, hi) and compares Fractions only on float ties.
        marked = sorted(
            ((iv, owner) for owner, ivs in enumerate(self.pieces) for iv in ivs if iv.hi != iv.lo),
            key=lambda pair: (float(pair[0].lo), pair[0].lo, float(pair[0].hi), pair[0].hi),
        )
        cursor = Fraction(0)
        for iv, owner in marked:
            if iv.lo > cursor:
                raise PartitionError(f"coverage gap [{cursor}, {iv.lo}] is assigned to nobody")
            if iv.lo < cursor:
                raise PartitionError(
                    f"interval {iv} of player {owner} overlaps [{iv.lo}, {min(iv.hi, cursor)}]"
                )
            cursor = iv.hi
        if cursor != 1:
            raise PartitionError(f"coverage gap [{cursor}, 1] is assigned to nobody")

    @property
    def n(self) -> int:
        return len(self.pieces)

    def total_length(self, player: int) -> Fraction:
        return sum((iv.length for iv in self.pieces[player]), Fraction(0))


def build_from_weights(profile: MeasureProfile, w: WeightSystem) -> Partition:
    """Cut every atom left to right in player order by the given weights.

    Player ``j``'s slice of an atom has length ``weight * atom length``;
    zero-length slices are dropped.  The resulting piece of player ``j``
    has measure ``sum_a w[a][j] * measure_i(atom a)`` under every player
    ``i``, exactly.
    """
    if w.num_atoms != len(profile.atoms):
        raise ValueError(f"weight system has {w.num_atoms} rows, profile has {len(profile.atoms)} atoms")
    if w.n != profile.n:
        raise ValueError("weight system and profile disagree on the number of players")
    pieces: list[list[Interval]] = [[] for _ in range(profile.n)]
    for a, atom in enumerate(profile.atoms):
        cursor = atom.lo
        for j in range(profile.n):
            width = w.weights[a][j] * atom.length
            if width > 0:
                pieces[j].append(Interval(cursor, cursor + width))
                cursor += width
        assert cursor == atom.hi
    return Partition(tuple(tuple(p) for p in pieces))


def _weight_rows(profile: MeasureProfile,
                 row_of: Callable[[int], tuple[Fraction, ...]]) -> WeightSystem:
    """Weight system with row ``row_of(a)`` on each atom ``a``; null atoms
    (every density zero there) go wholly to player 0."""
    to_player_0 = tuple(Fraction(int(j == 0)) for j in range(profile.n))
    return WeightSystem(tuple(to_player_0 if profile.is_null_atom(a) else row_of(a)
                              for a in range(len(profile.atoms))))


def solve_alpha(profile: MeasureProfile, k: GoalMatrix, p: TargetPoint,
                delta: Fraction | int | str = MAXIMIZE):
    """Weight system realizing ``P + delta K``, by linear programming.

    ``delta`` may be an exact rational (realize that margin or raise
    :class:`InfeasibleError`) or :data:`MAXIMIZE` (find the largest
    admissible margin).  Atoms where every density vanishes carry no
    constraints and are handed wholly to player 0.  The others are
    grouped into blocks by their :func:`rn_weights`, in order of first
    appearance; the LP has ``n`` variables per block, each player's
    share of it, and every atom of the block gets those shares as its
    weight row.  Constraint ``(i, j)`` says that player ``i`` values
    player ``j``'s piece at ``P[j] + delta K[i][j]``; the one for
    ``j = n - 1`` is left out, as it follows from the others.  Returns
    ``(weights, delta)``; when the goal matrix is zero and the margin
    was to be maximized, the margin is :data:`UNCONSTRAINED` because
    any value realizes the same target.
    """
    n = profile.n
    if k.n != n or p.n != n:
        raise ValueError("goal matrix / target size must match the profile")
    maximize = delta == MAXIMIZE
    if maximize:
        fixed = Fraction(0)
    else:
        try:
            fixed = rat(delta)
        except (TypeError, ValueError):
            raise ValueError(
                f"margin must be a rational or {MAXIMIZE!r}, got {delta!r}"
            ) from None
        if fixed < 0:
            raise ValueError("margin must be nonnegative")
    if maximize and k.is_zero():
        weights, _ = solve_alpha(profile, k, p, Fraction(0))
        return weights, UNCONSTRAINED

    # Integer rows of the values, one per player, and of the atom lengths.
    # Value columns share a primitive integer vector exactly when their
    # rn_weights agree; a null atom's is zero.  slot[a] is the block of
    # non-null atom a; a block's measure sums its atoms'.
    values = [_to_row(row) for row in profile.atom_values]
    lengths, e = _to_row([atom.length for atom in profile.atoms])
    common = math.lcm(*(d for _, d in values))
    lift = [(v, common // d) for v, d in values]
    block_of: dict[tuple[int, ...], int] = {}
    slot: dict[int, int] = {}
    for a in range(len(profile.atoms)):
        column = [v[a] * f for v, f in lift]
        g = math.gcd(*column)
        if g:
            slot[a] = block_of.setdefault(tuple(x // g for x in column), len(block_of))
    blocks = len(block_of)
    measure = [[0] * blocks for _ in range(n)]  # over values[i][1] * e
    for a, b in slot.items():
        for i, (v, _) in enumerate(values):
            measure[i][b] += v[a] * lengths[a]

    # The LP's integer rows of [A | b], right-hand side last.
    nvars = blocks * n + (1 if maximize else 0)
    delta_var = blocks * n
    rows: list[_Row] = []
    for b in range(blocks):  # each block fully distributed
        rows.append(([0] * (b * n) + [1] * n + [0] * (nvars - b * n - n) + [1], 1))
    # Player i's value of player j's piece.  Row (i, n-1) would be 1
    # minus the others on both sides: the block rows sum to 1, and so
    # do player i's measure, P and every row of P + delta K.
    for i, (_, d) in enumerate(values):
        for j in range(n - 1):
            kij = k.mat[i, j]
            rhs = p.shares[j] if maximize else p.shares[j] + kij * fixed
            den = math.lcm(d * e, kij.denominator, rhs.denominator)
            scale = den // (d * e)
            row = [0] * (nvars + 1)
            for b in range(blocks):
                row[b * n + j] = measure[i][b] * scale
            if maximize:
                row[delta_var] = -kij.numerator * (den // kij.denominator)
            row[-1] = rhs.numerator * (den // rhs.denominator)
            rows.append(([-x for x in row] if rhs < 0 else row, den))

    objective = (0,) * delta_var + ((1,) if maximize else ())
    outcome = _certified_solve(_Objective(objective), rows)
    if outcome.status is LpStatus.INFEASIBLE:
        raise InfeasibleError(
            f"no weight system realizes the target at margin "
            f"{'max' if maximize else fixed}"
        )
    assert outcome.status is LpStatus.OPTIMAL, "a nonzero goal entry bounds the margin"
    assert outcome.witness is not None
    x = outcome.witness
    achieved = x[delta_var] if maximize else fixed
    return _weight_rows(profile, lambda a: x[slot[a] * n: slot[a] * n + n]), achieved


def factor_weights(profile: MeasureProfile, factor: RatMatrix) -> WeightSystem:
    """Weight system of a row-stochastic factor ``S``, without any LP.

    The weights are the product ``W @ S``, where row ``a`` of ``W``
    holds the :func:`rn_weights` of atom ``a``; null atoms go wholly to
    player 0.  When ``gram_matrix(profile) @ S`` is ``P + delta K``,
    the cut realizes exactly that sharing matrix, because summing
    ``w_l * measure_i`` over the atoms gives the Gram entry ``(i, l)``.
    """
    n = profile.n
    if factor.rows != n or factor.cols != n:
        raise ValueError("factor and profile disagree on the number of players")
    atoms = len(profile.atoms)
    w = RatMatrix(atoms, n, tuple(x for a in range(atoms) for x in rn_weights(profile, a)))
    return _weight_rows(profile, (w @ factor).row)


def build_via_stochastic_factor(profile: MeasureProfile, k: GoalMatrix, p: TargetPoint,
                                delta: Fraction | int | str) -> Partition:
    """LP-free construction through the Gram pseudo-inverse.

    Cuts the profile by :func:`factor_weights` of the stochastic factor
    ``S = G^+ (P + delta K)``.  Raises the
    :func:`hyperfair.hyperfree.stochastic_factor` errors when the goal
    matrix is improper or the margin is too large.
    """
    g = gram_matrix(profile)
    cert = stochastic_factor(g, pseudo_inverse(g), k, p, delta)
    return build_from_weights(profile, factor_weights(profile, cert.factor))
