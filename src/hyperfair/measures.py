"""Piecewise-constant player preferences on the unit interval.

A :class:`StepDensity` is a probability density on [0, 1] that is
constant between consecutive breakpoints.  A family of densities is
merged onto one shared grid by :func:`common_refinement`; the cells of
that grid are called atoms, and every exact computation downstream
(measures of intervals, the Gram matrix of the normalized density
weights, linear relations between the measures) reduces to finite sums
over atoms.  The Gram matrix and both constructions sum over blocks,
the atoms that share their normalized weights (:attr:`MeasureProfile.blocks`).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import RatMatrix, _products, _ratio_row, _Row, _to_row, fmt, kernel_basis, rat


@dataclass(frozen=True)
class Interval:
    """Closed subinterval of [0, 1] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        if not 0 <= a * d <= c * b <= b * d:  # 0 <= lo <= hi <= 1, cross-multiplied
            raise ValueError(f"interval [{fmt(self.lo)}, {fmt(self.hi)}] must satisfy 0 <= lo <= hi <= 1")

    @staticmethod
    def make(lo: int | str | Fraction, hi: int | str | Fraction) -> Interval:
        return Interval(rat(lo), rat(hi))

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


# Cells per integer row.  A row holds its numerators over the lcm of its
# denominators, so bounded chunks keep rows short when thousands of cells
# have distinct denominators.
_CHUNK = 64


def _cell_rows(breakpoints: Sequence[Fraction], values: Sequence[Fraction]) -> list:
    """Integer rows of the breakpoints and of the values, ``_CHUNK`` cells at a time."""
    return [(_to_row(breakpoints[s:s + _CHUNK + 1]), _to_row(values[s:s + _CHUNK]))
            for s in range(0, len(breakpoints) - 1, _CHUNK)]


def _mass(rows: list) -> Fraction:
    """Integral over [0, 1] of the step function with these cell rows: one
    Fraction per row, added up only when there are several."""
    masses = [Fraction(sum(map(operator.mul, v, map(operator.sub, b[1:], b))), d * e)
              for (b, d), (v, e) in rows]
    return sum(masses[1:], masses[0]) if masses else Fraction(0)


@dataclass(frozen=True)
class StepDensity:
    """Step-function probability density on [0, 1].

    ``values[i]`` is the density on ``[breakpoints[i], breakpoints[i+1]]``.
    Breakpoints must start at 0, end at 1, and strictly increase; values
    must be nonnegative and integrate to exactly 1.  The checks run in
    that order on integer rows (``linalg``'s numerators over one common
    denominator), one row of breakpoints and one of values per 64 cells,
    so the mass is one integer dot product per 64 cells.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bp, vals = self.breakpoints, self.values
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        rows = self.int_rows
        if any(any(map(operator.ge, b, b[1:])) for (b, _), _ in rows):
            raise ValueError("breakpoints must strictly increase")
        if len(vals) != len(bp) - 1:
            raise ValueError("need exactly one value per cell")
        if any(min(v) < 0 for _, (v, _) in rows):
            raise ValueError("density values must be nonnegative")
        mass = _mass(rows)
        if mass != 1:
            raise ValueError(f"density must integrate to 1, got {fmt(mass)}")

    @cached_property
    def int_rows(self) -> list:
        """:func:`_cell_rows` of the breakpoints and values, built once (by
        validation) and only read."""
        return _cell_rows(self.breakpoints, self.values)

    @staticmethod
    def make(breakpoints: Sequence[int | str | Fraction],
             values: Sequence[int | str | Fraction]) -> StepDensity:
        return StepDensity(tuple(rat(b) for b in breakpoints), tuple(rat(v) for v in values))

    @staticmethod
    def normalized(breakpoints: Sequence[int | str | Fraction],
                   values: Sequence[int | str | Fraction]) -> StepDensity:
        """Rescale arbitrary nonnegative step values so the mass is exactly 1."""
        bp = tuple(rat(b) for b in breakpoints)
        vals = tuple(rat(v) for v in values)
        mass = _mass(_cell_rows(bp, vals))
        if mass <= 0:
            raise ValueError("cannot normalize a density with zero total mass")
        return StepDensity(bp, tuple(v / mass for v in vals))

    def value_on(self, iv: Interval) -> Fraction:
        """Density value on an interval contained in a single cell."""
        if iv.length == 0:
            return Fraction(0)
        cell = bisect_right(self.breakpoints, iv.lo) - 1
        cell = min(cell, len(self.values) - 1)
        if iv.hi > self.breakpoints[cell + 1]:
            raise ValueError(f"interval {iv} crosses a breakpoint")
        return self.values[cell]

    def integral(self, iv: Interval) -> Fraction:
        """Exact integral of the density over ``iv`` (clamped to the breakpoints)."""
        bp = self.breakpoints
        return sum((v * max(min(iv.hi, b) - max(iv.lo, a), 0)
                    for v, a, b in zip(self.values, bp, bp[1:])), Fraction(0))


@dataclass(frozen=True)
class MeasureProfile:
    """A family of step densities refined onto a common atom grid.

    ``atom_values[i][a]`` is the value of density ``i`` on atom ``a``.
    Build instances with :func:`common_refinement`.
    """

    densities: tuple[StepDensity, ...]
    atoms: tuple[Interval, ...]
    atom_values: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.densities)

    def atom_measure(self, player: int, atom: int) -> Fraction:
        """Measure the given player assigns to one whole atom."""
        return self.atom_values[player][atom] * self.atoms[atom].length

    def is_null_atom(self, atom: int) -> bool:
        """True when every density vanishes on the atom."""
        return self.blocks[0][atom] is None

    @cached_property
    def value_rows(self) -> tuple[_Row, ...]:
        """Each player's atom values as one integer row, built once and only read:
        the density's own value row (:attr:`StepDensity.int_rows`) when the
        refinement kept its cells as they stood, in one chunk, else :func:`_to_row`."""
        return tuple(d.int_rows[0][1] if row is d.values and len(row) <= _CHUNK else _to_row(row)
                     for d, row in zip(self.densities, self.atom_values))

    @cached_property
    def blocks(self) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...], tuple[_Row, ...]]:
        """Each atom's block of equal :func:`rn_weights` (``None`` where every
        density vanishes; numbered in order of first appearance), each block's
        primitive integer column of lifted density values, and each player's
        block measures as one integer row; built once and only read."""
        values = self.value_rows
        lengths, e = _to_row([atom.length for atom in self.atoms])
        common = math.lcm(*(d for _, d in values))
        lift = [(v, common // d) for v, d in values]
        index: dict[tuple[int, ...], int] = {}
        block_of = []
        for a in range(len(self.atoms)):
            column = [v[a] * f for v, f in lift]
            g = math.gcd(*column)
            block_of.append(index.setdefault(tuple(x // g for x in column), len(index)) if g else None)
        measures = [[0] * len(index) for _ in values]
        for a, b in enumerate(block_of):
            if b is not None:
                for row, (v, _) in zip(measures, values):
                    row[b] += v[a] * lengths[a]
        return (tuple(block_of), tuple(index),
                tuple((tuple(row), d * e) for row, (_, d) in zip(measures, values)))


def common_refinement(densities: Sequence[StepDensity]) -> MeasureProfile:
    """Merge densities onto the coarsest grid refining all of them.

    Coincident breakpoints collapse, so no atom has zero length.  When
    every density has the same breakpoints they are the grid and the
    values are taken as they stand.
    """
    if not densities:
        raise ValueError("need at least one density")
    cuts = densities[0].breakpoints
    shared = all(d.breakpoints == cuts for d in densities)
    if not shared:
        cuts = sorted({b for d in densities for b in d.breakpoints})
    atoms = tuple(Interval(a, b) for a, b in zip(cuts, cuts[1:]))
    values = tuple(d.values if shared else tuple(d.value_on(iv) for iv in atoms)
                   for d in densities)
    return MeasureProfile(tuple(densities), atoms, values)


def measure_of(profile: MeasureProfile, player: int, iv: Interval) -> Fraction:
    """Exact measure the player's density assigns to an interval."""
    if not (0 <= player < profile.n):
        raise ValueError(f"player index {player} out of range")
    return profile.densities[player].integral(iv)


def rn_weights(profile: MeasureProfile, atom: int) -> tuple[Fraction, ...]:
    """Normalized density weights on an atom.

    Each player's density value divided by the sum over players; on an
    atom where every density vanishes the weights are all zero.
    """
    b = profile.blocks[0][atom]
    column = (0,) * profile.n if b is None else profile.blocks[1][b]
    total = sum(column) or 1
    return tuple(Fraction(x, total) for x in column)


def gram_matrix(profile: MeasureProfile) -> RatMatrix:
    """Pairwise integrals of the normalized weights against the sum measure.

    Entry (i, j) is the sum over atoms of ``w_i * w_j`` times the total
    measure of the atom, where ``w`` are the :func:`rn_weights`; ``w`` is
    constant on each of the profile's blocks, so ``G_ij = sum_b mu_i(b) w_j(b)``,
    one integer dot product of a block-measure row and a weight row.
    The result is symmetric, row-stochastic, and positive-semidefinite,
    with diagonal entries at least 1/n.
    """
    _, columns, measures = profile.blocks
    totals = [sum(column) for column in columns]
    return _products(measures, [_ratio_row([(c[j], t) for c, t in zip(columns, totals)])
                                for j in range(profile.n)])


def measure_relations(profile: MeasureProfile) -> list[tuple[Fraction, ...]]:
    """Canonical basis of linear dependencies among the player measures.

    A vector ``x`` is returned when ``sum_i x_i * measure_i`` is the
    zero measure; this is exactly the kernel of the Gram matrix.
    Independent measures yield ``[]``.
    """
    return kernel_basis(gram_matrix(profile))
