"""Sign-pattern feasibility for goal matrices.

A relation matrix prescribes, for every pair (i, j), whether player
i's value of player j's piece should sit above, at, or below the
target share.  Deciding whether some proper goal matrix realizes a
given sign pattern is a linear program: maximize a uniform slack ``t``
with every strict entry at least ``t`` away from zero, inside the box
``|k_ij| <= 1``.  The pattern is feasible exactly when the optimal
slack is positive, and the maximizing matrix is returned as a witness.
The LP's rows go to the exact Bland simplex as ``linalg`` integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .hyperfree import UNCONSTRAINED, GoalMatrix, is_proper
from .linalg import RatMatrix, _Row, _to_row
# simplex_solve stays importable from here, where the benchmark's tracer
# (perfbench/spans.py) has always looked it up.
from .simplex import LpStatus, _Objective, _solve, simplex_solve  # noqa: F401


class Relation(Enum):
    LT = "<"
    EQ = "="
    GT = ">"

    @staticmethod
    def from_symbol(s: str) -> Relation:
        try:
            return Relation(s)
        except ValueError:
            raise ValueError(f"expected one of '<', '=', '>', got {s!r}") from None

    @property
    def sign(self) -> int:
        return {"<": -1, "=": 0, ">": 1}[self.value]

    def matches(self, x: Fraction) -> bool:
        return (x > 0) - (x < 0) == self.sign


@dataclass(frozen=True)
class RelationMatrix:
    """Square grid of strict or equality targets, one per matrix entry."""

    cells: tuple[tuple[Relation, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.cells)
        if n == 0 or any(len(row) != n for row in self.cells):
            raise ValueError("relation matrix must be square and nonempty")

    @staticmethod
    def from_symbols(rows: Sequence[Sequence[str]]) -> RelationMatrix:
        return RelationMatrix(tuple(tuple(Relation.from_symbol(s) for s in row) for row in rows))

    @staticmethod
    def super_envy_free(n: int) -> RelationMatrix:
        """GT diagonal, LT off-diagonal: everyone beats the target on
        their own piece and undercuts it on everyone else's."""
        return RelationMatrix(tuple(
            tuple(Relation.GT if i == j else Relation.LT for j in range(n)) for i in range(n)
        ))

    @property
    def n(self) -> int:
        return len(self.cells)

    def __getitem__(self, key: tuple[int, int]) -> Relation:
        i, j = key
        return self.cells[i][j]

    @property
    def has_strict(self) -> bool:
        return any(c is not Relation.EQ for row in self.cells for c in row)

    def to_symbols(self) -> list[list[str]]:
        return [[c.value for c in row] for row in self.cells]


@dataclass(frozen=True)
class RelationSolution:
    """Feasibility verdict plus the max-slack witness.

    ``margin`` is the optimal uniform slack when strict entries exist,
    :data:`hyperfair.hyperfree.UNCONSTRAINED` when the pattern has no
    strict entries (the zero matrix works and no slack is demanded),
    and ``None`` when infeasible.
    """

    feasible: bool
    k: GoalMatrix | None = None
    margin: Fraction | object | None = None
    has_strict: bool = True


def solve_relations(r: RelationMatrix,
                    relations: Sequence[Sequence[Fraction]]) -> RelationSolution:
    """Decide whether a proper goal matrix can realize the sign pattern.

    Free entries are split into differences of nonnegative variables;
    strict entries are tied to a shared slack ``t`` which the LP
    maximizes, so a feasible pattern comes back with the most interior
    witness available inside the unit box.
    """
    n = r.n
    for lam in relations:
        if len(lam) != n:
            raise ValueError("relation vector length does not match matrix size")
    if not r.has_strict:
        # Only equalities: the zero matrix satisfies everything and no
        # positive slack is required of it.
        return RelationSolution(True, GoalMatrix.zero(n), UNCONSTRAINED, has_strict=False)

    def u(i: int, j: int) -> int:
        return i * n + j

    def v(i: int, j: int) -> int:
        return n * n + i * n + j

    t_var = 2 * n * n
    strict_cells = [(i, j) for i in range(n) for j in range(n) if r[i, j] is not Relation.EQ]
    nvars = t_var + 1 + 2 * len(strict_cells)  # sign slacks then box slacks
    # The LP's integer rows of [A | b], right-hand side last; every
    # entry but a relation's is an integer, and every b is 0 or 1.
    rows: list[_Row] = []

    def new_row(d: int = 1) -> list[int]:
        row = [0] * (nvars + 1)
        rows.append((row, d))
        return row

    for i in range(n):  # rows of k sum to zero
        row = new_row()
        for j in range(n):
            row[u(i, j)] = 1
            row[v(i, j)] = -1
    for lam in relations:  # every relation annihilates every column
        ints, d = _to_row(lam)
        for j in range(n):
            row = new_row(d)
            for i in range(n):
                row[u(i, j)] = ints[i]
                row[v(i, j)] = -ints[i]
    slack = t_var + 1
    for idx, (i, j) in enumerate(strict_cells):
        sign = r[i, j].sign
        row = new_row()  # sign * k_ij - t - surplus = 0, i.e. sign * k_ij >= t
        row[u(i, j)] = sign
        row[v(i, j)] = -sign
        row[t_var] = -1
        row[slack + 2 * idx] = -1
        row = new_row()  # sign * k_ij + box slack = 1, i.e. |k_ij| <= 1
        row[u(i, j)] = sign
        row[v(i, j)] = -sign
        row[slack + 2 * idx + 1] = 1
        row[-1] = 1
    for i in range(n):
        for j in range(n):
            if r[i, j] is Relation.EQ:
                row = new_row()
                row[u(i, j)] = 1
                row[v(i, j)] = -1

    outcome = _solve(_Objective((0,) * t_var + (1,) + (0,) * (nvars - t_var - 1)), rows)
    assert outcome.status is LpStatus.OPTIMAL, \
        "K = 0 and t = 0, every surplus 0 and box slack 1, meet every row; the box bounds t"
    assert outcome.value is not None and outcome.witness is not None
    if outcome.value <= 0:
        return RelationSolution(False)
    x = outcome.witness
    k = GoalMatrix(RatMatrix(n, n, tuple(
        x[u(i, j)] - x[v(i, j)] for i in range(n) for j in range(n)
    )))
    return RelationSolution(True, k, outcome.value, has_strict=True)


def verify_relation_solution(k: GoalMatrix, r: RelationMatrix,
                             relations: Sequence[Sequence[Fraction]]) -> bool:
    """True when ``k`` is proper and matches the sign pattern entrywise."""
    if k.n != r.n:
        raise ValueError("goal matrix and relation matrix sizes differ")
    if not is_proper(k, relations):
        return False
    return all(r[i, j].matches(k.mat[i, j]) for i in range(r.n) for j in range(r.n))
