"""Sign-pattern feasibility for goal matrices.

A relation matrix prescribes, for every pair (i, j), whether player
i's value of player j's piece should sit above, at, or below the
target share.  Whether some proper goal matrix realizes a given sign
pattern is decided first by Motzkin's transposition theorem: no proper
``K`` has the pattern exactly when some ``Z = a 1^T + sum_l lam_l b_l^T``
(``lam_l`` the measure relations) has ``s_ij Z_ij >= 0`` on every
strict cell and ``> 0`` on at least one.  Every proper ``K`` is
orthogonal to such a ``Z``, which the pattern's signs forbid, so ``Z``
is a refutation that :func:`verify_refutation` checks by products
alone.  Without relations it exists exactly when some row's strict
cells all have one sign; with relations a small LP with a known start
point searches for it.  Only a pattern with no refutation goes to the
primal linear program: maximize a uniform slack ``t`` with every
strict entry at least ``t`` away from zero, inside the box
``|k_ij| <= 1``, and return the maximizing matrix as a witness.  Both
LPs' integer rows go to the core of
:func:`hyperfair.simplex.certified_solve`, so refutation, slack and
witness are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .hyperfree import UNCONSTRAINED, GoalMatrix, is_proper
from .linalg import RatMatrix, _to_row
# simplex_solve stays importable from here for the benchmark's tracer, which
# perfbench/test_perfbench.py::test_tracer_wraps_each_caller_namespace checks.
from .simplex import LpStatus, _certified_solve, _Objective, _row, simplex_solve  # noqa: F401


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
    and ``None`` when infeasible.  ``refutation``, when infeasible, is
    Motzkin's alternative ``(a, b_1, ..., b_L)``, one ``b`` per measure
    relation, which :func:`verify_refutation` checks; it is evidence for
    the verdict, not part of it, so it takes no part in comparisons.
    """

    feasible: bool
    k: GoalMatrix | None = None
    margin: Fraction | object | None = None
    has_strict: bool = True
    refutation: tuple[tuple[Fraction, ...], ...] | None = field(default=None, compare=False)


def solve_relations(r: RelationMatrix,
                    relations: Sequence[Sequence[Fraction]]) -> RelationSolution:
    """Decide whether a proper goal matrix can realize the sign pattern.

    A pattern with a :func:`_refutation` is infeasible.  Otherwise, free
    entries are split into differences of nonnegative variables; strict
    entries are tied to a shared slack ``t`` which the LP maximizes, so a
    feasible pattern comes back with the most interior witness available
    inside the unit box.
    """
    n = r.n
    for lam in relations:
        if len(lam) != n:
            raise ValueError("relation vector length does not match matrix size")
    if not r.has_strict:
        # Only equalities: the zero matrix satisfies everything and no
        # positive slack is required of it.
        return RelationSolution(True, GoalMatrix.zero(n), UNCONSTRAINED, has_strict=False)
    strict_cells = [(i, j) for i in range(n) for j in range(n) if r[i, j] is not Relation.EQ]
    refutation = _refutation(r, relations, strict_cells)
    if refutation is not None:
        return RelationSolution(False, refutation=refutation)

    def k_ij(i: int, j: int, c: int = 1) -> list[tuple[int, int]]:
        """The terms of ``c * k_ij = c * (u_ij - v_ij)``; u and v are row-major blocks."""
        return [(i * n + j, c), (n * n + i * n + j, -c)]

    t_var = 2 * n * n
    nvars = t_var + 1 + 2 * len(strict_cells)  # sign slacks then box slacks
    # The LP's integer rows of [A | b]; every entry but a relation's is
    # an integer, and every b is 0 or 1.  First, rows of k sum to zero.
    rows = [_row(nvars, (t for j in range(n) for t in k_ij(i, j))) for i in range(n)]
    for lam in relations:  # every relation annihilates every column
        ints, d = _to_row(lam)
        for j in range(n):
            rows.append(_row(nvars, (t for i in range(n) for t in k_ij(i, j, ints[i])), d=d))
    slack = t_var + 1
    for idx, (i, j) in enumerate(strict_cells):
        sign = r[i, j].sign
        # sign * k_ij - t - surplus = 0, i.e. sign * k_ij >= t
        rows.append(_row(nvars, k_ij(i, j, sign) + [(t_var, -1), (slack + 2 * idx, -1)]))
        # sign * k_ij + box slack = 1, i.e. |k_ij| <= 1
        rows.append(_row(nvars, k_ij(i, j, sign) + [(slack + 2 * idx + 1, 1)], 1))
    rows += [_row(nvars, k_ij(i, j)) for i in range(n) for j in range(n) if r[i, j] is Relation.EQ]

    outcome = _certified_solve(_Objective((0,) * t_var + (1,) + (0,) * (nvars - t_var - 1)), rows)
    assert outcome.status is LpStatus.OPTIMAL, \
        "K = 0 and t = 0, every surplus 0 and box slack 1, meet every row; the box bounds t"
    assert outcome.value is not None and outcome.witness is not None
    assert outcome.value > 0, "Motzkin: with no refutation, some proper K has the pattern"
    x = outcome.witness
    # k_ij = u_ij - v_ij, with u and v laid out row-major as in k_ij
    k = GoalMatrix(RatMatrix(n, n, tuple(a - b for a, b in zip(x[:n * n], x[n * n:t_var]))))
    return RelationSolution(True, k, outcome.value, has_strict=True)


def _refutation(r: RelationMatrix, relations: Sequence[Sequence[Fraction]],
                strict_cells: Sequence[tuple[int, int]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Motzkin's alternative ``(a, b_1, ..., b_L)`` to the pattern, or ``None``
    when the pattern is feasible; ``strict_cells`` lists the pattern's
    non-``=`` cells ``(i, j)`` in row-major order.

    Without relations ``Z = a 1^T``, so a row whose strict cells all have
    one sign refutes the pattern (``a`` is that sign there, 0 elsewhere),
    and nothing else can; with relations :func:`_refutation_lp` decides.
    """
    if relations:
        return _refutation_lp(r, relations, strict_cells)
    for i, row in enumerate(r.cells):
        signs = {c.sign for c in row} - {0}
        if len(signs) == 1:
            a = [Fraction(0)] * r.n
            a[i] = Fraction(signs.pop())
            return (tuple(a),)
    return None


def _refutation_lp(r: RelationMatrix, relations: Sequence[Sequence[Fraction]],
                   strict_cells: Sequence[tuple[int, int]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """:func:`_refutation` by an LP, for any number of relations.

    Maximize ``sum u`` subject to ``s_ij Z_ij - u_ij = 0`` on each of
    ``strict_cells``, the pattern's non-``=`` cells, and
    ``sum u + w = 1``, over ``a`` and the ``b_l``, each split into plus
    and minus parts, then ``u >= 0`` and ``w >= 0``.  Each
    relation enters by its integer numerators over its denominator
    ``d_l``, so the LP's ``b_l`` is the refutation's over ``d_l``.  The
    point ``Z = 0``, ``w = 1`` is feasible and the last row bounds the
    objective, so the LP has an optimum, reached by a crossover from that
    point: 1 when a refutation exists, else 0.
    """
    n = r.n
    lams = [_to_row(lam) for lam in relations]
    free = n * (1 + len(lams))  # a, then each b_l, n values apiece

    def z_ij(i: int, j: int, s: int) -> list[tuple[int, int]]:
        """The terms of ``s * Z_ij = s * (a_i + sum_l lam_l[i] b_l[j])``; each
        free value ``f`` is column ``f`` minus column ``free + f``."""
        terms = [(i, s)] + [((1 + l) * n + j, s * ints[i])
                            for l, (ints, _) in enumerate(lams) if ints[i]]
        return [t for f, c in terms for t in ((f, c), (free + f, -c))]

    u = 2 * free
    nvars = u + len(strict_cells) + 1  # w last
    rows = [_row(nvars, z_ij(i, j, r[i, j].sign) + [(u + idx, -1)])
            for idx, (i, j) in enumerate(strict_cells)]
    rows.append(_row(nvars, [(u + idx, 1) for idx in range(len(strict_cells))] + [(nvars - 1, 1)], 1))
    objective = (0,) * u + (1,) * len(strict_cells) + (0,)
    outcome = _certified_solve(_Objective(objective, start=(0,) * (nvars - 1) + (1,)), rows)
    assert outcome.status is LpStatus.OPTIMAL, "Z = 0 and w = 1 meet every row; the last bounds u"
    assert outcome.witness is not None
    if outcome.value == 0:
        return None
    x = outcome.witness
    values = [x[v] - x[free + v] for v in range(free)]
    return (tuple(values[:n]),) + tuple(
        tuple(d * y for y in values[(1 + l) * n:(2 + l) * n]) for l, (_, d) in enumerate(lams))


def verify_refutation(refutation: Sequence[Sequence[Fraction]], r: RelationMatrix,
                      relations: Sequence[Sequence[Fraction]]) -> bool:
    """True when ``refutation = (a, b_1, ..., b_L)`` proves that no proper
    goal matrix has the sign pattern ``r``.

    ``Z = a 1^T + sum_l relations[l] b_l^T`` is orthogonal to every proper
    ``K`` (zero row sums, every relation annihilating every column), so
    ``s_ij Z_ij >= 0`` on every strict cell, ``> 0`` on at least one,
    leaves no ``K`` with ``s_ij K_ij > 0`` there and 0 on "=" cells.
    """
    n = r.n
    if len(refutation) != 1 + len(relations) or any(
            len(v) != n for v in (*refutation, *relations)):
        raise ValueError("refutation, relation and relation matrix sizes differ")
    a, *bs = refutation
    signed = [r[i, j].sign * (a[i] + sum(lam[i] * b[j] for lam, b in zip(relations, bs)))
              for i in range(n) for j in range(n)]
    return all(x >= 0 for x in signed) and any(x > 0 for x in signed)


def verify_relation_solution(k: GoalMatrix, r: RelationMatrix,
                             relations: Sequence[Sequence[Fraction]]) -> bool:
    """True when ``k`` is proper and matches the sign pattern entrywise."""
    if k.n != r.n:
        raise ValueError("goal matrix and relation matrix sizes differ")
    if not is_proper(k, relations):
        return False
    return all(r[i, j].matches(k.mat[i, j]) for i in range(r.n) for j in range(r.n))
