"""Exact two-phase simplex over the rationals.

Problems are stated in standard equality form: optimize ``c . x``
subject to ``A x = b`` and ``x >= 0``.  All pivoting uses Bland's rule
(smallest eligible index enters, smallest basic index breaks ratio
ties), which rules out cycling.

The tableau is fraction-free: each row, the cost row included, is one
of :mod:`hyperfair.linalg`'s integer rows, a list of Python ints ``v``
with one positive int denominator ``d`` standing for ``v / d``, and a
pivot uses the row operations that :func:`hyperfair.linalg.rref` also
runs.  Each cross-multiplies in the pivot row's nonzero columns, scales
the rest, and then divides the row by one ``gcd``,
so every sign test and ratio comparison of Bland's rule is an integer
comparison and the pivot sequence is the one a Fraction tableau takes.
Fractions appear only at the boundary: the
:class:`LpProblem` going in and the :class:`LpOutcome` coming out, so
the reported optimum and witness are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .linalg import RatMatrix, _eliminate, _lowest_terms, _Row, _support, _to_row, _unit_at


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min or max of ``objective . x`` over ``constraints @ x = rhs``, ``x >= 0``."""

    objective: tuple[Fraction, ...]
    constraints: RatMatrix
    rhs: tuple[Fraction, ...]
    maximize: bool = True

    def __post_init__(self) -> None:
        if len(self.objective) != self.constraints.cols:
            raise ValueError("objective length does not match variable count")
        if len(self.rhs) != self.constraints.rows:
            raise ValueError("rhs length does not match constraint count")


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


def _pivot(rows: list[_Row], basis: list[int], cost: _Row | None,
           row: int, col: int) -> _Row | None:
    rows[row] = pivot_row = _unit_at(rows[row][0], col)
    support = _support(pivot_row[0])
    for i, other in enumerate(rows):
        if i != row and other[0][col] != 0:
            rows[i] = _eliminate(other, pivot_row, col, support)
    basis[row] = col
    if cost is not None and cost[0][col] != 0:
        cost = _eliminate(cost, pivot_row, col, support)
    return cost


def _iterate(rows: list[_Row], basis: list[int], cost: _Row, ncols: int) -> tuple[str, _Row]:
    # cost is the reduced-cost row (length ncols + 1, last slot tracks
    # minus the current objective value); minimization throughout.
    while True:
        entering = next((j for j in range(ncols) if cost[0][j] < 0), None)
        if entering is None:
            return "optimal", cost
        # Ratios rhs / entry compare by cross-multiplying; the row
        # denominators cancel and every entry compared is positive.
        leaving, best_num, best_den = None, 0, 1
        for i, (v, _) in enumerate(rows):
            a = v[entering]
            if a > 0:
                ours, best = v[-1] * best_den, best_num * a
                if leaving is None or ours < best or (ours == best and basis[i] < basis[leaving]):
                    leaving, best_num, best_den = i, v[-1], a
        if leaving is None:
            return "unbounded", cost
        cost = _pivot(rows, basis, cost, leaving, entering)


def _reduced_costs(rows: list[_Row], basis: list[int], c: list[int]) -> _Row:
    # Every basic column is a unit column of the tableau, so the cost
    # entry of basic column bi still equals c[bi] when row i comes up.
    cost: _Row = (c + [0], 1)
    for row, bi in zip(rows, basis):
        if c[bi] != 0:
            cost = _eliminate(cost, row, bi, _support(row[0]))
    return cost


def simplex_solve(problem: LpProblem) -> LpOutcome:
    """Solve an exact LP; the witness (when optimal) is a basic feasible point."""
    nvars = problem.constraints.cols
    nrows = problem.constraints.rows
    sense = -1 if problem.maximize else 1
    # A positive multiple of the objective prices every column the same.
    c_internal, _ = _to_row([sense * x for x in problem.objective])

    # Phase 1.  Rows whose right-hand side lines up with a singleton
    # column (one nonzero in the whole column) can start basic in that
    # column; everything else gets an artificial variable whose sum is
    # minimized.  Each row carries its right-hand side as last entry.
    base: list[_Row] = []
    for i in range(nrows):
        values = list(problem.constraints.row(i)) + [problem.rhs[i]]
        if problem.rhs[i] < 0:
            values = [-x for x in values]
        base.append(_to_row(values))
    nonzeros = [0] * nvars
    for v, _ in base:
        for j in range(nvars):
            if v[j] != 0:
                nonzeros[j] += 1
    crash: list[int | None] = []
    for i, (v, _) in enumerate(base):
        # rhs / entry >= 0 with rhs >= 0: a zero rhs or a positive entry
        col = next(
            (j for j in range(nvars)
             if v[j] != 0 and nonzeros[j] == 1 and (v[-1] == 0 or v[j] > 0)),
            None,
        )
        crash.append(col)
        if col is not None:
            base[i] = _unit_at(v, col)

    art_slot = {i: k for k, i in enumerate(
        i for i, col in enumerate(crash) if col is None)}
    narts = len(art_slot)
    rows: list[_Row] = []
    basis: list[int] = []
    for i, (v, d) in enumerate(base):
        unit = [0] * narts
        if crash[i] is None:
            unit[art_slot[i]] = d
            basis.append(nvars + art_slot[i])
        else:
            basis.append(crash[i])
        rows.append((v[:-1] + unit + v[-1:], d))
    cost = _reduced_costs(rows, basis, [0] * nvars + [1] * narts)
    status, cost = _iterate(rows, basis, cost, nvars + narts)
    assert status == "optimal", "phase 1 is bounded below by zero"
    if cost[0][-1] != 0:
        return LpOutcome(LpStatus.INFEASIBLE)

    # Drive leftover artificials out of the basis; a row where that is
    # impossible is redundant and gets dropped.
    drop: list[int] = []
    for i in range(len(rows)):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if rows[i][0][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(rows, basis, None, i, col)
    for i in reversed(drop):
        del rows[i]
        del basis[i]
    rows = [_lowest_terms(v[:nvars] + v[-1:], d) for v, d in rows]

    # Phase 2 on the real objective.
    cost = _reduced_costs(rows, basis, c_internal)
    status, _ = _iterate(rows, basis, cost, nvars)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)
    x = [Fraction(0)] * nvars
    for (v, d), bi in zip(rows, basis):
        x[bi] = Fraction(v[-1], d)
    (value,) = RatMatrix(1, nvars, tuple(problem.objective)).mat_vec(x)
    return LpOutcome(LpStatus.OPTIMAL, value, tuple(x))
