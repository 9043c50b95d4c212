"""Exact two-phase simplex over the rationals.

Problems are stated in standard equality form: optimize ``c . x``
subject to ``A x = b`` and ``x >= 0``.  All pivoting uses Bland's rule
(smallest eligible index enters, smallest basic index breaks ratio
ties), which rules out cycling.

The tableau is fraction-free: each row, the cost row included, is one
of :mod:`hyperfair.linalg`'s integer rows, a list of Python ints ``v``
with one positive int denominator ``d`` standing for ``v / d``, and
every pivot, here and in the certificate below, is ``linalg``'s one
pivot routine, the one :func:`hyperfair.linalg.rref` runs.  So every
sign test and ratio comparison of Bland's rule is an integer
comparison and the pivot sequence is the one a Fraction tableau takes.
The package's own LPs, the weight LP and the sign LP, enter as integer
rows of ``[A | b]`` built by their callers; an :class:`LpProblem` is
converted to such rows once, on entry, and goes to the same integer-row
core.  Fractions appear in the :class:`LpOutcome` coming out, so the
reported optimum and witness are exact, and in the :class:`LpProblem`
rebuilt from an uncertified integer-row LP for its exact fallback.

:func:`simplex_solve` is that exact method.  :func:`certified_solve`
answers the same problems faster: it runs the same two phases, with the
same starting basis and Bland's rule, on floats, and takes from them
only the final basis.  One exact Gauss-Jordan elimination on the integer
rows of ``[A | b]`` then certifies that basis: the rows it leaves over
must vanish, the basic values must be nonnegative and every reduced
cost must have the optimal sign.  A certified basis gives the exact
vertex and value, Bland's own whenever the float comparisons agreed
with the exact ones; anything uncertified, and every infeasible or
unbounded verdict, comes from :func:`simplex_solve` run from scratch.
So floats only pick which basis to test, and every answer is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .linalg import RatMatrix, _eliminate, _lowest_terms, _pivot_at, _Row, _support, _to_row, _unit_at


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


class _Objective(NamedTuple):
    """The objective of an LP handed over as integer rows, one coefficient per column."""

    objective: tuple[int, ...]
    maximize: bool = True


_Goal = LpProblem | _Objective  # the integer-row core reads objective and maximize


#: Tolerance of every sign test and ratio tie in :func:`certified_solve`'s
#: float stage.  It only steers which basis gets certified.
_EPS = 1e-9

#: Pivot limit of :func:`certified_solve`'s float stage, some 20 times
#: the Bland pivots of a 12-player max-margin weight LP on 16 cells; a
#: float run that would take more (it may cycle where exact Bland
#: cannot) hands the problem to :func:`simplex_solve`.
_FLOAT_PIVOTS = 20_000


def _pivot(rows: list[_Row], basis: list[int], cost: _Row | None,
           row: int, col: int) -> _Row | None:
    support = _pivot_at(rows, row, col)
    basis[row] = col
    if cost is not None and cost[0][col] != 0:
        cost = _eliminate(cost, rows[row], col, support)
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


def _equality_rows(problem: LpProblem) -> list[_Row]:
    """The integer rows of ``[A | b]``, each negated where ``b`` is negative."""
    rows = []
    for i in range(problem.constraints.rows):
        values = list(problem.constraints.row(i)) + [problem.rhs[i]]
        if problem.rhs[i] < 0:
            values = [-x for x in values]
        rows.append(_to_row(values))
    return rows


def _phase1_tableau(base: list[_Row], nvars: int) -> tuple[list[_Row], list[int]]:
    """Phase-1 rows (real columns, artificial columns, rhs) and starting basis.

    Rows whose right-hand side lines up with a singleton column (one
    nonzero in the whole column) can start basic in that column;
    everything else gets an artificial variable, numbered in row order.
    """
    nonzeros = [0] * nvars
    for v, _ in base:
        for j in range(nvars):
            if v[j] != 0:
                nonzeros[j] += 1
    crash: list[int | None] = []
    start: list[_Row] = []
    for v, d in base:
        # rhs / entry >= 0 with rhs >= 0: a zero rhs or a positive entry
        col = next(
            (j for j in range(nvars)
             if v[j] != 0 and nonzeros[j] == 1 and (v[-1] == 0 or v[j] > 0)),
            None,
        )
        crash.append(col)
        start.append((v, d) if col is None else _unit_at(v, col))

    art_slot = {i: k for k, i in enumerate(
        i for i, col in enumerate(crash) if col is None)}
    narts = len(art_slot)
    rows: list[_Row] = []
    basis: list[int] = []
    for i, (v, d) in enumerate(start):
        unit = [0] * narts
        if crash[i] is None:
            unit[art_slot[i]] = d
            basis.append(nvars + art_slot[i])
        else:
            basis.append(crash[i])
        rows.append((v[:-1] + unit + v[-1:], d))
    return rows, basis


def _vertex(goal: _Goal, rows: list[_Row], basis: list[int]) -> LpOutcome:
    """The basic point of ``basis`` (row ``i`` holding basic column ``basis[i]``)."""
    nvars = len(goal.objective)
    x = [Fraction(0)] * nvars
    for (v, d), bi in zip(rows, basis):
        x[bi] = Fraction(v[-1], d)
    (value,) = RatMatrix(1, nvars, tuple(goal.objective)).mat_vec(x)
    return LpOutcome(LpStatus.OPTIMAL, value, tuple(x))


def _min_costs(goal: _Goal) -> list[int]:
    """Integer costs of the objective in min form.

    They are a positive multiple of it, which prices every column the same.
    """
    sense = -1 if goal.maximize else 1
    return _to_row([sense * x for x in goal.objective])[0]


def _problem(goal: _Goal, rows: list[_Row]) -> LpProblem:
    """``goal`` over the integer rows ``rows`` as an :class:`LpProblem`."""
    if isinstance(goal, LpProblem):
        return goal
    return LpProblem(
        tuple(map(Fraction, goal.objective)),
        RatMatrix(len(rows), len(goal.objective),
                  tuple(Fraction(x, d) for v, d in rows for x in v[:-1])),
        tuple(Fraction(v[-1], d) for v, d in rows),
        goal.maximize,
    )


def simplex_solve(problem: LpProblem) -> LpOutcome:
    """Solve an exact LP; the witness (when optimal) is a basic feasible point."""
    return _solve(problem, _equality_rows(problem))


def _solve(goal: _Goal, base: list[_Row]) -> LpOutcome:
    """:func:`simplex_solve` on the integer rows ``base`` of ``[A | b]``, with ``b >= 0``."""
    nvars = len(goal.objective)

    # Phase 1 minimizes the sum of the artificials.  Each row carries
    # its right-hand side as last entry.
    rows, basis = _phase1_tableau(base, nvars)
    narts = len(rows[0][0]) - nvars - 1 if rows else 0
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
    cost = _reduced_costs(rows, basis, _min_costs(goal))
    status, _ = _iterate(rows, basis, cost, nvars)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)
    return _vertex(goal, rows, basis)


# -- the float stage and the exact certificate of certified_solve --------

def _float_pivot(rows: list[list[float]], basis: list[int], cost: list[float] | None,
                 row: int, col: int) -> None:
    """:func:`_pivot` on float rows, updating them and ``cost`` in place."""
    a = rows[row][col]
    rows[row] = pivot_row = [x / a for x in rows[row]]
    # as in linalg's _eliminate, only the pivot row's nonzero columns change
    nonzero = [(j, y) for j, y in enumerate(pivot_row) if y != 0.0]
    for other in rows if cost is None else rows + [cost]:
        f = other[col]
        if f != 0.0 and other is not pivot_row:
            for j, y in nonzero:
                other[j] -= f * y
    basis[row] = col


def _float_iterate(rows: list[list[float]], basis: list[int], cost: list[float],
                   ncols: int, budget: int) -> tuple[str, int]:
    """:func:`_iterate` on floats, with sign tests and ratio ties up to ``_EPS``.

    Stops with ``"capped"`` rather than take pivot ``budget + 1``;
    returns the status and the pivots left.
    """
    while True:
        entering = next((j for j in range(ncols) if cost[j] < -_EPS), None)
        if entering is None:
            return "optimal", budget
        leaving, best = None, 0.0
        for i, row in enumerate(rows):
            a = row[entering]
            if a > _EPS:
                ratio = row[-1] / a
                if (leaving is None or ratio < best - _EPS
                        or (ratio <= best + _EPS and basis[i] < basis[leaving])):
                    leaving, best = i, ratio
        if leaving is None:
            return "unbounded", budget
        if budget == 0:
            return "capped", budget
        budget -= 1
        _float_pivot(rows, basis, cost, leaving, entering)


def _float_costs(rows: list[list[float]], basis: list[int], c: list[float]) -> list[float]:
    cost = c + [0.0]
    for row, bi in zip(rows, basis):
        f = cost[bi]
        if f != 0.0:
            cost = [x - f * y for x, y in zip(cost, row)]
    return cost


def _float_basis(goal: _Goal, base: list[_Row]) -> list[int] | None:
    """Bland's final basis of ``goal`` over the rows ``base``, found in floats.

    Runs :func:`simplex_solve` step for step on floats: the same crash
    columns and artificials, the same entering, leaving and drive-out
    rules, phase 2 on the rows kept.  Returns the basic columns, or
    ``None`` when the floats end infeasible, unbounded or at the pivot
    limit ``_FLOAT_PIVOTS``.  A guess without guarantee; raises
    ``OverflowError`` on an entry beyond float range.
    """
    nvars = len(goal.objective)
    sense = -1.0 if goal.maximize else 1.0
    c = [sense * float(x) for x in goal.objective]
    exact_rows, basis = _phase1_tableau(base, nvars)
    rows = [[x / d for x in v] for v, d in exact_rows]
    ncols = len(rows[0]) - 1 if rows else nvars
    cost = _float_costs(rows, basis, [0.0] * nvars + [1.0] * (ncols - nvars))
    status, budget = _float_iterate(rows, basis, cost, ncols, _FLOAT_PIVOTS)
    if status != "optimal" or cost[-1] < -_EPS:
        return None
    keep = []
    for i in range(len(rows)):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if abs(rows[i][j]) > _EPS), None)
            if col is None:
                continue
            _float_pivot(rows, basis, None, i, col)
        keep.append(i)
    rows = [rows[i][:nvars] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    status, _ = _float_iterate(rows, basis, _float_costs(rows, basis, c), nvars, budget)
    return basis if status == "optimal" else None


def _certify(goal: _Goal, base: list[_Row], basis: list[int]) -> LpOutcome | None:
    """The exact optimum at ``basis``, or ``None`` if ``basis`` is not optimal.

    One Gauss-Jordan pass over the integer rows ``base`` of ``[A | b]``
    pivots on each basic column in turn, as :func:`rref` does: in the
    first row not yet pivoted that has a nonzero entry there, swapped up
    to the next place.  The basis is accepted only if the rows left over
    vanish (right-hand side included), every basic value is nonnegative
    and every reduced cost of the objective in min form is nonnegative.
    """
    nvars = len(goal.objective)
    if len(set(basis)) != len(basis) or not all(0 <= j < nvars for j in basis):
        return None
    rows = list(base)
    for k, col in enumerate(basis):
        r = next((i for i in range(k, len(rows)) if rows[i][0][col] != 0), None)
        if r is None:
            return None
        rows[k], rows[r] = rows[r], rows[k]
        _pivot_at(rows, k, col)
    if any(any(v) for v, _ in rows[len(basis):]):
        return None
    rows = rows[:len(basis)]
    if any(v[-1] < 0 for v, _ in rows):
        return None
    cost, _ = _reduced_costs(rows, basis, _min_costs(goal))
    if any(x < 0 for x in cost[:nvars]):
        return None
    return _vertex(goal, rows, basis)


def certified_solve(problem: LpProblem) -> LpOutcome:
    """:func:`simplex_solve`'s answer, with the basis searched in floats.

    Status and value always equal :func:`simplex_solve`'s, and so does
    the witness whenever the float run ends on Bland's basis.  Only an
    optimal basis that one exact elimination certifies is taken from the
    float stage; everything else is solved by :func:`simplex_solve`.
    """
    return _certified_solve(problem, _equality_rows(problem))


def _certified_solve(goal: _Goal, base: list[_Row]) -> LpOutcome:
    """:func:`certified_solve` on the integer rows ``base`` of ``[A | b]``, with ``b >= 0``.

    Only the fallback builds an :class:`LpProblem` from the rows, so
    that every uncertified LP still goes through :func:`simplex_solve`.
    """
    try:
        basis = _float_basis(goal, base)
    except OverflowError:
        basis = None
    outcome = None if basis is None else _certify(goal, base, basis)
    return outcome if outcome is not None else simplex_solve(_problem(goal, base))
