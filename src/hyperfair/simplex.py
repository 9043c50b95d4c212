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
rows of ``[A | b]`` laid out by :func:`_row`; an :class:`LpProblem` is
converted to such rows once, on entry, and goes to the same integer-row
core.  ``b`` may have either sign: phase 1 negates the rows where it is
negative.  Fractions appear in the :class:`LpOutcome` coming out, so the
reported optimum and witness are exact.

:func:`simplex_solve` is that exact method, kept as the reference.
:func:`certified_solve` answers the same problems faster, and both of
the package's LPs go to its integer-row core, :func:`_certified_solve`.
A float run of the same two phases, from the same starting basis under
Bland's rule, gives only its final basis.  An LP handed over with a
feasible ``start`` point (the max-margin weight LP's, see
:func:`hyperfair.partition.solve_alpha`) skips phase 1 by a crossover
(Megiddo's purification): in floats, the point's support columns are
pivoted into a basis, each nonbasic one then moves to 0 along its
tableau column, swapping places with a basic column that reaches 0
first, and Bland's phase 2 runs from the vertex this ends on.  If the
floats lose the point on the way, the two phases run instead.  One
exact forward elimination on the final basis's columns of ``[A | b]``
certifies it: the rows it leaves over must vanish, the basic values,
back-substituted, must be nonnegative and every reduced cost must have
the optimal sign.  A certified basis gives the exact vertex and value,
Bland's own whenever the two phases ran and the float comparisons
agreed with the exact ones; anything uncertified, and every infeasible
or unbounded float verdict, comes from :func:`simplex_solve`.  So
floats only pick the basis to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .linalg import RatMatrix, _eliminate, _lowest_terms, _pivot_at, _pivot_on, _Row, _support, _to_row, _unit_at


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
    """The objective of an LP handed over as integer rows, one coefficient per column.

    ``start``, when given, is a feasible point of the rows, one float per
    column, from which the float stage crosses over to a vertex.
    """

    objective: tuple[int, ...]
    maximize: bool = True
    start: tuple[float, ...] | None = None


_Goal = LpProblem | _Objective  # the integer-row core reads objective and maximize


#: Tolerance of every sign test and ratio tie in :func:`certified_solve`'s
#: float stage.
_EPS = 1e-9

#: Pivot limit of the float stage's Bland iterations: of phase 2 after a
#: crossover, of both phases together otherwise.  A 12-player weight LP
#: on 16 cells takes 1,148 and 1,745 Bland pivots at half the margin
#: bound (``random_roundtrip`` seeds 1 and 2), and some 190 crossover
#: and phase-2 pivots at the maximum margin.  A float run that would
#: take more (it may cycle where exact Bland cannot) hands the problem
#: to :func:`simplex_solve`.
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
    # Row i is zero at the basic columns of earlier rows (in a unit or a
    # triangular tableau), so clearing column bi keeps those cleared.
    cost: _Row = (c + [0], 1)
    for row, bi in zip(rows, basis):
        if cost[0][bi] != 0:
            cost = _eliminate(cost, row, bi, _support(row[0]))
    return cost


def _row(nvars: int, terms: Iterable[tuple[int, int]], rhs: int = 0, d: int = 1) -> _Row:
    """The integer row of ``[A | b]`` over ``d`` with the ``(column, numerator)``
    ``terms`` in its ``nvars`` columns and numerator ``rhs`` last."""
    v = [0] * (nvars + 1)
    for j, x in terms:
        v[j] = x
    v[-1] = rhs
    return v, d


def _equality_rows(problem: LpProblem) -> list[_Row]:
    """The integer rows of ``[A | b]``."""
    return [_to_row(problem.constraints.row(i) + (problem.rhs[i],))
            for i in range(problem.constraints.rows)]


def _phase1_tableau(base: list[_Row], nvars: int) -> tuple[list[_Row], list[int]]:
    """Phase-1 rows (real columns, artificial columns, rhs) and starting basis.

    Rows of ``base`` with ``b < 0`` are negated first.  Rows whose
    right-hand side lines up with a singleton column (one nonzero in the
    whole column) can start basic in that column; everything else gets
    an artificial variable, numbered in row order.
    """
    base = [([-x for x in v], d) if v[-1] < 0 else (v, d) for v, d in base]
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


def _vertex(goal: _Goal, basis: list[int], values: Iterable[Fraction]) -> LpOutcome:
    """The basic point with ``values`` in the basic columns ``basis``, in order."""
    x = [Fraction(0)] * len(goal.objective)
    for bi, value in zip(basis, values):
        x[bi] = value
    value = sum((goal.objective[bi] * x[bi] for bi in basis if goal.objective[bi]), Fraction(0))
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
    """:func:`simplex_solve` on the integer rows ``base`` of ``[A | b]``, ``b`` of either sign."""
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
    return _vertex(goal, basis, (Fraction(v[-1], d) for v, d in rows))


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


def _crossover(base: list[_Row], start: tuple[float, ...], c: list[float]) -> list[int] | None:
    """Bland's phase-2 basis of min ``c . x`` over the rows ``base``, from the
    feasible point ``start``, in floats; ``None`` if the floats lose it.

    Each row pivots on its largest entry in a support column of ``start``
    not yet basic, else in a zero-valued one, and is dropped as redundant
    without either.  Each nonbasic support column then moves to 0 along
    its tableau column, the basic values following; a basic value that
    reaches 0 first leaves, and the column enters in its row.
    """
    nvars = len(start)
    rows = [[x / d for x in v] for v, d in base]
    basis = [-1] * len(rows)
    support = [j for j in range(nvars) if start[j] > 0.0]
    zeros = [j for j in range(nvars) if start[j] == 0.0]
    for r, row in enumerate(rows):
        for columns in (support, zeros):
            col = max(columns, key=lambda j: abs(row[j]), default=None)
            if col is not None and abs(row[col]) > _EPS:
                columns.remove(col)
                _float_pivot(rows, basis, None, r, col)
                break
    rows = [row for row, bi in zip(rows, basis) if bi >= 0]
    basis = [bi for bi in basis if bi >= 0]
    x = list(start)
    for j in support:  # the support columns left nonbasic
        leaving, step = None, x[j]
        for i, row in enumerate(rows):
            if row[j] < -_EPS and x[basis[i]] / -row[j] < step:
                leaving, step = i, x[basis[i]] / -row[j]
        for row, bi in zip(rows, basis):
            x[bi] += row[j] * step
        x[j] -= step
        if leaving is not None:
            x[basis[leaving]] = 0.0
            _float_pivot(rows, basis, None, leaving, j)
    if any(row[-1] < -_EPS for row in rows):
        return None
    status, _ = _float_iterate(rows, basis, _float_costs(rows, basis, c), nvars, _FLOAT_PIVOTS)
    return basis if status == "optimal" else None


def _float_basis(goal: _Goal, base: list[_Row]) -> list[int] | None:
    """Bland's final basis of ``goal`` over the rows ``base``, found in floats.

    With a ``start`` point on the goal, the :func:`_crossover` basis.
    Otherwise, or if that one is lost, the crash columns, artificials and
    entering, leaving and drive-out rules are :func:`simplex_solve`'s.
    ``None`` when the floats end infeasible, unbounded or at the pivot
    limit ``_FLOAT_PIVOTS``; ``OverflowError`` on an entry beyond float
    range.
    """
    nvars = len(goal.objective)
    sense = -1.0 if goal.maximize else 1.0
    c = [sense * float(x) for x in goal.objective]
    start = getattr(goal, "start", None)
    if start is not None:
        basis = _crossover(base, start, c)
        if basis is not None:
            return basis
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

    ``linalg._pivot_on`` eliminates forward, and every column must pivot;
    back-substitution keeps the basic values over one common denominator
    in lowest terms, and the min-form cost row is cleared in basis order.
    """
    nvars, m = len(goal.objective), len(basis)
    if not all(0 <= j < nvars for j in basis):
        return None
    # Sparse columns first, each on the densest free row: the vertex is the
    # same in any order, and this one keeps the elimination's fill small.
    rows = sorted(base, key=lambda row: -sum(map(bool, row[0])))
    basis = sorted(basis, key=lambda j: sum(1 for v, _ in rows if v[j]))
    if _pivot_on(rows, basis, below=True) != basis or any(any(v) for v, _ in rows[m:]):
        return None
    x, den = [0] * m, 1  # x[k] / den is the basic value of row k, once swept
    for r in reversed(range(m)):
        v, d = rows[r]
        num = v[-1] * den - sum(v[basis[k]] * x[k] for k in range(r + 1, m))
        if num < 0:
            return None
        q = d * den // math.gcd(num, d * den)  # the denominator of x_r = num / (d den)
        s = q // math.gcd(den, q)  # den * s = lcm(den, q)
        if s != 1:
            x = [e * s for e in x]
        x[r], den = num * s // d, den * s
    cost, _ = _reduced_costs(rows, basis, _min_costs(goal))  # zip stops at row m
    if any(c < 0 for c in cost[:nvars]):
        return None
    return _vertex(goal, basis, (Fraction(e, den) for e in x))


def certified_solve(problem: LpProblem) -> LpOutcome:
    """:func:`simplex_solve`'s answer, with the basis searched in floats.

    Status and value always equal :func:`simplex_solve`'s, and so does
    the witness whenever the float run ends on Bland's basis.
    """
    return _certified_solve(problem, _equality_rows(problem))


def _certified_solve(goal: _Goal, base: list[_Row]) -> LpOutcome:
    """:func:`certified_solve` on the integer rows ``base`` of ``[A | b]``, ``b`` of either sign.

    Only the fallback builds an :class:`LpProblem` from the rows, so
    that every uncertified LP still goes through :func:`simplex_solve`.
    """
    try:
        basis = _float_basis(goal, base)
    except OverflowError:
        basis = None
    outcome = None if basis is None else _certify(goal, base, basis)
    return outcome if outcome is not None else simplex_solve(_problem(goal, base))
