"""Exact two-phase simplex over the rationals.

Problems are stated in standard equality form: optimize ``c . x``
subject to ``A x = b`` and ``x >= 0``.  All pivoting uses Bland's rule
(smallest eligible index enters, smallest basic index breaks ratio
ties), which rules out cycling.

Bland's rule is written once, as :func:`_run` over :func:`_crossover`,
:func:`_two_phase`, :func:`_pivot` and :func:`_iterate`, for rows of
either number type: on floats, with the tolerance ``_EPS`` and the pivot
limit ``_FLOAT_PIVOTS``, it is the float stage below; on Fractions, with
tolerance 0 and no pivot limit, it is exact, and every sign test and
ratio comparison with it.  The package's own LPs, the weight LP and the
two sign LPs, enter as :mod:`hyperfair.linalg`'s integer rows of ``[A | b]``
(a list of Python ints ``v`` with one positive int denominator ``d``
standing for ``v / d``) laid out by :func:`_row`, with an
:class:`_Objective`; an :class:`LpProblem` is converted to that form
once, by :func:`_integer_lp` in :func:`simplex_solve` and
:func:`certified_solve`, and goes to the same core.  ``b`` may have
either sign: phase 1 negates the rows where it is negative.  The
reported optimum and witness are exact Fractions.

An LP handed over with a feasible ``start`` point (the weight LP's, at
every margin, see :func:`hyperfair.partition.solve_alpha`, and the sign
pattern's alternative LP's, see :mod:`hyperfair.relations`) skips phase 1
by a crossover (Megiddo's purification), in either arithmetic: the
point's support columns are pivoted into a basis, each nonbasic one then
moves to 0 along its tableau column, swapping places with a basic column
that reaches 0 first, and Bland's phase 2 runs from the vertex this ends
on.  Phase 1 runs only for an LP without a start point, or after an
exact crossover that ends infeasible, which a start point off the rows
gives.

:func:`simplex_solve` is the exact run from phase 1, kept as the
reference.  :func:`certified_solve` answers the same problems faster,
and the package's LPs go to its integer-row core,
:func:`_certified_solve`.  The float run gives only its final basis; a
float run that loses its start point, as floats may, gives none, and so
does one that ends infeasible, unbounded or at the pivot limit.  One
exact forward elimination on the final basis's columns of ``[A | b]``,
by ``linalg._pivot_on`` on the integer rows, certifies it: the rows it
leaves over must vanish, the basic values, back-substituted, must be
nonnegative and every reduced cost must have the optimal sign.  A
certified basis gives the exact vertex and value, Bland's own whenever
the two phases ran and the float comparisons agreed with the exact
ones; anything uncertified or not found comes from the exact run on the
same rows, :func:`_solve`, which answers an LP with a start point from
its exact crossover's vertex, with no phase 1.  So floats only pick the
basis to test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .linalg import RatMatrix, _eliminate, _pivot_on, _Row, _support, _to_row, _unit_at


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

    The package's LPs state it in ints, an :class:`LpProblem` in Fractions.
    ``start``, when given, is a feasible point of the rows, exact, one
    value per column, from which both the float run and the exact one
    cross over to a vertex.
    """

    objective: tuple[int | Fraction, ...]
    maximize: bool = True
    start: tuple[int | Fraction, ...] | None = None


#: Tolerance of every sign test and ratio tie in :func:`certified_solve`'s
#: float stage.
_EPS = 1e-9

#: Pivot limit of the float stage's Bland iterations: of phase 2 after a
#: crossover, of both phases together otherwise.  Both phases run for an
#: LP without a start point, the primal sign-pattern LP and a problem
#: handed to :func:`certified_solve`.  The primal sign-pattern LP runs on
#: feasible patterns only, and took at most 64 Bland pivots on the
#: benchmark's feasible 4-player patterns and 391 on the 16-player
#: super-envy-free pattern without relations.  A 12-player weight LP on
#: 16 cells takes some 190 crossover and phase-2 pivots at any margin,
#: and the alternative LP of a 16-player super-envy-free pattern under
#: one random integer relation about 260 crossover and 50 to 70 phase-2
#: pivots.  A float run that would take more (it may cycle where exact
#: Bland cannot) hands the problem to the exact :func:`_solve`.  A capped
#: run costs 10 to 19 s of float pivots on a 145 x 265 alternative LP (the
#: 12-player pattern of ``scripts/lp_ladder.py``'s dependent rung, on a
#: shared 2-vCPU host), and the exact run then crosses over and takes 537
#: phase-2 pivots in 9 to 15 s, where a restart from phase 1 took 155 to
#: 175 s.
_FLOAT_PIVOTS = 20_000


def _pivot(rows: list[list], basis: list[int], cost: list | None, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: divide the row by its entry there and
    clear the column from the other rows and from ``cost``, in place."""
    a = rows[row][col]
    rows[row] = pivot_row = [x / a if x else x for x in rows[row]]
    # as in linalg's _eliminate, only the pivot row's nonzero columns change
    nonzero = [(j, y) for j, y in enumerate(pivot_row) if y]
    for other in rows if cost is None else rows + [cost]:
        f = other[col]
        if f and other is not pivot_row:
            for j, y in nonzero:
                other[j] -= f * y
    basis[row] = col


def _iterate(rows: list[list], basis: list[int], cost: list, ncols: int,
             eps: float, budget: float) -> tuple[str, float]:
    """Bland's iterations on the first ``ncols`` columns, minimizing, with
    sign tests and ratio ties up to ``eps``.

    ``cost`` is the reduced-cost row (length ncols + 1, its last slot
    minus the current objective value).  Stops with ``"capped"`` rather
    than take pivot ``budget + 1``; returns the status and the pivots left.
    """
    while True:
        entering = next((j for j in range(ncols) if cost[j] < -eps), None)
        if entering is None:
            return "optimal", budget
        leaving = lo = hi = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > eps:
                ratio = row[-1] / a
                if leaving is None or ratio < lo or (ratio <= hi and basis[i] < basis[leaving]):
                    leaving, lo, hi = i, ratio - eps, ratio + eps
        if leaving is None:
            return "unbounded", budget
        if budget == 0:
            return "capped", budget
        budget -= 1
        _pivot(rows, basis, cost, leaving, entering)


def _costs(rows: list[list], basis: list[int], c: list) -> list:
    """The reduced-cost row of the costs ``c`` in the unit tableau ``rows``."""
    cost = c + [0]
    for row, bi in zip(rows, basis):
        f = cost[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, row)]
    return cost


def _two_phase(rows: list[list], basis: list[int], nvars: int, c: list,
               eps: float, budget: float) -> tuple[str, list[list], list[int]]:
    """Bland's two phases from :func:`_phase1_tableau`'s rows and basis, in
    floats or Fractions, minimizing ``c . x`` over the ``nvars`` real columns.

    Phase 1 minimizes the sum of the artificials; a row still basic on an
    artificial then pivots on its first nonzero real column, or is dropped
    as redundant without one.  Returns the status (``"infeasible"``,
    ``"unbounded"``, ``"capped"`` past ``budget`` pivots, or ``"optimal"``)
    and the final rows and basis.
    """
    ncols = len(rows[0]) - 1 if rows else nvars
    cost = _costs(rows, basis, [0] * nvars + [1] * (ncols - nvars))
    status, budget = _iterate(rows, basis, cost, ncols, eps, budget)
    if status == "optimal" and cost[-1] < -eps:
        status = "infeasible"
    if status != "optimal":  # capped, or floats lost phase 1's bound of zero
        return status, rows, basis
    keep = []
    for i in range(len(rows)):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if abs(rows[i][j]) > eps), None)
            if col is None:
                continue
            _pivot(rows, basis, None, i, col)
        keep.append(i)
    rows = [rows[i][:nvars] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    status, _ = _iterate(rows, basis, _costs(rows, basis, c), nvars, eps, budget)
    return status, rows, basis


def _reduced_costs(rows: list[_Row], basis: list[int], c: list[int]) -> _Row:
    # Row i of _certify's forward elimination is zero at the basic columns
    # of earlier rows, so clearing column bi keeps those cleared.
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


def _integer_lp(problem: LpProblem) -> tuple[_Objective, list[_Row]]:
    """``problem`` as the core's objective and integer rows of ``[A | b]``."""
    rows = [_to_row(problem.constraints.row(i) + (problem.rhs[i],))
            for i in range(problem.constraints.rows)]
    return _Objective(problem.objective, problem.maximize), rows


def _phase1_tableau(base: list[_Row], nvars: int) -> tuple[list[_Row], list[int]]:
    """Phase-1 rows (real columns, artificial columns, rhs) and starting basis.

    Rows of ``base`` with ``b < 0`` are negated first.  Rows whose
    right-hand side lines up with a singleton column (one nonzero in the
    whole column) can start basic in that column; everything else gets
    an artificial variable, numbered in row order.
    """
    base = [([-x for x in v], d) if v[-1] < 0 else (v, d) for v, d in base]
    supports = [_support(v[:-1]) for v, _ in base]
    nonzeros = Counter(j for support in supports for j in support)
    # rhs / entry >= 0 with rhs >= 0: a zero rhs or a positive entry
    crash = [next((j for j in support if nonzeros[j] == 1 and (v[-1] == 0 or v[j] > 0)), None)
             for (v, _), support in zip(base, supports)]
    narts = crash.count(None)
    rows: list[_Row] = []
    basis: list[int] = []
    art = nvars
    for (v, d), col in zip(base, crash):
        unit = [0] * narts
        if col is None:
            col, art = art, art + 1
            unit[col - nvars] = d
        else:
            v, d = _unit_at(v, col)
        rows.append((v[:-1] + unit + v[-1:], d))
        basis.append(col)
    return rows, basis


def _vertex(goal: _Objective, basis: list[int], values: Iterable[Fraction]) -> LpOutcome:
    """The basic point with ``values`` in the basic columns ``basis``, in order."""
    x = [Fraction(0)] * len(goal.objective)
    for bi, value in zip(basis, values):
        x[bi] = value
    value = sum((goal.objective[bi] * x[bi] for bi in basis if goal.objective[bi]), Fraction(0))
    return LpOutcome(LpStatus.OPTIMAL, value, tuple(x))


def _min_costs(goal: _Objective) -> list[int]:
    """Integer costs of the objective in min form.

    They are a positive multiple of it, which prices every column the same.
    """
    sense = -1 if goal.maximize else 1
    return _to_row([sense * x for x in goal.objective])[0]


def simplex_solve(problem: LpProblem) -> LpOutcome:
    """Solve an exact LP; the witness (when optimal) is a basic feasible point."""
    return _solve(*_integer_lp(problem))


def _solve(goal: _Objective, base: list[_Row]) -> LpOutcome:
    """:func:`simplex_solve` on the integer rows ``base`` of ``[A | b]``, ``b`` of either sign.

    :func:`_run` on Fractions; the vertex is read off its final rows.
    """
    status, rows, basis = _run(goal, base, 0, math.inf)
    return (_vertex(goal, basis, (Fraction(row[-1]) for row in rows)) if status == "optimal"
            else LpOutcome(LpStatus(status)))


def _crossover(rows: list[list], start: tuple, eps: float) -> tuple[list[list], list[int] | None]:
    """The tableau and basis of a vertex of the converted rows ``rows`` of
    ``[A | b]``, reached from the feasible point ``start`` in their
    arithmetic, with sign tests up to ``eps``; no basis if a basic value
    ends below ``-eps``.

    Each row pivots on its largest entry in a support column of ``start``
    not yet basic, else in any other, and is dropped as redundant without
    either (no basis if its right-hand side is then beyond ``eps``).  Each
    nonbasic support column then moves to 0 along its tableau column, the
    basic values following; a basic value that reaches 0 first leaves,
    and the column enters in its row.
    """
    basis = [-1] * len(rows)
    support = [j for j in range(len(start)) if start[j] > 0]
    others = [j for j in range(len(start)) if start[j] <= 0]
    for r, row in enumerate(rows):
        for columns in (support, others):
            col = max(columns, key=lambda j: abs(row[j]), default=None)
            if col is not None and abs(row[col]) > eps:
                columns.remove(col)
                _pivot(rows, basis, None, r, col)
                break
    lost = any(bi < 0 and abs(row[-1]) > eps for row, bi in zip(rows, basis))
    rows = [row for row, bi in zip(rows, basis) if bi >= 0]
    basis = [bi for bi in basis if bi >= 0]
    x = list(start)
    for j in support:  # the support columns left nonbasic
        leaving, step = None, x[j]
        for i, row in enumerate(rows):
            if row[j] < -eps and x[basis[i]] / -row[j] < step:
                leaving, step = i, x[basis[i]] / -row[j]
        for row, bi in zip(rows, basis):
            x[bi] += row[j] * step
        x[j] -= step
        if leaving is not None:
            x[basis[leaving]] = 0
            _pivot(rows, basis, None, leaving, j)
    return rows, None if lost or any(row[-1] < -eps for row in rows) else basis


def _tableau(rows: list[_Row], exact: bool) -> list[list]:
    """The integer rows ``rows`` on Fractions, their zeros kept as ints,
    which the tableau's sign tests read fast, if ``exact``; else on floats."""
    return ([[Fraction(x, d) if x else 0 for x in v] for v, d in rows] if exact
            else [[x / d for x in v] for v, d in rows])


def _run(goal: _Objective, base: list[_Row], eps: float, budget: float) -> tuple[str, list, list]:
    """Bland's run of ``goal`` over the integer rows ``base``, with sign tests
    and ratio ties up to ``eps`` and at most ``budget`` pivots per
    :func:`_iterate` call: on Fractions if ``eps`` is 0, else on floats.

    With a ``start`` point, phase 2 from the :func:`_crossover`'s vertex;
    a float run that loses the point ends ``"infeasible"``.  Without one,
    or when the exact crossover ends infeasible, :func:`_two_phase` from
    :func:`_phase1_tableau`.  Returns the status and the final rows and
    basis.
    """
    nvars, c, exact = len(goal.objective), _min_costs(goal), eps == 0
    start = goal.start if exact or goal.start is None else tuple(map(float, goal.start))
    if start is not None:
        rows, basis = _crossover(_tableau(base, exact), start, eps)
        if basis is not None:
            status, _ = _iterate(rows, basis, _costs(rows, basis, c), nvars, eps, budget)
            return status, rows, basis
        if not exact:
            return "infeasible", rows, []
    rows, basis = _phase1_tableau(base, nvars)
    return _two_phase(_tableau(rows, exact), basis, nvars, c, eps, budget)


# -- the float stage and the exact certificate of certified_solve --------

def _float_basis(goal: _Objective, base: list[_Row]) -> list[int] | None:
    """Bland's final basis of ``goal`` over the rows ``base``, found in floats
    by :func:`_run`.

    ``None`` when the floats lose the start point or end infeasible,
    unbounded or at the pivot limit ``_FLOAT_PIVOTS``; ``OverflowError``
    on an entry beyond float range.
    """
    status, _, basis = _run(goal, base, _EPS, _FLOAT_PIVOTS)
    return basis if status == "optimal" else None


def _certify(goal: _Objective, base: list[_Row], basis: list[int]) -> LpOutcome | None:
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
    return _certified_solve(*_integer_lp(problem))


def _certified_solve(goal: _Objective, base: list[_Row]) -> LpOutcome:
    """:func:`certified_solve` on the integer rows ``base`` of ``[A | b]``, ``b`` of either sign.

    An uncertified basis, or none, falls back to the exact :func:`_solve`
    on the same rows.
    """
    try:
        basis = _float_basis(goal, base)
    except OverflowError:
        basis = None
    outcome = None if basis is None else _certify(goal, base, basis)
    return outcome if outcome is not None else _solve(goal, base)
