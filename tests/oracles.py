"""Independent reference computations used to cross-check the library.

Nothing here imports the code paths under test (only the
``RatMatrix`` container): reduced row echelon forms and kernels come
from a plain Fraction Gauss-Jordan, the characteristic
polynomial from literal cofactor expansion and its root counts
from Budan-Fourier sign variations, LP optima from
brute-force basis enumeration, the simplex's pivot sequence from a
plain Fraction tableau that prices every column afresh at each step,
the optimality of one candidate basis from a plain Gauss-Jordan,
the pseudo-inverse of a symmetric matrix from its column space, that
of a full-rank matrix from the normal equations and an inverse as
adjugate over determinant by cofactor expansion,
sign-pattern feasibility from grid sampling of the constraint
subspace, sign-pattern realizability by a division from an LP
over the atom weights themselves, sharing matrices from interval by
atom overlaps, Gram matrices as sums over atoms of weight products
times the atom's mass, the fairness verdicts from their
definitions on Fraction rows, each atom's factor weights as a
Fraction product of its normalized values with the factor, and the
cut of the atoms by a Fraction cursor.  Keeping these routes separate is
the point; do not "simplify" them to call the production code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from hyperfair.linalg import RatMatrix

# -- Gauss-Jordan reference -------------------------------------------------

def gauss_jordan(m: RatMatrix) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form of ``m`` as Fraction rows, and its pivot columns.

    Each column's pivot is its first nonzero entry at or below the
    current row; the pivot row is scaled to a leading 1 and the column
    is cleared above and below it.
    """
    work = m.to_rows()
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, m.rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, tuple(pivots)


def integer_kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Right null space basis of ``m``, one vector per non-pivot column.

    The vector of free column ``c`` has a 1 at ``c`` and minus column
    ``c`` of the reduced rows at the pivots; it is then scaled to
    coprime integers with a positive first nonzero entry.
    """
    red, pivots = gauss_jordan(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        scale = gcd(*ints) * (1 if next(x for x in ints if x != 0) > 0 else -1)
        basis.append(tuple(Fraction(x, scale) for x in ints))
    return basis


# -- polynomial arithmetic on ascending coefficient lists ---------------

def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_scale(a, c):
    return [x * c for x in a]


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def real_roots_in(p, a, b) -> int:
    """Roots of ``p`` in ``(a, b]`` with multiplicity, by Budan-Fourier.

    The count of sign changes along p, p', p'', ... drops by exactly the
    number of roots crossed when every root of ``p`` is real, as it is
    for the characteristic polynomial of a symmetric matrix.
    """
    def variations(x):
        signs, q = [], list(p)
        while q:
            v = poly_eval(q, x)
            if v != 0:
                signs.append(v > 0)
            q = [c * k for k, c in enumerate(q)][1:]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


def charpoly_by_cofactors(m: RatMatrix) -> list[Fraction]:
    """det(xI - m) expanded recursively along the first row."""
    n = m.rows
    cells = [[[Fraction(0)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entry = [-m[i, j]]
            if i == j:
                entry = poly_add(entry, [Fraction(0), Fraction(1)])
            cells[i][j] = entry

    def det(rows, cols):
        if len(rows) == 1:
            return cells[rows[0]][cols[0]]
        total = [Fraction(0)]
        r = rows[0]
        for t, c in enumerate(cols):
            minor = det(rows[1:], cols[:t] + cols[t + 1:])
            term = poly_mul(cells[r][c], minor)
            total = poly_add(total, term if t % 2 == 0 else poly_scale(term, Fraction(-1)))
        return total

    out = det(tuple(range(n)), tuple(range(n)))
    return out + [Fraction(0)] * (n + 1 - len(out))


# -- brute-force LP reference -------------------------------------------

def _independent_rows(a_rows, b):
    """Drop dependent rows; return None when the system is inconsistent."""
    keep_rows, keep_rhs = [], []
    for row, rhs in zip(a_rows, b):
        trial = keep_rows + [list(row)]
        trial_rhs = keep_rhs + [rhs]
        m = RatMatrix.from_rows(trial)
        aug = RatMatrix.from_rows([r + [v] for r, v in zip(trial, trial_rhs)])
        r_plain = len(gauss_jordan(m)[1])
        r_aug = len(gauss_jordan(aug)[1])
        if r_aug > r_plain:
            return None  # inconsistent
        if r_plain == len(trial):
            keep_rows, keep_rhs = trial, trial_rhs
    return keep_rows, keep_rhs


def _solve_square(rows, rhs):
    n = len(rows)
    aug = RatMatrix.from_rows([list(r) + [v] for r, v in zip(rows, rhs)])
    red, pivots = gauss_jordan(aug)
    if pivots != tuple(range(n)):
        return None
    return [red[i][n] for i in range(n)]

def lp_vertices(constraints: RatMatrix, rhs):
    """Basic feasible points of {A x = b, x >= 0}, by basis enumeration."""
    reduced = _independent_rows(constraints.to_rows(), list(rhs))
    if reduced is None:
        return None  # infeasible before even looking at signs
    rows, b = reduced
    m = len(rows)
    nv = constraints.cols
    vertices = []
    if m == 0:
        return [[Fraction(0)] * nv]
    for basis in combinations(range(nv), m):
        square = [[row[j] for j in basis] for row in rows]
        sol = _solve_square(square, b)
        if sol is None or any(x < 0 for x in sol):
            continue
        x = [Fraction(0)] * nv
        for j, v in zip(basis, sol):
            x[j] = v
        vertices.append(x)
    return vertices


def lp_optimum_by_vertices(objective, constraints, rhs, maximize=True):
    """('infeasible', None) | ('optimal', best vertex value).

    Sound for bounded problems; for unbounded ones the caller should
    use :func:`lp_value_reachable` instead.
    """
    vertices = lp_vertices(constraints, rhs)
    if vertices is None or not vertices:
        return "infeasible", None
    values = [sum((c * x for c, x in zip(objective, v)), Fraction(0)) for v in vertices]
    return "optimal", (max(values) if maximize else min(values))


def lp_value_reachable(objective, constraints, rhs, target) -> bool:
    """Is there a feasible x with objective . x == target?  Decides by
    vertex enumeration of the slice polytope, splitting the objective
    row into the equality system."""
    rows = [list(r) for r in constraints.to_rows()]
    rows.append(list(objective))
    new_rhs = list(rhs) + [target]
    vertices = lp_vertices(RatMatrix.from_rows(rows), new_rhs)
    return bool(vertices)


def lp_bland_reference(objective, constraints: RatMatrix, rhs, maximize=True, events=None):
    """Two-phase simplex with Bland's rule on a Fraction tableau.

    Returns ``(status, value, witness)`` with status ``"optimal"``,
    ``"infeasible"`` or ``"unbounded"`` (value and witness ``None``
    unless optimal).  It follows the library's conventions, so its
    witness is the same basic point: rows with a negative right-hand
    side are negated; a row starts basic in its first column that is
    nonzero only in that row, if the right-hand side over that entry is
    nonnegative, and otherwise on an artificial; the entering column is
    the first with a negative reduced cost, recomputed from scratch at
    every step; the leaving row has the least ratio, ties going to the
    least basic index; after phase 1 each row still basic on an
    artificial pivots on its first nonzero real column or is dropped.

    ``events``, when a set, collects which of ``negative_rhs``,
    ``crash``, ``crash_negative``, ``tie`` and ``dropped_row`` occurred.
    """
    note = events.add if events is not None else (lambda _: None)
    m, nv = constraints.rows, constraints.cols
    rows = []
    for i in range(m):
        row = [Fraction(constraints[i, j]) for j in range(nv)] + [Fraction(rhs[i])]
        if row[-1] < 0:
            note("negative_rhs")
            row = [-x for x in row]
        rows.append(row)
    basis = [None] * m
    for i in range(m):
        for j in range(nv):
            a = rows[i][j]
            if a != 0 and all(rows[k][j] == 0 for k in range(m) if k != i) and rows[i][-1] / a >= 0:
                note("crash_negative" if a < 0 else "crash")
                rows[i] = [x / a for x in rows[i]]
                basis[i] = j
                break
    artificial = [i for i in range(m) if basis[i] is None]
    for k, i in enumerate(artificial):
        basis[i] = nv + k
    rows = [row[:-1] + [Fraction(int(i == a)) for a in artificial] + row[-1:]
            for i, row in enumerate(rows)]

    def pivot(r, c):
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        basis[r] = c

    def minimize(cost):
        """Bland iterations; False when unbounded."""
        while True:
            reduced = [cost[j] - sum((cost[b] * rows[i][j] for i, b in enumerate(basis)), Fraction(0))
                       for j in range(len(cost))]
            entering = next((j for j, r in enumerate(reduced) if r < 0), None)
            if entering is None:
                return True
            ratios = sorted((rows[i][-1] / rows[i][entering], basis[i], i)
                            for i in range(len(rows)) if rows[i][entering] > 0)
            if not ratios:
                return False
            if len(ratios) > 1 and ratios[1][0] == ratios[0][0]:
                note("tie")
            pivot(ratios[0][2], entering)

    phase1 = [Fraction(0)] * nv + [Fraction(1)] * len(artificial)
    minimize(phase1)
    if sum((phase1[b] * rows[i][-1] for i, b in enumerate(basis)), Fraction(0)) != 0:
        return "infeasible", None, None
    keep = []
    for i in range(len(rows)):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if rows[i][j] != 0), None)
            if col is None:
                note("dropped_row")
                continue
            pivot(i, col)
        keep.append(i)
    rows = [rows[i][:nv] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    sign = -1 if maximize else 1
    if not minimize([sign * Fraction(c) for c in objective]):
        return "unbounded", None, None
    x = [Fraction(0)] * nv
    for i, b in enumerate(basis):
        x[b] = rows[i][-1]
    return "optimal", sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0)), tuple(x)


def basis_verdict(objective, constraints: RatMatrix, rhs, maximize, basis):
    """Is the column list ``basis`` an optimal basis of the LP, and its vertex if so.

    Returns ``(verdict, value, witness)``.  The verdict is the first of
    ``"out_of_range"`` (a column that is not a variable), ``"singular"``
    (the basic columns are dependent, a repeated one included),
    ``"leftover_rows"`` (``[A | b]`` has rank above the basis size: the
    basis is short or the system inconsistent), ``"negative_value"``
    and ``"negative_cost"`` (a reduced cost in min form) that applies,
    else ``"optimal"`` with the objective value and the basic point.
    All of it comes from one Gauss-Jordan of ``[A_B | A | b]``, the
    basic columns placed first: the basis pivots on the first block,
    the middle block is then ``B^-1 A`` and the last is ``x_B``.
    """
    nv, k = constraints.cols, len(basis)
    if not all(0 <= j < nv for j in basis):
        return "out_of_range", None, None
    red, pivots = gauss_jordan(RatMatrix.from_rows([
        [row[j] for j in basis] + row + [Fraction(b)]
        for row, b in zip(constraints.to_rows(), rhs)]))
    if pivots[:k] != tuple(range(k)):
        return "singular", None, None
    if any(any(row) for row in red[k:]):
        return "leftover_rows", None, None
    values = [red[i][-1] for i in range(k)]
    if any(v < 0 for v in values):
        return "negative_value", None, None
    cost = [(-1 if maximize else 1) * Fraction(c) for c in objective]
    reduced = [cost[j] - sum((cost[b] * red[i][k + j] for i, b in enumerate(basis)), Fraction(0))
               for j in range(nv)]
    if any(r < 0 for r in reduced):
        return "negative_cost", None, None
    x = [Fraction(0)] * nv
    for b, v in zip(basis, values):
        x[b] = v
    return "optimal", sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0)), tuple(x)


# -- pseudo-inverse and factor threshold ---------------------------------

def _independent_columns(rows) -> list[int]:
    """Indices of a maximal independent set of columns, chosen greedily."""
    reduced = []  # (pivot index, vector) with zeros at every earlier pivot
    keep = []
    for c in range(len(rows[0])):
        v = [Fraction(row[c]) for row in rows]
        for piv, b in reduced:
            if v[piv]:
                f = v[piv] / b[piv]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            reduced.append((lead, v))
            keep.append(c)
    return keep


def _inverse(rows) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def symmetric_pinv(m: RatMatrix) -> list[list[Fraction]]:
    """Moore-Penrose inverse of a symmetric matrix as ``C (C^T M C)^-1 C^T``.

    ``C`` holds a maximal independent set of the columns of ``M``.  As
    ``M`` is symmetric, its range is the span of ``C`` and
    ``M = C B C^T`` for an invertible ``B``, which gives the formula.
    """
    rows = m.to_rows()
    n = len(rows)
    keep = _independent_columns(rows)
    c = [[rows[i][t] for t in keep] for i in range(n)]
    middle = [[sum((c[i][s] * rows[i][j] * c[j][t] for i in range(n) for j in range(n)),
                   Fraction(0)) for t in range(len(keep))] for s in range(len(keep))]
    inv = _inverse(middle)
    ci = [[sum((c[i][s] * inv[s][t] for s in range(len(keep))), Fraction(0))
           for t in range(len(keep))] for i in range(n)]
    return [[sum((ci[i][t] * c[j][t] for t in range(len(keep))), Fraction(0))
             for j in range(n)] for i in range(n)]


def cofactor_det(rows) -> Fraction:
    """Determinant by literal cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** c * Fraction(x) * cofactor_det([r[:c] + r[c + 1:] for r in rows[1:]])
                for c, x in enumerate(rows[0]) if x), Fraction(0))


def adjugate_inverse(rows) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix as its adjugate over its determinant."""
    n = len(rows)
    det = cofactor_det(rows)
    minor = lambda i, j: [r[:j] + r[j + 1:] for t, r in enumerate(rows) if t != i]
    return [[(-1) ** (i + j) * cofactor_det(minor(j, i)) / det for j in range(n)] for i in range(n)]


def full_rank_pinv(rows) -> list[list[Fraction]]:
    """Moore-Penrose inverse of a matrix of full column or full row rank.

    From the normal equations: ``(A^T A)^-1 A^T`` when ``A`` has at least
    as many rows as columns, ``A^T (A A^T)^-1`` otherwise, with
    :func:`adjugate_inverse`; for a nonsingular ``A`` either is ``A^-1``.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    at = [list(col) for col in zip(*a)]
    mul = lambda x, y: [[sum((u * v for u, v in zip(r, col)), Fraction(0)) for col in zip(*y)] for r in x]
    if len(a) >= len(at):
        return mul(adjugate_inverse(mul(at, a)), at)
    return mul(at, adjugate_inverse(mul(a, at)))


def factor_threshold(g: RatMatrix, k_rows, p):
    """Largest ``delta`` with ``G^+ (P + delta K) >= 0``; None when unbounded.

    Entry ``(i, j)`` of the factor is ``a + delta * b`` with ``a`` from
    ``G^+ P`` and ``b`` from ``G^+ K``, both formed here from
    :func:`symmetric_pinv`; ``G^+ P = P`` is not assumed.  Expects
    ``G^+ P >= 0``, so that ``delta = 0`` is admissible.
    """
    gp = symmetric_pinv(g)
    n = len(gp)
    limits = []
    for i in range(n):
        for j in range(n):
            a = sum((gp[i][l] * p[j] for l in range(n)), Fraction(0))
            b = sum((gp[i][l] * k_rows[l][j] for l in range(n)), Fraction(0))
            assert a >= 0
            if b < 0:
                limits.append(a / -b)
    return min(limits) if limits else None


# -- grid oracle for sign-pattern feasibility ---------------------------

def proper_basis(r_cells, relations, n) -> list[tuple[Fraction, ...]]:
    """Basis of the proper matrices that are 0 on the "=" cells, row-major.

    The :func:`integer_kernel` of the equality constraints: zero row
    sums, every relation against every column, and the EQ cells.
    """
    eq_rows = []
    for i in range(n):  # row sums
        row = [Fraction(0)] * (n * n)
        for j in range(n):
            row[i * n + j] = Fraction(1)
        eq_rows.append(row)
    for lam in relations:  # relation columns
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for i in range(n):
                row[i * n + j] = Fraction(lam[i])
            eq_rows.append(row)
    for i in range(n):  # EQ cells
        for j in range(n):
            if r_cells[i][j] == "=":
                row = [Fraction(0)] * (n * n)
                row[i * n + j] = Fraction(1)
                eq_rows.append(row)
    return integer_kernel(RatMatrix.from_rows(eq_rows))


def grid_sign_feasible(r_cells, relations, n, steps=None) -> bool:
    """Sample proper matrices on a rational grid and test the pattern.

    The equality constraints are solved exactly first
    (:func:`proper_basis`); the grid runs over coefficients of the
    resulting kernel basis, so every sampled matrix satisfies the
    equalities by construction and only the strict signs are tested.
    """
    if steps is None:
        steps = [Fraction(k, 4) for k in range(-4, 5)]
    basis = proper_basis(r_cells, relations, n)
    if not basis:
        # only the zero matrix satisfies the equalities
        return all(r_cells[i][j] == "=" for i in range(n) for j in range(n))

    strict = [(i, j, r_cells[i][j]) for i in range(n) for j in range(n)
              if r_cells[i][j] != "="]
    if not strict:
        return True
    for coeffs in product(steps, repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        k = [sum((c * v[t] for c, v in zip(coeffs, basis)), Fraction(0))
             for t in range(n * n)]
        ok = True
        for i, j, sym in strict:
            val = k[i * n + j]
            if sym == ">" and not val > 0:
                ok = False
                break
            if sym == "<" and not val < 0:
                ok = False
                break
        if ok:
            return True
    return False


# -- sign patterns realized by a division, as an LP over atom weights -------

def weight_sign_lp(masses, p, r_cells):
    """LP whose optimum ``t*`` is positive iff some division realizes ``r_cells``.

    ``masses[i][a]`` is player ``i``'s measure of atom ``a``.  Player
    ``j`` gets the fraction ``alpha[a][j]`` of atom ``a``, so player
    ``i`` values that piece at ``M[i][j] = sum_a alpha[a][j] masses[i][a]``.
    Columns: ``alpha`` atom by atom, then ``t``, then a surplus per
    strict cell.  Rows: each atom's fractions sum to 1; a strict cell
    with sign ``s`` reads ``s (M[i][j] - p[j]) - t - surplus = 0``; an
    ``"="`` cell reads ``M[i][j] = p[j]``.  The objective maximizes
    ``t``.  Returns ``(objective, constraints, rhs)``, the arguments of
    :func:`lp_bland_reference`.  Every ``alpha[a][j] = p[j]`` with
    ``t = 0`` is feasible, and ``|M - p| <= 1`` bounds ``t``.
    """
    n, atoms = len(masses), len(masses[0])
    sign = {"<": -1, ">": 1}
    strict = [(i, j) for i in range(n) for j in range(n) if r_cells[i][j] != "="]
    t = atoms * n
    nvars = t + 1 + len(strict)
    rows, rhs = [], []
    for a in range(atoms):
        rows.append([Fraction(int(a * n <= c < a * n + n)) for c in range(nvars)])
        rhs.append(Fraction(1))
    for i in range(n):
        for j in range(n):
            s = sign.get(r_cells[i][j], 1)
            row = [Fraction(0)] * nvars
            for a in range(atoms):
                row[a * n + j] = s * Fraction(masses[i][a])
            if r_cells[i][j] != "=":
                row[t] = Fraction(-1)
                row[t + 1 + strict.index((i, j))] = Fraction(-1)
            rows.append(row)
            rhs.append(s * Fraction(p[j]))
    objective = [Fraction(0)] * nvars
    objective[t] = Fraction(1)
    return objective, RatMatrix.from_rows(rows), rhs


# -- common refinement by cell lookup ---------------------------------------

def refine(densities):
    """Atoms ``(lo, hi)`` and per-density atom values of a density family.

    Reads only the ``breakpoints`` and ``values`` of each density: the
    cuts are the sorted set of all breakpoints, and a density's value on
    an atom is the value of the cell that contains the atom's midpoint,
    found by scanning the cells.
    """
    cuts = sorted({b for d in densities for b in d.breakpoints})
    atoms = list(zip(cuts, cuts[1:]))
    values = []
    for d in densities:
        row = []
        for lo, hi in atoms:
            mid = (lo + hi) / 2
            cell = next(i for i in range(len(d.values))
                        if d.breakpoints[i] <= mid <= d.breakpoints[i + 1])
            row.append(d.values[cell])
        values.append(row)
    return atoms, values


# -- construction references: factor weights and the cut ----------------------

def atom_factor_weights(values, factor) -> list[list[Fraction]]:
    """One weight row per atom from a factor ``S`` (Fraction rows).

    ``values`` holds each density's atom values, as :func:`refine`
    returns them.  An atom's row is ``w @ S`` for its normalized values
    ``w`` (each density's value over their sum on the atom), summed
    term by term; an atom where every value is 0 goes to player 0.
    """
    n = len(values)
    rows = []
    for a in range(len(values[0])):
        total = sum((values[i][a] for i in range(n)), Fraction(0))
        if total == 0:
            rows.append([Fraction(int(j == 0)) for j in range(n)])
            continue
        w = [values[i][a] / total for i in range(n)]
        rows.append([sum((w[i] * factor[i][j] for i in range(n)), Fraction(0)) for j in range(n)])
    return rows


def cursor_cut(atoms, weights) -> list[list[tuple[Fraction, Fraction]]]:
    """Each player's slices of the atoms ``(lo, hi)`` cut by the Fraction rows
    ``weights`` (one row per atom, one weight per player).

    A cursor starts at each atom's left end and moves right by ``weight *
    (hi - lo)`` for each player in turn; a zero weight cuts nothing.
    """
    pieces = [[] for _ in weights[0]]
    for (lo, hi), row in zip(atoms, weights):
        cursor = lo
        for j, weight in enumerate(row):
            if weight != 0:
                end = cursor + weight * (hi - lo)
                pieces[j].append((cursor, end))
                cursor = end
        assert cursor == hi, "a weight row must sum to 1"
    return pieces


# -- audit references: sharing matrix, Gram matrix, fairness -----------------

def sharing_by_intervals(atoms, values, pieces) -> list[list[Fraction]]:
    """Sharing matrix of a partition as Fraction rows, interval by interval.

    ``atoms`` and ``values`` are as :func:`refine` returns them, and
    ``pieces[j]`` lists player ``j``'s intervals as ``(lo, hi)`` pairs.
    Entry ``(i, j)`` adds, over player ``j``'s intervals and over every
    atom, density ``i``'s value on the atom times the length of the
    overlap of interval and atom.
    """
    n = len(values)
    return [[sum((values[i][a] * max(Fraction(0), min(hi, top) - max(lo, bottom))
                  for lo, hi in pieces[j] for a, (bottom, top) in enumerate(atoms)), Fraction(0))
             for j in range(n)] for i in range(n)]


def gram_by_atoms(atoms, values) -> list[list[Fraction]]:
    """Gram matrix as Fraction rows: the sum over atoms of ``w_i * w_j``
    times the atom's mass under the sum of the densities, where ``w`` is
    each density's share of that sum on the atom; atoms of mass zero add
    nothing."""
    n = len(values)
    g = [[Fraction(0)] * n for _ in range(n)]
    for a, (lo, hi) in enumerate(atoms):
        total = sum((values[i][a] for i in range(n)), Fraction(0))
        if total == 0:
            continue
        mass = total * (hi - lo)
        w = [values[i][a] / total for i in range(n)]
        for i in range(n):
            for j in range(n):
                g[i][j] += w[i] * w[j] * mass
    return g


def fairness_verdicts(m, k=None, p=None, r=None) -> dict:
    """The fairness verdicts of a sharing matrix ``m`` (Fraction rows),
    restated from their definitions.

    With a goal matrix ``k`` and shares ``p``, ``hyper`` says whether
    ``m = P + delta K`` for one ``delta > 0`` and ``hyper_delta`` is that
    delta: it is read off the first nonzero entry of ``k`` and then
    checked on every entry.  A zero ``k`` is matched when ``m = P``, and
    its delta is ``"unconstrained"``.  With a grid ``r`` of ``"<"``,
    ``"="`` and ``">"``, ``relation`` says whether every ``m[i][j]``
    compares so with ``p[j]``.
    """
    n = len(m)
    share = Fraction(1, n)
    out = {
        "proportional": all(m[i][i] >= share for i in range(n)),
        "exact_division": all(x == share for row in m for x in row),
        "equitable": len({m[i][i] for i in range(n)}) == 1,
        "envy_free": all(m[i][i] >= m[i][j] for i in range(n) for j in range(n)),
        "super_envy_free": (all(m[i][i] > share for i in range(n))
                            and all(m[i][j] < share for i in range(n) for j in range(n) if i != j)),
        "rawlsian": max(sum(abs(m[i][j] - (1 if i == j else 0)) for j in range(n))
                        for i in range(n)),
    }
    if k is not None:
        cells = [(i, j) for i in range(n) for j in range(n) if k[i][j] != 0]
        if not cells:
            matched = all(m[i][j] == p[j] for i in range(n) for j in range(n))
            out["hyper"], out["hyper_delta"] = matched, "unconstrained" if matched else None
        else:
            i, j = cells[0]
            delta = (m[i][j] - p[j]) / k[i][j]
            matched = delta > 0 and all(m[i][j] == p[j] + delta * k[i][j]
                                        for i in range(n) for j in range(n))
            out["hyper"], out["hyper_delta"] = matched, delta if matched else None
    if r is not None:
        holds = {"<": lambda x, y: x < y, "=": lambda x, y: x == y, ">": lambda x, y: x > y}
        out["relation"] = all(holds[r[i][j]](m[i][j], p[j]) for i in range(n) for j in range(n))
    return out
