"""Independent re-audit of every report the CLI writes.

This module does not import ``hyperfair``.  It re-derives everything it
checks from the problem file with its own exact ``fractions`` code:
the common refinement and Gram matrix, the sharing matrix of a
partition (by integrating the step densities), the Penrose identities
of the reported pseudo-inverse, and the margin bound
``min(p) / max |G+ K|``.  A failed check raises :class:`CheckError`.

What it cannot re-derive without certificates: that an "infeasible"
sign-pattern verdict is right, and that a maximal margin is really
maximal.  Those are compared against ``reference.json`` for the
default seed only; on other seeds the checker verifies that the
maximal margin is admissible and at least the certified bound.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


class CheckError(Exception):
    """An output of the program is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def q(s) -> Fraction:
    """Parse a rational written as a string or an int (never a float)."""
    require(isinstance(s, (str, int)) and not isinstance(s, bool), f"not an exact rational: {s!r}")
    return Fraction(s)


def qmat(rows) -> Matrix:
    return [[q(x) for x in row] for row in rows]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rank(a: Matrix) -> int:
    m = [row[:] for row in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# -- densities ---------------------------------------------------------------

def densities_of(problem: dict) -> list[tuple[list[Fraction], list[Fraction]]]:
    out = []
    for d in problem["densities"]:
        bps, vals = [q(b) for b in d["breakpoints"]], [q(v) for v in d["values"]]
        require(bps[0] == 0 and bps[-1] == 1 and len(vals) == len(bps) - 1, "malformed density")
        out.append((bps, vals))
    return out


def atoms_and_values(densities) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Cut points of the common refinement and each density's value per atom."""
    cuts = sorted({b for bps, _ in densities for b in bps})
    values = [[vals[bisect_right(bps, lo) - 1] for lo in cuts[:-1]] for bps, vals in densities]
    return cuts, values


def gram(densities) -> Matrix:
    """Gram matrix of the normalized density weights against the sum measure."""
    cuts, values = atoms_and_values(densities)
    n = len(densities)
    g = [[Fraction(0)] * n for _ in range(n)]
    for a in range(len(cuts) - 1):
        col = [values[i][a] for i in range(n)]
        total = sum(col)
        if total == 0:
            continue
        scale = (cuts[a + 1] - cuts[a]) / total
        for i in range(n):
            for j in range(n):
                g[i][j] += col[i] * col[j] * scale
    return g


def integral(density, lo: Fraction, hi: Fraction) -> Fraction:
    bps, vals = density
    total = Fraction(0)
    c = max(bisect_right(bps, lo) - 1, 0)
    while c < len(vals) and bps[c] < hi:
        overlap = min(hi, bps[c + 1]) - max(lo, bps[c])
        if overlap > 0:
            total += vals[c] * overlap
        c += 1
    return total


def sharing(densities, pieces: Sequence[Sequence[tuple[Fraction, Fraction]]]) -> Matrix:
    return [[sum((integral(d, lo, hi) for lo, hi in piece), Fraction(0)) for piece in pieces]
            for d in densities]


def check_tiling(pieces: Sequence[Sequence[tuple[Fraction, Fraction]]]) -> None:
    spans = []
    for piece in pieces:
        for lo, hi in piece:
            require(0 <= lo <= hi <= 1, f"interval [{lo}, {hi}] leaves [0, 1]")
            if hi > lo:
                spans.append((lo, hi))
    cursor = Fraction(0)
    for lo, hi in sorted(spans):
        require(lo == cursor, f"intervals do not tile [0, 1] at {cursor}")
        cursor = hi
    require(cursor == 1, "intervals do not reach 1")


def pieces_of(raw) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(q(lo), q(hi)) for lo, hi in piece] for piece in raw]


# -- report blocks ----------------------------------------------------------

def target(p: list[Fraction], k: Matrix, delta: Fraction) -> Matrix:
    return [[p[j] + delta * k[i][j] for j in range(len(p))] for i in range(len(p))]


def margin_bound(g_plus: Matrix, k: Matrix, p: list[Fraction]):
    worst = max(abs(x) for row in matmul(g_plus, k) for x in row)
    return None if worst == 0 else min(p) / worst


def check_analysis(problem: dict, report: dict) -> dict:
    """Gram, kernel, pseudo-inverse and margin bounds of a gram/solve report."""
    densities = densities_of(problem)
    n = len(densities)
    cuts, _ = atoms_and_values(densities)
    require([[q(a), q(b)] for a, b in report["atoms"]] == [list(c) for c in zip(cuts, cuts[1:])],
            "atoms are not the common refinement")
    g = gram(densities)
    require(qmat(report["gram"]) == g, "Gram matrix differs from the integrated densities")
    kernel = qmat(report["kernel_basis"])
    require(len(kernel) == n - rank(g), "kernel basis has the wrong dimension")
    for v in kernel:
        require(any(v), "zero kernel vector")
        require(all(sum(g[i][j] * v[j] for j in range(n)) == 0 for i in range(n)),
                "G v != 0 for a reported kernel vector")
    require(not kernel or rank(kernel) == len(kernel), "kernel vectors are dependent")
    gp = qmat(report["pseudo_inverse"])
    ggp, gpg = matmul(g, gp), matmul(gp, g)
    require(matmul(ggp, g) == g, "G G+ G != G")
    require(matmul(gpg, gp) == gp, "G+ G G+ != G+")
    require(ggp == transpose(ggp) and gpg == transpose(gpg), "G G+ or G+ G is not symmetric")
    p = [q(s) for s in problem["p"]] if "p" in problem else [Fraction(1, n)] * n
    state = {"densities": densities, "kernel": kernel, "g_plus": gp, "p": p, "bound": None}
    if "K" not in problem:
        require(report["delta_bound"] is None and report["spectral_bound"] is None,
                "bounds reported without a goal matrix")
        return state
    k = qmat(problem["K"])
    require(qmat(report["pinv_times_k"]) == matmul(gp, k), "pinv_times_k != G+ K")
    bound = margin_bound(gp, k, p)
    if bound is None:
        require(report["delta_bound"] == "unbounded", "delta_bound should be unbounded")
    else:
        require(q(report["delta_bound"]) == bound, "delta_bound != min(p) / max |G+ K|")
    state["bound"] = bound
    if kernel or bound is None:
        require(report["spectral_bound"] is None, "spectral bound reported for a singular Gram matrix")
    else:
        lo, hi = (q(x) for x in report["spectral_bound"])
        require(0 < lo <= hi <= bound, "spectral bound is not 0 < lo <= hi <= delta_bound")
    return state


def check_goal(k: Matrix, kernel: Matrix) -> None:
    n = len(k)
    require(all(sum(row) == 0 for row in k), "goal matrix rows do not sum to zero")
    for lam in kernel:
        require(all(sum(lam[i] * k[i][j] for i in range(n)) == 0 for j in range(n)),
                "goal matrix is not proper")


def check_partition(densities, raw_partition, p, k: Matrix, delta: Fraction,
                    raw_sharing) -> Matrix:
    pieces = pieces_of(raw_partition)
    require(len(pieces) == len(p), "partition has the wrong number of players")
    check_tiling(pieces)
    m = sharing(densities, pieces)
    require(qmat(raw_sharing) == m, "reported sharing matrix differs from the integrated one")
    require(m == target(p, k, delta), "sharing matrix is not P + delta K")
    return m


def check_fairness(fair: dict, m: Matrix, delta: Fraction, pattern=None, p=None) -> None:
    n = len(m)
    share = Fraction(1, n)
    expect = {
        "proportional": all(m[i][i] >= share for i in range(n)),
        "exact_division": all(x == share for row in m for x in row),
        "equitable": all(m[i][i] == m[0][0] for i in range(n)),
        "envy_free": all(m[i][i] >= m[i][j] for i in range(n) for j in range(n)),
        "super_envy_free": all((m[i][j] > share) if i == j else (m[i][j] < share)
                               for i in range(n) for j in range(n)),
        "hyper_envy_free": True,
    }
    for key, value in expect.items():
        require(fair[key] is value, f"fairness.{key} should be {value}")
    require(q(fair["hyper_delta"]) == delta, "fairness.hyper_delta differs from the margin")
    rawls = max(sum(abs(m[i][j] - (1 if i == j else 0)) for j in range(n)) for i in range(n))
    require(q(fair["rawlsian_distance"]) == rawls, "Rawlsian distance is wrong")
    if pattern is not None:
        sign = {">": 1, "=": 0, "<": -1}
        ok = all((x > p[j]) - (x < p[j]) == sign[pattern[i][j]]
                 for i, row in enumerate(m) for j, x in enumerate(row))
        require(ok and fair["relation_satisfied"] is True, "partition misses the sign pattern")


def check_witness(k: Matrix, slack: Fraction, pattern, kernel: Matrix) -> None:
    check_goal(k, kernel)
    sign = {">": 1, "=": 0, "<": -1}
    require(slack > 0, "sign-pattern slack must be positive")
    for i, row in enumerate(pattern):
        for j, s in enumerate(row):
            x = k[i][j] * sign[s]
            if s == "=":
                require(k[i][j] == 0, "witness has a nonzero '=' entry")
            else:
                require(slack <= x <= 1, "witness entry misses its sign or the unit box")


# -- whole commands ---------------------------------------------------------

def check_gram(problem: dict, code: int, report: dict) -> None:
    require(code == 0, f"gram exited {code}")
    check_analysis(problem, report)


def check_verify(problem: dict, partition: dict, code: int, report: dict) -> None:
    require(code == 0, f"verify exited {code}")
    require(report["partition"] == partition["intervals"], "verify audited another partition")
    p = [q(s) for s in problem["p"]]
    k, delta = qmat(problem["K"]), q(problem["delta"])
    m = check_partition(densities_of(problem), report["partition"], p, k, delta,
                        report["sharing_matrix"])
    check_fairness(report["fairness"], m, delta)


def check_solve(problem: dict, code: int, report: dict) -> dict:
    """Re-audit one ``solve`` report; returns the verdict summary."""
    state = check_analysis(problem, report)
    pattern = problem.get("R")
    if pattern is not None:
        feas = report["feasibility"]
        if feas["status"] == "infeasible":
            require(code == 1 and feas["k"] is None, "infeasible pattern must exit 1 with no witness")
            require("partition" not in report, "partition reported for an infeasible pattern")
            return {"verdict": "infeasible", "delta": None}
        require(feas["status"] == "feasible", "unknown feasibility status")
        k = qmat(feas["k"])
        check_witness(k, q(feas["margin"]), pattern, state["kernel"])
        state["bound"] = margin_bound(state["g_plus"], k, state["p"])
    else:
        k = qmat(problem["K"])
        check_goal(k, state["kernel"])
    require(code == 0, f"solve exited {code}")
    delta = q(report["delta"])
    if problem["delta"] == "max":
        require(state["bound"] is not None and delta >= state["bound"],
                "maximal margin is below the certified delta_bound")
    else:
        require(delta == q(problem["delta"]), "solve realized another margin")
    weights = qmat(report["weight_system"])
    require(all(x >= 0 for row in weights for x in row) and all(sum(row) == 1 for row in weights),
            "weight system is not row-stochastic")
    m = check_partition(state["densities"], report["partition"], state["p"], k, delta,
                        report["sharing_matrix"])
    check_fairness(report["fairness"], m, delta, pattern, state["p"])
    return {"verdict": None if pattern is None else "feasible",
            "delta": report["delta"] if problem["delta"] == "max" else None}


def repeated_weight_atoms(values: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """(atoms whose normalized weight column equals another atom's, atoms)."""
    columns = []
    for col in zip(*values):
        total = sum(col)
        columns.append(tuple(v / total for v in col) if total else None)
    counts: dict = {}
    for c in columns:
        counts[c] = counts.get(c, 0) + 1
    return sum(1 for c in columns if c is not None and counts[c] > 1), len(columns)
