#!/usr/bin/env python3
"""Digests of every command line output on fixed inputs.

Runs every ``hyperfair`` command of the seed-1 and seed-2 problem pools
of the three benchmark workloads (generated by ``perfbench/run.py``'s
``set_up``), and ``gram``, ``solve`` and ``verify`` on each bundled
problem in ``problems/``.  Two more groups reach what those inputs do
not: ``noncanonical`` runs the bundled commands again on two copies of
the files with every number spelled another way (``"2/6"``, ``" 1/3"``,
``"+1"``, ``"-0"``, ``"007"``, ``"4/1"``; JSON integers in one copy
only, so the other holds strings alone), and
``solve_fixed_lp/seed1`` solves the first 16 seed-1 ``solve_fixed``
problems at a margin halfway between the factor bound and the maximum,
where ``solve`` takes the weight LP (``"route": "lp"``, checked), and
``construction_edges`` solves 12 seeded problems, each at the factor
bound, at half of it (``"route": "factor"``, checked) and at ``"max"``
(``"route": "lp"``); every density there breaks on points of its own,
so the atoms are a merged grid, and vanishes with the others on one or
two stretches of [0, 1], so every profile has null atoms.
Each group's digest is a SHA-256 over the
exit code, the standard output and the report file bytes of each of its
commands, in order.  So two trees whose digests agree print and write
the same bytes on all of those inputs.

Run from the root of a checkout:

    python3 scripts/output_digest.py            # store the digests in output_digest.json
    python3 scripts/output_digest.py --check    # exit 1 unless they equal the stored ones

A change that alters an output on purpose stores the new digests and
says in its description which bytes changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
STORED = Path(__file__).resolve().parent / "output_digest.json"
POOLS = [(workload, seed) for workload in ("analyze", "solve_fixed", "solve_max") for seed in (1, 2)]
PARTITION = PROBLEMS / "three_players_partition.json"
FIXED_LP_PROBLEMS = 16
EDGE_PROBLEMS = 12

sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (puts src/ on sys.path and checks the checkout)


def _frame(h, data: bytes) -> None:
    h.update(b"%d:" % len(data))
    h.update(data)


def digest(cli, commands: list[tuple[list[str], Path]]) -> str:
    """SHA-256 over exit code, stdout and report bytes of each ``(argv, report)``;
    ``argv`` writes its report to ``report``."""
    h = hashlib.sha256()
    for argv, report in commands:
        report.unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        _frame(h, str(code).encode())
        _frame(h, out.getvalue().encode())
        _frame(h, report.read_bytes() if report.exists() else b"(no report)")
    return h.hexdigest()


def bundled_commands(workdir: Path, problems: list[Path], partition: Path) -> list[tuple[list[str], Path]]:
    commands = []
    for problem in problems:
        for argv in (["gram"], ["solve"], ["verify", "--partition", str(partition)]):
            report = workdir / f"{problem.stem}.{argv[0]}.json"
            commands.append((argv + ["--input", str(problem), "--output", str(report)], report))
    return commands


def respell(text: str, turn: int) -> str | int:
    """The canonical number ``text`` spelled another way, chosen by ``turn % 6``:
    doubled terms (``"2/6"``), surrounding spaces (``" 1/3 "``), a sign
    (``"+1"``, ``"-0"``, ``"-05"``), leading zeros (``"007"``), ``"4/1"``
    or ``"1 / 3"``, and a JSON integer (or ``"1 /3"``)."""
    x = Fraction(text)
    num, den = x.numerator, x.denominator
    digits, tail = str(abs(num)), "" if den == 1 else f"/{den}"
    minus = "-" if num < 0 else ""
    signed = "+" + text if num > 0 else f"-0{digits}{tail}" if num < 0 else "-0"
    return [
        f"{2 * num}/{2 * den}",
        f" {text} ",
        signed,
        f"{minus}00{digits}{tail}",
        f"{text}/1" if den == 1 else f"{num} / {den}",
        num if den == 1 else f"{num} /{den}",
    ][turn % 6]


def respelled(obj, turns: Iterator[int], kinds: int):
    """``obj`` with every number string under its number fields re-spelled in
    turn by the first ``kinds`` of :func:`respell`'s spellings."""
    if isinstance(obj, list):
        return [respelled(x, turns, kinds) for x in obj]
    if isinstance(obj, dict):
        return {key: value if key in ("players", "R") else respelled(value, turns, kinds)
                for key, value in obj.items()}
    return obj if obj == "max" else respell(obj, next(turns) % kinds)


def noncanonical_files(workdir: Path, kinds: int) -> tuple[list[Path], Path]:
    """Copies of the bundled problems and partition with every number re-spelled."""
    workdir.mkdir()
    copies = []
    for source in sorted(PROBLEMS.glob("*.json")):
        copy = workdir / source.name
        obj = json.loads(source.read_text(encoding="utf-8"))
        copy.write_text(json.dumps(respelled(obj, itertools.count(), kinds)), encoding="utf-8")
        copies.append(copy)
    return [c for c in copies if c.name != PARTITION.name], workdir / PARTITION.name


def fixed_lp_commands(hf, instances, workdir: Path) -> list[tuple[list[str], Path]]:
    """``solve`` on the first solve_fixed problems at a margin halfway between
    the factor bound and the maximum, so ``solve`` cuts by the weight LP."""
    workdir.mkdir()
    commands = []
    for inst in instances[:FIXED_LP_PROBLEMS]:
        parsed = hf.problem_io.parse_problem(inst.problem)
        profile = hf.common_refinement(parsed.densities)
        g_plus = hf.pseudo_inverse(hf.gram_matrix(profile))
        low = hf.factor_delta_bound(g_plus @ parsed.k.mat, parsed.p)
        high = hf.solve_alpha(profile, parsed.k, parsed.p, hf.MAXIMIZE)[1]
        if not low < high:
            raise SystemExit(f"{inst.name}: no margin between the factor bound and the maximum")
        source, report = workdir / f"{inst.name}.problem.json", workdir / f"{inst.name}.solve.json"
        source.write_text(json.dumps({**inst.problem, "delta": hf.fmt((low + high) / 2)}),
                          encoding="utf-8")
        commands.append((["solve", "--input", str(source), "--output", str(report)], report))
    return commands


def _value_at(density: tuple[list[Fraction], list[Fraction]], lo: Fraction) -> Fraction:
    breakpoints, values = density
    return values[max(c for c, b in enumerate(breakpoints[:-1]) if b <= lo)]


def edge_problem(rng: random.Random, dependent: bool) -> dict:
    """A problem on a merged grid with null atoms.

    Each player breaks at the ends of one or two stretches where every
    density vanishes (at twelfths, so possibly at 0 or 1) and at points
    of its own with a denominator of its own, so players rarely share a
    breakpoint.  Outside the stretches a density's levels are 0 to 5.
    ``dependent`` makes the last density a mix of the others, on the
    union of their breakpoints.  The goal matrix is ``(G x) s'`` with
    ``s`` summing to 0, which is proper for every profile.
    """
    n = rng.randint(3 if dependent else 2, 4)
    ends = sorted(rng.sample([Fraction(k, 12) for k in range(13)], 2 * rng.randint(1, 2)))
    stretches = list(zip(ends[::2], ends[1::2]))
    densities = []
    for i in range(n - 1 if dependent else n):
        den = (5, 7, 9, 11)[i]
        own = rng.sample([Fraction(k, den) for k in range(1, den)], rng.randint(1, 3))
        breakpoints = sorted({Fraction(0), Fraction(1), *ends, *own})
        while True:
            levels = [0 if any(a <= lo < b for a, b in stretches) else rng.randint(0, 5)
                      for lo in breakpoints[:-1]]
            if any(levels):
                break
        mass = sum(v * (hi - lo) for v, lo, hi in zip(levels, breakpoints, breakpoints[1:]))
        densities.append((breakpoints, [Fraction(v) / mass for v in levels]))
    if dependent:
        mix = [rng.randint(1, 3) for _ in densities]
        breakpoints = sorted({b for bps, _ in densities for b in bps})
        densities.append((breakpoints, [sum(c * _value_at(d, lo) for c, d in zip(mix, densities))
                                        / sum(mix) for lo in breakpoints[:-1]]))
    g = perfbench.checker.gram(densities)
    while True:
        x = [rng.randint(-3, 3) for _ in range(n)]
        u = [sum(g[i][j] * x[j] for j in range(n)) for i in range(n)]
        s = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        s = [t - sum(s) / n for t in s]
        k = [[a * b for b in s] for a in u]
        if any(map(any, k)):
            break
    raw = [rng.randint(1, 6) for _ in range(n)]
    return {
        "players": n,
        "densities": [{"breakpoints": list(map(str, bps)), "values": list(map(str, vals))}
                      for bps, vals in densities],
        "p": [str(Fraction(r, sum(raw))) for r in raw],
        "K": [list(map(str, row)) for row in k],
    }


def edge_commands(hf, workdir: Path) -> list[tuple[list[str], Path]]:
    """``solve`` on :func:`edge_problem`'s problems at the factor bound, at half
    of it and at ``"max"``; fails unless every profile has a null atom and
    some density breaks where another does not."""
    workdir.mkdir()
    rng = random.Random("construction_edges")
    commands = []
    for idx in range(EDGE_PROBLEMS):
        problem = edge_problem(rng, dependent=idx % 3 == 2)
        parsed = hf.problem_io.parse_problem(problem)
        profile = hf.common_refinement(parsed.densities)
        if not any(map(profile.is_null_atom, range(len(profile.atoms)))):
            raise SystemExit(f"construction edge problem {idx} has no null atom")
        if len({d.breakpoints for d in parsed.densities}) == 1:
            raise SystemExit(f"construction edge problem {idx} is on one grid")
        bound = hf.factor_delta_bound(hf.pseudo_inverse(hf.gram_matrix(profile)) @ parsed.k.mat,
                                      parsed.p)
        for name, delta in (("bound", hf.fmt(bound)), ("half", hf.fmt(bound / 2)), ("max", "max")):
            source = workdir / f"edge-{idx:02d}-{name}.problem.json"
            report = source.with_name(f"edge-{idx:02d}-{name}.solve.json")
            source.write_text(json.dumps({**problem, "delta": delta}), encoding="utf-8")
            commands.append((["solve", "--input", str(source), "--output", str(report)], report))
    return commands


def exit_commands(workdir: Path) -> list[tuple[list[str], Path]]:
    """Commands on variants of the bundled three-player problem, one for each
    exit that the other groups never reach: ``solve``'s analysis only (no K,
    no R); an improper K (``gram`` and ``solve``); a margin past the maximum;
    a zero K at ``"max"`` (``"unbounded"`` and ``"unconstrained"``); an
    all-``"="`` pattern; a pattern that the row test refutes; and ``verify``
    of a partition that fails the hyper check."""
    workdir.mkdir()
    bundled = json.loads((PROBLEMS / "three_players.json").read_text(encoding="utf-8"))
    base = {key: bundled[key] for key in ("players", "densities", "p")}
    thirds = ["0", "1/3", "2/3", "1"]
    independent = [{"breakpoints": thirds, "values": ["3" if i == j else "0" for j in range(3)]}
                   for i in range(3)]
    problems = {
        "analysis_only": (base, ["solve"]),
        "improper": ({**base, "K": [["1", "-1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
                     ["gram", "solve"]),
        "past_max": ({**bundled, "delta": "1/2"}, ["solve"]),
        "zero_max": ({**base, "K": [["0"] * 3] * 3, "delta": "max"}, ["solve"]),
        "all_equal": ({**base, "R": [["="] * 3] * 3}, ["solve"]),
        "row_test": ({**base, "densities": independent, "R": [[">"] * 3, ["="] * 3, ["="] * 3]},
                     ["solve"]),
    }
    commands = []
    for name, (problem, argvs) in problems.items():
        source = workdir / f"{name}.problem.json"
        source.write_text(json.dumps(problem), encoding="utf-8")
        for command in argvs:
            report = workdir / f"{name}.{command}.json"
            commands.append(([command, "--input", str(source), "--output", str(report)], report))
    partition = workdir / "one_owner.partition.json"
    partition.write_text(json.dumps({"intervals": [[["0", "1"]], [], []]}), encoding="utf-8")
    report = workdir / "one_owner.verify.json"
    commands.append((["verify", "--input", str(PROBLEMS / "three_players.json"),
                      "--partition", str(partition), "--output", str(report)], report))
    return commands


def _routes(commands: list[tuple[list[str], Path]]) -> set:
    return {json.loads(report.read_text(encoding="utf-8")).get("route") for _, report in commands}


def all_digests() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for workload, seed in POOLS:
            hf, instances = perfbench.set_up(workload, seed, work / f"{workload}-{seed}")
            # an instance's i-th command writes its i-th report
            commands = [pair for inst in instances for pair in zip(inst.commands, inst.reports)]
            digests[f"{workload}/seed{seed}"] = {"commands": len(commands),
                                                 "sha256": digest(hf.cli, commands)}
            if (workload, seed) == ("solve_fixed", 1):
                lp = fixed_lp_commands(hf, instances, work / "solve_fixed_lp")
        groups = {
            "problems": bundled_commands(
                work, [p for p in sorted(PROBLEMS.glob("*.json")) if p != PARTITION], PARTITION),
            "noncanonical": [pair for kinds in (6, 5) for pair in bundled_commands(
                work / f"noncanonical{kinds}",
                *noncanonical_files(work / f"noncanonical{kinds}", kinds))],
            "solve_fixed_lp/seed1": lp,
            "construction_edges": edge_commands(hf, work / "construction_edges"),
            "exits": exit_commands(work / "exits"),
        }
        for name, commands in groups.items():
            digests[name] = {"commands": len(commands), "sha256": digest(hf.cli, commands)}
        routes = _routes(lp)
        if routes != {"lp"}:
            raise SystemExit(f"solve_fixed_lp/seed1 took the routes {sorted(map(str, routes))}, not only 'lp'")
        edges = groups["construction_edges"]
        # each problem's runs: the bound and half of it by the factor, then max by the LP
        if tuple(_routes(edges[i::3]) for i in range(3)) != ({"factor"}, {"factor"}, {"lp"}):
            raise SystemExit("construction_edges took a route other than factor, factor, lp")
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"compare the digests with {STORED.name} instead of storing them")
    args = ap.parse_args(argv)
    digests = all_digests()
    if not args.check:
        STORED.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
        print(f"{len(digests)} output digests stored in {STORED.name}")
        return 0
    stored = json.loads(STORED.read_text(encoding="utf-8"))
    differ = [name for name in sorted(stored.keys() | digests.keys())
              if stored.get(name) != digests.get(name)]
    for name in differ:
        print(f"output digest differs: {name}: {digests.get(name)} != stored {stored.get(name)}",
              file=sys.stderr)
    print(f"{len(digests) - len(differ)} of {len(digests)} output digests match {STORED.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
