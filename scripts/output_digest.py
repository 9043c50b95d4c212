#!/usr/bin/env python3
"""Digests of every command line output on fixed inputs.

Runs every ``hyperfair`` command of the seed-1 and seed-2 problem pools
of the three benchmark workloads (generated by ``perfbench/run.py``'s
``set_up``), and ``gram``, ``solve`` and ``verify`` on each bundled
problem in ``problems/``.  Each group's digest is a SHA-256 over the
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
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
STORED = Path(__file__).resolve().parent / "output_digest.json"
POOLS = [(workload, seed) for workload in ("analyze", "solve_fixed", "solve_max") for seed in (1, 2)]
PARTITION = PROBLEMS / "three_players_partition.json"

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


def bundled_commands(workdir: Path) -> list[tuple[list[str], Path]]:
    commands = []
    for problem in sorted(PROBLEMS.glob("*.json")):
        if problem == PARTITION:
            continue
        for argv in (["gram"], ["solve"], ["verify", "--partition", str(PARTITION)]):
            report = workdir / f"{problem.stem}.{argv[0]}.json"
            commands.append((argv + ["--input", str(problem), "--output", str(report)], report))
    return commands


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
        commands = bundled_commands(work)
        digests["problems"] = {"commands": len(commands), "sha256": digest(hf.cli, commands)}
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
