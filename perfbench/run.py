#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the ``hyperfair`` command line.

    python3 perfbench/run.py --workload analyze --seed 3 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark imports ``hyperfair``
from the checkout's ``src/`` and drives ``hyperfair.cli.main``
in-process, one command at a time, with a single client in a closed
loop: the next instance starts when the previous one has finished.  An
instance is every CLI command run for one problem file.

Set-up imports the package afresh, generates the seeded problem (and,
for ``analyze``, partition) files, and runs one instance to warm up; it
is repeated ``SETUP_REPEATS`` times and ``setup_s`` is the median.  The
timed phase then runs instances until ``--seconds`` have passed.  The
set-up and instance timings are scaled to a reference host speed,
measured by a probe next to each of them (see ``PROBE_REFERENCE_MS``).  Every
report is re-audited afterwards by ``checker.py``, which does not import
the package, and on the default seed compared with ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
instance twice, once plain and once with every public function of the
package wrapped (``spans.py``), and reports the per-layer metrics per
instance, plus the tracing overhead.  The spans are written to
``perfbench/work/``.  The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# A shared host's speed can drift by half for seconds at a time, which
# swamps the differences the benchmark exists to show.  So a fixed piece
# of Fraction arithmetic that never touches the package (the probe, a
# harmonic sum) is timed before every instance, and each instance's wall time is scaled by
# PROBE_REFERENCE_MS over the median of the probes taken around it
# (PROBE_WINDOW on each side).  PROBE_REFERENCE_MS is the probe's typical
# time on a quiet 2-vCPU x86-64 VM under CPython 3.11.7, so the timings
# read as milliseconds at that speed.  The raw figures are printed too.
PROBE_TERMS = 500
PROBE_REFERENCE_MS = 2.1
PROBE_WINDOW = 2
# Problems generated per run.  The solve pools are larger than a run
# can use, so no problem repeats.  The analyze pool is cycled, because
# set-up spends two pseudo-inverses and a factor-route partition on each
# analyze problem.
POOL = {"analyze": 40, "solve_fixed": 160, "solve_max": 160}

PER_LAYER_MS = [
    ("simplex.simplex_solve", "ms"), ("partition.solve_alpha", "self_ms"),
    ("partition.build_from_weights", "ms"), ("relations.solve_relations", "self_ms"),
    ("linalg.smallest_eigenvalue", "ms"), ("linalg.pseudo_inverse", "ms"),
    ("linalg.kernel_basis", "ms"), ("hyperfree.delta_bound", "ms"),
    ("hyperfree.spectral_delta_bound", "self_ms"), ("measures.common_refinement", "ms"),
    ("measures.gram_matrix", "ms"), ("verify.sharing_matrix", "ms"),
    ("verify.check_fairness", "ms"), ("problem_io.load_problem", "ms"),
    ("problem_io.load_partition", "ms"), ("problem_io.write_json", "ms"),
]
PER_LAYER_CALLS = [
    "simplex.simplex_solve", "partition.solve_alpha",
    "partition.build_via_stochastic_factor", "relations.solve_relations",
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "hyperfair" / "__init__.py").is_file():
    fail(f"no hyperfair package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import ``hyperfair`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "hyperfair" or m.startswith("hyperfair.")]:
        del sys.modules[name]
    package = importlib.import_module("hyperfair")
    for sub in ("cli", "problem_io"):
        importlib.import_module(f"hyperfair.{sub}")
    if Path(package.__file__).resolve().parent != (SRC / "hyperfair").resolve():
        fail(f"imported hyperfair from {package.__file__}, not from {SRC}")
    return package


@dataclass
class Instance:
    name: str
    problem: dict
    commands: list[list[str]]
    reports: list[Path]
    partition: dict | None = None
    runs: list = field(default_factory=list)  # (codes, report bytes) per execution


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package, write the seeded input files, warm up."""
    hf = import_package()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances = []
    for spec in workloads.generate(workload, seed, POOL[workload]):
        problem, base = spec["problem"], workdir / spec["name"]
        if workload != "solve_max":
            parsed = hf.problem_io.parse_problem(problem)
            profile = hf.common_refinement(parsed.densities)
            bound = hf.delta_bound(hf.pseudo_inverse(hf.gram_matrix(profile)), parsed.k, parsed.p)
            problem["delta"] = hf.fmt(bound / 2)
        source = base.with_suffix(".problem.json")
        write_json(source, problem)
        inst = Instance(spec["name"], problem, [], [])
        if workload == "analyze":
            part = hf.build_via_stochastic_factor(profile, parsed.k, parsed.p, bound / 2)
            inst.partition = hf.problem_io.serialize_partition(part)
            cut = base.with_suffix(".partition.json")
            write_json(cut, inst.partition)
            inst.reports = [base.with_suffix(".gram.json"), base.with_suffix(".verify.json")]
            inst.commands = [
                ["gram", "--input", str(source), "--output", str(inst.reports[0])],
                ["verify", "--input", str(source), "--partition", str(cut),
                 "--output", str(inst.reports[1])],
            ]
        else:
            inst.reports = [base.with_suffix(".solve.json")]
            inst.commands = [["solve", "--input", str(source), "--output", str(inst.reports[0])]]
        instances.append(inst)
    run_instance(hf.cli, instances[0])
    return hf, instances


def probe_ms() -> float:
    start = time.perf_counter_ns()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS):
        total += Fraction(1, k)
    return (time.perf_counter_ns() - start) / 1e6


def speed_scaled(raw_ms: list[float], probes: list[float]) -> list[float]:
    """Instance times at the reference speed; ``probes[i]`` ran just before instance i."""
    out = []
    for i, value in enumerate(raw_ms):
        around = probes[max(i - PROBE_WINDOW, 0): i + PROBE_WINDOW + 1]
        out.append(value * PROBE_REFERENCE_MS / statistics.median(around))
    return out


def run_instance(cli, inst: Instance) -> int:
    """Run one instance's commands; returns its wall time in ns."""
    for path in inst.reports:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter_ns()
        for argv in inst.commands:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        elapsed = time.perf_counter_ns() - start
    outputs = [p.read_bytes() if p.exists() else None for p in inst.reports]
    if inst.runs and inst.runs[0][1] == outputs:
        outputs = inst.runs[0][1]  # a repeat keeps no second copy of its reports
    inst.runs.append((codes, outputs))
    return elapsed


# -- checking ---------------------------------------------------------------

def audit(inst: Instance, codes, outputs) -> dict:
    """Re-audit one execution; returns its summary for the reference file."""
    checker.require(all(o is not None for o in outputs), f"missing report (exit codes {codes})")
    reports = [json.loads(o) for o in outputs]
    summary = {"exit": codes, "verdict": None, "delta": None}
    if inst.partition is not None:
        checker.check_gram(inst.problem, codes[0], reports[0])
        checker.check_verify(inst.problem, inst.partition, codes[1], reports[1])
    else:
        checker.require(len(codes) == 1, "one solve per instance")
        summary.update(checker.check_solve(inst.problem, codes[0], reports[0]))
    return summary


def check_all(workload: str, seed: int, instances: list[Instance]) -> tuple[int, int, list[str]]:
    """(executions attempted, executions failed, failure messages)."""
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    attempted = failed = 0
    messages = []
    for inst in instances:
        verdicts: dict = {}
        for codes, outputs in inst.runs:
            attempted += 1
            key = (tuple(map(str, codes)), tuple(outputs))
            if key not in verdicts:
                try:
                    summary = audit(inst, codes, outputs)
                    if reference is not None and reference.get(inst.name) != summary:
                        raise checker.CheckError(
                            f"differs from reference.json: {summary} != {reference.get(inst.name)}")
                    verdicts[key] = None
                except (checker.CheckError, KeyError, TypeError, ValueError) as exc:
                    verdicts[key] = f"{inst.name}: {type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failed += 1
                messages.append(verdicts[key])
    return attempted, failed, messages


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def shape_metrics(instances: list[Instance], order: list[int]) -> dict:
    """Input-shape counters per executed instance, from the generated problems."""
    shapes = {}
    for idx in set(order):
        densities = checker.densities_of(instances[idx].problem)
        _, values = checker.atoms_and_values(densities)
        repeated, atoms = checker.repeated_weight_atoms(values)
        dependent = checker.rank(checker.gram(densities)) < len(densities)
        shapes[idx] = (atoms, repeated, dependent)
    count = len(order)
    return {
        "profile.atoms_mean": metric(sum(shapes[i][0] for i in order) / count, "count"),
        "profile.repeat_weight_atoms_frac": metric(
            sum(shapes[i][1] for i in order) / sum(shapes[i][0] for i in order), "fraction"),
        "profile.dependent_frac": metric(sum(shapes[i][2] for i in order) / count, "fraction"),
    }


def layer_metrics(tracer: spans.Tracer, count: int) -> dict:
    totals = tracer.totals()
    out = {}
    for name, kind in PER_LAYER_MS:
        out[f"{name}.{kind}"] = metric(totals.get(name, {}).get(kind, 0.0) / count, "ms")
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = metric(totals.get(name, {}).get("calls", 0) / count, "count")
    out["simplex.lp_rows_max"] = metric(tracer.lp_rows_max, "count")
    out["simplex.lp_cols_max"] = metric(tracer.lp_cols_max, "count")
    out["simplex.witness_bits_max"] = metric(tracer.witness_bits_max, "bits")
    out["simplex.infeasible"] = metric(tracer.counts["simplex.infeasible"] / count, "count")
    out["relations.infeasible"] = metric(tracer.counts["relations.infeasible"] / count, "count")
    cli_self = sum(entry["self_ms"] for name, entry in totals.items() if name.startswith("cli."))
    out["cli.self_ms"] = metric(cli_self / count, "ms")
    return out


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    fields = ["name", "via", "start_ns", "end_ns", "parent", "instance"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}) + "\n", encoding="utf-8")


# -- main -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = WORK / args.workload

    setup_raw, setup_scaled = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = probe_ms()
        start = time.perf_counter()
        hf, instances = set_up(args.workload, args.seed, workdir)
        setup_raw.append(time.perf_counter() - start)
        setup_scaled.append(setup_raw[-1] * PROBE_REFERENCE_MS / ((before + probe_ms()) / 2))
    for inst in instances:
        inst.runs.clear()

    tracer = spans.Tracer() if args.trace else None
    order: list[int] = []
    plain: list[int] = []
    traced: list[int] = []
    probes: list[float] = []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while time.perf_counter() < deadline:
        idx = len(order) % len(instances)
        order.append(idx)
        probes.append(probe_ms())
        plain.append(run_instance(hf.cli, instances[idx]))
        if tracer is not None:
            tracer.instance = len(order) - 1
            tracer.install()
            try:
                traced.append(run_instance(hf.cli, instances[idx]))
            finally:
                tracer.uninstall()
    phase_s = time.perf_counter() - begin
    probes.append(probe_ms())

    attempted, failed, messages = check_all(args.workload, args.seed, instances)
    for line in messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    raw = [t / 1e6 for t in plain]
    ms = speed_scaled(raw, probes)
    tail_ms, tail_pct = tail(ms)
    print(f"{args.workload} seed {args.seed}: {len(order)} instances in {phase_s:.1f} s, "
          f"{len(set(order))} distinct; failed {failed}/{attempted} "
          f"(failed_frac {failed / attempted:.4f})")
    print(f"  raw wall time: p50 {statistics.median(raw):.1f} ms, tail {tail(raw)[0]:.1f} ms, "
          f"{len(order) / phase_s:.3f} instances/s, set-up {statistics.median(setup_raw):.3f} s; "
          f"probe median {statistics.median(probes):.3f} ms (reference {PROBE_REFERENCE_MS} ms)")

    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "instance_ms_p50": metric(statistics.median(ms), "ms"),
            "instance_ms_tail": metric(tail_ms, "ms"),
            "instances_per_s": metric(1000.0 * len(ms) / sum(ms), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        print(f"  instance_ms_tail is p{tail_pct:.1f} of {len(ms)} samples; "
              f"setup_s is the median of {len(setup_scaled)} set-ups")
    else:
        metrics = layer_metrics(tracer, len(order))
        metrics.update(shape_metrics(instances, order))
        metrics["trace.overhead_frac"] = metric(sum(traced) / sum(plain) - 1.0, "fraction")
        write_spans(tracer, workdir / "spans.json")
        print(f"  {len(tracer.spans)} spans written to {workdir / 'spans.json'}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
