"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They use small pools under ``perfbench/work/test``, so they take seconds.
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction

import pytest

import checker
import run
import spans


@pytest.fixture(autouse=True)
def small_pools(monkeypatch):
    monkeypatch.setattr(run, "POOL", {w: 4 for w in run.POOL})
    monkeypatch.setattr(run, "WORK", run.HERE / "work" / "test")


def inputs(workload: str, seed: int, tag: str) -> dict[str, bytes]:
    workdir = run.WORK / f"{workload}-{tag}"
    run.set_up(workload, seed, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
            if p.name.endswith((".problem.json", ".partition.json"))}


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = inputs(workload, 7, "a")
    assert first and first == inputs(workload, 7, "b")
    other = inputs(workload, 8, "c")
    assert other.keys() == first.keys()
    assert all(other[name] != first[name] for name in first)


def executed(workload: str, seed: int = 5):
    hf, instances = run.set_up(workload, seed, run.WORK / workload)
    inst = instances[0]
    inst.runs.clear()
    run.run_instance(hf.cli, inst)
    codes, outputs = inst.runs[0]
    run.audit(inst, codes, outputs)  # the untouched outputs pass
    return inst, codes, [json.loads(o) for o in outputs]


def rejects(inst, codes, reports) -> bool:
    blobs = [json.dumps(r).encode() for r in reports]
    with pytest.raises(checker.CheckError):
        run.audit(inst, codes, blobs)
    return True


def nudge(value: str, by: Fraction) -> str:
    x = Fraction(value) + by
    return f"{x.numerator}/{x.denominator}"


def moved_endpoint(partition: list) -> list:
    for piece in partition:
        for interval in piece:
            if Fraction(interval[1]) < 1:
                interval[1] = nudge(interval[1], Fraction(1, 1000))
                return partition
    raise AssertionError("no interior endpoint")


def test_checker_rejects_a_moved_endpoint_in_a_solve_report():
    inst, codes, reports = executed("solve_fixed")
    moved_endpoint(reports[0]["partition"])
    assert rejects(inst, codes, reports)


def test_checker_rejects_a_moved_endpoint_in_an_audited_partition():
    inst, codes, reports = executed("analyze")
    inst.partition = {"intervals": moved_endpoint(reports[1]["partition"])}
    assert rejects(inst, codes, reports)


def test_checker_rejects_a_margin_off_by_one_billionth():
    inst, codes, reports = executed("solve_fixed")
    reports[0]["delta"] = nudge(reports[0]["delta"], Fraction(1, 10**9))
    assert rejects(inst, codes, reports)

    inst, codes, reports = executed("analyze")
    fairness = reports[1]["fairness"]
    fairness["hyper_delta"] = nudge(fairness["hyper_delta"], Fraction(1, 10**9))
    assert rejects(inst, codes, reports)


def wrapped_attributes() -> list[str]:
    return [f"{m.__name__}.{attr}" for m in spans.package_modules()
            for attr, fn in vars(m).items()
            if isinstance(fn, types.FunctionType) and hasattr(fn, "__wrapped__")]


@pytest.mark.parametrize("trace", [0, 1])
def test_runs_leave_the_package_unwrapped(trace, capsys):
    assert run.main(["--workload", "solve_max", "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert "hyperfair.cli" in sys.modules
    assert wrapped_attributes() == []


def test_tracer_wraps_each_caller_namespace():
    run.import_package()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = set(wrapped_attributes())
    finally:
        tracer.uninstall()
    assert {"hyperfair.partition.simplex_solve", "hyperfair.relations.simplex_solve",
            "hyperfair.hyperfree.smallest_eigenvalue", "hyperfair.cli.main"} <= wrapped
    assert wrapped_attributes() == []
