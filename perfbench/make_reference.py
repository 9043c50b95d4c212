#!/usr/bin/env python3
"""Regenerate ``reference.json``: expected outcomes on the default seed.

    python3 perfbench/make_reference.py

Runs every problem in each workload's default-seed pool once through
the command line, re-audits it with ``checker.py``, and records its
exit codes, its sign-pattern verdict and its maximal margin.  Runs of
``run.py`` on the default seed must reproduce these exactly.  Only
regenerate the file when a change to the program is meant to change
one of these outcomes, and say so.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    reference = {}
    for workload in run.workloads.WORKLOADS:
        hf, instances = run.set_up(workload, run.DEFAULT_SEED, run.WORK / workload)
        reference[workload] = {}
        for inst in instances:
            run.run_instance(hf.cli, inst)
            codes, outputs = inst.runs[-1]
            reference[workload][inst.name] = run.audit(inst, codes, outputs)
        print(f"{workload}: {len(instances)} problems", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
