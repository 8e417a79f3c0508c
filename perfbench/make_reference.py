"""Regenerate reference.json: every workload's means and standard errors at
REFERENCE_TRIAL_FACTOR times its benchmark trials, at a Monte Carlo seed that
benchmark runs never use.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to move the expected
values (a new quantity or spec), never to make a failing check pass: a
stream-layout change keeps the expectations and passes the statistical check
as it stands.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import run

REFERENCE_SEED = 7
REFERENCE_TRIAL_FACTOR = 8


def main() -> int:
    os.chdir(run.ROOT)
    assert REFERENCE_SEED < run.SEED_BASE
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    reference = {}
    for wl in run.WORKLOADS.values():
        big = dataclasses.replace(wl, trials=wl.trials * REFERENCE_TRIAL_FACTOR)
        inv = run.invoke(big, REFERENCE_SEED, f"reference-{wl.name}")
        if inv.problems:
            print(f"{wl.name}: {inv.problems}", file=sys.stderr)
            return 1
        values = wl.values(inv.out)
        problems = wl.check(inv.out, values)
        if problems:
            print(f"{wl.name}: {problems}", file=sys.stderr)
            return 1
        reference[wl.name] = {"seed": REFERENCE_SEED, "trials": big.trials,
                              "values": values}
        print(f"{wl.name}: {len(values)} values at {big.trials} trials")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
