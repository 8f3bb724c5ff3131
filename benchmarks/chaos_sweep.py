"""Sweep the named chaos plans over a seed range and list what is not ok.

Every chaos run is fully determined by its (plan, seed), so a sweep
outside the seeds that tier-1 and the nightly verdicts pin shows where
a timing shift moved a known defect or exposed a new one.  Prints one
line per plan (the seeds not ``ok``, the runs that broke Rule 1), then
the totals; exits 1 if any run is not ``ok``.

Usage::

    PYTHONPATH=src python benchmarks/chaos_sweep.py               # seeds 40-139
    PYTHONPATH=src python benchmarks/chaos_sweep.py --first 0 --last 39 \\
        --plan partition --plan smoke --workers 2
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from typing import List, Sequence, Tuple

from repro.faults.chaos import run_chaos
from repro.faults.plan import NAMED_PLANS


def _one(job: Tuple[str, int]) -> Tuple[str, int, bool, int]:
    plan, seed = job
    data = run_chaos(plan=plan, seed=seed).data
    return plan, seed, bool(data["ok"]), data["invariants"]["rule1_violations"]


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", action="append", choices=sorted(NAMED_PLANS))
    parser.add_argument("--first", type=int, default=40)
    parser.add_argument("--last", type=int, default=139)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    plans: List[str] = args.plan or list(NAMED_PLANS)
    jobs = [
        (plan, seed) for plan in plans for seed in range(args.first, args.last + 1)
    ]
    # A worker is replaced now and then, so a run's garbage goes with it.
    context = multiprocessing.get_context("spawn")
    with context.Pool(args.workers, maxtasksperchild=20) as pool:
        rows = pool.map(_one, jobs, chunksize=1)
    failed = breaches = 0
    for plan in plans:
        mine = [row for row in rows if row[0] == plan]
        bad = [seed for _plan, seed, ok, _rule1 in mine if not ok]
        rule1 = [seed for _plan, seed, _ok, rule1 in mine if rule1]
        failed, breaches = failed + len(bad), breaches + len(rule1)
        print(f"{plan:20s} not ok: {bad or '-'}  Rule 1: {rule1 or '-'}")
    print(
        f"{len(rows)} runs, seeds {args.first}-{args.last}: "
        f"{failed} not ok, {breaches} broke Rule 1"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
