"""Record the recovery stack's overhead baseline into BENCH_faults.json.

Runs the deterministic chaos workload three times per seed — fault-free
(plan ``none``), under a 1 % drop plan (``drop1``), and under the
``token-crash`` plan with WAL durability on — and records message
overhead, grant latency, and journaling cost (WAL appends per request)
for each, plus the drop1/none delta.  Later PRs rerun with ``--check``
to diff the fresh summary against the checked-in file and fail loudly on
>10 % drift — catching recovery-path regressions (retransmission storms,
latency blowups, journal write amplification) that the pass/fail chaos
verdict alone would hide.

The chaos harness is fully seed-deterministic, so on unchanged code a
rerun reproduces the recorded summary exactly; the 10 % tolerance exists
for intentional protocol changes, which must re-record the baseline
(and say so in the PR).

Usage::

    PYTHONPATH=src python benchmarks/record_faults_baseline.py            # record
    PYTHONPATH=src python benchmarks/record_faults_baseline.py --check   # verify
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Sequence

from repro.faults.chaos import run_chaos

SEEDS = (0, 7, 13)
PLANS = ("none", "drop1")
NODES = 5
DURATION = 20.0
LOCKS = 3

#: The durable crash-restart group: same workload, token-crash plan,
#: WAL journaling on.  Every run must converge clean (every audit
#: finding fails a verdict, durable or not), so the baseline also gates
#: the write-side cost of journaling (WAL appends per request).
DURABLE_GROUP = "token-crash-durable"

#: The lease-expiry group: minority-partition (the cut never heals), so
#: the stranded holder's leases expire and the majority must revoke to
#: make progress.  Gates the renewal piggyback cost and the time from
#: lease deadline to revocation.  Seeds are chosen so the minority node
#: actually holds leased modes at cut time — a seed where it holds
#: nothing exercises nothing.  (Picked at the commit that beats only
#: live dependencies, which moved every trajectory: 0, 4, 5, 10, 12,
#: 16, 18, 19, 20, 21, 22 and 23 qualify of seeds 0-23; since per-tick
#: promises are acknowledged instead of announced, 0, 1, 4, 5, 6, 8,
#: 14, 16 and 20 do.  1, 4 and 15
#: before it, from the commit that re-sends requests at loss events
#: instead of on a timer; 6, 11 and 15 before that, from the commit
#: that scoped heartbeats to dependencies; 7, 9 and 11 before that,
#: from the commit that moved session acks onto heartbeats; 1, 7 and 9
#: before that, from the one that made heartbeats and acks datagrams;
#: 2, 3 and 7 before that.)
LEASE_GROUP = "lease-expiry"
LEASE_SEEDS = (0, 4, 5)

#: The membership-churn group: the three named churn plans (a rolling
#: join, a graceful drain with a replacement join, and a crash followed
#: by decommission + replacement) run under load.  Gates the message
#: cost of view changes plus the two user-facing latencies of dynamic
#: membership: how long a joiner takes to install a view containing
#: itself, and how long a graceful drain takes from begin to removal.
CHURN_GROUP = "membership-churn"
CHURN_PLANS = ("rolling-join", "graceful-drain", "kill-and-replace")
CHURN_SEEDS = (0, 1)

#: Relative drift beyond which ``--check`` fails.
TOLERANCE = 0.10

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(_ROOT, "BENCH_faults.json")

#: Summary metrics diffed by ``--check``, per plan.
PLAN_METRICS = ("messages_per_request", "latency_mean", "latency_p95")

#: Summary metrics of the durable group (adds journaling cost).
DURABLE_METRICS = PLAN_METRICS + ("wal_appends_per_request",)

#: Summary metrics of the lease-expiry group.
LEASE_METRICS = (
    "messages_per_request",
    "lease_revoke_latency_mean",
    "lease_renewals_per_request",
)

#: Summary metrics of the membership-churn group.
CHURN_METRICS = (
    "messages_per_request",
    "join_settle_mean",
    "drain_latency_mean",
)

#: Cross-plan overhead factors diffed by ``--check``.
OVERHEAD_METRICS = ("messages_per_request_factor", "latency_mean_factor")


def _one_run(plan: str, seed: int, durable: bool = False) -> Dict[str, object]:
    verdict = run_chaos(
        plan=plan, seed=seed, nodes=NODES, duration=DURATION, locks=LOCKS,
        durable=durable,
    )
    data = verdict.data
    requests = data["requests"]
    recovery = data["recovery"]
    faults = data["faults"]
    issued = int(requests["issued"])  # type: ignore[index]
    sent = int(faults["messages_sent"])  # type: ignore[index]
    run = {
        "seed": seed,
        "ok": data["ok"],
        "requests": issued,
        "granted": requests["granted"],  # type: ignore[index]
        "messages_sent": sent,
        "messages_per_request": round(sent / issued, 3) if issued else None,
        "messages_dropped": faults["messages_dropped"],  # type: ignore[index]
        "latency_mean": data["latency"]["mean"],  # type: ignore[index]
        "latency_p95": data["latency"]["p95"],  # type: ignore[index]
        "app_retransmits": recovery["app_retransmits"],  # type: ignore[index]
        "channel_retransmits": recovery["channel_retransmits"],  # type: ignore[index]
        "duplicates_dropped": recovery["duplicates_dropped"],  # type: ignore[index]
    }
    if durable:
        durability = data["durability"]
        wal = durability["wal"]  # type: ignore[index]
        appends = int(wal["appends"])  # type: ignore[index]
        run["wal_appends"] = appends
        run["wal_appends_per_request"] = (
            round(appends / issued, 3) if issued else None
        )
        run["wal_snapshots"] = wal["snapshots"]  # type: ignore[index]
        run["durable_restarts"] = len(durability["restarts"])  # type: ignore[arg-type]
    leases = data["leases"]
    if leases["revoked"] or leases["renewals_sent"]:  # type: ignore[index]
        renewals = int(leases["renewals_sent"])  # type: ignore[index]
        run["leases_revoked"] = leases["revoked"]  # type: ignore[index]
        run["lease_revoke_latency_mean"] = leases["revoke_latency_mean"]  # type: ignore[index]
        run["lease_renewals_per_request"] = (
            round(renewals / issued, 3) if issued else None
        )
    membership = data.get("membership")
    if membership is not None:
        run["view_epochs"] = membership["view_epochs"]  # type: ignore[index]
        run["join_settle"] = [
            float(entry["settle_latency"])
            for entry in membership["join_settle"]  # type: ignore[index]
            if entry["settle_latency"] is not None
        ]
        run["drain_latency"] = [
            float(entry["drain_latency"])
            for entry in membership["drain_latency"]  # type: ignore[index]
            if entry["drain_latency"] is not None
        ]
    return run


def measure() -> Dict[str, object]:
    """Run the chaos matrix; return ``{"summary": ..., "runs": ...}``."""

    runs: Dict[str, List[Dict[str, object]]] = {p: [] for p in PLANS}
    for plan in PLANS:
        for seed in SEEDS:
            runs[plan].append(_one_run(plan, seed))
    runs[DURABLE_GROUP] = [
        _one_run("token-crash", seed, durable=True) for seed in SEEDS
    ]
    failed = [r["seed"] for r in runs[DURABLE_GROUP] if not r["ok"]]
    if failed:
        raise SystemExit(
            f"durable token-crash runs failed for seeds {failed}: "
            "durability must converge clean before its cost is recorded"
        )
    runs[LEASE_GROUP] = [
        _one_run("minority-partition", seed) for seed in LEASE_SEEDS
    ]
    bad = [
        r["seed"]
        for r in runs[LEASE_GROUP]
        if not r["ok"] or not r.get("leases_revoked")
    ]
    if bad:
        raise SystemExit(
            f"lease-expiry runs for seeds {bad} failed or revoked "
            "nothing: the group must exercise expiry before its cost "
            "is recorded"
        )
    churn_rows: List[Dict[str, object]] = []
    for plan in CHURN_PLANS:
        for seed in CHURN_SEEDS:
            row = _one_run(plan, seed)
            row["plan"] = plan
            churn_rows.append(row)
    runs[CHURN_GROUP] = churn_rows
    bad_churn = [
        (r["plan"], r["seed"]) for r in churn_rows if not r["ok"]
    ]
    if bad_churn:
        raise SystemExit(
            f"membership-churn runs failed: {bad_churn}; churn must "
            "converge clean before its cost is recorded"
        )
    churn_settles = [
        value for r in churn_rows for value in r.get("join_settle", ())
    ]
    churn_drains = [
        value for r in churn_rows for value in r.get("drain_latency", ())
    ]
    if not churn_settles or not churn_drains:
        raise SystemExit(
            "membership-churn recorded no join settle or drain latency: "
            "the plans must exercise both before their cost is recorded"
        )

    def _mean(plan: str, field: str) -> float:
        values = [float(r[field]) for r in runs[plan]]  # type: ignore[arg-type]
        return round(sum(values) / len(values), 4)

    summary: Dict[str, Dict[str, float]] = {
        plan: {metric: _mean(plan, metric) for metric in PLAN_METRICS}
        for plan in PLANS
    }
    summary[DURABLE_GROUP] = {
        metric: _mean(DURABLE_GROUP, metric) for metric in DURABLE_METRICS
    }
    summary[LEASE_GROUP] = {
        metric: _mean(LEASE_GROUP, metric) for metric in LEASE_METRICS
    }
    churn_msgs = [
        float(r["messages_per_request"]) for r in churn_rows  # type: ignore[arg-type]
    ]
    summary[CHURN_GROUP] = {
        "messages_per_request": round(
            sum(churn_msgs) / len(churn_msgs), 4
        ),
        "join_settle_mean": round(
            sum(churn_settles) / len(churn_settles), 4
        ),
        "drain_latency_mean": round(
            sum(churn_drains) / len(churn_drains), 4
        ),
    }
    clean, lossy = summary["none"], summary["drop1"]
    summary["overhead"] = {
        "messages_per_request_factor": round(
            lossy["messages_per_request"] / clean["messages_per_request"], 3
        ),
        "latency_mean_factor": round(
            lossy["latency_mean"] / clean["latency_mean"], 3
        ),
    }
    return {"summary": summary, "runs": runs}


def compare_summary(
    baseline: Dict[str, object],
    current: Dict[str, Dict[str, float]],
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Return one human-readable line per out-of-tolerance summary metric.

    Empty list means the fresh *current* summary matches the checked-in
    *baseline* within *tolerance* relative drift everywhere.  A missing
    plan or metric is reported as drift too — a baseline that no longer
    describes the matrix is stale, not passing.
    """

    problems: List[str] = []
    base_summary = baseline.get("summary", {})
    groups = [(plan, PLAN_METRICS) for plan in PLANS]
    groups.append((DURABLE_GROUP, DURABLE_METRICS))
    groups.append((LEASE_GROUP, LEASE_METRICS))
    groups.append((CHURN_GROUP, CHURN_METRICS))
    groups.append(("overhead", OVERHEAD_METRICS))
    for group, metrics in groups:
        base_group = base_summary.get(group)  # type: ignore[union-attr]
        cur_group = current.get(group)
        if base_group is None:
            problems.append(f"faults_baseline: {group!r} not in baseline")
            continue
        if cur_group is None:
            problems.append(f"faults_baseline: {group!r} not measured")
            continue
        for metric in metrics:
            if metric not in base_group:
                problems.append(
                    f"faults_baseline/{group}: {metric!r} not in baseline"
                )
                continue
            base_f = float(base_group[metric])
            cur_f = float(cur_group.get(metric, 0.0))
            if base_f == 0.0:
                drift = abs(cur_f)
            else:
                drift = abs(cur_f - base_f) / abs(base_f)
            if drift > tolerance:
                problems.append(
                    f"faults_baseline/{group}/{metric}: {cur_f:.4f} vs "
                    f"baseline {base_f:.4f} ({drift:+.1%} drift, "
                    f"tolerance {tolerance:.0%})"
                )
    return problems


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(path: str) -> int:
    """Measure a fresh matrix, diff against the checked-in baseline."""

    if not os.path.exists(path):
        print(
            f"missing baseline file {path} (run without --check to "
            "record it)",
            file=sys.stderr,
        )
        return 1
    measured = measure()
    problems = compare_summary(_load(path), measured["summary"])
    if problems:
        print("FAULTS BASELINE DRIFT — recovery overhead moved beyond "
              "tolerance:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print(
            "If this change is intentional, re-record with "
            "`PYTHONPATH=src python benchmarks/record_faults_baseline.py` "
            "and commit the updated BENCH_faults.json.",
            file=sys.stderr,
        )
        return 1
    print("faults baseline OK: chaos overhead within "
          f"{TOLERANCE:.0%} of checked-in values")
    return 0


def record(out_path: str) -> Dict[str, object]:
    """Measure and write the baseline file; return the report."""

    measured = measure()
    report = {
        "benchmark": "faults_baseline",
        "config": {
            "plans": list(PLANS),
            "durable_plan": "token-crash",
            "lease_plan": "minority-partition",
            "churn_plans": list(CHURN_PLANS),
            "seeds": list(SEEDS),
            "lease_seeds": list(LEASE_SEEDS),
            "churn_seeds": list(CHURN_SEEDS),
            "nodes": NODES,
            "duration": DURATION,
            "locks": LOCKS,
        },
        "summary": measured["summary"],
        "runs": measured["runs"],
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=BASELINE_PATH, metavar="PATH")
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the checked-in baseline "
        "instead of rewriting it; exit 1 on >10%% drift",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.out)
    report = record(args.out)
    summary = report["summary"]
    for plan in PLANS:
        stats = summary[plan]  # type: ignore[index]
        print(
            f"{plan:>6}: {stats['messages_per_request']:.2f} msgs/req, "
            f"mean latency {stats['latency_mean'] * 1000:.1f} ms, "
            f"p95 {stats['latency_p95'] * 1000:.1f} ms"
        )
    durable = summary[DURABLE_GROUP]  # type: ignore[index]
    print(
        f"{DURABLE_GROUP}: {durable['messages_per_request']:.2f} msgs/req, "
        f"mean latency {durable['latency_mean'] * 1000:.1f} ms, "
        f"{durable['wal_appends_per_request']:.2f} WAL appends/req"
    )
    lease = summary[LEASE_GROUP]  # type: ignore[index]
    print(
        f"{LEASE_GROUP}: {lease['messages_per_request']:.2f} msgs/req, "
        f"revoke latency {lease['lease_revoke_latency_mean'] * 1000:.0f} ms, "
        f"{lease['lease_renewals_per_request']:.2f} renewals/req"
    )
    churn = summary[CHURN_GROUP]  # type: ignore[index]
    print(
        f"{CHURN_GROUP}: {churn['messages_per_request']:.2f} msgs/req, "
        f"join settle {churn['join_settle_mean'] * 1000:.0f} ms, "
        f"drain {churn['drain_latency_mean'] * 1000:.0f} ms"
    )
    overhead = summary["overhead"]  # type: ignore[index]
    print(
        f"drop1/none: {overhead['messages_per_request_factor']}x messages, "
        f"{overhead['latency_mean_factor']}x mean latency -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
