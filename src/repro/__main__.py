"""Command-line driver: ``python -m repro <experiment> [--quick]``.

Runs any of the paper's experiments from the shell:

* ``tables``   — regenerate and verify Tables 1(a)-2(b),
* ``fig5``     — Figure 5, message overhead vs. nodes,
* ``fig6``     — Figure 6, latency factor vs. nodes,
* ``fig7``     — Figure 7, message-type breakdown,
* ``headline`` — the §6 comparison at the largest cluster,
* ``ablations``— the A1-A4 design-choice studies,
* ``priority`` — the strict-priority arbitration extension study,
* ``related``  — §5's dynamic-vs-static token-tree comparison,
* ``all``      — everything above, in order,
* ``report``   — render an observability trace written by ``--trace-out``,
* ``chaos``    — run a fault-injection scenario and print its verdict
  (see ``python -m repro chaos --help`` and docs/FAULTS.md),
* ``monitor``  — poll a live cluster's monitor endpoint and render a
  health table with audit verdicts (see docs/MONITORING.md),
* ``replay``   — time-travel debugger for flight-recorder dumps
  (``chaos --flight-dir``); reconstruct state at any seq, diff, grep,
  bisect for the first bad event (see docs/DEBUGGING.md).

``--quick`` switches the sweeps to CI scale (a few seconds total);
``--nodes N`` overrides the node counts with a single cluster size.
``--trace-out run.jsonl`` attaches the observability layer to the
figure/headline experiments and dumps spans + time series as JSONL;
``python -m repro report run.jsonl`` renders that file as text tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Sequence

from .experiments import EXPERIMENTS, PAPER_SEED, rendered, scale
from .experiments.common import RunResult, write_run_traces
from .obs.export import load_runs_from_path
from .obs.report import render_report, report_payload

#: Experiments that can carry the observability layer (``--trace-out``):
#: the readings of the sweep, whose results list their ``all_runs()``.
OBSERVABLE = ("fig5", "fig6", "fig7", "headline")


def _chaos_main(argv: Sequence[str]) -> int:
    """``python -m repro chaos``: one fault scenario, one verdict."""

    from .faults.chaos import (
        CHAOS_OBS_MAX_BUCKETS,
        CHAOS_OBS_MAX_SPANS,
        run_chaos,
    )
    from .faults.plan import NAMED_PLANS
    from .obs.collect import RunObserver
    from .obs.export import write_run

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run a scripted workload under a fault plan and "
        "report Rule-1 safety plus eventual-grant liveness.",
    )
    parser.add_argument(
        "--plan", default="smoke", choices=sorted(NAMED_PLANS),
        help="canned fault plan (default: smoke)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="run seed: workload, latency and fault streams all derive "
        "from it, so failures replay bit-for-bit",
    )
    parser.add_argument(
        "--nodes", type=int, default=5, help="cluster size (default: 5)",
    )
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="issue-window length in simulated seconds (default: 30)",
    )
    parser.add_argument(
        "--locks", type=int, default=3,
        help="distinct locks in the workload (default: 3)",
    )
    parser.add_argument(
        "--grace", type=float, default=15.0,
        help="drain window after the issue window (default: 15)",
    )
    parser.add_argument(
        "--durable", action="store_true",
        help="journal every node's protocol state through repro.persist "
        "(file-backed WAL + snapshots) so restarted nodes replay their "
        "journal instead of rejoining blank; blank-rejoin findings "
        "become hard failures",
    )
    parser.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="with --durable: root the WAL/snapshot files at DIR and "
        "keep them after the run (default: a temp dir, always removed)",
    )
    parser.add_argument(
        "--reclaim", action="store_true",
        help="with --durable: surviving application sessions re-assert "
        "their journaled holds under fresh leases after a restart "
        "instead of disowning them (see repro.services.sessions)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full verdict as JSON instead of a summary",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write an observability JSONL trace of the run",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="record every node's inputs into a flight-recorder ring "
        "buffer; on a failing verdict (or audit findings) dump all ring "
        "buffers into DIR for `python -m repro replay`",
    )
    args = parser.parse_args(list(argv))
    if args.reclaim and not args.durable:
        parser.error("--reclaim requires --durable (holds are reclaimed "
                     "from the journal)")
    obs = (
        RunObserver(
            max_buckets=CHAOS_OBS_MAX_BUCKETS,
            max_spans=CHAOS_OBS_MAX_SPANS,
        )
        if args.trace_out is not None
        else None
    )
    persistence = None
    tmpdir = None
    if args.durable:
        import shutil
        import tempfile

        from .persist import FilePersistence

        wal_dir = args.wal_dir
        if wal_dir is None:
            tmpdir = tempfile.mkdtemp(prefix="repro-chaos-wal-")
            wal_dir = tmpdir
        persistence = FilePersistence(wal_dir)
    try:
        verdict = run_chaos(
            plan=args.plan,
            seed=args.seed,
            nodes=args.nodes,
            duration=args.duration,
            locks=args.locks,
            grace=args.grace,
            obs=obs,
            durable=args.durable,
            persistence=persistence,
            reclaim=args.reclaim,
            flight_dir=args.flight_dir,
        )
    except KeyboardInterrupt:
        return 130
    finally:
        # A temp WAL root never outlives the run — not on success, not
        # on a failing verdict, not on ^C.  Nested so a close() that
        # raises (e.g. a full disk flushing the final snapshot) cannot
        # skip the rmtree; an explicit --wal-dir is user-owned and kept.
        try:
            if persistence is not None:
                persistence.close()
        finally:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)
    if args.trace_out is not None and obs is not None:
        meta = {
            "label": f"chaos:{args.plan}",
            "plan": args.plan,
            "nodes": args.nodes,
            "seed": args.seed,
            "sim_time": verdict.data["sim_time"],
        }
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            lines = write_run(stream, obs, meta)
        print(f"wrote {lines} trace lines to {args.trace_out}",
              file=sys.stderr)
    if args.json:
        print(verdict.to_json())
    else:
        data = verdict.data
        inv = data["invariants"]
        req = data["requests"]
        rec = data["recovery"]
        status = "OK" if verdict.ok else "FAIL"
        print(
            f"chaos {args.plan} seed={args.seed} nodes={args.nodes}: {status}"
        )
        print(
            f"  rule1 violations: {inv['rule1_violations']}"
            + (f" ({inv['violation']})" if inv["violation"] else "")
        )
        print(
            f"  requests: {req['granted']}/{req['issued']} granted, "
            f"{req['outstanding']} outstanding, "
            f"{req['abandoned_by_crash']} abandoned by crash, "
            f"{req['abandoned_by_expiry']} abandoned by lease expiry"
        )
        print(
            f"  recovery: {rec['suspect_events']} suspects, "
            f"{len(rec['regenerations'])} regenerations, "
            f"{rec['app_retransmits']} request retransmits"
        )
        leases = data.get("leases")
        if leases is not None:
            fenced = ",".join(str(n) for n in leases["fenced_nodes"])
            print(
                f"  leases: {leases['renewals_sent']} renewals, "
                f"{leases['revoked']} revoked, "
                f"fenced=[{fenced}], "
                f"{leases['holds_reclaimed']} holds reclaimed"
            )
        durability = data.get("durability")
        if durability is not None:
            wal = durability["wal"]
            restored = sum(
                entry["rejoin"]["locks_restored"]
                for entry in durability["restarts"]
            )
            print(
                f"  durability: {durability['backend']} backend, "
                f"{wal['appends']} WAL appends, "
                f"{wal['snapshots']} snapshots, "
                f"{len(durability['restarts'])} durable restarts, "
                f"{restored} locks restored"
            )
        audit = data["cluster_audit"]
        gaps = (
            f", known gaps: {', '.join(audit['known_gaps'])}"
            if audit["known_gaps"] else ""
        )
        print(
            f"  cluster audit: "
            f"{'healthy' if audit['healthy'] else 'UNHEALTHY'} "
            f"({len(audit['findings'])} findings, "
            f"{len(audit['expected_findings'])} expected{gaps})"
        )
        for finding in audit["findings"]:
            print(
                f"    [{finding['severity']}] {finding['rule']}: "
                f"{finding['detail']}"
            )
        flight = data.get("flight")
        if flight is not None and "dump" in flight:
            print(
                f"  flight recorder: dumped to {flight['dump']} "
                f"(python -m repro replay {flight['dump']})"
            )
    return 0 if verdict.ok else 1


def _replay_main(argv: Sequence[str]) -> int:
    """``python -m repro replay``: time-travel through a flightrec dump."""

    import json as _json

    from .obs.flightrec import (
        NodeReplayer,
        bisect_timeline,
        build_timeline,
        load_dump,
        run_self_test,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Inspect a flight-recorder dump: reconstruct any "
        "node's state at any recorded seq, diff two points in history, "
        "grep events, or bisect for the first event at which an audit "
        "rule fires (see docs/DEBUGGING.md).",
    )
    parser.add_argument(
        "dump", nargs="?", default=None,
        help="flight-recorder dump file (written by chaos --flight-dir "
        "or repro.obs.flightrec.write_dump)",
    )
    parser.add_argument(
        "--node", type=int, default=None,
        help="node to replay (required by --at/--step/--diff)",
    )
    parser.add_argument(
        "--at", type=int, default=None, metavar="SEQ",
        help="print the node's reconstructed state after seq SEQ",
    )
    parser.add_argument(
        "--step", default=None, metavar="A:B",
        help="print every event of the node in seq range A:B (inclusive)",
    )
    parser.add_argument(
        "--diff", nargs=2, type=int, default=None, metavar=("A", "B"),
        help="print the node's state delta between seqs A and B",
    )
    parser.add_argument(
        "--grep", action="append", default=[], metavar="KEY=VALUE",
        help="filter events (keys: kind, lock, op, type, seq); "
        "repeatable, criteria are ANDed",
    )
    parser.add_argument(
        "--bisect", default=None, metavar="RULE",
        help="binary-search the merged timeline for the first event "
        "after which audit RULE fires (e.g. token-split)",
    )
    parser.add_argument(
        "--lock", default=None,
        help="with --bisect: only count findings on this lock",
    )
    parser.add_argument(
        "--quiescent", action="store_true",
        help="with --bisect: audit at quiescent severity (transient "
        "disagreements count as violations)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="record a short seeded run, verify replay determinism, "
        "and bisect a synthetic injected violation (CI smoke)",
    )
    args = parser.parse_args(list(argv))
    if args.self_test:
        return run_self_test()
    if args.dump is None:
        parser.error("a dump file is required (or --self-test)")
    try:
        dump = load_dump(args.dump)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    criteria = {}
    for item in args.grep:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--grep wants KEY=VALUE, got {item!r}")
        criteria[key] = value

    needs_node = (
        args.at is not None or args.step is not None or args.diff is not None
    )
    if needs_node and args.node is None:
        parser.error("--at/--step/--diff need --node")
    if args.node is not None and args.node not in dump.events:
        print(f"error: node {args.node} is not in the dump "
              f"(nodes: {dump.nodes()})", file=sys.stderr)
        return 2

    if args.bisect is not None:
        verdict = bisect_timeline(
            dump, args.bisect, lock=args.lock, quiescent=args.quiescent
        )
        print(_json.dumps(verdict, indent=2, sort_keys=True, default=str))
        return 0 if verdict.get("fires") else 1

    if args.diff is not None:
        replayer = NodeReplayer.from_dump(dump, args.node)
        print(_json.dumps(
            replayer.diff(args.diff[0], args.diff[1]),
            indent=2, sort_keys=True,
        ))
        return 0

    if args.at is not None:
        replayer = NodeReplayer.from_dump(dump, args.node)
        print(_json.dumps(
            replayer.state_at(args.at), indent=2, sort_keys=True
        ))
        return 0

    if args.step is not None:
        lo_s, sep, hi_s = args.step.partition(":")
        try:
            lo = int(lo_s) if lo_s else 0
            hi = int(hi_s) if sep and hi_s else (1 << 62)
        except ValueError:
            parser.error(f"--step wants A:B seq range, got {args.step!r}")
        replayer = NodeReplayer.from_dump(dump, args.node)
        shown = 0
        for event in replayer.events:
            seq = int(event.get("seq", 0))
            if lo <= seq <= hi and _event_matches_cli(event, criteria):
                print(_json.dumps(event, sort_keys=True))
                shown += 1
        print(f"{shown} event(s)", file=sys.stderr)
        return 0

    if criteria:
        nodes = [args.node] if args.node is not None else dump.nodes()
        shown = 0
        for node_id in nodes:
            replayer = NodeReplayer.from_dump(dump, node_id)
            for event in replayer.grep(criteria):
                print(_json.dumps(
                    dict(event, node=node_id), sort_keys=True
                ))
                shown += 1
        print(f"{shown} event(s)", file=sys.stderr)
        return 0

    # Default: summary + full determinism verification.
    meta = ", ".join(f"{k}={v}" for k, v in sorted(dump.meta.items()))
    print(f"flight dump: protocol={dump.protocol} "
          f"nodes={dump.nodes()}" + (f" ({meta})" if meta else ""))
    if dump.corrupt_skipped or dump.torn_bytes:
        print(f"  damage: {dump.corrupt_skipped} corrupt record(s) "
              f"skipped, {dump.torn_bytes} torn byte(s)")
    timeline = build_timeline(dump)
    print(f"  {len(timeline)} events on the merged timeline")
    findings = []
    for node_id in dump.nodes():
        replayer = NodeReplayer.from_dump(dump, node_id)
        node_findings = replayer.verify()
        findings.extend(node_findings)
        ckpts = sum(1 for e in replayer.events if e.get("kind") == "ckpt")
        dropped = dump.node_meta.get(node_id, {}).get("dropped", 0)
        status = ("ok" if not node_findings
                  else f"{len(node_findings)} finding(s)")
        print(f"  node {node_id}: {len(replayer.events)} events, "
              f"{ckpts} checkpoints, {dropped} dropped — replay {status}")
    if findings:
        print(f"{len(findings)} nondeterminism finding(s):")
        for finding in findings:
            print(f"  node {finding['node']} seq {finding['seq']}: "
                  f"{finding['kind']} — {finding['detail']}")
        return 1
    print("replay clean: every checkpoint reproduced bit-for-bit")
    return 0


def _event_matches_cli(event, criteria) -> bool:
    from .obs.flightrec import _event_matches

    return not criteria or _event_matches(event, criteria)


def _monitor_main(argv: Sequence[str]) -> int:
    """``python -m repro monitor``: live cluster health, human-rendered."""

    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from .obs.live import AuditReport, ClusterView
    from .obs.monitor import render_health_table

    parser = argparse.ArgumentParser(
        prog="python -m repro monitor",
        description="Poll a live cluster's monitor endpoint and render a "
        "refreshing health table with online invariant audit verdicts.",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a running MonitorServer "
        "(e.g. http://127.0.0.1:9178)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default: 2)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="poll once, print, and exit 0 iff the audit is healthy",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="boot a small threaded cluster with a monitor endpoint, run "
        "a workload, poll it over real HTTP once, and exit 0 iff the "
        "audit is healthy (the CI smoke path)",
    )
    parser.add_argument(
        "--nodes", type=int, default=3,
        help="cluster size for --self-test (default: 3)",
    )
    args = parser.parse_args(list(argv))
    if args.self_test:
        return _monitor_self_test(args.nodes)
    if args.url is None:
        parser.error("need --url (or --self-test)")

    base = args.url.rstrip("/")
    while True:
        try:
            with urllib.request.urlopen(f"{base}/cluster", timeout=10) as resp:
                payload = _json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot poll {base}/cluster: {exc}", file=sys.stderr)
            return 2
        flight = None
        try:
            with urllib.request.urlopen(
                f"{base}/flightrec", timeout=10
            ) as resp:
                flight = _json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            flight = None  # Recording not enabled on that cluster.
        view = ClusterView.from_payload(payload["view"])
        report = AuditReport.from_payload(payload["audit"])
        if not args.once and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(render_health_table(view, report, flight=flight))
        if args.once:
            return 0 if report.ok else 1
        print()
        _time.sleep(args.interval)


def _monitor_self_test(nodes: int) -> int:
    """Boot cluster + endpoint, drive a workload, poll over HTTP."""

    import json as _json
    import threading
    import urllib.request

    from .core.modes import LockMode
    from .obs.collect import RunObserver
    from .obs.live import AuditReport, ClusterView, LiveMonitor
    from .obs.monitor import MonitorServer, render_health_table
    from .runtime.cluster import ThreadedHierarchicalCluster

    observer = RunObserver()
    with ThreadedHierarchicalCluster(max(2, nodes)) as cluster:
        for lockspace in cluster.lockspaces.values():
            lockspace.obs = observer
        cluster.transport.obs = observer
        cluster.transport.tracer = observer.tracer
        monitor = LiveMonitor(cluster.cluster_view, observer=observer)
        with MonitorServer(monitor, observer=observer) as server:
            def worker(node: int) -> None:
                client = cluster.client(node)
                for step in range(4):
                    lock_id = f"lock-{(node + step) % 2}"
                    mode = LockMode.W if (node + step) % 3 == 0 else LockMode.R
                    client.acquire(lock_id, mode, timeout=30.0)
                    client.release(lock_id, mode)

            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(cluster.num_nodes)
            ]
            for thread in threads:
                thread.start()
            # One mid-load scrape: must parse, not necessarily be healthy.
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=10
            ) as resp:
                resp.read()
            for thread in threads:
                thread.join()
            cluster.transport.drain()
            with urllib.request.urlopen(
                f"{server.url}/cluster", timeout=10
            ) as resp:
                payload = _json.loads(resp.read().decode("utf-8"))
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=10
            ) as resp:
                metrics = resp.read().decode("utf-8")
            healthz_status = urllib.request.urlopen(
                f"{server.url}/healthz", timeout=10
            ).status
    view = ClusterView.from_payload(payload["view"])
    report = AuditReport.from_payload(payload["audit"])
    print(render_health_table(view, report))
    ok = (
        report.ok
        and healthz_status == 200
        and "repro_audit_ok 1" in metrics
        and "repro_messages_total" in metrics
    )
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _membership_main(argv: Sequence[str]) -> int:
    """``python -m repro membership``: dynamic-membership smoke tests."""

    parser = argparse.ArgumentParser(
        prog="python -m repro membership",
        description="Exercise dynamic membership (online join, graceful "
        "drain, forced decommission) across all three protocols.",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the seeded membership smoke: god-view splices on the "
        "plain sim clusters for all three protocols, then churn plans "
        "on the resilient cluster; exit 0 iff every check passes "
        "(the CI smoke path)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the resilient runs",
    )
    args = parser.parse_args(list(argv))
    if not args.self_test:
        parser.error("need --self-test")
    return _membership_self_test(args.seed)


def _membership_self_test(seed: int) -> int:
    """Splice joins/removals on every protocol, then churn under faults."""

    import random

    from .core.lockspace import hashed_token_home
    from .core.modes import LockMode
    from .faults.chaos import run_chaos
    from .sim.cluster import (
        SimHierarchicalCluster,
        SimNaimiCluster,
        SimRaymondCluster,
    )
    from .sim.engine import Process, Timeout

    locks = ["db", "db.t1", "db.t2"]
    failures: list = []

    def drive_plain(cluster, protocol: str, rng) -> None:
        sim = cluster.sim

        def workload(node: int, ops: int):
            client = cluster.clients[node]
            for _ in range(ops):
                lock = rng.choice(locks)
                if protocol == "hierarchical":
                    mode = rng.choice(
                        [LockMode.R, LockMode.W, LockMode.IR, LockMode.IW]
                    )
                    yield client.acquire(lock, mode)
                else:
                    yield client.acquire(lock)
                yield Timeout(sim, rng.uniform(0.01, 0.1))
                if protocol == "hierarchical":
                    client.release(lock, mode)
                else:
                    client.release(lock)
                yield Timeout(sim, rng.uniform(0.01, 0.05))

        def phase(ops: int) -> None:
            procs = [
                Process(sim, workload(node, ops))
                for node in list(cluster.members)
            ]
            sim.run()
            for proc in procs:
                if proc.error is not None:
                    raise proc.error

        phase(4)
        cluster.add_node()          # Online join mid-sequence.
        phase(3)
        cluster.remove_node(1)      # Graceful removal of a member …
        phase(3)
        cluster.assert_quiescent_invariants()
        cluster.remove_node(0)      # … and of the original token home.
        phase(3)
        cluster.assert_quiescent_invariants()

    plain = (
        (
            "hierarchical",
            lambda: SimHierarchicalCluster(
                4, seed=seed + 1, token_home=hashed_token_home(4)
            ),
        ),
        ("naimi", lambda: SimNaimiCluster(4, seed=seed + 2)),
        ("raymond", lambda: SimRaymondCluster(5, seed=seed + 3)),
    )
    for protocol, build in plain:
        try:
            drive_plain(build(), protocol, random.Random(seed * 7 + 11))
            print(f"membership[{protocol}]: splice join/remove OK")
        except Exception as exc:  # noqa: BLE001 - smoke verdict, not flow
            failures.append(f"{protocol}: {type(exc).__name__}: {exc}")
            print(f"membership[{protocol}]: FAIL — {exc}")

    for plan in ("graceful-drain", "kill-and-replace"):
        verdict = run_chaos(plan, seed=seed, nodes=5, duration=12.0)
        info = verdict.data.get("membership", {})
        agreed = bool(info.get("epoch_agreement")) and bool(
            info.get("membership_agreement")
        )
        status = "OK" if verdict.ok and agreed else "FAIL"
        print(
            f"membership[{plan}]: {status} — "
            f"requests={verdict.data['requests']} "
            f"epochs={info.get('view_epochs')}"
        )
        if not (verdict.ok and agreed):
            failures.append(f"{plan}: verdict not ok")

    print(f"self-test: {'PASS' if not failures else 'FAIL'}")
    for failure in failures:
        print(f"  {failure}")
    return 0 if not failures else 1


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce Desai & Mueller (ICDCS 2003).",
    )
    parser.add_argument(
        "experiment",
        choices=tuple(EXPERIMENTS) + ("all", "report"),
        help="which paper artifact to regenerate, or 'report' to render "
        "an observability trace",
    )
    parser.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="JSONL trace file to render (report subcommand only)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale sweeps instead of 2-120 nodes",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="run at one specific cluster size",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="operations per node (default: 30, or 15 with --quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=PAPER_SEED, help="workload seed",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write an observability JSONL trace of the runs "
        f"(experiments: {', '.join(OBSERVABLE)})",
    )
    parser.add_argument(
        "--waterfall", type=int, default=None, metavar="N",
        help="report subcommand: per-request hop waterfalls to render, "
        "slowest grants first (default: 3; 0 disables)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="report subcommand: emit machine-readable JSON instead of "
        "text tables",
    )
    args = parser.parse_args(argv)
    if args.experiment == "report" and args.trace is None:
        parser.error("report needs a trace file: python -m repro report run.jsonl")
    if args.experiment != "report" and args.trace is not None:
        parser.error(f"unexpected argument {args.trace!r}")
    return args


def _is_flight_dump(path: str) -> bool:
    from .obs.flightrec import looks_like_flight_dump

    return looks_like_flight_dump(path)


def main(argv: Sequence[str] = ()) -> int:
    """Entry point; returns a process exit status."""

    raw = list(argv) or sys.argv[1:]
    if raw and raw[0] == "chaos":
        # The chaos harness has its own flag set (fault plan, drain
        # window, verdict format); route before the experiment parser.
        return _chaos_main(raw[1:])
    if raw and raw[0] == "monitor":
        # Live-monitor CLI: polls a cluster endpoint (or self-tests one).
        return _monitor_main(raw[1:])
    if raw and raw[0] == "replay":
        # Flight-recorder debugger: replay/diff/bisect a recorded dump.
        return _replay_main(raw[1:])
    if raw and raw[0] == "membership":
        # Dynamic-membership smoke: splices + churn plans, all protocols.
        return _membership_main(raw[1:])
    args = _parse(raw)
    if args.experiment == "report":
        try:
            runs = load_runs_from_path(args.trace)
        except OSError as exc:
            print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # bad JSON, binary data, truncated line
            if _is_flight_dump(args.trace):
                print(
                    f"error: {args.trace} looks like a flightrec dump — "
                    "use `python -m repro replay`", file=sys.stderr,
                )
                return 2
            print(f"error: {args.trace} is not a trace file: {exc}",
                  file=sys.stderr)
            return 2
        if not runs:
            if _is_flight_dump(args.trace):
                print(
                    f"error: {args.trace} looks like a flightrec dump — "
                    "use `python -m repro replay`", file=sys.stderr,
                )
                return 2
            print(f"error: {args.trace} contains no run sections "
                  "(empty trace file?)", file=sys.stderr)
            return 2
        if args.json:
            import json as _json

            print(_json.dumps(
                [report_payload(run) for run in runs], indent=2
            ))
            return 0
        waterfalls = args.waterfall if args.waterfall is not None else 3
        print(render_report(runs, waterfalls=waterfalls))
        return 0
    at = scale(
        quick=args.quick, nodes=args.nodes, ops=args.ops, seed=args.seed,
        observe=args.trace_out is not None,
    )
    # An ordered set: the readings share the sweep's runs, and each run
    # goes to the trace file once.
    observed: Dict[RunResult, None] = {}
    wanted = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in wanted:
        result = EXPERIMENTS[name](at)
        print(rendered(result))
        print()
        if name in OBSERVABLE:
            observed.update(dict.fromkeys(result.all_runs()))
    if args.trace_out is not None:
        if not observed:
            print(
                f"note: --trace-out only instruments {', '.join(OBSERVABLE)}; "
                "nothing to write",
                file=sys.stderr,
            )
        else:
            lines = write_run_traces(args.trace_out, list(observed))
            print(
                f"wrote {lines} trace lines for {len(observed)} runs "
                f"to {args.trace_out}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
