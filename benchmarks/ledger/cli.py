"""Command line of the ledger.

Two ways in:

* **one run** (what ``BENCHMARK.json`` names): ``--workload W --seed N
  --seconds S --trace 0|1`` measures one workload in this process and
  prints, as the last line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``;
* **the whole ledger**: without ``--trace`` every workload (or the one
  named) runs in fresh subprocesses, untraced and traced, and one JSON
  document with every metric is printed.  ``--check`` runs the end-to-end
  part twice and compares the two against the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from . import workloads as wl
from .calibrate import speed_factor, spin
from .scripts import LINK_MEAN_S
from .stats import (
    gaps_between,
    latency_summary,
    longest_gap,
    percentile,
    worsening,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ENTRY = os.path.join(HERE, "__main__.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 2003

#: Every workload of the ledger.  ``BENCHMARK.json`` lists three of them:
#: ``service4`` is too unsteady on a shared 2-vCPU machine for a bound of
#: at most 25 %, and about one ``crash16`` script in 3 000 ends wedged
#: after the restart, which a gate run on 264 scripts per check cannot
#: carry (see README).  Both are measured, not gated.
WORKLOAD_NAMES = tuple(wl.WORKLOADS)

#: Bound ``--check`` applies to every metric of the wall-clock workload; the
#: simulated ones, gated or not, are held to the bounds of ``BENCHMARK.json``.
THREADED_BOUND = 0.25

#: End-to-end metrics that are counts or virtual times on the simulated
#: workloads: two runs of the same code must agree to the last digit.
EXACT_ON_SIM = (
    "msgs_per_request", "latency_factor", "grant_p50_ms", "grant_p99_ms",
    "outage_s",
)

#: Where the file-backed microbenchmark may write (inside the checkout).
SCRATCH_ROOT = os.path.join(ROOT, ".ledger_tmp")

#: Set-up probes per run (fresh processes; the median is reported), before
#: and after the measurement: the machine's speed shifts from one ten
#: seconds to the next, and probes made back to back all see one speed.
SETUP_PROBES = (3, 2)

#: Calibration spins on either side of one set-up probe.
SETUP_SPINS = 4

#: ``service4`` pools at least this many sessions whatever the time.
MIN_SESSIONS = 4

#: Nominal link of the wall-clock workload, which injects no link delay:
#: its latency factor is the mean grant latency in units of this.
SERVICE_LINK_S = 0.001

Metrics = Dict[str, Tuple[float, str]]


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One run, in this process.
# ---------------------------------------------------------------------------


class _SetupDone(Exception):
    """Raised by the set-up probe once the first request is about to go."""


def setup_probe(workload, seed: int) -> None:
    """Build everything up to the first request, print the clock, exit."""

    def ready() -> None:
        raise _SetupDone

    try:
        if workload.kind == "bare":
            wl.run_bare(workload, seed, 0, on_ready=ready)
        elif workload.kind == "stack":
            wl.run_stack(workload, seed, 0, on_ready=ready)
        else:
            session = wl.ServiceSession(workload, seed, 0)
            try:
                ready()
            finally:
                session.cluster.shutdown()
    except _SetupDone:
        print(json.dumps({"ready_at": time.perf_counter()}))


def measure_setup(name: str, seed: int, quick: bool, probes: int) -> List[float]:
    """Seconds from process start to first request, over fresh processes.

    Calibrated like the simulated wall times (:mod:`.calibrate`), by spins
    made right before and after each probe: a slow phase of the machine
    lasts longer than a run, so the median of a run's probes does not
    average it out (over 60 probes the calibration cut their scatter by a
    quarter in one trial, by half in another).
    """

    samples = []
    command = [
        sys.executable, ENTRY, "--setup-probe", "--workload", name,
        "--seed", str(seed),
    ] + (["--quick"] if quick else [])
    for _ in range(probes):
        spins = [spin() for _ in range(SETUP_SPINS)]
        started = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        ready_at = json.loads(done.stdout.strip().splitlines()[-1])["ready_at"]
        spins += [spin() for _ in range(SETUP_SPINS)]
        samples.append((ready_at - started) * speed_factor(spins))
    return samples


def _run_unit(workload, seed: int, sub: int, **options):
    runner = wl.run_bare if workload.kind == "bare" else wl.run_stack
    return runner(workload, seed, sub, **options)


def _warm(workload, seed: int) -> None:
    """Run a CI-sized unit so that the first timed one is not the cold one."""

    small = wl.quick(workload)
    if workload.kind == "threaded":
        session = wl.ServiceSession(small, seed, -1)
        session.measure()
        session.finish()
    else:
        _run_unit(small, seed, -1)


def _fingerprint(unit) -> tuple:
    """What a repeat of a simulated unit must reproduce to the last digit.

    ``wal_bytes`` is left out: records carry process-global serial numbers,
    whose digit count grows with every unit run in the process.
    """

    counters = {k: v for k, v in unit.counters.items() if k != "wal_bytes"}
    return (
        unit.digest, unit.issued, unit.granted, unit.failed, unit.messages,
        counters, sum(unit.latencies_s),
    )


def run_sim_units(workload, seed: int, seconds: float):
    """First pass over the pooled scripts, then repeats while time remains.

    Every count and every virtual time comes from the first pass, so they
    do not depend on how fast the machine is.  Repeats only add wall-clock
    samples of identical work — and must reproduce the first pass exactly.
    """

    started = time.perf_counter()
    first = [
        _run_unit(workload, seed, sub, calibrate=True)
        for sub in range(workload.pool)
    ]
    walls = [[unit.wall_s * unit.speed] for unit in first]
    problems = [p for unit in first for p in unit.problems]
    longest = max(time.perf_counter() - started, 1e-9) / workload.pool
    sub = 0
    while time.perf_counter() - started + longest < seconds:
        again = _run_unit(workload, seed, sub, calibrate=True)
        if _fingerprint(again) != _fingerprint(first[sub]):
            problems.append(f"script {sub} did not repeat exactly")
        walls[sub].append(again.wall_s * again.speed)
        sub = (sub + 1) % workload.pool
    return first, walls, problems


def run_service_sessions(workload, seed: int, seconds: float, sessions: int):
    """Fresh-cluster sessions until the time is up (at least *sessions*)."""

    started = time.perf_counter()
    units, problems = [], []
    sub = 0
    while sub < sessions or time.perf_counter() - started < seconds:
        session = wl.ServiceSession(workload, seed, sub)
        warm = session.warm_up()
        unit = session.measure()
        problems.extend(warm.problems + unit.problems + session.finish())
        unit.failed += warm.failed
        units.append(unit)
        sub += 1
        if problems:
            break
    return units, problems


def end_to_end(workload, seed: int, seconds: float, quick: bool):
    """The end-to-end metrics of one workload (untraced)."""

    before, after = (1, 0) if quick else SETUP_PROBES
    setup = measure_setup(workload.name, seed, quick, before)
    _warm(workload, seed)
    gc.collect()
    if workload.kind == "threaded":
        units, problems = run_service_sessions(
            workload, seed, seconds, 1 if quick else MIN_SESSIONS
        )
        wall = sum(unit.wall_s for unit in units)
        link_s = SERVICE_LINK_S
        repeats = len(units)
    else:
        units, walls, problems = run_sim_units(workload, seed, seconds)
        wall = sum(min(samples) for samples in walls)
        link_s = LINK_MEAN_S
        repeats = sum(len(samples) for samples in walls)
    setup += measure_setup(workload.name, seed, quick, after)
    granted = sum(unit.window_granted for unit in units)
    summary = latency_summary(
        [unit.latencies_s for unit in units],
        [unit.remote_latencies_s for unit in units],
    )
    if workload.crash_at:
        # Time without service: per script, the longest gap in grants of
        # the table lock that ends after the crash; median over scripts.
        outage_samples = [
            longest_gap(unit.table_grants, unit.crashed_at) for unit in units
        ]
        outage = statistics.median(outage_samples)
    else:
        # Nothing crashes: the stall 1 % of the table lock's grants follow.
        # (The longest stall of a fault-free run is one draw of an extreme:
        # it moved by 21 % between seeds on stack40, this by 11 %.)
        gaps = sorted(
            gap for unit in units for gap in gaps_between(unit.table_grants)
        )
        outage = percentile(gaps, 99.0)
        outage_samples = gaps[-5:]
    metrics: Metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (granted / wall, "1/s"),
        "msgs_per_request": (
            sum(unit.messages for unit in units) / granted, "1/req"),
        "latency_factor": (1e-3 * summary["mean_ms"] / link_s, "ratio"),
        "grant_p50_ms": (summary["p50_ms"], "ms"),
        "grant_p99_ms": (summary["p99_ms"], "ms"),
        "outage_s": (outage, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "units": len(units),
        "timed_runs": repeats,
        "scripts": [unit.digest for unit in units],
        "grant_samples": summary["samples"],
        "remote_grant_samples": summary["remote_samples"],
        "smallest_script_remote_samples": summary["smallest_script"],
        "tail_percentile_supported": summary["tail_pct"],
        "setup_samples_s": setup,
        "outage_samples_s": outage_samples,
        "raw_wall_s": [unit.wall_s for unit in units],
        "speed_factors": [unit.speed for unit in units],
    }
    return metrics, units, problems, detail


def traced(workload, seed: int, spans_out: Optional[str]):
    """The per-layer metrics of one workload's traced run."""

    from . import trace
    _warm(workload, seed)
    recorder = trace.SpanRecorder(keep_spans=spans_out is not None)
    marks: Dict[str, object] = {}

    def mark(name: str):
        def take() -> None:
            marks[name] = (recorder.totals(), recorder.counts())
        return take

    if workload.kind == "threaded":
        plain_session = wl.ServiceSession(workload, seed, 0)
        plain_session.warm_up()
        plain = plain_session.measure()
        problems = plain.problems + plain_session.finish()
        uninstall = trace.install(recorder)
        try:
            session = wl.ServiceSession(workload, seed, 0, monitor=True)
            session.warm_up()
            mark("ready")()
            before = session.counters()
            unit = session.measure()
            mark("window")()
            unit.counters = {
                key: value - before[key]
                for key, value in session.counters().items()
            }
            problems += unit.problems + session.finish()
        finally:
            uninstall()
    else:
        plain = _run_unit(workload, seed, 0)
        problems = list(plain.problems)
        uninstall = trace.install(recorder)
        try:
            unit = _run_unit(
                workload, seed, 0, monitor=True,
                on_ready=mark("ready"), on_window=mark("window"),
            )
        finally:
            uninstall()
        problems += unit.problems
        if (unit.digest, unit.granted, unit.messages) != (
            plain.digest, plain.granted, plain.messages
        ):
            problems.append("tracing changed the run it traced")
    if spans_out is not None:
        recorder.write_spans(spans_out)

    (totals_a, counts_a), (totals_b, counts_b) = marks["ready"], marks["window"]
    requests = unit.window_granted
    metrics: Metrics = {}
    for layer in trace.LAYERS:
        calls_a, self_a = totals_a.get(layer, (0, 0.0))
        calls_b, self_b = totals_b.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls_b - calls_a, "count")
        metrics[f"{layer}.self_s"] = (self_b - self_a, "s")
    for plane in trace.PLANES:
        key = "plane." + plane
        metrics[f"{key}.msgs_per_request"] = (
            (counts_b[key] - counts_a[key]) / requests, "1/req")
    metrics["net.pickled_bytes_per_request"] = (
        (counts_b["fabric.pickled_bytes"] - counts_a["fabric.pickled_bytes"])
        / requests, "bytes/req")
    counters = unit.counters
    for name, key in (
        ("faults.channel.retransmits_per_request", "channel_retransmits"),
        ("faults.recovery.app_retransmits_per_request", "app_retransmits"),
        ("leases.renewals_per_request", "lease_renewals"),
        ("persist.wal_appends_per_request", "wal_appends"),
        ("persist.wal_bytes_per_request", "wal_bytes"),
        ("sim.engine.events_per_request", "events"),
    ):
        metrics[name] = (
            counters.get(key, 0) / requests,
            "bytes/req" if key == "wal_bytes" else "1/req",
        )
    metrics["core.lockspace.local_grant_share"] = (
        1.0 - len(unit.remote_latencies_s) / max(1, len(unit.latencies_s)),
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (unit.wall_s / plain.wall_s, "ratio")
    detail = {
        "script": unit.digest,
        "requests": requests,
        "traced_wall_s": unit.wall_s,
        "untraced_wall_s": plain.wall_s,
        "accounting_self_s": (
            totals_b.get(trace.ACCOUNTING, (0, 0.0))[1]
            - totals_a.get(trace.ACCOUNTING, (0, 0.0))[1]
        ),
    }
    return metrics, [unit], problems, detail


def one_run(args: argparse.Namespace) -> int:
    """``--workload W --trace T``: measure here, print the result line."""

    spec = load_spec()
    workload = wl.WORKLOADS[args.workload]
    if args.quick:
        workload = wl.quick(workload)
    part = args.part or ("e2e" if args.trace == 0 else "trace+shared")
    metrics: Metrics = {}
    units: list = []
    problems: List[str] = []
    detail: Dict[str, object] = {"workload": workload.name, "seed": args.seed}
    if "e2e" in part:
        metrics, units, problems, extra = end_to_end(
            workload, args.seed, args.seconds, args.quick
        )
        detail.update(extra)
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        if "trace" in part:
            metrics, units, problems, extra = traced(
                workload, args.seed, args.spans_out
            )
            detail.update(extra)
        if "shared" in part:
            from .layers import shared_metrics

            metrics.update(shared_metrics(
                args.seed, args.ladder_repeats, SCRATCH_ROOT, args.quick
            ))
        wanted = [
            m["name"] for m in spec["per_layer"]
            if part == "trace+shared" or m["name"] in metrics
        ]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    attempted = sum(unit.issued for unit in units)
    failed = sum(unit.failed for unit in units)
    detail["problems"] = problems[:20]
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# The whole ledger, in subprocesses.
# ---------------------------------------------------------------------------


def _spawn(extra: Sequence[str], args: argparse.Namespace) -> Dict[str, object]:
    command = [
        sys.executable, ENTRY, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + list(extra) + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(command)} exited with {done.returncode}:\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("detail: "):
            result["detail"] = json.loads(line[len("detail: "):])
    return result


def run_ledger(args: argparse.Namespace, names: Sequence[str], parts: str):
    """Every requested part of every requested workload.

    One subprocess at a time — they measure wall-clock — except in the
    ``--quick`` smoke run, which is about code paths, not numbers.
    """

    jobs: List[Tuple[str, str, List[str]]] = []
    for name in names:
        if "e2e" in parts:
            jobs.append((name, "end_to_end", ["--workload", name, "--trace", "0"]))
        if "trace" in parts:
            jobs.append((name, "per_layer", [
                "--workload", name, "--trace", "1", "--part", "trace"]))
    if "shared" in parts:
        jobs.append(("_layers", "per_layer", [
            "--workload", names[0], "--trace", "1", "--part", "shared",
            "--ladder-repeats", "1" if args.quick else "3"]))

    def run(job):
        name, part, extra = job
        print(f"[ledger] {name}: {part}", file=sys.stderr)
        return _spawn(extra, args)

    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        results = list(pool.map(run, jobs))
    ledger: Dict[str, Dict[str, object]] = {}
    for (name, part, _extra), result in zip(jobs, results):
        ledger.setdefault(name, {})[part] = result
    return ledger


def _verdict(ledger) -> List[str]:
    """Why the ledger is not clean (empty when it is)."""

    bad = []
    for name, entry in ledger.items():
        for part, result in entry.items():
            if not result["correct"] or result["failed"]:
                bad.append(
                    f"{name}/{part}: correct={result['correct']} "
                    f"failed={result['failed']} of {result['attempted']} "
                    f"{result.get('detail', {}).get('problems', [])}"
                )
    return bad


def check(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Two end-to-end ledgers back to back, compared against the bounds."""

    spec = load_spec()
    first = run_ledger(args, names, "e2e")
    second = run_ledger(args, names, "e2e")
    bad = _verdict(first) + _verdict(second)
    rows = []
    for name in names:
        one = first[name]["end_to_end"]["metrics"]
        two = second[name]["end_to_end"]["metrics"]
        simulated = wl.WORKLOADS[name].kind != "threaded"
        for metric in spec["end_to_end"]:
            key = metric["name"]
            bound = metric["bound"] if simulated else THREADED_BOUND
            a, b = one[key]["value"], two[key]["value"]
            spread = abs(worsening(a, b, metric["better"]))
            ok = spread <= bound
            if simulated and key in EXACT_ON_SIM and a != b:
                ok = False
            rows.append({
                "workload": name, "metric": key, "first": a, "second": b,
                "spread": spread, "bound": bound, "ok": ok,
            })
            if not ok:
                bad.append(f"{name}/{key}: {a} vs {b} (bound {bound})")
    print(json.dumps({"check": rows, "disagreements": bad}, indent=1))
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time of one run (default: run_seconds of "
             "BENCHMARK.json for one run and --check, 12 for the whole ledger)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check", action="store_true")
    parser.add_argument(
        "--quick", action="store_true",
        help="8 nodes, 5 operations: a smoke run of every code path",
    )
    parser.add_argument("--spans-out", help="write the traced run's raw spans here")
    parser.add_argument("--part", choices=("e2e", "trace", "shared"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ladder-repeats", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workload = wl.WORKLOADS[args.workload]
        setup_probe(wl.quick(workload) if args.quick else workload, args.seed)
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return one_run(args)

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.check:
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return check(args, names)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else 12.0
    ledger = run_ledger(args, names, "e2e+trace+shared")
    bad = _verdict(ledger)
    print(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "ledger": ledger, "problems": bad,
    }, indent=1))
    return 1 if bad else 0
