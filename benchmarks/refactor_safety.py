"""Prove a change under ``src/`` behaviour-preserving against another tree.

Seeded runs are bit-identical and chaos verdicts deterministic, so two
trees that behave alike print the same bytes.  This runs, in each tree,
the 48 nightly chaos verdicts (``.github/workflows/nightly-chaos.yml``),
the two ``token-crash --flight-dir`` dumps, the exhaustive explorer's
state-space census (``tests/verification/census.py`` of *this* tree:
every interleaving of some 80 small scenarios, so a change to an
automaton transition shows even where no seeded run reaches it), the
stdout of ``python -m repro all --quick`` and the Figure 5/6 series at
full precision (``record_perf_baseline.measure()`` of *this* tree, over
2…120 nodes) — the last two so that a change under ``workload/``,
``metrics/`` or ``experiments/`` is compared like one under ``faults/``
— and the virtual-time fingerprint of script 0 at seed 2003 of the three
gated ledger workloads (``paper120``, ``writes120``, ``stack40``, run
through *this* tree's ``benchmarks.ledger.workloads``: requests issued
and granted, messages, engine events, every grant latency and table
grant, at full precision), so the trajectories the ledger gates are
compared like the chaos verdicts — and what ``repro.obs`` writes: the
``--trace-out`` JSONL (spans, series, causal chains) of ``chaos --plan
smoke --seed 0`` and of ``fig5 --quick``, and the ``/cluster`` payload
and ``/metrics`` text of one seeded ``ResilientSimCluster`` with a
journal, polled twice mid-run and once drained — then byte-compares
them (59 outputs).
On a difference it names every differing output, prints a unified diff
of the first, and exits 1.

Usage, from the root of the tree under test (≈ 40 s for both trees)::

    git clone -q . /root/scratch/parent          # or any other checkout
    python benchmarks/refactor_safety.py /root/scratch/parent

Each tree gets one subprocess, which imports *that* tree's ``repro`` and
forks once per output: the global serial counter and every other piece
of process state start equal for every run, so a verdict that a change
legitimately moves cannot shift the ones after it.  Verdict JSON holds
no wall-clock or temp-path field; the process exit code is part of the
comparison (token-crash seeds exit 1).  ``--emit DIR`` is that per-tree
half on its own (``PYTHONPATH=<tree>/src``), for keeping the outputs of
a change that *does* move verdicts and quoting them old → new.

``--moved OTHER_TREE`` is the comparison for such a change: instead of
stopping at the first difference it prints one row per chaos verdict —
``ok``, exit code, requests granted, ``messages_sent``,
``messages_dropped``, ``channel_retransmits``, mean and p95 grant
latency (what a verdict records), each old → new with the moved ones
marked — then the outputs that are still byte-identical, which for
a change to the fault-tolerant stack must include the explorer census,
the Figure 5/6 series, ``repro all --quick`` and the bare ledger
fingerprints.  Exits 0: it is a table to quote, not a gate.
"""

from __future__ import annotations

import contextlib
import difflib
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from typing import List, Tuple

PLANS = (
    "none", "smoke", "drop1", "dup1", "jitter", "partition", "token-crash",
    "minority-partition", "rolling-join", "graceful-drain", "kill-and-replace",
)
CHURN_PLANS = ("rolling-join", "graceful-drain", "kill-and-replace")
SEEDS = (0, 1, 2)
#: Seeds whose volatile token-crash run meets the blank-rejoin gap, exits
#: 1 and therefore dumps its rings.  Picked at the commit that made
#: heartbeats and acks datagrams (issue 24), which moved every
#: trajectory: 0 and 1, the seeds until then, no longer meet the gap.
DUMP_SEEDS = (7, 9)


def verdict_runs() -> List[Tuple[str, List[str]]]:
    """``(name, chaos argv)`` of the 48 nightly verdicts and the two
    flight-dump runs (only their dumps are kept: the verdict names the
    dump's path)."""

    runs = []
    for seed in SEEDS:
        variants = [(plan, plan, []) for plan in PLANS]
        variants += [
            (f"{plan}-durable", plan, ["--durable"]) for plan in CHURN_PLANS
        ]
        variants += [
            ("token-crash-durable", "token-crash", ["--durable"]),
            ("token-crash-reclaim", "token-crash", ["--durable", "--reclaim"]),
        ]
        runs += [
            (f"{name}-seed{seed}", ["--plan", plan, "--seed", str(seed)] + flags)
            for name, plan, flags in variants
        ]
    runs += [
        (
            f"flight-token-crash-seed{seed}",
            ["--plan", "token-crash", "--seed", str(seed),
             "--flight-dir", "{out}"],
        )
        for seed in DUMP_SEEDS
    ]
    return runs


def _write_verdict(out: str, name: str, argv: List[str]) -> None:
    from repro.__main__ import main

    argv = ["chaos", "--json"] + [a.format(out=out) for a in argv]
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    if "--flight-dir" not in argv:
        with open(os.path.join(out, name + ".json"), "w") as handle:
            handle.write(stream.getvalue())
            handle.write(f"exit {code}\n")


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_census(out: str) -> None:
    # The scenario tables are this tree's tests; the explorer under them
    # is whichever ``repro`` is on ``sys.path``.
    sys.path.insert(0, _ROOT)
    from tests.verification.census import census

    with open(os.path.join(out, "explorer-census.json"), "w") as handle:
        json.dump(census(), handle, indent=1)
        handle.write("\n")


def _write_experiments(out: str) -> None:
    from repro.__main__ import main

    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(["all", "--quick"])
    with open(os.path.join(out, "repro-all-quick.txt"), "w") as handle:
        handle.write(stream.getvalue())
        handle.write(f"exit {code}\n")


def _write_series(out: str) -> None:
    # The sweep's shape is this tree's recorder; the protocols, workload
    # and metrics under it are whichever ``repro`` is on ``sys.path``.
    sys.path.insert(0, _ROOT)
    from benchmarks.record_perf_baseline import measure

    with open(os.path.join(out, "fig5-fig6-series.json"), "w") as handle:
        json.dump(measure(), handle, indent=1, sort_keys=True)
        handle.write("\n")


LEDGER_WORKLOADS = ("paper120", "writes120", "stack40")
LEDGER_SEED = 2003


def _write_ledger(out: str, name: str) -> None:
    # The script and the driver are this tree's ledger (imported, never
    # edited); the stack under them is whichever ``repro`` is on
    # ``sys.path``.
    sys.path.insert(0, _ROOT)
    from benchmarks.ledger import workloads

    workload = workloads.WORKLOADS[name]
    run = workloads.run_bare if workload.kind == "bare" else workloads.run_stack
    unit = run(workload, LEDGER_SEED, 0)
    fingerprint = {
        field: getattr(unit, field)
        for field in (
            "digest", "issued", "granted", "failed", "window_granted",
            "messages", "counters", "latencies_s", "table_grants", "problems",
        )
    }
    with open(os.path.join(out, f"ledger-{name}.json"), "w") as handle:
        json.dump(fingerprint, handle, indent=1, sort_keys=True)
        handle.write("\n")


TRACES = (
    ("trace-chaos-smoke-seed0", ["chaos", "--plan", "smoke", "--seed", "0"]),
    ("trace-fig5-quick", ["fig5", "--quick"]),
)


def _write_trace(out: str, name: str, argv: List[str]) -> None:
    from repro.__main__ import main

    path = os.path.join(out, name + ".jsonl")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv + ["--trace-out", path])
    with open(path, "a") as handle:
        handle.write(f"exit {code}\n")


def _write_live_view(out: str) -> None:
    # Three polls of one monitor: a queue entry seen at 2.5 s has an age
    # at 3.0 s, and after the drain the audit runs quiescent.
    import random

    from repro.core.modes import LockMode
    from repro.faults.simcluster import ResilientSimCluster
    from repro.obs.collect import RunObserver
    from repro.obs.live import LiveMonitor
    from repro.obs.monitor import render_prometheus
    from repro.persist import MemoryPersistence
    from repro.sim.engine import Process, Timeout

    observer = RunObserver()
    cluster = ResilientSimCluster(
        5, seed=7, obs=observer, persistence=MemoryPersistence()
    )
    sim = cluster.sim
    observer.bind_clock(lambda: sim.now)
    modes = (LockMode.IR, LockMode.R, LockMode.U, LockMode.IW, LockMode.W)

    def workload(node: int):
        rng = random.Random(node)
        client = cluster.client(node)
        while sim.now < 6.0:
            lock_id, mode = f"lock-{rng.randrange(2)}", rng.choice(modes)
            yield client.acquire(lock_id, mode)
            yield Timeout(sim, rng.uniform(0.05, 0.30))
            client.release(lock_id, mode)
            yield Timeout(sim, rng.uniform(0.05, 0.25))

    processes = [Process(sim, workload(node)) for node in range(5)]
    monitor = LiveMonitor(cluster.cluster_view, observer)
    with open(os.path.join(out, "live-view.txt"), "w") as handle:
        for until, quiescent in ((2.5, False), (3.0, False), (40.0, True)):
            sim.run(until=until)
            view, report = monitor.poll(quiescent=quiescent)
            payload = {"view": view.to_payload(), "audit": report.to_payload()}
            handle.write(json.dumps(payload) + "\n")  # key order included
            handle.write(render_prometheus(view, report, observer))
        errors = [repr(p.error) for p in processes if p.error is not None]
        handle.write(f"process errors {errors}\n")


def emit(out: str) -> None:
    """Write every output of the ``repro`` on ``sys.path`` into *out*."""

    os.makedirs(out, exist_ok=True)
    jobs = [
        (name, _write_verdict, (out, name, argv)) for name, argv in verdict_runs()
    ]
    jobs.append(("explorer-census", _write_census, (out,)))
    jobs.append(("repro-all-quick", _write_experiments, (out,)))
    jobs.append(("fig5-fig6-series", _write_series, (out,)))
    jobs += [
        (f"ledger-{name}", _write_ledger, (out, name))
        for name in LEDGER_WORKLOADS
    ]
    jobs += [
        (name, _write_trace, (out, name, argv)) for name, argv in TRACES
    ]
    jobs.append(("live-view", _write_live_view, (out,)))
    for name, job, args in jobs:
        pid = os.fork()
        if pid == 0:
            job(*args)
            os._exit(0)
        _pid, status = os.waitpid(pid, 0)
        if status != 0:
            sys.exit(f"{name}: the process writing it died (status {status})")


def _emit_both(here: str, other: str, scratch: str):
    """Emit both trees side by side into *scratch*; ``(other's dir,
    here's dir, every output name, the differing ones)`` or ``None`` if
    a tree failed."""

    procs = []
    for label, tree in (("here", here), ("other", other)):
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        procs.append(
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--emit",
                 os.path.join(scratch, label)],
                env=env,
                cwd=tree,
            )
        )
    if any(proc.wait() != 0 for proc in procs):
        print("a tree failed to produce its verdicts")
        return None
    a, b = (os.path.join(scratch, label) for label in ("other", "here"))
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    differing = [
        name
        for name in names
        if not (
            os.path.exists(os.path.join(a, name))
            and os.path.exists(os.path.join(b, name))
            and filecmp.cmp(
                os.path.join(a, name), os.path.join(b, name), shallow=False
            )
        )
    ]
    return a, b, names, differing


#: Columns of the ``--moved`` table: (header, path into the verdict).
MOVED_COLUMNS = (
    ("ok", ("ok",)),
    ("exit", ("exit",)),
    ("granted", ("requests", "granted")),
    ("msgs_sent", ("faults", "messages_sent")),
    ("dropped", ("faults", "messages_dropped")),
    ("chan_rtx", ("recovery", "channel_retransmits")),
    ("mean_s", ("latency", "mean")),
    ("p95_s", ("latency", "p95")),
)


def _verdict_cells(path: str) -> List[str]:
    """The :data:`MOVED_COLUMNS` of one ``_write_verdict`` file."""

    if not os.path.exists(path):
        return ["-"] * len(MOVED_COLUMNS)
    body, _sep, code = open(path).read().rpartition("exit ")
    value = dict(json.loads(body), exit=int(code))
    cells = []
    for _header, keys in MOVED_COLUMNS:
        cell = value
        for key in keys:
            cell = cell[key]
        cells.append(f"{cell:.3f}" if isinstance(cell, float) else str(cell))
    return cells


def moved(here: str, other: str) -> int:
    """Quote what a behaviour-changing PR moved: one row per verdict,
    *other* → *here*, then the outputs still byte-identical."""

    with tempfile.TemporaryDirectory(prefix="refactor-safety-") as scratch:
        emitted = _emit_both(here, other, scratch)
        if emitted is None:
            return 2
        a, b, names, differing = emitted
        verdicts = [
            name for name, argv in verdict_runs()
            if "--flight-dir" not in argv
        ]
        rows = [["verdict"] + [header for header, _keys in MOVED_COLUMNS]]
        ok = [0, 0]
        for name in verdicts:
            old, new = (
                _verdict_cells(os.path.join(root, name + ".json"))
                for root in (a, b)
            )
            ok[0] += old[0] == "True"
            ok[1] += new[0] == "True"
            rows.append([name] + [
                before if before == after else f"{before} → {after}"
                for before, after in zip(old, new)
            ])
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        print(f"ok verdicts: {ok[0]} → {ok[1]} of {len(verdicts)}")
        same = [name for name in names if name not in differing]
        print(f"{len(same)} of {len(names)} outputs byte-identical:")
        for name in same:
            print(f"  {name}")
        return 0


def compare(here: str, other: str) -> int:
    """Emit both trees side by side, then byte-compare; 0 iff identical."""

    with tempfile.TemporaryDirectory(prefix="refactor-safety-") as scratch:
        emitted = _emit_both(here, other, scratch)
        if emitted is None:
            return 2
        a, b, names, differing = emitted
        if not differing:
            print(f"{len(names)} outputs byte-identical")
            return 0
        print(f"{len(differing)} of {len(names)} outputs differ:")
        for name in differing:
            print(f"  {name}")
        first = differing[0]
        if first.endswith((".json", ".jsonl", ".txt")):
            sides = []
            for root in (a, b):
                path = os.path.join(root, first)
                sides.append(
                    open(path).read().splitlines(keepends=True)
                    if os.path.exists(path) else []
                )
            sys.stdout.writelines(
                difflib.unified_diff(
                    *sides, fromfile=f"{other}:{first}",
                    tofile=f"{here}:{first}",
                )
            )
        return 1


def main(argv: List[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) == 2 and argv[0] == "--moved":
        return moved(_ROOT, os.path.abspath(argv[1]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__)
        return 2
    return compare(_ROOT, os.path.abspath(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
