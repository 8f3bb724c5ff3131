"""Fault injection and failure recovery for the lock service.

The paper's protocol assumes reliable FIFO delivery and a never-failing
token node; fault tolerance is explicitly deferred to future work.  This
package supplies the missing subsystem in three layers:

* **Injection** (:mod:`repro.faults.plan`): a declarative,
  seed-deterministic :class:`FaultPlan` — drop / duplicate / delay /
  reorder messages by type, peer and time window, bidirectional
  partitions that heal, and node crash + restart events — with adapters
  for the simulated :class:`~repro.sim.network.Network` and the
  threaded/TCP transports (:class:`~repro.faults.runtime.FaultyTransport`).

* **Detection & recovery** (:mod:`repro.faults.recovery`): per-pair
  reliable sessions (sequence numbers, cumulative acks, an RTT-learning
  retransmit timer — :mod:`repro.faults.channel`),
  heartbeat failure detection (:mod:`repro.faults.detector`), and one
  token layer (:mod:`repro.faults.tokens`: per lock an orphan, a probe
  or a fence) whose epoch-numbered regeneration keeps a crashed token
  node from wedging the lock space.  The protocol-level idempotence hooks
  live in the automaton behind ``ProtocolOptions(recovery=True)``.

* **Chaos harness** (:mod:`repro.faults.chaos`): ``python -m repro
  chaos`` runs scripted workloads under a fault plan with the
  verification monitors attached and emits a JSON verdict.

See ``docs/FAULTS.md`` for the fault model and the epoch argument.

The exports below load their submodule on first access (PEP 562), so
importing the recovery stack does not import the chaos harness or the
threaded/TCP runtime.
"""

import importlib

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "ChaosVerdict": "chaos",
    "CrashEvent": "plan",
    "FaultDecision": "plan",
    "FaultInjector": "plan",
    "FaultPlan": "plan",
    "FaultRule": "plan",
    "FaultyTransport": "runtime",
    "HeartbeatDetector": "detector",
    "NAMED_PLANS": "plan",
    "Partition": "plan",
    "RecoveryConfig": "recovery",
    "RecoveryManager": "recovery",
    "ResilientSimCluster": "simcluster",
    "ResilientThreadedCluster": "runtime",
    "named_plan": "plan",
    "run_chaos": "chaos",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
