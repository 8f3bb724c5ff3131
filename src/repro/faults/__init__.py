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
  reliable sessions (sequence numbers, cumulative acks, retransmission
  with capped exponential backoff — :mod:`repro.faults.channel`),
  heartbeat failure detection (:mod:`repro.faults.detector`), and an
  epoch-numbered token-regeneration protocol so a crashed token node no
  longer wedges the lock space.  The protocol-level idempotence hooks
  live in the automaton behind ``ProtocolOptions(recovery=True)``.

* **Chaos harness** (:mod:`repro.faults.chaos`): ``python -m repro
  chaos`` runs scripted workloads under a fault plan with the
  verification monitors attached and emits a JSON verdict.

See ``docs/FAULTS.md`` for the fault model and the epoch argument.
"""

from .chaos import ChaosVerdict, run_chaos
from .detector import HeartbeatDetector
from .plan import (
    CrashEvent,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    FaultRule,
    Partition,
    named_plan,
    NAMED_PLANS,
)
from .recovery import RecoveryConfig, RecoveryManager
from .runtime import FaultyTransport, ResilientThreadedCluster
from .simcluster import ResilientSimCluster

__all__ = [
    "ChaosVerdict",
    "CrashEvent",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultyTransport",
    "HeartbeatDetector",
    "NAMED_PLANS",
    "Partition",
    "RecoveryConfig",
    "RecoveryManager",
    "ResilientSimCluster",
    "ResilientThreadedCluster",
    "named_plan",
    "run_chaos",
]
