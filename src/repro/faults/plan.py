"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` is a pure description: a tuple of match-and-act
:class:`FaultRule` entries (drop / duplicate / delay / reorder), a tuple
of :class:`Partition` windows and a tuple of :class:`CrashEvent`
schedules.  Plans carry their own seed; the stateful decision engine
(:class:`FaultInjector`) draws every probabilistic choice from a private
``random.Random(seed)`` stream, so the injected fault sequence is a
deterministic function of the plan and the message sequence — completely
independent of the latency RNG, which keeps fault-free runs bit-identical
to runs of the pre-fault code.

Rules match on the *protocol* message type: session wrappers added by the
reliable channel are transparently unwrapped, so ``message_types=
frozenset({"grant"})`` hits a grant whether it travels raw (simulator
without recovery) or inside a session frame (resilient clusters).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.messages import NodeId, fault_label

#: Actions a rule can take on a matched message.
DROP, DUPLICATE, DELAY, REORDER = "drop", "duplicate", "delay", "reorder"

_ACTIONS = frozenset({DROP, DUPLICATE, DELAY, REORDER})


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One match-and-act entry of a fault plan.

    A message matches when every given constraint holds: its protocol
    label is in ``message_types`` (``None`` = any), its sender/dest are
    in the respective sets (``None`` = any), the current time lies in
    ``[after, until)``, the rule has fired fewer than ``max_count``
    times, and the optional ``predicate`` returns true.  A matching
    message then suffers ``action`` with probability ``probability``.
    """

    action: str
    probability: float = 1.0
    message_types: Optional[frozenset] = None
    senders: Optional[frozenset] = None
    dests: Optional[frozenset] = None
    after: float = 0.0
    until: float = math.inf
    max_count: Optional[int] = None
    #: Extra latency in seconds (``delay`` action only).
    delay: float = 0.25
    #: Arbitrary extra condition, ``predicate(sender, dest, message)``:
    #: the rule matches only where it returns true.
    predicate: Optional[Callable[[NodeId, NodeId, object], bool]] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def matches(
        self, now: float, sender: NodeId, dest: NodeId, message: object
    ) -> bool:
        """Whether this rule's constraints accept the message (ignoring
        probability and ``max_count``, which the injector owns)."""

        if not self.after <= now < self.until:
            return False
        if self.senders is not None and sender not in self.senders:
            return False
        if self.dests is not None and dest not in self.dests:
            return False
        if (
            self.message_types is not None
            and fault_label(message) not in self.message_types
        ):
            return False
        if self.predicate is not None and not self.predicate(
            sender, dest, message
        ):
            return False
        return True


@dataclasses.dataclass(frozen=True)
class Partition:
    """A bidirectional network partition during ``[start, end)``.

    Messages between ``side_a`` and ``side_b`` (either direction) are
    dropped while the partition is in force; it heals at ``end``.
    """

    side_a: frozenset
    side_b: frozenset
    start: float = 0.0
    end: float = math.inf

    def severs(self, now: float, sender: NodeId, dest: NodeId) -> bool:
        """True iff this partition drops a *sender* → *dest* message now."""

        if not self.start <= now < self.end:
            return False
        return (sender in self.side_a and dest in self.side_b) or (
            sender in self.side_b and dest in self.side_a
        )


@dataclasses.dataclass(frozen=True)
class CrashEvent:
    """Crash node ``node`` at time ``at``; restart it at ``restart_at``.

    ``restart_at=None`` means the node stays down.  A crash is a full
    stop: the node loses all volatile protocol state, and a restarted
    node rejoins with a fresh lock space (see ``docs/FAULTS.md`` for the
    rejoin semantics and their limits).
    """

    node: NodeId
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError("restart_at must be after the crash time")


#: Actions a membership (churn) event can take.
JOIN, DRAIN, DECOMMISSION = "join", "drain", "decommission"

_CHURN_ACTIONS = frozenset({JOIN, DRAIN, DECOMMISSION})


@dataclasses.dataclass(frozen=True)
class MembershipEvent:
    """One scheduled membership change (see :mod:`repro.membership`).

    ``join`` boots a brand-new node at ``at`` (``node`` must be ``None``:
    the harness assigns the next free id and starts a workload on it).
    ``drain`` gracefully drains ``node`` — holds released, token custody
    handed off, copyset children migrated — and removes it from the
    view.  ``decommission`` crashes ``node`` at ``at`` and force-excises
    it through the suspect/lease machinery (so its leases are revoked
    and fence floors bumped).  ``successor`` optionally pins the drain
    handoff target.
    """

    action: str
    at: float
    node: Optional[NodeId] = None
    successor: Optional[NodeId] = None

    def __post_init__(self) -> None:
        if self.action not in _CHURN_ACTIONS:
            raise ValueError(f"unknown membership action {self.action!r}")
        if self.action == JOIN and self.node is not None:
            raise ValueError("join events get their node id from the harness")
        if self.action != JOIN and self.node is None:
            raise ValueError(f"{self.action} events need a target node")
        if self.successor is not None and self.action != DRAIN:
            raise ValueError("only drain events take a successor")


@dataclasses.dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one message."""

    drop: bool = False
    #: Total deliveries (1 = normal, 2+ = duplicated).
    copies: int = 1
    #: Extra latency added before (each copy of) the delivery.
    extra_delay: float = 0.0
    #: Skip the per-pair FIFO floor for this message (sim network only).
    reorder: bool = False


#: The no-fault decision, shared to avoid per-message allocation.
NO_FAULT = FaultDecision()


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable chaos specification."""

    rules: Tuple[FaultRule, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    #: Scheduled membership changes (join / drain / decommission).
    churn: Tuple[MembershipEvent, ...] = ()
    seed: int = 0
    name: str = "custom"

    def is_empty(self) -> bool:
        """True iff the plan can never perturb anything."""

        return not (self.rules or self.partitions or self.crashes or self.churn)


class FaultInjector:
    """The stateful decision engine bound to one plan.

    One injector serves one network/transport instance; it owns the
    plan's RNG stream, the per-rule firing counts and the aggregate
    fault counters reported in chaos verdicts.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed ^ 0xFA017)
        self._fired: List[int] = [0] * len(plan.rules)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.partitioned = 0

    def decide(
        self, now: float, sender: NodeId, dest: NodeId, message: object
    ) -> FaultDecision:
        """Decide the fate of one message about to cross the fabric."""

        for partition in self.plan.partitions:
            if partition.severs(now, sender, dest):
                self.partitioned += 1
                self.dropped += 1
                return FaultDecision(drop=True)
        if not self.plan.rules:
            return NO_FAULT
        drop = False
        copies = 1
        extra_delay = 0.0
        reorder = False
        for index, rule in enumerate(self.plan.rules):
            if rule.max_count is not None and self._fired[index] >= rule.max_count:
                continue
            if not rule.matches(now, sender, dest, message):
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._fired[index] += 1
            if rule.action == DROP:
                drop = True
            elif rule.action == DUPLICATE:
                copies += 1
            elif rule.action == DELAY:
                extra_delay += rule.delay
            elif rule.action == REORDER:
                reorder = True
        if drop:
            self.dropped += 1
            return FaultDecision(drop=True)
        if copies == 1 and extra_delay == 0.0 and not reorder:
            return NO_FAULT
        if copies > 1:
            self.duplicated += copies - 1
        if extra_delay > 0.0:
            self.delayed += 1
        if reorder:
            self.reordered += 1
        return FaultDecision(
            copies=copies, extra_delay=extra_delay, reorder=reorder
        )

    def counters(self) -> Dict[str, int]:
        """Aggregate fault counts for verdicts and tests."""

        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "partitioned": self.partitioned,
        }


#: Protocol (non-recovery) message labels, for rules that must not touch
#: heartbeats or session acks.
PROTOCOL_LABELS = frozenset({"request", "grant", "token", "release", "freeze"})


def _smoke_plan(seed: int) -> FaultPlan:
    """The CI smoke: light loss + duplication + jitter, then a crash.

    Tuned so a 30-second run exercises every recovery path (channel
    retransmission, dedup, suspicion, token regeneration) while still
    converging well inside the harness's drain grace.
    """

    return FaultPlan(
        rules=(
            FaultRule(action=DROP, probability=0.02, until=20.0),
            FaultRule(action=DUPLICATE, probability=0.02, until=20.0),
            FaultRule(action=DELAY, probability=0.05, delay=0.2, until=20.0),
        ),
        crashes=(CrashEvent(node=0, at=10.0),),
        seed=seed,
        name="smoke",
    )


def _named(name: str, builder: Callable[[int], FaultPlan]):
    return name, builder


#: Registry of canned plans for the chaos CLI (name -> builder(seed)).
NAMED_PLANS: Dict[str, Callable[[int], FaultPlan]] = dict(
    (
        _named("none", lambda seed: FaultPlan(seed=seed, name="none")),
        _named("smoke", _smoke_plan),
        _named(
            "drop1",
            lambda seed: FaultPlan(
                rules=(FaultRule(action=DROP, probability=0.01),),
                seed=seed,
                name="drop1",
            ),
        ),
        _named(
            "dup1",
            lambda seed: FaultPlan(
                rules=(FaultRule(action=DUPLICATE, probability=0.01),),
                seed=seed,
                name="dup1",
            ),
        ),
        _named(
            "jitter",
            lambda seed: FaultPlan(
                rules=(
                    FaultRule(action=DELAY, probability=0.10, delay=0.3),
                    FaultRule(action=REORDER, probability=0.05),
                ),
                seed=seed,
                name="jitter",
            ),
        ),
        _named(
            # The hardest plan: crash the initial token home mid-run and
            # bring it back.  With durability the restarted node rejoins
            # with its pre-crash locks (and its token, iff the epoch is
            # still current); without it the restart is blank and each
            # home token it re-creates is re-born fenced.
            "token-crash",
            lambda seed: FaultPlan(
                crashes=(CrashEvent(node=0, at=5.0, restart_at=12.0),),
                seed=seed,
                name="token-crash",
            ),
        ),
        _named(
            # Membership churn, gentle: two staggered joins under load.
            # Each joiner must bootstrap from a state-transfer snapshot,
            # settle the quorum-gated view change and start taking
            # grants without ever opening a Rule-1 window.
            "rolling-join",
            lambda seed: FaultPlan(
                churn=(
                    MembershipEvent(action=JOIN, at=5.0),
                    MembershipEvent(action=JOIN, at=12.0),
                ),
                seed=seed,
                name="rolling-join",
            ),
        ),
        _named(
            # Membership churn, graceful: drain node 1 mid-load (holds
            # released, token custody handed off, children migrated),
            # then a join backfills capacity.  No waiter may be stranded
            # by the departure.
            "graceful-drain",
            lambda seed: FaultPlan(
                churn=(
                    MembershipEvent(action=DRAIN, at=6.0, node=1),
                    MembershipEvent(action=JOIN, at=14.0),
                ),
                seed=seed,
                name="graceful-drain",
            ),
        ),
        _named(
            # Membership churn, forced: node 2 dies and is excised via
            # decommission (lease revocation + fence-floor bumps), and a
            # replacement joins.  The hardest path: the dead node's
            # state is reconstructed, not handed off.
            "kill-and-replace",
            lambda seed: FaultPlan(
                churn=(
                    MembershipEvent(action=DECOMMISSION, at=7.0, node=2),
                    MembershipEvent(action=JOIN, at=15.0),
                ),
                seed=seed,
                name="kill-and-replace",
            ),
        ),
        _named(
            "partition",
            lambda seed: FaultPlan(
                partitions=(
                    Partition(
                        side_a=frozenset({0}),
                        side_b=frozenset({1, 2, 3, 4, 5, 6, 7}),
                        start=5.0,
                        end=10.0,
                    ),
                ),
                seed=seed,
                name="partition",
            ),
        ),
        _named(
            # One node is cut off from everyone else and the partition
            # NEVER heals: the lease layer's defining scenario.  The
            # minority holder must self-fence (quorum silence past the
            # lease duration), the majority revokes its leases one
            # revoke-margin later, and waiting majority requests are
            # then granted — all without a Rule-1 window.
            "minority-partition",
            lambda seed: FaultPlan(
                partitions=(
                    Partition(
                        side_a=frozenset({4}),
                        side_b=frozenset({0, 1, 2, 3, 5, 6, 7}),
                        start=5.0,
                        end=math.inf,
                    ),
                ),
                seed=seed,
                name="minority-partition",
            ),
        ),
    )
)


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Build the canned plan *name* with *seed* (see :data:`NAMED_PLANS`)."""

    try:
        builder = NAMED_PLANS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_PLANS))
        raise ValueError(f"unknown fault plan {name!r} (known: {known})")
    return builder(seed)
