"""Unordered delivery of heartbeats and acks is harmless as a property.

``HeartbeatMessage`` and ``SessionAck`` are datagrams
(``repro.core.messages.declare_messages``): the fabric may deliver them
late, twice or after their successors.  For every such schedule the
receiver must end where in-order delivery ends — not at these seeds, at
every permutation.  Driven over the hand-cranked kernel
(``handcrank.py``): the test places every arrival.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import ReleaseMessage
from repro.core.modes import LockMode
from repro.faults.messages import HeartbeatMessage, SessionAck
from repro.faults.recovery import RecoveryConfig
from repro.membership.messages import ViewInstall

from .handcrank import build

LOCKS = ("A", "B", "C")
PEER = 1
#: Nobody is ever suspected by the clock: the test decides.
PATIENT = RecoveryConfig(suspect_timeout=1e6)


#: The receiver's beat that opened its dependency on ``PEER``.
OPENED = (0, 2)


def _beat(
    seq: int, locks=(), view_epoch: int = 0, tokens=None, gap=1, want=False,
    echo=(),
):
    return HeartbeatMessage(
        lock_id="",
        sender=PEER,
        seq=seq,
        view_epoch=view_epoch,
        gap=gap,
        want=want,
        echo=echo,
        leases=tuple(
            (lock, "R", PEER, (tokens or {}).get(lock, 1))
            for lock in sorted(locks)
        ),
    )


@st.composite
def beat_streams(draw):
    """One incarnation's heartbeats, in send order: the held set changes
    freely, a re-acquired hold carries a fresh (higher) fencing token,
    the sender's installed view only ever advances, and its promised gap,
    the receiver's beat it echoes and whether it depends on the receiver
    change freely."""

    count = draw(st.integers(2, 6))
    epochs = sorted(
        draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    )
    beats, tokens, held = [], {}, set()
    for index in range(count):
        now_held = draw(st.sets(st.sampled_from(LOCKS)))
        for lock in now_held - held:
            tokens[lock] = index + 1
        held = now_held
        beats.append(
            _beat(
                index + 1,
                held,
                epochs[index],
                dict(tokens),
                gap=draw(st.integers(1, 6)),
                want=draw(st.booleans()),
                echo=draw(st.sampled_from([(), (0, 1), OPENED, (0, 3)])),
            )
        )
    return beats


@st.composite
def schedules(draw, stream=beat_streams()):
    """(stream, arrival order): every message at least once, duplicates
    and any order allowed."""

    messages = draw(stream)
    extra = draw(st.lists(st.sampled_from(messages), max_size=6))
    return messages, draw(st.permutations(messages + extra))


class _Receiver:
    """Node 0 of three, on view epoch 2, depending on ``PEER`` since its
    beat ``OPENED``, about to hear from it."""

    def __init__(self) -> None:
        self.scheduler, self.fabric = build(3, PATIENT)
        self.kernel = self.fabric.managers[0]
        self.kernel.dependencies = lambda: {PEER}
        self.scheduler.advance(PATIENT.heartbeat_interval)
        assert self.kernel._opened == {PEER: OPENED}
        self.kernel.membership.install(
            self.kernel.control(ViewInstall, epoch=2, members=(0, 1, 2))
        )
        for lock in LOCKS:
            self.kernel.lockspace.automaton(lock)

    def hear(self, message) -> None:
        self.scheduler.time += 0.01
        self.kernel.handle(message)

    def suspect_holder(self) -> None:
        """What ``_on_suspect`` asks the lease layer per lock."""

        for lock in LOCKS:
            self.kernel.leases.pins(lock, PEER, self.scheduler.now())

    def state(self):
        leases = self.kernel.leases
        return (
            sorted(
                (l.lock, l.mode, l.holder, l.token)
                for l in leases.remote.leases()
            ),
            {peer: sorted(locks) for peer, locks in leases._deferred.items()},
            len(self.fabric.sent(ViewInstall, sender=0)),
            self.kernel.detector.gap(PEER),
            PEER in self.kernel._wanters,
        )


@settings(max_examples=150, deadline=None)
@given(schedule=schedules(), suspect_after=st.integers(0, 12))
def test_any_heartbeat_schedule_ends_where_in_order_delivery_ends(
    schedule, suspect_after
):
    beats, arrivals = schedule
    newest = beats[-1]
    # Every world starts from the stream's first beat, then suspects the
    # holder: its leased locks become deferred evictions, which the next
    # *applied* beat resolves.
    in_order = _Receiver()
    in_order.hear(beats[0])
    in_order.suspect_holder()
    for beat in beats[1:]:
        in_order.hear(beat)

    shuffled = _Receiver()
    shuffled.hear(beats[0])
    suspected = settled = False
    for index, beat in enumerate(arrivals):
        if not suspected and (index >= suspect_after or beat is newest):
            shuffled.suspect_holder()
            suspected = True
        before = shuffled.state()
        shuffled.hear(beat)
        # Every arrival, stale or not, is life...
        assert shuffled.kernel.detector.last_seen(PEER) == shuffled.scheduler.now()
        if settled:
            # ...and nothing that arrives after the newest beat moves the
            # mirror, the deferred evictions, the view catch-ups, the
            # promised gap or whether the sender depends on us.
            assert shuffled.state() == before
        settled = settled or beat is newest
    mirror, deferred, _catch_ups, gap, wants = shuffled.state()
    assert (mirror, deferred) == in_order.state()[:2]
    # A per-tick promise counts only if it echoes the dependency's
    # opening beat or a later one; else the sender is on the sweep.
    promised = newest.gap
    if promised == 1 and newest.echo < OPENED:
        promised = shuffled.kernel.sweep
    assert (gap, wants) == in_order.state()[3:] == (promised, newest.want)
    assert mirror == sorted(
        (str(lock), mode, PEER, token) for lock, mode, _h, token in newest.leases
    )
    assert PEER not in deferred


def test_an_overtaken_heartbeat_does_not_resurrect_a_released_lease():
    """The parent applied whatever arrived last: a beat sent *before* a
    release, delivered after the beat that advertised it, put the row
    back into the mirror — a lease nobody holds, pinned until expiry."""

    receiver = _Receiver()
    receiver.hear(_beat(2))             # sent second: the hold is gone
    receiver.hear(_beat(1, {"A"}))      # sent first, delayed on the wire
    assert receiver.kernel.leases.remote.leases() == []
    assert receiver.kernel.leases.renewals_received == 0


def test_a_restarted_peers_first_beat_is_newer_than_any_of_its_past_life():
    receiver = _Receiver()
    receiver.hear(_beat(40, {"A"}))
    reborn = HeartbeatMessage(lock_id="", sender=PEER, boot=1, seq=1)
    receiver.hear(reborn)
    assert receiver.kernel.leases.remote.leases() == []
    receiver.hear(_beat(41, {"A"}))     # a ghost of the old incarnation
    assert receiver.kernel.leases.remote.leases() == []
    # Leaving the view forgets the peer: its numbering may start over.
    receiver.kernel.forget_peer(PEER)
    assert PEER not in receiver.kernel._newest_beat


def test_beats_are_numbered_per_incarnation_from_the_first_tick():
    scheduler, fabric = build(2, PATIENT)
    scheduler.advance(1.0)
    assert [m.seq for m in fabric.sent(HeartbeatMessage, sender=0)] == [1, 2, 3]


# -- acks ---------------------------------------------------------------


@st.composite
def ack_streams(draw):
    """The cumulative acks a receiver of ``frames`` frames could send."""

    frames = draw(st.integers(1, 6))
    acks = draw(
        st.lists(st.integers(-1, frames - 1), min_size=1, max_size=frames + 2)
    )
    return [
        SessionAck(lock_id="", sender=PEER, ack=ack) for ack in sorted(acks)
    ]


@settings(max_examples=150, deadline=None)
@given(schedule=schedules(ack_streams()), frames=st.integers(6, 8))
def test_any_ack_schedule_trims_what_in_order_delivery_trims(schedule, frames):
    acks, arrivals = schedule

    def sender():
        _scheduler, fabric = build(2, PATIENT)
        kernel = fabric.managers[0]
        for _ in range(frames):
            kernel.channel.send(
                PEER,
                ReleaseMessage(lock_id="L", sender=0, new_mode=LockMode.NONE),
            )
        return kernel, kernel.channel._out[PEER].unacked

    in_order, expected = sender()
    for ack in acks:
        in_order.handle(ack)
    shuffled, unacked = sender()
    highest = -1
    for ack in arrivals:
        shuffled.handle(ack)
        highest = max(highest, ack.ack)
        # Cumulative: what is outstanding is what the highest ack seen so
        # far leaves; a stale ack trims nothing and re-adds nothing.
        assert list(unacked) == list(range(highest + 1, frames))
    assert list(unacked) == list(expected)
