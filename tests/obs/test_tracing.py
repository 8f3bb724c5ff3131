"""Unit tests for the causal tracer: hop bookkeeping, chain resolution,
critical-path decomposition, payload round-trips."""

from __future__ import annotations

import pytest

from repro.core.messages import (
    Envelope,
    GrantMessage,
    ReleaseMessage,
    RequestId,
    RequestMessage,
)
from repro.core.modes import LockMode
from repro.faults.messages import SessionMessage
from repro.obs.sink import GRANTED, ISSUED
from repro.obs.tracing import (
    Hop,
    MessageTracer,
    TraceChain,
    canonical_span_key,
    critical_path,
)
from repro.raymond.messages import (
    RaymondPrivilegeMessage,
    RaymondRequestMessage,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _request(origin=0, dest=1, serial=1, lock="L", sender=None):
    rid = RequestId(timestamp=0, origin=origin, serial=serial)
    return Envelope(dest, RequestMessage(
        lock_id=lock, sender=origin if sender is None else sender,
        origin=origin, mode=LockMode.R, request_id=rid,
    ))


def _grant(sender=1, dest=0, serial=1, lock="L"):
    rid = RequestId(timestamp=0, origin=dest, serial=serial)
    return Envelope(dest, GrantMessage(
        lock_id=lock, sender=sender, mode=LockMode.R, request_id=rid,
    ))


def _release(sender, dest, lock="L"):
    return Envelope(dest, ReleaseMessage(
        lock_id=lock, sender=sender, new_mode=LockMode.NONE,
    ))


def _frame(envelope, sender=0, seq=0):
    return Envelope(envelope.dest, SessionMessage(
        lock_id=envelope.message.lock_id, sender=sender, seq=seq,
        payload=envelope.message,
    ))


def _hop(tracer, ident) -> Hop:
    trace_id, number = ident
    (chain,) = [c for c in tracer.chains() if c.trace_id == trace_id]
    return chain.hop_index()[number]


class TestLabelsAndKeys:
    def test_message_label(self):
        tracer = MessageTracer()
        tracer.outbound(0, _request())
        assert [hop.label for hop in tracer.chains()[0].hops] == ["request"]

    def test_canonical_span_key_forms(self):
        assert canonical_span_key((3, 7)) == "3.7"
        assert canonical_span_key(("L", 2)) == "L:2"
        rid = RequestId(timestamp=0, origin=4, serial=9)
        assert canonical_span_key(rid) == "4.9"

    def test_chain_span_key_strips_serial_suffix(self):
        chain = TraceChain(trace_id="L:2#5", origin=2, lock="L",
                           issued_at=0.0)
        assert chain.span_key == "L:2"
        chain = TraceChain(trace_id="3.7", origin=3, lock="L", issued_at=0.0)
        assert chain.span_key == "3.7"


class TestTracerBasics:
    def test_request_mints_chain_and_grant_finalizes(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        request = _request()
        ident = tracer.outbound(0, request)
        assert ident == ("0.1", 1)
        assert _hop(tracer, ident).parent == 0

        clock.now = 0.2
        tracer.delivered(1, request.message, ident)
        # The grant names the request, so it joins the chain and, on
        # delivery at the origin, finalizes it.
        grant = _grant()
        granted = tracer.outbound(1, grant)
        assert granted == ("0.1", 2)
        assert _hop(tracer, granted).parent == 1
        clock.now = 0.5
        tracer.delivered(0, grant.message, granted)

        (chain,) = tracer.chains()
        assert chain.kind == "request"
        assert chain.hop_count == 2
        assert chain.granted_hop == 2
        assert chain.granted_at == 0.5
        assert tracer.total_hops() == 2

    def test_request_key_attaches_hintless_grant(self):
        # The grant carries nothing but its RequestId, which routes it to
        # the chain; its parent is the request hop delivered last.
        tracer = MessageTracer(clock=FakeClock())
        first = _request()
        tracer.delivered(1, first.message, tracer.outbound(0, first))
        forward = _request(sender=1, dest=2)
        forwarded = tracer.outbound(1, forward)
        tracer.delivered(2, forward.message, forwarded)
        granted = tracer.outbound(2, _grant(sender=2))
        assert granted[0] == "0.1"
        assert _hop(tracer, forwarded).parent == 1
        assert _hop(tracer, granted).parent == forwarded[1]
        (chain,) = tracer.chains()
        assert chain.hop_count == 3

    def test_grant_after_its_chain_granted_stays_on_it(self):
        # A duplicate grant (a replay) still names its own request, even
        # from inside another chain's delivery scope.
        tracer = MessageTracer(clock=FakeClock())
        request = _request()
        tracer.delivered(1, request.message, tracer.outbound(0, request))
        grant = _grant()
        tracer.delivered(0, grant.message, tracer.outbound(1, grant))
        other = _request(origin=2, dest=1, serial=7)
        sent = []
        tracer.deliver(
            1, other.message, tracer.outbound(2, other),
            lambda _message: [_grant()],
            lambda node, replies: sent.extend(
                tracer.outbound(node, reply) for reply in replies
            ),
        )
        assert sent == [("0.1", 3)]
        assert _hop(tracer, sent[0]).parent == 1

    def test_delivery_scope_adopts_hintless_replies(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        request = _request()
        ident = tracer.outbound(0, request)
        clock.now = 0.2
        sent = []

        def handler(message):
            # A message naming no request, sent from inside the handler,
            # inherits the open scope.
            return [_release(1, 2)]

        def send(node, replies):
            sent.extend(tracer.outbound(node, reply) for reply in replies)

        tracer.deliver(1, request.message, ident, handler, send)
        (reply,) = sent
        assert reply[0] == "0.1"
        assert _hop(tracer, reply).parent == 1
        assert tracer.chains()[0].hops[0].recv_at == 0.2
        # The scope closed with the delivery.
        later = tracer.outbound(1, _release(1, 2))
        assert later[0] != "0.1"

    def test_release_joins_last_granted_chain(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        tracer.outbound(0, _request())
        grant = _grant()
        granted = tracer.outbound(1, grant)
        tracer.delivered(0, grant.message, granted)
        release = tracer.outbound(0, _release(0, 1))
        assert release[0] == "0.1"
        assert _hop(tracer, release).parent == granted[1]

    def test_heartbeats_are_untraced(self):
        from repro.faults.messages import HeartbeatMessage

        tracer = MessageTracer(clock=FakeClock())
        env = Envelope(1, HeartbeatMessage(lock_id="", sender=0))
        assert tracer.outbound(0, env) is None
        tracer.handed(0, [env])
        tracer.delivered(1, env.message, None)
        assert tracer.chains() == []

    def test_verbatim_resend_becomes_retransmit_hop(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        frame = _frame(_request())
        ident = tracer.outbound(0, frame)
        clock.now = 1.0
        # The channel re-sends the very frame object: same hop id.
        assert tracer.outbound(0, frame) == ident
        (chain,) = tracer.chains()
        assert [h.kind for h in chain.hops] == ["send", "retransmit"]
        retrans = chain.hops[1]
        assert retrans.parent == chain.hops[0].parent
        assert retrans.sent_at == 1.0
        # An equal frame that is another object is another send.
        twin = _frame(_request())
        assert twin == frame
        assert tracer.outbound(0, twin) != ident
        assert [h.kind for h in chain.hops] == ["send", "retransmit", "send"]

    def test_duplicate_delivery_counts_not_new_hop(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        request = _request()
        ident = tracer.outbound(0, request)
        clock.now = 0.2
        tracer.delivered(1, request.message, ident)
        clock.now = 0.4
        tracer.delivered(1, request.message, ident)
        (chain,) = tracer.chains()
        assert chain.hop_count == 1
        assert chain.hops[0].recv_at == 0.2
        assert chain.hops[0].duplicates == 1

    def test_annotated_scope_sets_hop_kind(self):
        tracer = MessageTracer(clock=FakeClock())
        with tracer.annotated(0, "regen"):
            tracer.outbound(0, _request())
        tracer.outbound(0, _release(0, 1))
        (chain, aux) = tracer.chains()
        assert chain.hops[0].kind == "regen"
        assert aux.hops[0].kind == "send"

    def test_aux_chain_for_recovery_labels(self):
        from repro.faults.messages import TokenProbe

        tracer = MessageTracer(clock=FakeClock())
        tracer.outbound(0, Envelope(1, TokenProbe(lock_id="L", sender=0)))
        (chain,) = tracer.chains()
        assert chain.kind == "recovery"
        assert chain.trace_id.endswith("#aux")


class TestStampFrame:
    def test_channel_stamp_then_wire_crossing(self):
        # A frame's hop opens when a fabric that may drop it is handed
        # the frame — inside the scope of the handler that sent it — and
        # is timed when the frame first crosses the wire.
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        request = _request()
        scope = tracer.outbound(0, request)
        frame = _frame(_release(1, 2), sender=1)

        def handler(_message):
            tracer.handed(1, [frame])  # ...and the fabric drops it.
            return []

        tracer.deliver(1, request.message, scope, handler, lambda *_: None)
        (chain,) = tracer.chains()
        assert chain.hops[1].sent_at is None  # opened, not yet on wire
        assert chain.hops[1].parent == 1

        clock.now = 0.3  # the channel's retransmit crosses: first send
        tracer.handed(1, [frame])
        first = tracer.outbound(1, frame)
        assert first == ("0.1", 2)
        assert chain.hops[1].sent_at == 0.3
        assert chain.hop_count == 2

        clock.now = 0.9  # another retransmission of the same frame
        assert tracer.outbound(1, frame) == first
        assert chain.hop_count == 3
        assert chain.hops[2].kind == "retransmit"


class TestRaymondQueueMirror:
    """A Raymond message names no request: the tracer mirrors each
    node's request queue to learn which request it serves."""

    def _deliver_request(self, tracer, sender, dest):
        message = RaymondRequestMessage(lock_id="L", sender=sender)
        ident = tracer.outbound(sender, Envelope(dest, message))
        tracer.delivered(dest, message, ident)
        return ident

    def test_privilege_answers_head_and_request_carries_next(self):
        tracer = MessageTracer(clock=FakeClock())
        # Node 1 queues 2's request, then its own, then 3's.
        from_two = self._deliver_request(tracer, 2, 1)
        tracer.phase(1, "L", ISSUED)
        from_three = self._deliver_request(tracer, 3, 1)
        privilege = tracer.outbound(
            1, Envelope(2, RaymondPrivilegeMessage(lock_id="L", sender=1))
        )
        assert privilege == (from_two[0], 2)
        assert _hop(tracer, privilege).parent == from_two[1]
        # Its own request is next: a request on its behalf mints a chain.
        asked = tracer.outbound(
            1, Envelope(2, RaymondRequestMessage(lock_id="L", sender=1))
        )
        assert asked == ("L:1#1", 1)
        tracer.phase(1, "L", GRANTED)
        # Then 3's: the next request passed up serves it.
        again = tracer.outbound(
            1, Envelope(2, RaymondRequestMessage(lock_id="L", sender=1))
        )
        assert again[0] == from_three[0]
        assert _hop(tracer, again).parent == from_three[1]


class TestCriticalPath:
    def _chain(self):
        # issue 0.0 -> hop1 sent 0.5 (queue 0.5) recv 0.8 (transit 0.3)
        # -> hop2 sent 1.0 (queue 0.2) recv 1.4 (transit 0.4), granted.
        return TraceChain(
            trace_id="0.1", origin=0, lock="L", issued_at=0.0,
            hops=[
                Hop(hop=1, parent=0, sender=0, dest=1, label="request",
                    sent_at=0.5, recv_at=0.8),
                Hop(hop=2, parent=1, sender=1, dest=0, label="grant",
                    sent_at=1.0, recv_at=1.4),
            ],
            granted_hop=2, granted_at=1.4,
        )

    def test_segments_sum_to_latency(self):
        result = critical_path(self._chain())
        segments = result["segments"]
        assert segments["transit"] == pytest.approx(0.7)
        assert segments["queue"] == pytest.approx(0.7)
        assert segments["freeze"] == 0.0
        assert segments["recovery"] == 0.0
        assert sum(segments.values()) == pytest.approx(result["total"])
        assert result["path"] == [1, 2]

    def test_freeze_splits_final_wait(self):
        result = critical_path(self._chain(), frozen_at=0.9)
        segments = result["segments"]
        # Final wait [0.8, 1.0] splits at frozen_at=0.9.
        assert segments["freeze"] == pytest.approx(0.1)
        assert segments["queue"] == pytest.approx(0.5 + 0.1)
        assert sum(segments.values()) == pytest.approx(result["total"])

    def test_retransmit_makes_wait_recovery(self):
        chain = self._chain()
        chain.hops.append(Hop(
            hop=3, parent=1, sender=0, dest=1, label="request",
            kind="retransmit", sent_at=0.9,
        ))
        result = critical_path(chain)
        segments = result["segments"]
        # The wait [0.8, 1.0] overlaps the retransmit send at 0.9.
        assert segments["recovery"] == pytest.approx(0.2)
        assert segments["queue"] == pytest.approx(0.5)
        assert sum(segments.values()) == pytest.approx(result["total"])

    def test_ungranted_chain_has_no_path(self):
        chain = self._chain()
        chain.granted_hop = chain.granted_at = None
        assert critical_path(chain) is None


class TestPayloadRoundTrip:
    def test_hop_round_trip(self):
        hop = Hop(hop=3, parent=1, sender=2, dest=0, label="grant",
                  kind="retransmit", sent_at=1.5, recv_at=2.0, duplicates=2)
        assert Hop.from_payload(hop.to_payload()) == hop

    def test_hop_payload_omits_defaults(self):
        payload = Hop(hop=1, parent=0, sender=0, dest=1,
                      label="request").to_payload()
        assert "kind" not in payload
        assert "sent" not in payload and "recv" not in payload
        assert "dup" not in payload

    def test_chain_round_trip(self):
        chain = TraceChain(
            trace_id="0.1", origin=0, lock="L", issued_at=0.25,
            hops=[Hop(hop=1, parent=0, sender=0, dest=1, label="request",
                      sent_at=0.25, recv_at=0.5)],
            granted_hop=1, granted_at=0.5,
        )
        assert TraceChain.from_payload(chain.to_payload()) == chain
