"""Unit tests for the causal tracer: hop bookkeeping, chain resolution,
critical-path decomposition, payload round-trips."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import (
    Envelope,
    GrantMessage,
    ReleaseMessage,
    RequestId,
    RequestMessage,
    TraceContext,
)
from repro.core.modes import LockMode
from repro.obs.tracing import (
    Hop,
    MessageTracer,
    TraceChain,
    canonical_span_key,
    critical_path,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _request(origin=0, dest=1, serial=1, lock="L"):
    rid = RequestId(timestamp=0, origin=origin, serial=serial)
    return Envelope(dest, RequestMessage(
        lock_id=lock, sender=origin, origin=origin,
        mode=LockMode.R, request_id=rid,
    ))


def _grant(trace, sender=1, dest=0, serial=1, lock="L"):
    rid = RequestId(timestamp=0, origin=dest, serial=serial)
    return Envelope(dest, GrantMessage(
        lock_id=lock, sender=sender, mode=LockMode.R,
        request_id=rid, trace=trace,
    ))


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
        out = tracer.outbound(0, _request())
        ctx = out.message.trace
        assert ctx is not None
        assert ctx.trace_id == "0.1"
        assert ctx.hop == 1 and ctx.parent == 0

        clock.now = 0.2
        tracer.delivered(1, out.message)
        # A grant carrying the request's hint joins the chain and, on
        # delivery at the origin, finalizes it.
        granted = tracer.outbound(1, _grant(out.message.trace))
        clock.now = 0.5
        tracer.delivered(0, granted.message)

        (chain,) = tracer.chains()
        assert chain.kind == "request"
        assert chain.hop_count == 2
        assert chain.granted_hop == 2
        assert chain.granted_at == 0.5
        assert tracer.total_hops() == 2

    def test_request_key_attaches_hintless_grant(self):
        # No hint copied (e.g. a replayed grant built from stored state):
        # the RequestId still routes it to the in-flight chain.
        tracer = MessageTracer(clock=FakeClock())
        tracer.outbound(0, _request())
        granted = tracer.outbound(1, _grant(None))
        assert granted.message.trace.trace_id == "0.1"
        (chain,) = tracer.chains()
        assert chain.hop_count == 2

    def test_delivery_scope_adopts_hintless_replies(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        out = tracer.outbound(0, _request())
        clock.now = 0.2
        sent = []

        def handler(message):
            # A message with no hint and no request identity, sent from
            # inside the handler, inherits the open scope.
            return [Envelope(2, ReleaseMessage(
                lock_id="L", sender=1, new_mode=LockMode.NONE,
            ))]

        def send(node, replies):
            sent.extend(tracer.outbound(node, reply) for reply in replies)

        tracer.deliver(1, out.message, handler, send)
        (reply,) = sent
        assert reply.message.trace.trace_id == "0.1"
        assert reply.message.trace.parent == 1
        assert tracer.chains()[0].hops[0].recv_at == 0.2
        # The scope closed with the delivery.
        later = tracer.outbound(1, Envelope(2, ReleaseMessage(
            lock_id="L", sender=1, new_mode=LockMode.NONE,
        )))
        assert later.message.trace.trace_id != "0.1"

    def test_release_joins_last_granted_chain(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        out = tracer.outbound(0, _request())
        granted = tracer.outbound(1, _grant(out.message.trace))
        tracer.delivered(0, granted.message)
        release = tracer.outbound(0, Envelope(1, ReleaseMessage(
            lock_id="L", sender=0, new_mode=LockMode.NONE,
        )))
        assert release.message.trace.trace_id == "0.1"
        assert release.message.trace.parent == granted.message.trace.hop

    def test_heartbeats_are_untraced(self):
        from repro.faults.messages import HeartbeatMessage

        tracer = MessageTracer(clock=FakeClock())
        env = Envelope(1, HeartbeatMessage(lock_id="", sender=0))
        assert tracer.outbound(0, env) is env
        assert tracer.chains() == []

    def test_verbatim_resend_becomes_retransmit_hop(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        out = tracer.outbound(0, _request())
        clock.now = 1.0
        again = tracer.outbound(0, out)  # same stamped envelope re-sent
        assert again.message.trace == out.message.trace  # not restamped
        (chain,) = tracer.chains()
        assert [h.kind for h in chain.hops] == ["send", "retransmit"]
        retrans = chain.hops[1]
        assert retrans.parent == chain.hops[0].parent
        assert retrans.sent_at == 1.0

    def test_duplicate_delivery_counts_not_new_hop(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)
        out = tracer.outbound(0, _request())
        clock.now = 0.2
        tracer.delivered(1, out.message)
        clock.now = 0.4
        tracer.delivered(1, out.message)
        (chain,) = tracer.chains()
        assert chain.hop_count == 1
        assert chain.hops[0].recv_at == 0.2
        assert chain.hops[0].duplicates == 1

    def test_annotated_scope_sets_hop_kind(self):
        tracer = MessageTracer(clock=FakeClock())
        with tracer.annotated(0, "regen"):
            out = tracer.outbound(0, _request())
        (chain,) = tracer.chains()
        assert chain.hops[0].kind == "regen"
        assert out.message.trace.kind == "regen"

    def test_aux_chain_for_recovery_labels(self):
        from repro.faults.messages import TokenProbe

        tracer = MessageTracer(clock=FakeClock())
        tracer.outbound(0, Envelope(1, TokenProbe(lock_id="L", sender=0)))
        (chain,) = tracer.chains()
        assert chain.kind == "recovery"
        assert chain.trace_id.endswith("#aux")


class TestStampFrame:
    def test_channel_stamp_then_wire_crossing(self):
        clock = FakeClock()
        tracer = MessageTracer(clock=clock)

        @dataclasses.dataclass(frozen=True)
        class Frame:
            seq: int
            payload: object
            trace: object = None

        frame = Frame(seq=1, payload=_request().message)
        stamped = tracer.stamp_frame(0, 1, frame)
        assert stamped.trace is not None
        assert stamped.payload.trace is stamped.trace
        (chain,) = tracer.chains()
        assert chain.hops[0].sent_at is None  # stamped, not yet on wire

        clock.now = 0.3
        first = tracer.outbound(0, Envelope(1, stamped))
        assert first.message is stamped  # not restamped
        assert chain.hops[0].sent_at == 0.3
        assert chain.hop_count == 1

        clock.now = 0.9  # channel retransmission of the same frame
        tracer.outbound(0, Envelope(1, stamped))
        assert chain.hop_count == 2
        assert chain.hops[1].kind == "retransmit"


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


class TestContextPlumbing:
    def test_trace_field_ignored_by_equality_and_repr(self):
        plain = _request().message
        traced = dataclasses.replace(plain, trace=TraceContext(
            trace_id="0.1", hop=1, parent=0, origin=0,
        ))
        assert plain == traced
        assert "trace" not in repr(traced)
