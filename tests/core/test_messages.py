"""Tests for the protocol wire format."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import (
    LABEL_PLANES,
    MESSAGE_TYPE_LABELS,
    PLANES,
    Envelope,
    Message,
    FreezeMessage,
    GrantMessage,
    ReleaseMessage,
    RequestId,
    RequestMessage,
    TokenMessage,
    declare_messages,
    fresh_attachment_seq,
    fresh_request_id,
    message_type_label,
)
from repro.core.modes import LockMode


class TestRequestId:
    def test_sort_key_orders_by_timestamp_first(self):
        early = RequestId(timestamp=1, origin=9, serial=100)
        late = RequestId(timestamp=2, origin=0, serial=0)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_breaks_ties_by_origin_then_serial(self):
        a = RequestId(timestamp=5, origin=1, serial=7)
        b = RequestId(timestamp=5, origin=2, serial=3)
        c = RequestId(timestamp=5, origin=2, serial=4)
        assert a.sort_key() < b.sort_key() < c.sort_key()

    def test_fresh_ids_have_unique_increasing_serials(self):
        first = fresh_request_id(1, 0)
        second = fresh_request_id(1, 0)
        assert first.serial < second.serial

    def test_fresh_attachment_seq_shares_serial_space(self):
        request = fresh_request_id(1, 0)
        seq = fresh_attachment_seq()
        assert seq > request.serial


class TestMessageDataclasses:
    def _request(self, **overrides):
        base = dict(
            lock_id="L",
            sender=0,
            origin=0,
            mode=LockMode.R,
            request_id=fresh_request_id(1, 0),
        )
        base.update(overrides)
        return RequestMessage(**base)

    def test_messages_are_immutable(self):
        msg = self._request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            msg.mode = LockMode.W

    def test_forwarding_preserves_origin(self):
        msg = self._request(origin=3)
        forwarded = dataclasses.replace(msg, sender=7)
        assert forwarded.origin == 3
        assert forwarded.sender == 7
        assert forwarded.request_id == msg.request_id

    def test_grant_carries_explicit_attachment_epoch(self):
        """Epochs are minted at grant-issue time, independent of the
        request's creation serial (see GrantMessage docstring for why)."""

        request_id = fresh_request_id(4, 2)
        grant = GrantMessage(
            lock_id="L", sender=0, mode=LockMode.R, request_id=request_id,
            attachment_seq=777,
        )
        assert grant.attachment_seq == 777

    def test_upgrade_flag_defaults_false(self):
        assert self._request().upgrade is False


class TestMessageTypeLabels:
    """Figure 7's legend maps one label per message type."""

    @pytest.mark.parametrize(
        "message,label",
        [
            (
                RequestMessage(
                    lock_id="L",
                    sender=0,
                    origin=0,
                    mode=LockMode.R,
                    request_id=RequestId(1, 0, 1),
                ),
                "request",
            ),
            (
                GrantMessage(
                    lock_id="L",
                    sender=0,
                    mode=LockMode.R,
                    request_id=RequestId(1, 0, 2),
                ),
                "grant",
            ),
            (
                TokenMessage(
                    lock_id="L",
                    sender=0,
                    granted_mode=LockMode.W,
                    request_id=RequestId(1, 0, 3),
                    prev_owner_mode=LockMode.NONE,
                ),
                "token",
            ),
            (
                ReleaseMessage(lock_id="L", sender=0, new_mode=LockMode.NONE),
                "release",
            ),
            (
                FreezeMessage(lock_id="L", sender=0, frozen=frozenset()),
                "freeze",
            ),
        ],
    )
    def test_labels(self, message, label):
        assert message_type_label(message) == label

    def test_every_message_class_in_the_tree_has_one_label(self):
        """One table: what ``repro report`` prints for a class is what a
        fault rule matches it by.  (The tracer used to keep its own,
        string-keyed, and never learnt the membership messages.)"""

        from repro.faults.plan import fault_label

        _import_the_tree()

        def leaves(cls):
            subclasses = cls.__subclasses__()
            if not subclasses:
                yield cls
            for subclass in subclasses:
                yield from leaves(subclass)

        classes = {
            cls for cls in leaves(Message) if cls.__module__.startswith("repro.")
        }
        assert len(classes) >= 23
        for cls in classes:
            blank = cls.__new__(cls)  # Labels go by class, not by content.
            assert MESSAGE_TYPE_LABELS[cls] == fault_label(blank), cls

    def test_envelope_carries_destination(self):
        release = ReleaseMessage(lock_id="L", sender=1, new_mode=LockMode.IR)
        envelope = Envelope(dest=4, message=release)
        assert envelope.dest == 4
        assert envelope.message is release


def _import_the_tree():
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


class TestDeclarations:
    """A type gets its label, its plane and its delivery class together."""

    def _toy(self):
        @dataclasses.dataclass(frozen=True)
        class Toy(Message):
            pass

        return Toy

    def test_a_label_without_plane_and_delivery_class_is_a_type_error(self):
        toy = self._toy()
        with pytest.raises(TypeError):
            declare_messages({toy: "toy"})
        with pytest.raises(TypeError):
            declare_messages({toy: "toy"}, plane="recovery")
        with pytest.raises(TypeError):
            declare_messages({toy: "toy"}, ordered=True)
        with pytest.raises(TypeError, match="plane"):
            declare_messages({toy: "toy"}, plane="gossip", ordered=True)
        with pytest.raises(TypeError, match="ordered"):
            declare_messages({toy: "toy"}, plane="recovery", ordered=None)
        # The pre-declaration idiom, ``MESSAGE_TYPE_LABELS.update({...})``
        # at the bottom of a messages module, no longer imports.
        assert not hasattr(MESSAGE_TYPE_LABELS, "update")
        with pytest.raises(TypeError):
            MESSAGE_TYPE_LABELS[toy] = "toy"
        assert toy not in MESSAGE_TYPE_LABELS
        assert not hasattr(toy, "ordered") and not hasattr(toy, "plane")

    def test_a_label_names_one_plane(self):
        toy = self._toy()
        with pytest.raises(TypeError, match="heartbeat"):
            declare_messages({toy: "heartbeat"}, plane="recovery", ordered=True)
        assert toy not in MESSAGE_TYPE_LABELS

    def test_every_labelled_type_declared_both_on_itself(self):
        _import_the_tree()
        assert len(MESSAGE_TYPE_LABELS) >= 23
        for cls, label in MESSAGE_TYPE_LABELS.items():
            assert vars(cls)["plane"] in PLANES, cls
            assert vars(cls)["ordered"] in (True, False), cls
            assert LABEL_PLANES[label] == cls.plane, cls

    def test_the_datagram_types_are_the_heartbeat_and_the_ack(self):
        _import_the_tree()
        from repro.faults.messages import HeartbeatMessage, SessionAck

        assert {
            cls for cls in MESSAGE_TYPE_LABELS if not cls.ordered
        } == {HeartbeatMessage, SessionAck}

    def test_the_declared_plane_is_the_ledgers_plane(self):
        """``benchmarks/ledger/trace.py::plane_of`` (read-only here: the
        ledger is not edited by the PRs it measures) and the declaration
        agree on every type in the tree."""

        from benchmarks.ledger.trace import PLANES as LEDGER_PLANES
        from benchmarks.ledger.trace import plane_of
        from repro.faults.messages import SessionMessage

        _import_the_tree()
        assert LEDGER_PLANES == PLANES
        payloads = [
            cls.__new__(cls)
            for cls in MESSAGE_TYPE_LABELS
            if cls.plane == "protocol" and cls is not SessionMessage
        ]
        assert len(payloads) >= 9
        for cls in MESSAGE_TYPE_LABELS:
            if cls is SessionMessage:
                continue  # A frame is its payload's plane: below.
            assert plane_of(cls.__new__(cls)) == cls.plane, cls
        for payload in payloads:
            frame = SessionMessage(
                lock_id="L", sender=0, seq=0, payload=payload
            )
            assert plane_of(frame) == SessionMessage.plane == "protocol"
