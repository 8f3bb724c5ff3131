"""TCP loopback transport: the lock service over real sockets.

Deploys the very same automata over genuine TCP connections (loopback by
default), exercising everything a wire deployment implies: framing,
per-connection FIFO (which the protocol's freeze propagation relies on —
TCP provides it), lazy connection establishment and concurrent readers.

Framing is 4-byte big-endian length + pickled message.  Pickle is only
safe among trusting peers; this transport is meant for loopback test
deployments and as the reference for a production codec, not for
untrusted networks.

Use with the standard threaded cluster::

    transport = TcpTransport()
    cluster = ThreadedHierarchicalCluster(4, transport=transport)
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.messages import Envelope, NodeId, fault_label
from ..errors import SimulationError
from ..obs.sink import ObsSink
from .transport import MessageHandler, MessageObserver

_HEADER = struct.Struct(">I")

#: Maximum frame size accepted (a protocol message is tiny; a huge frame
#: indicates corruption).
MAX_FRAME = 16 * 1024 * 1024


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise SimulationError(f"oversized frame ({length} bytes)")
    return _recv_exact(sock, length)


class TcpTransport:
    """One listening socket per node; lazy outbound connections.

    Implements the same ``register/start/stop/send`` surface as
    :class:`~repro.runtime.transport.ThreadedTransport`, so it drops into
    :class:`~repro.runtime.cluster.ThreadedHierarchicalCluster` unchanged.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        observer: Optional[MessageObserver] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self._host = host
        self._observer = observer
        #: Optional observability sink: frames are reported as ``message``
        #: plus ``wire_sent(frame bytes, serialize+send seconds)`` and
        #: ``wire_received(frame bytes)`` on the reader side.
        self.obs = obs
        #: Optional causal tracer, adopted from ``obs`` when it has one.
        #: Trace contexts are ordinary dataclass fields, so they survive
        #: the pickle frame codec with no extra wire format.
        self.tracer = getattr(obs, "tracer", None)
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._servers: Dict[NodeId, socket.socket] = {}
        self._addresses: Dict[NodeId, Tuple[str, int]] = {}
        self._outbound: Dict[Tuple[NodeId, NodeId], socket.socket] = {}
        self._outbound_lock = threading.Lock()
        self._accepted: List[socket.socket] = []
        self._accepted_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._messages_sent = 0
        self._count_lock = threading.Lock()
        #: Optional callback ``(peer_or_-1, reason)`` invoked when a
        #: reader loses its connection (peer disconnect, oversized or
        #: corrupt frame).  The recovery layer plugs in here; the same
        #: event also reaches ``obs.peer_lost``.
        self.on_peer_lost: Optional[Callable[[NodeId, str], None]] = None
        self.peers_lost = 0

    @property
    def messages_sent(self) -> int:
        """Total frames sent between distinct nodes."""

        return self._messages_sent

    def address_of(self, node_id: NodeId) -> Tuple[str, int]:
        """The (host, port) a node listens on (available after register)."""

        return self._addresses[node_id]

    def register(self, node_id: NodeId, handler: MessageHandler) -> None:
        """Bind a listening socket for *node_id* and attach its handler."""

        if self._started:
            raise SimulationError("cannot register nodes after start()")
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} registered twice")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._host, 0))
        server.listen(32)
        self._handlers[node_id] = handler
        self._servers[node_id] = server
        self._addresses[node_id] = server.getsockname()

    def start(self) -> None:
        """Start one accept loop per node."""

        if self._started:
            return
        self._started = True
        for node_id, server in self._servers.items():
            thread = threading.Thread(
                target=self._accept_loop,
                args=(node_id, server),
                name=f"repro-tcp-accept-{node_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Close every socket and join the I/O threads."""

        if not self._started:
            return
        self._stopping = True
        for server in self._servers.values():
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does (the accept fails with EINVAL/ENOTCONN).
            try:
                server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                server.close()
            except OSError:  # pragma: no cover - platform specific
                pass
        with self._outbound_lock:
            for sock in self._outbound.values():
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
            self._outbound.clear()
        with self._accepted_lock:
            for sock in self._accepted:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
            self._accepted.clear()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        self._started = False
        self._stopping = False

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Serialize and transmit envelopes over per-pair connections."""

        for envelope in envelopes:
            dest = envelope.dest
            if dest not in self._handlers:
                raise SimulationError(f"message to unregistered node {dest}")
            if dest == sender:
                # The protocol never self-sends; handle defensively so a
                # custom client cannot wedge the transport.
                replies = self._handlers[dest](envelope.message)
                if replies:
                    self.send(dest, replies)
                continue
            if self._observer is not None:
                self._observer(sender, dest, envelope.message)
            if self.tracer is not None:
                envelope = self.tracer.outbound(sender, envelope)
            started = time.perf_counter()
            payload = pickle.dumps((sender, envelope.message))
            sock = self._connection(sender, dest)
            try:
                _send_frame(sock, payload)
            except OSError as exc:
                if self._stopping:
                    return
                # The cached connection died (the peer's reader closed it
                # after a bad frame, or the peer restarted).  Reconnect
                # lazily, once: a fresh connection either works or the
                # destination is genuinely gone.
                self._drop_connection(sender, dest, sock)
                try:
                    sock = self._connection(sender, dest)
                    _send_frame(sock, payload)
                except OSError as retry_exc:
                    if self._stopping:
                        return
                    self._drop_connection(sender, dest, sock)
                    raise SimulationError(
                        f"send {sender}→{dest} failed: {retry_exc}"
                    ) from retry_exc
            if self.obs is not None:
                self.obs.message(sender, dest, fault_label(envelope.message))
                self.obs.wire_sent(
                    sender,
                    dest,
                    _HEADER.size + len(payload),
                    time.perf_counter() - started,
                )
            with self._count_lock:
                self._messages_sent += 1

    # ------------------------------------------------------------------

    def _connection(self, sender: NodeId, dest: NodeId) -> socket.socket:
        key = (sender, dest)
        with self._outbound_lock:
            sock = self._outbound.get(key)
            if sock is None:
                sock = socket.create_connection(self._addresses[dest])
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._outbound[key] = sock
            return sock

    def _drop_connection(
        self, sender: NodeId, dest: NodeId, sock: socket.socket
    ) -> None:
        """Evict a dead cached connection so the next send reconnects."""

        with self._outbound_lock:
            if self._outbound.get((sender, dest)) is sock:
                del self._outbound[(sender, dest)]
        try:
            sock.close()
        except OSError:  # pragma: no cover - platform specific
            pass

    def _peer_lost(
        self, node_id: NodeId, conn: socket.socket, peer: NodeId, reason: str
    ) -> None:
        """A reader lost its connection: surface it and clean up.

        *peer* is the sender of the last good frame on the connection, or
        ``-1`` if none arrived before it died.  The connection is removed
        from the accepted list and closed, so the peer's next send (which
        reconnects lazily) gets a fresh reader.
        """

        with self._accepted_lock:
            if conn in self._accepted:
                self._accepted.remove(conn)
        try:
            conn.close()
        except OSError:  # pragma: no cover - platform specific
            pass
        if self._stopping:
            return  # An orderly shutdown is not a failure.
        with self._count_lock:
            self.peers_lost += 1
        if self.obs is not None:
            self.obs.peer_lost(peer, reason)
        if self.on_peer_lost is not None:
            self.on_peer_lost(peer, reason)

    def _accept_loop(self, node_id: NodeId, server: socket.socket) -> None:
        while True:
            try:
                conn, _peer = server.accept()
            except OSError:
                return  # server closed: shutting down
            with self._accepted_lock:
                self._accepted.append(conn)
            thread = threading.Thread(
                target=self._reader_loop,
                args=(node_id, conn),
                name=f"repro-tcp-reader-{node_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _reader_loop(self, node_id: NodeId, conn: socket.socket) -> None:
        handler = self._handlers[node_id]
        peer: NodeId = -1
        while True:
            try:
                payload = _recv_frame(conn)
            except OSError as exc:
                self._peer_lost(node_id, conn, peer, f"socket error: {exc}")
                return
            except SimulationError as exc:
                # Oversized frame: the stream is garbage from here on.
                self._peer_lost(node_id, conn, peer, str(exc))
                return
            if payload is None:
                self._peer_lost(node_id, conn, peer, "peer disconnected")
                return
            if self.obs is not None:
                self.obs.wire_received(node_id, _HEADER.size + len(payload))
            try:
                sender, message = pickle.loads(payload)
            except Exception as exc:
                # A corrupt frame poisons the whole stream (framing can
                # no longer be trusted); drop the connection and let the
                # peer reconnect lazily.
                self._peer_lost(node_id, conn, peer, f"corrupt frame: {exc}")
                return
            peer = sender
            tracer = self.tracer
            if tracer is None:
                replies = handler(message)
                if replies:
                    self.send(node_id, replies)
                continue
            tracer.delivered(node_id, message)
            tracer.begin_delivery(node_id, message)
            try:
                replies = handler(message)
                if replies:
                    self.send(node_id, replies)
            finally:
                tracer.end_delivery(node_id)
