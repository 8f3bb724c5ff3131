"""Exhaustive small-configuration exploration: one search kernel, one world.

The stochastic simulator samples one interleaving per seed; this module
checks *every* interleaving of a small scenario.  It has two halves:

* :func:`explore` — the **kernel**: a depth-first search over *worlds*
  with state-hash deduplication, a state budget and, on a violation, the
  trace of moves that led to it.  It knows no protocol: a world supplies
  ``moves()``, ``signature()``, ``clone()`` and ``check_terminal()``.
* :class:`ProtocolWorld` — the **bare-protocol world**: one
  :class:`~repro.core.contract.AutomatonSpace` per node over per-pair
  FIFO channels (matching the transports), driven by per-node scripts of
  *operations* — ``(lock, mode[, upgrade])`` steps acquired in order and
  released in reverse, the way the protocol is used (§3.1); a single-lock
  scenario is a script of one-step operations.  A :class:`Protocol`
  adapter (:func:`hierarchical`, :data:`NAIMI`, :func:`raymond`) is all
  it must be told about a protocol.

Checked in every reachable state: a grant goes to the node that asked,
for what it asked, and concurrent holds of one lock are pairwise
compatible (Rule 1).  In every terminal state: every operation finished
and released (no deadlock across locks, nobody starved) and each lock
passes its family's quiescent invariants
(:mod:`repro.verification.invariants`) — the function the simulated
clusters assert after a run.

**The state abstraction** — what :meth:`ProtocolWorld.signature` hashes —
is declared here and nowhere else.  An automaton is identified by its
whole ``flight_state()`` unless the adapter says otherwise (Naimi and
Raymond have nothing to project away).  The hierarchical automaton is
identified by :func:`hierarchical_state` and a message by
:data:`MESSAGE_FIELDS`, which project away Lamport timestamps and clocks,
request serials and priorities, the attachment epochs *inside* automata
(``attach_seq``, ``child_seqs``) and a token message's carried queue and
previous-owner fields.  Those values come from a process-wide counter
and from how many events a node has seen, so they differ between two
paths to an otherwise equal state: hashing them exactly was measured to
multiply the search 2.6–355× on twelve scenarios (``three readers``
746 → 18,427 states, ``reparenting race`` 773 → 274,540).  An
*in-flight* ``attachment_seq`` stays in: whether a release crossing a
re-grant is stale is the race class the explorer exists to cover.  The
abstraction is not a bisimulation — the first world to reach a signature
is the one expanded — so state counts depend on the (fixed) move order;
``tests/verification/test_census.py`` pins them, which makes any edit of
an automaton an every-interleaving refactor check.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from operator import methodcaller
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.contract import AutomatonSpace, LockAutomaton
from ..core.lockspace import LockSpace
from ..core.messages import Envelope, LockId, NodeId
from ..core.modes import LockMode, compatible
from ..errors import InvariantViolation, ReproError
from ..naimi.lockspace import NaimiLockSpace
from ..raymond.lockspace import RaymondLockSpace
from ..raymond.topology import Topology
from .invariants import quiescent_exclusive, quiescent_hierarchical

# ---------------------------------------------------------------------------
# The kernel.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExplorationStats:
    """Outcome of an exhaustive exploration."""

    states_explored: int
    terminal_states: int
    max_frontier: int


def _annotated(exc: ReproError, trace: Optional[tuple]) -> ReproError:
    """*exc* again, with the moves that led to it (oldest first)."""

    names = []
    while trace is not None:
        name, trace = trace
        names.append(name)
    return type(exc)(f"{exc}\ntrace:\n" + "\n".join(reversed(names)))


def explore(initial, max_states: int = 2_000_000) -> ExplorationStats:
    """Visit every world reachable from *initial*; raise on any violation.

    A world is expanded once per distinct ``signature()``: each of its
    ``moves()`` — ``(name, apply)`` pairs — is applied to a ``clone()``.
    A world without moves is terminal and must pass ``check_terminal()``.
    Any :class:`~repro.errors.ReproError` a move or a terminal check
    raises is re-raised with the trace of move names that reached it.
    """

    seen = set()
    frontier = [(initial, None)]
    states = terminals = 0
    max_frontier = 1
    while frontier:
        max_frontier = max(max_frontier, len(frontier))
        world, trace = frontier.pop()
        signature = world.signature()
        if signature in seen:
            continue
        seen.add(signature)
        states += 1
        if states > max_states:
            raise InvariantViolation(f"state-space budget exceeded ({max_states})")
        moves = world.moves()
        path = trace
        try:
            if not moves:
                terminals += 1
                world.check_terminal()
            for name, apply in moves:
                path = (name, trace)
                branch = world.clone()
                apply(branch)
                frontier.append((branch, path))
        except ReproError as exc:
            raise _annotated(exc, path) from None
    return ExplorationStats(states, terminals, max_frontier)


# ---------------------------------------------------------------------------
# The declared abstraction and the per-protocol adapters.
# ---------------------------------------------------------------------------

#: What identifies an in-flight message besides its type and its channel
#: (a message type without one of these reads ``None``).
MESSAGE_FIELDS = (
    "lock_id", "mode", "origin", "new_mode", "granted_mode", "frozen",
    "attachment_seq",
)


def message_signature(message) -> Tuple:
    return (type(message).__name__,) + tuple(
        getattr(message, name, None) for name in MESSAGE_FIELDS
    )


def hierarchical_state(automaton) -> Tuple:
    """What identifies a hierarchical automaton (see the module docstring).

    The grant memory and the token epoch are recovery-mode state —
    constant otherwise — that change how later messages are handled.
    """

    return (
        automaton.has_token,
        automaton.parent,
        frozenset(automaton.children.items()),
        frozenset(automaton.held_modes.items()),
        automaton.pending_mode,
        tuple((q.origin, q.mode, q.upgrade) for q in automaton.queued_requests),
        automaton.frozen_modes,
        automaton.recent_grant_keys,
        automaton.token_epoch,
    )


def _hashable(value):
    """A ``flight_state()`` (JSON-safe) value as nested tuples."""

    if isinstance(value, dict):
        return tuple((key, _hashable(item)) for key, item in sorted(value.items()))
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    return value


def exact_state(automaton: LockAutomaton) -> Tuple:
    """The whole encoded state: right when nothing needs projecting away."""

    return _hashable(automaton.flight_state())


@dataclasses.dataclass(frozen=True)
class Protocol:
    """What :class:`ProtocolWorld` must be told about a protocol."""

    #: ``space(node, on_grant)``: that node's lockspace, reporting each
    #: grant as ``on_grant(lock_id, mode)`` (``W`` for an exclusive lock).
    space: Callable[[NodeId, Callable], AutomatonSpace]
    #: ``request(space, lock_id, mode)`` and ``release(...)`` → envelopes.
    request: Callable[[AutomatonSpace, LockId, LockMode], List[Envelope]]
    release: Callable[[AutomatonSpace, LockId, LockMode], List[Envelope]]
    #: The family's quiescent invariants, ``(lock_id, automata)``.
    quiescent: Callable[[LockId, Mapping[NodeId, LockAutomaton]], None]
    #: Which of an automaton's state identifies a world.
    state: Callable[[LockAutomaton], Tuple] = exact_state


def hierarchical(options: ProtocolOptions = FULL_PROTOCOL) -> Protocol:
    """The paper's protocol under *options*, every token starting at node 0."""

    return Protocol(
        space=lambda node, on_grant: LockSpace(
            node,
            listener=lambda lock_id, mode, _ctx: on_grant(lock_id, mode),
            options=options,
        ),
        request=lambda space, lock_id, mode: space.request(lock_id, mode),
        release=lambda space, lock_id, mode: space.release(lock_id, mode),
        quiescent=quiescent_hierarchical,
        state=hierarchical_state,
    )


def _exclusive(space_class, token: str, *placement) -> Protocol:
    return Protocol(
        space=lambda node, on_grant: space_class(
            node,
            *placement,
            listener=lambda lock_id, _ctx: on_grant(lock_id, LockMode.W),
        ),
        request=lambda space, lock_id, _mode: space.request(lock_id),
        release=lambda space, lock_id, _mode: space.release(lock_id),
        quiescent=partial(quiescent_exclusive, token=token),
    )


#: Naimi-Tréhel, every token starting at node 0 (script every step as ``W``).
NAIMI = _exclusive(NaimiLockSpace, "token")


def raymond(topology: Topology) -> Protocol:
    """Raymond's algorithm over the static tree *topology* (steps are ``W``)."""

    return _exclusive(RaymondLockSpace, "privilege", topology)


# ---------------------------------------------------------------------------
# The bare-protocol world.
# ---------------------------------------------------------------------------

#: One operation: its steps, each ``(lock, mode)`` or ``(lock, mode,
#: upgrade)`` — with *upgrade* the node converts the granted ``U`` to
#: ``W`` (Rule 7) before it goes on.
Operation = Sequence[Tuple]


class ProtocolWorld:
    """One global state of a scripted bare-protocol scenario.

    Each node of *scripts* runs its operations one after the other —
    issue a step, await the grant, issue the next, and once the operation
    is complete release its locks leaf-first — while its issue, upgrade
    and retire points interleave freely with message deliveries.  Every
    node's automaton of every scripted lock exists from the start, so
    "untouched" and "back in its birth state" are one state.

    With ``duplicate_nth=k`` the k-th message sent (0-based, over the
    whole run) is enqueued twice — the FIFO-consistent model of a
    retransmission duplicate, which a per-pair-ordered transport delivers
    right behind the original.  Meant for ``recovery=True`` options: it
    proves the dedup layer keeps Rule 1 around any duplicate.

    A subclass adds move generators by extending :meth:`moves`; state it
    keeps in immutable attributes survives :meth:`clone` as is, and
    belongs in :meth:`signature`.
    """

    def __init__(
        self,
        protocol: Protocol,
        num_nodes: int,
        scripts: Mapping[NodeId, Sequence[Operation]],
        duplicate_nth: Optional[int] = None,
    ) -> None:
        self.protocol = protocol
        self.scripts = {
            node: [
                tuple((s[0], s[1], len(s) > 2 and bool(s[2])) for s in op)
                for op in ops
            ]
            for node, ops in scripts.items()
        }
        self.locks = sorted(
            {s[0] for ops in self.scripts.values() for op in ops for s in op}
        )
        self.duplicate_nth = duplicate_nth
        self.spaces: Dict[NodeId, AutomatonSpace] = {}
        for node in range(num_nodes):
            space = self.spaces[node] = protocol.space(
                node, partial(self.granted, node)
            )
            for lock_id in self.locks:
                space.automaton(lock_id)
        #: In-flight messages per (sender, dest), oldest first.
        self.channels: Dict[Tuple[NodeId, NodeId], List] = {}
        #: Live ``(node, lock, mode)`` holds, in grant order.
        self.holds: List[Tuple[NodeId, LockId, LockMode]] = []
        #: Per scripted node: operations finished, steps issued of the
        #: current one, and the ``(lock, mode, is_upgrade)`` it awaits.
        self.done = dict.fromkeys(self.scripts, 0)
        self.step = dict.fromkeys(self.scripts, 0)
        self.waiting: Dict[NodeId, Optional[Tuple]] = dict.fromkeys(self.scripts)
        self.sent = 0

    # -- what the kernel asks for ----------------------------------------

    def clone(self) -> "ProtocolWorld":
        """An independent copy; automata go through the contract's codec
        (build at birth, ``restore`` the encoded state)."""

        twin = object.__new__(type(self))
        vars(twin).update(vars(self))  # scripts and counters: shared or immutable
        twin.channels = {
            pair: list(msgs) for pair, msgs in self.channels.items() if msgs
        }
        twin.holds = list(self.holds)
        twin.done, twin.step = dict(self.done), dict(self.step)
        twin.waiting = dict(self.waiting)
        twin.spaces = {}
        for node, space in self.spaces.items():
            copy = twin.spaces[node] = self.protocol.space(
                node, partial(twin.granted, node)
            )
            copy.restore(space.flight_state())
        return twin

    def signature(self) -> Tuple:
        """The state abstraction (module docstring): equal signatures are
        explored once."""

        state = self.protocol.state
        return (
            tuple(
                state(space.automaton(lock_id))
                for space in self.spaces.values()
                for lock_id in self.locks
            ),
            tuple(
                (pair, tuple(map(message_signature, msgs)))
                for pair, msgs in sorted(self.channels.items())
                if msgs
            ),
            tuple(sorted((n, lock, m.value) for n, lock, m in self.holds)),
            tuple(self.done.values()),
            tuple(self.step.values()),
            tuple(self.waiting.values()),
            # Either side of the duplication point behaves differently
            # with identical automata; past it the count is immaterial.
            self.duplicate_nth is not None
            and min(self.sent, self.duplicate_nth + 1),
        )

    def moves(self) -> List[Tuple[str, Callable]]:
        """Every enabled ``(name, apply(world))``: channel heads (FIFO per
        pair), then each scripted node's one next step."""

        moves = [
            (f"deliver {pair[0]}->{pair[1]}", methodcaller("deliver", pair))
            for pair in sorted(self.channels)
            if self.channels[pair]
        ]
        for node, ops in sorted(self.scripts.items()):
            if self.waiting[node] is not None or self.done[node] == len(ops):
                continue
            op, step = ops[self.done[node]], self.step[node]
            last_lock, _mode, upgrade = op[step - 1] if step else (None, None, False)
            if upgrade and (node, last_lock, LockMode.U) in self.holds:
                move = methodcaller("upgrade", node, last_lock)
                name = f"upgrade {node}"
            elif step < len(op):
                lock_id, mode, _upgrade = op[step]
                move = methodcaller("issue", node, lock_id, mode)
                name = f"issue {node}:{lock_id}:{mode}"
            else:
                move, name = methodcaller("retire", node), f"retire {node}"
            moves.append((name, move))
        return moves

    def check_terminal(self) -> None:
        """Nothing can move: everything must be finished and settled."""

        unfinished = {
            node: f"{done}/{len(self.scripts[node])}"
            for node, done in self.done.items()
            if done < len(self.scripts[node])
        }
        if unfinished:
            raise InvariantViolation(
                f"deadlocked terminal state — operations finished per node: "
                f"{unfinished}, awaiting {self.waiting}: a request starved"
            )
        if self.holds:
            raise InvariantViolation(f"terminal state with holds {self.holds}")
        for lock_id in self.locks:
            self.protocol.quiescent(
                lock_id,
                {
                    node: space.automaton(lock_id)
                    for node, space in self.spaces.items()
                },
            )

    # -- transitions -------------------------------------------------------

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Put *envelopes* on their channels (the duplication point)."""

        for envelope in envelopes:
            channel = self.channels.setdefault((sender, envelope.dest), [])
            channel.append(envelope.message)
            if self.sent == self.duplicate_nth:
                channel.append(envelope.message)
            self.sent += 1

    def granted(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        """Grant listener of *node*: Rule 1 and "granted what was asked"."""

        asked = self.waiting.get(node)
        if asked is None or asked[:2] != (lock_id, mode):
            raise InvariantViolation(
                f"{mode} on {lock_id!r} granted to node {node}, which awaits "
                f"{asked}"
            )
        if asked[2]:  # Rule 7 completion: the U hold converts atomically.
            self.holds.remove((node, lock_id, LockMode.U))
        for holder, held_lock, held_mode in self.holds:
            if held_lock == lock_id and not compatible(held_mode, mode):
                raise InvariantViolation(
                    f"{mode} on {lock_id!r} granted to node {node} while "
                    f"node {holder} holds {held_mode}"
                )
        self.holds.append((node, lock_id, mode))
        self.waiting[node] = None

    def deliver(self, pair: Tuple[NodeId, NodeId]) -> None:
        message = self.channels[pair].pop(0)
        self.send(pair[1], self.spaces[pair[1]].handle(message))

    def issue(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        self.step[node] += 1
        self.waiting[node] = (lock_id, mode, False)
        self.send(node, self.protocol.request(self.spaces[node], lock_id, mode))

    def upgrade(self, node: NodeId, lock_id: LockId) -> None:
        self.waiting[node] = (lock_id, LockMode.W, True)
        self.send(node, self.spaces[node].upgrade(lock_id))

    def retire(self, node: NodeId) -> None:
        for hold in [h for h in reversed(self.holds) if h[0] == node]:
            self.holds.remove(hold)
            self.send(
                node, self.protocol.release(self.spaces[node], hold[1], hold[2])
            )
        self.done[node] += 1
        self.step[node] = 0


#: The lock of a single-lock scenario.
LOCK = "lock"


def explore_scenario(
    num_nodes: int,
    requests: Sequence[Tuple],
    options: ProtocolOptions = FULL_PROTOCOL,
    max_states: int = 2_000_000,
    duplicate_nth: Optional[int] = None,
) -> ExplorationStats:
    """Explore single-lock requests ``[(node, mode[, upgrade]), ...]``: each
    is a one-step operation (request → grant → [upgrade →] release)."""

    scripts: Dict[NodeId, List[Operation]] = {}
    for node, *step in requests:
        scripts.setdefault(node, []).append(((LOCK, *step),))
    world = ProtocolWorld(
        hierarchical(options), num_nodes, scripts, duplicate_nth=duplicate_nth
    )
    return explore(world, max_states)


def explore_hierarchical(
    num_nodes: int,
    scripts: Mapping[NodeId, Sequence[Operation]],
    options: ProtocolOptions = FULL_PROTOCOL,
    max_states: int = 2_000_000,
) -> ExplorationStats:
    """Explore multi-granularity operations, e.g. ``[(table, IW), (entry,
    W)]``: besides per-lock safety, that the acquisition discipline
    (ancestors first, leaf last) never deadlocks in any interleaving."""

    world = ProtocolWorld(hierarchical(options), num_nodes, scripts)
    return explore(world, max_states)
