"""Deterministic discrete-event runtime for message-passing agents.

Delivery order is drawn from a seeded stream over the set of in-flight
messages, so runs are reproducible while still exercising interleavings.
The runtime keeps no time: it hands each message over exactly as its
sender built it, and what an agent's clock counts is the agent's affair
(SolverAgent's NCCC rule is described in distributed.py).

An agent is any object with::

    agent_id: int
    done: bool
    max_sends: int     # most messages the agent sends over a whole run
    on_start() -> list[AgentMessage]
    on_message(msg) -> list[AgentMessage]

The runtime keeps nothing.  Its one contract with a watcher: an optional
observer, any callable, is called with each delivered AgentMessage, in step
order.  A step is a delivery's position, counted from 1 over the whole run,
so an observer that needs steps counts its calls.  Keeping the message log
is one such observer, a list's append: a MessageLog holds those messages,
the log that `dump_log` prints and `audit_privacy` judges, and no entry
object per delivery.  The online privacy auditor is another, and a run
without an observer holds no message once its receiver has handled it.
The runtime reports a deadlock (all blocked, nothing in flight) or a runaway
(more deliveries than the agents' max_sends add up to) as errors that valid
protocols never trigger.

A domain sync carries (var, lo, hi) triples of ints, not Interval objects,
so the cyclic garbage collector can stop tracking a kept payload.  Each var
is one of the sender's own variables: the message's sender names the agent.
A run makes no reference cycles, and run_simulation pauses that collector
while it delivers, so a long run's kept log is not walked over and over by
collections that can free nothing.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Callable, Sequence

from .errors import DeadlockError, RunawayError, ValidationError
from .mastn import Mastn
from .rng import SplitMix64


class MsgKind(Enum):
    DOMAIN_SYNC = "DomainSync"
    INCONSISTENT = "Inconsistent"
    INQUIRY = "Inquiry"
    FEEDBACK = "Feedback"
    ARC_CONSISTENT = "ArcConsistent"
    ECHO_PROBE = "EchoProbe"
    ECHO_REPLY = "EchoReply"


# members bound once: reading one through its Enum class runs the
# metaclass's attribute hook, which code run per message would pay each time
DOMAIN_SYNC, INCONSISTENT, INQUIRY, FEEDBACK, ARC_CONSISTENT, ECHO_PROBE, ECHO_REPLY = MsgKind


# a domain sync's payload: (var, lo, hi) triples over the sender's own
# variables, sorted by var.  An agent only sends a finite, non-empty domain, so
# both bounds are ints, and a payload is tuples of ints two levels deep, which
# the cyclic collector untracks in two collections
Payload = tuple[tuple[int, int, int], ...]


def payload_vars(payload: object) -> tuple[int, ...] | None:
    """A payload's variables in order, or None unless it is a tuple of
    (var, lo, hi) triples of ints (a bool is not one)."""
    if type(payload) is not tuple:
        return None
    variables = []
    for triple in payload:
        if type(triple) is not tuple or len(triple) != 3:
            return None
        var, lo, hi = triple
        if type(var) is not int or type(lo) is not int or type(hi) is not int:
            return None
        variables.append(var)
    return tuple(variables)


@dataclass(slots=True)
class AgentMessage:
    """One protocol message.

    `domains` is a domain sync's Payload: one (var, lo, hi) triple per
    variable of the sender that the receiver reads, sorted by var.  A tuple
    cannot change once sent, so a sender may hand one payload, and the
    triples in it, to several messages.
    `origin` names the agent that started a broadcast; forwarded copies
    keep it.
    """

    kind: MsgKind
    sender: int
    receiver: int
    clock: int = 0
    k: int | None = None
    domains: Payload | None = None
    subtree_agents: int | None = None
    subtree_vars: int | None = None
    origin: int | None = None


@dataclass(frozen=True, slots=True)
class LogEntry:
    step: int
    message: AgentMessage


class MessageLog:
    """A run's kept deliveries: its messages in step order, numbered from 1.

    Iteration yields LogEntry(i + 1, messages[i]), each built as it is read,
    so the log holds one reference per delivery and no entry object.
    """

    __slots__ = ("messages",)

    def __init__(self, messages: list[AgentMessage]):
        self.messages = messages

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return map(LogEntry, count(1), self.messages)


Observer = Callable[[AgentMessage], None]


@dataclass
class SimReport:
    histogram: dict[str, int]
    steps: int


def run_simulation(
    agents: list,
    scheduler_seed: int,
    observe: Observer | None = None,
    prior: Sequence[AgentMessage] = (),
) -> SimReport:
    """Drive the agents until all terminate; returns the run's metrics.

    `prior` holds messages delivered before this run, such as a setup
    wave's: they take steps 1..len(prior), in order, and this run's
    deliveries are numbered on from there.  `observe`, unless None, is
    called with every prior message and then with each delivered one, in
    step order, the moment it is delivered; the runtime keeps none of them.

    The histogram counts the prior messages and each delivery as it is
    made.  `steps` counts only this run's deliveries, and so does the step
    budget: the sum of the agents' `max_sends`, since every delivery is a
    message some agent sent.  Exceeding it means an agent broke its own
    bound.

    Contract: no message is delivered to an agent whose `done` is set; the
    step is observed and counted, but on_message is not called.

    The cyclic garbage collector is paused from the first on_start to the
    last delivery, and the caller's setting (gc.isenabled()) comes back
    however the run ends, as timeit does it.  A run makes no reference
    cycles: messages, their int-only payloads and the kept log are trees
    that reference counting frees, so the collections that allocation would
    trigger, each walking a kept log, could only find nothing.  No
    collection is forced afterwards; an observer's own cycles, if it makes
    any, wait for the next one.
    """
    by_id = {}
    for a in agents:
        if a.agent_id in by_id:
            raise ValidationError(f"duplicate agent id {a.agent_id}")
        by_id[a.agent_id] = a
    budget = sum(a.max_sends for a in agents)
    rng = SplitMix64(scheduler_seed)
    pending: list[AgentMessage] = []

    def enqueue(msgs: list[AgentMessage]) -> None:
        for msg in msgs:
            if msg.receiver not in by_id:
                raise ValidationError(f"message to unknown agent {msg.receiver}")
            pending.append(msg)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for a in sorted(agents, key=lambda a: a.agent_id):
            enqueue(a.on_start())

        # keyed by the kind's plain value attribute: hashing a member or reading
        # its value property costs a Python-level call per delivery
        histogram: dict[str, int] = {}
        for msg in prior:
            if observe is not None:
                observe(msg)
            kind = msg.kind._value_
            histogram[kind] = histogram.get(kind, 0) + 1
        step = 0
        while True:
            if not pending:
                blocked = {a.agent_id: _describe(a) for a in agents if not a.done}
                if not blocked:
                    break
                raise DeadlockError(blocked)
            idx = rng.randbelow(len(pending))
            msg = pending.pop(idx)
            step += 1
            if step > budget:
                raise RunawayError(f"exceeded the {budget} delivery steps the agents declared")
            if observe is not None:
                observe(msg)
            kind = msg.kind._value_
            histogram[kind] = histogram.get(kind, 0) + 1
            agent = by_id[msg.receiver]
            if agent.done:
                continue
            enqueue(agent.on_message(msg))
    finally:
        if gc_was_enabled:
            gc.enable()

    return SimReport(histogram=histogram, steps=step)


def _describe(agent) -> str:
    return f"phase={getattr(agent, 'phase', None)} k={getattr(agent, 'k', None)}"


# -- spanning-tree setup -----------------------------------------------


@dataclass(frozen=True)
class TreeInfo:
    """What one agent learns from the setup wave; the root's parent is None."""

    parent: int | None
    children: tuple[int, ...]
    n_total: int  # component variable count plus one for the zero point


def echo_setup(
    root: int, neighbors: Sequence[Sequence[int]], sizes: Sequence[int]
) -> tuple[dict[int, TreeInfo], list[AgentMessage]]:
    """Build a rooted spanning tree of root's component with a probe wave.

    Each agent i acts on its own view only: its agent-graph neighbors
    `neighbors[i]` and its variable count `sizes[i]`.  Probes fan out from
    the root in FIFO order, so each agent adopts as parent its first
    prober, which is its lowest-id neighbor one hop closer to the root: a
    breadth-first tree.  Once an agent has a parent and has heard from
    every neighbor it replies to its parent with its subtree's agent and
    variable totals; the root's total, plus one for the zero time point,
    becomes everyone's n_total.  Returns the tree, keyed by the agents the
    wave reached (root's component; a lone root sends nothing), and the
    delivered messages in delivery order.

    Setup messages never touch the logical clocks: no constraint checks have
    happened yet, and their cost is reported separately from the solve run.
    """
    parent: dict[int, int | None] = {}
    # each neighbor sends i exactly one message, a probe or a reply, so i
    # replies once and last, when it has heard from all of them
    unheard: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    agg_agents: dict[int, int] = {}
    agg_vars: dict[int, int] = {}
    delivered: list[AgentMessage] = []
    queue: deque[AgentMessage] = deque()

    def join(i: int, p: int | None) -> None:
        """Agent i adopts parent p and probes its other neighbors."""
        parent[i] = p
        unheard[i] = len(neighbors[i])
        children[i] = []
        agg_agents[i] = 1
        agg_vars[i] = sizes[i]
        for j in neighbors[i]:
            if j != p:
                queue.append(AgentMessage(ECHO_PROBE, i, j))

    join(root, None)
    while queue:
        msg = queue.popleft()
        delivered.append(msg)
        i = msg.receiver
        if msg.kind is ECHO_PROBE:
            if i not in parent:
                join(i, msg.sender)
        else:
            children[i].append(msg.sender)
            agg_agents[i] += msg.subtree_agents
            agg_vars[i] += msg.subtree_vars
        unheard[i] -= 1
        if not unheard[i] and parent[i] is not None:  # the root has no parent
            queue.append(
                AgentMessage(
                    ECHO_REPLY,
                    i,
                    parent[i],
                    subtree_agents=agg_agents[i],
                    subtree_vars=agg_vars[i],
                )
            )

    n_total = agg_vars[root] + 1
    tree = {
        i: TreeInfo(parent=p, children=tuple(sorted(children[i])), n_total=n_total)
        for i, p in parent.items()
    }
    return tree, delivered


# -- privacy audit -----------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    offender: LogEntry | None = None
    reason: str | None = None


class PrivacyAuditor:
    """The privacy audit as an observer: judges one delivered message at a time.

    The contract is judged per agent edge: a domain synchronization from
    agent i to agent j may name only i's variables on the external
    constraints between i and j, the variables j reads.  A message fails
    the audit when it travels between agents that are not agent-graph
    neighbors, when a domain synchronization's payload is not a tuple of
    (var, lo, hi) triples of ints or names any other variable (a payload's
    variables are its sender's own), or when any other message carries
    interval payloads.
    Agent edges and what each side reads are taken from the external
    constraints themselves, not from the agent views that decide what
    agents send.
    The setup wave discloses counts, not intervals: its echo replies carry
    subtree agent and variable totals, and every agent learns n_total, its
    component's variable count with the private variables included.
    Called with each delivered message, in step order, the auditor counts
    its calls as the steps, the first call being step 1, and keeps only the
    first failing message; `result` reports it as a LogEntry.
    """

    def __init__(self, m: Mastn):
        # (sender, receiver) -> the sender's variables on the external
        # constraints between the two; its keys are the agent edges
        self._shared: dict[tuple[int, int], set[int]] = {}
        for ext in m.external_constraints():
            self._shared.setdefault((ext.i, ext.j), set()).add(ext.v)
            self._shared.setdefault((ext.j, ext.i), set()).add(ext.w)
        self.result = AuditResult(True)
        self._step = 0

    def __call__(self, msg: AgentMessage) -> None:
        self._step += 1
        if self.result.ok:
            reason = self.judge(msg)
            if reason is not None:
                self.result = AuditResult(False, LogEntry(self._step, msg), reason)

    def judge(self, msg: AgentMessage) -> str | None:
        """Why msg breaks the contract, or None when it keeps it."""
        shared = self._shared.get((msg.sender, msg.receiver))
        if shared is None:
            return "message between non-neighbor agents"
        kind = msg.kind
        if kind is DOMAIN_SYNC:
            domains = msg.domains
            if domains is None:
                return "domain sync without a payload"
            variables = payload_vars(domains)
            if variables is None:
                return "payload is not a tuple of (variable, lo, hi) triples"
            if not shared.issuperset(variables):
                return "payload names a private variable"
        elif kind is ECHO_REPLY:
            if msg.domains is not None:
                return "echo reply carries intervals"
        elif msg.domains is not None:
            return "interval payload outside domain sync"
        return None


def audit_privacy(log: MessageLog, m: Mastn) -> AuditResult:
    """PrivacyAuditor's verdict on a kept log; stops at the first offender."""
    judge = PrivacyAuditor(m).judge
    for step, msg in enumerate(log.messages, 1):
        reason = judge(msg)
        if reason is not None:
            return AuditResult(False, LogEntry(step, msg), reason)
    return AuditResult(True)


# -- log dump ----------------------------------------------------------


def log_line(step: int, msg: AgentMessage) -> str:
    """One delivery's line, newline included: step clock sender receiver kind
    payload, tab-separated; the payload lists the message's set fields, or is -."""
    parts = []
    if msg.k is not None:
        parts.append(f"k={msg.k}")
    if msg.origin is not None:
        parts.append(f"origin={msg.origin}")
    if msg.domains is not None:
        for var, lo, hi in msg.domains:
            parts.append(f"{msg.sender}.{var}=[{lo},{hi}]")
    if msg.subtree_agents is not None:
        parts.append(f"agents={msg.subtree_agents}")
    if msg.subtree_vars is not None:
        parts.append(f"vars={msg.subtree_vars}")
    payload = " ".join(parts) if parts else "-"
    return (
        f"{step}\t{msg.clock}\t{msg.sender}\t{msg.receiver}\t"
        f"{msg.kind._value_}\t{payload}\n"
    )


# lines joined at a time by dump_log: its peak stays near twice the text's
# size, not the text plus one string object per line
DUMP_CHUNK = 1024


def dump_log(log: MessageLog) -> str:
    """The log_line of every kept delivery, in order."""
    messages = log.messages
    return "".join(
        "".join(map(log_line, count(i + 1), messages[i : i + DUMP_CHUNK]))
        for i in range(0, len(messages), DUMP_CHUNK)
    )
