"""Per-agent state machine for distributed arc-consistency.

Each iteration k an agent sends the current domains of its shared variables
to its neighbors, as (var, lo, hi) triples of ints sorted by var;
it waits until every neighbor's iteration-k domains have arrived, writes
their bounds into its ghost slots (one per peer variable its external
constraints read, after its own variables), then runs one ascending sweep,
the solver's sweep_once(), over its own variables.  The sweep is charged
one constraint check per arc of each own variable, ghost arcs included,
as if it re-read them all; it re-evaluates only the variables flagged
stale, those with an own variable or ghost slot among their sources that
moved since their last evaluation, which gives the same bounds.  All flags
start set, and a ghost slot flags its readers when a sync rewrites it
with a new value.  If the sweep changed nothing the agent is quiescent and
joins the termination round for k; otherwise it moves straight to k+1, and
the fresh domain message doubles as the signal that wakes quiescent
neighbors out of their round.

Termination is detected over the spanning tree from the setup wave: the
root polls its children with an iteration-tagged inquiry, the inquiry
fans out to the leaves, feedback aggregates back up, and a root that has
its whole tree quiescent at the same k broadcasts the consistent verdict.
An agent whose domain empties, or whose sweep budget (component variables
plus one) runs out, broadcasts inconsistency instead; broadcasting before
returning keeps the rest of the system from waiting on a silent agent.
Broadcasts flood the agent graph.  The first copy an agent receives
finishes it, and the runtime delivers nothing to a finished agent, so
later copies are never processed.

State transitions are pure functions of (state, message).  Domain syncs
wait in an inbox keyed by iteration, one entry per neighbor, until the
sweep that reads them pops the iteration; an inquiry that arrives before
the sweep it asks about is remembered by a flag until that sweep ends.
Anything genuinely impossible, a second sync from one neighbor or a second
inquiry for one iteration included, raises ProtocolError with a state dump;
so does a sync whose variables are not exactly the ones the receiver reads
from its sender, in order, or whose triples are not three ints.

An agent builds no Interval on the sync path: it keeps int bounds, sends
them as they are, and reuses the triple (and the payload) it sent last
while a domain has not moved.  A run of agents makes no reference cycles,
which is why run_simulation may pause the cyclic garbage collector over it.

Cost is counted in non-concurrent constraint checks (NCCC) with Lamport
clocks, and the rule lives here, not in the runtime: an agent ticks its
own clock once per constraint check, every outbound message carries the
sender's clock, and a message arrives at that clock plus the run's
latency.  The receiver's clock rises to max(own, arrival) when the
message is delivered, except for a domain sync, whose arrival is absorbed
when the agent consumes it: at the sweep that pops its iteration, or at
once when it wakes the agent from a termination round.  The run's NCCC is
the largest final clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable

from .errors import ProtocolError, ValidationError
from .intervals import Interval, interval
from .mastn import AgentView, Mastn, agent_view
from .sim import (
    ARC_CONSISTENT,
    DOMAIN_SYNC,
    FEEDBACK,
    INCONSISTENT,
    INQUIRY,
    KEEP_LOG,
    AgentMessage,
    MessageLog,
    MsgKind,
    Observer,
    Payload,
    TreeInfo,
    echo_setup,
    payload_vars,
    run_simulation,
)
from .solver import build_arcs, sweep_once


class Phase(Enum):
    AWAIT_SYNC = "AwaitSync"
    AWAIT_TERMINATION = "AwaitTermination"
    DONE = "Done"


# Phase's members bound once, for the reason sim.py gives for MsgKind's
AWAIT_SYNC, AWAIT_TERMINATION, DONE = Phase


class SolverAgent:
    """One agent's protocol engine; driven by run_simulation."""

    def __init__(self, view: AgentView, tree: TreeInfo, latency: int):
        self.agent_id = view.agent_id
        self.view = view
        self.tree = tree
        self.latency = latency
        self.max_k = tree.n_total  # sweep budget: component variables + zero point
        # per iteration at most one sync per neighbor, one inquiry per child
        # and one feedback; per run at most one broadcast copy per neighbor,
        # since the first copy finishes the agent.  A second sync or inquiry
        # for one iteration raises ProtocolError, so this bound holds.
        deg = len(view.neighbors)
        self.max_sends = self.max_k * (deg + len(tree.children) + 1) + deg
        self.clock = 0
        self.checks = 0
        self.done = False
        self.result: str | None = None
        self.k = 0
        self.phase = AWAIT_SYNC

        stn = view.stn
        n = self._n = stn.n
        # peer variable (agent, var) -> its ghost slot; sorted keys keep each
        # variable's arcs in the order local neighbors, then peers by key
        ghosts = {key: n + i for i, key in enumerate(view.external_vars)}
        self._lo = [stn.domain(v).lo for v in range(n)] + [0] * len(ghosts)
        self._hi = [stn.domain(v).hi for v in range(n)] + [0] * len(ghosts)
        ext = ((e.local_var, ghosts[(e.peer_agent, e.peer_var)], e.ivl) for e in view.externals)
        arcs = build_arcs(n + len(ghosts), chain(stn.pairs(), ext))
        self._arcs = arcs[:n]
        # a ghost slot's arc list comes from the own variables that read it:
        # a sync that moves the slot flags them stale.  A sweep re-evaluates
        # only stale variables; every slot is flagged before the first.
        self._ghost_arcs = arcs[n:]
        self._stale = [True] * len(arcs)
        # neighbor -> (the variables of its that this agent reads, ascending,
        # and their ghost slots, aligned): a sync from it must carry exactly
        # these variables, in this order, and _sweep writes its bounds by position
        self._reads = {}
        for j in view.neighbors:
            read = tuple(w for i, w in view.external_vars if i == j)
            self._reads[j] = (read, tuple(ghosts[(j, w)] for w in read))
        # shared variable -> its (var, lo, hi) triple as last sent, and
        # neighbor -> the payload last sent; _advance rebuilds a triple only
        # when the sweep before it moved its bounds, and a payload only when
        # one of its triples was rebuilt, so unchanged domains go out as
        # shared objects
        self._sent = {v: (v, self._lo[v], self._hi[v]) for v in view.shared_vars}
        self._payloads = {j: self._payload(j) for j in view.neighbors}

        # k -> {neighbor: (arrival stamp, its ghost slots, payload)}
        self._inbox: dict[int, dict[int, tuple[int, tuple[int, ...], Payload]]] = {}
        self._changed = n  # domains changed by the last sweep
        self._inquiry_seen = False  # the parent's inquiry about k has arrived
        self._feedback_pending: set[int] = set()
        self._out: list[AgentMessage] = []

    # -- runtime protocol --------------------------------------------

    def on_start(self) -> list[AgentMessage]:
        self._advance()
        self._pump()
        return self._drain()

    def on_message(self, msg: AgentMessage) -> list[AgentMessage]:
        kind = msg.kind
        arrival = msg.clock + self.latency
        if kind is DOMAIN_SYNC:
            self._on_sync(msg, arrival)
            return self._drain()
        # every other kind is consumed now, so its arrival lands on the clock now
        if arrival > self.clock:
            self.clock = arrival
        if kind is INQUIRY:
            self._on_inquiry(msg)
        elif kind is FEEDBACK:
            self._on_feedback(msg)
        elif kind is ARC_CONSISTENT:
            self._on_arc_consistent(msg)
        elif kind is INCONSISTENT:
            self._on_inconsistent(msg)
        else:
            self._fail(f"unexpected {kind.value} during the solve run")
        return self._drain()

    def domains(self) -> tuple[Interval, ...]:
        return tuple(interval(self._lo[v], self._hi[v]) for v in range(self._n))

    # -- message handlers -------------------------------------------

    def _on_sync(self, msg: AgentMessage, arrival: int) -> None:
        reads = self._reads.get(msg.sender)
        if reads is None or payload_vars(msg.domains) != reads[0]:
            self._fail(f"malformed domain sync from {msg.sender}")
        if self.phase is AWAIT_TERMINATION and msg.k != self.k + 1:
            self._fail(f"domain sync for iteration {msg.k} while waiting at {self.k}")
        if self.phase is AWAIT_SYNC and msg.k not in (self.k, self.k + 1):
            self._fail(f"domain sync for iteration {msg.k} while at {self.k}")
        if self.phase is DONE:
            self._fail(f"domain sync in phase {self.phase.value}")
        syncs = self._inbox.setdefault(msg.k, {})
        if msg.sender in syncs:
            self._fail(f"second domain sync from {msg.sender} for iteration {msg.k}")
        syncs[msg.sender] = (arrival, reads[1], msg.domains)
        if self.phase is AWAIT_TERMINATION:
            # a neighbor moved on, so iteration k is not globally quiescent;
            # abandon the round and join the next iteration.  This consumes
            # the message, so its stamp lands on the clock now.
            if arrival > self.clock:
                self.clock = arrival
            self._advance()
        self._pump()

    def _on_inquiry(self, msg: AgentMessage) -> None:
        if msg.sender != self.tree.parent:
            self._fail(f"inquiry from non-parent {msg.sender}")
        if msg.k < self.k:
            return  # a stale round, superseded by a later iteration
        if msg.k > self.k:
            self._fail(f"inquiry for future iteration {msg.k}")
        if self._inquiry_seen:
            self._fail(f"duplicate inquiry for iteration {msg.k}")
        self._inquiry_seen = True
        if self.phase is AWAIT_TERMINATION:
            self._poll()
        elif self.phase is not AWAIT_SYNC:  # in AwaitSync, k's sweep answers it
            self._fail(f"inquiry in phase {self.phase.value}")

    def _on_feedback(self, msg: AgentMessage) -> None:
        if msg.sender not in self.tree.children:
            self._fail(f"feedback from non-child {msg.sender}")
        if msg.k < self.k:
            return  # feedback of an abandoned round
        if msg.k > self.k or self.phase is not AWAIT_TERMINATION:
            self._fail(f"feedback for iteration {msg.k} in phase {self.phase.value}")
        if msg.sender not in self._feedback_pending:
            self._fail(f"duplicate feedback from {msg.sender}")
        self._feedback_pending.discard(msg.sender)
        if self._feedback_pending:
            return
        if self.tree.parent is not None and not self._inquiry_seen:
            self._fail("feedback complete before the inquiry arrived")
        self._answer()

    def _on_arc_consistent(self, msg: AgentMessage) -> None:
        self._broadcast(msg.kind, msg.k, msg.origin, msg.sender)
        # the verdict can only fire when the whole component is quiescent at
        # the same iteration; anything else is a protocol bug
        if msg.k != self.k or self.phase is not AWAIT_TERMINATION:
            self._fail(f"consistent verdict for iteration {msg.k}")
        self._finish("consistent")

    def _on_inconsistent(self, msg: AgentMessage) -> None:
        self._broadcast(msg.kind, msg.k, msg.origin, msg.sender)
        self._finish("inconsistent")

    # -- iteration machinery -----------------------------------------

    def _advance(self, moved: Iterable[int] = ()) -> None:
        """Enter the next iteration, or give up when the budget is spent.

        `moved` lists the own variables that the sweep since the last
        _advance moved.  At most one sweep runs between two calls, and
        bounds only tighten, so these are the variables whose bounds differ
        from the triples last sent.

        A network that still changes after a sweep per vertex has no
        solution, and the verdict is broadcast so no neighbor is left
        waiting on this agent's next domain sync.
        """
        if self.k + 1 > self.max_k:
            self._conclude("inconsistent")
            return
        self.k += 1
        self._inquiry_seen = False
        lo = self._lo
        hi = self._hi
        sent = self._sent
        resent = sent.keys() & moved  # the shared variables that moved
        for v in resent:
            sent[v] = (v, lo[v], hi[v])
        payloads = self._payloads
        for j in self.view.neighbors:
            if not resent.isdisjoint(self.view.shared_with[j]):
                payloads[j] = self._payload(j)
            # built positionally: keyword arguments cost more, once per sync
            self._out.append(
                AgentMessage(DOMAIN_SYNC, self.agent_id, j, self.clock, self.k, payloads[j])
            )
        self.phase = AWAIT_SYNC

    def _payload(self, j: int) -> Payload:
        """The triples neighbor j reads, as last sent and sorted by var: a
        new tuple each call, sharing the triples themselves."""
        sent = self._sent
        return tuple([sent[v] for v in self.view.shared_with[j]])

    def _pump(self) -> None:
        """Sweep as long as every neighbor's sync for the iteration is here."""
        n_neighbors = len(self.view.neighbors)
        while self.phase is AWAIT_SYNC and len(self._inbox.get(self.k, ())) == n_neighbors:
            self._sweep()

    def _sweep(self) -> None:
        lo = self._lo
        hi = self._hi
        ghost_arcs = self._ghost_arcs
        stale = self._stale
        n = self._n
        syncs = self._inbox.pop(self.k, {})  # an agent without neighbors has none
        for stamp, slots, payload in syncs.values():
            if stamp > self.clock:  # receiving the awaited domains
                self.clock = stamp
            for slot, (_, slo, shi) in zip(slots, payload):
                if slo != lo[slot] or shi != hi[slot]:
                    lo[slot] = slo
                    hi[slot] = shi
                    for v, _, _, _ in ghost_arcs[slot - n]:
                        stale[v] = True
        moved, emptied, checks = sweep_once(self._arcs, lo, hi, stale)
        self._changed = len(moved)
        self.clock += checks
        self.checks += checks
        if emptied is not None:
            self._conclude("inconsistent")
            return
        if moved:
            # the not-quiescent signal is indirect: moving on and sending the
            # next domain sync is what wakes waiting neighbors
            self._advance(moved)
            return
        if self.k + 1 in self._inbox:
            # a neighbor already moved past k, so this round can never
            # complete; its buffered sync plays the role a late-arriving one
            # would have played and sends this agent straight to k+1
            self._advance()
            return
        self.phase = AWAIT_TERMINATION
        self._feedback_pending = set(self.tree.children)
        if self.tree.parent is None or self._inquiry_seen:
            self._poll()

    def _poll(self) -> None:
        """Quiescent at k and asked (the root asks itself): ask the children, or answer."""
        if self.tree.children:
            for child in self.tree.children:
                self._emit(INQUIRY, child, k=self.k)
        else:
            self._answer()

    def _answer(self) -> None:
        """The subtree is quiescent at k: feed back, or conclude at the root
        (a childless root has no neighbors: the root's probes leave first)."""
        if self.tree.parent is None:
            self._conclude("consistent")
        else:
            self._emit(FEEDBACK, self.tree.parent, k=self.k)

    def _conclude(self, verdict: str) -> None:
        """Broadcast this agent's own verdict, then finish."""
        if verdict == "consistent":
            self._broadcast(ARC_CONSISTENT, self.k, self.agent_id)
        else:
            self._broadcast(INCONSISTENT, None, self.agent_id)
        self._finish(verdict)

    # -- plumbing ------------------------------------------------------

    def _emit(self, kind: MsgKind, receiver: int, **fields) -> None:
        self._out.append(
            AgentMessage(kind, self.agent_id, receiver, clock=self.clock, **fields)
        )

    def _broadcast(
        self, kind: MsgKind, k: int | None, origin: int, sender: int | None = None
    ) -> None:
        """Send a broadcast copy to every neighbor but the one it came from."""
        for j in self.view.neighbors:
            if j != sender:
                self._emit(kind, j, k=k, origin=origin)

    def _finish(self, verdict: str) -> None:
        self.done = True
        self.result = verdict
        self.phase = DONE

    def _drain(self) -> list[AgentMessage]:
        out = self._out
        self._out = []
        return out

    def _fail(self, reason: str) -> None:
        raise ProtocolError(
            f"agent {self.agent_id}: {reason} "
            f"(phase={self.phase.value}, k={self.k}, q={self._n - self._changed}/{self._n})"
        )


@dataclass(frozen=True)
class SimConfig:
    scheduler_seed: int = 0
    latency: int = 0

    def __post_init__(self):
        for name in ("scheduler_seed", "latency"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if self.latency < 0:
            raise ValidationError("latency must be non-negative")


@dataclass
class DistributedRun:
    """Everything a distributed solve produces."""

    verdict: str
    agent_domains: list[tuple[Interval, ...]] | None
    iterations: int
    checks: int
    nccc: int
    messages: int
    setup_messages: int
    histogram: dict[str, int]
    # the delivered messages, setup waves' first, read by step as LogEntry
    # items; kept only under the default observer
    log: MessageLog | None
    agent_checks: list[int]


def solve_distributed(
    m: Mastn, cfg: SimConfig | None = None, observe: Observer | None = KEEP_LOG
) -> DistributedRun:
    """Run the full protocol: setup wave per component, then the solve run.

    Setup reads only the agent views: a wave starts at each agent no
    earlier wave reached, in ascending id, so each component's root is its
    lowest id.  On consistent input the per-agent domains equal the
    centralized closure of the flattened network; on inconsistent input
    every agent of the affected component reports the inconsistent verdict.
    Disconnected agent graphs run one protocol instance per component inside
    the same simulation; the overall verdict is inconsistent when any is.

    `observe` sees every message as run_simulation hands it over: the setup
    waves' first, as steps 1..setup_messages, then the solve run's.  The
    default keeps them all in `log`, a MessageLog whose item i is step
    i + 1; an observer of the caller's own (an online PrivacyAuditor, say)
    or None leaves `log` None.  Every count is the same whatever observes
    the run.
    """
    if cfg is None:
        cfg = SimConfig()
    m.domains()  # a variable without a domain fails here, before any agent is built
    views = [agent_view(m, i) for i in range(m.p)]
    neighbors = [view.neighbors for view in views]
    sizes = [view.stn.n for view in views]
    trees: dict[int, TreeInfo] = {}
    setup_msgs: list[AgentMessage] = []
    for root in range(m.p):
        if root not in trees:
            tree, delivered = echo_setup(root, neighbors, sizes)
            trees.update(tree)
            setup_msgs.extend(delivered)
    agents = [SolverAgent(views[i], trees[i], cfg.latency) for i in range(m.p)]
    report = run_simulation(agents, cfg.scheduler_seed, observe, setup_msgs)

    verdict = "inconsistent" if any(a.result == "inconsistent" for a in agents) else "consistent"
    agent_domains = [a.domains() for a in agents] if verdict == "consistent" else None
    return DistributedRun(
        verdict=verdict,
        agent_domains=agent_domains,
        iterations=max((a.k for a in agents), default=0),
        checks=sum(a.checks for a in agents),
        nccc=max((a.clock for a in agents), default=0),
        messages=len(setup_msgs) + report.steps,
        setup_messages=len(setup_msgs),
        histogram=report.histogram,
        log=report.log,
        agent_checks=[a.checks for a in agents],
    )
