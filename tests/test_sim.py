import gc
from contextlib import contextmanager
from dataclasses import astuple

import pytest

from conftest import SAMPLES
from stnac import (
    AgentMessage,
    DeadlockError,
    LogEntry,
    Mastn,
    MessageLog,
    MsgKind,
    ProtocolError,
    RunawayError,
    SimConfig,
    Stn,
    ValidationError,
    agent_view,
    gen_factory_mastn,
    interval,
    parse_mastn,
    solve_distributed,
)
from stnac.distributed import SolverAgent
from stnac.sim import (
    DUMP_CHUNK,
    PrivacyAuditor,
    TreeInfo,
    audit_privacy,
    dump_log,
    echo_setup,
    log_line,
    run_simulation,
)


class Courier:
    """Toy agent pair: bounce a countdown token, then exchange a stop.

    It keeps no `clock`: its messages carry a tick count of its own, and it
    records each message's fields as it sends it.
    """

    def __init__(self, agent_id, peer, hops=0, starter=False, work=0, max_sends=50):
        self.agent_id = agent_id
        self.peer = peer
        self.hops = hops
        self.starter = starter
        self.work = work  # ticks per token delivery
        self.max_sends = max_sends
        self.ticks = 0
        self.done = False
        self.sent = []

    def _send(self, kind, k=None):
        msg = AgentMessage(kind, self.agent_id, self.peer, clock=self.ticks, k=k)
        self.sent.append((msg, astuple(msg)))
        return [msg]

    def on_start(self):
        if self.starter:
            return self._send(MsgKind.ECHO_PROBE, self.hops)
        return []

    def on_message(self, msg):
        if msg.kind is MsgKind.ECHO_REPLY:  # the stop marker
            self.done = True
            return []
        self.ticks += self.work
        if msg.k <= 1:
            self.done = True
            return self._send(MsgKind.ECHO_REPLY)
        return self._send(MsgKind.ECHO_PROBE, msg.k - 1)


class Sleeper:
    """Never terminates, never speaks: a deadlock on purpose."""

    max_sends = 0

    def __init__(self, agent_id):
        self.agent_id = agent_id
        self.done = False

    def on_start(self):
        return []

    def on_message(self, msg):
        return []


class PingPong:
    max_sends = 25  # a promise it breaks: it never stops

    def __init__(self, agent_id, peer):
        self.agent_id = agent_id
        self.peer = peer
        self.done = False

    def on_start(self):
        return [AgentMessage(MsgKind.ECHO_PROBE, self.agent_id, self.peer)]

    def on_message(self, msg):
        return [AgentMessage(MsgKind.ECHO_PROBE, self.agent_id, self.peer)]


class OneShot:
    """Sends two messages to its peer at start; finishes on the first it gets
    and fails the test if the runtime delivers anything after that."""

    max_sends = 2

    def __init__(self, agent_id, peer):
        self.agent_id = agent_id
        self.peer = peer
        self.done = False
        self.received = []

    def on_start(self):
        kind = MsgKind.INCONSISTENT
        return [AgentMessage(kind, self.agent_id, self.peer, clock=c) for c in (3, 7)]

    def on_message(self, msg):
        if self.done:
            raise AssertionError(f"agent {self.agent_id} got {msg} after it finished")
        self.received.append(msg)
        self.done = True
        return []


def couriers(hops=6, work=0, max_sends=(50, 50)):
    return [
        Courier(0, 1, hops, starter=True, work=work, max_sends=max_sends[0]),
        Courier(1, 0, work=work, max_sends=max_sends[1]),
    ]


class TestRunSimulation:
    def test_reproducible_logs(self):
        logs = []
        for _ in range(2):
            agents = couriers()
            report = run_simulation(agents, 5)
            logs.append(dump_log(report.log))
        assert logs[0] == logs[1]

    def test_token_run_terminates(self):
        agents = couriers(hops=4, work=2)
        assert not any(hasattr(a, "clock") for a in agents)  # the runtime reads none
        report = run_simulation(agents, 0)
        assert report.steps == 5  # four token hops plus the stop
        assert len(report.log) == 5
        assert all(a.done for a in agents)

    def test_deadlock_reported_with_snapshot(self):
        with pytest.raises(DeadlockError) as err:
            run_simulation([Sleeper(0)], 0)
        assert 0 in err.value.snapshot

    def test_runaway_reported(self):
        agents = [PingPong(0, 1), PingPong(1, 0)]
        with pytest.raises(RunawayError):
            run_simulation(agents, 0)  # a budget of 2 * 25 = 50 steps

    def test_delivered_messages_are_as_sent(self):
        # the runtime keeps no time: it stamps and rewrites no field
        agents = couriers(hops=6, work=300)
        report = run_simulation(agents, 1)
        sent = {id(msg): fields for a in agents for msg, fields in a.sent}
        assert len(report.log) == len(sent) == 7
        for entry in report.log:
            assert astuple(entry.message) == sent[id(entry.message)]

    def test_prior_messages_number_steps_on(self):
        prior = [AgentMessage(MsgKind.INQUIRY, 0, 1) for _ in range(3)]
        report = run_simulation(couriers(hops=4), 0, prior=prior)
        assert report.log.messages[:3] == prior
        assert [e.step for e in report.log] == list(range(1, 9))
        assert report.steps == 5  # this run's deliveries only
        # the histogram counts the prior messages too
        assert report.histogram == {"Inquiry": 3, "EchoProbe": 4, "EchoReply": 1}

    def test_prior_messages_leave_the_step_budget_alone(self):
        prior = [AgentMessage(MsgKind.INQUIRY, 0, 1) for _ in range(60)]
        # with four hops the starter sends three messages and its peer two
        report = run_simulation(couriers(hops=4, max_sends=(3, 2)), 0, prior=prior)
        assert report.steps == 5
        assert report.log[-1].step == 65
        with pytest.raises(RunawayError):
            run_simulation(couriers(hops=4, max_sends=(3, 1)), 0)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_an_observer_sees_what_the_log_keeps(self, seed):
        prior = [AgentMessage(MsgKind.INQUIRY, 0, 1)]
        kept = run_simulation(couriers(hops=5, work=3), seed, prior=prior)
        seen = []
        observed = run_simulation(couriers(hops=5, work=3), seed, seen.append, prior)
        silent = run_simulation(couriers(hops=5, work=3), seed, None, prior)
        assert seen == list(kept.log)
        assert observed.log is None and silent.log is None
        for report in (observed, silent):
            assert (report.histogram, report.steps) == (kept.histogram, kept.steps)

    @pytest.mark.parametrize("seed", range(4))
    def test_nothing_is_delivered_to_a_done_agent(self, seed):
        # each agent finishes on its first message while the second is still
        # in flight; that one is logged and counted but never handed over
        agents = [OneShot(0, 1), OneShot(1, 0)]
        report = run_simulation(agents, seed)
        assert report.steps == len(report.log) == 4
        for a in agents:
            assert len(a.received) == 1

    @pytest.mark.parametrize(
        "agents, match",
        [
            ([Sleeper(0), Sleeper(0)], "duplicate agent id 0"),
            ([PingPong(0, 7)], "unknown agent 7"),
        ],
    )
    def test_bad_agent_set_rejected(self, agents, match):
        with pytest.raises(ValidationError, match=match):
            run_simulation(agents, 0)

    def test_empty_agent_set_runs_to_an_empty_report(self):
        report = run_simulation([], 0)
        assert (list(report.log), report.histogram, report.steps) == ([], {}, 0)

    def test_latency_must_be_non_negative(self):
        with pytest.raises(Exception):
            SimConfig(latency=-1)

    def test_single_agent_no_messages(self):
        class Instant:
            agent_id = 0
            done = False
            max_sends = 0

            def on_start(self):
                self.done = True
                return []

            def on_message(self, msg):
                return []

        report = run_simulation([Instant()], 0)
        assert report.steps == 0
        assert list(report.log) == []


@contextmanager
def gc_enabled(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


class Forger:
    """Agent 0 of a two-agent pair: sends one domain sync without a payload,
    which its SolverAgent peer rejects with a ProtocolError."""

    max_sends = 1

    def __init__(self):
        self.agent_id = 0
        self.done = False

    def on_start(self):
        return [AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1)]

    def on_message(self, msg):
        return []


def forged_pair() -> list:
    m = Mastn([Stn(1), Stn(1)])
    for a in m.agents:
        a.set_domain(0, interval(0, 10))
    m.add_external(0, 0, 1, 0, interval(-5, 5))
    return [Forger(), SolverAgent(agent_view(m, 1), TreeInfo(0, (), 3), 0)]


def raising_observer(entry):
    raise RuntimeError("observer failed")


# (agents, observer, the error run_simulation raises)
FAILING_RUNS = {
    "deadlock": (lambda: [Sleeper(0)], None, DeadlockError),
    "runaway": (lambda: [PingPong(0, 1), PingPong(1, 0)], None, RunawayError),
    "protocol": (forged_pair, None, ProtocolError),
    "unknown-receiver": (lambda: [PingPong(0, 7)], None, ValidationError),
    "observer": (couriers, raising_observer, RuntimeError),
}


class TestGcPause:
    """run_simulation pauses the cyclic collector over a run and gives the
    caller back its own setting, however the run ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_paused_during_the_run_and_restored_after(self, enabled):
        during = []
        with gc_enabled(enabled):
            report = run_simulation(couriers(), 0, lambda entry: during.append(gc.isenabled()))
            assert gc.isenabled() is enabled
        assert len(during) == report.steps > 0
        assert not any(during)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "make_agents, observe, error", FAILING_RUNS.values(), ids=FAILING_RUNS.keys()
    )
    def test_restored_after_a_failed_run(self, make_agents, observe, error, enabled):
        with gc_enabled(enabled):
            with pytest.raises(error):
                run_simulation(make_agents(), 0, observe)
            assert gc.isenabled() is enabled

    def test_a_kept_run_makes_no_reference_cycles(self):
        m = gen_factory_mastn(agents=8, tasks=40, externals=12, seed=0)
        with gc_enabled(False):
            gc.collect()
            run = solve_distributed(m, SimConfig(scheduler_seed=1))
            assert dump_log(run.log)
            assert audit_privacy(run.log, m).ok
            # nothing the run, the dump or the audit made is unreachable
            assert gc.collect() == 0

    def test_kept_payloads_are_untracked_by_the_collector(self):
        m = gen_factory_mastn(agents=8, tasks=40, externals=12, seed=0)
        run = solve_distributed(m, SimConfig(scheduler_seed=1))
        payloads = [e.message.domains for e in run.log if e.message.kind is MsgKind.DOMAIN_SYNC]
        assert payloads
        # a collection untracks a tuple only once its items are untracked, and
        # it reaches a payload before the triples in it, so each one peels one
        # level.  A triple holds only ints: the collection that the run's
        # allocations set off once run_simulation re-enables the collector
        # untracks the triples, and this one the payloads
        gc.collect()
        assert not any(gc.is_tracked(payload) for payload in payloads)


class TestEchoSetup:
    def test_ring_of_four(self):
        neighbors = [(1, 3), (0, 2), (1, 3), (0, 2)]
        tree, messages = echo_setup(0, neighbors, [2] * 4)
        assert tree[0].n_total == 9  # eight variables plus the zero point
        edges = sorted((tree[i].parent, i) for i in range(4) if tree[i].parent is not None)
        assert edges == [(0, 1), (0, 3), (1, 2)]
        assert tree[0].parent is None and tree[0].children
        assert not tree[2].children
        assert all(tree[i].n_total == 9 for i in range(4))
        assert messages  # probes and replies were exchanged

    def test_single_agent(self):
        tree, messages = echo_setup(4, {4: ()}, {4: 3})
        assert tree == {4: TreeInfo(parent=None, children=(), n_total=4)}
        assert messages == []

    def test_two_agents(self):
        tree, messages = echo_setup(0, [(1,), (0,)], [1, 2])
        assert tree[0].parent is None and tree[1].parent == 0
        assert tree[0].children == (1,)
        assert tree[0].n_total == tree[1].n_total == 4
        assert len(messages) == 2  # one probe, one reply

    def test_replies_aggregate_counts(self):
        neighbors = [(1,), (0, 2), (1,)]
        tree, messages = echo_setup(0, neighbors, [5, 7, 11])
        assert all(tree[i].n_total == 5 + 7 + 11 + 1 for i in range(3))
        reply = [m for m in messages if m.kind is MsgKind.ECHO_REPLY and m.sender == 1]
        assert reply[0].subtree_vars == 18
        assert reply[0].subtree_agents == 2

    def test_wave_covers_only_its_component(self):
        # agents 0 and 2 share an external constraint; 1 and 3 stand alone
        neighbors = [(2,), (), (0,), ()]
        tree, messages = echo_setup(0, neighbors, [1, 1, 1, 1])
        assert sorted(tree) == [0, 2]
        assert tree[0].n_total == tree[2].n_total == 3
        assert {(m.sender, m.receiver) for m in messages} == {(0, 2), (2, 0)}


# Tampered logs on interview.mastn, where agent 0's variable 0 is private:
# only its slot variables 1 and 2 appear in external constraints, and agents
# 0 and 2 sit on opposite corners of the ring.  (messages, reason, the
# offender's step)
TAMPERED = [
    (
        [AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((0, 0, 5),))],
        "payload names a private variable",
        1,
    ),
    ([AgentMessage(MsgKind.INQUIRY, 0, 2, k=1)], "message between non-neighbor agents", 1),
    (
        [AgentMessage(MsgKind.INQUIRY, 0, 1, k=1, domains=((0, 0, 5),))],
        "interval payload outside domain sync",
        1,
    ),
    ([AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1)], "domain sync without a payload", 1),
    (
        [AgentMessage(MsgKind.ECHO_REPLY, 0, 1, domains=((1, 0, 5),))],
        "echo reply carries intervals",
        1,
    ),
    # the first offender is the one reported
    (
        [
            AgentMessage(MsgKind.INQUIRY, 0, 1, k=1),
            AgentMessage(MsgKind.INQUIRY, 0, 2, k=1),
            AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1),
        ],
        "message between non-neighbor agents",
        2,
    ),
]
TAMPERED_IDS = [
    "private", "non-neighbor", "smuggled", "no-payload", "echo-intervals", "first"
]
# payloads that are not a tuple of (var, lo, hi) triples of ints, though each
# names only agent 0's shared variable 1
NOT_TRIPLES = {
    "dict": {1: (0, 5)},
    "list": [(1, 0, 5)],
    "list-triple": ([1, 0, 5],),
    "bare-key": (1,),
    "quadruple": ((1, 0, 5, None),),
    "old-key": (((0, 1), 0, 5),),
    "str-var": (("1", 0, 5),),
    "list-key": (([0, 1], 0, 5),),
    "bool-var": ((True, 0, 5),),
    "not-an-int": ((1, 0, 5.0),),
    "bool": ((1, False, True),),
    "interval": ((1, interval(0, 5), 5),),
    "old-pair": ((1, interval(0, 5)),),
}
for name, domains in NOT_TRIPLES.items():
    TAMPERED.append((
        [
            AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((1, 0, 5),)),
            AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=2, domains=domains),
        ],
        "payload is not a tuple of (variable, lo, hi) triples",
        2,
    ))
    TAMPERED_IDS.append(f"not-triples-{name}")


class TestAuditPrivacy:
    def setup_method(self):
        # in the interview problem agent 0's variable 0 is private: only its
        # slot variables 1 and 2 appear in external constraints
        self.m = parse_mastn((SAMPLES / "interview.mastn").read_text())

    def test_real_runs_pass(self):
        for seed in range(5):
            run = solve_distributed(self.m, SimConfig(scheduler_seed=seed))
            assert audit_privacy(run.log, self.m).ok

    @pytest.mark.parametrize("msgs, reason, step", TAMPERED, ids=TAMPERED_IDS)
    def test_tampered_log_fails(self, msgs, reason, step):
        result = audit_privacy(MessageLog(msgs), self.m)
        assert (result.ok, result.reason, result.offender.step) == (False, reason, step)

    @pytest.mark.parametrize("msgs, reason, step", TAMPERED, ids=TAMPERED_IDS)
    def test_online_auditor_agrees_with_the_log_audit(self, msgs, reason, step):
        log = MessageLog(msgs)
        auditor = PrivacyAuditor(self.m)
        for entry in log:
            auditor(entry)
        online, batch = auditor.result, audit_privacy(log, self.m)
        assert (online.ok, online.reason, online.offender) == (
            batch.ok, batch.reason, batch.offender
        )

    @pytest.mark.parametrize("at", [0, 17, -1])
    def test_tampered_kept_log_reports_the_true_step(self, at):
        run = solve_distributed(self.m, SimConfig(scheduler_seed=1))
        msgs = list(run.log.messages)
        at %= len(msgs)
        leak = AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((0, 0, 5),))
        msgs[at] = leak
        tampered = MessageLog(msgs)
        offender = LogEntry(at + 1, leak)
        result = audit_privacy(tampered, self.m)
        assert (result.ok, result.offender) == (False, offender)
        # the messages before the leak pass
        assert audit_privacy(MessageLog(msgs[:at]), self.m).ok

    def test_online_auditor_passes_real_runs(self):
        for seed in range(3):
            auditor = PrivacyAuditor(self.m)
            run = solve_distributed(self.m, SimConfig(scheduler_seed=seed), auditor)
            assert run.log is None
            assert auditor.result == audit_privacy(
                solve_distributed(self.m, SimConfig(scheduler_seed=seed)).log, self.m
            )
            assert auditor.result.ok


class TestDumpLog:
    def test_format(self):
        msg = AgentMessage(
            MsgKind.DOMAIN_SYNC, 2, 1, clock=7, k=3,
            domains=((0, 0, 5), (4, -1, 7)),
        )
        line = log_line(LogEntry(9, msg)).strip()
        fields = line.split("\t")
        assert fields[:5] == ["9", "7", "2", "1", "DomainSync"]
        assert fields[5] == "k=3 2.0=[0,5] 2.4=[-1,7]"
        # each bound pair prints as its Interval's str does
        assert fields[5] == f"k=3 2.0={interval(0, 5)} 2.4={interval(-1, 7)}"

    def test_empty_payload_platholder(self):
        msg = AgentMessage(MsgKind.ECHO_PROBE, 0, 1)
        assert log_line(LogEntry(1, msg)).strip().split("\t")[5] == "-"

    def test_empty_log(self):
        assert dump_log(MessageLog([])) == ""

    @pytest.mark.parametrize("latency", [0, 3])
    def test_chunks_join_to_one_line_per_entry(self, latency):
        # a factory run long enough to cross several chunks
        m = gen_factory_mastn(agents=8, tasks=80, seed=0)
        log = solve_distributed(m, SimConfig(scheduler_seed=1, latency=latency)).log
        assert len(log) > 3 * DUMP_CHUNK
        for size in (DUMP_CHUNK - 1, DUMP_CHUNK, DUMP_CHUNK + 1, len(log)):
            part = MessageLog(log.messages[:size])
            assert dump_log(part) == "".join(map(log_line, part))


class TestMessageLog:
    """A kept run's log holds its messages; item i reads as LogEntry(i + 1, msg)."""

    def setup_method(self):
        self.m = parse_mastn((SAMPLES / "interview.mastn").read_text())

    def test_steps_are_positions_from_the_setup_wave_on(self):
        run = solve_distributed(self.m, SimConfig(scheduler_seed=2))
        log = run.log
        assert len(log) == run.messages
        assert [e.step for e in log] == list(range(1, run.messages + 1))
        assert [e.message for e in log] == log.messages
        setup = {MsgKind.ECHO_PROBE, MsgKind.ECHO_REPLY}
        assert run.setup_messages > 0
        assert all(msg.kind in setup for msg in log.messages[: run.setup_messages])
        assert all(msg.kind not in setup for msg in log.messages[run.setup_messages :])
        assert log[run.setup_messages].step == run.setup_messages + 1

    def test_negative_indices_count_from_the_end(self):
        log = solve_distributed(self.m, SimConfig(scheduler_seed=0)).log
        assert log[-1] == LogEntry(len(log), log.messages[-1])
        assert log[-len(log)] == LogEntry(1, log.messages[0])
        for index in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[index]

    def test_a_slice_is_a_type_error(self):
        # a log is numbered from 1, so a cut of it would misnumber its steps
        log = solve_distributed(self.m, SimConfig(scheduler_seed=0)).log
        with pytest.raises(TypeError):
            log[5:9]

    @pytest.mark.parametrize("seed", range(3))
    def test_iteration_gives_what_an_observer_sees(self, seed):
        cfg = SimConfig(scheduler_seed=seed, latency=seed)
        seen = []
        assert solve_distributed(self.m, cfg, seen.append).log is None
        assert list(solve_distributed(self.m, cfg).log) == seen

    def test_a_kept_run_holds_no_log_entry(self):
        def log_entries():
            return sum(type(obj) is LogEntry for obj in gc.get_objects())

        before = log_entries()
        run = solve_distributed(self.m, SimConfig(scheduler_seed=0))
        assert run.messages > 0
        # counted as a difference, so an entry some other test left alive
        # does not count; a log of LogEntry objects would add run.messages
        assert log_entries() == before
        assert len(run.log) == run.messages
