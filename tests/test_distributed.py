import hashlib
from collections import Counter

import pytest

from conftest import SAMPLES
from stnac import (
    EMPTY,
    AcClosure,
    AgentMessage,
    Mastn,
    MsgKind,
    ProtocolError,
    SimConfig,
    Stn,
    ValidationError,
    agent_view,
    dump_log,
    enforce_ac,
    flatten,
    interval,
    parse_mastn,
    serialize_mastn,
    solve_distributed,
)
from stnac.distributed import Phase, SolverAgent
from stnac.sim import TreeInfo, audit_privacy, echo_setup
from stnac.workloads import gen_factory_mastn, gen_random_mastn


def wrap_single(net: Stn) -> Mastn:
    return Mastn([net])


def split_cycle3() -> Mastn:
    """The inconsistent 3-cycle with one variable per agent, all edges external."""
    agents = []
    for _ in range(3):
        a = Stn(1)
        a.set_domain(0, interval(0, 100))
        agents.append(a)
    m = Mastn(agents)
    m.add_external(0, 0, 1, 0, interval(1, 2))
    m.add_external(1, 0, 2, 0, interval(1, 2))
    m.add_external(2, 0, 0, 0, interval(1, 2))
    return m


def assert_matches_central(m: Mastn, run) -> None:
    flat, fi = flatten(m)
    central = enforce_ac(flat)
    if isinstance(central, AcClosure):
        assert run.verdict == "consistent"
        for i in range(m.p):
            for v in range(m.agents[i].n):
                assert run.agent_domains[i][v] == central.domains[fi.to_global(i, v)]
    else:
        assert run.verdict == "inconsistent"
        assert run.agent_domains is None


class TestDegenerateSingleAgent:
    def test_matches_centralized_exactly(self):
        net = Stn(3)
        for v in range(3):
            net.set_domain(v, interval(0, 30))
        net.add_constraint(0, 1, interval(2, 4))
        net.add_constraint(1, 2, interval(-1, 5))
        central = enforce_ac(net)
        run = solve_distributed(wrap_single(net))
        assert run.verdict == "consistent"
        assert run.agent_domains[0] == central.domains
        # a neighborless agent still re-reads all 4 arcs in each of its 2
        # sweeps, while the central worklist reads only what moved
        assert (run.checks, central.checks) == (8, 5)
        assert run.nccc == run.checks  # one agent: no concurrency
        assert run.messages == 0

    def test_inconsistent_single_agent(self):
        net = Stn(2)
        net.set_domain(0, interval(0, 5))
        net.set_domain(1, interval(0, 5))
        net.add_constraint(0, 1, interval(7, 9))
        central = enforce_ac(net)
        run = solve_distributed(wrap_single(net))
        assert run.verdict == "inconsistent"
        assert run.checks == central.checks


class TestRingInstances:
    def test_ring4_matches_central(self):
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        run = solve_distributed(m, SimConfig(scheduler_seed=3))
        assert_matches_central(m, run)

    def test_interview_matches_central(self):
        m = parse_mastn((SAMPLES / "interview.mastn").read_text())
        run = solve_distributed(m, SimConfig(scheduler_seed=1))
        assert_matches_central(m, run)

    def test_split_cycle_all_agents_report_inconsistent(self):
        m = split_cycle3()
        run = solve_distributed(m, SimConfig(scheduler_seed=0))
        assert run.verdict == "inconsistent"
        kinds = run.histogram
        assert kinds.get("Inconsistent", 0) >= 1


class TestSharedGhostSlot:
    """Both variables of agent 0 constrain agent 1's only variable, which
    agent 0 therefore keeps in one ghost slot.  The per-agent checks and
    NCCC are pinned: they count every arc of the swept variables, and an
    emptied domain stops its agent's sweep."""

    @staticmethod
    def instance(empty: bool) -> Mastn:
        a = Stn(2)
        a.set_domain(0, interval(0, 100))
        a.set_domain(1, interval(0, 100))
        a.add_constraint(0, 1, interval(1, 10))
        b = Stn(1)
        b.set_domain(0, interval(0, 30))
        m = Mastn([a, b])
        m.add_external(0, 0, 1, 0, EMPTY if empty else interval(5, 20))
        m.add_external(0, 1, 1, 0, interval(-3, 4))
        return m

    @pytest.mark.parametrize("seed,checks,nccc", [(0, [8, 4], 8), (1, [8, 4], 12), (2, [8, 4], 16)])
    def test_consistent(self, seed, checks, nccc):
        m = self.instance(empty=False)
        run = solve_distributed(m, SimConfig(scheduler_seed=seed, latency=seed))
        assert_matches_central(m, run)
        assert (run.verdict, run.agent_checks, run.nccc) == ("consistent", checks, nccc)

    @pytest.mark.parametrize("seed,checks,nccc", [(0, [2, 2], 2), (1, [2, 0], 4), (2, [2, 2], 4)])
    def test_empty_external(self, seed, checks, nccc):
        # agent 0's first variable empties after its two checks; its second
        # variable is never swept
        m = self.instance(empty=True)
        run = solve_distributed(m, SimConfig(scheduler_seed=seed, latency=seed))
        assert (run.verdict, run.agent_checks, run.nccc) == ("inconsistent", checks, nccc)


class TestArcOrder:
    def test_ring4_agent_reads_ghosts_after_locals(self):
        # agent 0 of ring4: variable 0 reads its partner 1 and the ghost of
        # (1, 0) in slot 2; variable 1 reads 0 and the ghost of (3, 0) in slot 3
        view = agent_view(parse_mastn((SAMPLES / "ring4.mastn").read_text()), 0)
        agent = SolverAgent(view, TreeInfo(parent=None, children=(1, 3), n_total=9), 0)
        assert [[arc[0] for arc in lst] for lst in agent._arcs] == [[1, 2], [0, 3]]

    def test_sources_ascend_for_every_factory_agent(self):
        m = gen_factory_mastn(agents=6, tasks=30, seed=1)
        for i in range(m.p):
            agent = SolverAgent(agent_view(m, i), TreeInfo(parent=None, children=(), n_total=1), 0)
            for lst in agent._arcs:
                sources = [arc[0] for arc in lst]
                assert sources == sorted(set(sources))


class TestSetupWaves:
    # components {0, 3} and {1, 2, 4}: one wave from 0, then one from 1
    TEXT = (
        "mastn 5\n"
        + "".join(f"agent {i}\ndomain 0 0 50\n" for i in range(5))
        + "external 0 0 3 0 0 10\nexternal 1 0 4 0 0 10\nexternal 2 0 4 0 0 10\n"
    )

    def test_one_wave_per_component_in_root_order(self):
        run = solve_distributed(parse_mastn(self.TEXT))
        setup = [(e.step, e.message.sender, e.message.receiver, e.message.kind) for e in run.log]
        probe, reply = MsgKind.ECHO_PROBE, MsgKind.ECHO_REPLY
        assert setup[: run.setup_messages] == [
            (1, 0, 3, probe),
            (2, 3, 0, reply),
            (3, 1, 4, probe),
            (4, 4, 2, probe),
            (5, 2, 4, reply),
            (6, 4, 1, reply),
        ]
        assert all(kind not in (probe, reply) for *_, kind in setup[run.setup_messages :])
        assert run.verdict == "consistent"


class TestScheduleIndependence:
    def test_result_stable_across_seeds(self):
        m = gen_random_mastn(agents=4, activities=3, externals=6, wmin=-6, wmax=9,
                             horizon=120, seed=11)
        baseline = None
        for seed in range(10):
            run = solve_distributed(m, SimConfig(scheduler_seed=seed))
            state = (run.verdict, run.agent_domains)
            if baseline is None:
                baseline = state
            else:
                assert state == baseline

    def test_identical_seed_identical_run(self):
        m = gen_random_mastn(agents=3, activities=2, externals=4, seed=5)
        a = solve_distributed(m, SimConfig(scheduler_seed=7))
        b = solve_distributed(m, SimConfig(scheduler_seed=7))
        assert a.messages == b.messages
        assert a.nccc == b.nccc
        assert [(e.step, e.message.kind, e.message.sender, e.message.receiver)
                for e in a.log] == [
            (e.step, e.message.kind, e.message.sender, e.message.receiver) for e in b.log
        ]


class TestLatency:
    def test_latency_changes_nccc_not_domains(self):
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        fast = solve_distributed(m, SimConfig(scheduler_seed=2, latency=0))
        slow = solve_distributed(m, SimConfig(scheduler_seed=2, latency=5))
        assert fast.agent_domains == slow.agent_domains
        assert slow.nccc > fast.nccc


class TestSimConfig:
    # on ring4 a latency of 1.5 used to run to a float NCCC (20.0), and a
    # scheduler seed of 1.5 to fail with a TypeError inside rng.py
    @pytest.mark.parametrize("field", ["scheduler_seed", "latency"])
    @pytest.mark.parametrize("value", [1.5, True, "2", None])
    def test_non_int_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            SimConfig(**{field: value})


class TestProtocolProperties:
    def test_random_instances_match_central(self):
        for seed in range(25):
            p = 1 + seed % 5
            x = 0 if p == 1 else (seed % 7)
            m = gen_random_mastn(agents=p, activities=2, externals=x,
                                 wmin=-5, wmax=8, horizon=90, seed=seed)
            for sched in (0, 1):
                run = solve_distributed(m, SimConfig(scheduler_seed=sched))
                assert_matches_central(m, run)

    def test_empty_mastn_is_consistent(self):
        run = solve_distributed(parse_mastn("mastn 0\n"))
        assert (run.verdict, run.agent_domains, run.iterations) == ("consistent", [], 0)
        assert (run.checks, run.nccc, run.messages, run.setup_messages) == (0, 0, 0, 0)

    def test_disconnected_agent_graph(self):
        m = gen_random_mastn(agents=4, activities=2, externals=0, seed=2)
        run = solve_distributed(m)
        assert_matches_central(m, run)
        assert run.messages == 0  # four singleton components

    def test_constraints_structurally_unchanged(self):
        m = gen_random_mastn(agents=3, activities=3, externals=5, seed=9)
        before = serialize_mastn(m)
        views_before = [agent_view(m, i).externals for i in range(m.p)]
        solve_distributed(m, SimConfig(scheduler_seed=4))
        assert serialize_mastn(m) == before
        assert [agent_view(m, i).externals for i in range(m.p)] == views_before

    def test_iterations_within_budget(self):
        for seed in range(15):
            m = gen_random_mastn(agents=3, activities=2, externals=4,
                                 wmin=-5, wmax=8, horizon=90, seed=seed)
            run = solve_distributed(m, SimConfig(scheduler_seed=seed))
            assert run.iterations <= m.total_vars + 1

    def test_privacy_audit_passes(self):
        for seed in range(10):
            m = gen_random_mastn(agents=4, activities=2, externals=5,
                                 wmin=-5, wmax=8, horizon=90, seed=seed)
            run = solve_distributed(m, SimConfig(scheduler_seed=seed))
            assert audit_privacy(run.log, m).ok

    def test_cap_exhaustion_detected_distributed(self):
        # a weak negative cycle over huge domains never empties a domain, so
        # the verdict must come from somebody's sweep budget
        agents = []
        for _ in range(3):
            a = Stn(1)
            a.set_domain(0, interval(0, 10**6))
            agents.append(a)
        m = Mastn(agents)
        m.add_external(0, 0, 1, 0, interval(0, 0))
        m.add_external(1, 0, 2, 0, interval(0, 0))
        m.add_external(2, 0, 0, 0, interval(1, 1))
        run = solve_distributed(m)
        assert run.verdict == "inconsistent"
        assert run.iterations <= m.total_vars + 1

    def test_nccc_bounded_by_total_checks(self):
        # with zero latency a clock chain never counts the same work twice
        for seed in range(10):
            m = gen_random_mastn(agents=4, activities=3, externals=6,
                                 wmin=-6, wmax=9, horizon=150, seed=seed)
            run = solve_distributed(m, SimConfig(scheduler_seed=seed, latency=0))
            assert run.nccc <= run.checks

    def test_per_agent_check_bound(self):
        for seed in range(10):
            m = gen_random_mastn(agents=4, activities=3, externals=8,
                                 wmin=-6, wmax=9, horizon=150, seed=seed)
            run = solve_distributed(m, SimConfig(scheduler_seed=seed))
            n = m.total_vars
            for i in range(m.p):
                view = agent_view(m, i)
                bound = 2 * (view.stn.e + len(view.externals) + view.stn.n) * (n + 1)
                assert run.agent_checks[i] <= bound


def fingerprint(run) -> str:
    """sha256 of the dumped log followed by the histogram, one kind a line."""
    text = dump_log(run.log) + "".join(f"{k} {c}\n" for k, c in sorted(run.histogram.items()))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedRuns:
    """Every counter of these runs is pinned here, and the bytes of their logs
    in perfbench/golden.json (tests/test_golden.py): a change to the agents or
    the runtime that is meant to save time must leave them alone."""

    # (sample, scheduler seed, latency, nccc, checks, iterations, messages)
    SAMPLE_RUNS = [
        ("ring4.mastn", 0, 0, 8, 32, 2, 35),
        ("ring4.mastn", 0, 3, 32, 32, 2, 35),
        ("ring4.mastn", 1, 0, 12, 32, 2, 35),
        ("ring4.mastn", 1, 3, 32, 32, 2, 35),
        ("ring4.mastn", 2, 0, 8, 32, 2, 35),
        ("ring4.mastn", 2, 3, 32, 32, 2, 35),
        ("ring4.mastn", 3, 0, 12, 32, 2, 35),
        ("ring4.mastn", 3, 3, 36, 32, 2, 35),
        ("ring4.mastn", 4, 0, 8, 32, 2, 35),
        ("ring4.mastn", 4, 3, 32, 32, 2, 35),
        ("interview.mastn", 0, 0, 40, 128, 4, 51),
        ("interview.mastn", 0, 3, 67, 128, 4, 51),
        ("interview.mastn", 1, 0, 32, 128, 4, 51),
        ("interview.mastn", 1, 3, 65, 128, 4, 51),
        ("interview.mastn", 2, 0, 32, 128, 4, 51),
        ("interview.mastn", 2, 3, 62, 128, 4, 51),
        ("interview.mastn", 3, 0, 32, 128, 4, 51),
        ("interview.mastn", 3, 3, 65, 128, 4, 51),
        ("interview.mastn", 4, 0, 40, 128, 4, 51),
        ("interview.mastn", 4, 3, 73, 128, 4, 51),
    ]

    @pytest.mark.parametrize("name, seed, latency, nccc, checks, iterations, messages", SAMPLE_RUNS)
    def test_sample(self, name, seed, latency, nccc, checks, iterations, messages):
        m = parse_mastn((SAMPLES / name).read_text())
        run = solve_distributed(m, SimConfig(scheduler_seed=seed, latency=latency))
        counters = (run.nccc, run.checks, run.iterations, run.messages)
        assert counters == (nccc, checks, iterations, messages)
        assert run.histogram == Counter(entry.message.kind.value for entry in run.log)

    def test_sync_pool_instance(self):
        # the first net of the benchmark's sync-heavy workload: 32 agents
        # that use the whole iteration budget
        m = gen_factory_mastn(agents=32, tasks=160, externals=62, seed=0)
        run = solve_distributed(m, SimConfig(scheduler_seed=0))
        assert (run.nccc, run.checks, run.iterations, run.messages) == (7703, 224258, 321, 37444)
        assert run.histogram == {
            "EchoProbe": 85, "EchoReply": 31, "DomainSync": 37233, "Inconsistent": 95
        }
        assert fingerprint(run) == (
            "8c89e024d4da6c9d830432726662324be6161da2d559fbf4b8a88a5e29bdda7c"
        )

    def test_sweep_pool_instance(self):
        # the first net of the benchmark's sweep-heavy workload: 16 agents
        # that converge after about 126 iterations, with termination rounds
        m = gen_factory_mastn(agents=16, tasks=400, seed=0)
        run = solve_distributed(m, SimConfig(scheduler_seed=0))
        assert (run.nccc, run.checks, run.iterations, run.messages) == (14048, 205128, 126, 6978)
        assert run.histogram == {
            "EchoProbe": 39, "EchoReply": 15, "DomainSync": 6804,
            "Inquiry": 64, "Feedback": 17, "ArcConsistent": 39,
        }
        assert fingerprint(run) == (
            "c2527ac938458ed9acd7c2b9c02162816ca61e37280e6e1cf96ec4f08dab23c5"
        )


class TestObservers:
    """What observes a run changes what it keeps, never what it counts."""

    @staticmethod
    def counts(run):
        return (
            run.verdict, run.agent_domains, run.iterations, run.checks, run.nccc,
            run.messages, run.setup_messages, run.histogram, run.agent_checks,
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: parse_mastn((SAMPLES / "ring4.mastn").read_text()),
            lambda: parse_mastn((SAMPLES / "interview.mastn").read_text()),
            lambda: gen_factory_mastn(agents=16, tasks=400, seed=0),
        ],
        ids=["ring4", "interview", "factory-16x400"],
    )
    def test_counts_without_a_log(self, make):
        m = make()
        cfg = SimConfig(scheduler_seed=2)
        kept = solve_distributed(m, cfg)
        assert kept.messages == len(kept.log)
        seen = []
        for observe in (None, seen.append):
            run = solve_distributed(m, cfg, observe)
            assert run.log is None
            assert self.counts(run) == self.counts(kept)
        # an observer sees every message, the setup wave's included, in step order
        assert seen == list(kept.log)


class TestPayloadSharing:
    """A domain sync carries a tuple of (var, lo, hi) triples over the sender's
    variables, sorted by var; agents hand an unchanged triple, and an
    unchanged payload, to several messages."""

    @staticmethod
    def edge_syncs(run) -> dict[tuple[int, int], list]:
        """(sender, receiver) -> its syncs' payloads in iteration order."""
        per_edge = {}
        for entry in run.log:
            msg = entry.message
            if msg.kind is MsgKind.DOMAIN_SYNC:
                per_edge.setdefault((msg.sender, msg.receiver), []).append((msg.k, msg.domains))
        return {edge: [p for _, p in sorted(syncs, key=lambda s: s[0])]
                for edge, syncs in per_edge.items()}

    @pytest.mark.parametrize("externals, seed", [(8, 0), (8, 1), (12, 1)])
    def test_payload_contract(self, externals, seed):
        m = gen_factory_mastn(agents=6, tasks=30, externals=externals, seed=seed)
        # (sender, receiver) -> the sender's variables the receiver reads,
        # read from the external constraints themselves
        reads: dict[tuple[int, int], set] = {}
        for e in m.external_constraints():
            reads.setdefault((e.j, e.i), set()).add(e.w)
            reads.setdefault((e.i, e.j), set()).add(e.v)
        run = solve_distributed(m, SimConfig(scheduler_seed=seed))
        per_edge = self.edge_syncs(run)
        assert per_edge.keys() == reads.keys()
        for edge, payloads in per_edge.items():
            for payload in payloads:
                assert type(payload) is tuple
                assert all(type(triple) is tuple and len(triple) == 3 for triple in payload)
                assert [var for var, _, _ in payload] == sorted(reads[edge])
                # a sent domain is finite and non-empty
                assert all(type(lo) is type(hi) is int and lo <= hi for _, lo, hi in payload)

    @pytest.mark.parametrize("externals, seed", [(8, 0), (8, 1), (12, 1)])
    def test_unmoved_pairs_are_shared(self, externals, seed):
        m = gen_factory_mastn(agents=6, tasks=30, externals=externals, seed=seed)
        run = solve_distributed(m, SimConfig(scheduler_seed=seed))
        kept = moved = mixed = 0
        for payloads in self.edge_syncs(run).values():
            for prev, cur in zip(payloads, payloads[1:]):
                # domains only tighten, so an equal triple is an unmoved variable
                unmoved = sum(p == q for p, q in zip(prev, cur))
                assert all(p is q for p, q in zip(prev, cur) if p == q)
                if unmoved == len(cur):  # no triple rebuilt, so no payload either
                    assert prev is cur
                kept += unmoved
                moved += len(cur) - unmoved
                mixed += 0 < unmoved < len(cur)
        # the check has teeth only if some triples stayed while others moved,
        # within one payload too
        assert kept and moved and mixed


class TestBroadcastDedup:
    def test_duplicate_broadcast_ignored(self):
        view = agent_view(split_cycle3(), 1)
        tree = TreeInfo(parent=0, children=(2,), n_total=4)
        agent = SolverAgent(view, tree, 0)
        agent.on_start()
        first = AgentMessage(MsgKind.INCONSISTENT, 0, 1, origin=0)
        out1 = agent.on_message(first)
        assert agent.done and agent.result == "inconsistent"
        assert [(msg.kind, msg.receiver, msg.origin) for msg in out1] == [
            (MsgKind.INCONSISTENT, 2, 0)
        ]  # forwarded to the other neighbor
        # the copy agent 2 forwards back is never processed: run_simulation
        # delivers nothing to a done agent (tests/test_sim.py)


class TestAgentStep:
    def test_quiescent_non_leaf_forwards_inquiry(self):
        # agent 1 sits between root 0 and leaf 2 in the split-cycle tree;
        # once quiescent, an inquiry from the root must fan out to the child
        m = Mastn([Stn(1) for _ in range(3)])
        for a in m.agents:
            a.set_domain(0, interval(0, 100))
        m.add_external(0, 0, 1, 0, interval(-50, 50))
        m.add_external(1, 0, 2, 0, interval(-50, 50))
        view = agent_view(m, 1)
        tree = TreeInfo(parent=0, children=(2,), n_total=4)
        agent = SolverAgent(view, tree, 0)
        out = agent.on_start()
        assert [(msg.kind, msg.receiver) for msg in out] == [
            (MsgKind.DOMAIN_SYNC, 0),
            (MsgKind.DOMAIN_SYNC, 2),
        ]
        sync0 = AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((0, 0, 100),))
        agent.on_message(sync0)
        sync2 = AgentMessage(MsgKind.DOMAIN_SYNC, 2, 1, k=1, domains=((0, 0, 100),))
        agent.on_message(sync2)  # completes the sync set; sweep is quiescent
        inquiry = AgentMessage(MsgKind.INQUIRY, 0, 1, k=1)
        out = agent.on_message(inquiry)
        assert [(msg.kind, msg.receiver, msg.k) for msg in out] == [
            (MsgKind.INQUIRY, 2, 1)
        ]
        feedback = AgentMessage(MsgKind.FEEDBACK, 2, 1, k=1)
        out = agent.on_message(feedback)
        assert [(msg.kind, msg.receiver, msg.k) for msg in out] == [
            (MsgKind.FEEDBACK, 0, 1)
        ]

    def test_leaf_answers_inquiry_directly(self):
        m = Mastn([Stn(1), Stn(1)])
        for a in m.agents:
            a.set_domain(0, interval(0, 10))
        m.add_external(0, 0, 1, 0, interval(-5, 5))
        view = agent_view(m, 1)
        tree = TreeInfo(parent=0, children=(), n_total=3)
        agent = SolverAgent(view, tree, 0)
        agent.on_start()
        agent.on_message(AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((0, 0, 10),)))
        out = agent.on_message(AgentMessage(MsgKind.INQUIRY, 0, 1, k=1))
        assert [(msg.kind, msg.receiver, msg.k) for msg in out] == [
            (MsgKind.FEEDBACK, 0, 1)
        ]


def ring4_sync(sender: int, k: int, receiver: int = 0, clock: int = 0) -> AgentMessage:
    """A ring4 agent syncs its variable 0, the one its neighbors read, at [0, 100]."""
    domains = ((0, 0, 100),)
    return AgentMessage(MsgKind.DOMAIN_SYNC, sender, receiver, clock, k, domains)


def ring4_feedback(sender: int, k: int) -> AgentMessage:
    return AgentMessage(MsgKind.FEEDBACK, sender, 0, k=k)


class TestClockRule:
    """A message arrives at its carried clock plus the latency; the
    receiver's clock rises to the arrival on delivery, except that a domain
    sync is absorbed when the agent consumes it."""

    LATENCY = 5

    def ring4_agent(self, agent_id: int) -> SolverAgent:
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        views = [agent_view(m, i) for i in range(m.p)]
        trees, _ = echo_setup(0, [v.neighbors for v in views], [v.stn.n for v in views])
        agent = SolverAgent(views[agent_id], trees[agent_id], self.LATENCY)
        agent.on_start()
        return agent

    @pytest.mark.parametrize("own, stamp", [(0, 40), (45, 40), (90, 40)])
    def test_inquiry_raises_the_clock_on_delivery(self, own, stamp):
        agent = self.ring4_agent(1)  # root 0's child
        agent.clock = own
        agent.on_message(AgentMessage(MsgKind.INQUIRY, 0, 1, clock=stamp, k=1))
        assert agent.clock == max(own, stamp + self.LATENCY)

    def test_sync_in_await_sync_waits_for_its_sweep(self):
        agent = self.ring4_agent(0)
        agent.on_message(ring4_sync(1, 1, clock=300))
        assert (agent.phase, agent.k, agent.clock) == (Phase.AWAIT_SYNC, 1, 0)
        agent.on_message(ring4_sync(3, 1, clock=7))  # completes k = 1: the sweep pops it
        assert agent.checks > 0
        assert agent.clock == 300 + self.LATENCY + agent.checks

    def test_next_sync_in_await_termination_raises_the_clock_at_once(self):
        agent = self.ring4_agent(0)
        for k in (1, 2):
            for j in (1, 3):
                agent.on_message(ring4_sync(j, k))
        assert (agent.phase, agent.k) == (Phase.AWAIT_TERMINATION, 2)
        stamp = agent.clock + 100
        agent.on_message(ring4_sync(1, 3, clock=stamp))
        # the round is abandoned for k = 3, whose sweep still waits on agent 3
        assert (agent.phase, agent.k) == (Phase.AWAIT_SYNC, 3)
        assert agent.clock == stamp + self.LATENCY


class TestProtocolErrors:
    def test_unexpected_echo_probe(self):
        view = agent_view(split_cycle3(), 0)
        tree = TreeInfo(parent=None, children=(1, 2), n_total=4)
        agent = SolverAgent(view, tree, 0)
        agent.on_start()
        with pytest.raises(ProtocolError):
            agent.on_message(AgentMessage(MsgKind.ECHO_PROBE, 1, 0))

    def test_inquiry_from_non_parent(self):
        view = agent_view(split_cycle3(), 1)
        tree = TreeInfo(parent=0, children=(2,), n_total=4)
        agent = SolverAgent(view, tree, 0)
        agent.on_start()
        with pytest.raises(ProtocolError):
            agent.on_message(AgentMessage(MsgKind.INQUIRY, 2, 1, k=1))

    def ring4_agent0(self) -> SolverAgent:
        # agent 0 reads (1, 0) from agent 1 and (3, 0) from agent 3
        view = agent_view(parse_mastn((SAMPLES / "ring4.mastn").read_text()), 0)
        tree = TreeInfo(parent=None, children=(1, 3), n_total=8)
        agent = SolverAgent(view, tree, 0)
        agent.on_start()
        return agent

    def test_sync_missing_a_key(self):
        agent = self.ring4_agent0()
        with pytest.raises(ProtocolError, match="malformed domain sync from 1"):
            agent.on_message(AgentMessage(MsgKind.DOMAIN_SYNC, 1, 0, k=1, domains=()))

    def test_sync_with_an_unread_variable(self):
        agent = self.ring4_agent0()
        domains = ((0, 0, 100), (1, 0, 100))
        with pytest.raises(ProtocolError, match="malformed domain sync from 1"):
            agent.on_message(AgentMessage(MsgKind.DOMAIN_SYNC, 1, 0, k=1, domains=domains))

    @pytest.mark.parametrize(
        "agent_id, quiescent, msgs, match",
        [
            (0, False, [ring4_sync(1, 3)], "domain sync for iteration 3 while at 1"),
            (0, True, [ring4_sync(1, 4)], "domain sync for iteration 4 while waiting at 2"),
            (1, False, [AgentMessage(MsgKind.INQUIRY, 0, 1, k=5)], "inquiry for future iteration"),
            (1, False, [AgentMessage(MsgKind.FEEDBACK, 0, 1, k=1)], "feedback from non-child 0"),
            (0, True, [ring4_feedback(1, 2)] * 2, "duplicate feedback from 1"),
            (0, False, [ring4_feedback(1, 3)], "feedback for iteration 3 in phase AwaitSync"),
            (
                1,
                False,
                [AgentMessage(MsgKind.ARC_CONSISTENT, 0, 1, k=5, origin=0)],
                "consistent verdict for iteration 5",
            ),
            (1, False, [AgentMessage(MsgKind.INQUIRY, 0, 1, k=1)] * 2, "duplicate inquiry for iteration 1"),
            (
                # agent 1's first sweep tightens its own domains, its second
                # is quiescent, and the round for k = 2 answers the first inquiry
                1,
                False,
                [ring4_sync(j, k, 1) for k in (1, 2) for j in (0, 2)]
                + [AgentMessage(MsgKind.INQUIRY, 0, 1, k=2)] * 2,
                "duplicate inquiry for iteration 2",
            ),
            (
                # the same quiescent round, but child 2 answers an inquiry
                # that agent 1 never received from its parent
                1,
                False,
                [ring4_sync(j, k, 1) for k in (1, 2) for j in (0, 2)]
                + [AgentMessage(MsgKind.FEEDBACK, 2, 1, k=2)],
                "feedback complete before the inquiry arrived",
            ),
        ],
    )
    def test_guard(self, agent_id, quiescent, msgs, match):
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        views = [agent_view(m, i) for i in range(m.p)]
        trees, _ = echo_setup(0, [v.neighbors for v in views], [v.stn.n for v in views])
        agent = SolverAgent(agent_view(m, agent_id), trees[agent_id], 0)
        agent.on_start()
        if quiescent:
            # agent 0's first sweep tightens its own domains, its second is
            # quiescent, and as the root it then opens the round for k = 2
            for k in (1, 2):
                for j in (1, 3):
                    agent.on_message(ring4_sync(j, k))
            assert (agent.phase, agent.k) == (Phase.AWAIT_TERMINATION, 2)
        for msg in msgs[:-1]:
            agent.on_message(msg)
        with pytest.raises(ProtocolError, match=match):
            agent.on_message(msgs[-1])

    def test_second_sync_for_one_iteration(self):
        agent = self.ring4_agent0()
        sync = AgentMessage(MsgKind.DOMAIN_SYNC, 1, 0, k=1, domains=((0, 0, 100),))
        agent.on_message(sync)
        with pytest.raises(ProtocolError, match="second domain sync from 1 for iteration 1"):
            agent.on_message(
                AgentMessage(MsgKind.DOMAIN_SYNC, 1, 0, k=1, domains=((0, 0, 50),))
            )


# agent 1 of pair_problem() reads agent 0's variables 0 and 1
MALFORMED_SYNCS = {
    "missing": ((0, 0, 10),),
    "extra": ((0, 0, 10), (1, 0, 10), (2, 0, 10)),
    "duplicate": ((0, 0, 10), (1, 0, 10), (1, 0, 10)),
    "out-of-order": ((1, 0, 10), (0, 0, 10)),
    "dict": {0: (0, 10), 1: (0, 10)},
    "list-triples": ([0, 0, 10], [1, 0, 10]),
    "keys-only": (0, 1),
    "none": None,
    # variables that are not ints: the (agent, var) keys payloads once
    # carried, or bools, which compare equal to 0 and 1
    "old-keys": (((0, 0), 0, 10), ((0, 1), 0, 10)),
    "bool-var": ((False, 0, 10), (True, 0, 10)),
    # the right variables in the right order, but bounds that are not two ints
    "none-bounds": ((0, None, None), (1, None, None)),
    "float-bound": ((0, 0, 10), (1, 0.0, 10)),
    "bool-bound": ((0, 0, 10), (1, False, True)),
    "interval-bound": ((0, interval(0, 10), 10), (1, 0, 10)),
    "old-pairs": ((0, interval(0, 10)), (1, interval(0, 10))),
    "none-pairs": ((0, None), (1, None)),
}


class TestMalformedSyncs:
    @staticmethod
    def pair_problem() -> Mastn:
        """Agent 0's variables 0 and 1 both constrain agent 1's variable 0."""
        m = Mastn([Stn(2), Stn(1)])
        for a in m.agents:
            for v in range(a.n):
                a.set_domain(v, interval(0, 10))
        m.add_external(0, 0, 1, 0, interval(-5, 5))
        m.add_external(0, 1, 1, 0, interval(-5, 5))
        return m

    def agent1(self) -> SolverAgent:
        agent = SolverAgent(agent_view(self.pair_problem(), 1), TreeInfo(0, (), 4), 0)
        agent.on_start()
        return agent

    def test_well_formed_sync_is_swept(self):
        agent = self.agent1()
        agent.on_message(
            AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=((0, 0, 10), (1, 0, 10)))
        )
        assert agent.checks > 0

    @pytest.mark.parametrize("domains", MALFORMED_SYNCS.values(), ids=MALFORMED_SYNCS.keys())
    def test_malformed_sync_is_a_protocol_error(self, domains):
        agent = self.agent1()
        sync = AgentMessage(MsgKind.DOMAIN_SYNC, 0, 1, k=1, domains=domains)
        with pytest.raises(ProtocolError, match="malformed domain sync from 0"):
            agent.on_message(sync)
