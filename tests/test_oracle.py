import pytest

from conftest import (
    all_pairs_distances,
    assert_simple_cycle,
    cycle3_net,
    neighbors,
    two_var_net,
    within,
)
from stnac import (
    AcClosure,
    NegativeCycle,
    Stn,
    certify_cycle,
    enforce_ac,
    interval,
    oracle_minimal_domains,
)
from stnac.oracle import parent_cycle
from stnac.rng import SplitMix64
from stnac.workloads import gen_grid_stn, gen_random_stn, gen_scale_free_stn


class TestMinimalDomains:
    def test_two_var_by_hand(self):
        # distance graph: o->x 10, x->o 0, o->y 10, y->o 0, x->y 3, y->x -2;
        # shortest o->x is 8 (via y), y->o is -2 (via x)
        assert oracle_minimal_domains(two_var_net()) == [interval(0, 8), interval(2, 10)]

    def test_negative_cycle_witness(self):
        result = oracle_minimal_domains(cycle3_net())
        assert_simple_cycle(cycle3_net(), result)
        assert result.weight == -3

    def test_unconstrained_domain_passthrough(self):
        net = Stn(1)
        net.set_domain(0, interval(3, 7))
        assert oracle_minimal_domains(net) == [interval(3, 7)]

    def test_domain_induced_cycle(self):
        # x fixed at 0, y at least 5 later, but y must end by 3
        net = Stn(2)
        net.set_domain(0, interval(0, 0))
        net.set_domain(1, interval(0, 3))
        net.add_constraint(0, 1, interval(5, None))
        result = oracle_minimal_domains(net)
        assert isinstance(result, NegativeCycle)
        assert net.n in result.vertices  # runs through the zero point

    def test_empty_constraint_detected(self):
        net = Stn(2)
        net.set_domain(0, interval(0, 5))
        net.set_domain(1, interval(0, 5))
        net.add_constraint(0, 1, interval(2, 3))
        net.add_constraint(0, 1, interval(4, 6))  # intersects to empty
        result = oracle_minimal_domains(net)
        assert isinstance(result, NegativeCycle)


class TestCertifyCycle:
    """The one re-summation of a certificate, over the network's own edges
    (vertex n is the zero point)."""

    def test_negative_walk_is_certified(self):
        # 0 -> 2 -> 1 -> 0 takes the -1 side of each constraint of cycle3
        assert certify_cycle(cycle3_net(), (0, 2, 1, 0)) == NegativeCycle((0, 2, 1, 0), -3)

    def test_non_negative_walk_is_rejected(self):
        with pytest.raises(RuntimeError, match="re-sums to 6"):
            certify_cycle(cycle3_net(), (0, 1, 2, 0))

    def test_open_walk_is_rejected(self):
        with pytest.raises(RuntimeError, match="not a closed walk"):
            certify_cycle(cycle3_net(), (0, 2, 1))

    @pytest.mark.parametrize("walk", [(0, 2, 0), (0, 1, 0), (0, 0, 1, 0), (3, 3, 0, 3)])
    def test_walk_over_a_missing_edge_is_rejected(self, walk):
        # 0 - 1 is one-sided (no edge 0 -> 1) and 0 - 2 unconstrained
        net = Stn(3)
        for v in range(3):
            net.set_domain(v, interval(0, 9))
        net.add_constraint(0, 1, interval(5, None))
        with pytest.raises(RuntimeError, match="missing edge"):
            certify_cycle(net, walk)

    # cycle3 has n = 3: vertex 3 is the zero point, and 8 and -1 name no vertex
    @pytest.mark.parametrize("walk, bad", [((3, 8, 3), 8), ((0, 8, 0), 8), ((3, -1, 3), -1)])
    def test_walk_outside_the_vertices_is_rejected(self, walk, bad):
        with pytest.raises(RuntimeError, match=rf"vertex {bad} is outside 0\.\.3"):
            certify_cycle(cycle3_net(), walk)

    def test_zero_point_edges_come_from_domains_when_given(self):
        # zero -> x -> y -> zero weighs hi_x + 3 - lo_y
        net = two_var_net()
        walk = (2, 0, 1, 2)
        with pytest.raises(RuntimeError, match="re-sums to 13"):
            certify_cycle(net, walk)
        domains = [interval(0, 0), interval(5, 5)]
        assert certify_cycle(net, walk, domains) == NegativeCycle(walk, -2)


def chain_net(n, step, horizon):
    """n variables in [0, horizon], each `step` after the one before."""
    net = Stn(n)
    for v in range(n):
        net.set_domain(v, interval(0, horizon))
    for v in range(n - 1):
        net.add_constraint(v, v + 1, step)
    return net


class TestEarlyStop:
    """Bellman-Ford stops at the first parent-graph cycle; the cycle it
    returns must still be a certified simple negative cycle."""

    BUDGET_NETS = [
        lambda: gen_grid_stn(rows=24, cols=24, wmin=-20, wmax=20, seed=0),
        lambda: gen_scale_free_stn(n=600, m=3, wmin=-20, wmax=20, seed=1),
    ]

    @pytest.mark.parametrize("make", BUDGET_NETS, ids=["grid-24x24", "scale-free-600"])
    def test_budget_nets_refuted_with_a_simple_cycle(self, make):
        net = make()
        result = oracle_minimal_domains(net)
        assert_simple_cycle(net, result)
        assert oracle_minimal_domains(net) == result  # the same cycle again

    def test_cycle_at_the_far_end_of_a_long_chain(self):
        # the only negative cycle is three positive steps around the last
        # three variables of a 300-variable chain
        net = chain_net(300, interval(1, 2), 1000)
        net.add_constraint(299, 297, interval(1, 2))
        result = oracle_minimal_domains(net)
        assert_simple_cycle(net, result)
        assert set(result.vertices) == {297, 298, 299}

    def test_cycle_through_the_zero_point(self):
        # the chain forces the last variable to 299 but its domain ends at
        # 100: the only negative cycles pass through the zero point
        net = chain_net(300, interval(1, 1), 1000)
        net.set_domain(0, interval(0, 0))
        net.set_domain(299, interval(0, 100))
        result = oracle_minimal_domains(net)
        assert_simple_cycle(net, result)
        assert net.n in result.vertices


def first_parent_cycle(par):
    """Brute-force reference for parent_cycle: follow the parents of each
    start in ascending order, on its own, until a root or a repeat.  None
    comes back exactly when every start reaches a root, so no cycle
    exists."""
    n = len(par)
    for start in range(n):
        path = [start]
        while path[-1] < n and par[path[-1]] not in path:
            path.append(par[path[-1]])
        if path[-1] < n:  # stopped at a repeat
            entry = par[path[-1]]
            loop = path[path.index(entry):] + [entry]
            return tuple(reversed(loop))  # par[v] = u is the edge u -> v
    return None


class TestParentCycle:
    """The one walk over a parent graph, shared by the solver and the
    oracle: par[v] = u is the edge u -> v, and a value >= len(par) a root."""

    def test_random_parent_arrays_against_brute_force(self):
        rng = SplitMix64(7)
        found = acyclic = 0
        for i in range(3000):
            n = 1 + rng.randbelow(12)
            # values up to n + 3: four roots above the vertices
            par = [rng.randbelow(n + 4) for _ in range(n)]
            if i % 3 == 0:  # plant a cycle over k distinct vertices
                ring = list(range(n))
                for j in range(n - 1, 0, -1):
                    r = rng.randbelow(j + 1)
                    ring[j], ring[r] = ring[r], ring[j]
                ring = ring[: 1 + rng.randbelow(n)]
                for u, v in zip(ring, ring[1:] + ring[:1]):
                    par[v] = u
            walk = parent_cycle(par)
            assert walk == first_parent_cycle(par)
            if walk is None:
                acyclic += 1
                continue
            found += 1
            assert walk[0] == walk[-1] and len(walk) >= 2
            assert all(par[v] == u for u, v in zip(walk, walk[1:]))
        assert found > 1500 and acyclic > 500


def minimal_constraint(dist, v, w):
    """Tightest relation w - v implied by the whole network."""
    return interval(-dist[w][v], dist[v][w])


class TestMinimalConstraints:
    """The test suite's all-pairs reference, Floyd-Warshall over conftest's
    edge_weight, so it shares no code with the oracle."""

    def test_direct_edge(self):
        dist = all_pairs_distances(two_var_net())
        assert minimal_constraint(dist, 0, 1) == interval(2, 3)

    def test_reflexive_pair(self):
        dist = all_pairs_distances(two_var_net())
        assert minimal_constraint(dist, 0, 0) == interval(0, 0)

    def test_chain_composition(self):
        net = Stn(3)
        for v in range(3):
            net.set_domain(v, interval(0, 100))
        net.add_constraint(0, 1, interval(1, 2))
        net.add_constraint(1, 2, interval(1, 2))
        assert minimal_constraint(all_pairs_distances(net), 0, 2) == interval(2, 4)

    def test_rejects_inconsistent(self):
        with pytest.raises(AssertionError, match="negative cycle"):
            all_pairs_distances(cycle3_net())


def consistent_instances(count, n=12, density=0.3, start_seed=0):
    found = []
    seed = start_seed
    while len(found) < count:
        net = gen_random_stn(n=n, density=density, wmin=-8, wmax=12, horizon=80, seed=seed)
        out = enforce_ac(net)
        if isinstance(out, AcClosure):
            found.append((net, out))
        seed += 1
    return found


class TestInclusionProperties:
    def test_closure_inside_minimal_constraint_composition(self):
        # for every constrained pair, domain(v) within domain(w) + minimal(w, v)
        for net, out in consistent_instances(10):
            dist = all_pairs_distances(net)
            for v, w, _ in net.pairs():
                m_wv = minimal_constraint(dist, w, v)
                assert within(out.domains[v], out.domains[w].compose(m_wv))
                m_vw = minimal_constraint(dist, v, w)
                assert within(out.domains[w], out.domains[v].compose(m_vw))

    def test_closure_inside_path_composition(self):
        # random walks: domain at the end point stays inside start domain
        # composed along the walk
        rng = SplitMix64(99)
        for net, out in consistent_instances(10):
            adj = neighbors(net)
            for _ in range(30):
                v = rng.randbelow(net.n)
                if not adj[v]:
                    continue
                walk = [v]
                length = 1 + rng.randbelow(2 * net.n)
                for _ in range(length):
                    nbrs = adj[walk[-1]]
                    walk.append(nbrs[rng.randbelow(len(nbrs))])
                composed = None
                for a, b in zip(walk, walk[1:]):
                    step = net.constraint(a, b)
                    composed = step if composed is None else composed.compose(step)
                assert within(out.domains[walk[-1]], out.domains[walk[0]].compose(composed))

    def test_long_walks_dominated_by_short_paths(self):
        # the all-pairs value is attained by a path shorter than n, so any
        # long random walk composes to something containing it
        rng = SplitMix64(123)
        for net, _ in consistent_instances(6):
            dist = all_pairs_distances(net)
            adj = neighbors(net)
            for _ in range(15):
                v = rng.randbelow(net.n)
                if not adj[v]:
                    continue
                walk = [v]
                for _ in range(net.n + rng.randbelow(net.n)):
                    nbrs = adj[walk[-1]]
                    walk.append(nbrs[rng.randbelow(len(nbrs))])
                composed = None
                for a, b in zip(walk, walk[1:]):
                    step = net.constraint(a, b)
                    composed = step if composed is None else composed.compose(step)
                assert within(minimal_constraint(dist, v, walk[-1]), composed)


class TestAgreementWithSolver:
    def test_verdicts_and_domains_match(self):
        for seed in range(60):
            net = gen_random_stn(
                n=4 + seed % 20, density=(0.1, 0.3, 0.6)[seed % 3],
                wmin=-10, wmax=10, horizon=120, seed=seed,
            )
            out = enforce_ac(net)
            oracle = oracle_minimal_domains(net)
            if isinstance(out, AcClosure):
                assert not isinstance(oracle, NegativeCycle)
                assert list(out.domains) == oracle
            else:
                assert isinstance(oracle, NegativeCycle)
                assert oracle.weight < 0
