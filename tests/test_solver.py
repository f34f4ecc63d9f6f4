import hashlib

import pytest

from conftest import SAMPLES, assert_certificate, cycle3_net, scale_stn, two_var_net, within
from stnac import (
    AcClosure,
    AcInconsistent,
    EMPTY,
    NegativeCycle,
    Stn,
    ValidationError,
    enforce_ac,
    extract_bound_solution,
    interval,
    oracle_minimal_domains,
    parse_stn,
    sample_solution,
    verify_assignment,
)
from stnac import solver
from stnac.solver import build_arcs, propagate, sweep_once
from stnac.workloads import gen_grid_stn, gen_random_stn, gen_scale_free_stn


def weak_cycle_net():
    """A cycle of weight -1 per lap under huge domains: no domain can empty
    within the sweep budget."""
    net = Stn(3)
    for v in range(3):
        net.set_domain(v, interval(0, 10**6))
    net.add_constraint(0, 1, interval(0, 0))
    net.add_constraint(1, 2, interval(0, 0))
    net.add_constraint(2, 0, interval(1, 1))
    return net


class TestEnforceAc:
    def test_two_var_closure_equals_minimal_domains(self):
        net = two_var_net()
        # independent route first: shortest paths give the minimal domains
        oracle = oracle_minimal_domains(net)
        assert oracle == [interval(0, 8), interval(2, 10)]
        out = enforce_ac(net)
        assert isinstance(out, AcClosure)
        assert list(out.domains) == oracle

    def test_positive_cycle_is_inconsistent(self):
        net = cycle3_net()
        assert isinstance(oracle_minimal_domains(net), NegativeCycle)
        out = enforce_ac(net)
        assert isinstance(out, AcInconsistent)

    def test_isolated_variable(self):
        net = Stn(1)
        net.set_domain(0, interval(3, 7))
        out = enforce_ac(net)
        assert isinstance(out, AcClosure)
        assert out.domains == (interval(3, 7),)
        assert out.iterations == 1
        assert out.checks == 0
        assert out.domain_updates == 1

    def test_empty_network(self):
        out = enforce_ac(Stn(0))
        assert isinstance(out, AcClosure)
        assert out.domains == ()

    def test_empty_constraint_reports_witness(self):
        net = Stn(2)
        net.set_domain(0, interval(0, 5))
        net.set_domain(1, interval(0, 5))
        net.add_constraint(0, 1, EMPTY)
        out = enforce_ac(net)
        assert isinstance(out, AcInconsistent)
        assert out.witness == 0
        assert out.cycle == NegativeCycle((0, 1, 0), -2)

    def test_weak_cycle_stops_at_its_parent_cycle(self):
        # no domain can empty within the budget, but the relaxation parents
        # close the cycle early
        net = weak_cycle_net()
        assert isinstance(oracle_minimal_domains(net), NegativeCycle)
        out = enforce_ac(net)
        assert isinstance(out, AcInconsistent)
        # the first round tightens n bounds, so the parents are searched right
        # after it; they close the cycle in the second round
        assert out.iterations == 2 <= net.n + 1
        assert_certificate(net, [net.domain(v) for v in range(net.n)], out)
        assert out.cycle.weight == -1

    def test_spent_budget_without_a_parent_cycle_is_a_bug(self, monkeypatch):
        # hide the weak cycle's parent cycle: the rounds then run the whole
        # budget without emptying a domain, which propagate's docstring
        # proves impossible, so the run must fail loudly, not end uncertified
        net = weak_cycle_net()
        monkeypatch.setattr(solver, "_parent_cycle", lambda lo_par, hi_par: None)
        with pytest.raises(RuntimeError, match="without a parent cycle"):
            enforce_ac(net)

    def test_iteration_cap_bound(self):
        for seed in range(30):
            net = gen_random_stn(n=12, density=0.3, wmin=-9, wmax=9, horizon=50, seed=seed)
            out = enforce_ac(net)
            assert out.iterations <= net.n + 1

    def test_determinism(self):
        net = gen_random_stn(n=20, density=0.3, wmin=-9, wmax=9, horizon=100, seed=3)
        a = enforce_ac(net)
        b = enforce_ac(net)
        assert a == b

    def test_monotone_and_idempotent(self):
        for seed in range(20):
            net = gen_random_stn(n=15, density=0.25, wmin=-5, wmax=12, horizon=80, seed=seed)
            out = enforce_ac(net)
            if not isinstance(out, AcClosure):
                continue
            for v in range(net.n):
                assert within(out.domains[v], net.domain(v))
            again = enforce_ac(net, domains=list(out.domains))
            assert isinstance(again, AcClosure)
            assert again.domains == out.domains
            assert again.iterations == 1

    def test_check_count_bound(self):
        for seed in range(20):
            net = gen_random_stn(n=18, density=0.4, wmin=-8, wmax=8, horizon=90, seed=seed)
            out = enforce_ac(net)
            assert out.checks <= 2 * (net.e + net.n) * (net.n + 1)

    def test_domain_override(self):
        net = two_var_net()
        out = enforce_ac(net, domains=[interval(8, 8), interval(0, 10)])
        assert isinstance(out, AcClosure)
        assert out.domains == (interval(8, 8), interval(10, 10))

    @pytest.mark.parametrize(
        "domains, match",
        [
            ([interval(0, 10)], "expected 2 domains"),
            ([interval(0, None), interval(0, 10)], "finite and non-empty"),
            ([interval(0, 10), EMPTY], "finite and non-empty"),
        ],
    )
    def test_bad_domain_override_rejected(self, domains, match):
        with pytest.raises(ValidationError, match=match):
            enforce_ac(two_var_net(), domains=domains)


class TestCertificates:
    """Every refutation agrees with the oracle and carries a cycle that
    re-sums negative over the network's own edges."""

    @staticmethod
    def check(net, domains=None):
        if domains is None:
            domains = [net.domain(v) for v in range(net.n)]
        ref = Stn(net.n)
        for v, d in enumerate(domains):
            ref.set_domain(v, d)
        for v, w, ivl in net.pairs():
            ref.add_constraint(v, w, ivl)
        out = enforce_ac(net, domains=domains)
        oracle = oracle_minimal_domains(ref)
        assert isinstance(out, AcInconsistent) == isinstance(oracle, NegativeCycle)
        if isinstance(out, AcInconsistent):
            assert_certificate(net, domains, out)
            return 1
        return 0

    # the default horizon leaves refutations to parent cycles; a horizon of
    # 40 also empties domains, whose walks pass through the zero point
    @pytest.mark.parametrize("horizon", [None, 40])
    @pytest.mark.parametrize(
        "make",
        [
            lambda seed, h: gen_grid_stn(4, 5, wmin=-20, wmax=20, horizon=h, seed=seed),
            lambda seed, h: gen_scale_free_stn(20, 2, wmin=-20, wmax=20, horizon=h, seed=seed),
            lambda seed, h: gen_random_stn(n=16, density=0.2, wmin=-20, wmax=20, horizon=h, seed=seed),
        ],
        ids=["grid-stn", "scale-free-stn", "random-stn"],
    )
    def test_seeded_families(self, make, horizon):
        refuted = sum(self.check(make(seed, horizon)) for seed in range(30))
        assert refuted > 0

    def test_domain_override(self):
        # consistent as stored; pinning both ends of one constraint one step
        # past its upper bound refutes it through the overridden domains
        net = gen_random_stn(n=12, density=0.3, wmin=-6, wmax=9, horizon=60, seed=4, consistent=True)
        assert self.check(net) == 0
        v, w, ivl = next((v, w, ivl) for v, w, ivl in net.pairs() if ivl.hi is not None)
        domains = [net.domain(x) for x in range(net.n)]
        domains[v] = interval(0, 0)
        domains[w] = interval(ivl.hi + 1, ivl.hi + 1)
        assert self.check(net, domains) == 1


class TestCertificateDigest:
    """The exact certificates and counters on TestCertificates' families:
    a refactor of the cycle searches must keep every byte of them."""

    FAMILIES = [
        lambda seed, h: gen_grid_stn(4, 5, wmin=-20, wmax=20, horizon=h, seed=seed),
        lambda seed, h: gen_scale_free_stn(20, 2, wmin=-20, wmax=20, horizon=h, seed=seed),
        lambda seed, h: gen_random_stn(n=16, density=0.2, wmin=-20, wmax=20, horizon=h, seed=seed),
    ]

    def test_refutations_are_pinned(self):
        records = []
        for make in self.FAMILIES:
            for horizon in (None, 40):
                for seed in range(30):
                    net = make(seed, horizon)
                    out = enforce_ac(net)
                    if isinstance(out, AcInconsistent):
                        ref = oracle_minimal_domains(net)
                        records.append(
                            (out.cycle.vertices, out.cycle.weight, out.iterations, out.checks,
                             ref.vertices, ref.weight)
                        )
        assert len(records) == 179
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == "1602e9a5cf30b1070fcb9a81475f275e91d12f8def5ed3262ab9f015a53f4039"


class TestSweepOnce:
    """The agents' sweep: slot 2 is a ghost, beyond the two swept variables.
    `stale` holds a flag per slot; the ghost's is never read."""

    def test_tightens_from_ghost_and_leaves_it(self):
        # y - x in [2, 3]; g - y in [0, 4] with the ghost g in [10, 12]
        arcs = build_arcs(3, [(0, 1, interval(2, 3)), (1, 2, interval(0, 4))])[:2]
        lo, hi = [0, 0, 10], [100, 100, 12]
        out = sweep_once(arcs, lo, hi, [True] * 3)
        assert out == ([0, 1], None, 3)  # moved, emptied, checks
        assert (lo, hi) == ([0, 6, 10], [98, 12, 12])

    def test_emptied_stops_the_sweep(self):
        # x has two arcs (y and g); g = x forces x to 200, past its bound 100
        arcs = build_arcs(3, [(0, 1, interval(0, 10)), (0, 2, interval(0, 0))])[:2]
        lo, hi = [0, 0, 200], [100, 100, 200]
        out = sweep_once(arcs, lo, hi, [True] * 3)
        assert out == ([], 0, 2)  # checks stop with x's two arcs
        assert (lo[1:], hi[1:]) == ([0, 200], [100, 200])  # y not swept, g untouched

    def test_a_variable_not_stale_is_skipped_yet_charged(self):
        # x would tighten to [8, 9] against y, but only y is flagged
        arcs = build_arcs(3, [(0, 1, interval(1, 2)), (1, 2, interval(0, 0))])[:2]
        lo, hi = [0, 10, 10], [100, 10, 10]
        stale = [False, True, False]
        out = sweep_once(arcs, lo, hi, stale)
        assert out == ([], None, 3)  # x's arc is counted though x is not re-read
        assert (lo, hi) == ([0, 10, 10], [100, 10, 10])
        assert stale == [False] * 3

    def test_a_move_flags_its_readers_ahead_and_behind(self):
        # y - x in [2, 3]; g - y in [0, 4], only x flagged: x moves and
        # flags y, ahead of it, so this sweep re-evaluates y; y moves
        # against g and flags x, behind the cursor, for the next sweep
        arcs = build_arcs(3, [(0, 1, interval(2, 3)), (1, 2, interval(0, 4))])[:2]
        lo, hi = [0, 0, 10], [100, 100, 12]
        stale = [True, False, False]
        assert sweep_once(arcs, lo, hi, stale) == ([0, 1], None, 3)
        assert (lo, hi) == ([0, 6, 10], [98, 12, 12])
        assert stale[:2] == [True, False]
        # x now moves against y and flags y, ahead of it: this sweep
        # re-evaluates y, which holds, so no flag of a variable is left
        out = sweep_once(arcs, lo, hi, stale)
        assert out == ([0], None, 3)
        assert (lo, hi) == ([3, 6, 10], [10, 12, 12])
        assert stale[:2] == [False, False]
        assert sweep_once(arcs, lo, hi, stale) == ([], None, 3)

    def test_a_dead_arc_keeps_an_emptied_variable_as_it_is(self):
        # x - y is an empty constraint, and g - x = 0 with the ghost g at 10:
        # x reads the dead arc at lo 0, so hi drops to -1, then rises to lo 10
        arcs = build_arcs(3, [(0, 1, EMPTY), (0, 2, interval(0, 0))])[:2]
        lo, hi = [0, 0, 10], [100, 100, 10]
        stale = [True] * 3
        assert sweep_once(arcs, lo, hi, stale) == ([], 0, 2)
        assert (lo[0], hi[0]) == (10, -1)
        # re-evaluated with nothing new, x keeps hi -1 rather than taking
        # lo - 1 = 9, so a sweep of every variable and one of the stale
        # variables alone both pass x and empty y
        every_lo, every_hi = lo.copy(), hi.copy()
        assert sweep_once(arcs, every_lo, every_hi, [True] * 3) == ([], 1, 3)
        assert sweep_once(arcs, lo, hi, stale) == ([], 1, 3)
        assert (lo, hi) == (every_lo, every_hi) == ([10, 0, 10], [-1, -1, 10])


class TestPropagate:
    """The central kernel: a FIFO worklist that pushes from what moved."""

    def test_one_variable_seed_reads_only_what_moved(self):
        # x1 - x0 in [0, 10], a loose x2 - x1, x3 - x2 in [0, 10]: all of
        # [0, 100] is closed.  Pinning x0 to 5 moves x1 alone, so only the
        # arcs of x0 and x1 are read, and x2's and x3's never.
        pairs = [(0, 1, interval(0, 10)), (1, 2, interval(-200, 200)), (2, 3, interval(0, 10))]
        arcs = build_arcs(4, pairs)
        lo, hi = [5, 0, 0, 0], [5, 100, 100, 100]
        out = propagate(arcs, lo, hi, [0])
        assert out == (True, None, 2, 3, 2)  # stable, walk, rounds, checks, pops
        assert (lo, hi) == ([5, 5, 0, 0], [5, 15, 100, 100])

    def test_closure_is_one_round_over_every_arc(self):
        net = gen_random_stn(n=12, density=0.3, seed=2, consistent=True)
        out = enforce_ac(net)
        arcs = build_arcs(net.n, net.pairs())
        lo = [d.lo for d in out.domains]
        hi = [d.hi for d in out.domains]
        again = propagate(arcs, lo, hi, range(net.n))
        assert again == (True, None, 1, 2 * net.e, net.n)
        assert list(out.domains) == [interval(a, b) for a, b in zip(lo, hi)]

    def test_budget_is_counted_in_rounds(self, monkeypatch):
        # the weak cycle never empties a domain; with its parent cycles
        # hidden, the run ends at the search after round n + 1
        net = weak_cycle_net()
        arcs = build_arcs(net.n, net.pairs())
        lo, hi = [0] * 3, [10**6] * 3
        searches = []
        monkeypatch.setattr(solver, "_parent_cycle", lambda lo_par, hi_par: searches.append(1))
        with pytest.raises(RuntimeError, match="round budget spent without a parent cycle"):
            propagate(arcs, lo, hi, range(net.n))
        # each round tightens at least n bounds, so every round ends in a search
        assert len(searches) == net.n + 1


class TestBuildArcs:
    def test_sources_ascend_without_a_sort(self):
        # Stn.pairs() is ascending, so every arc list fills in source order
        net = gen_random_stn(n=30, density=0.4, seed=5)
        for lst in build_arcs(net.n, net.pairs()):
            sources = [arc[0] for arc in lst]
            assert sources == sorted(set(sources))


class TestSolutions:
    def test_bound_solutions(self):
        net = two_var_net()
        out = enforce_ac(net)
        lower = extract_bound_solution(out, "lower")
        upper = extract_bound_solution(out, "upper")
        assert lower == [0, 2]
        assert upper == [8, 10]
        assert verify_assignment(net, lower) == (True, None)
        assert verify_assignment(net, upper) == (True, None)

    def test_singleton_closure(self):
        net = Stn(1)
        net.set_domain(0, interval(5, 5))
        out = enforce_ac(net)
        assert extract_bound_solution(out, "lower") == [5]
        assert extract_bound_solution(out, "upper") == [5]

    def test_rejects_inconsistent(self):
        out = enforce_ac(cycle3_net())
        with pytest.raises(ValidationError):
            extract_bound_solution(out, "lower")

    def test_rejects_bad_side(self):
        out = enforce_ac(two_var_net())
        with pytest.raises(ValidationError):
            extract_bound_solution(out, "middle")

    def test_doubled_midpoint_is_a_solution(self):
        # integer-safe convexity: A+B solves the network with doubled bounds
        for seed in range(20):
            net = gen_random_stn(n=12, density=0.3, wmin=-6, wmax=9, horizon=70, seed=seed)
            out = enforce_ac(net)
            if not isinstance(out, AcClosure):
                continue
            a = extract_bound_solution(out, "lower")
            b = extract_bound_solution(out, "upper")
            doubled = scale_stn(net, 2)
            mid = [x + y for x, y in zip(a, b)]
            assert verify_assignment(doubled, [2 * x for x in a]) == (True, None)
            assert verify_assignment(doubled, [2 * x for x in b]) == (True, None)
            assert verify_assignment(doubled, mid) == (True, None)


class TestSampleSolution:
    def test_forced_upper_pick(self):
        net = two_var_net()
        out = enforce_ac(net)
        for seed in range(200):
            sample = sample_solution(net, out, seed)
            if sample[0] == 8:
                assert sample == [8, 10]
                break
        else:
            raise AssertionError("no seed picked x = 8 in 200 tries")

    def test_singleton_is_unique(self):
        net = Stn(1)
        net.set_domain(0, interval(4, 4))
        out = enforce_ac(net)
        assert sample_solution(net, out, 123) == [4]

    def test_thousand_seeds_all_verify(self):
        net = gen_random_stn(n=10, density=0.35, wmin=-5, wmax=9, horizon=60, seed=4, consistent=True)
        out = enforce_ac(net)
        assert isinstance(out, AcClosure)
        for seed in range(1000):
            sample = sample_solution(net, out, seed)
            assert verify_assignment(net, sample) == (True, None)

    def test_deterministic_per_seed(self):
        net = gen_random_stn(n=10, density=0.35, wmin=-5, wmax=9, horizon=60, seed=4, consistent=True)
        out = enforce_ac(net)
        assert sample_solution(net, out, 9) == sample_solution(net, out, 9)

    def test_closure_of_another_network_is_rejected(self):
        net = parse_stn((SAMPLES / "cycle3.stn").read_text())
        other = enforce_ac(parse_stn((SAMPLES / "two_var.stn").read_text()))
        with pytest.raises(ValidationError):
            sample_solution(net, other, 0)

    def test_refutation_is_rejected(self):
        net = cycle3_net()
        outcome = enforce_ac(net)
        assert isinstance(outcome, AcInconsistent)
        with pytest.raises(ValidationError, match="requires a consistent closure"):
            sample_solution(net, outcome, 0)

    def test_closure_outside_the_domains_is_rejected(self):
        # a closure that lies outside the network's own domains would yield
        # values that break them
        net = parse_stn((SAMPLES / "two_var.stn").read_text())
        foreign = AcClosure((interval(50, 60), interval(50, 60)), 0, 0, 0)
        with pytest.raises(ValidationError, match="variable 0"):
            sample_solution(net, foreign, 0)

    @pytest.mark.parametrize(
        "domains",
        [
            (interval(0, 0), interval(0, 0)),  # propagation empties y
            (interval(0, 8), interval(0, 10)),  # y's closure domain is [2, 10]
            # only the arc from y to x tightens: x's closure domain is [0, 8]
            (interval(0, 10), interval(2, 10)),
        ],
    )
    def test_domains_a_sweep_tightens_are_rejected(self, domains):
        net = parse_stn((SAMPLES / "two_var.stn").read_text())
        with pytest.raises(ValidationError, match="not a closure"):
            sample_solution(net, AcClosure(domains, 0, 0, 0), 0)

    def test_domains_under_an_empty_constraint_are_rejected(self):
        # the dead arc refutes at the first variable the check pops
        net = Stn(2)
        for v in range(2):
            net.set_domain(v, interval(0, 10))
        net.add_constraint(0, 1, EMPTY)
        forged = AcClosure((interval(0, 10), interval(0, 10)), 0, 0, 0)
        with pytest.raises(ValidationError, match="not a closure"):
            sample_solution(net, forged, 0)


class TestVerifyAssignment:
    def test_accepts_valid(self):
        assert verify_assignment(two_var_net(), [0, 2]) == (True, None)

    def test_rejects_constraint_violation(self):
        ok, violation = verify_assignment(two_var_net(), [0, 9])
        assert not ok
        assert violation == ("constraint", 0, 1)

    def test_rejects_domain_violation(self):
        ok, violation = verify_assignment(two_var_net(), [-1, 2])
        assert not ok
        assert violation == ("domain", 0)

    def test_empty_network(self):
        assert verify_assignment(Stn(0), []) == (True, None)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            verify_assignment(two_var_net(), [1])
