"""A synchronous reference for the distributed protocol.

On a consistent network the protocol computes, whatever the schedule, the
synchronous (Jacobi) iteration of its agents' sweeps: at iteration k every
agent reads its peers' bounds as they stood after iteration k - 1, then
sweeps its own variables once.  jacobi() runs that iteration directly with
the solver's sweep_once, one connected component of the agent graph at a
time, and the protocol's iterations, per-agent checks and domains must
equal its own.  On an inconsistent network a broadcast stops agents in the
middle of an iteration, so only the verdict is compared.
"""

from itertools import chain

import pytest

from conftest import SAMPLES
from stnac import Mastn, SimConfig, agent_view, interval, parse_mastn, solve_distributed
from stnac.solver import build_arcs, sweep_once
from stnac.workloads import gen_factory_mastn, gen_random_mastn


def jacobi(m: Mastn):
    """(verdict, iterations, checks per agent, domains per agent) of the
    synchronous iteration; all but the verdict are None when inconsistent."""
    views = [agent_view(m, i) for i in range(m.p)]
    # per agent: its own variables' arcs, its ghost slots' arcs, lo, hi,
    # stale flags, and ((peer, var), ghost slot) for each peer variable read
    own, ghost, lo, hi, stale, reads = [], [], [], [], [], []
    for view in views:
        n = view.stn.n
        # one ghost slot per peer variable read, after the own variables
        slots = {key: n + s for s, key in enumerate(view.external_vars)}
        ext = ((e.local_var, slots[e.peer_agent, e.peer_var], e.ivl) for e in view.externals)
        arcs = build_arcs(n + len(slots), chain(view.stn.pairs(), ext))
        domains = view.stn.domains()
        pad = [0] * len(slots)
        own.append(arcs[:n])
        ghost.append(arcs[n:])
        lo.append([d.lo for d in domains] + pad)
        hi.append([d.hi for d in domains] + pad)
        stale.append([True] * len(arcs))
        reads.append(slots.items())
    checks = [0] * m.p
    iterations = 0
    unseen = set(range(m.p))
    while unseen:
        component, frontier = set(), [min(unseen)]
        while frontier:
            i = frontier.pop()
            if i not in component:
                component.add(i)
                frontier.extend(views[i].neighbors)
        unseen -= component
        budget = sum(views[i].stn.n for i in component) + 1  # the agents' n_total
        for k in range(1, budget + 1):
            # every ghost slot takes its peer's bounds before anyone sweeps
            for i in component:
                n = len(own[i])
                for (j, w), s in reads[i]:
                    if (lo[j][w], hi[j][w]) != (lo[i][s], hi[i][s]):
                        lo[i][s], hi[i][s] = lo[j][w], hi[j][w]
                        for v, _, _, _ in ghost[i][s - n]:
                            stale[i][v] = True
            moved = False
            for i in component:
                changed, emptied, charged = sweep_once(own[i], lo[i], hi[i], stale[i])
                if emptied is not None:
                    return "inconsistent", None, None, None
                checks[i] += charged
                moved = moved or bool(changed)
            iterations = max(iterations, k)
            if not moved:
                break
        else:
            return "inconsistent", None, None, None
    domains = [
        tuple(interval(a, b) for a, b in zip(lo[i][: len(own[i])], hi[i])) for i in range(m.p)
    ]
    return "consistent", iterations, checks, domains


def small_random(seed: int) -> Mastn:
    return gen_random_mastn(agents=3, activities=3, externals=4,
                            wmin=-5, wmax=8, horizon=90, seed=seed)


NETS = {
    "ring4": lambda: parse_mastn((SAMPLES / "ring4.mastn").read_text()),
    "interview": lambda: parse_mastn((SAMPLES / "interview.mastn").read_text()),
    "factory-16x400": lambda: gen_factory_mastn(agents=16, tasks=400, seed=0),
    "disconnected": lambda: gen_random_mastn(agents=4, activities=2, externals=0, seed=2),
    **{f"random-3x3-s{s}": (lambda s=s: small_random(s)) for s in range(8)},
}
CONFIGS = [SimConfig(scheduler_seed=s, latency=t) for s in range(4) for t in (0, 3)]


@pytest.mark.parametrize("make", NETS.values(), ids=NETS.keys())
def test_protocol_computes_the_synchronous_iteration(make):
    m = make()
    verdict, iterations, checks, domains = jacobi(m)
    for cfg in CONFIGS:
        run = solve_distributed(m, cfg, observe=None)
        assert run.verdict == verdict
        if verdict == "consistent":
            assert (run.iterations, run.agent_checks, run.agent_domains) == (
                iterations, checks, domains
            )


def test_factory_reference_counts():
    # the sweep-heavy benchmark net: the counters TestPinnedRuns pins
    _, iterations, checks, _ = jacobi(gen_factory_mastn(agents=16, tasks=400, seed=0))
    assert (iterations, sum(checks)) == (126, 205_128)
