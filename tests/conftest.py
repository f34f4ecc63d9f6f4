"""Shared helpers for the test suite."""

import os
import shutil
import tempfile
from pathlib import Path

from stnac import Interval, NegativeCycle, Stn, interval

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# every character besides '\n' at which str.splitlines() breaks a line; the
# parsers end a line at '\n' only
OTHER_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def pytest_configure(config):
    # hypothesis caches what it reads from local modules under ./.hypothesis
    # unless told otherwise, already while tests are collected; a directory
    # for the session, removed at its end, keeps the tree clean
    if "HYPOTHESIS_STORAGE_DIRECTORY" in os.environ:
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home

    def cleanup():
        os.environ.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)
        shutil.rmtree(home, ignore_errors=True)

    config.add_cleanup(cleanup)


def scaled_interval(ivl: Interval, factor: int) -> Interval:
    lo = None if ivl.lo is None else factor * ivl.lo
    hi = None if ivl.hi is None else factor * ivl.hi
    return interval(lo, hi)


def scale_stn(net: Stn, factor: int) -> Stn:
    """Copy of the network with every domain and constraint bound scaled."""
    out = Stn(net.n)
    for v in range(net.n):
        out.set_domain(v, scaled_interval(net.domain(v), factor))
        if net.name(v) is not None:
            out.set_name(v, net.name(v))
    for v, w, ivl in net.pairs():
        out.add_constraint(v, w, scaled_interval(ivl, factor))
    return out


def two_var_net() -> Stn:
    """x, y in [0, 10] with y - x in [2, 3]; closure is x [0,8], y [2,10]."""
    net = Stn(2)
    net.set_domain(0, interval(0, 10))
    net.set_domain(1, interval(0, 10))
    net.add_constraint(0, 1, interval(2, 3))
    return net


def cycle3_net() -> Stn:
    """Three positive steps in a directed cycle: inconsistent."""
    net = Stn(3)
    for v in range(3):
        net.set_domain(v, interval(0, 100))
    net.add_constraint(0, 1, interval(1, 2))
    net.add_constraint(1, 2, interval(1, 2))
    net.add_constraint(2, 0, interval(1, 2))
    return net


def edge_weight(net, domains, u, v):
    """Weight of the distance-graph edge u->v in the oracle's convention
    (vertex net.n is the zero point, `domains` its edges), or None."""
    zero = net.n
    if u == zero:
        return domains[v].hi
    if v == zero:
        return -domains[u].lo
    c = net.constraint(u, v)
    if c is None:
        return None
    return -1 if c.is_empty else c.hi


def assert_certificate(net, domains, out):
    """The refutation's cycle is a closed walk of the network's own edges
    that re-sums to its negative weight, starting at the witness."""
    walk = out.cycle.vertices
    assert len(walk) >= 3 and walk[0] == walk[-1] == out.witness
    weights = [edge_weight(net, domains, u, v) for u, v in zip(walk, walk[1:])]
    assert None not in weights
    assert sum(weights) == out.cycle.weight < 0


def assert_simple_cycle(net, cycle):
    """An oracle NegativeCycle is a simple closed walk over the network's own
    edges that re-sums to its negative weight."""
    assert isinstance(cycle, NegativeCycle)
    walk = cycle.vertices
    assert len(walk) >= 3 and walk[0] == walk[-1]
    assert len(set(walk[:-1])) == len(walk) - 1
    domains = [net.domain(v) for v in range(net.n)]
    weights = [edge_weight(net, domains, u, v) for u, v in zip(walk, walk[1:])]
    assert None not in weights
    assert sum(weights) == cycle.weight < 0


def all_pairs_distances(net):
    """dist[u][v], the shortest u->v distance in the oracle's distance graph
    (vertex net.n is the zero point): Floyd-Warshall over edge_weight."""
    nv = net.n + 1
    domains = [net.domain(v) for v in range(net.n)]
    inf = float("inf")
    dist = [[0 if u == v else inf for v in range(nv)] for u in range(nv)]
    for u in range(nv):
        for v in range(nv):
            w = None if u == v else edge_weight(net, domains, u, v)
            if w is not None:
                dist[u][v] = w
    for k in range(nv):
        row_k = dist[k]
        for row in dist:
            via = row[k]
            if via == inf:
                continue
            for v in range(nv):
                if via + row_k[v] < row[v]:
                    row[v] = via + row_k[v]
    assert all(dist[v][v] == 0 for v in range(nv)), "negative cycle: the network is inconsistent"
    return dist


def neighbors(net):
    """Ascending lists of the variables sharing a constraint with each variable."""
    adj = [[] for _ in range(net.n)]
    for v, w, _ in net.pairs():
        adj[v].append(w)
        adj[w].append(v)
    return adj


def within(a, b):
    """Interval a is a subset of interval b."""
    return a.intersect(b) == a
