"""Shortest-path ground truth for the arc-consistency solver.

The network maps onto a weighted digraph over the variables plus the zero
time point (vertex index n): a constraint [a, b] from v to w becomes the
edge v->w with weight b and the edge w->v with weight -a, and each domain
contributes the same pair of edges from and to the zero point.  Infinite
endpoints contribute no edge.  Bellman-Ford from the zero point in both
directions then yields the minimal domains, or an explicit negative cycle
when the network is inconsistent.

Bellman-Ford stops at the first negative cycle instead of running n full
passes before it looks (Cherkassky & Goldberg, "Negative-cycle detection
algorithms", Math. Programming 1999).  Each relaxation of v from u sets
pred[v] = u; after any pass that brings the relaxations since the last
look to at least the vertex count, one O(n) walk looks for a cycle of the
parent graph.  Two lemmas make this sound and let the loop run without a
pass cap.

(1) Every parent-graph cycle is negative.  Labels never rise, so once
pred[v] = u is set, dist[v] >= dist[u] + w(u, v) holds for as long as it
stays: dist[v] is unchanged and dist[u] can only fall.  Take the parent
edge u->v that closed the cycle.  Just before it was set, dist[v] was
higher, so the cycle edge v->s leaving v had dist[s] > dist[v] + w(v, s)
strictly.  Summing dist[x] - dist[pred x] >= w(pred x, x) around the
cycle gives 0 > its weight.

(2) While the parent graph is acyclic, following parents from any labelled
vertex v ends at the source, the one labelled vertex without a parent (a
relaxed source would have a parent, and then the walk from it could never
end).  The inequality of (1) holds along that simple tree path, so dist[v]
is at least the weight of a simple path, a bound that does not move.

So without a negative cycle the parent graph never closes a cycle, and the
loop ends on a pass that relaxes nothing, as plain Bellman-Ford does.  With
one, which the zero point reaches as it reaches every vertex, every pass
relaxes something, so a look comes at least once every n + 1 passes.  If
every look found the parent graph acyclic, every label would stay above
its bound from (2) for good (labels only fall, so one that dropped below
would still be below at the next look); integer labels that each
relaxation lowers would then allow only finitely many relaxations.  So
some look finds a cycle, and the loop needs no pass cap.

This module deliberately shares no propagation code with the solver so the
two routes can check each other.  What they do share are certify_cycle(),
the one re-summation of a negative-cycle certificate, and parent_cycle(),
the one walk that finds a cycle of a parent graph, which the solver runs
over its hi and its lo parents.  Sharing them leaves the cross-check
standing.  certify_cycle() reads every edge back from the network itself,
so a walk from either route is checked against the input, not against
the structures that produced it.  And a walk that misses a cycle cannot
pass for a consistent verdict: the solver raises RuntimeError once its
n + 1 rounds are spent, and the oracle, which has no pass cap, never
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intervals import Interval, interval
from .stn import Stn


@dataclass(frozen=True)
class NegativeCycle:
    """Witness of inconsistency: a closed vertex walk of negative total weight.

    Vertex n stands for the zero time point.  certify_cycle() builds every
    one by re-summing the walk over the network's edges.
    """

    vertices: tuple[int, ...]
    weight: int


def _edges(net: Stn) -> list[tuple[int, int, int]]:
    o = net.n
    edges: list[tuple[int, int, int]] = []
    for v in range(net.n):
        d = net.domain(v)
        edges.append((o, v, d.hi))
        edges.append((v, o, -d.lo))
    for v, w, ivl in net.pairs():
        if ivl.is_empty:
            # an empty constraint forbids every difference; the equivalent
            # weighted form is w - v <= -1 and v - w <= -1, an explicit
            # negative 2-cycle
            edges.append((v, w, -1))
            edges.append((w, v, -1))
            continue
        if ivl.hi is not None:
            edges.append((v, w, ivl.hi))
        if ivl.lo is not None:
            edges.append((w, v, -ivl.lo))
    return edges


def _bellman_ford(nv: int, edges: list[tuple[int, int, int]], src: int):
    """Single-source distances; returns (dist, None), or (dist, cycle) with a
    parent-graph cycle as a closed walk along the edges once one appears."""
    inf = float("inf")
    dist: list = [inf] * nv
    pred = [nv] * nv  # nv: no parent yet
    dist[src] = 0
    relaxed = 0  # relaxations since the parent graph was last walked
    while True:
        before = relaxed
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                relaxed += 1
        if relaxed == before:
            return dist, None
        if relaxed >= nv:
            relaxed = 0
            cycle = parent_cycle(pred)
            if cycle is not None:
                return dist, cycle


def parent_cycle(par: Sequence[int]) -> tuple[int, ...] | None:
    """A cycle of a parent graph as a closed walk along its edges, or None.

    par[v] = u stands for the edge u -> v, and a value at or above len(par)
    is a root, which has no parent.  Starts are tried in ascending order,
    and the first whose walk closes a cycle returns it; every vertex is
    visited once, in O(len(par)).
    """
    n = len(par)
    mark = [-1] * n
    for start in range(n):
        v = start
        while v < n and mark[v] < 0:
            mark[v] = start
            v = par[v]
        if v < n and mark[v] == start:
            walk = [v]
            u = par[v]
            while u != v:
                walk.append(u)
                u = par[u]
            walk.append(v)
            walk.reverse()  # parents point against the edges
            return tuple(walk)
    return None


def certify_cycle(
    net: Stn, walk: Sequence[int], domains: Sequence[Interval] | None = None
) -> NegativeCycle:
    """Re-sum a closed walk over the network's own edges; it must be negative.

    Vertex net.n is the zero point, whose edges are `domains` when given and
    the network's domains otherwise.  Raises RuntimeError when the walk is
    not closed, names a vertex outside 0..n, uses an edge the network
    lacks, or sums to a non-negative weight.
    """
    n = net.n
    if len(walk) < 2 or walk[0] != walk[-1]:
        raise RuntimeError(f"certificate {tuple(walk)} is not a closed walk")
    for v in walk:
        if not 0 <= v <= n:
            raise RuntimeError(f"certificate vertex {v} is outside 0..{n}")
    start = [net.domain(v) for v in range(n)] if domains is None else domains
    weight = 0
    for u, v in zip(walk, walk[1:]):
        if u == v:
            c = None
        elif u == n:
            c = start[v].hi
        elif v == n:
            c = -start[u].lo
        else:
            ivl = net.constraint(u, v)
            c = None if ivl is None else -1 if ivl.is_empty else ivl.hi
        if c is None:
            raise RuntimeError(f"certificate uses a missing edge {u}->{v}")
        weight += c
    if weight >= 0:
        raise RuntimeError(f"certificate re-sums to {weight}, not a negative weight")
    return NegativeCycle(tuple(walk), weight)


def oracle_minimal_domains(net: Stn) -> list[Interval] | NegativeCycle:
    """Minimal domain of every variable, or a validated negative cycle."""
    nv = net.n + 1
    edges = _edges(net)
    dist_from, cycle = _bellman_ford(nv, edges, net.n)
    if cycle is not None:
        return certify_cycle(net, cycle)
    # every variable has a finite domain, so every vertex is reachable from
    # the zero point and the first run has already seen every cycle
    dist_to, _ = _bellman_ford(nv, [(v, u, w) for u, v, w in edges], net.n)
    return [interval(-dist_to[v], dist_from[v]) for v in range(net.n)]

