"""Shortest-path ground truth for the sweep-based solver.

The network maps onto a weighted digraph over the variables plus the zero
time point (vertex index n): a constraint [a, b] from v to w becomes the
edge v->w with weight b and the edge w->v with weight -a, and each domain
contributes the same pair of edges from and to the zero point.  Infinite
endpoints contribute no edge.  Bellman-Ford from the zero point in both
directions then yields the minimal domains, or an explicit negative cycle
when the network is inconsistent.

This module deliberately shares no propagation code with the solver so the
two routes can check each other.  What they do share is certify_cycle(),
the one re-summation of a negative-cycle certificate: it reads every edge
back from the network itself, so a certificate from either route is
checked against the input, not against the structures that produced it.
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
    """Single-source distances; returns (dist, pred, still_relaxing_edge)."""
    inf = float("inf")
    dist: list = [inf] * nv
    pred: list[int | None] = [None] * nv
    dist[src] = 0
    for _ in range(nv - 1):
        changed = False
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                changed = True
        if not changed:
            return dist, pred, None
    for u, v, w in edges:
        if dist[u] + w < dist[v]:
            pred[v] = u
            return dist, pred, (u, v, w)
    return dist, pred, None


def _extract_cycle(pred: list[int | None], start: int, nv: int) -> tuple[int, ...]:
    """Walk the predecessor graph back far enough to land on the cycle."""
    x = start
    for _ in range(nv):
        nxt = pred[x]
        if nxt is None:
            raise RuntimeError("predecessor walk left the relaxation graph")
        x = nxt
    cycle = [x]
    y = pred[x]
    while y != x:
        cycle.append(y)
        y = pred[y]
    cycle.append(x)
    cycle.reverse()  # pred points against edge direction
    return tuple(cycle)


def certify_cycle(
    net: Stn, walk: Sequence[int], domains: Sequence[Interval] | None = None
) -> NegativeCycle:
    """Re-sum a closed walk over the network's own edges; it must be negative.

    Vertex net.n is the zero point, whose edges are `domains` when given and
    the network's domains otherwise.  Raises RuntimeError when the walk is
    not closed, uses an edge the network lacks, or sums to a non-negative
    weight.
    """
    n = net.n
    if len(walk) < 2 or walk[0] != walk[-1]:
        raise RuntimeError(f"certificate {tuple(walk)} is not a closed walk")
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
    net.validate()
    nv = net.n + 1
    edges = _edges(net)
    dist_from, pred, neg = _bellman_ford(nv, edges, net.n)
    if neg is not None:
        return certify_cycle(net, _extract_cycle(pred, neg[1], nv))
    # every variable has a finite domain, so every vertex is reachable from
    # the zero point and the first pass has already seen every cycle
    dist_to, _, _ = _bellman_ford(nv, [(v, u, w) for u, v, w in edges], net.n)
    return [interval(-dist_to[v], dist_from[v]) for v in range(net.n)]

