"""Centralized arc-consistency solver for simple temporal networks.

enforce_ac() repeatedly sweeps the variables in ascending index order,
tightening each domain against every incident constraint:

    I_v <- I_v  intersect  (I_w compose I_wv)

A run ends when a full sweep changes nothing (the closure is reached) or
a negative cycle is found, which means the network has no solution; one
turns up within n + 1 sweeps.  On consistent input the closure's domains
are minimal: every value in them extends to a full solution, and the
vectors of all lower (or all upper) endpoints are themselves solutions.

The upper bounds are shortest distances from the zero time point and the
lower bounds negated distances to it, over the distance graph that
oracle.py describes, so each sweep is a round of label-correcting
relaxations.  The kernel records, for every lo and every hi, the
neighbor (or the zero point) whose arc last tightened it.  Any cycle of
these parent pointers has negative weight (Cherkassky & Goldberg,
"Negative-cycle detection algorithms", Math. Programming 1999), so once
at least n domains have changed since the last look, both parent graphs
are searched in O(n) and a cycle ends the run.  An emptied domain
lo_v > hi_v is a negative cycle too: the hi-parent path 0 -> v plus the
lo-parent path v -> 0 weighs at most hi_v - lo_v < 0.  An empty
constraint between v and w gives the 2-cycle v -> w -> v.  Every
refutation therefore carries a NegativeCycle, which enforce_ac() has
oracle.certify_cycle() re-sum over the network's own edges.

A sweep visits only dirty variables, as AC-3 revises only the arcs whose
source has changed (Mackworth, "Consistency in networks of relations",
AIJ 1977): a variable whose domain changes flags its neighbors, and a
variable none of whose neighbors has moved since its last visit is
skipped, since re-evaluating it could change nothing.  So the bounds after
every sweep are those of a sweep over all variables, and only the work
counts fall.

Each arc evaluated, that is each evaluation of the update rule against a
pairwise constraint, counts as one constraint check.  The domain itself
acts as a virtual edge from the zero time point.  Bounds only ever tighten
from the start domains, so every domain stays inside its zero-point edge
and the kernel never re-applies it; a sweep tallies the variables it
visits as domain updates instead.  Sweep order is fixed (variables
ascending, neighbors ascending within a variable), so identical inputs
give identical counts.  The parent searches do no constraint checks.

One sweep is sweep_once(), the update step of enforce_ac() and the agents:
propagate() runs it under the budget and the parent searches, and each
agent of distributed.py runs it once per iteration.  An agent's lo/hi
arrays end in ghost slots that hold its peers' synced domains; sweep_once()
reads them as arc sources and never writes them.  An agent flags all its
variables whenever fresh syncs land in those slots.

sample_solution() re-closes after each pick without sweeps: it reads the
same arc lists backwards, pushing from each variable that moved to the
variables its arcs join, in FIFO order, so it revises only the arcs whose
source moved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError
from .intervals import Interval, interval
from .oracle import NegativeCycle, certify_cycle
from .rng import SplitMix64
from .stn import Stn

Assignment = list[int]


@dataclass(frozen=True)
class AcClosure:
    """Arc-consistent fixpoint: minimal domains plus effort counters.

    checks counts the arcs evaluated and domain_updates the variables
    visited over all sweeps; a sweep skips the clean variables.
    """

    domains: tuple[Interval, ...]
    iterations: int
    checks: int
    domain_updates: int


@dataclass(frozen=True)
class AcInconsistent:
    """No solution, certified by `cycle`: a closed walk of negative weight
    in the oracle's distance graph (vertex n is the zero point, the start
    domains are the zero-point edges).  `witness` is the variable whose
    domain emptied, or else a vertex on the cycle; it is cycle.vertices[0].
    enforce_ac() always sets both."""

    witness: int | None
    iterations: int
    checks: int
    domain_updates: int
    cycle: NegativeCycle | None = None


AcOutcome = AcClosure | AcInconsistent

# One directed update arc: (source var, lower summand, upper summand, dead).
# Tightening v against neighbor w applies lo_v = max(lo_v, lo_w + add_lo) and
# hi_v = min(hi_v, hi_w + add_hi); None skips a side (one-sided constraint)
# and dead marks an empty constraint, which empties the domain outright.
Arc = tuple[int, int | None, int | None, bool]


def build_arcs(n: int, pairs: Iterable[tuple[int, int, Interval]]) -> list[list[Arc]]:
    """Per-variable incoming update arcs, sources in ascending order.

    `pairs` yields (v, w, interval from v to w) over the vertices 0..n-1,
    and must name each vertex's partners in ascending order, since the
    lists are filled in input order and never sorted.  `Stn.pairs()` does
    (v < w, ascending), and so does an agent's chain of those pairs and
    then its ghost arcs: the ghost slots are numbered above its own
    variables in peer (agent, var) order, the order in which each
    variable's external constraints come.
    """
    arcs: list[list[Arc]] = [[] for _ in range(n)]
    for v, w, ivl in pairs:
        if ivl.is_empty:
            arcs[v].append((w, None, None, True))
            arcs[w].append((v, None, None, True))
            continue
        a, b = ivl.lo, ivl.hi
        # from w to v the constraint is [-b, -a]
        arcs[v].append((w, None if b is None else -b, None if a is None else -a, False))
        arcs[w].append((v, a, b, False))
    return arcs


def sweep_once(
    arcs: list[list[Arc]],
    lo: list[int],
    hi: list[int],
    lo_par: list[int],
    hi_par: list[int],
    dirty: list[bool],
) -> tuple[int, int | None, int, int]:
    """Sweep the dirty variables among 0..len(arcs)-1 once, in ascending
    order, in place.

    A variable whose dirty flag is clear is skipped; a visited one has its
    flag cleared, and when its domain changes it sets the flag of every
    source on its arcs.  Arcs are symmetric, so those sources are exactly
    the variables that read it: a lower-index one is visited in the next
    sweep, a higher-index one later in this sweep.  dirty covers every slot
    of lo/hi, ghosts included, so marking needs no bounds test.  Slots of
    lo/hi beyond len(arcs) (an agent's ghost slots, holding its peers'
    variables) are read as arc sources and never written.  The kernel only
    tightens lo/hi, so bounds that start as the start domains stay within
    them and the zero-point edges never need re-applying.  lo_par and
    hi_par get the source whose arc last tightened each bound; a bound no
    arc has tightened keeps its parent, len(arcs) (the zero point) at the
    start.  Returns (changed, emptied, checks, domain_updates): the number
    of changed domains, the variable whose domain emptied or None, the arcs
    evaluated and the variables visited.  An emptied domain ends the sweep
    at once, so the counts stop with that variable.
    """
    checks = 0
    changed = 0
    visited = 0
    for v in range(len(arcs)):
        if not dirty[v]:
            continue
        dirty[v] = False
        visited += 1
        lv = lo[v]
        hv = hi[v]
        old_lo = lv
        old_hi = hv
        plo = phi = -1
        arcs_v = arcs[v]
        checks += len(arcs_v)
        for w, add_lo, add_hi, dead in arcs_v:
            if dead:
                hv = lv - 1
                continue
            if add_lo is not None:
                cand = lo[w] + add_lo
                if cand > lv:
                    lv = cand
                    plo = w
            if add_hi is not None:
                cand = hi[w] + add_hi
                if cand < hv:
                    hv = cand
                    phi = w
        if lv != old_lo or hv != old_hi:
            lo[v] = lv
            hi[v] = hv
            if plo >= 0:
                lo_par[v] = plo
            if phi >= 0:
                hi_par[v] = phi
            if lv > hv:
                return changed, v, checks, visited
            changed += 1
            for arc in arcs_v:
                dirty[arc[0]] = True
    return changed, None, checks, visited


def propagate(
    arcs: list[list[Arc]], lo: list[int], hi: list[int]
) -> tuple[bool, tuple[int, ...] | None, int, int, int]:
    """Sweep lo/hi in place until stable or refuted.

    The bounds lo/hi start with are the start domains, the zero-point
    edges.  The first sweep visits every variable.  Returns (stable,
    walk, sweeps, checks, domain_updates); walk is the closed vertex walk
    of a negative cycle when refuted, None when stable.  domain_updates
    counts the variables the sweeps visited.  The bound magnitudes stay
    within a few times the parse-time cap, so the plain integer sums here
    cannot reach the 64-bit overflow range.

    Re-evaluating a variable whose sources have not moved since its last
    visit leaves its bounds and parents unchanged: that visit left each
    bound at least as tight as every arc candidate from those sources, and
    an arc sets a parent only on a strict tightening.  A source that moves
    sets the flag, so a clear variable is one this holds for, and skipping
    it changes nothing.  After every sweep the bounds, parents, changed and
    emptied are therefore those of a sweep over all variables, and so are
    the sweep counts and verdicts below.

    A refutation takes at most n + 1 sweeps.  Labels only tighten, so while
    hi_par[v] = u stands, hi_v >= hi_u + c(u, v), taking hi of the zero
    point as 0.  Were the hi parents acyclic after sweep n + 1, chaining
    this along v's tree path to the zero point, at most n edges, would make
    hi_v no tighter than that path's weight.  But after sweep n every hi_v
    was already at least as tight as every walk of at most n edges from
    the zero point, so sweep n + 1 could not have tightened it.  A hi bound
    that sweep n + 1 still tightens therefore leaves a cycle among the hi
    parents, and the lo side is symmetric.  A budget spent without a parent
    cycle is a bug, and raises RuntimeError.
    """
    n = len(lo)
    lo_par = [n] * n  # lo_v was last set along the edge v -> lo_par[v]
    hi_par = [n] * n  # hi_v was last set along the edge hi_par[v] -> v
    dirty = [True] * n
    checks = 0
    dom_updates = 0
    sweeps = 0
    since_search = 0  # domain changes since the last parent search
    while True:
        sweeps += 1
        changed, emptied, sweep_checks, sweep_updates = sweep_once(
            arcs, lo, hi, lo_par, hi_par, dirty
        )
        checks += sweep_checks
        dom_updates += sweep_updates
        if emptied is not None:
            walk = _emptied_walk(arcs, lo_par, hi_par, emptied)
            break
        if not changed:
            return True, None, sweeps, checks, dom_updates
        since_search += changed
        if since_search >= n or sweeps > n:  # a budget of n + 1 sweeps
            since_search = 0
            walk = _parent_cycle(lo_par, hi_par)
            if walk is not None:
                break
            if sweeps > n:
                raise RuntimeError("sweep budget spent without a parent cycle")
    return False, walk, sweeps, checks, dom_updates


def _parent_cycle(lo_par: list[int], hi_par: list[int]) -> tuple[int, ...] | None:
    """A cycle of either parent graph as a closed walk along its edges, or None.

    Each graph is walked once, every vertex at most once, in O(n); vertex n
    (the zero point) is the root and has no parent.
    """
    n = len(lo_par)
    for par, along_edges in ((hi_par, False), (lo_par, True)):
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
                if not along_edges:  # hi parents point against the edges
                    walk.reverse()
                return tuple(walk)
    return None


def _emptied_walk(
    arcs: list[list[Arc]], lo_par: list[int], hi_par: list[int], v: int
) -> tuple[int, ...]:
    """Closed walk from v through the zero point certifying that v emptied."""
    for w, _, _, dead in arcs[v]:
        if dead:
            return (v, w, v)
    n = len(lo_par)
    to_zero = [v]  # lo parents: v -> ... -> zero point
    from_zero = [v]  # hi parents, reversed below: zero point -> ... -> v
    for path, par in ((to_zero, lo_par), (from_zero, hi_par)):
        u = v
        while u < n:
            if len(path) > n:  # no root within n steps: the path entered a cycle
                walk = _parent_cycle(lo_par, hi_par)
                if walk is None:
                    raise RuntimeError("parent path ran past n steps without a parent cycle")
                return walk
            u = par[u]
            path.append(u)
    return tuple(to_zero + from_zero[-2::-1])


def _start_domains(net: Stn, domains: Sequence[Interval] | None) -> list[Interval]:
    """The stored domains, each read (so a missing one fails first), or the override."""
    stored = [net.domain(v) for v in range(net.n)]
    if domains is None:
        return stored
    if len(domains) != net.n:
        raise ValidationError(f"expected {net.n} domains, got {len(domains)}")
    for v, d in enumerate(domains):
        if d.is_empty or not d.is_finite:
            raise ValidationError(f"start domain of variable {v} must be finite and non-empty")
    return list(domains)


def enforce_ac(net: Stn, domains: Sequence[Interval] | None = None) -> AcOutcome:
    """Tighten all domains to the arc-consistent closure or prove inconsistency.

    `domains` optionally overrides the network's stored domains as the
    starting point (they then also serve as the virtual zero-point edges).
    """
    start = _start_domains(net, domains)
    lo = [d.lo for d in start]
    hi = [d.hi for d in start]
    arcs = build_arcs(net.n, net.pairs())
    stable, walk, sweeps, checks, dom_updates = propagate(arcs, lo, hi)
    if stable:
        closed = tuple(interval(a, b) for a, b in zip(lo, hi))
        return AcClosure(closed, sweeps, checks, dom_updates)
    return AcInconsistent(walk[0], sweeps, checks, dom_updates, certify_cycle(net, walk, start))


def extract_bound_solution(closure: AcClosure, side: str) -> Assignment:
    """All lower endpoints (side='lower') or all upper endpoints (side='upper').

    Either vector satisfies every domain and constraint of the closed network.
    """
    if not isinstance(closure, AcClosure):
        raise ValidationError("bound solutions exist only for consistent closures")
    if side == "lower":
        return [d.lo for d in closure.domains]
    if side == "upper":
        return [d.hi for d in closure.domains]
    raise ValidationError(f"side must be 'lower' or 'upper', got {side!r}")


def sample_solution(net: Stn, closure: AcClosure, seed: int) -> Assignment:
    """Draw one solution: instantiate variables in index order, each to a
    seeded-uniform value of its current domain, re-closing after each pick.

    `closure` is enforce_ac()'s closure of `net`, so every arc holds at the
    start.  Domains that one sweep would still tighten are not a closure,
    and are rejected with ValidationError.

    Each re-closing is a FIFO worklist that starts at the picked variable u.
    Popping u reads each arc (x, add_lo, add_hi, _) of arcs[u] backwards,
    as x's arc from u: lo_x >= lo_u - add_hi and hi_x <= hi_u - add_lo, a
    None side skipped.  A tightened x joins the queue unless it is already
    there.  Every arc holds except those read from a queued variable:
    popping u makes its arcs hold, and tightening x can break only the arcs
    read from x, which is then queued.  So an empty queue is a fixpoint of
    the tightening rules.  Each tightening is one of those rules, so no step
    passes below the greatest fixpoint under the pinned domains: the
    worklist and full propagate() sweeps are chaotic iterations of the same
    monotone rules, reach that same fixpoint, and give the same draws.  The
    worklist ends, since every push follows a strict tightening of integer
    bounds inside finite domains.  The closure's domains are minimal, so no
    domain can empty; one that does raises RuntimeError.
    """
    if not isinstance(closure, AcClosure):
        raise ValidationError("sampling requires a consistent closure")
    if len(closure.domains) != net.n:
        raise ValidationError(f"expected a closure of {net.n} domains, got {len(closure.domains)}")
    for v, d in enumerate(closure.domains):
        if d.is_empty or d.intersect(net.domain(v)) != d:
            raise ValidationError(
                f"closure domain {d} of variable {v} is not within its domain {net.domain(v)}"
            )
    rng = SplitMix64(seed)
    n = net.n
    arcs = build_arcs(n, net.pairs())
    lo = [d.lo for d in closure.domains]
    hi = [d.hi for d in closure.domains]
    changed, emptied, _, _ = sweep_once(arcs, lo, hi, [n] * n, [n] * n, [True] * n)
    if changed or emptied is not None:
        raise ValidationError("the domains are not a closure of the network: a sweep tightens them")
    queue: deque[int] = deque()
    queued = [False] * n
    for v in range(n):
        t = rng.randint(lo[v], hi[v])
        lo[v] = t
        hi[v] = t
        queue.append(v)
        queued[v] = True
        while queue:
            u = queue.popleft()
            queued[u] = False
            lu = lo[u]
            hu = hi[u]
            # u's arc from x, read backwards: x - u lies in [-add_hi, -add_lo]
            for x, add_lo, add_hi, _ in arcs[u]:
                moved = False
                if add_hi is not None and lu - add_hi > lo[x]:
                    lo[x] = lu - add_hi
                    moved = True
                if add_lo is not None and hu - add_lo < hi[x]:
                    hi[x] = hu - add_lo
                    moved = True
                if moved:
                    if lo[x] > hi[x]:
                        raise RuntimeError(
                            "re-propagation from a closure emptied a domain; minimality is broken"
                        )
                    if not queued[x]:
                        queued[x] = True
                        queue.append(x)
    return lo


def verify_assignment(
    net: Stn, assignment: Sequence[int]
) -> tuple[bool, tuple | None]:
    """Check every domain membership and constraint inequality.

    Returns the first violation as ('domain', v) or ('constraint', v, w).
    """
    domains = [net.domain(v) for v in range(net.n)]
    if len(assignment) != net.n:
        raise ValidationError(f"expected {net.n} values, got {len(assignment)}")
    for v, d in enumerate(domains):
        if assignment[v] not in d:
            return False, ("domain", v)
    for v, w, ivl in net.pairs():
        if (assignment[w] - assignment[v]) not in ivl:
            return False, ("constraint", v, w)
    return True, None
