"""Centralized arc-consistency solver for simple temporal networks.

enforce_ac() tightens every domain against every incident constraint,

    I_v <- I_v  intersect  (I_w compose I_wv)

until nothing changes (the closure is reached) or a negative cycle is
found, which means the network has no solution; one turns up within
n + 1 rounds.  On consistent input the closure's domains are minimal:
every value in them extends to a full solution, and the vectors of all
lower (or all upper) endpoints are themselves solutions.

The upper bounds are shortest distances from the zero time point and the
lower bounds negated distances to it, over the distance graph that
oracle.py describes, so propagation is label-correcting relaxation.
propagate() runs it as a FIFO worklist in push order: popping a variable
u reads u's arc list backwards, as the arcs from u, and tightens the
variables at their other ends; a tightened variable joins the queue
unless it is already there.  So only arcs whose source moved are revised,
as in AC-3 (Mackworth, "Consistency in networks of relations", AIJ 1977),
in the queue order of Bellman-Ford-Moore.  A round ends once every
variable queued before it began has been popped; enforce_ac() queues
every variable once, in ascending order, so its first round pops each of
them.

The kernel records, for every lo and every hi, the variable (or the zero
point) whose arc last tightened it.  Any cycle of these parent pointers
has negative weight (Cherkassky & Goldberg, "Negative-cycle detection
algorithms", Math. Programming 1999), so after each round that brings the
changes since the last look to at least n, the oracle's parent_cycle()
walks the hi parent graph and then the lo one, each in O(n), and a cycle
ends the run.  An emptied domain lo_v > hi_v is a negative cycle too: the
hi-parent path 0 -> v plus the lo-parent path v -> 0 weighs at most
hi_v - lo_v < 0.  An empty constraint between u and x gives the 2-cycle
u -> x -> u.  Every refutation therefore carries a NegativeCycle, which
enforce_ac() has oracle.certify_cycle() re-sum over the network's own
edges.

Each arc read, that is each evaluation of the update rule against a
pairwise constraint, counts as one constraint check.  The domain itself
acts as a virtual edge from the zero time point.  Bounds only ever tighten
from the start domains, so every domain stays inside its zero-point edge
and the kernel never re-applies it; it tallies the variables it pops as
domain updates instead.  The seed order and each arc list's order are
fixed, so identical inputs give identical counts.  The parent searches do
no constraint checks.

sample_solution() checks that the closure it is given is a fixpoint with
one propagate() seeded with every variable, which reads every arc, and
runs the same propagate() after each pick, seeded with the picked
variable alone.  sweep_once(), an ascending sweep, serves only the agents
of distributed.py, as their one sweep per iteration: an agent's lo/hi
arrays end in ghost slots that hold its peers' synced domains, and
sweep_once() reads them as arc sources and never writes them.  It
re-evaluates only the variables flagged stale, those with a source that
moved since their last evaluation, and leaves the bounds a sweep of every
variable would.  What it charges is that plain sweep's count: one check
per arc of every variable it passes, re-evaluated or not, so an agent's
checks and NCCC clock do not depend on what it skips.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .errors import ValidationError
from .intervals import Interval, interval
from .oracle import NegativeCycle, certify_cycle, parent_cycle
from .rng import SplitMix64
from .stn import Stn

Assignment = list[int]


@dataclass(frozen=True)
class AcClosure:
    """Arc-consistent fixpoint: minimal domains plus effort counters.

    iterations counts propagate()'s rounds, checks the arcs read and
    domain_updates the variables popped, each time one is popped.
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
    arcs: list[list[Arc]], lo: list[int], hi: list[int], stale: list[bool]
) -> tuple[list[int], int | None, int]:
    """Sweep the variables 0..len(arcs)-1 once, in ascending order, in
    place, re-evaluating only those flagged in `stale`.

    Slots of lo/hi beyond len(arcs) (an agent's ghost slots, holding its
    peers' variables) are read as arc sources and never written.  The
    sweep only tightens lo/hi, so bounds that start as the start domains
    stay within them and the zero-point edges never need re-applying.

    `stale` holds a flag for every slot of lo/hi.  A re-evaluated variable
    reads every arc into it and clears its flag.  Every constraint gives
    an arc each way, so the sources of v's arcs are the slots that read v,
    and a variable that moves flags them: this sweep re-evaluates those
    ahead of it and the next sweep those behind (a ghost slot's flag is
    never read).  Whoever writes a ghost slot with a new value flags the
    sources of its arcs, its readers, the same way.  The update is an
    idempotent min/max, so a variable none of whose sources moved since
    its last evaluation cannot move: with every flag set at the start,
    each sweep leaves exactly the bounds that a sweep re-evaluating every
    variable would.  A dead arc lowers hi below lo the same way, to at most
    lo - 1, so an emptied variable re-evaluated with nothing new keeps its
    bounds too.

    Returns (moved, emptied, checks): the variables whose domains changed
    and did not empty, ascending, the variable whose domain emptied or
    None, and the checks charged.  Every arc of every variable up to the
    emptied one is charged, re-evaluated or not, so the count is that of
    the plain sweep, whose checks are the arcs it reads.  An emptied
    domain ends the sweep at once.
    """
    moved = []
    # compress reads each flag when the sweep reaches it, so a reader ahead
    # of v that v flags below is still re-evaluated in this sweep
    for v in compress(range(len(arcs)), stale):
        stale[v] = False
        lv = lo[v]
        hv = hi[v]
        old_lo = lv
        old_hi = hv
        arcs_v = arcs[v]
        for w, add_lo, add_hi, dead in arcs_v:
            if dead:
                if lv - 1 < hv:
                    hv = lv - 1
                continue
            if add_lo is not None:
                cand = lo[w] + add_lo
                if cand > lv:
                    lv = cand
            if add_hi is not None:
                cand = hi[w] + add_hi
                if cand < hv:
                    hv = cand
        if lv != old_lo or hv != old_hi:
            lo[v] = lv
            hi[v] = hv
            for w, _, _, _ in arcs_v:
                stale[w] = True
            if lv > hv:
                return moved, v, sum(map(len, arcs[: v + 1]))
            moved.append(v)
    return moved, None, sum(map(len, arcs))


def propagate(
    arcs: list[list[Arc]], lo: list[int], hi: list[int], queue: Iterable[int]
) -> tuple[bool, tuple[int, ...] | None, int, int, int]:
    """Close lo/hi in place from the variables in `queue`, until stable or
    refuted.

    The bounds lo/hi start with are the start domains, the zero-point
    edges, and every arc whose source is not in `queue` must already hold
    (for enforce_ac() the queue is every variable).  Popping u reads each
    arc (x, add_lo, add_hi, dead) of arcs[u] backwards, as x's arc from u:
    lo_x >= lo_u - add_hi and hi_x <= hi_u - add_lo, a None side skipped,
    and a dead arc refutes at once.  A tightened bound takes u as its
    parent, and a tightened x joins the queue unless it is already there.
    Returns (stable, walk, rounds, checks, pops); walk is the closed vertex
    walk of a negative cycle when refuted, None when stable.  The bound
    magnitudes stay within a few times the parse-time cap, so the plain
    integer sums here cannot reach the 64-bit overflow range.

    Every arc holds except those read from a queued variable: popping u
    makes its arcs hold, and tightening x can break only the arcs read
    from x, which is then queued.  So an empty queue is a fixpoint.  Each
    tightening applies one of the monotone update rules, so no step passes
    below the greatest fixpoint; every order of them, full sweeps
    included, reaches the same one.

    A refutation takes at most n + 1 rounds.  A label reaches its value at
    the start or by a tightening that queues its variable, so that value is
    pushed along its arcs within the next round at the latest.  By
    induction, after round k each hi_v is at least as tight as every walk
    of at most k edges from the zero point.  Labels only tighten, so while
    hi_par[v] = u stands, hi_v >= hi_u + c(u, v), taking hi of the zero
    point as 0.  Were the hi parents acyclic after round n + 1, chaining
    this along v's tree path to the zero point, at most n edges, would make
    hi_v no tighter than that path's weight, which hi_v already was after
    round n; so round n + 1 could not have tightened it.  A hi bound that
    round n + 1 still tightens therefore leaves a cycle among the hi
    parents, and the lo side is symmetric.  An inconsistent network never
    empties the queue without emptying a domain, since a fixpoint of
    non-empty domains would hold its own all-lower solution.  A budget
    spent without a parent cycle is a bug, and raises RuntimeError.
    """
    n = len(lo)
    lo_par = [n] * n  # lo_v was last set along the edge v -> lo_par[v]
    hi_par = [n] * n  # hi_v was last set along the edge hi_par[v] -> v
    fifo = deque(queue)
    queued = [False] * n
    for v in fifo:
        queued[v] = True
    pop = fifo.popleft
    push = fifo.append
    checks = 0
    pops = 0
    rounds = 0
    since_search = 0  # bounds tightened since the last parent search
    while True:
        rounds += 1
        for _ in range(len(fifo)):
            u = pop()
            queued[u] = False
            pops += 1
            lu = lo[u]
            hu = hi[u]
            arcs_u = arcs[u]
            checks += len(arcs_u)
            # u's arc from x, read backwards: x - u lies in [-add_hi, -add_lo]
            for x, add_lo, add_hi, dead in arcs_u:
                if add_hi is not None and lu - add_hi > lo[x]:
                    lo[x] = lu - add_hi
                    lo_par[x] = u
                    if add_lo is not None and hu - add_lo < hi[x]:
                        hi[x] = hu - add_lo
                        hi_par[x] = u
                elif add_lo is not None and hu - add_lo < hi[x]:
                    hi[x] = hu - add_lo
                    hi_par[x] = u
                elif dead:
                    return False, (u, x, u), rounds, checks, pops
                else:
                    continue  # x did not move
                since_search += 1
                if lo[x] > hi[x]:
                    return False, _emptied_walk(lo_par, hi_par, x), rounds, checks, pops
                if not queued[x]:
                    queued[x] = True
                    push(x)
        if not fifo:
            return True, None, rounds, checks, pops
        if since_search >= n or rounds > n:  # a budget of n + 1 rounds
            since_search = 0
            walk = _parent_cycle(lo_par, hi_par)
            if walk is not None:
                return False, walk, rounds, checks, pops
            if rounds > n:
                raise RuntimeError("round budget spent without a parent cycle")


def _parent_cycle(lo_par: list[int], hi_par: list[int]) -> tuple[int, ...] | None:
    """A cycle of either parent graph as a closed walk along its edges, or
    None: the hi graph is searched first.  Vertex n, the zero point, is the
    root of both."""
    walk = parent_cycle(hi_par)
    if walk is not None:
        return walk
    walk = parent_cycle(lo_par)
    return None if walk is None else walk[::-1]  # lo parents point along the edges


def _emptied_walk(lo_par: list[int], hi_par: list[int], v: int) -> tuple[int, ...]:
    """Closed walk from v through the zero point certifying that v emptied."""
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
    stable, walk, rounds, checks, pops = propagate(arcs, lo, hi, range(net.n))
    if stable:
        closed = tuple(interval(a, b) for a, b in zip(lo, hi))
        return AcClosure(closed, rounds, checks, pops)
    return AcInconsistent(walk[0], rounds, checks, pops, certify_cycle(net, walk, start))


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
    start.  One propagate() seeded with every variable checks that: it
    reads every arc, so domains it leaves unchanged are a fixpoint, and
    domains it tightens or refutes are not a closure and are rejected with
    ValidationError.

    Each re-closing is propagate() seeded with the picked variable alone:
    every other arc held before the pick.  propagate() reaches the greatest
    fixpoint under the pinned domains whatever its order, so full sweeps
    would give the same draws.  The closure's domains are minimal, so no
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
    start_lo = [d.lo for d in closure.domains]
    start_hi = [d.hi for d in closure.domains]
    lo = start_lo.copy()
    hi = start_hi.copy()
    if not propagate(arcs, lo, hi, range(n))[0] or lo != start_lo or hi != start_hi:
        raise ValidationError(
            "the domains are not a closure of the network: propagation tightens them"
        )
    for v in range(n):
        lo[v] = hi[v] = rng.randint(lo[v], hi[v])
        if not propagate(arcs, lo, hi, (v,))[0]:
            raise RuntimeError("re-propagation from a closure emptied a domain; minimality is broken")
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
