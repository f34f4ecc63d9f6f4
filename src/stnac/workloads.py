"""Seeded instance generators for benchmarking and testing.

All randomness flows through the SplitMix64 stream in rng.py, so a
(family, parameters, seed) triple produces byte-identical files anywhere.
Free modelling choices (weight ranges, horizons, how many extra local
constraints accompany each activity) are recorded in the generated file's
provenance header.  Instances are not forced to be consistent unless
explicitly requested; both outcomes are wanted by the test suites.
Every family checks its weight range and horizon in one place
(_horizon) and starts each network from one blank timeline (_timeline)
whose variables all share the domain [0, horizon]; both multi-agent
families place their cross-agent constraints with _place_externals.

Families:

* ``random-stn``    -- n variables, each pair constrained with probability
  ``density``; the workhorse for solver/oracle cross-checks.
* ``grid-stn``      -- rows x cols lattice; a sparse road-network-style
  topology stand-in (no third-party dataset is bundled).
* ``scale-free-stn``-- preferential attachment: an m-clique seed, then each
  new vertex attaches to m distinct existing vertices picked by degree.
* ``random-mastn``  -- N agents with start/end points for ``activities``
  activities each, duration plus extra local constraints, and X external
  constraints over uniformly chosen cross-agent pairs (default
  X = 50*(N-1)).
* ``factory-mastn`` -- T tasks round-robined over N agents, duration per
  task, precedence chains per agent, and cross-agent precedences that
  connect the agent graph.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .errors import GenerationError
from .intervals import Interval, interval
from .mastn import Mastn, serialize_mastn
from .rng import SplitMix64
from .stn import DEFAULT_MAGNITUDE_CAP, Stn, serialize_stn

@dataclass(frozen=True)
class GenSpec:
    """A generator request: family name, seed, and family parameters."""

    family: str
    seed: int
    params: dict = field(default_factory=dict)


def _horizon(n_vars: int, wmin: int, wmax: int, horizon: int | None) -> int:
    """Check the weight range and the horizon; returns the horizon to use.

    With horizon None the default is 10 * n_vars * max|weight|, capped.
    """
    if wmin > wmax:
        raise GenerationError(f"weight range [{wmin}, {wmax}] is empty")
    if max(abs(wmin), abs(wmax)) > DEFAULT_MAGNITUDE_CAP:
        raise GenerationError("weight range exceeds the magnitude cap")
    if horizon is None:
        h = 10 * max(n_vars, 1) * max(abs(wmin), abs(wmax), 1)
        return min(h, DEFAULT_MAGNITUDE_CAP)
    if horizon < 0:
        raise GenerationError("horizon must be non-negative")
    if horizon > DEFAULT_MAGNITUDE_CAP:
        raise GenerationError("horizon exceeds the magnitude cap")
    return horizon


def _timeline(n: int, horizon: int) -> Stn:
    """A network of n variables with the shared domain [0, horizon] and no constraints."""
    net = Stn(n)
    domain = interval(0, horizon)
    for v in range(n):
        net.set_domain(v, domain)
    return net


def _rand_interval(rng: SplitMix64, wmin: int, wmax: int) -> Interval:
    a = rng.randint(wmin, wmax)
    return interval(a, rng.randint(a, wmax))


def _place_externals(m: Mastn, rng: SplitMix64, count: int, chosen: set, pick, ivl) -> None:
    """Add cross-agent constraints over fresh endpoint pairs until chosen holds count.

    Each try draws two agents and skips equal ones, draws the endpoints
    (v, w) = pick(i, j), and skips a pair already in chosen; a placed
    constraint gets the interval ivl().  Gives up after 1000 * count tries.
    """
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise GenerationError("could not place the requested external constraints")
        i = rng.randbelow(m.p)
        j = rng.randbelow(m.p)
        if i == j:
            continue
        v, w = pick(i, j)
        key = tuple(sorted(((i, v), (j, w))))
        if key in chosen:
            continue
        chosen.add(key)
        m.add_external(i, v, j, w, ivl())


def gen_random_stn(
    n: int,
    density: float,
    wmin: int = 1,
    wmax: int = 100,
    horizon: int | None = None,
    seed: int = 0,
    consistent: bool = False,
) -> Stn:
    """Pairwise-Bernoulli random network with domains [0, horizon].

    Each pair v < w, row by row, takes one coin that is True with
    probability ``density``; rng.misses draws a row's coins up to the next
    True, so the pairs it skips cost no method call each.  With
    ``consistent=True`` every constraint interval is placed around a hidden
    seeded assignment, so the instance is solvable by construction; its
    endpoints are clamped to the magnitude cap, which still holds the
    hidden difference because that is at most the horizon.
    """
    if n < 0:
        raise GenerationError("n must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise GenerationError("density must lie in [0, 1]")
    horizon = _horizon(n, wmin, wmax, horizon)
    rng = SplitMix64(seed)
    net = _timeline(n, horizon)
    hidden = [rng.randint(0, horizon) for _ in range(n)] if consistent else None
    slack = max(abs(wmax), 1)
    cap = DEFAULT_MAGNITUDE_CAP
    for v in range(n):
        w = v + 1
        while True:
            w += rng.misses(density, n - w)
            if w >= n:
                break
            if hidden is None:
                net.add_constraint(v, w, _rand_interval(rng, wmin, wmax))
            else:
                diff = hidden[w] - hidden[v]
                lo = diff - rng.randint(0, slack)
                hi = diff + rng.randint(0, slack)
                net.add_constraint(v, w, interval(max(lo, -cap), min(hi, cap)))
            w += 1
    return net


def gen_grid_stn(
    rows: int,
    cols: int,
    wmin: int = 1,
    wmax: int = 100,
    horizon: int | None = None,
    seed: int = 0,
) -> Stn:
    """Lattice of rows x cols variables with 4-neighbor constraints."""
    if rows < 1 or cols < 1:
        raise GenerationError("grid needs at least one row and one column")
    n = rows * cols
    horizon = _horizon(n, wmin, wmax, horizon)
    rng = SplitMix64(seed)
    net = _timeline(n, horizon)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                net.add_constraint(v, v + 1, _rand_interval(rng, wmin, wmax))
            if r + 1 < rows:
                net.add_constraint(v, v + cols, _rand_interval(rng, wmin, wmax))
    return net


def gen_scale_free_stn(
    n: int,
    m: int,
    wmin: int = 1,
    wmax: int = 100,
    horizon: int | None = None,
    seed: int = 0,
) -> Stn:
    """Preferential-attachment network: m-clique seed, m edges per new vertex."""
    if m < 1:
        raise GenerationError("attachment count m must be at least 1")
    if m >= n:
        raise GenerationError(f"attachment count m={m} must be below n={n}")
    horizon = _horizon(n, wmin, wmax, horizon)
    rng = SplitMix64(seed)
    net = _timeline(n, horizon)
    endpoints: list[int] = []  # one entry per edge endpoint: degree-weighted urn
    for v in range(m):
        for w in range(v + 1, m):
            net.add_constraint(v, w, _rand_interval(rng, wmin, wmax))
            endpoints.extend((v, w))
    if m == 1:
        endpoints.append(0)  # a lone seed vertex still needs weight in the urn
    for v in range(m, n):
        targets: list[int] = []
        while len(targets) < m:
            pick = endpoints[rng.randbelow(len(endpoints))]
            if pick not in targets:
                targets.append(pick)
        for w in targets:
            net.add_constraint(v, w, _rand_interval(rng, wmin, wmax))
            endpoints.extend((v, w))
    return net


def gen_random_mastn(
    agents: int,
    activities: int = 10,
    externals: int | None = None,
    wmin: int = 1,
    wmax: int = 100,
    horizon: int | None = None,
    seed: int = 0,
) -> Mastn:
    """N agents, two time points per activity, X uniform cross-agent constraints.

    Each activity contributes a start/end pair constrained by a random
    duration, plus activities//2 extra local distance constraints per agent.
    ``externals`` defaults to 50*(N-1), the published scaling for agent
    sweeps.
    """
    if agents < 1:
        raise GenerationError("need at least one agent")
    if activities < 1:
        raise GenerationError("need at least one activity per agent")
    if externals is None:
        externals = 50 * (agents - 1)
    if externals < 0:
        raise GenerationError("external count must be non-negative")
    n_local = 2 * activities
    horizon = _horizon(agents * n_local, wmin, wmax, horizon)
    rng = SplitMix64(seed)
    locals_: list[Stn] = []
    for _ in range(agents):
        net = _timeline(n_local, horizon)
        for t in range(activities):
            net.add_constraint(2 * t, 2 * t + 1, _rand_interval(rng, wmin, wmax))
        for _ in range(activities // 2):
            u = rng.randbelow(n_local)
            v = rng.randbelow(n_local)
            if u == v:
                continue
            net.add_constraint(u, v, _rand_interval(rng, wmin, wmax))
        locals_.append(net)
    m = Mastn(locals_)
    capacity = (agents * n_local) ** 2 - agents * n_local**2
    if externals > capacity // 2:
        raise GenerationError(
            f"{externals} externals exceed the {capacity // 2} cross-agent pairs"
        )

    def pick(i: int, j: int) -> tuple[int, int]:
        return rng.randbelow(n_local), rng.randbelow(n_local)

    _place_externals(m, rng, externals, set(), pick, lambda: _rand_interval(rng, wmin, wmax))
    return m


def gen_factory_mastn(
    agents: int,
    tasks: int,
    externals: int | None = None,
    wmin: int = 1,
    wmax: int = 100,
    horizon: int | None = None,
    seed: int = 0,
) -> Mastn:
    """T tasks handed round-robin to N agents with chained precedences.

    Every task is a start/end pair with a random duration; each agent's
    consecutive tasks are chained end-before-start; agents are connected in
    a precedence line plus extra random cross-agent precedences (default
    total 2*(N-1)).
    """
    if agents < 1:
        raise GenerationError("need at least one agent")
    if tasks < 1:
        raise GenerationError("need at least one task")
    if externals is None:
        externals = 2 * (agents - 1)
    if agents > 1 and externals < agents - 1:
        raise GenerationError("need at least N-1 externals to connect the agents")
    if agents == 1 and externals > 0:
        raise GenerationError("a single agent admits no external constraints")
    if tasks < agents:
        raise GenerationError("every agent needs at least one task")
    per_agent = [list(range(t, tasks, agents)) for t in range(agents)]
    # an external joins one agent's task end to another agent's task start
    capacity = tasks**2 - sum(len(ts) ** 2 for ts in per_agent)
    if externals > capacity:
        raise GenerationError(
            f"{externals} externals exceed the {capacity} cross-agent end-to-start pairs"
        )
    horizon = _horizon(2 * tasks, wmin, wmax, horizon)
    rng = SplitMix64(seed)
    precedence = interval(0, None)  # end must not come after the successor starts
    locals_: list[Stn] = []
    for i in range(agents):
        k = len(per_agent[i])
        net = _timeline(2 * k, horizon)
        for t in range(k):
            net.add_constraint(2 * t, 2 * t + 1, _rand_interval(rng, wmin, wmax))
        for t in range(k - 1):
            net.add_constraint(2 * t + 1, 2 * (t + 1), precedence)
        locals_.append(net)
    m = Mastn(locals_)
    if agents == 1:
        return m

    def pick(i: int, j: int) -> tuple[int, int]:  # an end point of i, a start point of j
        return 2 * rng.randbelow(len(per_agent[i])) + 1, 2 * rng.randbelow(len(per_agent[j]))

    chosen = set()
    for i in range(1, agents):  # the connecting line joins consecutive agents, never repeating
        v, w = pick(i - 1, i)
        chosen.add(((i - 1, v), (i, w)))
        m.add_external(i - 1, v, i, w, precedence)
    _place_externals(m, rng, externals, chosen, pick, lambda: precedence)
    return m


_GENERATORS = {
    "random-stn": gen_random_stn,
    "grid-stn": gen_grid_stn,
    "scale-free-stn": gen_scale_free_stn,
    "random-mastn": gen_random_mastn,
    "factory-mastn": gen_factory_mastn,
}

FAMILIES = tuple(_GENERATORS)

# Each family's parameters besides its seed, {name: type}, and the ones without
# a default: read once from the generator signatures, where int | None counts as int
_SIGNATURES = {f: inspect.signature(g, eval_str=True).parameters for f, g in _GENERATORS.items()}
_TYPES = {
    f: {
        k: int if p.annotation == int | None else p.annotation
        for k, p in ps.items()
        if k != "seed"
    }
    for f, ps in _SIGNATURES.items()
}
_REQUIRED = {
    f: [k for k, p in ps.items() if p.default is p.empty] for f, ps in _SIGNATURES.items()
}
# the value types each parameter type accepts: a bool is no number
_ACCEPTS = {int: (int,), float: (int, float), bool: (bool,)}


def parameters(family: str) -> dict[str, type]:
    """{name: type} of each parameter a family's generator takes, besides its seed."""
    return dict(_TYPES[family])


def check_spec(spec: GenSpec) -> None:
    """Check a GenSpec against its family's parameter table.

    An unknown family or parameter, a missing required parameter, a seed
    that is not an int, or a value that _ACCEPTS does not take for its
    parameter's type is a GenerationError naming them.
    """
    family = spec.family
    types = _TYPES.get(family)
    if types is None:
        raise GenerationError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if type(spec.seed) is not int:
        raise GenerationError(f"{family} seed must be an int, got {spec.seed!r}")
    for name, value in spec.params.items():
        if name not in types:
            raise GenerationError(
                f"{family} has no parameter {name!r}; it takes {', '.join(types)}"
            )
        if type(value) not in _ACCEPTS[types[name]]:
            raise GenerationError(f"{family} {name} must be {types[name].__name__}, got {value!r}")
    for name in _REQUIRED[family]:
        if name not in spec.params:
            raise GenerationError(f"{family} needs parameter {name!r}")


def generate(spec: GenSpec) -> Stn | Mastn:
    """check_spec, then call the generator; the generator's own errors pass through."""
    check_spec(spec)
    return _GENERATORS[spec.family](seed=spec.seed, **spec.params)


def render_generated(obj: Stn | Mastn, spec: GenSpec) -> str:
    """Serialize with a provenance header recording every free choice."""
    params = " ".join(f"{k}={spec.params[k]}" for k in sorted(spec.params))
    header = f"# genspec: family={spec.family} seed={spec.seed}"
    if params:
        header += f" {params}"
    lines = [header]
    if spec.family == "grid-stn":
        lines.append("# note: sparse lattice stand-in for road-network-style topologies")
    lines.append("# defaults unless overridden: weights [1,100], horizon 10*n*max|weight|")
    body = serialize_mastn(obj) if isinstance(obj, Mastn) else serialize_stn(obj)
    return "\n".join(lines) + "\n" + body
