"""Multi-agent network model: per-agent local networks plus external constraints.

Each agent owns a disjoint block of variables as a local Stn.  External
constraints span two different agents and are stored once, keyed by the
unordered endpoint pair; duplicates intersect like local constraints.  An
agent's view of the problem is its own network, the external constraints it
participates in, and the domains its neighbors choose to share; it never
sees a foreign network's structure.

File format (UTF-8, '#' comments)::

    mastn <p>
    agent <i>                      # starts agent i's block
    var <v> [name]                 # agent-local lines, same syntax as .stn
    domain <v> <a> <b>
    constraint <v> <w> <a> <b>
    external <i> <v> <j> <w> <a> <b>   # a <= w_j - v_i <= b, i != j

Blocks may come in any order, and an external line may stand anywhere
after the header.  The size of each local block is inferred from its own
domain lines (one per variable, indices dense from 0).  An agent block is
.stn body text, and both formats share stn.py's line reader, header
parser, interval parser, body reader (BodyReader.read) and body writer,
so endpoints here have the same fixed magnitude cap and the same inline
rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, ValidationError
from .intervals import Interval
from .stn import BodyReader, Stn, conjoin, content_lines, read_header, split_lines, write_body


@dataclass(frozen=True)
class ExternalConstraint:
    """One cross-agent constraint in canonical orientation ((i, v) < (j, w))."""

    i: int
    v: int
    j: int
    w: int
    ivl: Interval


@dataclass(frozen=True)
class ExternalEdge:
    """An external constraint as seen from its local endpoint."""

    local_var: int
    peer_agent: int
    peer_var: int
    ivl: Interval  # oriented local_var -> peer_var


@dataclass(frozen=True)
class AgentView:
    """Everything one agent may know before any message is exchanged."""

    agent_id: int
    stn: Stn
    shared_vars: tuple[int, ...]
    external_vars: tuple[tuple[int, int], ...]
    externals: tuple[ExternalEdge, ...]
    neighbors: tuple[int, ...]
    shared_with: dict[int, tuple[int, ...]]  # neighbor -> my shared vars on our edges


class Mastn:
    def __init__(self, agents: list[Stn]):
        self.agents = list(agents)
        self._ext: dict[tuple[tuple[int, int], tuple[int, int]], Interval] = {}

    @property
    def p(self) -> int:
        return len(self.agents)

    def _check_endpoint(self, i: int, v: int) -> None:
        if not 0 <= i < self.p:
            raise ValidationError(f"unknown agent {i} (problem has {self.p})")
        if not 0 <= v < self.agents[i].n:
            raise ValidationError(f"agent {i} has no variable {v}")

    def add_external(self, i: int, v: int, j: int, w: int, ivl: Interval) -> None:
        """Insert an external constraint from (i, v) to (j, w); duplicates intersect."""
        self._check_endpoint(i, v)
        self._check_endpoint(j, w)
        if i == j:
            raise ValidationError(f"external constraint must span two agents, got agent {i} twice")
        conjoin(self._ext, (i, v), (j, w), ivl)

    def external_constraints(self) -> list[ExternalConstraint]:
        out = []
        for ((i, v), (j, w)) in sorted(self._ext):
            out.append(ExternalConstraint(i, v, j, w, self._ext[((i, v), (j, w))]))
        return out

    def domains(self) -> list[list[Interval]]:
        """Every agent's domains, agent by agent, each read before any is
        returned; a variable without one is a ValidationError naming its agent."""
        out = []
        for i, a in enumerate(self.agents):
            try:
                out.append([a.domain(v) for v in range(a.n)])
            except ValidationError as exc:
                raise ValidationError(f"agent {i}: {exc}") from None
        return out

    @property
    def total_vars(self) -> int:
        return sum(a.n for a in self.agents)

    @property
    def total_edges(self) -> int:
        return sum(a.e for a in self.agents) + len(self._ext)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mastn):
            return NotImplemented
        return self.agents == other.agents and self._ext == other._ext

    def __repr__(self) -> str:
        return f"<Mastn p={self.p} vars={self.total_vars} externals={len(self._ext)}>"


@dataclass(frozen=True)
class FlatIndex:
    """Maps (agent, local var) to its index in the flattened network."""

    offsets: tuple[int, ...]
    sizes: tuple[int, ...]

    def to_global(self, agent: int, var: int) -> int:
        if not 0 <= agent < len(self.sizes) or not 0 <= var < self.sizes[agent]:
            raise ValidationError(f"variable {var} of agent {agent} out of range")
        return self.offsets[agent] + var


def flatten(m: Mastn) -> tuple[Stn, FlatIndex]:
    """Union of all local networks and externals as one Stn.

    Solutions of the flat network correspond one-to-one with joint solutions
    of the multi-agent problem.  Named variables are prefixed 'agent.' to
    keep names unique.  Every domain is read (Mastn.domains) before the
    first is set, so a variable without one is a ValidationError at once.
    """
    offsets = []
    domains: list[Interval] = []
    for agent_domains in m.domains():
        offsets.append(len(domains))
        domains.extend(agent_domains)
    flat = Stn(len(domains))
    for v, d in enumerate(domains):
        flat.set_domain(v, d)
    for i, a in enumerate(m.agents):
        off = offsets[i]
        for v in range(a.n):
            if a.name(v) is not None:
                flat.set_name(off + v, f"{i}.{a.name(v)}")
        for v, w, ivl in a.pairs():
            flat.add_constraint(off + v, off + w, ivl)
    for ext in m.external_constraints():
        flat.add_constraint(
            offsets[ext.i] + ext.v, offsets[ext.j] + ext.w, ext.ivl
        )
    return flat, FlatIndex(tuple(offsets), tuple(a.n for a in m.agents))


def agent_view(m: Mastn, i: int) -> AgentView:
    """Classify agent i's variables and external constraints."""
    if not 0 <= i < m.p:
        raise ValidationError(f"unknown agent {i} (problem has {m.p})")
    shared: set[int] = set()
    external_vars: set[tuple[int, int]] = set()
    edges: list[ExternalEdge] = []
    neighbors: set[int] = set()
    per_neighbor: dict[int, set[int]] = {}
    # every collection below is sorted on return, so the stored order will do
    for ((a, v), (b, w)), ext_ivl in m._ext.items():
        if a == i:
            local, peer_agent, peer_var, ivl = v, b, w, ext_ivl
        elif b == i:
            local, peer_agent, peer_var, ivl = w, a, v, ext_ivl.inverse()
        else:
            continue
        shared.add(local)
        external_vars.add((peer_agent, peer_var))
        neighbors.add(peer_agent)
        per_neighbor.setdefault(peer_agent, set()).add(local)
        edges.append(ExternalEdge(local, peer_agent, peer_var, ivl))
    edges.sort(key=lambda e: (e.local_var, e.peer_agent, e.peer_var))
    return AgentView(
        agent_id=i,
        stn=m.agents[i],
        shared_vars=tuple(sorted(shared)),
        external_vars=tuple(sorted(external_vars)),
        externals=tuple(edges),
        neighbors=tuple(sorted(neighbors)),
        shared_with={j: tuple(sorted(vs)) for j, vs in sorted(per_neighbor.items())},
    )


def parse_mastn(text: str) -> Mastn:
    """Parse the .mastn text format; raises FormatError with a line number.

    Lines are classified through content_lines, and each agent's block is
    kept as its (lineno, line) pairs.  Once every agent has a block,
    BodyReader.read reads each, in agent order, into a network of one
    variable per domain line; each domain line must name a distinct
    variable in range, so once the block reads, every variable has its
    domain.  The external lines come last, through the agents' readers.
    """
    body = content_lines(split_lines(text))
    _, p = read_header(body, "mastn <p>")
    current: int | None = None
    blocks: dict[int, list[tuple[int, str]]] = {}
    sizes: dict[int, int] = {}  # domain lines per declared agent
    externals: list[tuple[int, list[str]]] = []
    for lineno, line in body:
        kind = line.split(None, 1)[0]
        if kind in ("var", "domain", "constraint"):
            if current is None:
                raise FormatError(f"{kind!r} line outside an agent block", lineno)
            blocks[current].append((lineno, line))
            if kind == "domain":
                sizes[current] += 1
        elif kind == "agent":
            tokens = line.split()
            if len(tokens) != 2:
                raise FormatError("expected 'agent <i>'", lineno)
            try:
                current = int(tokens[1])
            except ValueError:
                raise FormatError(f"expected an agent id, got {tokens[1]!r}", lineno) from None
            if not 0 <= current < p:
                raise FormatError(f"unknown agent {current} (problem has {p})", lineno)
            if current in blocks:
                raise FormatError(f"agent {current} declared twice", lineno)
            blocks[current], sizes[current] = [], 0
        elif kind == "external":
            externals.append((lineno, line.split()))
        elif kind == "mastn":
            raise FormatError("duplicate 'mastn' header", lineno)
        else:
            raise FormatError(f"unknown directive {kind!r}", lineno)
    for i in range(p):
        if i not in blocks:
            raise FormatError(f"agent {i} has no block")
    intervals: dict = {}
    readers = [BodyReader(Stn(sizes[i]), intervals) for i in range(p)]
    for i, reader in enumerate(readers):
        reader.read(blocks[i])
    m = Mastn([r.net for r in readers])
    for lineno, tokens in externals:
        if len(tokens) not in (6, 7):
            raise FormatError("expected 'external <i> <v> <j> <w> <a> <b>'", lineno)
        try:
            i, j = int(tokens[1]), int(tokens[3])
        except ValueError:
            raise FormatError("external agent ids must be integers", lineno) from None
        if not 0 <= i < p or not 0 <= j < p:
            raise FormatError(f"unknown agent in external ({i}, {j})", lineno)
        v = readers[i].index(tokens[2], lineno)
        w = readers[j].index(tokens[4], lineno)
        ivl = readers[i].interval(tokens[5:], lineno)
        try:
            m.add_external(i, v, j, w, ivl)
        except ValidationError as exc:
            raise FormatError(str(exc), lineno) from None
    return m


def serialize_mastn(m: Mastn) -> str:
    """Emit the .mastn form: agents ascending, then externals in canonical order."""
    lines = [f"mastn {m.p}"]
    for i, a in enumerate(m.agents):
        lines.append(f"agent {i}")
        write_body(a, lines)
    for ext in m.external_constraints():
        lines.append(f"external {ext.i} {ext.v} {ext.j} {ext.w} {ext.ivl.to_tokens()}")
    return "\n".join(lines) + "\n"
