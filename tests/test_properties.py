"""Property tests: text-format round trips, parser robustness on malformed
input, and the solver against the oracle on generated networks.

Every test runs a fixed, bounded set of examples (derandomize=True) without
an example database, so a run is reproducible and cheap; conftest.py keeps
hypothesis's other caches out of the tree.
"""

import pytest
from conftest import all_pairs_distances, assert_certificate, assert_simple_cycle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stnac import (
    EMPTY,
    AcClosure,
    FormatError,
    Mastn,
    NegativeCycle,
    SolverAgent,
    Stn,
    TreeInfo,
    ValidationError,
    agent_view,
    enforce_ac,
    flatten,
    interval,
    oracle_minimal_domains,
    parse_bench_config,
    parse_mastn,
    parse_stn,
    sample_solution,
    serialize_mastn,
    serialize_stn,
    verify_assignment,
)
from stnac.rng import SplitMix64
from stnac.solver import build_arcs, sweep_once
from stnac.stn import (
    DEFAULT_MAGNITUDE_CAP,
    BodyReader,
    _endpoint,
    content_lines,
    parse_interval,
    read_header,
    split_lines,
    write_body,
)
from stnac.workloads import gen_factory_mastn, gen_grid_stn, gen_random_mastn, gen_random_stn


def bounded(max_examples: int):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


# -- generated instances ---------------------------------------------------

NAMES = st.sampled_from(["a", "x1", "y_2", "b.c", "z-0", "start"])


@st.composite
def stns(draw, max_n=5, ends=st.integers(-DEFAULT_MAGNITUDE_CAP, DEFAULT_MAGNITUDE_CAP)):
    n = draw(st.integers(0, max_n))
    net = Stn(n)
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    for v in range(n):
        a, b = sorted((draw(ends), draw(ends)))
        net.set_domain(v, interval(a, b))
        if draw(st.booleans()):
            net.set_name(v, names[v])
    if n >= 2:
        for _ in range(draw(st.integers(0, 2 * n))):
            v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            # an optional side is infinite; finite lo > hi is the empty interval
            net.add_constraint(v, w, interval(draw(st.none() | ends), draw(st.none() | ends)))
    return net


@st.composite
def mastns(draw, ends=st.integers(-DEFAULT_MAGNITUDE_CAP, DEFAULT_MAGNITUDE_CAP), min_p=0):
    m = Mastn(draw(st.lists(stns(max_n=3, ends=ends), min_size=min_p, max_size=4)))
    owners = [i for i, a in enumerate(m.agents) if a.n]
    if len(owners) >= 2:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.lists(st.sampled_from(owners), min_size=2, max_size=2, unique=True))
            v = draw(st.integers(0, m.agents[i].n - 1))
            w = draw(st.integers(0, m.agents[j].n - 1))
            lo, hi = draw(st.none() | st.integers(-99, 99)), draw(st.none() | st.integers(-99, 99))
            m.add_external(i, v, j, w, interval(lo, hi))
    return m


@bounded(30)
@given(stns())
def test_stn_round_trip(net):
    assert parse_stn(serialize_stn(net)) == net


@bounded(20)
@given(mastns())
def test_mastn_round_trip(m):
    assert parse_mastn(serialize_mastn(m)) == m


# -- texts written line by line ----------------------------------------------
# Each draw writes one insertion per line, the way a hand-made file might:
# references by name, one-sided and 'empty' constraints, both orientations
# and repeated lines.  The expected model replays the same insertions, so
# the parser must intersect duplicates and resolve every reference as the
# model API does.  Small endpoints make the parser meet tokens it has read.

SMALL_ENDS = st.integers(-4, 4) | st.sampled_from([-DEFAULT_MAGNITUDE_CAP, DEFAULT_MAGNITUDE_CAP])


def ref(net, v):
    """How a line refers to v: by name, unless v has none or its name reads
    as an integer, which parse_index takes for an index."""
    name = net.name(v)
    return name if name is not None and not name.lstrip("-").isdigit() else str(v)


def constraint_ivl(draw):
    lo, hi = draw(st.none() | SMALL_ENDS), draw(st.none() | SMALL_ENDS)
    return interval(lo, hi)


@st.composite
def block_lines(draw, max_n):
    """(network, var/domain/constraint lines that build it)."""
    n = draw(st.integers(0, max_n))
    net = Stn(n)
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    lines = []
    for v in range(n):
        if draw(st.booleans()):
            net.set_name(v, names[v])
            lines.append(f"var {v} {names[v]}")
    body = []
    for v in range(n):
        net.set_domain(v, interval(*sorted((draw(SMALL_ENDS), draw(SMALL_ENDS)))))
        body.append(f"domain {ref(net, v)} {net.domain(v).to_tokens()}")
    if n >= 2:
        for _ in range(draw(st.integers(0, 3 * n))):
            v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            ivl = constraint_ivl(draw)
            line = f"constraint {ref(net, v)} {ref(net, w)} {ivl.to_tokens()}"
            for _ in range(draw(st.integers(1, 2))):
                net.add_constraint(v, w, ivl)
                body.append(line)
    return net, lines + draw(st.permutations(body))


@bounded(40)
@given(block_lines(max_n=5))
def test_stn_lines_parse_to_their_insertions(drawn):
    net, lines = drawn
    text = "\n".join([f"stn {net.n}", *lines]) + "\n"
    assert parse_stn(text) == net
    assert parse_stn(serialize_stn(net)) == net


@st.composite
def mastn_lines(draw):
    blocks = draw(st.lists(block_lines(max_n=3), max_size=4))
    m = Mastn([net for net, _ in blocks])
    lines = [f"mastn {m.p}"]
    for i, (_, body) in enumerate(blocks):
        lines += [f"agent {i}", *body]
    owners = [i for i, a in enumerate(m.agents) if a.n]
    if len(owners) >= 2:
        for _ in range(draw(st.integers(0, 5))):
            i, j = draw(st.lists(st.sampled_from(owners), min_size=2, max_size=2, unique=True))
            v = draw(st.integers(0, m.agents[i].n - 1))
            w = draw(st.integers(0, m.agents[j].n - 1))
            ivl = constraint_ivl(draw)
            line = f"external {i} {ref(m.agents[i], v)} {j} {ref(m.agents[j], w)} {ivl.to_tokens()}"
            for _ in range(draw(st.integers(1, 2))):
                m.add_external(i, v, j, w, ivl)
                lines.append(line)
    return m, lines


@bounded(30)
@given(mastn_lines())
def test_mastn_lines_parse_to_their_insertions(drawn):
    m, lines = drawn
    assert parse_mastn("\n".join(lines) + "\n") == m
    assert parse_mastn(serialize_mastn(m)) == m


@bounded(40)
@given(stns(max_n=6, ends=st.integers(-30, 30)))
def test_solver_matches_oracle(net):
    out = enforce_ac(net)
    oracle = oracle_minimal_domains(net)
    if isinstance(oracle, NegativeCycle):
        assert not isinstance(out, AcClosure)
        assert_certificate(net, [net.domain(v) for v in range(net.n)], out)
    else:
        assert isinstance(out, AcClosure) and list(out.domains) == oracle


NETS = st.one_of(
    st.builds(
        gen_random_stn,
        n=st.integers(6, 40),
        density=st.sampled_from([0.1, 0.3, 0.6]),
        wmin=st.integers(-20, 0),
        wmax=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        consistent=st.booleans(),
    ),
    st.builds(
        gen_grid_stn,
        rows=st.integers(2, 6),
        cols=st.integers(2, 6),
        wmin=st.integers(-20, 1),
        wmax=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    ),
    stns(max_n=6, ends=st.integers(-30, 30)),
)


FLAT_NETS = st.one_of(
    st.builds(
        lambda agents, extra, seed: flatten(gen_factory_mastn(agents, agents + extra, seed=seed))[0],
        agents=st.integers(1, 4),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        lambda agents, activities, externals, seed: flatten(
            gen_random_mastn(agents, activities, 0 if agents == 1 else externals, seed=seed)
        )[0],
        agents=st.integers(1, 4),
        activities=st.integers(2, 5),
        externals=st.integers(0, 8),
        seed=st.integers(0, 2**16),
    ),
)


def plain_sweep(arcs, lo, hi):
    """The reference sweep: variables 0..len(arcs)-1 in ascending order, in
    place, each re-reading every arc into it, slots beyond them read and
    never written.  Returns (moved, emptied, arcs read), as sweep_once()
    does; an emptied domain ends the sweep."""
    moved = []
    checks = 0
    for v, arcs_v in enumerate(arcs):
        checks += len(arcs_v)
        lv, hv = lo[v], hi[v]
        for w, add_lo, add_hi, dead in arcs_v:
            if dead:
                hv = min(hv, lv - 1)
                continue
            if add_lo is not None:
                lv = max(lv, lo[w] + add_lo)
            if add_hi is not None:
                hv = min(hv, hi[w] + add_hi)
        if (lv, hv) != (lo[v], hi[v]):
            lo[v], hi[v] = lv, hv
            if lv > hv:
                return moved, v, checks
            moved.append(v)
    return moved, None, checks


def swept(arcs, lo, hi, sweeps):
    """Full plain_sweep() sweeps of lo/hi in place until one changes nothing:
    True, or False when a domain empties or `sweeps` sweeps still change."""
    for _ in range(sweeps):
        moved, emptied, _ = plain_sweep(arcs, lo, hi)
        if emptied is not None:
            return False
        if not moved:
            return True
    return False


@bounded(80)
@given(NETS | FLAT_NETS)
def test_push_worklist_matches_full_sweeps(net):
    # enforce_ac's verdict and closure are what repeated full sweeps reach
    # within n + 1 sweeps
    n = net.n
    lo = [net.domain(v).lo for v in range(n)]
    hi = [net.domain(v).hi for v in range(n)]
    closed = swept(build_arcs(n, net.pairs()), lo, hi, n + 1)
    out = enforce_ac(net)
    assert isinstance(out, AcClosure) == closed
    if closed:
        assert list(out.domains) == [interval(a, b) for a, b in zip(lo, hi)]


def resampled(net, closure, seed):
    """sample_solution's draws, each pick re-closed by full plain_sweep() sweeps."""
    arcs = build_arcs(net.n, net.pairs())
    lo = [d.lo for d in closure.domains]
    hi = [d.hi for d in closure.domains]
    rng = SplitMix64(seed)
    for v in range(net.n):
        lo[v] = hi[v] = rng.randint(lo[v], hi[v])
        assert swept(arcs, lo, hi, net.n + 1)
    return lo


@bounded(80)
@given(NETS | FLAT_NETS)
def test_sample_matches_full_repropagation(net):
    # the worklist reaches the fixpoint that full sweeps reach after each pick
    out = enforce_ac(net)
    if not isinstance(out, AcClosure):
        return
    for seed in range(3):
        sample = sample_solution(net, out, seed)
        assert sample == resampled(net, out, seed)
        assert verify_assignment(net, sample) == (True, None)


AGENT_NETS = st.one_of(
    st.builds(
        lambda agents, extra, seed: gen_factory_mastn(agents, agents + extra, seed=seed),
        agents=st.integers(2, 4),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        lambda agents, activities, externals, seed: gen_random_mastn(
            agents, activities, externals, seed=seed
        ),
        agents=st.integers(2, 4),
        activities=st.integers(2, 5),
        externals=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    ),
)


@bounded(80)
@given(AGENT_NETS, st.data())
def test_stale_sweep_matches_plain_sweep(m, data):
    # an agent's sweeps with stale flags leave what plain sweeps leave, and
    # are charged the same, while random syncs rewrite its ghost slots
    # between sweeps (all of them before the first): mostly with the peer
    # variable's start domain cut by up to an eighth at each end, now and
    # then with that shifted past its end, which tends to empty a variable
    view = agent_view(m, data.draw(st.integers(0, m.p - 1)))
    agent = SolverAgent(view, TreeInfo(parent=None, children=(), n_total=1), 0)
    arcs, ghost_arcs, stale = agent._arcs, agent._ghost_arcs, agent._stale
    lo, hi = agent._lo, agent._hi
    ref_lo, ref_hi = lo.copy(), hi.copy()
    for sweep in range(data.draw(st.integers(1, 6))):
        for slot, (j, var) in enumerate(view.external_vars, len(arcs)):
            if sweep and data.draw(st.booleans()):
                continue
            d = m.agents[j].domain(var)
            cut = st.integers(0, (d.hi - d.lo) // 8)
            a, b = d.lo + data.draw(cut), d.hi - data.draw(cut)
            if data.draw(st.integers(0, 7)) == 0:
                a, b = a + d.hi - d.lo + 1, b + d.hi - d.lo + 1
            ref_lo[slot], ref_hi[slot] = a, b
            if (a, b) != (lo[slot], hi[slot]):
                lo[slot], hi[slot] = a, b
                for v, _, _, _ in ghost_arcs[slot - len(arcs)]:
                    stale[v] = True
        assert sweep_once(arcs, lo, hi, stale) == plain_sweep(arcs, ref_lo, ref_hi)
        assert (lo, hi) == (ref_lo, ref_hi)


@bounded(60)
@given(NETS)
def test_oracle_matches_floyd_warshall(net):
    # a refutation is a simple closed walk over the network's own edges that
    # re-sums to its negative weight; a closure is the all-pairs reference's
    oracle = oracle_minimal_domains(net)
    if isinstance(oracle, NegativeCycle):
        assert_simple_cycle(net, oracle)
        with pytest.raises(AssertionError, match="negative cycle"):
            all_pairs_distances(net)
    else:
        dist = all_pairs_distances(net)
        n = net.n
        assert oracle == [interval(-dist[v][n], dist[n][v]) for v in range(n)]


# -- malformed text ----------------------------------------------------------

TOKENS = st.sampled_from(
    [
        "stn", "mastn", "agent", "var", "domain", "constraint", "external",
        "empty", "-inf", "+inf", "0", "1", "2", "3", "-1", "-7", "1.5", "x", "y",
        "#", "=", ",", "on", "off", str(2**41), str(2**63), "9" * 40,
    ]
)
LINES = st.lists(TOKENS, max_size=6).map(" ".join)
HEADERS = st.sampled_from(["", "stn 0\n", "stn 2\n", "mastn 2\nagent 0\n", "mastn 1\n"])
BENCH_LINES = st.tuples(
    st.sampled_from(
        ["command", "family", "sweep", "values", "seeds", "seed", "sched-seed", "latency",
         "timing", "n", "density", ""]
    ),
    st.sampled_from(
        ["solve", "dsolve", "random-stn", "grid-stn", "random-mastn", "factory-mastn", "n",
         "agents", "2,3", "1,,2", "0", "-1", "1.5", "nan", "on", "off", "x", "=", ""]
    ),
).map(" = ".join)
BENCH_CONFIGS = st.sampled_from(
    [
        "family = random-stn\nsweep = n\nvalues = 5,8\ndensity = 0.3\ntiming = on\n",
        "# agents\nfamily = random-mastn\nsweep = agents\nvalues = 2,3\nseeds = 2\n"
        "sched-seed = 4\nlatency = 1\n",
    ]
)


@st.composite
def mutated(draw, valid, lines=LINES):
    """A valid text with lines dropped, repeated, inserted or given a stray token."""
    text = draw(valid).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["drop", "repeat", "insert", "append"]))
        if edit == "drop" and k < len(text):
            del text[k]
        elif edit == "repeat" and k < len(text):
            text.insert(k, text[k])
        elif edit == "insert":
            text.insert(k, draw(lines))
        elif k < len(text):
            text[k] += " " + draw(TOKENS)
    return "\n".join(text)


def texts(valid):
    noise = st.tuples(HEADERS, st.lists(LINES, max_size=6)).map(lambda t: t[0] + "\n".join(t[1]))
    return noise | mutated(valid)


def parses_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@bounded(40)
@given(texts(stns(max_n=3).map(serialize_stn)))
def test_malformed_stn_raises_only_format_error(text):
    parses_or_format_error(parse_stn, text)


@bounded(40)
@given(texts(mastns().map(serialize_mastn)))
def test_malformed_mastn_raises_only_format_error(text):
    parses_or_format_error(parse_mastn, text)


BENCH_NOISE = st.lists(BENCH_LINES | LINES, max_size=8).map("\n".join)


@bounded(40)
@given(BENCH_NOISE | mutated(BENCH_CONFIGS, BENCH_LINES))
def test_malformed_bench_config_raises_only_format_error(text):
    parses_or_format_error(parse_bench_config, text)


# -- the interval reader ---------------------------------------------------

CAP = DEFAULT_MAGNITUDE_CAP
ENDPOINT_TOKENS = (
    st.sampled_from([CAP - 1, CAP, CAP + 1, -CAP + 1, -CAP, -CAP - 1]).map(str)
    | st.integers(-20, 20).map(str)
    | st.sampled_from(["-inf", "+inf", "empty"])
    # forms that int() reads besides plain digits, an Arabic-Indic three too
    | st.sampled_from(["+5", "007", "1_0", "-0", "+0", "-007", "\u0663"])
    | st.sampled_from(["1.5", "x", "1e3", "--1", "_1", "1__0", "inf", "-", ""])
    | st.text(alphabet="019+-_fin", min_size=1, max_size=4)
)


def read_or_error(read):
    try:
        return read()
    except FormatError as exc:
        return str(exc)


@bounded(400)
@given(ENDPOINT_TOKENS, ENDPOINT_TOKENS)
def test_parse_interval_reads_each_endpoint_on_its_own(a, b):
    # the reader's result, or its error text, is that of reading the lower
    # endpoint and then the upper one, each through _endpoint
    got = read_or_error(lambda: parse_interval([a, b], 7))
    want = read_or_error(
        lambda: interval(_endpoint(a, 7, "-inf", "a lower"), _endpoint(b, 7, "+inf", "an upper"))
    )
    assert got == want and type(got) is type(want)
    assert (got is EMPTY) == (want is EMPTY)


# -- the inline body reader against the line grammar -----------------------
# parse_stn stores the common line inline, in BodyReader.read, and hands every
# other line to BodyReader.apply.  The reference reads each line through
# content_lines and apply, the line grammar's own pieces, so both must give
# equal networks or the same error text and line.


def grammar_parse_stn(text):
    lines = split_lines(text)
    body = content_lines(lines)
    lineno, n = read_header(body, "stn <n>")
    left = len(lines) - lineno
    if n > left:
        raise FormatError(
            f"{n} variables but {left} lines after the header: some variable has no domain",
            lineno,
        )
    net = Stn(n)
    reader = BodyReader(net, {})
    for lineno, line in body:
        reader.apply(line.split(), lineno)
    try:
        for v in range(n):
            net.domain(v)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
    return net


def net_or_error(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


# endpoint pairs besides in-cap a <= b
ODD_PAIRS = [
    ["-inf", "3"], ["0", "+inf"], ["-inf", "+inf"], ["3", "1"], ["empty"], [str(-CAP), str(CAP)],
    ["+inf", "1"], ["1.5", "2"], [str(-CAP - 1), "3"], ["0", str(CAP + 1)],
]
ODD_INDICES = ["9", "-1", "01", "+1", "a", "x1"]


def rarely(draw) -> bool:
    return draw(st.integers(0, 4)) == 4


def reader_ends(draw, odd_pairs) -> list[str]:
    if rarely(draw):
        return draw(st.sampled_from(odd_pairs))
    return [str(e) for e in sorted((draw(st.integers(-2, 3)), draw(st.integers(-2, 3))))]


@st.composite
def reader_lines(draw, n=4, odd_pairs=ODD_PAIRS, odd=True):
    """A body line of a network of n variables that the inline reader may
    store or must hand to apply: names, v > w, self-loops, repeated pairs and
    domains, infinite, 'empty', inverted and over-cap endpoints, other
    separators, comments and blank lines.  Without odd, a constraint line on
    two distinct variables, or a blank line."""

    def index():
        if not n or rarely(draw):
            return draw(st.sampled_from(ODD_INDICES))
        return str(draw(st.integers(0, n - 1)))

    if not odd:
        if n < 2 or rarely(draw):
            return ""
        v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return " ".join(["constraint", str(v), str(w), *reader_ends(draw, odd_pairs)])
    kind = draw(st.sampled_from(["constraint"] * 5 + ["domain"] * 2 + ["var", "foo", ""]))
    if kind == "constraint":
        tokens = [kind, index(), index(), *reader_ends(draw, odd_pairs)]
    elif kind == "domain":
        tokens = [kind, index(), *reader_ends(draw, odd_pairs)]
    elif kind == "var":
        tokens = [kind, index(), draw(NAMES) if draw(st.booleans()) else index()]
    else:
        tokens = [kind] if kind else []
    line = draw(st.sampled_from([" ", " ", "  ", "\t"])).join(tokens)
    return line + draw(st.sampled_from(["", "", "", "", " ", "  # c", "\t#"]))


@st.composite
def reader_texts(draw):
    """serialize_stn output, or one domain line per variable with a few
    missing, shuffled with reader_lines.  Half the texts take no odd lines,
    so they often parse and repeat a pair; each text draws one or two odd
    endpoint pairs, so a later line often repeats an earlier one's."""
    odd_pairs = draw(st.lists(st.sampled_from(ODD_PAIRS), min_size=1, max_size=2))
    if draw(st.booleans()):
        net = draw(stns(max_n=4, ends=SMALL_ENDS))
        n, lines = net.n, serialize_stn(net).split("\n")[1:]
    else:
        n = draw(st.integers(0, 4))
        lines = [
            f"domain {v} {' '.join(reader_ends(draw, odd_pairs))}"
            for v in range(n)
            if not rarely(draw)
        ]
    odd = draw(st.booleans())
    lines += draw(st.lists(reader_lines(n, odd_pairs, odd), max_size=8))
    return "\n".join([f"stn {n}", *draw(st.permutations(lines))])


@bounded(300)
@given(reader_texts() | mutated(reader_texts(), reader_lines()))
# a memo hit is not a valid domain: the constraint line put -inf 5 in the memo
@example("stn 3\ndomain 0 0 10\ndomain 1 0 10\nconstraint 0 1 -inf 5\ndomain 2 -inf 5\n")
@example("stn 2\ndomain 0 0 9\nconstraint 0 1 0 +inf\ndomain 1 0 +inf\n")
# a new pair takes any memo hit: a one-sided pair and an inverted one (EMPTY)
@example("stn 3\ndomain 0 0 9\ndomain 1 0 9\ndomain 2 0 9\nconstraint 0 1 0 +inf\n"
         "constraint 1 2 0 +inf\n")
@example("stn 3\ndomain 0 0 9\ndomain 1 0 9\ndomain 2 0 9\nconstraint 0 1 5 3\n"
         "constraint 0 2 5 3\n")
# v > w, a repeated pair and an over-cap lower endpoint of a <= b
@example("stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 1 0 0 5\n")
@example("stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 0 1 0 5\nconstraint 0 1 3 9\n")
@example("stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 0 1 -1099511627777 5\n")
def test_inline_reader_matches_the_line_grammar(text):
    assert net_or_error(parse_stn, text) == net_or_error(grammar_parse_stn, text)


# parse_mastn reads each agent block through BodyReader.read as well.  The
# reference is the line grammar's route: content_lines, read_header, then
# BodyReader.apply on each line of each block, blocks in agent order.


def grammar_parse_mastn(text):
    body = content_lines(split_lines(text))
    _, p = read_header(body, "mastn <p>")
    current = None
    blocks, externals = {}, []
    for lineno, line in body:
        tokens = line.split()
        kind = tokens[0]
        if kind == "agent":
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
            blocks[current] = []
        elif kind in ("var", "domain", "constraint"):
            if current is None:
                raise FormatError(f"{kind!r} line outside an agent block", lineno)
            blocks[current].append((lineno, tokens))
        elif kind == "external":
            externals.append((lineno, tokens))
        elif kind == "mastn":
            raise FormatError("duplicate 'mastn' header", lineno)
        else:
            raise FormatError(f"unknown directive {kind!r}", lineno)
    for i in range(p):
        if i not in blocks:
            raise FormatError(f"agent {i} has no block")
    intervals, readers = {}, []
    for i in range(p):
        size = sum(tokens[0] == "domain" for _, tokens in blocks[i])
        readers.append(BodyReader(Stn(size), intervals))
        for lineno, tokens in blocks[i]:
            readers[i].apply(tokens, lineno)
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
        try:
            m.add_external(i, v, j, w, readers[i].interval(tokens[5:], lineno))
        except ValidationError as exc:
            raise FormatError(str(exc), lineno) from None
    return m


@st.composite
def mastn_reader_texts(draw):
    """serialize_mastn output with reader_lines added to each agent's block,
    the blocks shuffled, and each external line moved to any place after the
    header, inside a block too.  As in reader_texts, half the texts take no
    odd lines, and each draws one or two odd endpoint pairs.  An unknown
    directive fails before any block is read, so none is added here."""
    odd_pairs = draw(st.lists(st.sampled_from(ODD_PAIRS), min_size=1, max_size=2))
    odd = draw(st.booleans())
    m = draw(mastns(ends=SMALL_ENDS, min_p=1))
    blocks = []
    for i, a in enumerate(m.agents):
        body = []
        write_body(a, body)
        known = reader_lines(a.n, odd_pairs, odd).filter(lambda line: "foo" not in line)
        body += draw(st.lists(known, max_size=4))
        blocks.append([f"agent {i}", *draw(st.permutations(body))])
    lines = [line for block in draw(st.permutations(blocks)) for line in block]
    for ext in m.external_constraints():
        line = f"external {ext.i} {ext.v} {ext.j} {ext.w} {ext.ivl.to_tokens()}"
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join([f"mastn {m.p}", *lines])


@bounded(200)
@given(mastn_reader_texts() | mutated(mastn_reader_texts(), reader_lines() | LINES))
# agent 1's block first, agent 0's split by an external, and one one-sided
# memo entry read on two new pairs and the external
@example(
    "mastn 2\nagent 1\ndomain 0 0 3\nagent 0\ndomain 0 0 9\ndomain 1 0 9\n"
    "external 0 0 1 0 0 +inf\ndomain 2 0 9\nconstraint 0 1 0 +inf\nconstraint 1 2 0 +inf\n"
)
# a memo hit is not a valid domain in an agent block either
@example("mastn 1\nagent 0\ndomain 0 0 9\nconstraint 0 1 0 +inf\ndomain 1 0 +inf\n")
def test_mastn_reader_matches_the_line_grammar(text):
    assert net_or_error(parse_mastn, text) == net_or_error(grammar_parse_mastn, text)
