import pytest

from conftest import OTHER_LINE_BREAKS, SAMPLES
from stnac import (
    FormatError,
    Mastn,
    Stn,
    ValidationError,
    agent_view,
    enforce_ac,
    flatten,
    interval,
    oracle_minimal_domains,
    parse_mastn,
    parse_stn,
    serialize_mastn,
    serialize_stn,
    solve_distributed,
    verify_assignment,
)


def local(n, horizon=50):
    net = Stn(n)
    for v in range(n):
        net.set_domain(v, interval(0, horizon))
    return net


def two_agent_problem():
    a0 = local(2)
    a0.add_constraint(0, 1, interval(1, 2))
    a1 = local(2)
    a1.add_constraint(0, 1, interval(3, 4))
    m = Mastn([a0, a1])
    m.add_external(0, 1, 1, 0, interval(0, 5))
    return m


class TestFlatten:
    def test_counts(self):
        flat, fi = flatten(two_agent_problem())
        assert flat.n == 4
        assert flat.e == 3  # one local edge per agent plus the external
        assert fi.to_global(1, 0) == 2

    def test_to_global_rejects_unknown_agents_and_variables(self):
        _, fi = flatten(parse_mastn((SAMPLES / "ring4.mastn").read_text()))
        assert [fi.to_global(a, v) for a in range(4) for v in range(2)] == list(range(8))
        for agent, var in ((0, 99), (-1, 0), (1, -1), (9, 0), (3, 2)):
            with pytest.raises(ValidationError):
                fi.to_global(agent, var)

    def test_block_diagonal_without_externals(self):
        m = Mastn([local(2), local(3)])
        flat, _ = flatten(m)
        assert flat.n == 5
        assert flat.e == 0

    def test_ring_shape_agent_graph(self):
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        neighbors = [agent_view(m, i).neighbors for i in range(m.p)]
        assert neighbors == [(1, 3), (0, 2), (1, 3), (0, 2)]

    def test_external_direction_preserved(self):
        m = two_agent_problem()
        flat, fi = flatten(m)
        g_v = fi.to_global(0, 1)
        g_w = fi.to_global(1, 0)
        assert flat.constraint(g_v, g_w) == interval(0, 5)


def gap_stn():
    """Three variables; variable 1 has no domain."""
    net = Stn(3)
    net.set_domain(0, interval(0, 5))
    net.set_domain(2, interval(0, 5))
    return net


def gap_mastn():
    """Two agents; the second has no domain for its variable 1."""
    gap = Stn(2)
    gap.set_domain(0, interval(0, 5))
    m = Mastn([local(2), gap])
    m.add_external(0, 0, 1, 1, interval(0, 3))
    return m


class TestMissingDomain:
    # each entry point reads every domain before anything else can fail,
    # so a variable without one is the first error, named by its index
    @pytest.mark.parametrize(
        "call",
        [
            oracle_minimal_domains,
            lambda net: flatten(Mastn([net])),
            enforce_ac,
            pytest.param(lambda net: enforce_ac(net, [interval(0, 5)] * 3), id="override"),
            # the domain error comes before the length check
            pytest.param(lambda net: verify_assignment(net, [0]), id="verify_assignment"),
            serialize_stn,
        ],
    )
    def test_stn(self, call):
        with pytest.raises(ValidationError, match="variable 1 has no domain"):
            call(gap_stn())

    def test_stn_file(self):
        text = "stn 3\ndomain 0 0 5\ndomain 2 0 5\nconstraint 0 2 0 1\n"
        with pytest.raises(FormatError, match="^variable 1 has no domain$"):
            parse_stn(text)

    @pytest.mark.parametrize("call", [solve_distributed, flatten])
    def test_mastn(self, call):
        with pytest.raises(ValidationError, match="^agent 1: variable 1 has no domain$"):
            call(gap_mastn())


class TestAgentView:
    def test_isolated_agent(self):
        m = Mastn([local(2), local(2)])
        view = agent_view(m, 0)
        assert view.shared_vars == ()
        assert view.external_vars == ()
        assert view.neighbors == ()

    def test_classification(self):
        m = two_agent_problem()
        v0 = agent_view(m, 0)
        assert v0.shared_vars == (1,)
        assert v0.external_vars == ((1, 0),)
        assert v0.neighbors == (1,)
        assert v0.externals[0].ivl == interval(0, 5)
        v1 = agent_view(m, 1)
        assert v1.shared_vars == (0,)
        assert v1.external_vars == ((0, 1),)
        # the same constraint seen from the other side is inverted
        assert v1.externals[0].ivl == interval(-5, 0)

    def test_fig_style_ring_view(self):
        m = parse_mastn((SAMPLES / "interview.mastn").read_text())
        alice = agent_view(m, 0)
        assert alice.neighbors == (1, 3)
        assert alice.shared_vars == (1, 2)

    def test_unknown_agent(self):
        with pytest.raises(ValidationError):
            agent_view(two_agent_problem(), 7)


class TestExternals:
    def test_same_agent_rejected(self):
        m = Mastn([local(2), local(2)])
        with pytest.raises(ValidationError):
            m.add_external(0, 0, 0, 1, interval(0, 1))

    @pytest.mark.parametrize(
        "i, v, j, w, match",
        [
            (0, 0, 2, 0, "unknown agent 2"),
            (-1, 0, 1, 0, "unknown agent -1"),
            (0, 0, 1, 2, "agent 1 has no variable 2"),
            (0, -1, 1, 0, "agent 0 has no variable -1"),
        ],
    )
    def test_unknown_endpoint_rejected(self, i, v, j, w, match):
        m = Mastn([local(2), local(2)])
        with pytest.raises(ValidationError, match=match):
            m.add_external(i, v, j, w, interval(0, 1))

    def test_duplicates_intersect(self):
        m = Mastn([local(2), local(2)])
        m.add_external(0, 0, 1, 0, interval(1, 5))
        m.add_external(1, 0, 0, 0, interval(-3, -2))  # same pair, inverted
        (ext,) = m.external_constraints()
        assert ext.ivl == interval(1, 5).intersect(interval(-3, -2).inverse())
        assert ext.ivl == interval(2, 3)

    def test_counts(self):
        m = two_agent_problem()
        assert m.total_vars == 4
        assert m.total_edges == 3


TWO_AGENTS = "mastn 2\nagent 0\ndomain 0 0 9\nagent 1\ndomain 0 0 9\n"


class TestFormat:
    def test_round_trip(self):
        m = two_agent_problem()
        assert parse_mastn(serialize_mastn(m)) == m

    def test_sample_files_round_trip(self):
        for name in ("ring4.mastn", "interview.mastn"):
            m = parse_mastn((SAMPLES / name).read_text())
            assert parse_mastn(serialize_mastn(m)) == m

    def test_sample_file_shape(self):
        m = parse_mastn((SAMPLES / "ring4.mastn").read_text())
        assert m.p == 4
        assert m.total_vars == 8
        assert len(m.external_constraints()) == 4

    def test_external_same_agent_rejected(self):
        text = "mastn 1\nagent 0\ndomain 0 0 5\ndomain 1 0 5\nexternal 0 0 0 1 1 2\n"
        with pytest.raises(FormatError) as err:
            parse_mastn(text)
        assert "two agents" in str(err.value)

    def test_duplicate_external_lines_intersect(self):
        text = (
            "mastn 2\n"
            "agent 0\ndomain 0 0 9\n"
            "agent 1\ndomain 0 0 9\n"
            "external 0 0 1 0 1 5\n"
            "external 0 0 1 0 0 3\n"
        )
        m = parse_mastn(text)
        (ext,) = m.external_constraints()
        assert ext.ivl == interval(1, 5).intersect(interval(0, 3))

    def test_missing_agent_block(self):
        with pytest.raises(FormatError) as err:
            parse_mastn("mastn 2\nagent 0\ndomain 0 0 5\n")
        assert "agent 1" in str(err.value)

    def test_missing_block_of_a_huge_problem_fails_at_once(self):
        # nothing is sized by the declared agent count before every block is found
        for text, missing in (("", 0), ("agent 0\n", 1)):
            with pytest.raises(FormatError) as err:
                parse_mastn("mastn 1000000000000\n" + text)
            assert (str(err.value), err.value.line) == (f"agent {missing} has no block", None)

    def test_blocks_in_any_order_and_split_by_an_external(self):
        # agent 1's block comes first and an external line splits agent 0's;
        # each agent reads its own block and takes its size from its own
        # domain lines, so a block paired with the wrong agent shows
        a0 = local(3)
        a0.add_constraint(0, 2, interval(1, 2))
        a1 = local(1, horizon=7)
        m = Mastn([a0, a1])
        m.add_external(0, 2, 1, 0, interval(0, 5))
        text = (
            "mastn 2\n"
            "agent 1\ndomain 0 0 7\n"
            "agent 0\ndomain 0 0 50\ndomain 1 0 50\n"
            "external 0 2 1 0 0 5\n"
            "domain 2 0 50\nconstraint 0 2 1 2\n"
        )
        assert parse_mastn(text) == parse_mastn(serialize_mastn(m)) == m
        assert [a.n for a in parse_mastn(text).agents] == [3, 1]

    def test_line_outside_block(self):
        with pytest.raises(FormatError) as err:
            parse_mastn("mastn 1\ndomain 0 0 5\nagent 0\n")
        assert err.value.line == 2

    def test_agent_declared_twice(self):
        with pytest.raises(FormatError):
            parse_mastn("mastn 1\nagent 0\ndomain 0 0 5\nagent 0\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("mastn two\n", "expected an integer"),
            ("mastn -1\n", "non-negative"),
            ("mastn 1\nagent zero\n", "expected an agent id"),
            ("mastn 1\nagent 1\n", "unknown agent 1"),
            ("mastn 1\nagent -1\n", "unknown agent -1"),
            (TWO_AGENTS + "external 0 0 1 0\n", "expected 'external"),
            (TWO_AGENTS + "external 0 0 1 0 1 2 3\n", "expected 'external"),
            (TWO_AGENTS + "external a 0 1 0 1 2\n", "must be integers"),
            (TWO_AGENTS + "external 0 0 2 0 1 2\n", "unknown agent in external"),
            (TWO_AGENTS + "external 0 0 1 0 1 x\n", "integer endpoint"),
            (TWO_AGENTS + "external 0 0 1 0 +inf 2\n", "lower endpoint"),
            # an over-cap endpoint fails even where the pair would normalize to empty
            (
                TWO_AGENTS + "external 0 0 1 0 99999999999999999 3\n",
                r"line \d+: endpoint 99999999999999999 exceeds the magnitude cap",
            ),
        ],
    )
    def test_malformed_line_rejected(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_mastn(text)

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_comment_ends_only_at_a_newline(self, sep):
        head = "mastn 1\nagent 0\ndomain 0 0 1\n"
        assert parse_mastn(head + f"# x{sep}bogus\n").agents[0].n == 1
        with pytest.raises(FormatError) as err:
            parse_mastn(head + f"# x{sep}bogus\nfoo\n")
        assert (str(err.value), err.value.line) == ("line 5: unknown directive 'foo'", 5)

    def test_local_indices_dense(self):
        # a constraint naming a variable with no domain line must fail
        text = "mastn 1\nagent 0\ndomain 0 0 5\nconstraint 0 1 1 2\n"
        with pytest.raises(FormatError):
            parse_mastn(text)

    def test_external_endpoints_by_name(self):
        text = (
            "mastn 2\n"
            "agent 0\nvar 0 slot\ndomain slot 0 9\n"
            "agent 1\nvar 0 slot\ndomain slot 0 9\n"
            "external 0 slot 1 slot 0 0\n"
        )
        (ext,) = parse_mastn(text).external_constraints()
        assert (ext.i, ext.v, ext.j, ext.w) == (0, 0, 1, 0)

