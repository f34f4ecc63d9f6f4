import pytest

from stnac import (
    EMPTY,
    FormatError,
    Stn,
    ValidationError,
    interval,
    parse_stn,
    serialize_stn,
)
from stnac.stn import parse_interval

TWO_VAR_TEXT = """\
stn 2
var 0 x
var 1 y
domain 0 0 10
domain 1 0 10
constraint 0 1 2 3
"""


class TestAddConstraint:
    def test_inverse_pair_is_identity(self):
        net = Stn(2)
        net.set_domain(0, interval(0, 10))
        net.set_domain(1, interval(0, 10))
        net.add_constraint(0, 1, interval(1, 2))
        net.add_constraint(1, 0, interval(-2, -1))
        assert net.constraint(0, 1) == interval(1, 2)

    def test_duplicates_intersect(self):
        net = Stn(2)
        net.add_constraint(0, 1, interval(1, 2))
        net.add_constraint(0, 1, interval(0, 1))
        # oracle: the stored value must equal the interval intersection
        assert net.constraint(0, 1) == interval(1, 2).intersect(interval(0, 1))
        assert net.constraint(0, 1) == interval(1, 1)

    def test_contradictory_insertions_empty_the_pair(self):
        # adding [1,2] in both directions means [1,2] meets its own inverse
        net = Stn(2)
        net.add_constraint(0, 1, interval(1, 2))
        net.add_constraint(1, 0, interval(1, 2))
        assert net.constraint(0, 1) == interval(1, 2).intersect(interval(1, 2).inverse())
        assert net.constraint(0, 1) is EMPTY

    def test_self_loop_rejected(self):
        net = Stn(2)
        with pytest.raises(ValidationError):
            net.add_constraint(1, 1, interval(0, 1))

    def test_unknown_variable_rejected(self):
        net = Stn(2)
        with pytest.raises(ValidationError):
            net.add_constraint(0, 5, interval(0, 1))


class TestQueries:
    def test_both_directions(self):
        net = Stn(2)
        net.add_constraint(0, 1, interval(1, 2))
        assert net.constraint(0, 1) == interval(1, 2)
        assert net.constraint(1, 0) == interval(-2, -1)

    def test_unconstrained_pair_absent(self):
        net = Stn(3)
        net.add_constraint(0, 1, interval(1, 2))
        assert net.constraint(0, 2) is None

    def test_adjacency_symmetric_and_edge_count(self):
        net = Stn(3)
        net.add_constraint(2, 0, interval(1, 2))
        net.add_constraint(0, 1, interval(0, 5))
        assert net.e == 2
        assert [(v, w) for v, w, _ in net.pairs()] == [(0, 1), (0, 2)]
        assert net.constraint(0, 2) == interval(-2, -1)

    def test_directions_always_inverse(self):
        from stnac.workloads import gen_random_stn

        net = gen_random_stn(n=12, density=0.4, wmin=-9, wmax=9, seed=6)
        for v, w, _ in net.pairs():
            assert net.constraint(v, w) == net.constraint(w, v).inverse()

    def test_domain_rules(self):
        net = Stn(1)
        with pytest.raises(ValidationError):
            net.set_domain(0, interval(0, None))
        with pytest.raises(ValidationError):
            net.set_domain(0, EMPTY)
        with pytest.raises(ValidationError):
            net.validate()  # still unset


class TestParsing:
    def test_basic_file(self):
        net = parse_stn(TWO_VAR_TEXT)
        assert net.n == 2
        assert net.e == 1
        assert net.label(0) == "x"
        assert net.constraint(0, 1) == interval(2, 3)

    def test_round_trip(self):
        net = parse_stn(TWO_VAR_TEXT)
        assert parse_stn(serialize_stn(net)) == net

    def test_duplicate_constraint_lines_intersect(self):
        text = "stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 0 1 1 2\nconstraint 0 1 0 1\n"
        net = parse_stn(text)
        assert net.constraint(0, 1) == interval(1, 1)

    def test_infinite_domain_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_stn("stn 1\ndomain 0 0 +inf\n")
        assert "finite" in str(err.value)

    def test_missing_domain_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_stn("stn 2\ndomain 0 0 5\n")
        assert "no domain" in str(err.value)

    def test_magnitude_cap(self):
        big = 2**41
        with pytest.raises(FormatError) as err:
            parse_stn(f"stn 1\ndomain 0 0 {big}\n")
        assert "magnitude cap" in str(err.value)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_stn("stn 2\ndomain 0 0 5\nfrobnicate 1 2\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, match",
        [
            ("stn 1\nvar\ndomain 0 0 5\n", "expected 'var"),
            ("stn 1\nvar 0 x y\ndomain 0 0 5\n", "expected 'var"),
            ("stn 2\ndomain 0 0 5\ndomain 1 0 5\nconstraint 0 1\n", "expected 'constraint"),
            ("stn 2\ndomain 0 0 5\ndomain 1 0 5\nconstraint 0 1 2 3 4\n", "expected 'constraint"),
            ("stn 1 2\ndomain 0 0 5\n", "expected 'stn <n>'"),
            ("stn two\n", "expected an integer"),
            ("stn -1\n", "non-negative"),
            ("stn 1\ndomain 0 0 1.5\n", "integer endpoint"),
            (f"stn 1\ndomain 0 0 {2**63}\n", "magnitude cap"),
            # an over-cap endpoint fails even where the pair would normalize to empty
            (
                "stn 1\ndomain 0 99999999999999999 3\n",
                "line 2: endpoint 99999999999999999 exceeds the magnitude cap",
            ),
            (
                "stn 2\ndomain 0 0 9\ndomain 1 0 9\nconstraint 0 1 99999999999999999 3\n",
                "line 4: endpoint 99999999999999999 exceeds the magnitude cap",
            ),
            # a count beyond the lines after the header fails before any allocation
            ("stn 10000000000000000000\ndomain 0 0 5\n", "after the header"),
            # enough lines for the header guard, but variable 1 never gets a domain
            ("stn 2\ndomain 0 0 5\nconstraint 0 1 0 1\n", "variable 1 has no domain"),
        ],
    )
    def test_malformed_line_rejected(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_stn(text)

    def test_unknown_variable_reference(self):
        with pytest.raises(FormatError):
            parse_stn("stn 1\ndomain 0 0 5\nconstraint 0 3 1 2\n")

    def test_comments_and_blank_lines(self):
        text = "# header\n\nstn 1  # trailing\ndomain 0 0 5\n"
        assert parse_stn(text).n == 1

    def test_one_sided_constraints_allowed(self):
        text = "stn 2\ndomain 0 0 5\ndomain 1 0 5\nconstraint 0 1 0 +inf\n"
        assert parse_stn(text).constraint(0, 1) == interval(0, None)

    def test_empty_constraint_literal(self):
        text = "stn 2\ndomain 0 0 5\ndomain 1 0 5\nconstraint 0 1 empty\n"
        assert parse_stn(text).constraint(0, 1) is EMPTY

    def test_redeclared_domain_rejected(self):
        with pytest.raises(FormatError):
            parse_stn("stn 1\ndomain 0 0 5\ndomain 0 0 6\n")

    def test_references_by_declared_name(self):
        text = "stn 2\nvar 0 x\nvar 1 y\ndomain x 0 10\ndomain y 0 10\nconstraint x y 2 3\n"
        net = parse_stn(text)
        assert net.constraint(0, 1) == interval(2, 3)
        with pytest.raises(FormatError):
            parse_stn("stn 1\ndomain z 0 5\n")


class TestTokens:
    @pytest.mark.parametrize(
        "tokens,expected",
        [
            (["2", "5"], interval(2, 5)),
            (["-inf", "5"], interval(None, 5)),
            (["3", "+inf"], interval(3, None)),
            (["empty"], EMPTY),
        ],
    )
    def test_round_trip(self, tokens, expected):
        parsed = parse_interval(tokens, 1)
        assert parsed == expected
        assert parse_interval(parsed.to_tokens().split(), 1) == parsed

    def test_rejects_misplaced_infinities(self):
        with pytest.raises(FormatError):
            parse_interval(["+inf", "3"], 1)
        with pytest.raises(FormatError):
            parse_interval(["3", "-inf"], 1)

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_interval(["a", "b"], 1)
        with pytest.raises(FormatError):
            parse_interval(["1"], 1)


class TestSerialization:
    def test_deterministic_ordering(self):
        net = Stn(3)
        for v in range(3):
            net.set_domain(v, interval(0, 5))
        net.add_constraint(2, 1, interval(0, 1))
        net.add_constraint(1, 0, interval(0, 1))
        text = serialize_stn(net)
        lines = text.strip().splitlines()
        assert lines[0] == "stn 3"
        con = [ln for ln in lines if ln.startswith("constraint")]
        assert con == ["constraint 0 1 -1 0", "constraint 1 2 -1 0"]

    def test_named_vars_survive(self):
        net = parse_stn(TWO_VAR_TEXT)
        again = parse_stn(serialize_stn(net))
        assert again.name(0) == "x" and again.name(1) == "y"

    @pytest.mark.parametrize("name", ["x#y", "c d", "", "t\tab"])
    def test_names_that_cannot_round_trip_are_rejected(self, name):
        # a var line carries its name as one token before any '#' comment
        net = Stn(1)
        with pytest.raises(ValidationError, match="single token"):
            net.set_name(0, name)
