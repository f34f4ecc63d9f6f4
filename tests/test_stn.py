import pytest

from conftest import OTHER_LINE_BREAKS
from stnac import (
    EMPTY,
    AcClosure,
    FormatError,
    GenSpec,
    Stn,
    ValidationError,
    enforce_ac,
    generate,
    interval,
    parse_mastn,
    parse_stn,
    serialize_mastn,
    serialize_stn,
)
from stnac.stn import parse_interval, split_lines

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
            net.domain(0)  # still unset

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Stn(-1), "must be non-negative, got -1"),
            (lambda: Stn(2).constraint(1, 1), "between a variable and itself"),
        ],
        ids=["negative-count", "self-pair"],
    )
    def test_invalid_calls_rejected(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()


class TestParsing:
    @pytest.mark.parametrize("token", ["01", "+1"])
    def test_index_token_read_as_an_integer(self, token):
        # not the memo's str(1), so parse_index reads it
        net = parse_stn(f"stn 2\ndomain 0 0 5\ndomain {token} 0 7\n")
        assert net.domain(1) == interval(0, 7)

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
            # the magnitude cap itself is in range on either side
            (["-1099511627776", "1099511627776"], interval(-(2**40), 2**40)),
            (["-0", "+0"], interval(0, 0)),
            (["-inf", "+inf"], interval(None, None)),
            (["3", "1"], EMPTY),  # an inverted pair reads as the canonical EMPTY
        ],
    )
    def test_round_trip(self, tokens, expected):
        parsed = parse_interval(tokens, 1)
        assert parsed == expected
        assert (parsed is EMPTY) == (expected is EMPTY)
        assert parse_interval(parsed.to_tokens().split(), 1) == parsed

    @pytest.mark.parametrize(
        "tokens, over",
        [
            (["1099511627777", "1099511627778"], "1099511627777"),  # the lower is named first
            (["1099511627777", "0"], "1099511627777"),  # an inverted pair too
            (["-1099511627777", "0"], "-1099511627777"),
            (["0", "1099511627777"], "1099511627777"),
            (["1099511627777", "x"], "1099511627777"),  # before the upper's error
        ],
    )
    def test_one_past_the_cap_rejected(self, tokens, over):
        with pytest.raises(FormatError, match=f"^line 1: endpoint {over} exceeds the magnitude cap"):
            parse_interval(tokens, 1)

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

    @pytest.mark.parametrize("name", ["2", "-1", "+5", "007", "1_000", "\u0663"])
    def test_names_that_read_as_an_index_are_rejected(self, name):
        # a reference token that int() reads is taken for an index
        net = Stn(1)
        with pytest.raises(ValidationError, match="reads as an index"):
            net.set_name(0, name)

    def test_an_integer_name_is_not_mistaken_for_another_variable(self):
        # variable 0 named '2' would otherwise be lost: 'constraint 2 1 0 1'
        # used to constrain the pair (1, 2) without a word
        text = (
            "stn 3\nvar 0 2\ndomain 0 0 10\ndomain 1 0 10\ndomain 2 0 10\n"
            "constraint 2 1 0 1\n"
        )
        with pytest.raises(FormatError) as err:
            parse_stn(text)
        assert err.value.line == 2
        assert "variable name '2' reads as an index" in str(err.value)


# Exact FormatError text and line of malformed inputs in both formats.  Rows
# whose bad line repeats the tokens of an earlier valid line check that a
# token the parser has already read once still gets every check.
STN_HEAD = "stn 2\ndomain 0 0 10\ndomain 1 0 10\n"
MASTN_HEAD = "mastn 2\nagent 0\ndomain 0 0 10\ndomain 1 0 10\nagent 1\ndomain 0 0 10\ndomain 1 0 10\n"
# agent 0 has variable 2 and uses it; agent 1 does not have it
MASTN3_HEAD = (
    "mastn 2\nagent 0\ndomain 0 0 10\ndomain 1 0 10\ndomain 2 0 10\nconstraint 0 2 3 5\n"
    "agent 1\ndomain 0 0 10\ndomain 1 0 10\n"
)
STN_ERRORS = [
    (STN_HEAD + "constraint 0 1 +inf 5\n", 4, "'+inf' cannot be a lower endpoint"),
    (STN_HEAD + "constraint 0 1 3 -inf\n", 4, "'-inf' cannot be an upper endpoint"),
    (STN_HEAD + "constraint 0 1 +inf -inf\n", 4, "'+inf' cannot be a lower endpoint"),
    (
        STN_HEAD + "constraint 0 1 2199023255553 x\n",
        4,
        "endpoint 2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    (
        STN_HEAD + "constraint 0 1 -2199023255553 -inf\n",
        4,
        "endpoint -2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    (STN_HEAD + "constraint 0 1 x 2199023255553\n", 4, "expected an integer endpoint, got 'x'"),
    (
        STN_HEAD + "constraint 0 1 5 -2199023255553\n",
        4,
        "endpoint -2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    (STN_HEAD + "constraint 0 1 1.5 2\n", 4, "expected an integer endpoint, got '1.5'"),
    (STN_HEAD + "constraint 0 1 0 x\n", 4, "expected an integer endpoint, got 'x'"),
    (STN_HEAD + "constraint 0 1 x -inf\n", 4, "expected an integer endpoint, got 'x'"),
    (STN_HEAD + "constraint 0 1 empty 3\n", 4, "expected an integer endpoint, got 'empty'"),
    (STN_HEAD + "constraint 0 1 5\n", 4, "expected two endpoints or 'empty', got ['5']"),
    (STN_HEAD + "constraint 0 1\n", 4, "expected 'constraint <v> <w> <a> <b>'"),
    (STN_HEAD + "constraint 0 1 0 1 2\n", 4, "expected 'constraint <v> <w> <a> <b>'"),
    (STN_HEAD + "constraint 0 7 0 1\n", 4, "unknown variable 7 (network has 2)"),
    (STN_HEAD + "constraint -1 0 0 1\n", 4, "unknown variable -1 (network has 2)"),
    (STN_HEAD + "constraint a 1 0 1\n", 4, "unknown variable 'a'"),
    (STN_HEAD + "constraint 9 1 x y\n", 4, "unknown variable 9 (network has 2)"),
    (STN_HEAD + "constraint 0 9 x y\n", 4, "unknown variable 9 (network has 2)"),
    (STN_HEAD + "constraint 1 1 0 1\n", 4, "self-loop constraint on variable 1"),
    (STN_HEAD + "constraint 1 1 x 1\n", 4, "expected an integer endpoint, got 'x'"),
    (STN_HEAD + "domain 0 0 5\n", 4, "domain of variable 0 redeclared"),
    (STN_HEAD + "domain 0 x y\n", 4, "domain of variable 0 redeclared"),
    # a domain whose endpoint pair an earlier constraint line has read
    (
        "stn 3\ndomain 0 0 10\ndomain 1 0 10\nconstraint 0 1 -inf 5\ndomain 2 -inf 5\n",
        5,
        "domain of variable 2 must be finite on both ends",
    ),
    (
        "stn 3\ndomain 0 0 10\ndomain 1 0 10\nconstraint 0 1 5 3\ndomain 2 5 3\n",
        5,
        "domain of variable 2 must be non-empty",
    ),
    ("stn 2\ndomain 0 1.5 3\ndomain 1 0 1\n", 2, "expected an integer endpoint, got '1.5'"),
    ("stn 2\ndomain 0 empty 3\ndomain 1 0 1\n", 2, "expected an integer endpoint, got 'empty'"),
    ("stn 2\ndomain 0 empty\ndomain 1 0 1\n", 2, "expected 'domain <v> <a> <b>'"),
    ("stn 2\ndomain 0 5 3\ndomain 1 0 1\n", 2, "domain of variable 0 must be non-empty"),
    (
        "stn 2\ndomain 0 -inf 3\ndomain 1 0 1\n",
        2,
        "domain of variable 0 must be finite on both ends",
    ),
    (
        "stn 2\ndomain 0 2199023255553 -inf\ndomain 1 0 1\n",
        2,
        "endpoint 2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    ("stn 2\ndomain 9 0 1\ndomain 1 0 1\n", 2, "unknown variable 9 (network has 2)"),
    ("stn 2\nvar 5 x\ndomain 0 0 1\ndomain 1 0 1\n", 2, "unknown variable 5 (network has 2)"),
    ("stn 2\nvar 0 a b\ndomain 0 0 1\ndomain 1 0 1\n", 2, "expected 'var <index> [name]'"),
    ("stn 2\nvar 0 x\nvar 1 x\ndomain 0 0 1\ndomain 1 0 1\n", 3, "duplicate variable name 'x'"),
    (
        "stn 2\nvar 0 x\nvar 0 y\nconstraint x 1 0 1\ndomain 0 0 1\ndomain 1 0 1\n",
        4,
        "unknown variable 'x'",
    ),
    (STN_HEAD + "foo 1 2\n", 4, "unknown directive 'foo'"),
    (STN_HEAD + "stn 3\n", 4, "duplicate 'stn' header"),
    (
        "stn 2\ndomain 0 0 1\n",
        1,
        "2 variables but 1 lines after the header: some variable has no domain",
    ),
    (
        STN_HEAD + "constraint 0 1 3 5\nconstraint 0 7 3 5\n",
        5,
        "unknown variable 7 (network has 2)",
    ),
    (
        STN_HEAD + "constraint 0 1 3 5\nconstraint 1 0 3 5 7\n",
        5,
        "expected 'constraint <v> <w> <a> <b>'",
    ),
    (
        STN_HEAD + "constraint 0 1 3 5\nconstraint 1 1 3 5\n",
        5,
        "self-loop constraint on variable 1",
    ),
    (
        "stn 2\nvar 0 x\nconstraint x 1 0 5\nvar 0 y\nvar 1 x\nconstraint x x 1 2\n"
        "domain 0 0 1\ndomain 1 0 1\n",
        6,
        "self-loop constraint on variable 1",
    ),
]
MASTN_ERRORS = [
    (
        "mastn 2\nagent 0\ndomain 0 0 10\ndomain 1 0 10\nconstraint 0 1 +inf 5\n"
        "agent 1\ndomain 0 0 10\ndomain 1 0 10\n",
        5,
        "'+inf' cannot be a lower endpoint",
    ),
    (MASTN_HEAD + "constraint 0 1 3 -inf\n", 8, "'-inf' cannot be an upper endpoint"),
    (
        MASTN_HEAD + "constraint 0 1 2199023255553 x\n",
        8,
        "endpoint 2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    (MASTN_HEAD + "constraint 0 1 1.5 2\n", 8, "expected an integer endpoint, got '1.5'"),
    (MASTN_HEAD + "constraint 0 1 0 x\n", 8, "expected an integer endpoint, got 'x'"),
    (MASTN_HEAD + "constraint 0 1 empty 3\n", 8, "expected an integer endpoint, got 'empty'"),
    (MASTN_HEAD + "constraint 0 7 0 1\n", 8, "unknown variable 7 (network has 2)"),
    (MASTN_HEAD + "constraint a 1 0 1\n", 8, "unknown variable 'a'"),
    (MASTN_HEAD + "constraint 1 1 0 1\n", 8, "self-loop constraint on variable 1"),
    (MASTN_HEAD + "domain 0 0 5\n", 8, "domain of variable 0 redeclared"),
    (MASTN_HEAD + "external 0 0 1 0 +inf 5\n", 8, "'+inf' cannot be a lower endpoint"),
    (MASTN_HEAD + "external 0 0 1 0 3 -inf\n", 8, "'-inf' cannot be an upper endpoint"),
    (
        MASTN_HEAD + "external 0 0 1 0 2199023255553 x\n",
        8,
        "endpoint 2199023255553 exceeds the magnitude cap 1099511627776",
    ),
    (MASTN_HEAD + "external 0 0 1 0 1.5 2\n", 8, "expected an integer endpoint, got '1.5'"),
    (MASTN_HEAD + "external 0 0 1 0 0 x\n", 8, "expected an integer endpoint, got 'x'"),
    (MASTN_HEAD + "external 0 0 1 0 empty 3\n", 8, "expected an integer endpoint, got 'empty'"),
    (MASTN_HEAD + "external 0 9 1 0 0 1\n", 8, "unknown variable 9 (network has 2)"),
    (MASTN_HEAD + "external 0 0 1 9 x y\n", 8, "unknown variable 9 (network has 2)"),
    (MASTN_HEAD + "external 0 a 1 0 0 1\n", 8, "unknown variable 'a'"),
    (
        MASTN_HEAD + "external 0 0 0 1 0 1\n",
        8,
        "external constraint must span two agents, got agent 0 twice",
    ),
    (MASTN_HEAD + "external 0 0 5 1 0 1\n", 8, "unknown agent in external (0, 5)"),
    (MASTN3_HEAD + "constraint 0 2 3 5\n", 10, "unknown variable 2 (network has 2)"),
    (MASTN3_HEAD + "external 0 2 1 2 3 5\n", 10, "unknown variable 2 (network has 2)"),
    (MASTN3_HEAD + "external 1 2 0 2 3 5\n", 10, "unknown variable 2 (network has 2)"),
    (
        MASTN3_HEAD + "external 0 2 1 1 3 5\nexternal 0 2 1 1 5 +inf\nexternal 1 1 0 2 3 -inf\n",
        12,
        "'-inf' cannot be an upper endpoint",
    ),
    (
        "mastn 2\nagent 0\nvar 0 x\ndomain x 0 1\nvar 0 y\nvar 1 x\ndomain x 0 1\n"
        "agent 1\ndomain 0 0 1\nexternal 0 y 1 0 0 1\nexternal 0 z 1 0 0 1\n",
        11,
        "unknown variable 'z'",
    ),
]


class TestErrorTable:
    @pytest.mark.parametrize(
        "parse, text, line, message",
        [(parse_stn, *row) for row in STN_ERRORS] + [(parse_mastn, *row) for row in MASTN_ERRORS],
    )
    def test_error_text_and_line(self, parse, text, line, message):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_comment_ends_only_at_a_newline(self, sep):
        # the text after the character is still comment, not a constraint
        text = STN_HEAD + f"# note{sep}constraint 0 1 5 3\n"
        net = parse_stn(text)
        assert net.e == 0
        assert isinstance(enforce_ac(net), AcClosure)

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS)
    def test_line_numbers_count_only_newlines(self, sep):
        with pytest.raises(FormatError) as err:
            parse_stn(STN_HEAD + f"# x{sep}y\nbogus 1\n")
        assert (str(err.value), err.value.line) == ("line 5: unknown directive 'bogus'", 5)

    def test_carriage_return_before_a_newline_is_whitespace(self):
        assert parse_stn(STN_HEAD.replace("\n", "\r\n")) == parse_stn(STN_HEAD)

    @pytest.mark.parametrize(
        "text, lines",
        [("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\nb\n", ["a", "", "b"])],
    )
    def test_split_lines_drops_only_the_final_newline(self, text, lines):
        assert split_lines(text) == lines == text.splitlines()

    def test_renamed_variable_resolves_to_its_current_owner(self):
        text = (
            "stn 2\nvar 0 x\nconstraint x 1 0 5\nvar 0 y\nvar 1 x\n"
            "constraint x 0 -3 3\ndomain y 0 9\ndomain x 0 9\n"
        )
        net = parse_stn(text)
        assert (net.name(0), net.name(1)) == ("y", "x")
        # 0 -> 1 in [0, 5], then 1 -> 0 in [-3, 3], which is 0 -> 1 in [-3, 3]
        assert net.constraint(0, 1) == interval(0, 3)

    def test_renamed_variable_in_a_mastn_block_and_external(self):
        text = (
            "mastn 2\nagent 0\nvar 0 x\ndomain x 0 1\nvar 0 y\nvar 1 x\ndomain x 0 1\n"
            "constraint y x 0 1\nagent 1\nvar 0 x\ndomain x 0 1\nexternal 0 x 1 x 0 +inf\n"
        )
        m = parse_mastn(text)
        assert m.agents[0].constraint(0, 1) == interval(0, 1)
        [ext] = m.external_constraints()
        assert (ext.i, ext.v, ext.j, ext.w, ext.ivl) == (0, 1, 1, 0, interval(0, None))


class TestIntervalMemo:
    def test_each_endpoint_pair_is_one_interval(self):
        # a grid file repeats endpoint pairs; each is read into one shared value
        grid = generate(GenSpec("grid-stn", 0, dict(rows=24, cols=24, wmin=-20, wmax=20)))
        stored = [ivl for _, _, ivl in parse_stn(serialize_stn(grid)).pairs()]
        pairs = {(ivl.lo, ivl.hi, ivl.is_empty) for ivl in stored}
        assert len(stored) > len(pairs)
        assert len({id(ivl) for ivl in stored}) == len(pairs)

    def test_each_endpoint_pair_is_one_interval_across_a_mastn_file(self):
        # every agent block and the external lines share one memo per file
        spec = GenSpec("factory-mastn", 0, dict(agents=8, tasks=80, externals=12))
        m = parse_mastn(serialize_mastn(generate(spec)))
        stored = [ext.ivl for ext in m.external_constraints()]
        for a in m.agents:
            stored += [a.domain(v) for v in range(a.n)]
            stored += [ivl for _, _, ivl in a.pairs()]
        pairs = {(ivl.lo, ivl.hi, ivl.is_empty) for ivl in stored}
        assert len(stored) > len(pairs)
        assert len({id(ivl) for ivl in stored}) == len(pairs)
