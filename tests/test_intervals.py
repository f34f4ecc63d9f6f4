import copy
import dataclasses
import pickle

import pytest

from stnac import EMPTY, BoundOverflowError, Interval, interval
from stnac.intervals import INT64_MAX, INT64_MIN
from stnac.rng import SplitMix64


def rand_interval(rng, span=40, allow_empty=True, allow_inf=True):
    roll = rng.randbelow(10)
    if allow_empty and roll == 0:
        return EMPTY
    if allow_inf and roll == 1:
        return interval(None, rng.randint(-span, span))
    if allow_inf and roll == 2:
        return interval(rng.randint(-span, span), None)
    a = rng.randint(-span, span)
    return interval(a, rng.randint(a, span))


class TestIntersect:
    def test_overlap(self):
        assert interval(1, 4).intersect(interval(2, 6)) == interval(2, 4)

    def test_disjoint_normalizes_to_empty(self):
        assert interval(0, 1).intersect(interval(2, 3)) is EMPTY

    def test_one_sided(self):
        assert interval(None, 5).intersect(interval(3, None)) == interval(3, 5)

    def test_empty_absorbs(self):
        assert EMPTY.intersect(interval(0, 1)) is EMPTY
        assert interval(0, 1).intersect(EMPTY) is EMPTY


class TestCompose:
    def test_endpoint_sums(self):
        assert interval(1, 2).compose(interval(3, 5)) == interval(4, 7)

    def test_empty_absorbs_both_sides(self):
        assert interval(1, 2).compose(EMPTY) is EMPTY
        assert EMPTY.compose(interval(1, 2)) is EMPTY

    def test_infinity_absorption(self):
        assert interval(0, None).compose(interval(-3, 0)) == interval(-3, None)

    def test_overflow_reported(self):
        big = interval(INT64_MAX - 1, INT64_MAX - 1)
        with pytest.raises(BoundOverflowError):
            big.compose(interval(2, 2))


class TestInverse:
    def test_finite(self):
        assert interval(2, 3).inverse() == interval(-3, -2)

    def test_point(self):
        assert interval(-5, -5).inverse() == interval(5, 5)

    def test_empty(self):
        assert EMPTY.inverse() is EMPTY

    def test_one_sided(self):
        assert interval(0, None).inverse() == interval(None, 0)

    @pytest.mark.parametrize("ivl", [Interval(INT64_MIN, 0), Interval(INT64_MIN, INT64_MIN)])
    def test_int64_min_endpoint_overflows(self, ivl):
        with pytest.raises(BoundOverflowError, match="-2\\*\\*63"):
            ivl.inverse()


class TestConstruction:
    def test_normalization(self):
        assert interval(3, 1) is EMPTY

    def test_direct_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_membership(self):
        assert 2 in interval(1, 3)
        assert 4 not in interval(1, 3)
        assert 0 not in EMPTY
        assert 10**9 in interval(0, None)

    def test_str(self):
        assert str(interval(0, 8)) == "[0,8]"
        assert str(interval(None, 5)) == "[-inf,5]"
        assert str(EMPTY) == "empty"


class TestImmutableValue:
    """Interval is a frozen, slotted value: copies and pickles are equal to it."""

    VALUES = (interval(2, 5), interval(None, 0), interval(-3, None), interval(None, None), EMPTY)

    @pytest.mark.parametrize("ivl", VALUES, ids=str)
    def test_copies_and_pickles_are_equal(self, ivl):
        for other in (copy.copy(ivl), copy.deepcopy(ivl), pickle.loads(pickle.dumps(ivl))):
            assert other == ivl and hash(other) == hash(ivl) and repr(other) == repr(ivl)
            assert other.is_empty == ivl.is_empty

    def test_empty_stays_empty_through_copies(self):
        assert copy.deepcopy({(0, 1): EMPTY})[(0, 1)].is_empty
        assert pickle.loads(pickle.dumps(EMPTY)).is_empty
        assert copy.copy(EMPTY).intersect(interval(0, 1)) is EMPTY

    def test_attributes_cannot_be_assigned(self):
        ivl = interval(1, 2)
        for name in ("lo", "hi", "is_empty"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ivl, name, 0)
        # a new attribute fails too; its error type differs across Python versions
        with pytest.raises((AttributeError, TypeError)):
            ivl.extra = 0
        assert ivl == interval(1, 2)
        assert not hasattr(ivl, "__dict__")

    def test_bad_pair_still_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)
        with pytest.raises(ValueError):
            Interval(0, None, is_empty=True)

    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: Interval(3, 1), "lo > hi; use interval() to normalize to EMPTY"),
            (lambda: Interval(0, None, True), "the empty interval carries no endpoints"),
            (lambda: Interval(None, 0, True), "the empty interval carries no endpoints"),
            # replace() builds through __init__, so it checks the pair too
            (
                lambda: dataclasses.replace(interval(1, 2), lo=3),
                "lo > hi; use interval() to normalize to EMPTY",
            ),
        ],
        ids=["inverted", "empty-lo", "empty-hi", "replace"],
    )
    def test_bad_pair_texts(self, build, text):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "built, expected",
        [
            (lambda: Interval(lo=1, hi=2), interval(1, 2)),
            (lambda: Interval(is_empty=True), EMPTY),
            (lambda: Interval(), interval(None, None)),
            (lambda: dataclasses.replace(interval(1, 2), hi=5), interval(1, 5)),
            (lambda: dataclasses.replace(interval(1, 2), lo=None), interval(None, 2)),
            (lambda: dataclasses.replace(EMPTY), EMPTY),
        ],
        ids=["keywords", "empty", "defaults", "replace-hi", "replace-lo", "replace-empty"],
    )
    def test_keyword_and_replace_construction(self, built, expected):
        ivl = built()
        assert ivl == expected and hash(ivl) == hash(expected)
        assert (ivl.lo, ivl.hi, ivl.is_empty) == (expected.lo, expected.hi, expected.is_empty)

    def test_fields_are_the_dataclass_fields(self):
        fields = dataclasses.fields(Interval)
        assert [(f.name, f.default) for f in fields] == [
            ("lo", None), ("hi", None), ("is_empty", False)
        ]


class TestAlgebraicLaws:
    """Seeded property checks; the full-size suites run in acceptance."""

    def test_inverse_involution(self):
        rng = SplitMix64(11)
        for _ in range(2000):
            x = rand_interval(rng)
            assert x.inverse().inverse() == x

    def test_intersect_laws(self):
        rng = SplitMix64(12)
        for _ in range(2000):
            x, y, z = (rand_interval(rng) for _ in range(3))
            assert x.intersect(y) == y.intersect(x)
            assert x.intersect(x) == x
            assert x.intersect(y).intersect(z) == x.intersect(y.intersect(z))

    def test_compose_associative(self):
        rng = SplitMix64(13)
        for _ in range(2000):
            x, y, z = (rand_interval(rng) for _ in range(3))
            assert x.compose(y).compose(z) == x.compose(y.compose(z))

    def test_compose_distributes_over_nonempty_intersection(self):
        rng = SplitMix64(14)
        done = 0
        while done < 2000:
            x, y, z = (rand_interval(rng) for _ in range(3))
            meet = y.intersect(z)
            if meet.is_empty:
                continue
            done += 1
            assert x.compose(meet) == x.compose(y).intersect(x.compose(z))

    def test_compose_membership_matches_brute_force(self):
        rng = SplitMix64(15)
        for _ in range(300):
            a = rng.randint(-15, 15)
            x = interval(a, a + rng.randint(0, 12))
            b = rng.randint(-15, 15)
            y = interval(b, b + rng.randint(0, 12))
            composed = x.compose(y)
            lo, hi = x.lo + y.lo, x.hi + y.hi
            for t in range(lo - 2, hi + 3):
                expected = any(
                    t - u in y for u in range(x.lo, x.hi + 1)
                )
                assert (t in composed) == expected
