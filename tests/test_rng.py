from itertools import cycle

import pytest

from stnac.rng import _K as K, SplitMix64


def reference_stream(seed, count):
    """Independent restatement of the documented algorithm."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_implementation():
    for seed in (0, 1, 42, 2**63, -7):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(50)] == reference_stream(seed, 50)


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_randint_bounds_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(500):
        x = rng.randint(-3, 3)
        assert -3 <= x <= 3
        seen.add(x)
    assert seen == set(range(-3, 4))


def test_randbelow_rejects_nonpositive():
    rng = SplitMix64(1)
    try:
        rng.randbelow(0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_randint_rejects_an_empty_range():
    with pytest.raises(ValueError, match=r"empty range \[5, 4\]"):
        SplitMix64(1).randint(5, 4)


def test_misses_extremes():
    rng = SplitMix64(5)
    assert rng.misses(0.0, 9) == 9
    assert rng.misses(1.0, 9) == 0
    # 4,000 coins at p = 0.25, drawn a run at a time
    hits = coins = 0
    while coins < 4000:
        run = rng.misses(0.25, 4000 - coins)
        coins += run
        if coins < 4000:
            hits += 1
            coins += 1
    assert 800 < hits < 1200


SEEDS = (0, 1, 42, 2**63, -7)
# below 0 and from 1 up, no coin is drawn
PROBABILITIES = (-0.5, 0.0, 1e-9, 0.05, 0.5, 0.999, 1.0, 1.5)
LIMITS = (0, 1, 7, 100)


def reference_misses(outputs, p, limit):
    """misses restated: a coin is True when one output lies below
    int(p * 2**64); count the False coins before the first True, up to
    limit.  Returns the count and how many outputs the coins consumed."""
    if p <= 0.0:
        return limit, 0
    if p >= 1.0:
        return 0, 0
    threshold = int(p * 2**64)
    for count, r in enumerate(outputs[:limit]):
        if r < threshold:
            return count, count + 1
    return limit, limit


@pytest.mark.parametrize("seed", SEEDS)
def test_misses_match_reference_coins(seed):
    outputs = reference_stream(seed, max(LIMITS) + 1)
    for p in PROBABILITIES:
        for limit in LIMITS:
            expected, used = reference_misses(outputs, p, limit)
            rng = SplitMix64(seed)
            assert rng.misses(p, limit) == expected
            # the stream goes on from the first output the coins left
            assert rng.next_u64() == outputs[used]


@pytest.mark.parametrize("seed", SEEDS)
def test_misses_at_thresholds_next_to_an_output(seed):
    # p taken from the stream's own outputs puts the threshold within 2**12
    # of an output, so that coin passes the skip bound and the full 64-bit
    # comparison decides it
    outputs = reference_stream(seed, 61)
    for r in outputs[:20]:
        for p in (r / 2**64, (r + 2**12) / 2**64, (r - 2**12) / 2**64):
            expected, used = reference_misses(outputs, p, 60)
            rng = SplitMix64(seed)
            assert rng.misses(p, 60) == expected
            assert rng.next_u64() == outputs[used]


BOUNDS = (1, 2, 3, 7, 2**32 + 1, 2**63 + 1, 2**64 - 1)


def reference_draws(seed, bounds):
    """randbelow restated: draw 64-bit outputs until one falls below the
    largest multiple of n that is at most 2**64, then reduce it mod n.
    Returns the results and how many outputs they consumed."""
    stream = iter(reference_stream(seed, 40 * len(bounds)))
    out, used = [], 0
    for n in bounds:
        while True:
            r = next(stream)
            used += 1
            if r < (2**64 // n) * n:
                out.append(r % n)
                break
    return out, used


def test_randbelow_and_randint_match_rejection_sampling():
    bounds = BOUNDS * 6
    rejected = 0
    for seed in (0, 1, 42, 2**63, -7):
        expected, used = reference_draws(seed, bounds)
        rejected += used - len(bounds)
        rng = SplitMix64(seed)
        assert [rng.randbelow(n) for n in bounds] == expected
        # the stream goes on from the last output the draws consumed
        assert rng.next_u64() == reference_stream(seed, used + 1)[-1]
        rng = SplitMix64(seed)
        assert [rng.randint(-5, n - 6) for n in bounds] == [x - 5 for x in expected]
    # the bound 2**63 + 1 rejects about half of all outputs
    assert rejected > 0


def seed_whose_first_output_is(r):
    """The mixer is a bijection of 64-bit words: undo it on r, then step the
    state back by one increment."""
    mask = 2**64 - 1

    def unshift(y, s):  # the x with x ^ (x >> s) == y
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(r, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("r", (2**64 - 1, 2**64 - 2**32, 2**64 - 2**32 - 1))
def test_randbelow_at_the_top_of_the_range(r):
    # outputs this high come about once in 2**32 draws: 2**64 - 1 lies at
    # the rejection bound of 3, 2**32 - 1 and 2**32 + 1 (2**64 % n == 1),
    # and below that of 2**32; 2**64 - 2**32 and just below it lie below
    # every bound of this list but 2**63 + 1's
    seed = seed_whose_first_output_is(r)
    assert reference_stream(seed, 1) == [r]
    for n in (3, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 1):
        expected, used = reference_draws(seed, [n])
        rng = SplitMix64(seed)
        assert rng.randbelow(n) == expected[0]
        assert rng.next_u64() == reference_stream(seed, used + 1)[-1]


def reference_outputs(seed, chunk=4096):
    """reference_stream without end, chunk after chunk: the state after c
    outputs is seed + c * 0x9E3779B97F4A7C15."""
    c = 0
    while True:
        yield from reference_stream(seed + c * 0x9E3779B97F4A7C15, chunk)
        c += chunk


class ScalarDraws:
    """The documented draws restated over reference outputs, one at a time."""

    def __init__(self, seed):
        self._outputs = reference_outputs(seed)
        self.used = 0

    def next_u64(self):
        self.used += 1
        return next(self._outputs)

    def randbelow(self, n):
        while True:
            r = self.next_u64()
            if r < (2**64 // n) * n:
                return r % n

    def randint(self, a, b):
        return a + self.randbelow(b - a + 1)

    def misses(self, p, limit):
        if p <= 0.0:
            return limit
        if p >= 1.0:
            return 0
        threshold = int(p * 2**64)
        for count in range(limit):
            if self.next_u64() < threshold:
                return count
        return limit


# one round of calls; rounds use a varying number of outputs, so the calls
# fall at every position in a block.  Bounds 2**32 - 1 and 2**32 take the
# shortcut past the rejection bound, 2**32 + 1 and 2**63 + 1 do not (the
# last rejects about half of all outputs); misses at 1e-9 runs through its
# limit, across a block boundary whenever it starts past position 0
METHOD_MIX = (
    ("next_u64",),
    ("randbelow", 2**32 - 1),
    ("misses", 0.05, 0),
    ("randbelow", 2**32),
    ("misses", 0.05, 1),
    ("randint", -7, 2**32 - 7),
    ("misses", 2**-6, K - 1),
    ("randbelow", 2**63 + 1),
    ("misses", 1e-9, K),
    ("randint", 0, 2**32 - 2),
    ("misses", 2**-6, K + 1),
    ("next_u64",),
    ("misses", 0.5, K + 1),
    ("randbelow", 3),
)


def check_method_mix(seed, outputs):
    """Make METHOD_MIX's calls in turn on SplitMix64(seed) and on
    ScalarDraws(seed) until the scalar draws have used `outputs` outputs,
    asserting that each call returns the same on both.  Returns how many
    misses runs crossed a block boundary and ended on a True coin, and how
    many crossed one and drew their whole limit."""
    rng, ref = SplitMix64(seed), ScalarDraws(seed)
    crossed_hit = crossed_limit = 0
    for call in cycle(METHOD_MIX):
        if ref.used >= outputs:
            return crossed_hit, crossed_limit
        name, *args = call
        start = ref.used
        expected = getattr(ref, name)(*args)
        assert getattr(rng, name)(*args) == expected, (seed, start, call)
        if name == "misses" and start // K != (ref.used - 1) // K:
            if expected < args[1]:
                crossed_hit += 1
            else:
                crossed_limit += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_method_mix_matches_scalar_draws_across_blocks(seed):
    crossed_hit, crossed_limit = check_method_mix(seed, 20 * K)
    assert crossed_hit > 0 and crossed_limit > 0


@pytest.mark.parametrize("offset", (0, 1, K - 2, K - 1))
@pytest.mark.parametrize("p", (1e-9, 2**-6, 0.5))
@pytest.mark.parametrize("limit", (0, 1, K - 1, K, K + 1, 3 * K))
def test_misses_from_every_block_position(offset, p, limit):
    # a run that starts `offset` outputs into a block, in the first block or
    # a later one, and the output that follows it
    for start in (offset, 2 * K + offset):
        rng, ref = SplitMix64(42), ScalarDraws(42)
        for _ in range(start):
            assert rng.next_u64() == ref.next_u64()
        assert rng.misses(p, limit) == ref.misses(p, limit)
        assert rng.next_u64() == ref.next_u64()


def test_no_block_before_the_first_draw():
    rng = SplitMix64(3)
    assert rng._block == ()
    assert rng.misses(0.0, 5) == 5 and rng.misses(1.0, 5) == 0 and rng.misses(0.5, 0) == 0
    assert rng._block == ()
    assert rng.next_u64() == reference_stream(3, 1)[0]


if __name__ == "__main__":
    # the long stream: 2**20 outputs per seed through METHOD_MIX
    #     PYTHONPATH=src python tests/test_rng.py
    for seed in (0, 2**63, -7):
        check_method_mix(seed, 2**20)
        print(f"seed {seed}: 2**20 outputs agree")
