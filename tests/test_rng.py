import pytest

from stnac.rng import SplitMix64


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
