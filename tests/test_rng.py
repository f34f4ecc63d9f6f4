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


def test_bernoulli_extremes():
    rng = SplitMix64(5)
    assert not rng.bernoulli(0.0)
    assert rng.bernoulli(1.0)
    hits = sum(rng.bernoulli(0.25) for _ in range(4000))
    assert 800 < hits < 1200


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
