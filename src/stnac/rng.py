"""Deterministic pseudo-random stream used wherever a seed appears.

The generator is SplitMix64 with its published constant set: the state
advances by 0x9E3779B97F4A7C15 per draw and each output is finalized with
the xor-shift-multiply mixer (0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
Integer ranges are drawn by rejection sampling, and a coin that is True
with probability p compares one output with the fixed threshold
int(p * 2**64); `misses` draws a run of such coins up to the first True.
So the stream, and every generated instance, schedule, and sample,
reproduces bit-for-bit across platforms and implementations of the same
algorithm.
"""

from __future__ import annotations

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit counter-based stream; seed fixes the whole sequence."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection from the 64-bit stream."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        limit = _TWO64 - _TWO64 % n
        state = self._state
        while True:
            # next_u64, inlined: this is the draw behind every scheduler step
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        if a > b:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.randbelow(b - a + 1)

    def misses(self, p: float, limit: int) -> int:
        """How many of up to limit coins, each True with probability p, come out
        False before the first True.

        Each coin is one 64-bit output compared with the fixed threshold
        int(p * 2**64); the run stops just after its first True, so the
        stream moves on by exactly the coins drawn.  p <= 0 gives limit and
        p >= 1 gives 0, both without a draw.
        """
        if p <= 0.0:
            return limit
        if p >= 1.0:
            return 0
        threshold = int(p * 18446744073709551616.0)
        # the output z ^ (z >> 31) keeps z's top 31 bits, so it can lie below
        # threshold only when z lies below near: most misses skip the last step
        near = ((threshold >> 33) + 1) << 33
        state = self._state
        for count in range(limit):
            # next_u64, inlined: random-stn draws one coin per vertex pair
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            if z < near and z ^ (z >> 31) < threshold:
                self._state = state
                return count
        self._state = state
        return limit
