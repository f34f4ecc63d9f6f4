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

Outputs are computed _K at a time, by one mixer over one Python int that
holds _K lanes 128 bits apart, lane i in bits 128i..128i+127 (SIMD within
a register: Lamport, "Multiple byte processing with full-word
instructions", CACM 1975).  Lane i starts as the state of the block's
output i, (base + (i+1) * gamma) mod 2**64, where base is the state before
the block: base * _ONES + _STEPS puts base + ((i+1) * gamma mod 2**64), a
value below 2**65, in lane i, and the lane mask _LANES keeps the low 64
bits of every lane.  No lane's bits reach another.  A right shift by 31
bits or fewer moves only the low bits of lane i+1 into the upper half of
lane i, and the mask clears them before the multiply.  Every lane is below
2**64 before a multiply by a 64-bit constant, so its product stays below
2**128, inside the lane, and the mask keeps its low 64 bits.  The last
xor-shift leaves lane i+1's low bits in lane i's upper half, which the
unpacking skips: each output is the little-endian 'Q' of its lane, and
'8x' passes over the upper half.  So output i of the stream is the
integer the scalar mixer gives for it, whatever the block size.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import lt
from struct import Struct

_TWO32 = 1 << 32
_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_K = 64  # outputs per block
_ONES = sum(1 << (128 * i) for i in range(_K))
_LANES = _MASK64 * _ONES
_STEPS = sum(((i + 1) * _GAMMA & _MASK64) << (128 * i) for i in range(_K))
_BLOCK_GAMMA = _K * _GAMMA & _MASK64
_BLOCK_BYTES = 16 * _K
_UNPACK = Struct("<" + "Q8x" * _K).unpack
# randbelow(n) rejects an output at or above 2**64 - 2**64 % n.  For
# n <= 2**32 that bound is at least 2**64 - n + 1 > 2**64 - 2**32, since
# 2**64 % n <= n - 1: an output below _ACCEPTED is never rejected by such an
# n, and the bound need not be computed for it.
_ACCEPTED = _TWO64 - _TWO32


class SplitMix64:
    """64-bit counter-based stream; seed fixes the whole sequence.

    The next draw is output `_pos` of `_block`; `_next` is the state before
    the block after it.  The first block is computed at the first draw.
    """

    __slots__ = ("_block", "_pos", "_next")

    def __init__(self, seed: int):
        self._block: tuple[int, ...] = ()
        self._pos = _K
        self._next = seed & _MASK64

    def _refill(self) -> tuple[int, ...]:
        """Compute the next _K outputs into `_block`, and return it."""
        base = self._next
        self._next = (base + _BLOCK_GAMMA) & _MASK64
        z = (base * _ONES + _STEPS) & _LANES
        z = (((z ^ (z >> 30)) & _LANES) * _MIX1) & _LANES
        z = (((z ^ (z >> 27)) & _LANES) * _MIX2) & _LANES
        self._block = block = _UNPACK((z ^ (z >> 31)).to_bytes(_BLOCK_BYTES, "little"))
        return block

    def next_u64(self) -> int:
        pos = self._pos
        if pos == _K:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection from the 64-bit stream."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        # next_u64, inlined: this is the draw behind every scheduler step
        pos = self._pos
        if pos == _K:
            self._refill()
            pos = 0
        self._pos = pos + 1
        r = self._block[pos]
        if r >= _ACCEPTED or n > _TWO32:
            limit = _TWO64 - _TWO64 % n
            while r >= limit:
                r = self.next_u64()
        return r % n

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
        threshold = repeat(int(p * 18446744073709551616.0))
        block = self._block
        pos = self._pos
        count = 0
        while count < limit:
            if pos == _K:
                block = self._refill()
                pos = 0
            end = pos + limit - count
            if end > _K:
                end = _K
            # the first coin of block[pos:end] that comes out True, if any
            hit = next(compress(range(pos, end), map(lt, block[pos:end], threshold)), end)
            if hit < end:
                self._pos = hit + 1
                return count + hit - pos
            count += end - pos
            pos = end
        self._pos = pos
        return limit
