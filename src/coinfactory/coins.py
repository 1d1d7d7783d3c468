"""Coin sources: deterministic, replayable, countable Bernoulli(p) bit streams.

Two kinds exist. A generator source compares one raw 64-bit PCG64 word per
toss, served from a buffer filled in growing blocks, with the binary
expansion of a rational bias, refining from a separate substream on the
(probability 2**-64) ambiguous boundary, so each emitted bit is exactly
Bernoulli(p) with no floating point involved. A tape source replays a
recorded bit sequence and never fabricates bits.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SourceExhausted, UnsupportedForTape

# splitmix64 increment, the usual 64-bit golden-ratio constant; fixed here
# so forked streams are reproducible across platforms and versions.
FORK_MIX_CONSTANT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Raw-word blocks of a generator source start small, because monte_carlo
# builds one source per replica, and double up to the cap for long runs.
_BLOCK_START = 8
_BLOCK_CAP = 4096


def _splitmix64(state: int) -> int:
    state = (state + FORK_MIX_CONSTANT) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, stream_index: int) -> int:
    """Derived seed for fork_independent: two splitmix64 rounds."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (stream_index & _MASK64))


class CoinSource:
    """Abstract stream of p-coin bits with exact toss accounting."""

    kind = "abstract"
    tosses_consumed: int

    def next_bit(self) -> int:
        raise NotImplementedError

    def draw_bits(self, count: int) -> list[int]:
        return [self.next_bit() for _ in range(count)]

    def fork_independent(self, stream_index: int) -> "CoinSource":
        raise UnsupportedForTape(f"{self.kind} sources cannot fork")


class TapeSource(CoinSource):
    kind = "recorded-tape"

    def __init__(self, bits):
        bits = list(bits)
        # checked before converting, so 0.7 or "1" is refused, not rounded
        if any(b not in (0, 1) for b in bits):
            raise ValueError("tape bits must be 0 or 1")
        self.bits = [int(b) for b in bits]
        self.position = 0
        self.tosses_consumed = 0

    @property
    def length(self) -> int:
        return len(self.bits)

    def _exhausted(self) -> SourceExhausted:
        return SourceExhausted(f"tape of length {len(self.bits)} fully consumed")

    def next_bit(self) -> int:
        if self.position >= len(self.bits):
            raise self._exhausted()
        bit = self.bits[self.position]
        self.position += 1
        self.tosses_consumed += 1
        return bit

    def draw_bits(self, count: int) -> list[int]:
        # a short tape is read to its end, counted, and then refused,
        # exactly as count next_bit calls would leave it
        if count <= 0:
            return []
        start = self.position
        end = min(start + count, len(self.bits))
        self.position = end
        self.tosses_consumed += end - start
        if end - start < count:
            raise self._exhausted()
        return self.bits[start:end]


class GeneratorSource(CoinSource):
    """Seeded PCG64 stream emitting exact Bernoulli(bias) bits.

    Toss i reads raw word i of PCG64(seed): heads iff the word is below
    q = floor(2**64 bias). next_bit serves words from a buffer refilled
    by random_raw in blocks of 8, 16, ... up to 4096 words; draw_bits
    serves any buffered words first and draws the rest in one call, so
    the bits and tosses_consumed are the same for any mix of the two.
    tosses_consumed counts bits handed out, not words drawn.

    When a word equals q and 2**64 bias is not an integer, the toss is
    decided by refinement bits, the top bit of each word of a second
    PCG64 keyed by SeedSequence(seed, spawn_key=(0,)) and created on
    first use. Both methods take these bits in toss order.
    """

    kind = "seeded-generator"

    def __init__(self, seed: int, bias: Fraction):
        bias = Fraction(bias)
        if not 0 < bias < 1:
            raise ValueError("bias must lie strictly between 0 and 1")
        self.seed = int(seed) & _MASK64
        self.bias = bias
        self.tosses_consumed = 0
        self._bitgen = np.random.PCG64(self.seed)
        self._refiner = None
        self._words: list[int] = []
        self._pos = 0
        self._block = _BLOCK_START
        # heads iff u < q, ambiguous (extend) iff u == q and 2**64 p not integer
        self._q = (bias.numerator << 64) // bias.denominator
        self._exact = (bias.numerator << 64) % bias.denominator == 0

    def _resolve_boundary(self) -> int:
        # u landed exactly on the truncated expansion: refine bit by bit
        if self._refiner is None:
            self._refiner = np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        num, den = self.bias.numerator, self.bias.denominator
        u = self._q
        t = 64
        while True:
            u = (u << 1) | (self._refiner.random_raw() >> 63)
            t += 1
            if (u + 1) * den <= num << t:
                return 1
            if u * den >= num << t:
                return 0

    def next_bit(self) -> int:
        i = self._pos
        if i == len(self._words):
            self._words = self._bitgen.random_raw(self._block).tolist()
            self._block = min(2 * self._block, _BLOCK_CAP)
            i = 0
        self._pos = i + 1
        self.tosses_consumed += 1
        u = self._words[i]
        if u < self._q:
            return 1
        if self._exact or u > self._q:
            return 0
        return self._resolve_boundary()

    def draw_bits(self, count: int) -> list[int]:
        if count <= 0:
            return []
        start = self._pos
        self._pos = min(start + count, len(self._words))
        u = self._bitgen.random_raw(count - (self._pos - start))
        if self._pos > start:
            u = np.concatenate((np.array(self._words[start:self._pos], dtype=np.uint64), u))
        bits = (u < np.uint64(self._q)).astype(np.uint8)
        if not self._exact:
            for i in np.nonzero(u == np.uint64(self._q))[0]:
                bits[i] = self._resolve_boundary()
        self.tosses_consumed += count
        return bits.tolist()

    def fork_independent(self, stream_index: int) -> "GeneratorSource":
        if stream_index < 0:
            raise ValueError("stream_index must be nonnegative")
        return GeneratorSource(mix_seed(self.seed, stream_index), self.bias)


def load_tape(path) -> TapeSource:
    """Read the tape file format: one ASCII '0'/'1' per bit, newline-terminated."""
    bits = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            ch = line.rstrip("\n")
            if ch not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: invalid tape character {ch!r}")
            bits.append(int(ch))
    return TapeSource(bits)


def save_tape(path, bits) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for b in bits:
            fh.write(f"{int(b)}\n")
