"""Coin sources: deterministic, replayable, countable Bernoulli(p) bit streams.

Two kinds exist. A generator source compares one raw 64-bit PCG64 word per
toss, served from a buffer filled in growing blocks, with the binary
expansion of a rational bias, refining from a separate substream on the
(probability 2**-64) ambiguous boundary, so each emitted bit is exactly
Bernoulli(p) with no floating point involved. A tape source replays a
recorded bit sequence and never fabricates bits.

draw_bits(count) returns a list of bits. The envelope engine draws its
chunks through draw_chunk(count), which is draw_bits(count, True): a
generator hands a draw it took in one numpy call over as bytes, one bit
per byte, and any other draw as the list it built. The bits, the stream
and tosses_consumed are the same either way.

Monte Carlo seeds its replicas' generators through _replica_seeds, which
hashes a chunk of seeds in one vectorised pass to the words numpy's own
seeding would give, and from those computes each stream's first _HEAD raw
words in a second pass, so every stream is the one PCG64(seed) gives; below
_SEED_BATCH_FROM replicas it hands PCG64 the int seeds. A source seeded so
serves its head first and builds its numpy generator only for a run that
reads past it; numpy.random loads at the first generator built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
# draw_bits serves a draw of at most this many bits in plain Python when
# the buffer and one refill cover it; numpy's fixed cost per call (about
# 6 us) is repaid from about 150 bits on (2 cores, Python 3.11.7)
_SHORT_DRAW = 128
# A longer draw takes its raw words from numpy this many at a time (8 MB),
# so its peak memory is one block plus about twice count bytes of bits,
# not 8 bytes a bit
_DRAW_BLOCK = 1 << 20
# Replica seeds are mixed and hashed this many at a time.
_SEED_CHUNK = 1024
# Fewer replicas than this are seeded by numpy's own hash, one seed at a
# time: the batched passes (seed words, then stream heads) have a fixed
# cost of about 290 us, and then save about 19 us a seed, the cost of
# building PCG64 from an int and drawing its first block (2 cores, Python
# 3.11.7)
_SEED_BATCH_FROM = 16
# A batched replica's source is handed this many first raw words of its
# stream: the first block that a refill would draw
_HEAD = _BLOCK_START


def _splitmix64(state: int) -> int:
    state = (state + FORK_MIX_CONSTANT) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, stream_index):
    """Derived seed for fork_independent: two splitmix64 rounds.

    stream_index may also be a uint64 array; the rounds then run over the
    whole array, whose uint64 arithmetic wraps as the masks do.
    """
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (stream_index & _MASK64))


# --- batched seeding ------------------------------------------------------------
# numpy's SeedSequence with the default pool of four 32-bit words (O'Neill's
# seed_seq hash): each hash step xors a running constant into a word, steps
# the constant by a fixed multiplier, multiplies and folds the high half in.
# The constants follow one fixed sequence, so they are tabled once here.


def _hash_constants(init: int, mult: int, steps: int):
    """Columns (h_k, h_k+1) of the running constant, h_k+1 = h_k * mult mod 2**32."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return (np.array(h[:-1], dtype=np.uint32)[:, None],
            np.array(h[1:], dtype=np.uint32)[:, None])


# 4 steps absorb the entropy words, 12 mix every pool word into every other
_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# 8 steps, two per uint64 state word
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT = 0xCA01F9DD
_MIX_RIGHT = 0x4973F715


def _hashmix(words, xor, mul):
    words = (words ^ xor) * mul
    return words ^ (words >> 16)


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each s of a uint64 array.

    Row i of the result is seed i's four state words. The pool is held as
    4 x len(seeds) uint32 lanes. A seed below 2**32 is one entropy word,
    and numpy pads a short entropy with hash steps over 0, so a zero high
    word gives the same pool.
    """
    pool = np.stack(((seeds & 0xFFFFFFFF).astype(np.uint32),
                     (seeds >> 32).astype(np.uint32),
                     np.zeros(len(seeds), dtype=np.uint32),
                     np.zeros(len(seeds), dtype=np.uint32)))
    pool = _hashmix(pool, _ENTROPY_XOR[:4], _ENTROPY_MUL[:4])
    step = 4
    for src in range(4):
        # word src is not changed while it is mixed into the other three
        dst = [d for d in range(4) if d != src]
        mixed = (_MIX_LEFT * pool[dst]
                 - _MIX_RIGHT * _hashmix(pool[src], _ENTROPY_XOR[step:step + 3],
                                         _ENTROPY_MUL[step:step + 3]))
        pool[dst] = mixed ^ (mixed >> 16)
        step += 3
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    # 32-bit words pair up little-endian; rows are C-contiguous, as PCG64 reads them
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


# --- batched stream heads ---------------------------------------------------------
# PCG64 (O'Neill's PCG XSL-RR 128/64) steps a 128-bit LCG, s' = M s + c mod
# 2**128, and outputs each new state's high half xor its low half, rotated
# right by its top 6 bits. It seeds from the four words w: c = 2 (w2 w3) + 1
# and, from s = 0, s = c then s = (s + (w0 w1)) M + c. So raw word t comes
# from M**(t+2) (c + (w0 w1)) + (1 + M + ... + M**(t+1)) c: two products by
# constants, tabled here for t < _HEAD as columns of 64-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _halves(values):
    """128-bit values as two uint64 columns: the high halves and the low."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64)[:, None],
            np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None])


_LCG_POWERS = _halves([pow(_PCG_MULT, t + 2, 1 << 128) for t in range(_HEAD)])
_LCG_SUMS = _halves([sum(pow(_PCG_MULT, i, 1 << 128) for i in range(t + 2)) % (1 << 128)
                     for t in range(_HEAD)])


def _mul128(hi, lo, constant):
    """(hi, lo) * C mod 2**128 for each C of a constant column, in 64-bit halves.

    uint64 products wrap, so only the high half of lo * C_lo needs 32-bit limbs.
    """
    c_hi, c_lo = constant
    a1, a0, c1, c0 = lo >> 32, lo & 0xFFFFFFFF, c_lo >> 32, c_lo & 0xFFFFFFFF
    p01, p10 = a0 * c1, a1 * c0
    mid = (a0 * c0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    carry = a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi * c_lo + lo * c_hi + carry, lo * c_lo


def _carry(a, b, total):
    """The carry out of total = a + b mod 2**64, as 0 or 1, from bit operations.

    A comparison or a negation would load numpy loops that nothing else a
    short run needs, which read about 0.13 MB of resident memory each on
    first use.
    """
    return (a & b | (a | b) & ~total) >> 63


def _stream_heads(words: np.ndarray) -> np.ndarray:
    """PCG64(ss).random_raw(_HEAD) for each row of words, ss's state words
    (_seed_words' rows).

    Row i of the result is row i's head. Each array of the pass holds
    _HEAD x len(words) words.
    """
    w0, w1, w2, w3 = words.T
    c_hi, c_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = c_lo + w1
    s_hi, s_lo = _mul128(c_hi + w0 + _carry(c_lo, w1, lo), lo, _LCG_POWERS)
    t_hi, t_lo = _mul128(c_hi, c_lo, _LCG_SUMS)
    lo = s_lo + t_lo
    hi = s_hi + t_hi + _carry(s_lo, t_lo, lo)
    mixed, rot = hi ^ lo, hi >> 58
    return (mixed >> rot | mixed << ((64 - rot) & 63)).T


class _Seeded:
    """A seed with its SeedSequence state words and its stream's first _HEAD
    raw words, both computed in a batch.

    A GeneratorSource takes the head as its first buffer. It hands this
    object to PCG64 as a seed sequence, registered as a numpy ISeedSequence
    when the first such generator is built, so numpy.random loads there.
    """

    __slots__ = ("seed", "words", "head")

    def __init__(self, seed: int, words: np.ndarray, head: np.ndarray):
        self.seed = seed
        self.words = words
        self.head = head

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 is the only consumer: it asks for 4 uint64 words
        return self.words


def _replica_seeds(seed: int, runs: int):
    """_Seeded(mix_seed(seed, i)) for i < runs, hashed a chunk at a time;
    below _SEED_BATCH_FROM runs, the int keys mix_seed(seed, i), which
    seed the same streams."""
    if runs < _SEED_BATCH_FROM:
        yield from (mix_seed(seed, i) for i in range(runs))
        return
    for start in range(0, runs, _SEED_CHUNK):
        keys = mix_seed(seed, np.arange(start, min(start + _SEED_CHUNK, runs), dtype=np.uint64))
        words = _seed_words(keys)
        for key, row, head in zip(keys.tolist(), words, _stream_heads(words)):
            yield _Seeded(key, row, head)


class CoinSource:
    """Abstract stream of p-coin bits with exact toss accounting."""

    kind = "abstract"
    tosses_consumed: int

    def next_bit(self) -> int:
        raise NotImplementedError

    def draw_bits(self, count: int, chunk: bool = False) -> list[int]:
        """The next count bits as a list; chunk=True may return bytes instead."""
        return [self.next_bit() for _ in range(count)]

    def draw_chunk(self, count: int) -> Sequence[int]:
        """The next count bits for the engine's rank loop, as draw_bits(count, True).

        A chunk is read only through count(1), len, iteration and indexing,
        which bytes and lists share. Every draw goes through draw_bits, so
        whatever wraps draw_bits sees the chunk's bits too.
        """
        return self.draw_bits(count, True)

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

    def _exhausted(self) -> SourceExhausted:
        return SourceExhausted(f"tape of length {len(self.bits)} fully consumed")

    def next_bit(self) -> int:
        if self.position >= len(self.bits):
            raise self._exhausted()
        bit = self.bits[self.position]
        self.position += 1
        self.tosses_consumed += 1
        return bit

    def draw_bits(self, count: int, chunk: bool = False) -> list[int]:
        # a short tape is read to its end, counted, and then refused,
        # exactly as count next_bit calls would leave it; a chunk is the
        # same list slice
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
    by random_raw in blocks of 8, 16, ... up to 4096 words. draw_bits
    serves a short draw that the buffered words and one refill cover the
    same way, in plain Python; any other draw takes the buffered words
    and the rest from numpy, in blocks of at most _DRAW_BLOCK words, the
    same words in the same order as one call would give. draw_bits
    returns a list either way; draw_chunk returns a numpy draw as the
    bytes of its comparison, one bit per byte, which skips building and
    summing a list of Python ints (a 2**14-bit chunk: about 15 us,
    against about 360 us as a list, on 2 cores, Python 3.11.7). The
    bits and tosses_consumed are the same for any mix of the methods.
    tosses_consumed counts bits handed out, not words drawn.

    When a word equals q and 2**64 bias is not an integer, the toss is
    decided by refinement bits, the top bit of each word of a second
    PCG64 keyed by SeedSequence(seed, spawn_key=(0,)) and created on
    first use. Both methods take these bits in toss order.

    seed is an int, or a _Seeded from _replica_seeds that carries the int
    with its SeedSequence words and the stream's first _HEAD raw words;
    self.seed is the int and the stream is PCG64(seed)'s either way. An int
    seed builds the generator at once. A _Seeded source starts with its
    head as the buffer, as an int-seeded one stands after its first
    refill, and builds PCG64 from the words, advanced past the head, at
    its first refill, so a run that reads no further builds none.
    """

    kind = "seeded-generator"

    def __init__(self, seed, bias: Fraction):
        if not isinstance(bias, Fraction):
            bias = Fraction(bias)
        num, den = bias.numerator, bias.denominator
        if not 0 < num < den:
            raise ValueError("bias must lie strictly between 0 and 1")
        if seed.__class__ is _Seeded:
            # monte_carlo's replicas: the seed's words and head were
            # computed in a batch
            self.seed = seed.seed
            self._bitgen = None
            self._key = seed
            self._words: list[int] = seed.head.tolist()
            self._block = 2 * _BLOCK_START
        else:
            self.seed = int(seed) & _MASK64
            self._bitgen = np.random.PCG64(self.seed)
            self._words = []
            self._block = _BLOCK_START
        self.bias = bias
        self.tosses_consumed = 0
        self._refiner = None
        self._pos = 0
        # heads iff u < q, ambiguous (extend) iff u == q and 2**64 p not integer
        self._q, rest = divmod(num << 64, den)
        self._exact = rest == 0

    def _raw(self, count: int) -> np.ndarray:
        """The next count raw words of the stream, past those buffered so far."""
        if self._bitgen is None:
            # the first refill of a _Seeded source: its head is drawn
            np.random.bit_generator.ISeedSequence.register(_Seeded)
            self._bitgen = np.random.PCG64(self._key)
            self._bitgen.advance(_HEAD)
        return self._bitgen.random_raw(count)

    def _refill(self) -> list[int]:
        """The next block of raw words as the buffer; blocks double up to _BLOCK_CAP."""
        words = self._words = self._raw(self._block).tolist()
        self._block = min(2 * self._block, _BLOCK_CAP)
        return words

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
            self._refill()
            i = 0
        self._pos = i + 1
        self.tosses_consumed += 1
        u = self._words[i]
        if u < self._q:
            return 1
        if self._exact or u > self._q:
            return 0
        return self._resolve_boundary()

    def draw_bits(self, count: int, chunk: bool = False) -> Sequence[int]:
        if count <= 0:
            return []
        start = self._pos
        words = self._words
        stop = start + count
        q = self._q
        if count > _SHORT_DRAW or stop - len(words) > self._block:
            # the buffered words, then the rest in numpy draws of at most
            # _DRAW_BLOCK words each
            self._pos = min(stop, len(words))
            u = self._raw(min(stop - self._pos, _DRAW_BLOCK))
            if self._pos > start:
                u = np.concatenate((np.array(words[start:self._pos], dtype=np.uint64), u))
            q64 = np.uint64(q)
            bits = np.empty(count, dtype=np.bool_)
            boundary = []
            at = 0
            while True:
                end = at + len(u)
                np.less(u, q64, out=bits[at:end])
                # a word equals q with probability 2**-64, so the equality
                # mask is searched as bytes, and its indices listed only on
                # a hit
                if not self._exact:
                    eq = (u == q64).tobytes()
                    if 1 in eq:
                        boundary += [at + i for i, e in enumerate(eq) if e]
                if end == count:
                    break
                at, u = end, self._raw(min(count - end, _DRAW_BLOCK))
            bits = bits.view(np.uint8)
        else:
            # as next_bit does: the buffered words, then at most one refill
            if stop > len(words):
                u = words[start:]
                words = self._refill()
                stop = count - len(u)
                u += words[:stop]
            else:
                u = words[start:stop]
            self._pos = stop
            bits = [1 if w < q else 0 for w in u]
            boundary = () if self._exact or q not in u else [i for i, w in enumerate(u) if w == q]
        # boundary words are refined in toss order
        for i in boundary:
            bits[i] = self._resolve_boundary()
        self.tosses_consumed += count
        if bits.__class__ is list:
            return bits
        # a numpy draw: one byte per bit for a chunk, a list otherwise
        return bits.tobytes() if chunk else bits.tolist()

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
