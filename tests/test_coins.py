"""Bit sources: tapes, seeded generators, forking, persistence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinfactory import CoinSource, GeneratorSource, TapeSource, coins, load_tape, mix_seed, save_tape
from coinfactory.coins import (_HEAD, _SEED_BATCH_FROM, _SEED_CHUNK, _SHORT_DRAW, _replica_seeds,
                               _seed_words, _Seeded, _stream_heads)
from coinfactory.combinators import PlanSource, constant_plan, identity_plan
from coinfactory.errors import SourceExhausted


def test_tape_replays_bits_and_counts():
    tape = TapeSource([1, 0, 1, 1])
    assert tape.tosses_consumed == 0
    assert [tape.next_bit() for _ in range(4)] == [1, 0, 1, 1]
    assert tape.tosses_consumed == 4


def test_tape_exhaustion():
    tape = TapeSource([1])
    tape.next_bit()
    with pytest.raises(SourceExhausted):
        tape.next_bit()


def test_tape_round_trip(tmp_path):
    path = tmp_path / "bits.tape"
    save_tape(path, [0, 1, 1, 0, 1])
    back = load_tape(path)
    assert [back.next_bit() for _ in range(5)] == [0, 1, 1, 0, 1]


def test_generator_deterministic_by_seed():
    a = GeneratorSource(2024, Fraction(1, 3))
    b = GeneratorSource(2024, Fraction(1, 3))
    assert a.draw_bits(200) == b.draw_bits(200)
    assert a.tosses_consumed == 200


def test_generator_draw_bits_matches_next_bit():
    # the batched path must produce the same stream as bit-at-a-time
    a = GeneratorSource(7, Fraction(2, 7))
    b = GeneratorSource(7, Fraction(2, 7))
    assert a.draw_bits(64) == [b.next_bit() for _ in range(64)]


def test_generator_seeds_differ():
    a = GeneratorSource(1, Fraction(1, 2)).draw_bits(64)
    b = GeneratorSource(2, Fraction(1, 2)).draw_bits(64)
    assert a != b


def test_generator_respects_bias():
    # seeded, so this is a frozen regression value rather than a flaky check
    bits = GeneratorSource(5, Fraction(1, 3)).draw_bits(30000)
    freq = sum(bits) / 30000
    assert abs(freq - 1 / 3) < 0.01


def test_generator_dyadic_bias_exact_path():
    bits = GeneratorSource(9, Fraction(1, 2)).draw_bits(10000)
    assert abs(sum(bits) / 10000 - 0.5) < 0.02
    assert GeneratorSource(9, Fraction(1, 2)).draw_bits(100) == bits[:100]


def test_fork_independent():
    base = GeneratorSource(42, Fraction(1, 4))
    f1 = base.fork_independent(1)
    f2 = base.fork_independent(2)
    f1_again = GeneratorSource(42, Fraction(1, 4)).fork_independent(1)
    s1 = f1.draw_bits(128)
    assert s1 == f1_again.draw_bits(128)
    assert s1 != f2.draw_bits(128)


def test_mix_seed_spreads():
    seen = {mix_seed(3, i) for i in range(2000)}
    assert len(seen) == 2000
    assert mix_seed(3, 7) == mix_seed(3, 7)
    assert mix_seed(3, 7) != mix_seed(4, 7)


# --- tape checks and bulk reads ------------------------------------------------------


@pytest.mark.parametrize("bad", [0.7, 2, "1"])
def test_tape_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        TapeSource([0, bad, 1])


def test_tape_accepts_numpy_ints_and_bools():
    tape = TapeSource([np.int64(1), np.uint8(0), True, np.bool_(False), 1.0])
    assert tape.bits == [1, 0, 1, 0, 1]
    assert all(type(b) is int for b in tape.bits)


def test_tape_draw_bits_matches_per_bit_loop():
    bits = [1, 0, 0, 1, 1, 0, 1]
    bulk, loop = TapeSource(bits), TapeSource(bits)
    for k in (0, 3, -2, 2):
        assert bulk.draw_bits(k) == CoinSource.draw_bits(loop, k)
        assert (bulk.position, bulk.tosses_consumed) == (loop.position, loop.tosses_consumed)
    # 2 bits left: both read them, count them, then refuse the third
    with pytest.raises(SourceExhausted, match="tape of length 7 fully consumed"):
        bulk.draw_bits(5)
    with pytest.raises(SourceExhausted, match="tape of length 7 fully consumed"):
        CoinSource.draw_bits(loop, 5)
    assert (bulk.position, bulk.tosses_consumed) == (loop.position, loop.tosses_consumed) == (7, 7)
    assert bulk.draw_bits(0) == []
    with pytest.raises(SourceExhausted):
        bulk.draw_bits(1)
    assert bulk.tosses_consumed == 7


# --- generator stream identity -------------------------------------------------------


def test_generator_first_bits_frozen():
    # captured before next_bit was buffered: the stream must not move
    src = GeneratorSource(7, Fraction(2, 7))
    bits = "".join(str(src.next_bit()) for _ in range(64))
    assert bits == "0001001000011000000011011000000111010101100000100000100100000001"


def test_generator_counts_bits_not_words():
    src = GeneratorSource(3, Fraction(1, 3))
    src.next_bit()
    assert src.tosses_consumed == 1
    src.draw_bits(5)
    assert src.tosses_consumed == 6


biases = st.one_of(
    st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2**70)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda b: 0 < b < 1),
)
calls = st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=150)), max_size=30)


@given(st.integers(min_value=0, max_value=2**64 - 1), biases, calls)
def test_generator_interleaving_keeps_one_stream(seed, bias, plan):
    # (True, k): k next_bit calls; (False, k): one draw_bits(k)
    src = GeneratorSource(seed, bias)
    got = []
    for one_at_a_time, k in plan:
        if one_at_a_time:
            got += [src.next_bit() for _ in range(k)]
        else:
            got += src.draw_bits(k)
        assert src.tosses_consumed == len(got)
    assert got == GeneratorSource(seed, bias).draw_bits(len(got))


class _RawWords:
    """Stand-in bit generator serving a fixed cycle of raw words."""

    def __init__(self, words):
        self.words = words
        self.drawn = 0

    def random_raw(self, size=None):
        n = 1 if size is None else size
        out = [self.words[(self.drawn + j) % len(self.words)] for j in range(n)]
        self.drawn += n
        return out[0] if size is None else np.array(out, dtype=np.uint64)


def _refined_bits(seed, bias, count):
    """The next count boundary decisions, refined with exact Fractions."""
    sub = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))
    q = (bias.numerator << 64) // bias.denominator
    out = []
    for _ in range(count):
        lo, width = Fraction(q, 2**64), Fraction(1, 2**64)
        while lo < bias < lo + width:
            width /= 2
            lo += width * (sub.random_raw() >> 63)
        out.append(1 if lo + width <= bias else 0)
    return out


class _RecordedRaw:
    """A real PCG64 that records the size of each random_raw call."""

    def __init__(self, seed):
        self.bitgen = np.random.PCG64(seed)
        self.sizes = []

    def random_raw(self, size=None):
        self.sizes.append(size)
        return self.bitgen.random_raw(size)


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_short_draws_and_next_bit_read_one_stream_through_a_boundary_word(seed):
    # the bias puts q on raw word 5 with 2**64 bias not an integer, so toss
    # 5 is refined; it falls inside the short draw of tosses 3..6
    raw = np.random.PCG64(seed).random_raw(6).tolist()
    bias = Fraction(2 * raw[5] + 1, 2 ** 65)
    plan = [3, -4, -1, 2, -30, -1, -200, 5, -5000, -7, 1, -3, -130,  # > 0: next_bit calls
            1, -200, -60]
    total = sum(abs(c) for c in plan)
    per_bit = GeneratorSource(seed, bias)
    expected = [per_bit.next_bit() for _ in range(total)]
    mixed = GeneratorSource(seed, bias)
    mixed._bitgen = _RecordedRaw(seed)
    got = []
    for c in plan:
        got += [mixed.next_bit() for _ in range(c)] if c > 0 else mixed.draw_bits(-c)
        assert mixed.tosses_consumed == len(got)
    assert got == expected
    assert expected[5] == _refined_bits(seed, bias, 1)[0]
    assert mixed._refiner is not None
    # a short draw that one refill covers takes the next block, as
    # next_bit does (8, 16, 32, 64, 128, 256, 512 words); the first 200-,
    # the 5000- and the 130-bit draws take the 185, 4941 and 13 words that
    # the buffer lacks in one call each, and the second 200-bit draw, which
    # the 256-word buffer covers, draws no word
    assert mixed._bitgen.sizes == [8, 16, 32, 185, 64, 4941, 128, 13, 256, 0, 512]


def test_a_draw_past_one_block_reads_the_stream_as_one_draw(monkeypatch):
    # blocks of 5 words: a 150-bit chunk after 3 next_bit calls takes the
    # 5 words left of the first refill and 29 blocks, and its boundary
    # word, raw word 40, is refined in toss order as next_bit refines it;
    # the 131-bit draw takes 13 buffered words, 23 blocks and 3 words
    monkeypatch.setattr(coins, "_DRAW_BLOCK", 5)
    seed = 5
    raw = np.random.PCG64(seed).random_raw(41).tolist()
    bias = Fraction(2 * raw[40] + 1, 2 ** 65)
    per_bit = GeneratorSource(seed, bias)
    expected = [per_bit.next_bit() for _ in range(3 + 150 + 3 + 131)]
    mixed = GeneratorSource(seed, bias)
    mixed._bitgen = _RecordedRaw(seed)
    got = [mixed.next_bit() for _ in range(3)]
    chunk = mixed.draw_chunk(150)
    assert isinstance(chunk, bytes)
    got += list(chunk)
    got += [mixed.next_bit() for _ in range(3)]
    got += mixed.draw_bits(131)
    assert got == expected
    assert mixed.tosses_consumed == len(got)
    assert expected[40] == _refined_bits(seed, bias, 1)[0]
    assert mixed._bitgen.sizes == [8] + [5] * 29 + [16] + [5] * 23 + [3]


def test_generator_boundary_words_refine_alike_in_both_paths():
    bias = Fraction(2, 7)
    q = (bias.numerator << 64) // bias.denominator
    pattern = [q, q - 1, q, q + 1, q, q]  # four boundary words per cycle
    refined = iter(_refined_bits(11, bias, 80))
    expected = [next(refined) if w == q else int(w < q) for w in pattern * 20]
    per_bit, bulk, mixed = (GeneratorSource(11, bias) for _ in range(3))
    for src in (per_bit, bulk, mixed):
        src._bitgen = _RawWords(pattern)
    assert [per_bit.next_bit() for _ in range(120)] == expected
    assert bulk.draw_bits(120) == expected
    got = [mixed.next_bit() for _ in range(7)] + mixed.draw_bits(50)
    got += [mixed.next_bit() for _ in range(13)] + mixed.draw_bits(50)
    assert got == expected
    assert per_bit.tosses_consumed == bulk.tosses_consumed == mixed.tosses_consumed == 120


# --- chunk draws ------------------------------------------------------------------------


def _buffer_state(src):
    return (src.tosses_consumed, src._words, src._pos, src._block, src._refiner is None)


def _chunk_and_list_draws(sources, plan):
    """Run plan on a twin pair: the first takes chunks where the second takes lists.

    plan holds (k, chunked): k > 0 is k next_bit calls on both, k <= 0 one
    draw of -k bits. After each step both must hold the same bits and
    buffer state, and a chunk over _SHORT_DRAW bits must be bytes.
    """
    chunked_src, list_src = sources
    for k, chunked in plan:
        if k > 0:
            got = [chunked_src.next_bit() for _ in range(k)]
            assert got == [list_src.next_bit() for _ in range(k)]
            continue
        bits = list_src.draw_bits(-k)
        assert type(bits) is list
        got = chunked_src.draw_chunk(-k) if chunked else chunked_src.draw_bits(-k)
        assert list(got) == bits and len(got) == -k
        if chunked and -k > _SHORT_DRAW:
            assert type(got) is bytes
            assert got.count(1) == sum(bits)
        assert _buffer_state(chunked_src) == _buffer_state(list_src)


@given(st.integers(min_value=0, max_value=2**64 - 1), biases,
       st.lists(st.tuples(st.integers(min_value=-600, max_value=40), st.booleans()), max_size=25))
def test_a_chunk_draw_is_the_list_draw(seed, bias, plan):
    _chunk_and_list_draws([GeneratorSource(seed, bias) for _ in range(2)], plan)


def test_a_chunk_draw_refines_boundary_words_as_the_list_draw():
    # four boundary words in every six, over both draw paths: long chunks
    # patch their refined bits into the bytes in toss order
    bias = Fraction(2, 7)
    q = (bias.numerator << 64) // bias.denominator
    pattern = [q, q - 1, q, q + 1, q, q]
    sources = [GeneratorSource(11, bias) for _ in range(2)]
    for src in sources:
        src._bitgen = _RawWords(pattern)
    plan = [(-200, True), (3, False), (-129, True), (-7, True), (-1000, True), (-40, True)]
    _chunk_and_list_draws(sources, plan)
    refined = iter(_refined_bits(11, bias, 920))
    expected = [next(refined) if w == q else int(w < q) for w in pattern * 230]
    again = GeneratorSource(11, bias)
    again._bitgen = _RawWords(pattern)
    assert list(again.draw_chunk(1379)) == expected[:1379]


def test_a_tape_chunk_runs_out_as_its_list_draw():
    bits = [i * 7 % 3 & 1 for i in range(300)]
    chunked, listed = TapeSource(bits), TapeSource(bits)
    assert chunked.draw_chunk(200) == listed.draw_bits(200) == bits[:200]
    # 100 bits are left: both read them, count them, then refuse the rest
    for draw in (chunked.draw_chunk, listed.draw_bits):
        with pytest.raises(SourceExhausted, match="tape of length 300 fully consumed"):
            draw(150)
    assert (chunked.position, chunked.tosses_consumed) == (listed.position,
                                                           listed.tosses_consumed) == (300, 300)


def test_a_plan_source_chunk_is_its_per_bit_draw():
    # PlanSource keeps CoinSource's draw_bits: one plan run per bit
    for plan in (identity_plan(), constant_plan(Fraction(1, 3))):
        raw = [GeneratorSource(5, Fraction(3, 10)) for _ in range(2)]
        chunked, listed = (PlanSource(plan, r) for r in raw)
        assert chunked.draw_chunk(300) == listed.draw_bits(300)
        assert chunked.tosses_consumed == listed.tosses_consumed == 300
        assert _buffer_state(raw[0]) == _buffer_state(raw[1])


# --- batched replica seeding ------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_match_numpy_seed_sequence(seeds):
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@given(st.integers(min_value=-2**70, max_value=2**70), st.integers(min_value=0, max_value=2**64 - 40))
@example(-1, 0)
@example(2**64, _SEED_CHUNK - 3)
@example(2**64 + 5, 2**64 - 40)
def test_vectorised_mix_seed_matches_scalar(seed, start):
    indices = np.arange(start, start + 37, dtype=np.uint64)
    assert mix_seed(seed, indices).tolist() == [mix_seed(seed, start + j) for j in range(37)]


@pytest.mark.parametrize("seed", [501, -1, 2**64 - 1])
def test_replica_seeds_build_the_single_seed_stream(seed):
    bias = Fraction(2, 7)
    keys = list(_replica_seeds(seed, _SEED_CHUNK + 2))
    assert len(keys) == _SEED_CHUNK + 2
    for i in (0, 1, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1):
        batched = GeneratorSource(keys[i], bias)
        single = GeneratorSource(mix_seed(seed, i), bias)
        assert batched.seed == single.seed == mix_seed(seed, i)
        assert batched.draw_bits(40) == single.draw_bits(40)
        # the boundary refiner and forks are keyed by the int seed alone
        assert batched.fork_independent(3).draw_bits(40) == single.fork_independent(3).draw_bits(40)


@pytest.mark.parametrize("runs", range(1, 10))
def test_few_replica_seeds_give_the_batched_words(monkeypatch, runs):
    # below _SEED_BATCH_FROM runs the keys are the ints mix_seed(seed, i),
    # which numpy hashes one at a time
    few = list(_replica_seeds(2**64 - 3, runs))
    assert all(key.__class__ is int for key in few) is (runs < _SEED_BATCH_FROM)
    monkeypatch.setattr(coins, "_SEED_BATCH_FROM", 1)
    batched = list(_replica_seeds(2**64 - 3, runs))
    assert len(few) == len(batched) == runs
    for a, b in zip(few, batched):
        a, b = GeneratorSource(a, Fraction(2, 7)), GeneratorSource(b, Fraction(2, 7))
        assert a.seed == b.seed
        # the first 16 raw words: a batched source's head, then the generator
        # its first refill builds; an int-seeded source's buffer is empty
        a16, b16 = (src._words + src._raw(16 - len(src._words)).tolist() for src in (a, b))
        assert a16 == b16


@pytest.mark.parametrize("runs", [_SEED_BATCH_FROM - 1, _SEED_BATCH_FROM])
def test_replica_seeds_are_batched_from_the_threshold(runs):
    keys = list(_replica_seeds(7, runs))
    assert all(key.__class__ is int for key in keys) is (runs < _SEED_BATCH_FROM)
    assert [getattr(key, "seed", key) for key in keys] == [mix_seed(7, i) for i in range(runs)]


# --- stream heads -----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_heads_match_numpy_pcg64(keys):
    heads = _stream_heads(_seed_words(np.array(keys, dtype=np.uint64)))
    assert heads.shape == (len(keys), _HEAD)
    for key, head in zip(keys, heads):
        assert head.tolist() == np.random.PCG64(key).random_raw(_HEAD).tolist()


def _headed(seed, bias):
    """A source keyed seed as _replica_seeds keys a batched replica: with its head."""
    words = _seed_words(np.array([seed], dtype=np.uint64))
    return GeneratorSource(_Seeded(seed, words[0], _stream_heads(words)[0]), bias)


@given(st.integers(min_value=0, max_value=2**64 - 1), biases,
       st.lists(st.tuples(st.integers(min_value=-300, max_value=12), st.booleans()), max_size=25))
@example(2**64 - 1, Fraction(2, 7), [(3, False), (-10, False), (-200, True), (2, True)])
@example(0, Fraction(1, 3), [(-129, True), (-5, False), (-1000, True)])
def test_a_headed_source_reads_its_int_seeded_twins_stream(seed, bias, plan):
    headed, twin = _headed(seed, bias), GeneratorSource(seed, bias)
    # the head is the block an int-seeded source draws at its first refill,
    # so after one toss each holds the same buffer
    assert headed.next_bit() == twin.next_bit()
    assert _buffer_state(headed) == _buffer_state(twin)
    _chunk_and_list_draws([headed, twin], plan)
    assert headed.draw_bits(300) == twin.draw_bits(300)
    assert _buffer_state(headed) == _buffer_state(twin)


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_a_boundary_word_in_the_head_is_refined_in_toss_order(seed):
    # as in test_short_draws_and_next_bit_read_one_stream_through_a_boundary_word,
    # q is raw word 5, inside the head, and 2**64 bias is not an integer
    raw = np.random.PCG64(seed).random_raw(_HEAD).tolist()
    bias = Fraction(2 * raw[5] + 1, 2 ** 65)
    per_bit = GeneratorSource(seed, bias)
    expected = [per_bit.next_bit() for _ in range(400)]
    assert expected[5] == _refined_bits(seed, bias, 1)[0]
    # > 0: next_bit calls; <= 0: one draw
    for plan in ([400], [5, 1, -394], [-3, -4, -393], [2, -10, 1, -387], [-200, -200]):
        headed = _headed(seed, bias)
        got = []
        for c in plan:
            got += [headed.next_bit() for _ in range(c)] if c > 0 else headed.draw_bits(-c)
            assert headed.tosses_consumed == len(got)
        assert got == expected
        assert headed._refiner is not None
