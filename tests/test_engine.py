"""Rank engine: lexicographic ranking, decisions, envelope evaluation.

Ground truth throughout is tests/helpers.py, which materializes accept and
reject sets as literal word lists and ranks by sorted enumeration.
"""

import array
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinfactory import (
    Decision,
    DoublingParams,
    GeneratorSource,
    RankContext,
    TapeSource,
    decide,
    doubling_raw_schedule,
    doubling_schedule,
    dump_envelope_csv,
    envelope_eval,
    monomial_schedule,
    mix_seed,
    monte_carlo,
    corrupt_monomial_fixture,
    simulate,
    smooth_schedule,
    SmoothnessParams,
    validate_schedule,
    word_lexrank,
)
from coinfactory import engine
from coinfactory.engine import EnvelopeSchedule, Violation, _LevelData
from coinfactory.numerics import BINOM_CACHE_LIMIT, binom, comb
from coinfactory.errors import InvalidSchedule, SourceExhausted, Undecided
from coinfactory.schedules import MODE_LIPSCHITZ
from coinfactory.verify import report_to_json

from helpers import (all_words, brute_decide, brute_lexrank, exact_rank_run, materialize_sets,
                     word_unrank)


def lipschitz_params(eps=Fraction(1, 4)):
    return SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), eps
    )


# --- ranking -----------------------------------------------------------------


def test_lexrank_exhaustive_small():
    for n in range(1, 9):
        for k in range(0, n + 1):
            for rank, word in enumerate(all_words(n, k)):
                assert word_lexrank(word) == rank == brute_lexrank(word)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
def test_lexrank_matches_brute(bits):
    assert word_lexrank(tuple(bits)) == brute_lexrank(tuple(bits))


# --- decisions ---------------------------------------------------------------


def test_decide_monomial_matches_materialized_sets():
    mon = monomial_schedule(2)
    sets = materialize_sets(mon, 6)
    ctx = RankContext(mon)
    for m in range(1 << 6):
        word = tuple((m >> (5 - j)) & 1 for j in range(6))
        assert decide(ctx, word) is brute_decide(mon, word, sets)


def test_decide_smooth_matches_materialized_sets():
    sched = smooth_schedule(lipschitz_params())
    sets = materialize_sets(sched, 8)
    ctx = RankContext(sched)
    for m in range(1 << 8):
        word = tuple((m >> (7 - j)) & 1 for j in range(8))
        assert decide(ctx, word) is brute_decide(sched, word, sets)


def test_decide_is_stable_across_contexts():
    mon = monomial_schedule(2)
    word = (1, 1, 0, 0)
    assert decide(RankContext(mon), word) is decide(RankContext(mon), word)


def test_decide_rejects_lengths_that_are_not_checkpoints():
    # smooth checkpoints are 1, 2, 4, ...; its first few levels are idle,
    # so every word of length 4 still continues
    ctx = RankContext(smooth_schedule(lipschitz_params()))
    assert decide(ctx, (1, 0, 1, 1)) is Decision.Continue
    for word in ((), (1, 0, 1), (1, 0, 1, 1, 0)):
        with pytest.raises(ValueError):
            decide(ctx, word)
    # a word extending a decided prefix takes its decision at any length
    mon = RankContext(monomial_schedule(2))
    assert decide(mon, (0, 1, 1)) is Decision.OutputZero
    with pytest.raises(ValueError):
        decide(mon, (1,))


def test_decide_flags_planted_inconsistency():
    # the fixture breaks the lower convolution bound at (n=4, k=2); any word
    # whose level-4 membership needs the missing inherited count must raise
    ctx = RankContext(corrupt_monomial_fixture())
    raised = 0
    for m in range(16):
        word = tuple((m >> (3 - j)) & 1 for j in range(4))
        try:
            decide(ctx, word)
        except InvalidSchedule:
            raised += 1
    assert raised > 0


@pytest.mark.parametrize("pair", [(Fraction(0), Fraction(2)), (Fraction(2, 3), Fraction(1, 3))],
                         ids=["count_b_above_binom", "alpha_above_beta"])
def test_bad_counts_at_the_first_checkpoint_raise(pair):
    # at (4, 2) the pairs give counts (0, 12) and (4, 2) against binom 6; the
    # first checkpoint is a jump from the empty prefix and must still check
    # 0 <= count_a <= count_b <= binom(n, k)
    bad = EnvelopeSchedule("bad", {}, lambda j: 4 << j, ab_fn=lambda n, k: pair)
    with pytest.raises(InvalidSchedule):
        decide(RankContext(bad), (0, 1, 1, 0))
    with pytest.raises(InvalidSchedule):
        simulate(bad, TapeSource([0, 1, 1, 0]))


# --- resumed rank walks ----------------------------------------------------------


def _decide_or_error(ctx, word):
    try:
        return decide(ctx, word)
    except (ValueError, InvalidSchedule) as e:
        return type(e).__name__, str(e)


def test_a_shared_context_decides_shuffled_words_as_the_materialized_sets():
    sched = smooth_schedule(lipschitz_params())
    sets = materialize_sets(sched, 8)
    words = [tuple((m >> (7 - j)) & 1 for j in range(8)) for m in range(1 << 8)]
    random.Random(15).shuffle(words)
    ctx = RankContext(sched)
    for word in words:
        assert decide(ctx, word) is brute_decide(sched, word, sets)
        # the path holds the states of one word: one per checkpoint and the start
        assert len(ctx._path) <= 1 + len(sched.checkpoints_upto(8))


def test_decide_reads_array_words_by_element():
    # numpy and array.array words expose a buffer of 8-byte items; decide
    # must rank their elements, not the buffer's bytes
    sched = smooth_schedule(lipschitz_params())
    rng = random.Random(3)
    shared = RankContext(sched)
    for _ in range(20):
        word = tuple(rng.randrange(2) for _ in range(16))
        expected = decide(RankContext(sched), word)
        assert decide(shared, np.array(word)) is expected
        assert decide(shared, array.array("q", word)) is expected
    with pytest.raises(TypeError):
        decide(shared, 5)


@pytest.mark.parametrize("word", [[2, 0], [0, 2, 1, 1], b"1011",
                                  np.array([1, 0, 0, 255])],
                         ids=["two_first", "two_inside", "ascii_digits", "byte_255"])
def test_decide_refuses_words_that_are_not_bits(word):
    # ranked as bytes, a 2 would sort above every 0/1 word and decide One
    with pytest.raises(ValueError, match="word bits must be 0 or 1"):
        decide(RankContext(monomial_schedule(2)), word)


@pytest.mark.parametrize("make", [lambda: smooth_schedule(lipschitz_params()),
                                  lambda: monomial_schedule(2)], ids=["lipschitz", "monomial_2"])
def test_a_shared_context_decides_interleaved_lengths_as_fresh_contexts(make):
    # each 16-bit word is followed by its 4- and 8-bit prefixes and by words
    # that leave it after bit 4 or 8, so a word resumes from a checkpoint
    # deeper, shallower or as deep as the last word reached; lengths 3, 5
    # and 0 are not checkpoints
    sched = make()
    rng = random.Random(2)
    words = []
    for _ in range(40):
        base = tuple(rng.randrange(2) for _ in range(16))
        for cut in (4, 8):
            words.append(base[:cut] + tuple(rng.randrange(2) for _ in range(16 - cut)))
        words += [base, base[:4], base[:8], base[:8] + (1 - base[8],) * 8, base[:3], base[:5], ()]
    ctx = RankContext(sched)
    for word in words:
        assert _decide_or_error(ctx, word) == _decide_or_error(RankContext(sched), word)


def test_the_word_after_an_invalid_schedule_resumes_as_a_fresh_context():
    # 0101 and 0110 need the broken cell (4, 2) and raise; the words after
    # them share the prefix 01 with them, whose state the raise left behind
    sched = corrupt_monomial_fixture()
    words = [tuple((m >> (3 - j)) & 1 for j in range(4)) for m in range(16)]
    words[6:6] = [(0, 1), (0, 1, 1, 0, 1, 1, 1, 1), (0, 1, 0, 1, 0, 0, 0, 0), (0, 1)]
    ctx = RankContext(sched)
    outcomes = [_decide_or_error(ctx, word) for word in words]
    assert outcomes == [_decide_or_error(RankContext(sched), word) for word in words]
    raised = [i for i, out in enumerate(outcomes) if isinstance(out, tuple)]
    assert raised and any(i + 1 not in raised for i in raised)


def test_a_resumed_large_jump_word_carries_the_bounded_prefix_state():
    # the schedule is idle below 2**15, and its idle jumps to 2**8 and beyond
    # rank on prefix bounds, so the state at 2**14 has a nonzero err and
    # pending levels; the second word shares the first 2**14 bits and
    # resumes there
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    half = 1 << 14
    rng = random.Random(7)
    first = [int(rng.random() < 0.3) for _ in range(2 * half)]
    second = first[:half] + [int(rng.random() < 0.5) for _ in range(half)]
    ctx = RankContext(sched)
    assert decide(ctx, first) is decide(RankContext(sched), first)
    state = next(state for n, state in ctx._path if n == half)
    _, _, _, _, err, _, _, _, pending = state
    assert err > 0 and pending
    assert decide(ctx, second) is decide(RankContext(sched), second)
    assert any(entry[1] is state for entry in ctx._path)


# --- lazy ranks ------------------------------------------------------------------


_RANK_SCHEDULES = {
    # the smaller margins idle below 8, 64 and 256 bits, so idle levels
    # precede the active ones
    "lipschitz_1/4": lambda: smooth_schedule(lipschitz_params(Fraction(1, 4))),
    "lipschitz_1/10": lambda: smooth_schedule(lipschitz_params(Fraction(1, 10))),
    "lipschitz_1/25": lambda: smooth_schedule(lipschitz_params(Fraction(1, 25))),
    "monomial_1": lambda: monomial_schedule(1),
    "monomial_2": lambda: monomial_schedule(2),
    "monomial_3": lambda: monomial_schedule(3),
    "corrupt": corrupt_monomial_fixture,
}


@lru_cache(maxsize=None)
def _rank_contexts(name):
    # one context per loop, so neither reads levels the other built
    schedule = _RANK_SCHEDULES[name]()
    return RankContext(schedule), RankContext(schedule)


def _outcome(run, ctx, word, cap):
    try:
        return run(ctx, TapeSource(word).draw_bits, math.inf if cap is None else cap)
    except (InvalidSchedule, SourceExhausted) as e:
        return type(e).__name__, str(e)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_RANK_SCHEDULES)),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.one_of(st.none(), st.integers(min_value=0, max_value=4096)))
def test_lazy_rank_loop_equals_the_exact_loop(name, seed, cap):
    # each example runs a batch of tapes, so the runs spread over early
    # and late decisions, long refinements, caps and exhausted tapes; past
    # about 2**8 bits the active levels rank on walk bounds
    lazy_ctx, exact_ctx = _rank_contexts(name)
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.choice([0.1, 0.3, 0.5, 0.9])
        length = rng.choice([rng.randrange(20), rng.randrange(4097), 4096])
        word = [int(rng.random() < p) for _ in range(length)]
        assert _outcome(engine._rank_run, lazy_ctx, word, cap) == \
            _outcome(exact_rank_run, exact_ctx, word, cap)


def _counting_lexrank(monkeypatch):
    lengths = []

    def counted(word):
        lengths.append(len(word))
        return word_lexrank(word)

    monkeypatch.setattr(engine, "word_lexrank", counted)
    return lengths


def test_large_jump_replica_reads_no_rank(monkeypatch):
    # idle levels always continue, and at the first active level (2**15)
    # the unread chunks' interval is far narrower than the gaps between
    # da and db, so the replica settles that level on prefix weights alone
    lengths = _counting_lexrank(monkeypatch)
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    source = GeneratorSource(1, Fraction(3, 10))
    try:
        simulate(sched, source, max_tosses=sched.idle_below)
    except Undecided:
        pass
    assert source.tosses_consumed == sched.idle_below == 1 << 15
    assert lengths == []


@pytest.mark.parametrize("side", [0, 1], ids=["below_da", "at_da"])
def test_a_crossing_interval_reads_the_long_chunks(monkeypatch, side):
    # checkpoints 256, 512, ...; 256 is idle, so the prefix's rank is its
    # lexrank rho and the run continues unread. At (512, k) the rank is
    # prefix_weight(i) + rho * C + lexrank(chunk), C = binom(256, k - i);
    # rho and the chunk are picked so that da falls strictly inside the
    # block [prefix_weight(i) + rho * C, ... + C) and r is da - 1 or da
    sched = EnvelopeSchedule("thirds", {}, lambda j: 256 << j,
                             ab_fn=lambda n, k: (Fraction(1, 3), Fraction(2, 3)),
                             idle_below=512)
    for k in range(256, 512):
        da = comb(512, k) // 3
        i, below = 0, 0
        while below + comb(256, i) * comb(256, k - i) <= da:
            below += comb(256, i) * comb(256, k - i)
            i += 1
        size = comb(256, k - i)
        rho, rem = divmod(da - below, size)
        if 1 <= rem < size - 1:
            break
    lex = rem - 1 + side
    word = word_unrank(256, i, rho) + word_unrank(256, k - i, lex)
    assert word_lexrank(word[256:]) == lex
    lengths = _counting_lexrank(monkeypatch)
    decision = decide(RankContext(sched), word)
    assert lengths == [256, 256]
    assert decision is (Decision.OutputOne if side == 0 else Decision.Continue)
    assert (decision, 512) == exact_rank_run(RankContext(sched), io.BytesIO(bytes(word)).read, 512)


def _counting_exact_prefixes(monkeypatch):
    # the exact sums, from which every exact prefix weight is read, built
    # on levels that rank on prefix bounds; a level that is not bounded is
    # summed exactly when a weight is first read
    calls = []
    build = _LevelData._build

    def counted(self):
        if self.bounded:
            calls.append((self.n, self.k))
        return build(self)

    monkeypatch.setattr(_LevelData, "_build", counted)
    return calls


def _crossing_word(side):
    # the construction of test_a_crossing_interval_reads_the_long_chunks:
    # the rank at (512, k) is da - 1 (side 0) or da (side 1)
    sched = EnvelopeSchedule("thirds", {}, lambda j: 256 << j,
                             ab_fn=lambda n, k: (Fraction(1, 3), Fraction(2, 3)),
                             idle_below=512)
    for k in range(256, 512):
        da = comb(512, k) // 3
        i, below = 0, 0
        while below + comb(256, i) * comb(256, k - i) <= da:
            below += comb(256, i) * comb(256, k - i)
            i += 1
        size = comb(256, k - i)
        rho, rem = divmod(da - below, size)
        if 1 <= rem < size - 1:
            break
    return sched, word_unrank(256, i, rho) + word_unrank(256, k - i, rem - 1 + side)


@pytest.mark.parametrize("side", [0, 1], ids=["below_da", "at_da"])
def test_a_crossing_left_open_by_prefix_bounds_takes_the_exact_prefix_once(monkeypatch, side):
    # once both chunks are read, only the bounded prefix weight of the
    # idle jump 256 -> 512 keeps [lo, lo + err + 1) across da
    sched, word = _crossing_word(side)
    lengths = _counting_lexrank(monkeypatch)
    calls = _counting_exact_prefixes(monkeypatch)
    decision = decide(RankContext(sched), word)
    assert lengths == [256, 256]
    assert len(calls) == 1 and calls[0][0] == 512
    assert decision is (Decision.OutputOne if side == 0 else Decision.Continue)


def test_large_jump_replica_takes_no_exact_prefix(monkeypatch):
    # the bounds' error is about 2**-120 of the weights, far inside the
    # gaps between da and db, so no replica needs an exact prefix
    calls = _counting_exact_prefixes(monkeypatch)
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    for seed in (1, 2):
        source = GeneratorSource(seed, Fraction(3, 10))
        try:
            simulate(sched, source, max_tosses=sched.idle_below)
        except Undecided:
            pass
        assert source.tosses_consumed == 1 << 15
    assert calls == []


def test_a_large_jump_replica_decided_on_its_jump_walks_once(monkeypatch):
    # the replica draws its first 2**15 bits in one chunk and bounds its
    # rank there by that level's one prefix walk, without entering the rank
    # loop
    walks, runs = [], []
    walk, rank_run = _LevelData._walk_bounds, engine._rank_run
    monkeypatch.setattr(_LevelData, "_walk_bounds", lambda self, *a: walks.append(self.n)
                        or walk(self, *a))
    monkeypatch.setattr(engine, "_rank_run", lambda *a: runs.append(1) or rank_run(*a))
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    out = simulate(sched, GeneratorSource(4, Fraction(3, 10)), max_tosses=sched.idle_below)
    assert (out.bit, out.tosses) == (1, 1 << 15)
    assert walks == [1 << 15] and runs == []


def test_a_replaying_large_jump_replica_builds_its_first_active_level_once(monkeypatch):
    # seed 38's jump interval at 2**15 crosses a count, so rank_word ranks
    # the word in the rank loop, which takes the level the jump built,
    # kept as the context's last level above 2**14, with its prefix walk
    builds, walks, runs = [], [], []
    init, walk, rank_run = _LevelData.__init__, _LevelData._walk_bounds, engine._rank_run
    monkeypatch.setattr(_LevelData, "__init__", lambda self, ctx, m, n, k, b=None:
                        builds.append(n) or init(self, ctx, m, n, k, b))
    monkeypatch.setattr(_LevelData, "_walk_bounds", lambda self, *a: walks.append(self.n)
                        or walk(self, *a))
    monkeypatch.setattr(engine, "_rank_run", lambda *a: runs.append(1) or rank_run(*a))
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    out = simulate(sched, GeneratorSource(38, Fraction(3, 10)), max_tosses=sched.idle_below)
    assert (out.bit, out.tosses) == (1, 1 << 15)
    assert runs == [1]
    assert builds.count(1 << 15) == walks.count(1 << 15) == 1


@lru_cache(maxsize=None)
def _bounded_jump_schedule():
    # idle below 2**12: the jump 2**11 -> 2**12 ranks on prefix bounds
    schedule = smooth_schedule(lipschitz_params(Fraction(1, 100)))
    assert schedule.idle_below == 1 << 12
    return schedule, RankContext(schedule)


def _unrank(ctx, n, k, r):
    """The word of length n and weight k with rank r at checkpoint n, for
    doubling checkpoints; its prefix continues at every checkpoint below n."""
    if n == 1:
        return (k,)
    m = n // 2
    level = _LevelData(ctx, m, n, k)
    lo, hi = max(0, k - m), min(m, k)
    while lo < hi:  # the largest i with prefix_weight(i) <= r
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if level.prefix_weight(mid) <= r else (lo, mid - 1)
    rho, lex = divmod(r - level.prefix_weight(lo), comb(n - m, k - lo))
    # the prefix's rank at m is rho above that level's da
    below = _LevelData(ctx, m // 2, m, lo).da if m > 1 else 0
    return _unrank(ctx, m, lo, below + rho) + word_unrank(n - m, k - lo, lex)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1024, max_value=3072), st.booleans(),
       st.integers(min_value=-2, max_value=2))
def test_lazy_rank_loop_equals_the_exact_loop_past_a_bounded_jump(k, at_db, offset):
    # a rank a step or two from da or db at the first active level 2**12
    # keeps the interval crossing through the reads of the 2**11-bit
    # chunks, and then on the prefix bounds' error alone
    schedule, exact_ctx = _bounded_jump_schedule()
    level = exact_ctx.level_data(12, 2048, 4096, k)
    r = (level.db if at_db else level.da) + offset
    word = _unrank(exact_ctx, 4096, k, r)
    assert sum(word) == k
    # a fresh context, so no exact prefix weight is memoized for the run
    assert _outcome(engine._rank_run, RankContext(schedule), word, 4096) == \
        _outcome(exact_rank_run, exact_ctx, word, 4096)


@lru_cache(maxsize=None)
def _idle_jump_schedules(name):
    # Lipschitz 1/100, idle below 2**12, whose jump to 2**12 simulate takes
    # from the last idle checkpoint 2**11; "planted" refuses two in three
    # weights of 2**12 on the bounds of that jump, lower (alpha < 0) or
    # upper (beta > 1). The second context is the rank loop's
    schedule = smooth_schedule(lipschitz_params(Fraction(1, 100)))
    if name == "planted":
        base, n0 = schedule, schedule.idle_below

        def ab(n, k):
            a, b = base.ab_values(n, k)
            if n == n0 and k % 3 < 2:
                return (a - 1, b) if k % 3 else (a, b + 1)
            return a, b

        schedule = EnvelopeSchedule("planted", {}, base.checkpoint, ab_fn=ab, idle_below=n0)
    assert schedule.rank_context._idle_points == [1 << j for j in range(12)]
    return schedule, RankContext(schedule)


def _simulated(schedule, word, cap):
    try:
        out = simulate(schedule, TapeSource(word), max_tosses=cap)
        return out.bit, out.tosses
    except Undecided as u:
        return None, u.tosses
    except (InvalidSchedule, SourceExhausted) as e:
        return type(e).__name__, str(e)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["clean", "planted"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.one_of(st.none(), st.integers(min_value=0, max_value=8192)),
       st.integers(min_value=1024, max_value=3072), st.booleans(),
       st.integers(min_value=-2, max_value=2))
def test_simulate_jumps_an_idle_prefix_as_the_rank_loop_ranks_it(name, seed, cap, k, at_db,
                                                                 offset):
    # tapes that end before, at and past the first active checkpoint
    # 2**12, under caps and on a level refused at 2**12; and one word whose
    # rank at 2**12 lies a step or two from da or db, so the jump's
    # interval crosses it and rank_word ranks the word in the rank loop
    schedule, ctx = _idle_jump_schedules(name)
    rng = random.Random(seed)
    words = []
    for _ in range(20):
        p = rng.choice([0.1, 0.3, 0.5, 0.9])
        length = rng.choice([rng.randrange(4096), 4096, rng.randrange(4097, 8193), 8192])
        words.append([int(rng.random() < p) for _ in range(length)])
    _, exact_ctx = _bounded_jump_schedule()
    level = exact_ctx.level_data(12, 2048, 4096, k)
    word = list(_unrank(exact_ctx, 4096, k, (level.db if at_db else level.da) + offset))
    words.append(word + [int(rng.random() < 0.5) for _ in range(rng.randrange(4097))])
    for word in words:
        ranked = _outcome(engine._rank_run, ctx, word, cap)
        if ranked[0] in (Decision.OutputOne, Decision.OutputZero):
            ranked = int(ranked[0] is Decision.OutputOne), ranked[1]
        elif ranked[0] is Decision.Continue:
            ranked = None, ranked[1]
        assert _simulated(schedule, word, cap) == ranked


@lru_cache(maxsize=None)
def _walked_jump_schedule():
    # idle below 8: the jump 2**11 -> 2**12 is active and ranks on walk bounds
    schedule = smooth_schedule(lipschitz_params(Fraction(1, 4)))
    return schedule, RankContext(schedule)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1024, max_value=3072), st.booleans(),
       st.integers(min_value=-2, max_value=2))
def test_lazy_rank_loop_equals_the_exact_loop_past_a_walked_jump(k, at_db, offset):
    # a rank a step or two from da or db at the non-idle level 2**11 ->
    # 2**12 stays inside the bounds' error on da and db once every chunk
    # is read, so the run takes that level's exact sums
    schedule, exact_ctx = _walked_jump_schedule()
    level = exact_ctx.level_data(12, 2048, 4096, k)
    assert level.bounded and level.ta_err > 0
    r = (level.db if at_db else level.da) + offset
    word = _unrank(exact_ctx, 4096, k, r)
    assert sum(word) == k
    ctx = RankContext(schedule)
    assert _outcome(engine._rank_run, ctx, word, 4096) == \
        _outcome(exact_rank_run, exact_ctx, word, 4096)
    assert ctx.level_data(12, 2048, 4096, k)._ta is not None


def _planted_lipschitz(cell, shift):
    # Lipschitz 1/4 with alpha and beta at one cell moved by shift
    base = smooth_schedule(lipschitz_params(Fraction(1, 4)))

    def ab(n, k):
        a, b = base.ab_values(n, k)
        return (a + shift, b + shift) if (n, k) == cell else (a, b)

    return EnvelopeSchedule("planted", {}, base.checkpoint, ab_fn=ab,
                            idle_below=base.idle_below)


@pytest.mark.parametrize("make, cap, raw, clean", [
    (lambda: smooth_schedule(lipschitz_params(Fraction(1, 4))), 2048, False, True),
    (lambda: doubling_raw_schedule(DoublingParams(Fraction(3, 25))), 1024, True, True),
    # a planted cell fails a consistency check of its bounded level, and
    # the levels that jump from its row fail the other
    (lambda: _planted_lipschitz((512, 256), Fraction(1, 10)), 1024, False, False),
    (lambda: _planted_lipschitz((512, 300), Fraction(-1, 10)), 1024, False, False),
], ids=["lipschitz", "doubling_raw", "planted_up", "planted_down"])
def test_validation_on_bounds_reports_as_the_exact_sums(monkeypatch, make, cap, raw, clean):
    bounded = validate_schedule(make(), cap)
    monkeypatch.setattr(engine, "_W", 1 << 20)  # no level reaches 2**_W: all exact
    exact = validate_schedule(make(), cap)
    assert bounded == exact
    # a raw variant is held to the consistency checks alone
    checked = [v for v in exact.violations if not raw or v.kind != "bounds"]
    assert (checked == []) is clean


def _counting_exact_builds(monkeypatch):
    # the exact sums built for non-idle levels that reach 2**_W, which
    # rank and are checked on walk bounds
    calls = []
    build = _LevelData._build

    def counted(self, *args):
        if not self._idle and binom(self.n, self.k) >> engine._W:
            calls.append((self.n, self.k))
        return build(self, *args)

    monkeypatch.setattr(_LevelData, "_build", counted)
    return calls


def test_lipschitz_validates_clean_to_4096_on_bounds(monkeypatch):
    # on the exact sums this validation takes about 40 s and reports no
    # violation (2 cores, Python 3.11.7); the bounds settle every check
    exact = _counting_exact_builds(monkeypatch)
    report = validate_schedule(smooth_schedule(lipschitz_params(Fraction(1, 4))), 4096)
    assert report.violations == [] and report.checked[-1] == 4096
    assert exact == []


def test_capped_lipschitz_runs_take_almost_no_exact_non_idle_sums(monkeypatch):
    # criterion 3c's schedule and cap: every level from about 2**8 on is
    # walked, and its exact sums are built only for a fallback
    exact = _counting_exact_builds(monkeypatch)
    sched = smooth_schedule(lipschitz_params(Fraction(1, 4)))
    report = monte_carlo(sched, Fraction(3, 10), 3000, 17, max_tosses=4096, undecided="midpoint")
    assert report.runs == 3000
    assert len(exact) <= 5


def test_a_run_passes_a_level_whose_checks_only_the_exact_sums_settle():
    # p**1 is exact: da = 0 and db = total at every level, so no bound can
    # settle the consistency checks. A run's level leaves them to
    # validation, which takes the exact sums
    sched = monomial_schedule(1)
    level = RankContext(sched).level_data(8, 128, 256, 128)
    assert level.bounded and level._ta is None
    assert list(level.failed_checks()) == []
    assert level._ta is not None and level.da == 0 and level.db == level.total


@pytest.mark.parametrize("cell, shift, check", [
    ((512, 300), Fraction(-1, 10), "lower consistency"),
    ((512, 256), Fraction(1, 10), "upper consistency"),
])
def test_a_run_refuses_a_level_whose_bounds_show_a_violation(monkeypatch, cell, shift, check):
    # on the bounds alone: the refusal builds no exact sum
    exact = _counting_exact_builds(monkeypatch)
    sched = _planted_lipschitz(cell, shift)
    with pytest.raises(InvalidSchedule, match=f"{check}: .* by at least"):
        RankContext(sched).level_data(9, 256, *cell)
    assert exact == []


@pytest.mark.parametrize("check", ["lower", "upper"])
def test_a_run_refuses_a_level_whose_open_check_fails_on_the_exact_sums(check):
    # count_a (count_b) of one cell of the walked level 2**11 -> 2**12 is
    # planted one below (above) the carried mass. The bounds' error leaves
    # the check open, so the level is built; a run whose rank there sits
    # at that count takes the level's exact sums and refuses it
    base, exact_ctx = _walked_jump_schedule()
    n, k = 4096, 2048
    level = exact_ctx.level_data(12, 2048, n, k)
    alpha, beta = base.ab_values(n, k)
    if check == "lower":
        pair, r = (Fraction(level.ta - 1, binom(n, k)), beta), 0
    else:
        pair, r = (alpha, Fraction(level.ta + level.total + 1, binom(n, k))), level.total - 1
    sched = EnvelopeSchedule("planted", {}, base.checkpoint, idle_below=base.idle_below,
                             ab_fn=lambda m, i: pair if (m, i) == (n, k) else base.ab_values(m, i))
    ctx = RankContext(sched)
    planted = ctx.level_data(12, 2048, n, k)
    assert planted._ta is None and (planted.da_hi > 0 if check == "lower" else
                                    planted.db_hi - planted.ta_err < level.total)
    word = _unrank(exact_ctx, n, k, r)
    with pytest.raises(InvalidSchedule, match=f"{check} consistency"):
        engine._rank_run(ctx, TapeSource(word).draw_bits, n)
    # the reference loop, on the exact sums, passes the level
    assert exact_rank_run(ctx, TapeSource(word).draw_bits, n) == (Decision.Continue, n)


# --- envelope evaluation -------------------------------------------------------


def test_envelope_eval_monomial_exact():
    mon = monomial_schedule(2)
    values = envelope_eval(mon, Fraction(1, 3), 2)
    assert values.g == Fraction(1, 9)
    assert values.h == Fraction(1, 9)


def test_envelope_eval_smooth_frozen_values():
    # brute-forced from materialized A/B sets at p = 3/10
    sched = smooth_schedule(lipschitz_params())
    v8 = envelope_eval(sched, Fraction(3, 10), 8)
    assert v8.g == Fraction(31971849, 100000000)
    assert v8.h == Fraction(8137363, 10000000)
    v16 = envelope_eval(sched, Fraction(3, 10), 16)
    assert v16.g == Fraction(4211336411073519, 10000000000000000)
    assert v16.h == Fraction(45488112188893, 62500000000000)
    assert v16.h - v16.g < v8.h - v8.g


def test_envelope_eval_idle_phase():
    sched = smooth_schedule(lipschitz_params())
    v = envelope_eval(sched, Fraction(3, 10), 4)
    assert (v.g, v.h) == (0, 1)


def test_envelope_eval_float_mode_brackets_exact():
    sched = smooth_schedule(lipschitz_params())
    exact = envelope_eval(sched, Fraction(3, 10), 16)
    aprx = envelope_eval(sched, Fraction(3, 10), 16, mode="float-with-bound")
    assert abs(aprx.g - exact.g) <= aprx.g_err
    assert abs(aprx.h - exact.h) <= aprx.h_err


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                               Fraction(1, 1000), Fraction(999, 1000)])
def test_envelope_eval_float_tail_cutoff_brackets_exact(n, p):
    # at these sizes the pmf walk stops short of k = 0 or k = n on some
    # side, so the geometric tail term is part of the bound; at 1/1000
    # and 999/1000 the mode sits at or next to one end of the row
    sched = smooth_schedule(lipschitz_params())
    exact = envelope_eval(sched, p, n)
    aprx = envelope_eval(sched, p, n, mode="float-with-bound")
    assert abs(Fraction(aprx.g) - exact.g) <= Fraction(aprx.g_err)
    assert abs(Fraction(aprx.h) - exact.h) <= Fraction(aprx.h_err)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10).map(lambda j: 1 << j),
       st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                    max_denominator=1000))
def test_envelope_eval_float_brackets_exact_at_a_coarse_width(n, p):
    # at 8 fractional bits the walked weights lose a large share to
    # rounding and each side stops within a few dozen terms, often on a
    # zero term, so the bracket holds only through its error bound. n is
    # a checkpoint: the Lipschitz schedule's are the powers of two
    sched = smooth_schedule(lipschitz_params())
    assert sched.is_checkpoint(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_W", 8)
        aprx = envelope_eval(sched, p, n, mode="float-with-bound")
    exact = envelope_eval(sched, p, n)
    assert abs(Fraction(aprx.g) - exact.g) <= Fraction(aprx.g_err)
    assert abs(Fraction(aprx.h) - exact.h) <= Fraction(aprx.h_err)


@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)])
def test_envelope_eval_float_tail_term_carries_a_large_cutoff(monkeypatch, p):
    # at 12 fractional bits each side of the walk at n = 1024 stops within
    # a few dozen terms and skips dozens of ulps of the row's mass, so the
    # bracket must hold with a large cutoff and its tail in the error bound
    monkeypatch.setattr(engine, "_W", 12)
    n, a, d = 1024, p.numerator, p.denominator
    k0 = (n + 1) * a // d
    for walk in ((n, a, d - a, k0), (n, d - a, a, n - k0)):
        terms, tail = engine._pmf_walk(*walk)
        assert len(terms) < 100 and tail > 10
    sched = smooth_schedule(lipschitz_params())
    aprx = envelope_eval(sched, p, n, mode="float-with-bound")
    exact = envelope_eval(sched, p, n)
    assert abs(Fraction(aprx.g) - exact.g) <= Fraction(aprx.g_err)
    assert abs(Fraction(aprx.h) - exact.h) <= Fraction(aprx.h_err)


def test_envelope_eval_float_radii_at_the_doubler_first_active_checkpoint():
    # double:3/25 at n0 = 2**17, p = 1/10: h - g is 7.8e-60 and the count
    # rounding slack far smaller, so the radii are the doubles' own rounding
    sched = doubling_schedule(DoublingParams(Fraction(3, 25)))
    values = envelope_eval(sched, Fraction(1, 10), sched.metadata()["n0"],
                           mode="float-with-bound")
    assert 0 < values.g_err <= 1e-15 and 0 < values.h_err <= 1e-15


@pytest.mark.parametrize("n,p", [(64, Fraction(1, 10)), (300, Fraction(3, 10)),
                                 (1024, Fraction(1, 2))])
def test_pmf_walk_tail_bounds_the_skipped_weights(n, p):
    pmf = [comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
    a, c = p.numerator, p.denominator - p.numerator
    k0 = (n + 1) * a // p.denominator
    one = 1 << engine._W
    # each side's terms are the weights relative to the mode's, s ulps out
    points, tail = [], 0
    for step, walk in ((1, (n, a, c, k0)), (-1, (n, c, a, n - k0))):
        terms, side_tail = engine._pmf_walk(*walk)
        tail += side_tail
        points += [(k0 + step * s, s, t) for s, t in enumerate(terms) if s or step > 0]
    visited = {k for k, _, _ in points}
    assert len(visited) == len(points) < n + 1
    for k, s, t in points:
        assert Fraction(t, one) <= pmf[k] / pmf[k0] <= Fraction(t + s, one)
    skipped = sum(pmf[k] for k in range(n + 1) if k not in visited)
    assert 0 < skipped <= pmf[k0] * Fraction(tail, one)


def test_envelope_eval_float_visits_fewer_weights_than_the_row():
    sched = smooth_schedule(lipschitz_params())
    visited = []
    ab_values = sched.ab_values
    sched.ab_values = lambda n, k: visited.append(k) or ab_values(n, k)
    envelope_eval(sched, Fraction(3, 10), 4096, mode="float-with-bound")
    assert len(visited) < 4096 + 1


@given(st.integers(min_value=0, max_value=200),
       st.one_of(st.just(Fraction(1, 2)),
                 st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                              max_denominator=1000)))
def test_rounding_slack_bounds_the_weight_sum(n, p):
    q = 1 - p
    weights = sum(p ** k * q ** (n - k) for k in range(n + 1))
    a, d = p.numerator, p.denominator
    ulp = Fraction(1, 1 << engine._W)
    slack = engine._rounding_slack(n, a, d - a, d ** n) * ulp
    assert weights <= slack < weights + ulp
    if p != Fraction(1, 2):
        # no looser than the geometric bound M^(n+1) / (M - m), up to rounding
        big, small = max(p, q), min(p, q)
        assert slack <= big ** (n + 1) / (big - small) + ulp


def test_envelope_eval_float_rejects_pair_outside_unit_interval():
    stub = EnvelopeSchedule("stub", {}, lambda j: 1 << j,
                            ab_fn=lambda n, k: (Fraction(0), Fraction(2)))
    with pytest.raises(InvalidSchedule):
        envelope_eval(stub, Fraction(1, 3), 16, mode="float-with-bound")


def test_envelope_eval_rejects_bad_arguments():
    mon = monomial_schedule(2)
    with pytest.raises(ValueError):
        envelope_eval(mon, Fraction(1, 3), 3)  # not a checkpoint
    with pytest.raises(ValueError):
        envelope_eval(mon, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        envelope_eval(mon, Fraction(1, 3), 2, mode="fast")


# --- idle-prefix streaming ------------------------------------------------------


@given(st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
def test_idle_prefix_matches_direct_vandermonde_sum(nmk):
    n, m, k = nmk
    # idle at every length, so the jump m -> n sums an idle row's counts
    idle = EnvelopeSchedule("idle", {}, lambda j: 1 << j, None, idle_below=1 << 20)
    ctx = RankContext(idle)
    level = _LevelData(ctx, m, n, k)
    ilo, ihi = max(0, k - (n - m)), min(m, k)
    # i runs from below ilo to past ihi + 1, so both edges are hit, and
    # the weights come from the exact build's snapshots, on a fresh level
    # for each i, and from the level's memo
    direct = 0
    for i in range(ilo - 1, ihi + 3):
        assert _LevelData(ctx, m, n, k).prefix_weight(i) == direct
        assert level.prefix_weight(i) == direct
        direct += comb(m, i) * comb(n - m, k - i)
    # the build's own sums are the idle ones: no carried mass, and the
    # Vandermonde total
    level._build()
    assert (level._ta, level._total) == (0, comb(n, k))


_IDLE = EnvelopeSchedule("idle", {}, lambda j: 1 << j, None, idle_below=1 << 20)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=1 << 12),
       st.integers(min_value=1, max_value=1 << 12), st.data())
def test_prefix_bounds_bracket_the_exact_idle_prefix(m, d, data):
    n = m + d
    k = data.draw(st.integers(min_value=0, max_value=n))
    ctx = RankContext(_IDLE)
    level = _LevelData(ctx, m, n, k)
    ilo, ihi = max(0, k - d), min(m, k)
    mode = (k + 1) * (m + 1) // (n + 2)
    points = (ilo, ilo + 1, mode - 1, mode, mode + 1, ihi, ihi + 1)
    # bounds first: an exact weight memoized on the level would stand in for them
    bounds = [level.prefix_bounds(i) for i in points]
    for i, (lo, err) in zip(points, bounds):
        assert 0 <= err
        assert lo <= _LevelData(ctx, m, n, k).prefix_weight(i) <= lo + err


def test_prefix_bounds_at_the_large_jump_are_tight():
    m, n = 1 << 14, 1 << 15
    k = 3 * n // 10
    level = _LevelData(RankContext(_IDLE), m, n, k)
    mode = (k + 1) * (m + 1) // (n + 2)
    for i in (mode - 50, mode, mode + 1, mode + 50):
        lo, err = level.prefix_bounds(i)
        assert 0 < err and err << 100 < lo
        assert lo <= level.prefix_weight(i) <= lo + err


def _near(data, at, t):
    """at moved a few words, or a power-of-two share of t, either way."""
    return at + data.draw(st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.builds(lambda sign, r: sign * (t >> r), st.sampled_from([-1, 1]),
                  st.integers(min_value=0, max_value=40))))


@pytest.mark.parametrize("width", [engine._W, 8])
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=1 << 12),
       st.integers(min_value=1, max_value=1 << 12), st.data())
def test_a_settling_prefix_walk_decides_only_as_the_exact_prefix_weight(width, m, d, data):
    # an idle jump m -> n decides One if P(i) + t <= da and Zero if
    # P(i) >= db, t = binom(m, i) binom(d, k - i); with da and db placed
    # close to either side of the exact P(i) + t and P(i), the walk that
    # stops once its bounds settle the jump must stay sound, decide only
    # as the exact weight does, and keep its bounds only if they settle
    # nothing, when they are the full walk's
    n = m + d
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_W", width)
        k = data.draw(st.integers(min_value=0, max_value=n))
        ctx = RankContext(_IDLE)
        level = _LevelData(ctx, m, n, k)
        assume(level.bounded and level._ilo < level._ihi)
        i = data.draw(st.integers(min_value=level._ilo + 1, max_value=level._ihi))
        t = comb(m, i) * comb(d, k - i)
        exact = _LevelData(ctx, m, n, k).prefix_weight(i)
        level.da_hi = _near(data, exact + t, t)
        level.db_hi = _near(data, exact, t)
        lo, err = level.prefix_bounds(i, t)
        full = _LevelData(ctx, m, n, k).prefix_bounds(i)
    assert 0 <= err and lo <= exact <= lo + err
    one = lo + err + t <= level.da_hi - level.ta_err
    zero = lo >= level.db_hi
    assert not one or exact + t <= level.da_hi - level.ta_err
    assert not zero or exact >= level.db_hi
    if one or zero:
        assert i not in level._bounds
    else:
        assert (lo, err) == level._bounds[i] == full


@pytest.mark.parametrize("width", [engine._W, 8])
@settings(deadline=None)
@given(st.integers(min_value=engine._JUMP_FROM, max_value=1 << 12),
       st.integers(min_value=1, max_value=1 << 12), st.data())
def test_an_idle_jump_decides_only_as_the_exact_block(width, m, d, data):
    # _jump itself, on an idle prefix of m bits and its first active
    # checkpoint n = m + d: with da and db placed close to either side of
    # the exact P(i) + t and P(i), by shares of t or of P(i) + t (the
    # scale of the walk's own error), including the row ends i = ilo
    # (P = 0) and i = ihi, its scaled test may decide One only if
    # P(i) + t <= da and Zero only if P(i) >= db, and at full width it
    # decides every block that lies clear of both
    n = m + d
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_W", width)
        k = data.draw(st.integers(min_value=0, max_value=n))
        schedule = EnvelopeSchedule("jump", {}, lambda j: (m, n)[j] if j < 2 else None,
                                    lambda n, k: (Fraction(1, 4), Fraction(3, 4)),
                                    idle_below=m + 1)
        ctx = schedule.rank_context
        level = ctx.level_data(1, m, n, k)
        assume(level.bounded)
        ilo, ihi = level._ilo, level._ihi
        i = data.draw(st.one_of(st.sampled_from([ilo, ihi]), st.integers(ilo, ihi)))
        t = comb(m, i) * comb(d, k - i)
        exact = _LevelData(ctx, m, n, k).prefix_weight(i)
        scale = data.draw(st.sampled_from([t, exact + t]))
        level.da_hi = _near(data, exact + t, scale)
        level.db_hi = _near(data, exact, scale)
        word = bytes([1] * i + [0] * (m - i) + [1] * (k - i) + [0] * (d - k + i))
        decision = engine._jump(ctx, word)
    assert decision is not Decision.OutputOne or exact + t <= level.da_hi - level.ta_err
    assert decision is not Decision.OutputZero or exact >= level.db_hi
    margin = (t >> 64) + 2
    clear = exact + t + margin <= level.da_hi - level.ta_err or exact >= level.db_hi + margin
    if width == engine._W and clear:
        assert decision is not None


def test_a_settling_walk_stops_where_the_jump_is_decided(monkeypatch):
    # at large_jump's first active level most replicas' blocks lie far
    # from da and db (seed 0's included), so the walk stops within a few
    # terms of i, where the full walk takes hundreds, and keeps nothing
    lengths = []
    walk_out = engine._walk_out

    def counted(*args):
        terms, tail = walk_out(*args)
        lengths.append(len(terms))
        return terms, tail

    monkeypatch.setattr(engine, "_walk_out", counted)
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    out = simulate(sched, GeneratorSource(0, Fraction(3, 10)), max_tosses=sched.idle_below)
    assert (out.bit, out.tosses) == (1, 1 << 15)
    assert len(lengths) == 1 and lengths[0] < 10
    level = sched.rank_context._levels[sched.rank_context._large_level]
    assert level._bounds == {}
    lo, err = level.prefix_bounds(3 * (1 << 14) // 10)
    assert lengths[1] > 100 and err << 100 < lo


@pytest.mark.parametrize("m, d, k, j", [(40, 50, 45, 25), (300, 20, 100, 95),
                                        (2000, 3000, 2500, 1010), (4096, 4096, 1229, 620)])
def test_a_walk_stopped_on_its_high_sum_alone_bounds_the_terms_between_them(m, d, k, j):
    # given high without low, the walk still adds its terms up, so the
    # upper sum it stops on lies between the true one and high
    def t(i):
        return comb(m, i) * comb(d, k - i)

    exact = Fraction(sum(t(i) for i in range(j, min(m, k) + 1)) << engine._W, t(j))
    terms, tail = engine._walk_out(m, d, k, j)
    s = len(terms)
    full = sum(terms) + s * (s - 1) // 2 + tail
    for high in (full, math.ceil(exact) + (1 << engine._W - 12), 2 * full):
        terms, tail = engine._walk_out(m, d, k, j, high=high)
        s = len(terms)
        up = sum(terms) + s * (s - 1) // 2 + tail
        assert exact <= up <= high
        assert sum(terms) <= exact


def _walks_digest(walks):
    return hashlib.sha256(json.dumps([[list(t), tail] for t, tail in walks],
                                     separators=(",", ":")).encode("ascii")).hexdigest()


def test_walkers_outputs_are_pinned():
    # both walkers are one fixed-point walk given different step ratios:
    # every term, tail and early stop is bit for bit what each walked alone
    one = 1 << engine._W
    outs = []
    for m, d in [(1, 1), (2, 5), (7, 3), (64, 64), (200, 56), (1000, 1000), (4096, 4096)]:
        n = m + d
        for k in sorted({1, n // 3, n // 2, n - 1}):
            mode = min(max((k + 1) * (m + 1) // (n + 2), max(0, k - d)), min(m, k))
            outs += [engine._walk_out(m, d, k, mode), engine._walk_out(d, m, k, k - mode)]
            for low, high in ((None, None), (3 * one // 2, None), (None, 5 * one // 2),
                              (3 * one // 2, 5 * one // 2)):
                outs.append(engine._walk_out(m, d, k, min(mode + 3, m, k), low, high))
    assert len(outs) == 156
    assert _walks_digest(outs) == \
        "83870f882e38b4fd43ad4f343d80d682ebef8836ba7d308149ade99a148ec01e"
    pmf = []
    for n in (1, 10, 100, 1000, 4096, 1 << 17):
        for a, q in ((1, 10), (1, 3), (1, 2), (3, 4), (3, 25)):
            k0 = (n + 1) * a // q
            pmf += [engine._pmf_walk(n, a, q - a, k0), engine._pmf_walk(n, q - a, a, n - k0)]
    assert len(pmf) == 60
    assert _walks_digest(pmf) == \
        "78680f0fd2a116c64793d9c93567e287a34fae714d146f37fed2e7583793d774"


def _random_unit_schedule(seed, points=None):
    # checkpoints at arbitrary lengths up to 300, unless given, and, at
    # every cell, some 0 <= alpha <= beta <= 1: the consistency checks
    # fail, but the bounds must hold whatever the counts
    rng = random.Random(seed)
    points = points or sorted(rng.sample(range(2, 301), 8))

    def ab(n, k):
        cell = random.Random(seed * 1_000_003 + n * 1009 + k)
        return tuple(sorted(Fraction(cell.randrange(1001), 1000) for _ in range(2)))

    return EnvelopeSchedule("random", {}, lambda j: points[j] if j < len(points) else None,
                            ab_fn=ab)


def _check_level_bounds(level):
    # on the bounds alone first: an exact weight memoized on the level
    # would stand in for them
    points = range(level._ilo, level._ihi + 2)
    bounds = [level.prefix_bounds(i) for i in points]
    for i, (lo, err) in zip(points, bounds):
        assert 0 <= err
        assert lo <= level.prefix_weight(i) <= lo + err
    assert level.da_hi - level.ta_err <= level.da <= level.da_hi
    return len(bounds)


@pytest.mark.parametrize("width", [8, 16])
def test_walk_bounds_stay_sound_at_the_row_ends(monkeypatch, width):
    # with _W this low, walks on rows of at most 300 reach min(m, k) and,
    # mirrored, max(0, k - d), where the terms stop
    monkeypatch.setattr(engine, "_W", width)
    walk_out = engine._walk_out
    ends = []

    def counted(m, d, k, j):
        terms, tail = walk_out(m, d, k, j)
        ends.append(j + len(terms) - 1 == min(m, k))
        return terms, tail

    monkeypatch.setattr(engine, "_walk_out", counted)
    idle_points = 0
    for m, n in ((1, 300), (64, 128), (100, 300), (128, 256), (200, 300), (299, 300)):
        ctx = RankContext(_IDLE)
        for k in range(n + 1):
            level = _LevelData(ctx, m, n, k)
            if level.bounded:
                idle_points += _check_level_bounds(level)
    assert idle_points > 10_000 and any(ends) and not all(ends)
    ends.clear()
    walked = 0
    for schedule in (smooth_schedule(lipschitz_params(Fraction(1, 4))), monomial_schedule(2),
                     monomial_schedule(3), _random_unit_schedule(5)):
        ctx = RankContext(schedule)
        points = [0] + schedule.checkpoints_upto(300)
        for m, n in zip(points, points[1:]):
            for k in range(n + 1):
                level = _LevelData(ctx, m, n, k)
                if level.bounded and not level._idle:
                    _check_level_bounds(level)
                    walked += 1
    assert walked > 1000 and any(ends) and not all(ends)


@pytest.mark.parametrize("width", [engine._W, 8])
@pytest.mark.parametrize("points", [[3, 400], [20, 300]])
def test_walk_sums_stay_sound_from_a_short_source_row(monkeypatch, width, points):
    # each walked count misses its real value alpha b or beta b by under
    # one, b = binom(m, i), so the carried mass carries up to binom(d, k -
    # i) more error a term than the weights alpha and beta - alpha alone,
    # and the gap twice that: on a short row m that is most of the error.
    # With alpha and beta 1/1000 either side of 1/3, a gap count at b = 3
    # is 2 where (beta - alpha) b is 0.006, nearly the most it can miss by
    m, n = points
    near_third = EnvelopeSchedule(
        "near_third", {}, lambda j: points[j] if j < 2 else None,
        ab_fn=lambda n, k: (Fraction(1, 3) - Fraction(1, 1000), Fraction(1, 3) + Fraction(1, 1000)))
    monkeypatch.setattr(engine, "_W", width)
    walked = 0
    for schedule in (_random_unit_schedule(1, points), _random_unit_schedule(2, points), near_third):
        ctx = RankContext(schedule)
        for k in range(n + 1):
            level = _LevelData(ctx, m, n, k)
            if level.bounded and not level._idle:
                _check_level_bounds(level)
                walked += 1
    assert walked > 100


def test_a_walked_level_rounds_no_count_of_its_source_row(monkeypatch):
    # the walk weighs row 2**11 by its (alpha, beta) in fixed point, as
    # float-with-bound does: the one count the level rounds is its own
    # cell's, count(2**12, 1229)
    schedule, ctx = _walked_jump_schedule()
    calls = []
    counts = schedule.counts
    monkeypatch.setattr(schedule, "counts",
                        lambda n, k, b=None: calls.append((n, k)) or counts(n, k, b))
    level = ctx.level_data(12, 2048, 4096, 1229)
    assert level.bounded and not level._idle and level.ta_err > 0
    assert calls == [(4096, 1229)]
    _check_level_bounds(level)


# --- count rounding and binomials ------------------------------------------------


def test_counts_round_the_rational_pair_floor_and_ceil():
    # binom(4, 2) = 6: floor(6/3) = 2, ceil(12/3) = 4
    third = EnvelopeSchedule("third", {}, lambda j: 1 << j,
                             ab_fn=lambda n, k: (Fraction(1, 3), Fraction(2, 3)))
    assert third.counts(4, 2) == (2, 4)
    assert third.counts(4, 2, 6) == (2, 4)
    # binom(5, 2) = 10: floor(10/3) = 3, ceil(20/3) = 7
    assert third.counts(5, 2) == (3, 7)


def test_counts_do_not_pass_through_ab_values(monkeypatch):
    # ab_values is the public (and traced) entry point; count rounding
    # reads the pair directly, so counting a cell is not an ab_values call
    def unexpected(self, n, k):
        raise AssertionError("counts called ab_values")

    monkeypatch.setattr(EnvelopeSchedule, "ab_values", unexpected)
    assert monomial_schedule(2).counts(4, 3) == (comb(2, 1), comb(2, 1))


def test_binomials_above_the_cache_limit_stay_out_of_the_cache():
    n = 1 << 15
    comb.cache_clear()
    word_lexrank([i & 1 for i in range(n)])
    idle = EnvelopeSchedule("idle", {}, lambda j: 1 << j, idle_below=1 << 20)
    assert idle.counts(n, n // 4) == (0, math.comb(n, n // 4))
    assert comb.cache_info().currsize == 0


@pytest.mark.parametrize("row_bits", [engine._ROW_BITS, 1 << 16])
def test_row_memo_steps_exactly_both_ways_and_keeps_to_its_budget(monkeypatch, row_bits):
    # binom(2**15, k) is about 11,000 bits near k = 2048, so the default
    # budget keeps _ROW_KEEP values and 2**16 bits four or five
    monkeypatch.setattr(engine, "_ROW_BITS", row_bits)
    ctx = monomial_schedule(2).rank_context
    n = 1 << 15
    row = ctx._binoms[n]
    ks = random.Random(18).sample(range(1700, 2700), 300)
    ways = {"up": 0, "down": 0, "fresh": 0}
    for k in ks:
        j = min(row, key=lambda j: abs(j - k), default=None)
        way = "fresh" if j is None or abs(j - k) > engine._STEP_MAX else "up" if j < k else "down"
        ways[way] += 1
        assert ctx.binom(n, k) == math.comb(n, k)
        assert next(reversed(row)) == k
        assert len(row) <= engine._ROW_KEEP
        assert sum(v.bit_length() for v in row.values()) <= row_bits
    assert min(ways.values()) > 0
    assert ctx.binom(n, -1) == ctx.binom(n, n + 1) == 0


def test_doubler_runs_step_their_large_binomials_from_the_row_memo(monkeypatch):
    # a run draws its first n0 = 2**17 bits in one chunk and ranks first
    # there, on binom(2**16, i) and binom(2**16, k - i), whose top bits
    # bracket the block's width for the prefix walk, and the level's total
    # binom(2**17, k).
    # The first run takes these 3, and the next runs' k lie within
    # _STEP_MAX of them
    fresh = []
    exact = engine.binom
    monkeypatch.setattr(engine, "binom", lambda n, k: (n > BINOM_CACHE_LIMIT and fresh.append((n, k)))
                        or exact(n, k))
    sched = doubling_schedule(DoublingParams(Fraction(3, 25)))
    per_run = []
    for seed in (3, 4, 10):
        simulate(sched, GeneratorSource(seed, Fraction(1, 10)))
        per_run.append(len(fresh) - sum(per_run))
    assert per_run == [3, 0, 0]


# --- streams on large rows -----------------------------------------------------------
# recorded before exact binomials of rows above BINOM_CACHE_LIMIT were factored
# by a vectorised scan and memoized per row; they must never move


def test_large_jump_report_is_pinned():
    sched = smooth_schedule(lipschitz_params(Fraction(1, 250)))
    assert sched.idle_below == 1 << 15
    report = monte_carlo(sched, Fraction(3, 10), 4, 18, max_tosses=1 << 15, undecided="midpoint")
    curve = [[1 << j, "1/1"] for j in range(15)] + [[1 << 15, "0/1"]]
    assert report_to_json(report) == {
        "plan_hash": "schedule-3fbadde32af950ba4df80121cc0b4c304cb43d3d1b4f4ccb8ed5277b49ee2fc8",
        "p": "3/10", "runs": 4, "successes": 2, "undecided": 0, "estimate": "1/2",
        "wilson_997": ["1258613377776887261/14987979559889010688",
                       "13729366182112123427/14987979559889010688"],
        "tosses": {"mean": "32768/1", "max": 32768, "q50": 32768, "q90": 32768, "q99": 32768},
        "tail_curve": curve, "seed": 18,
    }


def _outcomes(schedule, p, runs, seed, cap=None):
    """(bit, tosses) of replica i on GeneratorSource(mix_seed(seed, i), p),
    as monte_carlo seeds it; an undecided run's bit is None."""
    out = []
    for i in range(runs):
        try:
            rec = simulate(schedule, GeneratorSource(mix_seed(seed, i), p), max_tosses=cap)
            out.append((rec.bit, rec.tosses))
        except Undecided as u:
            out.append((None, u.tosses))
    return out


def test_seeded_run_streams_are_frozen():
    # recorded while the rank loop still summed its chunks as lists of
    # ints: 200 large-jump replicas, each drawing a 2**14-bit chunk, 1,000
    # Lipschitz runs capped at 4096, and 1,000 monomial runs of two 1-bit
    # draws
    parts = [
        _outcomes(smooth_schedule(lipschitz_params(Fraction(1, 250))), Fraction(3, 10), 200, 21,
                  1 << 15),
        _outcomes(smooth_schedule(lipschitz_params()), Fraction(3, 10), 1000, 22, 4096),
        _outcomes(monomial_schedule(2), Fraction(1, 3), 1000, 23),
    ]
    assert [sum(b is None for b, _ in part) for part in parts] == [2, 14, 0]
    digest = hashlib.sha256(json.dumps(parts).encode("ascii")).hexdigest()
    assert digest == "e1163594a3ac0ae59334c8581f8ee407c39f3d9e1199e7cbea58ad6e1097fce8"


def test_doubler_runs_at_p_one_tenth_are_pinned():
    sched = doubling_schedule(DoublingParams(Fraction(3, 25)))
    outcomes = [simulate(sched, GeneratorSource(seed, Fraction(1, 10))) for seed in (3, 4, 10)]
    assert [(o.bit, o.tosses) for o in outcomes] == [(0, 131072), (1, 131072), (1, 131072)]


def test_idle_jump_outcomes_are_pinned():
    # recorded while the idle jump still tested its block on the exact
    # product t and exact prefix thresholds: 1,000 large_jump replicas, 19
    # of whose blocks cross a count and go to rank_word, and 200 doubler
    # bits at p = 1/10 (seeds 1 to 200), every one decided at n0
    replicas = _outcomes(smooth_schedule(lipschitz_params(Fraction(1, 250))), Fraction(3, 10),
                         1000, 29, 1 << 15)
    doubler = doubling_schedule(DoublingParams(Fraction(3, 25)))
    bits = [simulate(doubler, GeneratorSource(seed, Fraction(1, 10))) for seed in range(1, 201)]
    digests = [hashlib.sha256(json.dumps(part).encode("ascii")).hexdigest()
               for part in (replicas, [(o.bit, o.tosses) for o in bits])]
    assert digests == ["62ff36c62ea13cd1c1f25b986209839824bb0e8aa950af5d7eaa314eb6785b23",
                       "46933a8661afed987d428a1e27f293435fae86bf01a81d6c34a6e109dfdbc7ff"]


# --- validation ----------------------------------------------------------------


def test_validate_monomial_clean():
    report = validate_schedule(monomial_schedule(2), 64)
    assert report.violations == []


def test_validate_corrupt_fixture_pinpoints_cell():
    report = validate_schedule(corrupt_monomial_fixture(), 16)
    assert any(v.n == 4 and v.k == 2 and v.kind == "lower-consistency"
               for v in report.violations)


def _monomial_with(cell, pair):
    """p**2 schedule with one (alpha, beta) pair replaced."""
    base = monomial_schedule(2)
    return EnvelopeSchedule(
        "planted", {"exponent": 2}, base.checkpoint,
        ab_fn=lambda n, k: pair if (n, k) == cell else base.ab_values(n, k))


def test_validate_reports_beta_above_one():
    # beta = 2 at (4, 3): counts (2, 8) against binom 4, and 8 also exceeds
    # the upper mass 2 carried from n = 2
    sched = _monomial_with((4, 3), (Fraction(1, 2), Fraction(2)))
    assert validate_schedule(sched, 8).violations == [
        Violation("bounds", 4, 3, 2, 8),
        Violation("upper-consistency", 4, 3, 8, 2),
    ]
    assert [v for v in validate_schedule(sched, 8).violations if v.kind != "bounds"] == [
        Violation("upper-consistency", 4, 3, 8, 2),
    ]


def test_validate_reports_upper_defect():
    # beta = 1/2 at (4, 2): count_b 3 of binom 6 is in bounds, but only
    # the one word 11 survives n = 2 with both heads, so the carried mass is 1
    sched = _monomial_with((4, 2), (Fraction(1, 6), Fraction(1, 2)))
    expected = [Violation("upper-consistency", 4, 2, 3, 1)]
    assert validate_schedule(sched, 8).violations == expected
    assert [v for v in validate_schedule(sched, 8).violations if v.kind != "bounds"] == expected


def test_validate_corrupt_fixture_flags_exactly_that_cell():
    assert validate_schedule(corrupt_monomial_fixture(), 16).violations == [
        Violation("lower-consistency", 4, 2, 0, 1),
    ]


_pairs = st.tuples(st.fractions(0, 2, max_denominator=24),
                   st.fractions(0, 2, max_denominator=24)).map(sorted)


@settings(max_examples=60, deadline=None)
@given(exponent=st.sampled_from([2, 3]), data=st.data(), pair=_pairs)
def test_validation_flags_exactly_the_levels_a_run_refuses(exponent, data, pair):
    # one planted (alpha, beta) with alpha <= beta: validation's consistency
    # violations and the levels a run refuses are the same cells, and the
    # run's message gives the violation's excess
    base = monomial_schedule(exponent)
    points = base.checkpoints_upto(16)
    row = data.draw(st.sampled_from(points))
    cell = (row, data.draw(st.integers(0, row)))
    sched = EnvelopeSchedule(
        "planted", {"exponent": exponent}, base.checkpoint,
        ab_fn=lambda n, k: tuple(pair) if (n, k) == cell else base.ab_values(n, k))
    first = {}
    for v in validate_schedule(sched, 16).violations:
        if v.kind != "bounds":
            first.setdefault((v.n, v.k), abs(v.lhs - v.rhs))
    ctx = RankContext(sched)
    refused = {}
    for j in range(1, len(points)):
        m, n = points[j - 1], points[j]
        for k in range(n + 1):
            try:
                ctx.level_data(j, m, n, k)
            except InvalidSchedule as exc:
                refused[(n, k)] = int(exc.detail.rsplit(" ", 1)[1])
    assert refused == first


def test_dump_envelope_csv(tmp_path):
    path = tmp_path / "env.csv"
    dump_envelope_csv(monomial_schedule(2), 8, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# schedule=monomial")
    assert lines[1] == "n,k,count_a,count_b"
    # rows cover every (n, k) cell at each checkpoint up to 8
    assert len(lines) == 2 + 3 + 5 + 9


# --- simulation ------------------------------------------------------------------


def test_simulate_monomial_on_tapes():
    mon = monomial_schedule(2)
    out = simulate(mon, TapeSource([1, 1]))
    assert (out.bit, out.tosses) == (1, 2)
    out = simulate(mon, TapeSource([1, 0]))
    assert (out.bit, out.tosses) == (0, 2)


def test_simulate_respects_toss_cap():
    sched = smooth_schedule(lipschitz_params())
    with pytest.raises(Undecided):
        simulate(sched, GeneratorSource(1, Fraction(3, 10)), max_tosses=4)


def test_simulate_propagates_tape_exhaustion():
    with pytest.raises(SourceExhausted):
        simulate(monomial_schedule(2), TapeSource([1]))


def test_simulate_smooth_terminates_deterministically():
    sched = smooth_schedule(lipschitz_params())
    a = simulate(sched, GeneratorSource(3, Fraction(3, 10)))
    b = simulate(sched, GeneratorSource(3, Fraction(3, 10)))
    assert (a.bit, a.tosses) == (b.bit, b.tosses)
    assert a.bit in (0, 1)
    assert sched.is_checkpoint(a.tosses)


def test_two_schedules_never_share_a_memo():
    # p**3 gives bit 0 after 3 tosses on this tape and p**2 bit 1 after 2;
    # p**2 ranked on p**3's memo would give p**3's answer
    out = simulate(monomial_schedule(3), TapeSource([1, 1, 0]))
    assert (out.bit, out.tosses) == (0, 3)
    out = simulate(monomial_schedule(2), TapeSource([1, 1, 0]))
    assert (out.bit, out.tosses) == (1, 2)


def _monomial_from(first):
    # p**2 on the checkpoints first, 2 first, 4 first, ...: active from the
    # first, and consistent, as every jump's carried mass is a Vandermonde sum
    return EnvelopeSchedule("monomial-from", {"first": first}, lambda t: first << t,
                            ab_fn=monomial_schedule(2).ab_values)


# schedules whose first active checkpoint simulate serves from its word
# memo: p**j at j, Lipschitz idling below 8, the defect planted at (4, 2),
# and p**2 from 12 bits, the memo's bound
_MEMO_SCHEDULES = {
    "monomial_1": lambda: monomial_schedule(1),
    "monomial_2": lambda: monomial_schedule(2),
    "monomial_3": lambda: monomial_schedule(3),
    "lipschitz_1/4": lambda: smooth_schedule(lipschitz_params(Fraction(1, 4))),
    "corrupt": corrupt_monomial_fixture,
    "monomial_2_from_12": lambda: _monomial_from(12),
}


@lru_cache(maxsize=None)
def _memo_schedule(name):
    # the schedule, whose own context simulate memoizes on, and a fresh
    # context for the rank loop
    schedule = _MEMO_SCHEDULES[name]()
    return schedule, RankContext(schedule)


def _simulated_on(schedule, tape, cap):
    try:
        out = simulate(schedule, tape, max_tosses=cap)
        result = out.bit, out.tosses
    except Undecided as u:
        result = "Undecided", u.tosses
    except (InvalidSchedule, SourceExhausted) as e:
        result = type(e).__name__
    return result, tape.position


def _ranked_from_start(ctx, tape, cap):
    try:
        decision, pos = engine._rank_run(ctx, tape.draw_chunk, math.inf if cap is None else cap,
                                         engine._START)
        bit = {Decision.OutputOne: 1, Decision.OutputZero: 0}.get(decision, "Undecided")
        result = bit, pos
    except (InvalidSchedule, SourceExhausted) as e:
        result = type(e).__name__
    return result, tape.position


@settings(deadline=None)
@given(st.sampled_from(sorted(_MEMO_SCHEDULES)),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.one_of(st.none(), st.integers(min_value=0, max_value=16),
                 st.integers(min_value=17, max_value=512)))
def test_simulate_takes_the_first_active_checkpoint_from_its_memo_as_the_rank_loop(name, seed,
                                                                                   cap):
    # tapes that end before, at and past the first active checkpoint, under
    # caps below, at and past it; each word runs twice on the schedule's
    # context, where the second run is served from the memo
    schedule, fresh = _memo_schedule(name)
    ctx = schedule.rank_context
    first = ctx._first_active
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.choice([0.1, 0.3, 0.5, 0.9])
        length = rng.choice([rng.randrange(first), first, rng.randrange(first + 1, 513)])
        word = [int(rng.random() < p) for _ in range(length)]
        ranked = _ranked_from_start(fresh, TapeSource(word), cap)
        assert _simulated_on(schedule, TapeSource(word), cap) == ranked
        assert _simulated_on(schedule, TapeSource(word), cap) == ranked
    assert len(ctx._first_words) <= 2 ** first


# schedules whose first active word neither the memo nor the idle block
# serves, so simulate ranks it with rank_word: p**2 from 13 bits, one past
# the memo's bound; Lipschitz 1/10, idle below 64, far below _JUMP_FROM;
# and a finite schedule idle at every checkpoint, with no first active one
_HEAD_SCHEDULES = {
    "monomial_2_from_13": lambda: _monomial_from(13),
    "lipschitz_1/10": lambda: smooth_schedule(lipschitz_params(Fraction(1, 10))),
    "idle_to_32": lambda: EnvelopeSchedule("idle", {}, lambda j: 1 << j if j < 6 else None,
                                           idle_below=64),
}


@lru_cache(maxsize=None)
def _head_schedule(name):
    schedule = _HEAD_SCHEDULES[name]()
    return schedule, RankContext(schedule)


@settings(deadline=None)
@given(st.sampled_from(sorted(_HEAD_SCHEDULES)), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_simulate_ranks_a_head_word_past_the_memo_and_the_jump_as_the_rank_loop(name, seed):
    # tapes that end before, at and past the first active checkpoint (the
    # last checkpoint where there is none), under caps below, at and past
    # it; each word runs twice on the schedule's context, which keeps the
    # last word ranked and its path
    schedule, fresh = _head_schedule(name)
    ctx = schedule.rank_context
    head = ctx._head or ctx._idle_points[-1]
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.choice([0.1, 0.3, 0.5, 0.9])
        length = rng.choice([rng.randrange(head), head, rng.randrange(head + 1, 4 * head + 1)])
        cap = rng.choice([None, rng.randrange(head), head, rng.randrange(head + 1, 4 * head + 1)])
        word = [int(rng.random() < p) for _ in range(length)]
        ranked = _ranked_from_start(fresh, TapeSource(word), cap)
        assert _simulated_on(schedule, TapeSource(word), cap) == ranked
        assert _simulated_on(schedule, TapeSource(word), cap) == ranked
    assert ctx._first_words == {}


def test_no_word_memo_past_its_bound():
    # large_jump's schedule idles below 2**15 and double:3/25 below 2**17;
    # p**2 from 13 bits is one past the memo's bound
    capped = [smooth_schedule(lipschitz_params(Fraction(1, 250))),
              doubling_schedule(DoublingParams(Fraction(3, 25)))]
    for schedule in capped:
        with pytest.raises(Undecided):
            simulate(schedule, GeneratorSource(1, Fraction(3, 10)), max_tosses=64)
    beyond = _monomial_from(13)
    assert simulate(beyond, GeneratorSource(1, Fraction(3, 10))).tosses >= 13
    for schedule in capped + [beyond]:
        assert schedule.rank_context._first_active is None
        assert schedule.rank_context._first_words == {}


# --- schedule surface --------------------------------------------------------------


def test_schedule_checkpoint_structure():
    sched = smooth_schedule(lipschitz_params())
    assert sched.checkpoints_upto(64) == [1, 2, 4, 8, 16, 32, 64]
    assert sched.is_idle(4) and not sched.is_idle(8)
    assert sched.is_checkpoint(16) and not sched.is_checkpoint(12)
    meta = sched.metadata()
    assert meta["type"].startswith("smooth")
    assert "first_active" in meta


STALLED_CHECKPOINTS = """
from fractions import Fraction
from coinfactory import TapeSource, simulate
from coinfactory.engine import EnvelopeSchedule
from coinfactory.errors import InvalidParams

def refusal(points, tape, **kw):
    try:
        sched = EnvelopeSchedule("flat", {}, points, **kw,
                                 ab_fn=lambda n, k: (Fraction(0), Fraction(1)))
        simulate(sched, TapeSource(tape))
    except InvalidParams as exc:
        return exc
    return "accepted"

print(refusal(lambda j: 4, [1] * 8))
print(refusal(lambda j: 4, [1] * 8, idle_below=8))
print(refusal(lambda j: j, [1] * 8))
print(refusal(lambda j: -1 if j else 2, [1] * 8))
print(refusal(lambda j: 16, [1] * 40))
print(refusal(lambda j: 1 << min(j, 9), [0, 1] * 300, idle_below=300))
"""


def test_checkpoints_that_do_not_increase_from_one_are_refused():
    # a stalled checkpoint drew 0 bits forever in the rank loop, and hung
    # the schedule's constructor when it fell among the idle checkpoints;
    # the cases reach the refusal through the first-active word memo, the
    # constructor, the plain rank loop and the rank loop resumed past an
    # idle jump's 256-bit prefix, and include checkpoints of 0 and -1
    try:
        proc = subprocess.run([sys.executable, "-c", STALLED_CHECKPOINTS],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a schedule whose checkpoints stall hung instead of being refused")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"checkpoint {j} is {n}: checkpoints must increase from 1"
        for j, n in ((1, 4), (1, 4), (0, 0), (1, -1), (1, 16), (10, 512))]
