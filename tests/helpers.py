"""Brute-force reference implementations the real modules are tested against.

Everything here trades speed for obviousness: explicit enumeration over
words, literal set materialization, O(2^n) walk counting. Keep it dumb.
"""

from fractions import Fraction
from itertools import combinations

import mpmath

from coinfactory import Decision, HypergeomSpec, comb, hypergeom_pmf, word_lexrank

mpmath.mp.dps = 60


def all_words(n: int, k: int):
    """Every length-n bit tuple with exactly k ones, ascending lex (0 < 1)."""
    out = []
    for ones_at in combinations(range(n), k):
        w = [0] * n
        for i in ones_at:
            w[i] = 1
        out.append(tuple(w))
    out.sort()
    return out


def brute_lexrank(word) -> int:
    word = tuple(word)
    return all_words(len(word), sum(word)).index(word)


def word_unrank(n: int, k: int, rank: int) -> tuple:
    """The length-n word with k ones at 0-based position rank, ascending lex."""
    word = []
    for pos in range(n):
        zeros_first = comb(n - pos - 1, k)
        if rank < zeros_first:
            word.append(0)
        else:
            rank -= zeros_first
            word.append(1)
            k -= 1
    return tuple(word)


def exact_rank_run(ctx, draw, limit):
    """The eager rank loop: every chunk's full rank at every checkpoint.

    The reference for the engine's rank loop, which reads a chunk's rank
    only when its prefix weights cannot decide. Same contract: returns
    (decision, length ranked).
    """
    pos = ones = rho = j = 0
    while True:
        n = ctx.schedule.checkpoint(j)
        if n is None or n > limit:
            return Decision.Continue, pos
        chunk = draw(n - pos)
        new_ones = ones + sum(chunk)
        data = ctx.level_data(j, pos, n, new_ones)
        r = data.prefix_weight(ones) + rho * comb(n - pos, new_ones - ones) + word_lexrank(chunk)
        ones, pos = new_ones, n
        if r < data.da:
            return Decision.OutputOne, pos
        if r >= data.db:
            return Decision.OutputZero, pos
        rho = r - data.da
        j += 1


def materialize_sets(schedule, depth: int):
    """Literal set construction for every checkpoint <= depth.

    Returns {n: (A, B)} with A, B sets of length-n words. Candidates of a
    weight class are ordered by prefix one-count, then by the prefix's
    position inside the previous level's undecided block, then by suffix
    lex rank; the lowest-ranked candidates fill A and then B.
    """
    checkpoints = schedule.checkpoints_upto(depth)
    levels = {}
    prev_n = None
    prev_undecided = None        # weight -> ordered list of undecided words
    for n in checkpoints:
        a_set, b_set = set(), set()
        undecided = {}
        for k in range(n + 1):
            ca, cb = schedule.counts(n, k)
            if prev_n is None:
                inherited = []
                candidates = all_words(n, k)
            else:
                d = n - prev_n
                inherited = []
                for i in range(prev_n + 1):
                    if k - i < 0 or k - i > d:
                        continue
                    prev_a = levels[prev_n][0]
                    for u in (w for w in all_words(prev_n, i) if w in prev_a):
                        for s in all_words(d, k - i):
                            inherited.append(u + s)
                candidates = []
                for i in range(prev_n + 1):
                    if k - i < 0 or k - i > d:
                        continue
                    for u in prev_undecided.get(i, []):
                        for s in all_words(d, k - i):
                            candidates.append(u + s)
            assert len(inherited) <= ca <= cb <= len(inherited) + len(candidates), \
                f"counts outside admissible window at {(n, k)}"
            take_a = ca - len(inherited)
            a_words = inherited + candidates[:take_a]
            b_words = inherited + candidates[: cb - len(inherited)]
            a_set.update(a_words)
            b_set.update(b_words)
            undecided[k] = candidates[take_a : cb - len(inherited)]
        levels[n] = (a_set, b_set)
        prev_n = n
        prev_undecided = undecided
    return levels


def brute_decide(schedule, word, levels=None):
    """Decision for a full word by literal membership in materialized sets."""
    word = tuple(word)
    if levels is None:
        levels = materialize_sets(schedule, len(word))
    for n in sorted(levels):
        if n > len(word):
            break
        prefix = word[:n]
        a_set, b_set = levels[n]
        if prefix in a_set:
            return Decision.OutputOne
        if prefix not in b_set:
            return Decision.OutputZero
    return Decision.Continue


def walk_hits_nonneg(word) -> bool:
    """Does the +-1 walk over the word touch >= 0 at any step >= 1?"""
    s = 0
    for b in word:
        s += 1 if b else -1
        if s >= 0:
            return True
    return False


def brute_reflection_count(n: int, k: int) -> int:
    return sum(1 for w in all_words(n, k) if walk_hits_nonneg(w))


def brute_walk_bias(n: int, p: Fraction) -> Fraction:
    """P(walk emits 1 within n steps), by full enumeration."""
    q = 1 - p
    total = Fraction(0)
    for k in range(n + 1):
        total += brute_reflection_count(n, k) * p**k * q ** (n - k)
    return total


def hypergeom_expect(n: int, k: int, f) -> Fraction:
    """E f(X/n) for X ~ H(2n, k, n), exact."""
    spec = HypergeomSpec(n, k)
    lo, hi = max(0, k - n), min(n, k)
    return sum((hypergeom_pmf(spec, i) * Fraction(f(Fraction(i, n)))
                for i in range(lo, hi + 1)), Fraction(0))


def mp_sqrt(x: Fraction) -> mpmath.mpf:
    return mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator)


def mp_exp_neg(x: Fraction) -> mpmath.mpf:
    return mpmath.exp(-mpmath.mpf(x.numerator) / x.denominator)


def conv_expect_numerators(n: int, fnums: list) -> list:
    """sum_i C(n,i)*fnums[i]*C(n,k-i) for every k in 0..2n, one big multiply.

    fnums[i] must be the nonnegative integer numerator of f(i/n) over a
    caller-fixed common denominator; dividing entry k by C(2n,k) times
    that denominator gives E f(X/n) under H(2n, k, n). Kronecker packing
    turns the convolution into a single integer product.
    """
    row = [comb(n, i) for i in range(n + 1)]
    u = [row[i] * fnums[i] for i in range(n + 1)]
    if any(x < 0 for x in u):
        raise ValueError("fnums must be nonnegative")
    per_term = max(max(u), max(row)).bit_length()
    stride = 2 * per_term + (n + 1).bit_length() + 1
    pack_u = sum(x << (stride * i) for i, x in enumerate(u))
    pack_v = sum(x << (stride * i) for i, x in enumerate(row))
    prod = pack_u * pack_v
    mask = (1 << stride) - 1
    return [(prod >> (stride * k)) & mask for k in range(2 * n + 1)]
