"""Envelope schedule families: doubling, smooth, monomial, Polya, continuous."""

import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinfactory import (
    ContinuousParams,
    DoublingParams,
    HomogeneousPoly,
    SmoothnessParams,
    alpha_beta_doubling,
    continuous_schedule,
    doubling_raw_schedule,
    doubling_schedule,
    envelope_eval,
    monomial_schedule,
    polya_exponent,
    smooth_schedule,
    validate_schedule,
)
from coinfactory.errors import ExponentNotFound, InvalidParams
from coinfactory.numerics import binom, dyadic_sqrt_upper, rational_sin
from coinfactory.schedules import MODE_C2, MODE_LIPSCHITZ
from coinfactory.verify import HypergeomSpec, hypergeom_pmf


# --- doubling envelopes --------------------------------------------------------


def test_alpha_beta_examples():
    params = DoublingParams(Fraction(1, 10))
    assert alpha_beta_doubling(params, 16, 1) == (Fraction(1, 8), Fraction(1, 8))
    assert alpha_beta_doubling(params, 8, 4)[0] == Fraction(4, 5)
    assert alpha_beta_doubling(params, 8, 0) == (0, 0)


def _alpha_beta_in_fractions(params, n, k):
    # the formula as DoublingParams states it, in Fraction arithmetic
    x = Fraction(k, n)
    eps = params.eps
    alpha = min(2 * x, 1 - 2 * eps)
    hinge1 = x - (Fraction(1, 2) - 3 * eps)
    hinge2 = x - Fraction(1, 9)
    beta = alpha
    if hinge1 > 0:
        beta += params.C1 * hinge1 * params.sqrt_surrogate(n)
    if hinge2 > 0:
        beta += params.C2 * hinge2 * params.exp_surrogate(n)
    return alpha, beta


@pytest.mark.parametrize("eps", [Fraction(3, 25), Fraction(1, 20), Fraction(1, 9)])
def test_alpha_beta_in_integers_equals_the_fraction_formula(eps):
    # every power of two up to 2**20, at k on both sides of alpha's cap
    # 2k/n = 1 - 2 eps and of the hinges k/n = 1/2 - 3 eps and k/n = 1/9
    params = DoublingParams(eps)
    for j in range(21):
        n = 1 << j
        ks = {0, n}
        for t in (n * (1 - 2 * eps) / 2, n * (Fraction(1, 2) - 3 * eps), Fraction(n, 9)):
            ks.update(k for k in range(math.floor(t) - 1, math.ceil(t) + 2) if 0 <= k <= n)
        for k in sorted(ks):
            assert alpha_beta_doubling(params, n, k) == _alpha_beta_in_fractions(params, n, k)


def test_alpha_beta_rejects_bad_cells():
    params = DoublingParams(Fraction(1, 10))
    with pytest.raises(ValueError):
        alpha_beta_doubling(params, 12, 1)  # not a power of two
    with pytest.raises(ValueError):
        alpha_beta_doubling(params, 8, 9)


def test_doubling_params_validation():
    with pytest.raises(InvalidParams):
        DoublingParams(Fraction(1, 8))  # eps must be strictly below 1/8
    with pytest.raises(InvalidParams):
        DoublingParams(Fraction(0))


def test_params_take_only_their_inputs():
    def inputs(cls):
        return tuple(f.name for f in fields(cls) if f.init)

    assert inputs(DoublingParams) == ("eps",)
    assert inputs(SmoothnessParams) == ("target", "mode", "C", "eps")
    assert inputs(ContinuousParams) == ("target", "eps", "levels")


def test_doubling_constants_follow_from_eps():
    expected = {
        Fraction(1, 10): ("314905618990423338285/4611686018427387904",
                          "885443715538058477568/121756668610066127", 1 << 18),
        Fraction(3, 25): ("524842698317372230475/9223372036854775808",
                          "166020696663385964544/32730557006950699", 1 << 17),
        Fraction(1, 20): ("314905618990423338285/2305843009213693952",
                          "442721857769029238784/15333919982481769", 1 << 21),
    }
    for eps, (c1, c2, n0) in expected.items():
        params = DoublingParams(eps)
        assert (params.C1, params.C2, params.n0) == (Fraction(c1), Fraction(c2), n0), eps


def test_doubling_startup_threshold():
    params = DoublingParams(Fraction(3, 25))
    assert params.n0 == 131072
    sched = doubling_schedule(params)
    assert sched.is_idle(params.n0 // 2)
    assert not sched.is_idle(params.n0)
    # the ladder point below n0 is unusable: its upper envelope exceeds one
    top = alpha_beta_doubling(params, params.n0 // 2, params.n0 // 2)[1]
    assert top > 1
    assert alpha_beta_doubling(params, params.n0, params.n0)[1] <= 1


def test_small_k_region_counts_are_exact():
    # below k/n = 1/9 both envelopes equal 2k/n, whose count is an integer
    params = DoublingParams(Fraction(3, 25))
    raw = doubling_raw_schedule(params)
    n = 256
    for k in range(0, 29):
        ca, cb = raw.counts(n, k)
        assert ca == cb == 2 * binom(n - 1, k - 1)


def _expect_ab(params, n, k, which):
    spec = HypergeomSpec(n, k)
    total = Fraction(0)
    for i in range(max(0, k - n), min(n, k) + 1):
        total += hypergeom_pmf(spec, i) * alpha_beta_doubling(params, n, i)[which]
    return total


def test_doubling_consistency_exhaustive_small():
    # alpha(2n, k) >= E alpha(n, X) and beta(2n, k) <= E beta(n, X)
    params = DoublingParams(Fraction(3, 25))
    for n in (2, 4, 8, 16, 32, 64):
        for k in range(0, 2 * n + 1):
            a2, b2 = alpha_beta_doubling(params, 2 * n, k)
            assert a2 >= _expect_ab(params, n, k, 0)
            assert b2 <= _expect_ab(params, n, k, 1)


@settings(max_examples=30)
@given(st.sampled_from([128, 256]), st.integers(min_value=0, max_value=512))
def test_doubling_consistency_sampled_large(n, k):
    params = DoublingParams(Fraction(3, 25))
    if k > 2 * n:
        k = k % (2 * n + 1)
    a2, b2 = alpha_beta_doubling(params, 2 * n, k)
    assert a2 >= _expect_ab(params, n, k, 0)
    assert b2 <= _expect_ab(params, n, k, 1)


# --- smooth (Lipschitz / C2) envelopes --------------------------------------------


def lipschitz_schedule():
    return smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p / 4, MODE_LIPSCHITZ, Fraction(1, 4), Fraction(1, 4)
    ))


def test_smooth_first_active_checkpoint():
    sched = lipschitz_schedule()
    assert sched.is_idle(4)
    assert not sched.is_idle(8)


def test_smooth_rejects_margin_violation():
    params = SmoothnessParams(lambda p: p, MODE_LIPSCHITZ, Fraction(1), Fraction(1, 4))
    with pytest.raises(InvalidParams):
        smooth_schedule(params)  # f touches the margin on the grid


def test_smooth_mode_validation():
    with pytest.raises(InvalidParams):
        SmoothnessParams(lambda p: Fraction(1, 2), "cubic", Fraction(1), Fraction(1, 4))
    with pytest.raises(InvalidParams):
        SmoothnessParams(lambda p: Fraction(1, 2), MODE_C2, Fraction(0), Fraction(1, 4))


def test_smooth_width_tracks_half_width_formula():
    sched = lipschitz_schedule()
    p = Fraction(3, 10)
    q = 1 - p
    for n in (8, 32, 128):
        v = envelope_eval(sched, p, n)
        delta = Fraction(1, 4) * (
            dyadic_sqrt_upper(Fraction(1, n)) + dyadic_sqrt_upper(Fraction(2, n))
        )
        # count rounding adds at most one word of each class per k
        slack = 2 * sum(p ** k * q ** (n - k) for k in range(n + 1))
        assert 2 * delta - slack <= v.h - v.g <= 2 * delta + slack


def test_smooth_width_shrinks_monotonically():
    sched = lipschitz_schedule()
    p = Fraction(3, 10)
    widths = []
    for n in (8, 16, 32, 64, 128, 256):
        v = envelope_eval(sched, p, n)
        widths.append(v.h - v.g)
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_c2_mode_width_decays_linearly():
    sched = smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p * p / 8, MODE_C2, Fraction(1, 4), Fraction(1, 4)
    ))
    v64 = envelope_eval(sched, Fraction(3, 10), 64)
    v128 = envelope_eval(sched, Fraction(3, 10), 128)
    ratio = (v128.h - v128.g) / (v64.h - v64.g)
    assert Fraction(1, 3) < ratio < Fraction(2, 3)


# --- exact monomial -----------------------------------------------------------------


def test_monomial_counts_and_envelope():
    mon = monomial_schedule(2)
    assert mon.counts(2, 2) == (1, 1)
    assert mon.counts(2, 1) == (0, 0)
    assert mon.counts(2, 0) == (0, 0)
    for p in (Fraction(1, 3), Fraction(2, 5)):
        v = envelope_eval(mon, p, 4)
        assert v.g == v.h == p * p


def test_monomial_counts_are_shifted_binomials():
    # floor(perm(k, j) / perm(n, j) * binom(n, k)) = binom(n - j, k - j) exactly
    for j in (1, 2, 3):
        mon = monomial_schedule(j)
        for n in range(j, 65):
            for k in range(n + 1):
                assert mon.counts(n, k) == (binom(n - j, k - j),) * 2
    n, k = (1 << 15) + 6, 1 << 13
    assert monomial_schedule(3).counts(n, k) == (binom(n - 3, k - 3),) * 2


def test_monomial_validates_clean():
    assert validate_schedule(monomial_schedule(3), 64).violations == []


# --- Polya exponent search -----------------------------------------------------------


def test_polya_exponent_values():
    q1 = HomogeneousPoly(2, (1, -1, 1))         # x^2 - xy + y^2
    assert polya_exponent(q1, 16) == 1
    q5 = HomogeneousPoly(2, (1, Fraction(-3, 2), 1))
    assert polya_exponent(q5, 16) == 5


def test_polya_exponent_trivial_and_missing():
    assert polya_exponent(HomogeneousPoly(2, (1, 1, 1)), 16) == 0
    # x^2 - 3xy + y^2 is negative on part of the positive quadrant
    with pytest.raises(ExponentNotFound):
        polya_exponent(HomogeneousPoly(2, (1, -3, 1)), 12)


def test_homogeneous_poly_convolution():
    # (x^2 - xy + y^2)(x + y) = x^3 + y^3
    q = HomogeneousPoly(2, (1, -1, 1))
    assert q.convolve_ones().coeffs == (1, 0, 0, 1)


# --- continuous-target schedules ------------------------------------------------------


def test_continuous_levels_precondition():
    with pytest.raises(InvalidParams):
        ContinuousParams(lambda p: Fraction(1, 2), Fraction(1, 4), (4, 5, 6))


def test_continuous_linear_target():
    params = ContinuousParams(
        lambda p: Fraction(1, 2) + p / 4, Fraction(1, 4), (5, 6, 7)
    )
    sched = continuous_schedule(params)
    # a degree-1 target is reproduced exactly, so the minimum degrees suffice
    # and no Polya shifts are needed
    assert params.degrees == (32, 64, 128)
    assert params.shifts == (0, 0)
    assert sched.checkpoints_upto(1 << 20) == [32, 64, 128]
    assert validate_schedule(sched, 128).violations == []


def test_continuous_certificate_is_stable():
    make = lambda: ContinuousParams(lambda p: Fraction(1, 2), Fraction(1, 4), (5, 6, 7))
    p1, p2 = make(), make()
    continuous_schedule(p1)
    continuous_schedule(p2)
    assert p1.certificate_hash == p2.certificate_hash


# --- the unit class each schedule declares ------------------------------------------


@pytest.mark.parametrize("make, cap", [
    (lipschitz_schedule, 1024),
    (lambda: smooth_schedule(SmoothnessParams(
        lambda p: Fraction(1, 2) + p * p / 8, MODE_C2, Fraction(1, 4), Fraction(1, 4))), 1024),
    (lambda: monomial_schedule(2), 1024),
    (lambda: continuous_schedule(ContinuousParams(
        lambda p: Fraction(1, 2) + p / 4, Fraction(1, 4), (5, 6, 7))), 128),
    (lambda: doubling_raw_schedule(DoublingParams(Fraction(3, 25))), 256),
], ids=["lipschitz", "c2", "monomial", "continuous", "doubling_raw"])
def test_rows_declared_in_the_unit_class_pass_the_bounds_check(make, cap):
    # a walked level's tail bounds are sound only on rows with
    # 0 <= count_a <= count_b <= binom(n, k), which unit_from declares
    sched = make()
    report = validate_schedule(sched, cap)
    assert all(v.n < sched.unit_from for v in report.violations if v.kind == "bounds")
    if sched.name == "doubling-raw":
        # its rows below n0 fail the check, so they are left out
        assert sched.unit_from == DoublingParams(Fraction(3, 25)).n0
        assert any(v.kind == "bounds" for v in report.violations)
    else:
        assert sched.unit_from == sched.idle_below


@pytest.mark.parametrize("factor", [1, 2])
def test_doubling_rows_from_n0_pass_the_bounds_check(factor):
    # the rows a doubling schedule declares in the unit class start at n0,
    # too wide to validate whole here; the cells sampled cover the hinges
    # (the raw variant's counts are the same from n0 on)
    params = DoublingParams(Fraction(3, 25))
    sched = doubling_schedule(params)
    assert sched.unit_from == doubling_raw_schedule(params).unit_from == params.n0
    n = factor * params.n0
    eps = params.eps
    # beta's hinges at k/n = 1/9 and (1 - 6 eps)/2, alpha's at (1 - 2 eps)/2
    hinges = [n // 9, int(n * (1 - 6 * eps) / 2), int(n * (1 - 2 * eps) / 2)]
    for k in sorted({*range(0, n + 1, n // 16), *hinges, *(h + 1 for h in hinges), n - 1}):
        b = binom(n, k)
        ca, cb = sched.counts(n, k, b)
        assert 0 <= ca <= cb <= b, (n, k)


def test_continuous_float_eval_brackets_exact_values():
    # criterion 6's schedule; float-with-bound works from its (alpha, beta)
    # pairs, so the radius carries the count-rounding slack
    f = lambda p: Fraction(1, 2) + rational_sin(p) / 8
    sched = continuous_schedule(ContinuousParams(f, Fraction(1, 4), (5, 6, 7)))
    for n in (32, 64, 128):
        for p in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            exact = envelope_eval(sched, p, n)
            approx = envelope_eval(sched, p, n, mode="float-with-bound")
            assert abs(Fraction(approx.g) - exact.g) <= Fraction(approx.g_err)
            assert abs(Fraction(approx.h) - exact.h) <= Fraction(approx.h_err)
            if n == 128:
                assert approx.g_err < 1e-3 and approx.h_err < 1e-3


def test_continuous_float_radius_is_tight_at_the_first_checkpoint():
    # at n = 32, p = 1/10 the count-rounding slack is the sum of p^k q^(n-k),
    # about 0.039; it widens g and h once, so each radius stays near half that
    f = lambda p: Fraction(1, 2) + rational_sin(p) / 8
    sched = continuous_schedule(ContinuousParams(f, Fraction(1, 4), (5, 6, 7)))
    p = Fraction(1, 10)
    approx = envelope_eval(sched, p, 32, mode="float-with-bound")
    assert approx.g_err < 0.05 and approx.h_err < 0.05
