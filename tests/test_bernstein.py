"""The exact Bernstein-form evaluator against a direct Fraction sum."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from coinfactory.numerics import bernstein_sums

unit_p = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                   st.fractions(min_value=0, max_value=1, max_denominator=10**6))
weight = st.one_of(st.integers(min_value=-10**30, max_value=10**30),
                   st.fractions(max_denominator=10**9))


def direct_sum(w, p):
    n = len(w) - 1
    return sum((Fraction(v) * p ** k * (1 - p) ** (n - k) for k, v in enumerate(w)), Fraction(0))


@st.composite
def two_rows(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    ints = draw(st.lists(st.integers(min_value=-10**30, max_value=10**30),
                         min_size=n + 1, max_size=n + 1))
    mixed = draw(st.lists(weight, min_size=n + 1, max_size=n + 1))
    return ints, mixed


@given(two_rows(), unit_p)
def test_bernstein_sums_match_direct_sum(rows, p):
    ints, mixed = rows
    got = bernstein_sums((ints, mixed), p)
    assert got == [direct_sum(ints, p), direct_sum(mixed, p)]
    assert all(type(v) is Fraction for v in got)
    assert bernstein_sums([mixed], p) == [got[1]]
