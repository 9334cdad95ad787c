import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from wronskit import (
    binomial,
    check_even_binomial_sum,
    check_odd_binomial_sum,
    falling_factorial,
)
from wronskit.combinatorics import binomial_column
from oracles import even_binomial_sum_by_fractions, odd_binomial_sum_by_fractions

rationals = st.fractions(max_denominator=8).filter(lambda f: abs(f) <= 20)


def test_falling_factorial_values():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-2, 3) == -24


def test_falling_factorial_rejects_negative_depth():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@given(rationals, st.integers(0, 8))
def test_falling_factorial_recurrence(x, n):
    assert falling_factorial(x, n + 1) == falling_factorial(x, n) * (x - n)


def test_binomial_values():
    assert binomial(7, 2) == 21
    assert binomial(3, 5) == 0
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(-2, 3) == -4
    assert binomial(0, 0) == 1


def test_binomial_integer_arguments_stay_integer():
    assert isinstance(binomial(-3, 4), int)
    assert isinstance(binomial(Fraction(6, 2), 2), int)
    assert isinstance(binomial(Fraction(1, 2), 0), int)
    assert binomial(Fraction(1, 2), 0) == 1


@given(rationals, st.integers(0, 10))
def test_binomial_is_falling_factorial_over_factorial(x, k):
    got = binomial(x, k)
    assert got == falling_factorial(x, k) / math.factorial(k)
    assert type(got) is (int if x.denominator == 1 or k == 0 else Fraction)


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial(4, -1)


@given(st.integers(-40, 40), st.integers(0, 14))
@example(5, 0)
@example(-7, 1)
@example(4, 9)
def test_binomial_column_matches_binomial(x, size):
    col = binomial_column(x, size)
    assert len(col) == size
    for k, got in enumerate(col):
        want = binomial(x, k)
        assert got == want, k
        assert type(got) is type(want) is int, k


def test_binomial_column_rejects_negative_size():
    with pytest.raises(ValueError):
        binomial_column(3, -1)


def test_binomial_column_takes_only_int_arguments():
    # rational nodes are columns of structured.build's numerator rows instead
    for x in (Fraction(7, 3), Fraction(8, 2), 2.0):
        with pytest.raises(TypeError, match="binomial column needs an int upper argument"):
            binomial_column(x, 3)


@given(rationals, st.integers(1, 8))
def test_binomial_pascal_rule(x, k):
    assert binomial(x, k) == binomial(x - 1, k - 1) + binomial(x - 1, k)


def test_odd_binomial_sum_instances():
    r = check_odd_binomial_sum(1, 5)
    assert r.passed and r.computed == "1"
    r = check_odd_binomial_sum(2, 2)
    assert r.passed and r.computed == "2"
    r = check_odd_binomial_sum(3, 1)
    assert r.passed and r.computed == "0"


def test_odd_binomial_sum_sweep():
    for n in range(1, 13):
        for j in range(1, 13):
            assert check_odd_binomial_sum(n, j).passed


def test_binomial_sums_match_fraction_oracles():
    # the checkers add integer numerators over 2^(n-1); the oracles add
    # (-1/2)^(n-k) terms one Fraction at a time
    for n in range(1, 17):
        for j in range(1, 17):
            assert check_odd_binomial_sum(n, j).computed == str(odd_binomial_sum_by_fractions(n, j))
            assert check_even_binomial_sum(n, j).computed == str(even_binomial_sum_by_fractions(n, j))


def test_even_binomial_sum_instances():
    r = check_even_binomial_sum(1, 1)
    assert r.passed and r.computed == "1"
    r = check_even_binomial_sum(2, 2)
    assert r.passed and r.computed == "2"
    assert "unproved" in r.note


def test_identity_checkers_reject_bad_arguments():
    with pytest.raises(ValueError):
        check_odd_binomial_sum(0, 1)
    with pytest.raises(ValueError):
        check_even_binomial_sum(1, 0)


def test_report_shape():
    r = check_odd_binomial_sum(2, 3)
    assert r.check == "odd-binomial-sum"
    assert r.params == {"n": 2, "j": 3}
    assert r.millis >= 0.0
    assert r.passed == (r.expected == r.computed)
