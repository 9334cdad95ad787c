import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from wronskit import binomial, check_even_binomial_sum, check_odd_binomial_sum
from wronskit import combinatorics
from wronskit.combinatorics import SUM_WEIGHTS_CACHE_SIZE, binomial_column, common_denominator
from oracles import (
    even_binomial_sum_by_fractions,
    even_binomial_sum_term_by_term,
    falling_factorial,
    odd_binomial_sum_by_fractions,
    odd_binomial_sum_term_by_term,
)

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


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", None, complex(1, 0)], ids=repr)
def test_binomial_layer_names_a_value_that_is_neither_int_nor_fraction(bad):
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"must be int or Fraction, not {name}$"):
        binomial(bad, 2)
    for values in ([bad], [Fraction(1, 2), bad], [3, bad, 4]):
        with pytest.raises(TypeError, match=f"must be int or Fraction, not {name}$"):
            common_denominator(values)
    assert common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)


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


def _closed_form(n, j):
    return str(2 ** (n - 1) * math.comb(j - 1, n - 1))


def _assert_sums_match_term_by_term(n, j):
    odd = check_odd_binomial_sum(n, j)
    assert odd.computed == str(odd_binomial_sum_term_by_term(n, j)), (n, j)
    assert odd.expected == _closed_form(n, j) and odd.passed, (n, j)
    even = check_even_binomial_sum(n, j)
    assert even.computed == str(even_binomial_sum_term_by_term(n, j)), (n, j)
    assert even.expected == _closed_form(n, j) and even.passed, (n, j)


def test_binomial_sums_match_the_term_by_term_reference():
    # cached per-n weights against every term rebuilt per (n, j); j < n,
    # where the closed form is 0, included
    for n in range(1, 31):
        for j in range(1, 41):
            _assert_sums_match_term_by_term(n, j)


@given(st.integers(1, 80), st.integers(1, 120))
@example(80, 1)
@example(80, 79)
@example(80, 80)
def test_binomial_sums_match_the_term_by_term_reference_up_to_n_80(n, j):
    _assert_sums_match_term_by_term(n, j)


def test_binomial_sum_weight_caches_keep_their_bound():
    cache = combinatorics._sum_weights
    assert cache.cache_info().maxsize == SUM_WEIGHTS_CACHE_SIZE
    for n in range(1, 3 * SUM_WEIGHTS_CACHE_SIZE + 1):
        assert check_odd_binomial_sum(n, n).computed == str(2 ** (n - 1))
        assert check_even_binomial_sum(n, n + 1).computed == str(2 ** (n - 1) * n)
    assert cache.cache_info().currsize <= SUM_WEIGHTS_CACHE_SIZE


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
