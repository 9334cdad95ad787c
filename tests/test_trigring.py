import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from wronskit import (
    ExactMatrix,
    Trig,
    TrigPoly,
    differentiate,
    harmonic_step,
    is_constant,
    ladder_rung,
    trigring,
)
from oracles import CIRCLE_POINTS, basis_element, central_difference, eval_exact, eval_float, random_trigpoly

S = basis_element(0, Trig.SIN)
C = basis_element(0, Trig.COS)

terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.integers(-4, 4),
    max_size=4,
)
trigpolys = st.builds(TrigPoly, terms, terms)
scalars = st.integers(-3, 3) | st.fractions(max_denominator=4)
operands = trigpolys | scalars
signed_terms = st.lists(st.tuples(st.sampled_from((1, -1)), operands, operands), max_size=5)


def test_pythagorean_collapse():
    assert S * S + C * C == 1
    assert S * S == TrigPoly({(0, 0): 1, (0, 2): -1})


def test_mixed_product_keeps_s_degree_one():
    u = (S + C) * (S + C)
    # s^2 + 2sc + c^2 = 1 + 2sc
    assert u == TrigPoly({(0, 0): 1}, {(0, 1): 2})


def test_scalar_arithmetic():
    u = basis_element(1, Trig.SIN)
    assert 2 * u == u + u
    assert u - u == TrigPoly.zero()
    assert Fraction(1, 2) * (u + u) == u
    assert -(-u) == u
    assert (3 - (3 - u)) == u


def test_equality_against_scalars():
    assert TrigPoly.constant(5) == 5
    assert TrigPoly.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert TrigPoly.zero() == 0
    assert not (S == 0)


def test_constants_hash_as_their_value():
    for v in (0, 3, -1, Fraction(1, 2)):
        c = TrigPoly.constant(v)
        assert c == v and hash(c) == hash(v)
        assert len({c, v}) == 1
    assert len({TrigPoly.zero(), 0, Fraction(0)}) == 1
    assert hash(S * S + C * C) == hash(1)
    # a matrix that holds the int 0 equals and hashes as one holding TrigPoly.zero()
    mixed = ExactMatrix([[S, 0], [0, TrigPoly.constant(2)]])
    assert {type(v) for v in mixed.row(1)} == {int, TrigPoly}
    rebuilt = ExactMatrix([[TrigPoly.zero() + v for v in mixed.row(i)] for i in range(mixed.rows)])
    assert {type(v) for i in range(2) for v in rebuilt.row(i)} == {TrigPoly}
    assert mixed == rebuilt and hash(mixed) == hash(rebuilt)


def test_derivative_chain_of_x_sin_x():
    f = basis_element(1, Trig.SIN)
    d1 = differentiate(f)
    assert d1 == S + basis_element(1, Trig.COS)
    d4 = ladder_rung(1, Trig.SIN, 4, 0)
    assert d4 == f - 4 * C


def test_a_cold_derivative_of_any_order():
    # Leibniz: D^n (x sin x) = x sin^(n) x + n sin^(n-1) x, and 5000 = 0 mod 4;
    # the rung is one closed form, so no lower order is computed
    trigring.ladder_rung.cache_clear()
    assert ladder_rung(1, Trig.SIN, 5000, 0) == TrigPoly({(0, 1): -5000}, {(1, 0): 1})
    # Leibniz again: D^n (x^2 sin x) = x^2 sin^(n) + 2n x sin^(n-1) + n(n-1) sin^(n-2),
    # and n = 3 mod 4, so sin^(n) = -cos, sin^(n-1) = -sin, sin^(n-2) = cos
    n = 10 ** 6 + 3
    assert ladder_rung(2, Trig.SIN, n, 0) == TrigPoly({(2, 1): -1, (0, 1): n * (n - 1)},
                                                   {(1, 0): -2 * n})


@st.composite
def rungs(draw):
    power = draw(st.integers(0, 12))
    return power, draw(st.sampled_from(Trig)), draw(st.integers(0, 40)), draw(st.integers(0, power + 2))


@given(rungs())
@example((0, Trig.SIN, 0, 0))
@example((12, Trig.COS, 40, 14))
@settings(deadline=None)
def test_ladder_rung_matches_the_ring_rules(rung):
    power, kind, order, k = rung
    u = basis_element(power, kind)
    for _ in range(order):
        u = differentiate(u)
    for _ in range(k):
        u = harmonic_step(u)
    got = ladder_rung(power, kind, order, k)
    assert got == u, rung
    assert _stores_no_zero(got), rung


def test_basic_derivatives():
    assert differentiate(S) == C
    assert differentiate(C) == -S
    assert differentiate(basis_element(1, Trig.COS)) == C - basis_element(1, Trig.SIN)
    assert differentiate(TrigPoly.constant(7)) == 0


def test_harmonic_step_examples():
    assert harmonic_step(basis_element(1, Trig.SIN)) == 2 * C
    g = basis_element(2, Trig.SIN)
    assert harmonic_step(harmonic_step(g)) == -8 * S


def test_annihilation_and_nonvanishing():
    for n in range(0, 7):
        for kind in (Trig.SIN, Trig.COS):
            u = basis_element(n, kind)
            for k in range(n):
                u = harmonic_step(u)
                assert u != 0, f"(D^2+1)^{k + 1} killed x^{n} {kind.value} too early"
            assert harmonic_step(u) == 0


def test_initial_conditions():
    at_zero = (Fraction(0), Fraction(0), Fraction(1))  # x = 0, s = 0, c = 1
    for n in range(0, 7):
        for k in range(n + 1):
            assert eval_exact(ladder_rung(n, Trig.SIN, k, 0), *at_zero) == 0
    assert eval_exact(ladder_rung(1, Trig.SIN, 2, 0), *at_zero) == 2


def test_is_constant():
    assert is_constant(TrigPoly.zero()) == 0
    assert is_constant(TrigPoly.constant(Fraction(-3, 7))) == Fraction(-3, 7)
    assert is_constant(S) is None
    assert is_constant(basis_element(1, Trig.COS)) is None
    assert is_constant(S * S + C * C) == 1


def test_rendering_is_deterministic_and_ordered():
    u = ladder_rung(1, Trig.SIN, 2, 0)
    assert str(u) == "-x*s + 2*c"
    assert str(TrigPoly.zero()) == "0"
    assert str(TrigPoly.constant(Fraction(-3, 2))) == "-3/2"
    v = TrigPoly({(1, 1): 1}, {(0, 0): 1})
    assert str(v) == "s + x*c"
    assert str(u) == str(differentiate(differentiate(basis_element(1, Trig.SIN))))


def test_basis_element_rejects_negative_power():
    with pytest.raises(ValueError):
        basis_element(-1, Trig.SIN)


def test_canonical_zero_cleanup():
    u = TrigPoly({(0, 0): 0, (1, 1): 2}, {(2, 0): 0})
    assert dict(u.p) == {(1, 1): 2}
    assert dict(u.q) == {}


def _stores_no_zero(u: TrigPoly) -> bool:
    return 0 not in u.p.values() and 0 not in u.q.values()


@given(trigpolys, trigpolys, scalars)
@settings(deadline=None)
def test_ring_results_store_no_zero_coefficient(u, v, k):
    cancelling = TrigPoly.sum_of_products([(1, u, v), (-1, v, u), (k, u, 1), (-1, k, u)])
    results = [u + v, u - v, -u, u * k, k * u, u * 0, u * v, differentiate(u), harmonic_step(u),
               u - u, u + (-u), u * v - v * u, differentiate(TrigPoly.constant(k)),
               differentiate(u) - differentiate(u), u + k, k - u, cancelling,
               TrigPoly.sum_of_products([(1, u, v), (-1, k, v), (1, k, k), (-1, u, 0)])]
    for w in results:
        assert _stores_no_zero(w), w
    assert not (u - u) and not (u + (-u)) and not (u * 0) and not differentiate(TrigPoly.constant(k))
    assert not cancelling


@given(signed_terms)
@example([])
@example([(1, S, C), (-1, C, S)])
@example([(1, S, S), (1, C, C), (-1, 1, 1)])
@settings(deadline=None)
def test_sum_of_products_matches_the_naive_sum(terms):
    got = TrigPoly.sum_of_products(terms)
    assert isinstance(got, TrigPoly) and _stores_no_zero(got)
    naive = 0
    for k, u, v in terms:
        naive = naive + k * u * v
    assert got == naive
    # exact values at rational points of the circle, independent of the ring code
    for x in (Fraction(1, 2), Fraction(-3)):
        for s, c in CIRCLE_POINTS:
            want = sum(k * eval_exact(u, x, s, c) * eval_exact(v, x, s, c) for k, u, v in terms)
            assert eval_exact(got, x, s, c) == want


@given(trigpolys, trigpolys)
@settings(deadline=None)
def test_leibniz_rule(u, v):
    assert differentiate(u * v) == differentiate(u) * v + u * differentiate(v)


@given(trigpolys, trigpolys, trigpolys)
@settings(deadline=None)
def test_ring_axioms(u, v, w):
    assert u + v == v + u
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


@given(trigpolys)
@settings(deadline=None)
def test_derivative_is_additive(u):
    assert differentiate(u + u) == 2 * differentiate(u)


def test_differentiate_matches_finite_differences():
    rng = Random(20260817)
    for _ in range(20):
        u = random_trigpoly(rng)
        du = differentiate(u)
        for x0 in (0.3, 0.7, 1.1):
            exact = eval_float(du, x0)
            approx = central_difference(u, x0, step=1e-5)
            assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_float_oracle_agrees_on_known_function():
    # sanity for the oracle itself: x sin x at 0.7
    f = basis_element(1, Trig.SIN)
    assert math.isclose(eval_float(f, 0.7), 0.7 * math.sin(0.7), rel_tol=1e-12)
