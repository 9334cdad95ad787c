"""Exact combinatorial primitives.

Falling factorials, binomial coefficients with arbitrary rational upper
argument (one at a time, or for int upper arguments a whole column
C(x, 0..size-1) or whole rows C(x_j, i) as running products), and the two
binomial-sum identity checkers used by the determinant verifiers, which
keep their j-free weights per n in a bounded cache.
All arithmetic is over int / fractions.Fraction; nothing here rounds.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mul, sub

from .report import VerificationReport, finish_report

Rat = int | Fraction


def falling_factorial(x: Rat, n: int) -> Rat:
    """x (x-1) ... (x-n+1), with the empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    out: Rat = 1
    for i in range(n):
        out = out * (x - i)
    return out


def binomial(x: Rat, k: int) -> Rat:
    """Binomial coefficient falling_factorial(x, k) / k! for rational x.

    Integer x stays integer, including negative x, through
    C(x, k) = (-1)^k C(k - x - 1, k); for 0 <= x < k the value is 0.  For
    x = p/q in lowest terms with q > 1 the numerator prod (p - i q) over
    i < k runs on ints and one Fraction divides it by q^k k!; k = 0 gives
    the int 1.  Any other x raises TypeError.
    """
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    # an int is tested first: isinstance(x, Fraction) is an ABC check per call
    if not isinstance(x, int) and _rational(x).denominator == 1:
        x = int(x)
    if isinstance(x, int):
        if x >= 0:
            return math.comb(x, k)
        return -math.comb(k - x - 1, k) if k % 2 else math.comb(k - x - 1, k)
    if k == 0:
        return 1
    p, q = x.numerator, x.denominator
    num = 1
    for i in range(k):
        num *= p - i * q
    return Fraction(num, q ** k * math.factorial(k))


def common_denominator(values: Sequence[Rat]) -> tuple[list[int], int]:
    """Rationals as integer numerators over one common denominator, the lcm
    of theirs: ([v * common for v in values], common).  TypeError for a
    value that is neither an int nor a Fraction."""
    common = math.lcm(*[_rational(v).denominator for v in values])
    return [v.numerator * (common // v.denominator) for v in values], common


def _rational(x: Rat) -> Rat:
    """x itself if it is an int or a Fraction, else TypeError naming its type."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"rationals must be int or Fraction, not {type(x).__name__}")


def binomial_column(x: int, size: int) -> list[int]:
    """[C(x, 0), ..., C(x, size-1)] for an int x as one running product,
    C(x, i) = C(x, i-1) (x-i+1) // i, an exact division for either sign of
    x; each entry is the int ``binomial(x, k)`` gives."""
    if size < 0:
        raise ValueError("binomial column needs size >= 0")
    if not isinstance(x, int):
        raise TypeError(f"binomial column needs an int upper argument, got {x!r}")
    out = [1] * min(size, 1)
    c = 1
    for i in range(1, size):
        c = c * (x - i + 1) // i
        out.append(c)
    return out


def binomial_rows(nums: Sequence[int], count: int) -> Iterator[tuple[int, ...]]:
    """The rows (C(x, i) for x in nums) for i = 0 .. count-1, for int nums,
    each from the one before as C(x, i) = C(x, i-1) (x-i+1) // i, an exact
    division for either sign of x, in C-level maps."""
    row = (1,) * len(nums)
    for i in range(count):
        if i:
            row = tuple(map(floordiv, map(mul, row, map(sub, nums, repeat(i - 1))), repeat(i)))
        yield row


# The most n whose binomial-sum weights stay cached, per sum.  A sweep
# over j at one n reuses one entry; the bound keeps a sweep over many n
# from holding every weight tuple it ever built.
SUM_WEIGHTS_CACHE_SIZE = 32


@lru_cache(maxsize=SUM_WEIGHTS_CACHE_SIZE)
def _odd_sum_weights(n: int) -> tuple[int, ...]:
    """The j-free factors (-1)^(n-k) 2^(k-1) C(2n-k-1, n-1) of the odd
    binomial sum's numerator, for k = 1..n, term by term."""
    out = []
    for k in range(1, n + 1):
        term = 2 ** (k - 1) * binomial(2 * n - k - 1, n - 1)
        out.append(-term if (n - k) % 2 else term)
    return tuple(out)


@lru_cache(maxsize=SUM_WEIGHTS_CACHE_SIZE)
def _even_sum_weights(n: int) -> tuple[int, ...]:
    """The j-free factors (-1)^(n-k) 2^(k-1) sum_{v=0}^{floor((n-k)/2)}
    C(2n-k+1, n+1+2v) of the even binomial sum's numerator, for k = 1..n,
    term by term."""
    out = []
    for k in range(1, n + 1):
        inner = 0
        for v in range((n - k) // 2 + 1):
            inner += binomial(2 * n - k + 1, n + 1 + 2 * v)
        term = 2 ** (k - 1) * inner
        out.append(-term if (n - k) % 2 else term)
    return tuple(out)


def _binomial_sum_report(check: str, weights: tuple[int, ...], top: int, n: int, j: int,
                         started: float, note: str = "") -> VerificationReport:
    """Close a binomial-sum check: the weights against the column
    C(top, 0..n-1), one dot product over 2^(n-1), against the closed form
    2^(n-1) C(j-1, n-1)."""
    lhs = Fraction(sum(map(mul, weights, binomial_column(top, n))), 2 ** (n - 1))
    rhs = 2 ** (n - 1) * binomial(j - 1, n - 1)
    return finish_report(check, {"n": n, "j": j}, rhs, lhs, started, note)


def check_odd_binomial_sum(n: int, j: int) -> VerificationReport:
    """Check sum_{k=1}^{n} (-1/2)^(n-k) C(2j-1, k-1) C(2n-k-1, n-1)
    against the closed form 2^(n-1) C(j-1, n-1), both sides exact.

    The sum runs on ints as 2^(1-n) sum_k w_k C(2j-1, k-1), with the
    j-free weights w_k of ``_odd_sum_weights`` (built once per n) and the
    column C(2j-1, 0..n-1) as one running product: O(n) big-int products
    per check once its n is cached."""
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    return _binomial_sum_report("odd-binomial-sum", _odd_sum_weights(n), 2 * j - 1, n, j, started)


def check_even_binomial_sum(n: int, j: int) -> VerificationReport:
    """Check the conjectural even-column analogue:
    sum_{k=1}^{n} (-1/2)^(n-k) C(2j, k-1) sum_{v=0}^{floor((n-k)/2)} C(2n-k+1, n+1+2v)
    against 2^(n-1) C(j-1, n-1).  As in the odd sum, the j-free weights of
    ``_even_sum_weights`` meet the column C(2j, 0..n-1) in one integer dot
    product over 2^(n-1).

    No general proof is known for this sum; each report records a single
    exact instance and says so in its note.
    """
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    return _binomial_sum_report("even-binomial-sum", _even_sum_weights(n), 2 * j, n, j, started,
                                "empirical instance; the general statement is unproved")
