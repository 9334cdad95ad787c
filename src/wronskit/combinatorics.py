"""Exact combinatorial primitives.

Binomial coefficients with arbitrary rational upper argument (one at a
time, or for int upper arguments a whole column C(x, 0..size-1) or whole
rows C(x_j, i) as running products), and the two binomial-sum identity
checkers used by the determinant verifiers, which keep their j-free weights
per n in a bounded cache.
All arithmetic is over int / fractions.Fraction; nothing here rounds.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .report import VerificationReport, finish_report

Rat = int | Fraction


def binomial(x: Rat, k: int) -> Rat:
    """Binomial coefficient x (x-1) ... (x-k+1) / k! for rational x.

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


def binomial_rows(nums: Sequence[int], count: int) -> tuple[tuple[int, ...], ...]:
    """The rows (C(x, i) for x in nums) for i = 0 .. count-1, for int nums:
    row 0 is all ones, row 1 is nums itself, and each later row comes from
    the one before as C(x, i) = C(x, i-1) (x-i+1) // i, an exact division
    for either sign of x."""
    row = tuple(nums)
    rows = [(1,) * len(row), row]
    for i in range(2, count):
        t = i - 1
        row = tuple([c * (x - t) // i for c, x in zip(row, nums)])
        rows.append(row)
    return tuple(rows[:max(count, 0)])


# The most n whose binomial-sum weights, both sums' at once, stay cached.
# A sweep over j at one n reuses one entry; the bound keeps a sweep over many n
# from holding every weight tuple it ever built.
SUM_WEIGHTS_CACHE_SIZE = 32


@lru_cache(maxsize=SUM_WEIGHTS_CACHE_SIZE)
def _sum_weights(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The j-free factors of the odd and the even binomial sum's numerators
    for k = 1..n: (-1)^(n-k) 2^(k-1) b_k with b_k = C(2n-k-1, n-1), and
    (-1)^(n-k) 2^(k-1) t_k with the inner sum sum_{v=0}^{floor((n-k)/2)}
    C(2n-k+1, n+1+2v), which Pascal's rule folds into the tail
    t_k = sum_{r=n}^{2n-k} C(2n-k, r).  One pass from k = n down:
    b_n = t_n = 1, b_{k-1} = b_k (2n-k)/(n-k+1), t_{k-1} = 2 t_k + b_{k-1}."""
    odd, even = [], []
    b = t = 1
    for k in range(n, 0, -1):
        sign = -1 if (n - k) % 2 else 1
        odd.append((sign * b) << (k - 1))
        even.append((sign * t) << (k - 1))
        b = b * (2 * n - k) // (n - k + 1)
        t = 2 * t + b
    return tuple(reversed(odd)), tuple(reversed(even))


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
    j-free weights w_k of ``_sum_weights`` (built once per n) and the
    column C(2j-1, 0..n-1) as one running product: O(n) big-int products
    per check once its n is cached."""
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    return _binomial_sum_report("odd-binomial-sum", _sum_weights(n)[0], 2 * j - 1, n, j, started)


def check_even_binomial_sum(n: int, j: int) -> VerificationReport:
    """Check the conjectural even-column analogue:
    sum_{k=1}^{n} (-1/2)^(n-k) C(2j, k-1) sum_{v=0}^{floor((n-k)/2)} C(2n-k+1, n+1+2v)
    against 2^(n-1) C(j-1, n-1).  As in the odd sum, the j-free weights of
    ``_sum_weights`` meet the column C(2j, 0..n-1) in one integer dot
    product over 2^(n-1).

    No general proof is known for this sum; each report records a single
    exact instance and says so in its note.
    """
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    return _binomial_sum_report("even-binomial-sum", _sum_weights(n)[1], 2 * j, n, j, started,
                                "empirical instance; the general statement is unproved")
