"""Exact combinatorial primitives.

Falling factorials, binomial coefficients with arbitrary rational upper
argument (one at a time, or for an int upper argument a whole column
C(x, 0..size-1) as one running product), and the two binomial-sum identity
checkers used by the determinant verifiers.
All arithmetic is over int / fractions.Fraction; nothing here rounds.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

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
    the int 1.
    """
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    if isinstance(x, Fraction) and x.denominator == 1:
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


def common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over one common denominator, the lcm
    of theirs: ([v * common for v in values], common)."""
    common = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (common // v.denominator) for v in values], common


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


def check_odd_binomial_sum(n: int, j: int) -> VerificationReport:
    """Check sum_{k=1}^{n} (-1/2)^(n-k) C(2j-1, k-1) C(2n-k-1, n-1)
    against the closed form 2^(n-1) C(j-1, n-1), both sides exact.

    The sum runs on ints as 2^(1-n) sum (-1)^(n-k) 2^(k-1) C(..) C(..),
    with one division at the end."""
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    total = 0
    for k in range(1, n + 1):
        term = 2 ** (k - 1) * binomial(2 * j - 1, k - 1) * binomial(2 * n - k - 1, n - 1)
        total += -term if (n - k) % 2 else term
    lhs = Fraction(total, 2 ** (n - 1))
    rhs = 2 ** (n - 1) * binomial(j - 1, n - 1)
    return finish_report("odd-binomial-sum", {"n": n, "j": j}, rhs, lhs, started)


def check_even_binomial_sum(n: int, j: int) -> VerificationReport:
    """Check the conjectural even-column analogue:
    sum_{k=1}^{n} (-1/2)^(n-k) C(2j, k-1) sum_{v=0}^{floor((n-k)/2)} C(2n-k+1, n+1+2v)
    against 2^(n-1) C(j-1, n-1).  As in the odd sum, the integer numerators
    over 2^(n-1) are added up and divided once.

    No general proof is known for this sum; each report records a single
    exact instance and says so in its note.
    """
    started = time.perf_counter()
    if n < 1 or j < 1:
        raise ValueError("check needs n >= 1 and j >= 1")
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for v in range((n - k) // 2 + 1):
            inner += binomial(2 * n - k + 1, n + 1 + 2 * v)
        term = 2 ** (k - 1) * binomial(2 * j, k - 1) * inner
        total += -term if (n - k) % 2 else term
    lhs = Fraction(total, 2 ** (n - 1))
    rhs = 2 ** (n - 1) * binomial(j - 1, n - 1)
    return finish_report(
        "even-binomial-sum", {"n": n, "j": j}, rhs, lhs, started,
        note="empirical instance; the general statement is unproved",
    )
