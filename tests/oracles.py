"""Independent oracles the tests check library results against.

Everything here deliberately avoids the library's own algorithms: a matrix
is built by one call of an entry function per entry, the determinant is a
plain permutation sum, the rank a row echelon form by Fraction division,
the matrix product a plain triple sum over every entry, zero or not (a
conjugation S M S^T is two of them), the binomial sums add Fraction terms
with math.comb or, by definition term by term, integer numerators over
2^(n-1) with every factor rebuilt for each (n, j), x^n sin x and x^n cos x
are written as literal terms, a sum of TrigPoly products multiplies out
monomials in (x, c, s) and reduces s^2 once, never calling a TrigPoly
operator, and derivatives are cross-checked by floating central differences.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

from wronskit import ExactMatrix, Trig, TrigPoly


def from_fn(rows: int, cols: int, fn) -> ExactMatrix:
    """The matrix of a 1-indexed entry function fn(i, j), one call per entry."""
    return ExactMatrix([[fn(i, j) for j in range(1, cols + 1)] for i in range(1, rows + 1)])


def determinant_by_permutations(m: ExactMatrix):
    """Leibniz sum over all permutations; exponential, fine for order <= 6."""
    n = m.rows
    assert n == m.cols
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = m[0, perm[0]]
        for i in range(1, n):
            prod = prod * m[i, perm[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


def rank_by_elimination(m: ExactMatrix) -> int:
    """Number of pivots of a row echelon form, each row reduced by dividing
    Fractions."""
    rows = [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, m.rows):
            factor = rows[i][col] / top[col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def product_by_definition(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Entry (i, j) is the sum over k of a[i, k] * b[k, j], zeros included."""
    assert a.cols == b.rows
    return ExactMatrix([
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), 0) for j in range(b.cols)]
        for i in range(a.rows)])


def conjugate_by_definition(stack: ExactMatrix, middle: ExactMatrix) -> ExactMatrix:
    """S M S^T as two products by definition."""
    return product_by_definition(product_by_definition(stack, middle), stack.transpose())


def falling_factorial(x, n: int):
    """x (x-1) ... (x-n+1), with the empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    out = 1
    for i in range(n):
        out = out * (x - i)
    return out


def _monomials(u) -> dict:
    """u, a TrigPoly, int or Fraction, as {(x degree, c degree, s degree): coefficient}."""
    if not isinstance(u, TrigPoly):
        return {(0, 0, 0): u}
    out = {(x, c, 0): v for (x, c), v in u.p.items()}
    out.update({(x, c, 1): v for (x, c), v in u.q.items()})
    return out


def sum_of_products_by_terms(terms) -> TrigPoly:
    """The sum of k * u * v over the (k, u, v) terms, u and v each a TrigPoly,
    int or Fraction: every pair of monomials multiplied out in Q[x, c, s],
    then each s^2 replaced by 1 - c^2, and the result handed to the TrigPoly
    constructor.  No TrigPoly operator is called."""
    total: dict = {}
    for k, u, v in terms:
        for (xa, ca, sa), a in _monomials(u).items():
            for (xb, cb, sb), b in _monomials(v).items():
                m = (xa + xb, ca + cb, sa + sb)
                total[m] = total.get(m, 0) + k * a * b
    p: dict = {}
    q: dict = {}
    for (x, c, s), v in total.items():
        if s == 1:
            q[x, c] = q.get((x, c), 0) + v
        else:
            p[x, c] = p.get((x, c), 0) + v
            if s == 2:
                p[x, c + 2] = p.get((x, c + 2), 0) - v
    return TrigPoly(p, q)


def basis_element(power: int, kind: Trig) -> TrigPoly:
    """x^power * sin x  or  x^power * cos x, as literal terms."""
    if power < 0:
        raise ValueError("power must be >= 0")
    if kind is Trig.SIN:
        return TrigPoly(None, {(power, 0): 1})
    return TrigPoly({(power, 1): 1}, None)


def eval_float(u: TrigPoly, x: float) -> float:
    """Numeric value of u at x with s = sin x, c = cos x."""
    s, c = math.sin(x), math.cos(x)
    val = sum(float(v) * x ** xd * c ** cd for (xd, cd), v in u.p.items())
    val += s * sum(float(v) * x ** xd * c ** cd for (xd, cd), v in u.q.items())
    return val


# rational points (s, c) with s^2 + c^2 = 1: substituting one of them and a
# rational x is a ring homomorphism from Q[x, s, c] / (s^2 + c^2 - 1) to Q
CIRCLE_POINTS = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
                 (Fraction(8, 17), Fraction(-15, 17)))


def eval_exact(u, x: Fraction, s: Fraction, c: Fraction) -> Fraction:
    """Exact value of a TrigPoly, int or Fraction at (x, s, c)."""
    if not isinstance(u, TrigPoly):
        return Fraction(u)
    val = sum((v * x ** xd * c ** cd for (xd, cd), v in u.p.items()), Fraction(0))
    return val + s * sum((v * x ** xd * c ** cd for (xd, cd), v in u.q.items()), Fraction(0))


def central_difference(u: TrigPoly, x: float, step: float = 1e-5) -> float:
    return (eval_float(u, x + step) - eval_float(u, x - step)) / (2.0 * step)


def random_trigpoly(rng: Random, terms: int = 4, max_x: int = 3, max_c: int = 2,
                    bound: int = 4) -> TrigPoly:
    p = {}
    q = {}
    for _ in range(rng.randint(1, terms)):
        p[(rng.randint(0, max_x), rng.randint(0, max_c))] = rng.randint(-bound, bound)
    for _ in range(rng.randint(0, terms)):
        q[(rng.randint(0, max_x), rng.randint(0, max_c))] = rng.randint(-bound, bound)
    return TrigPoly(p, q)


def random_int_matrix(rng: Random, rows: int, cols: int, bound: int = 5) -> ExactMatrix:
    return ExactMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def random_rational_matrix(rng: Random, order: int, mixed: bool = False, bound: int = 5) -> ExactMatrix:
    """Square matrix of Fractions; with ``mixed`` about half the entries are ints."""
    def entry():
        if mixed and rng.random() < 0.5:
            return rng.randint(-bound, bound)
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
    return ExactMatrix([[entry() for _ in range(order)] for _ in range(order)])


def random_checkerboard(rng: Random, order: int, bound: int = 5) -> ExactMatrix:
    """Even-order matrix, nonzero only where row and column parity agree."""
    return ExactMatrix([
        [rng.randint(-bound, bound) if (i + j) % 2 == 0 else 0 for j in range(order)]
        for i in range(order)])


def random_unit_triangular(rng: Random, n: int, upper: bool = False, bound: int = 3) -> ExactMatrix:
    def entry(i, j):
        if i == j:
            return 1
        if (j > i) if upper else (j < i):
            return rng.randint(-bound, bound)
        return 0
    return ExactMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def random_distinct_rationals(rng: Random, size: int) -> tuple[Fraction, ...]:
    seen: set[Fraction] = set()
    out: list[Fraction] = []
    while len(out) < size:
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


def odd_binomial_sum_by_fractions(n: int, j: int) -> Fraction:
    """sum_{k=1}^{n} (-1/2)^(n-k) C(2j-1, k-1) C(2n-k-1, n-1), term by term
    in Fractions."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(-1, 2) ** (n - k) * math.comb(2 * j - 1, k - 1) * math.comb(2 * n - k - 1, n - 1)
    return total


def even_binomial_sum_by_fractions(n: int, j: int) -> Fraction:
    """sum_{k=1}^{n} (-1/2)^(n-k) C(2j, k-1) sum_v C(2n-k+1, n+1+2v), term by
    term in Fractions."""
    total = Fraction(0)
    for k in range(1, n + 1):
        inner = sum(math.comb(2 * n - k + 1, n + 1 + 2 * v) for v in range((n - k) // 2 + 1))
        total += Fraction(-1, 2) ** (n - k) * math.comb(2 * j, k - 1) * inner
    return total


def odd_binomial_sum_term_by_term(n: int, j: int) -> Fraction:
    """The odd sum as integer numerators over 2^(n-1), every term built
    afresh for every (n, j): sum_k (-1)^(n-k) 2^(k-1) C(2j-1, k-1)
    C(2n-k-1, n-1), divided once."""
    total = 0
    for k in range(1, n + 1):
        term = 2 ** (k - 1) * math.comb(2 * j - 1, k - 1) * math.comb(2 * n - k - 1, n - 1)
        total += -term if (n - k) % 2 else term
    return Fraction(total, 2 ** (n - 1))


def even_binomial_sum_term_by_term(n: int, j: int) -> Fraction:
    """The even sum as integer numerators over 2^(n-1), the inner sum over
    v recomputed for every (n, j, k), divided once."""
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for v in range((n - k) // 2 + 1):
            inner += math.comb(2 * n - k + 1, n + 1 + 2 * v)
        term = 2 ** (k - 1) * math.comb(2 * j, k - 1) * inner
        total += -term if (n - k) % 2 else term
    return Fraction(total, 2 ** (n - 1))
