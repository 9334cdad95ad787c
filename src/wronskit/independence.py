"""Verifiers for the (in)dependence theory of the derivative families of
x^n sin x and x^n cos x.

The symbolic route takes Wronskian determinants exactly over the trig quotient
ring after the paper's transformation: conjugation by the stacked double-shift
product S keeps the determinant and sorts the entries onto the (D^2+1)-ladder,
whose rungs from (D^2+1)^(n+1) f on vanish; its entries are closed-form rungs
(trigring.ladder_rung).  Its reference S W S^T, taken via W's Hankel structure
(matrix.conjugate_hankel), reads only k = 0 rungs, the plain derivatives of f,
and reaches the ladder through S alone, so it tests the closed form's
D^k (D+2i)^k factor; the k = 0 part is pinned by verify_basis_columns (the
paper's coordinate closed form) and by the ring tests.
The coordinate route expresses the derivatives in an integer basis and
settles independence by exact rank.
Both routes are kept separate on purpose so each can confirm the other.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from .combinatorics import binomial, falling_factorial
from .matrix import Entry, ExactMatrix, conjugate_hankel, first_difference
from .report import FrozenRecord, VerificationReport, finish_report
from .structured import double_shift_matrix, pascal_product
from .trigring import (
    Coeff,
    Trig,
    TrigPoly,
    differentiate,  # noqa: F401  not called here; perfbench's tracer test checks it is patched
    is_constant,
    ladder_rung,
)


class ChainSpec(FrozenRecord):
    """A run of consecutive derivatives of f = x^n sin x or x^n cos x:
    orders shift, shift+1, ..., shift+count-1."""

    __slots__ = ("n", "shift", "kind", "count")

    def __init__(self, n: int, shift: int = 0, kind: Trig = Trig.SIN, count: int = 1):
        if n < 0 or shift < 0 or count < 1:
            raise ValueError("chain needs n >= 0, shift >= 0, count >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "count", count)


def wronskian_hankel(spec: ChainSpec) -> ExactMatrix:
    """count x count Wronskian matrix of the chain.

    Row i of a Wronskian is the (i-1)-th derivative of the function row, and
    differentiating a derivative chain just shifts its orders, so the matrix
    is Hankel: entry (i, j) = D^(shift+i+j-2) f.
    """
    return ExactMatrix([
        [ladder_rung(spec.n, spec.kind, spec.shift + i + j, 0) for j in range(spec.count)]
        for i in range(spec.count)])


@lru_cache(maxsize=None)
def _double_shift_stack(size: int) -> tuple[ExactMatrix, str]:
    """The stacked double-shift product S (cutoffs 1 .. (size+1)//2 - 1, the last
    leftmost) and its first difference from C(i//2, j//2) where i = j mod 2,
    0-indexed: 'ok' iff row i of S holds the coefficients of D^(i mod 2) (D^2+1)^(i//2)."""
    stack = ExactMatrix.identity(size)
    for k in range(1, (size + 1) // 2):
        stack = double_shift_matrix(size, k) @ stack
    rungs = ExactMatrix.from_fn(
        size, size, lambda i, j: binomial((i - 1) // 2, (j - 1) // 2) if (i - j) % 2 == 0 else 0)
    return stack, first_difference(stack, rungs)


def conjugated_wronskian(spec: ChainSpec) -> ExactMatrix:
    """S W S^T for the Wronskian matrix W of the chain, by conjugate_hankel
    over W's Hankel values D^(shift+t) f: the reference for ladder_wronskian.
    S is unit lower triangular, so the determinant is W's."""
    h = [ladder_rung(spec.n, spec.kind, spec.shift + t, 0) for t in range(2 * spec.count - 1)]
    return conjugate_hankel(_double_shift_stack(spec.count)[0], h)


def ladder_wronskian(spec: ChainSpec) -> ExactMatrix:
    """S W S^T from the (D^2+1)-ladder of g = D^shift f: entry (i, j), 0-indexed,
    is D^(i mod 2 + j mod 2) (D^2+1)^(i//2 + j//2) g, a cached ladder_rung.
    That is P_i(D) P_j(D) g for the row polynomials P_i(D) = D^(i mod 2)
    (D^2+1)^(i//2) of S (_double_shift_stack)."""
    n, kind, shift = spec.n, spec.kind, spec.shift
    return ExactMatrix([[ladder_rung(n, kind, shift + i % 2 + j % 2, i // 2 + j // 2)
                         for j in range(spec.count)] for i in range(spec.count)])


def _ladder_determinant(spec: ChainSpec) -> Entry:
    """det W from ladder_wronskian, or where S's rows miss the ladder (a failing value)."""
    stack = _double_shift_stack(spec.count)[1]
    if stack != "ok":
        return f"double-shift stack off the ladder: {stack}"
    return ladder_wronskian(spec).determinant()


def two_by_two(n: int, shift: int = 0, kind: Trig = Trig.SIN) -> TrigPoly:
    """y D^2 y - (D y)^2 for y = D^shift (D^2+1)^n (x^n trig), read off three
    ladder rungs: the minor of ladder_wronskian(ChainSpec(n, shift, kind, 2n+2))
    in rows 1, 2 and columns 2n+1, 2n+2, counted from 1.

    Since (D^2+1)^(n+1) annihilates x^n trig, y is a plain sinusoid
    a sin x + b cos x and the expression collapses to the constant -(a^2+b^2).
    """
    y, dy, ddy = (ladder_rung(n, kind, shift + d, n) for d in range(3))
    return y * ddy - dy * dy


def verify_wronskian_factorization(n: int, shift: int = 0, kind: Trig = Trig.SIN) -> VerificationReport:
    """The order 2n+2 Wronskian of D^shift f .. D^(shift+2n+1) f must equal the
    (n+1)-th power of the two-by-two constant, itself nonzero; this settles
    independence of the chain."""
    started = time.perf_counter()
    base = is_constant(two_by_two(n, shift, kind))
    params = {"n": n, "shift": shift, "kind": kind.value}
    if base is None or base == 0:
        return finish_report("wronskian-factorization", params,
                             "nonzero constant quadratic", f"degenerate quadratic {base}", started)
    return finish_report("wronskian-factorization", params, Fraction(base) ** (n + 1),
                         _ladder_determinant(ChainSpec(n, shift, kind, 2 * n + 2)), started,
                         note=f"quadratic constant {base}")


def verify_dependence(n: int, kind: Trig = Trig.SIN) -> VerificationReport:
    """One derivative past the annihilation threshold: the order 2n+3
    Wronskian of f, Df, ..., D^(2n+2) f must vanish identically."""
    started = time.perf_counter()
    return finish_report("wronskian-dependence", {"n": n, "kind": kind.value}, 0,
                         _ladder_determinant(ChainSpec(n, 0, kind, 2 * n + 3)), started)


def verify_even_hankel_transform(steps: int, shift: int, n: int, kind: Trig = Trig.SIN) -> VerificationReport:
    """Conjugating the even-derivative Hankel grid by the stacked row-shift
    product (conjugate_hankel) must regrade it into the (D^2+1)-ladder grid,
    entry for entry, preserving the determinant.

    Grid: (steps+1) x (steps+1) with entry (i, j) = D^(shift + 2(i+j-2)) f.
    After conjugation entry (i, j) must be D^shift (D^2+1)^(i+j-2) f.  This is
    pure operator algebra, so it holds for any f; here f = x^n trig.
    """
    started = time.perf_counter()
    if steps < 1 or shift < 0 or n < 0:
        raise ValueError("transform needs steps >= 1, shift >= 0, n >= 0")
    size = steps + 1
    h = [ladder_rung(n, kind, shift + 2 * t, 0) for t in range(2 * size - 1)]
    grid = ExactMatrix([[h[i + j] for j in range(size)] for i in range(size)])
    conj = conjugate_hankel(pascal_product(size), h)
    target = ExactMatrix([[ladder_rung(n, kind, shift, i + j) for j in range(size)]
                          for i in range(size)])
    params = {"steps": steps, "shift": shift, "n": n, "kind": kind.value}
    if conj != target:
        return finish_report("even-hankel-transform", params, "ok",
                             first_difference(conj, target), started)
    if grid.determinant() != conj.determinant():
        return finish_report("even-hankel-transform", params, "ok",
                             "determinant changed under conjugation", started)
    return finish_report("even-hankel-transform", params, "ok", "ok", started)


def verify_wronskian_transform(n: int, kind: Trig = Trig.SIN) -> VerificationReport:
    """Conjugating the full 2n x 2n Wronskian matrix of f = x^n trig by the
    stacked double-shift product (conjugated_wronskian) must sort every entry
    onto the (D^2+1)-ladder of ladder_wronskian."""
    started = time.perf_counter()
    if n < 1:
        raise ValueError("transform needs n >= 1")
    spec = ChainSpec(n, 0, kind, 2 * n)
    return finish_report("wronskian-transform", {"n": n, "kind": kind.value}, "ok",
                         first_difference(conjugated_wronskian(spec), ladder_wronskian(spec)), started)


def coordinate_basis(n: int) -> tuple[tuple[int, Trig], ...]:
    """Ordered basis of span{x^i sin x, x^i cos x : 0 <= i <= n} chosen so all
    derivative coordinates are integers: powers descend in pairs, the pair
    order alternating (cos, sin), (sin, cos), (cos, sin), ..."""
    if n < 0:
        raise ValueError("basis needs n >= 0")
    out: list[tuple[int, Trig]] = []
    for pair in range(1, n + 2):
        power = n - pair + 1
        first, second = (Trig.COS, Trig.SIN) if pair % 2 else (Trig.SIN, Trig.COS)
        out.append((power, first))
        out.append((power, second))
    return tuple(out)


def coordinates_in_basis(u: TrigPoly, n: int) -> list[Coeff]:
    """Coordinates of u in coordinate_basis(n); u must lie in the span."""
    for (xd, cd) in u.p:
        if cd != 1 or xd > n:
            raise ValueError(f"element outside the span: cos-part term x^{xd} c^{cd}")
    for (xd, cd) in u.q:
        if cd != 0 or xd > n:
            raise ValueError(f"element outside the span: sin-part term x^{xd} c^{cd}")
    coords: list[Coeff] = []
    for power, kind in coordinate_basis(n):
        if kind is Trig.SIN:
            coords.append(u.q.get((power, 0), 0))
        else:
            coords.append(u.p.get((power, 1), 0))
    return coords


def coordinate_matrix(n: int) -> ExactMatrix:
    """(2n+2) x (2n+2) integer matrix whose column j holds the coordinates of
    D^j (x^n sin x) in coordinate_basis(n), in closed form.

    Entry (i, j): a parity gate (zero unless i+j is even), a sign read off two
    floor expressions, the binomial C(j, floor((2i-1)/4)) and the falling
    factorial of n of the same depth.
    """
    if n < 1:
        raise ValueError("coordinate matrix needs n >= 1")

    def entry(i: int, j: int) -> int:
        if (i + j) % 2:
            return 0
        depth = (2 * i - 1) // 4
        exponent = (2 * j + 1) // 4 + (2 * i + 1) // 8
        sign = -1 if exponent % 2 else 1
        return sign * binomial(j, depth) * falling_factorial(n, depth)

    return ExactMatrix.from_fn(2 * n + 2, 2 * n + 2, entry)


def scaled_coordinate_matrix(mat: ExactMatrix, n: int) -> ExactMatrix:
    """Strip the signs and falling factorials from the coordinate matrix:
    scale row i by 1 / ((-1)^floor((2i+1)/8) ff(n, floor((2i-1)/4))), then
    scale column j by (-1)^floor((2j+1)/4).

    The result must be the parity-gated binomial pattern C(j, floor((2i-1)/4)).
    mat holds ints; each scaled row is handed to ExactMatrix._over over its
    falling factorial.  Raises if any scale factor would be zero.
    """
    size = 2 * n + 2
    if (mat.rows, mat.cols) != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix")
    col_signs = [-1 if ((2 * j + 1) // 4) % 2 else 1 for j in range(1, size + 1)]
    rows = []
    dens = []
    for i in range(1, size + 1):
        ff = falling_factorial(n, (2 * i - 1) // 4)
        if ff == 0:
            raise ValueError(f"zero scale factor at row {i}")
        sign = -1 if ((2 * i + 1) // 8) % 2 else 1
        rows.append([sign * v * c for v, c in zip(mat.row(i - 1), col_signs)])
        dens.append(ff)
    return ExactMatrix._over(rows, dens, size)


def binomial_pattern_matrix(n: int) -> ExactMatrix:
    """The parity-gated binomial pattern: entry (i, j) = C(j, floor((2i-1)/4))
    when i+j is even, else 0."""
    size = 2 * n + 2
    return ExactMatrix.from_fn(
        size, size,
        lambda i, j: binomial(j, (2 * i - 1) // 4) if (i + j) % 2 == 0 else 0)


def verify_basis_columns(n: int) -> VerificationReport:
    """Every column of the closed-form coordinate matrix must agree with the
    symbolic derivative it claims to encode."""
    started = time.perf_counter()
    mat = coordinate_matrix(n)
    for j in range(1, 2 * n + 2 + 1):
        coords = coordinates_in_basis(ladder_rung(n, Trig.SIN, j, 0), n)
        column = [mat[i, j - 1] for i in range(2 * n + 2)]
        if coords != column:
            return finish_report("coordinate-columns", {"n": n}, "ok",
                                 f"column {j} disagrees with D^{j} coordinates", started)
    return finish_report("coordinate-columns", {"n": n}, "ok", "ok", started)


def verify_full_rank(n: int) -> VerificationReport:
    """The coordinate matrix of D f .. D^(2n+2) f must have full rank 2n+2,
    independence of the first 2n+2 derivatives by the coordinate route.

    The rank is read off the scaled matrix R^-1 M C (scaled_coordinate_matrix):
    its diagonal scales are nonzero, so it has M's rank whatever M holds, and
    a square matrix has full rank exactly when its determinant is nonzero.
    Only a singular scaled matrix is eliminated for its rank; the raw M, whose
    entries carry the falling factorials, never is.

    Also factors the scaled matrix through its interleave split: the
    determinant must equal det(odd block) * det(even block) =
    2^C(n+1,2) * 2^C(n+1,2) = 2^(n(n+1)).  The note records that exponent
    next to the inconsistent quoted closed form 2^(n(n-1)).
    """
    started = time.perf_counter()
    scaled = scaled_coordinate_matrix(coordinate_matrix(n), n)
    pattern_ok = scaled == binomial_pattern_matrix(n)
    odd, even = scaled.interleave_split()
    det_product = odd.determinant() * even.determinant()
    det_whole = scaled.determinant()
    rank = 2 * n + 2 if det_whole else scaled.rank()
    closed = 2 ** (n * (n + 1))
    quoted = 2 ** (n * (n - 1))
    note = (f"det of scaled matrix = {det_whole} = 2^{n * (n + 1)} "
            f"= det(odd block) * det(even block); computed exponent n(n+1) = {n * (n + 1)}; "
            f"the quoted exponent n(n-1) = {n * (n - 1)} would give {quoted} and is inconsistent")
    problems = []
    if not pattern_ok:
        problems.append("scaled matrix misses the binomial pattern")
    if det_whole != det_product:
        problems.append(f"split product {det_product} != determinant {det_whole}")
    if det_whole != closed:
        problems.append(f"determinant {det_whole} != 2^{n * (n + 1)}")
    computed = f"rank {rank}" if not problems else f"rank {rank}; " + "; ".join(problems)
    return finish_report("coordinate-full-rank", {"n": n}, f"rank {2 * n + 2}", computed, started,
                         note=note)
