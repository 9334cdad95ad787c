"""Verifiers for the (in)dependence theory of the derivative families of
x^n sin x and x^n cos x.

The symbolic route takes Wronskian determinants exactly over the trig quotient
ring after the paper's transformation: conjugation by a row-shift stack S
(_shift_stack) keeps the determinant and sorts the entries onto the
(D^2+1)-ladder, whose rungs from (D^2+1)^(n+1) f on vanish; its entries are
closed-form rungs (trigring.ladder_rung).  Both transform checks are one
per-class check (_transform_difference), reading S H S^T one entry per class
from the Hankel values of H through a class table cached per stack
(_class_table): only k = 0 rungs, the plain derivatives of f,
reaching the ladder through S alone, so they test the closed form's
D^k (D+2i)^k factor; the k = 0 part is pinned by
verify_basis_columns (the paper's coordinate closed form) and by the ring tests.
The coordinate route expresses the derivatives in an integer basis and
settles independence by exact rank.
Both routes are kept separate on purpose so each can confirm the other.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

from .combinatorics import binomial_column, binomial_rows
from .matrix import Entry, ExactMatrix, first_difference
from .report import FrozenRecord, VerificationReport, finish_report
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
        if not isinstance(kind, Trig):
            raise TypeError(f"chain kind must be a Trig, not {kind!r}")
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


# The most shift stacks, and as many class tables, that stay cached, each
# keyed by (size, step).  A sweep over n reads each size for a few checks in
# a row; the bound keeps a long sweep from holding every stack it ever built
# (sizes 2 to 202 at --max-n 100).
SHIFT_STACK_CACHE_SIZE = 32


@lru_cache(maxsize=SHIFT_STACK_CACHE_SIZE)
def _shift_stack(size: int, step: int) -> tuple[ExactMatrix, str]:
    """ExactMatrix.shift_stack(size, step) and its named first difference from
    C(i//step, j//step) where i = j mod step, else 0 (0-indexed): 'ok' iff row i
    holds z^(i mod step) (z^step + 1)^(i//step) in z = D^(2//step)."""
    rungs = []
    for i in range(size):
        row = [0] * size
        row[i % step::step] = binomial_column(i // step, (size - i % step + step - 1) // step)
        rungs.append(tuple(row))
    stack = ExactMatrix.shift_stack(size, step)
    difference = first_difference(stack, ExactMatrix._of(tuple(rungs), size, int))
    name = "row-shift stack off Pascal" if step == 1 else "double-shift stack off the ladder"
    return stack, difference if difference == "ok" else f"{name}: {difference}"


@lru_cache(maxsize=SHIFT_STACK_CACHE_SIZE)
def _class_table(size: int, step: int) -> tuple[tuple, ...]:
    """The ladder classes of S H S^T for the stack S of _shift_stack(size,
    step), in the row-major order of their first entries: per class
    (e, k) = (i mod step + j mod step, i//step + j//step) the tuple
    (e, k, i, j, (offsets, coefficients)), (i, j) its first entry
    (0-indexed), and the nonzero coefficients of the convolution of rows i
    and j of S with their places t as offsets t - e, so that the entry is
    the sum of coefficient * h[e + offset].  Equal (offsets, coefficients)
    are stored once: for a stack on the ladder, the classes of one k share
    them."""
    rows = _shift_stack(size, step)[0]._r
    table = []
    seen = set()
    shared = {}
    for i in range(size):
        for j in range(size):
            e, k = i % step + j % step, i // step + j // step
            if (e, k) not in seen:
                seen.add((e, k))
                conv = _convolution(rows[i], rows[j])
                terms = (tuple(t for t, c in enumerate(conv, -e) if c), tuple(filter(None, conv)))
                table.append((e, k, i, j, shared.setdefault(terms, terms)))
    return tuple(table)


def _convolution(row_i: Sequence[int], row_j: Sequence[int]) -> list[int]:
    """The coefficients of the product of the polynomials whose coefficients
    are the int rows row_i and row_j: len(row_i) + len(row_j) - 1 of them."""
    conv = [0] * (len(row_i) + len(row_j) - 1)
    for a, x in enumerate(row_i):
        if x:
            for t, y in enumerate(row_j, a):
                if y:
                    conv[t] += x * y
    return conv


def _conjugated_entry(row_i: Sequence[int], row_j: Sequence[int], h: Sequence[Entry]) -> TrigPoly:
    """Entry (i, j) of S H S^T for rows i and j of an int matrix S and the
    Hankel matrix H[a, b] = h[a + b] (0-indexed): sum_t (s_i * s_j)_t h[t],
    where s_i * s_j is the convolution of the two rows, taken as one
    TrigPoly.sum_of_products over (coefficient, h[t], 1).  h holds at least
    len(row_i) + len(row_j) - 1 values.  The reference for the class tables
    of _transform_difference, and the value its failure message shows."""
    return TrigPoly.sum_of_products((c, v, 1) for c, v in zip(_convolution(row_i, row_j), h) if c)


def ladder_wronskian(spec: ChainSpec) -> ExactMatrix:
    """S W S^T from the (D^2+1)-ladder of g = D^shift f: entry (i, j), 0-indexed,
    is D^(i mod 2 + j mod 2) (D^2+1)^(i//2 + j//2) g, a cached ladder_rung.
    That is P_i(D) P_j(D) g for the row polynomials P_i(D) = D^(i mod 2)
    (D^2+1)^(i//2) of S (_shift_stack(count, 2)).  Each rung class
    (i mod 2 + j mod 2, i//2 + j//2) is read once, and row i takes its even
    and its odd columns as two runs of one class's rungs."""
    n, kind, shift, count = spec.n, spec.kind, spec.shift, spec.count
    evens, odds = (count + 1) // 2, count // 2
    # rungs[e][k] = D^(shift+e) (D^2+1)^k g, for every k some entry reads
    rungs = [[ladder_rung(n, kind, shift + e, k) for k in range(size)]
             for e, size in enumerate((2 * evens - 1, count - 1, max(2 * odds - 1, 0)))]
    rows = []
    for i in range(count):
        parity, half = i % 2, i // 2
        row = [None] * count
        row[::2] = rungs[parity][half:half + evens]
        row[1::2] = rungs[parity + 1][half:half + odds]
        rows.append(tuple(row))
    return ExactMatrix._of(tuple(rows), count, TrigPoly)


def _ladder_determinant(spec: ChainSpec) -> Entry:
    """det W from ladder_wronskian, or where S's rows miss the ladder (a failing value)."""
    difference = _shift_stack(spec.count, 2)[1]
    return ladder_wronskian(spec).determinant() if difference == "ok" else difference


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


def _transform_difference(n: int, kind: Trig, shift: int, size: int, step: int) -> str:
    """'ok' if the stack S of _shift_stack(size, step) sorts the size x size
    Hankel matrix H[a, b] = h[a + b], h_t = D^(shift + t (2//step)) f of
    f = x^n trig, onto the (D^2+1)-ladder; else S's difference, or the first
    entry of S H S^T that differs, as first_difference reports it.

    Row i of S is P_i(z), z = D^(2//step), so entry (i, j) of S H S^T,
    (P_i P_j)(z) D^shift f, depends only on the class (e, k) = (i mod step +
    j mod step, i//step + j//step) and must be the rung D^(shift+e) (D^2+1)^k f:
    only the first entry of each class is taken, from the cached class
    table (_class_table) as one TrigPoly.sum_of_products of the Hankel values."""
    stack, difference = _shift_stack(size, step)
    if difference != "ok":
        return difference
    h = [ladder_rung(n, kind, shift + t * (2 // step), 0) for t in range(2 * size - 1)]
    for e, k, i, j, (offsets, coefficients) in _class_table(size, step):
        want = ladder_rung(n, kind, shift + e, k)
        if TrigPoly.sum_of_products([(c, h[e + t], 1) for t, c in zip(offsets, coefficients)]) != want:
            got = _conjugated_entry(stack.row(i), stack.row(j), h)
            return f"entry ({i + 1},{j + 1}) is {got}, want {want}"
    return "ok"


def _hankel(h: list[TrigPoly], size: int) -> ExactMatrix:
    """The size x size TrigPoly matrix H[a, b] = h[a + b], rows sliced off h."""
    return ExactMatrix._of(tuple(tuple(h[i:i + size]) for i in range(size)), size, TrigPoly)


def verify_even_hankel_transform(steps: int, shift: int, n: int, kind: Trig = Trig.SIN) -> VerificationReport:
    """Conjugating the even-derivative Hankel grid by the stacked row-shift
    product (Pascal's triangle) must regrade it into the (D^2+1)-ladder grid,
    entry for entry, preserving the determinant.

    Grid: (steps+1) x (steps+1) with entry (i, j) = D^(shift + 2(i+j-2)) f.
    After conjugation entry (i, j) must be D^shift (D^2+1)^(i+j-2) f.  This is
    pure operator algebra, so it holds for any f; here f = x^n trig.  Once
    _transform_difference (step 1) finds every entry so, the conjugate is
    that ladder grid, whose determinant must be the grid's.
    """
    started = time.perf_counter()
    if steps < 1 or shift < 0 or n < 0:
        raise ValueError("transform needs steps >= 1, shift >= 0, n >= 0")
    size = steps + 1
    difference = _transform_difference(n, kind, shift, size, 1)
    if difference == "ok":
        grid = _hankel([ladder_rung(n, kind, shift + 2 * t, 0) for t in range(2 * size - 1)], size)
        target = _hankel([ladder_rung(n, kind, shift, t) for t in range(2 * size - 1)], size)
        if grid.determinant() != target.determinant():
            difference = "determinant changed under conjugation"
    params = {"steps": steps, "shift": shift, "n": n, "kind": kind.value}
    return finish_report("even-hankel-transform", params, "ok", difference, started)


def verify_wronskian_transform(n: int, kind: Trig = Trig.SIN) -> VerificationReport:
    """Conjugating the full 2n x 2n Wronskian matrix W of f = x^n trig by the
    stacked double-shift product S must sort every entry onto the
    (D^2+1)-ladder of ladder_wronskian: _transform_difference with step 2,
    6n - 3 entries instead of 4n^2."""
    started = time.perf_counter()
    if n < 1:
        raise ValueError("transform needs n >= 1")
    return finish_report("wronskian-transform", {"n": n, "kind": kind.value}, "ok",
                         _transform_difference(n, kind, 0, 2 * n, 2), started)


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
    factorial of n of the same depth.  Built a row at a time from
    ``_pattern_rows``: row i is its pattern row times the row scale and the
    column signs of ``_coordinate_scales``.
    """
    if n < 1:
        raise ValueError("coordinate matrix needs n >= 1")
    row_scales, col_signs = _coordinate_scales(n)
    rows = [tuple([scale * c * v for c, v in zip(col_signs, row)])
            for scale, row in zip(row_scales, _pattern_rows(n))]
    return ExactMatrix._of(tuple(rows), 2 * n + 2, int)


def scaled_coordinate_matrix(mat: ExactMatrix, n: int) -> ExactMatrix:
    """Strip the signs and falling factorials from the coordinate matrix:
    divide row i by its row scale, then multiply column j by its sign, both
    from ``_coordinate_scales``.

    The result must be the parity-gated binomial pattern C(j, floor((2i-1)/4)).
    mat holds ints; each scaled row is handed to ExactMatrix._over over its
    falling factorial.  Raises if any scale factor would be zero.
    """
    size = 2 * n + 2
    if (mat.rows, mat.cols) != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix")
    row_scales, col_signs = _coordinate_scales(n)
    rows = []
    for i, scale in enumerate(row_scales):
        if scale == 0:
            raise ValueError(f"zero scale factor at row {i + 1}")
        sign = -1 if scale < 0 else 1
        rows.append([sign * v * c for v, c in zip(mat.row(i), col_signs)])
    return ExactMatrix._over(rows, map(abs, row_scales), size)


def _coordinate_scales(n: int) -> tuple[list[int], list[int]]:
    """The coordinate matrix's row scales (-1)^floor((2i+1)/8) ff(n, d) at
    depth d = floor((2i-1)/4), the falling factorial as a running product
    over the depths, and its column signs (-1)^floor((2j+1)/4), for
    i, j = 1 .. 2n+2."""
    size = 2 * n + 2
    col_signs = [-1 if ((2 * j + 1) // 4) % 2 else 1 for j in range(1, size + 1)]
    row_scales = []
    ff = 1
    for i in range(1, size + 1):
        depth = (2 * i - 1) // 4
        if i % 2 and depth:
            ff *= n - depth + 1
        row_scales.append(-ff if ((2 * i + 1) // 8) % 2 else ff)
    return row_scales, col_signs


def _pattern_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The rows of binomial_pattern_matrix(n): rows 2d+1 and 2d+2
    (1-indexed) share the depth d = floor((2i-1)/4) and take the odd and the
    even columns of one ``binomial_rows`` row C(j, d), j = 1 .. 2n+2."""
    size = 2 * n + 2
    for binoms in binomial_rows(range(1, size + 1), n + 1):
        for parity in (0, 1):
            row = [0] * size
            row[parity::2] = binoms[parity::2]
            yield tuple(row)


def binomial_pattern_matrix(n: int) -> ExactMatrix:
    """The parity-gated binomial pattern: entry (i, j) = C(j, floor((2i-1)/4))
    when i+j is even, else 0."""
    return ExactMatrix._of(tuple(_pattern_rows(n)), 2 * n + 2, int)


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

    The whole and both blocks of its interleave split take ``determinant``:
    step-2 column differences reduce the whole, with diagonal
    2^floor((2i-1)/4), and step 1 the binom-odd and binom-even blocks, so
    det(odd block) * det(even block) = 2^C(n+1,2) * 2^C(n+1,2) = 2^(n(n+1))
    cross-checks the whole by a second code path.  The note records the
    exponent next to the inconsistent quoted closed form 2^(n(n-1)).  At
    n = 100 the check takes about 0.25 s on a 2-core x86 machine, most of it
    the three difference determinants (15.6 s by elimination).
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
