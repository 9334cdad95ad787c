"""Builders for the named structured matrices and their determinant verifiers.

The family: unit lower bidiagonal row-shift matrices (add row i-1 to row i
from a cutoff down), their two-step cousins, the lower-triangular halving
matrix, the scaled Pascal matrix, the binomial matrices with odd / even upper
index, and binomial matrices over affine progressions or arbitrary rational
nodes.  Every determinant identity checked here is exact.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import mul, sub

from .combinatorics import Rat, _rational, binomial_column, binomial_rows, common_denominator
from .matrix import ExactMatrix, first_difference
from .report import FrozenRecord, VerificationReport, finish_report


class MatrixKind(Enum):
    ROW_SHIFT = "row-shift"          # unit diag, subdiagonal 1 from row k+1 down
    DOUBLE_SHIFT = "double-shift"    # unit diag, second subdiagonal 1 from row 2k+1 down
    LOWER_HALVING = "lower-halving"  # (-1/2)^(i-j) C(2i-j-1, i-j) on and below the diagonal
    SCALED_PASCAL = "scaled-pascal"  # 2^(i-1) C(j-1, i-1)
    BIDIAGONAL = "bidiagonal"        # 1 on the diagonal and first subdiagonal
    PASCAL = "pascal"                # C(i-1, j-1)
    BINOM_ODD = "binom-odd"          # C(2j-1, i-1), size (n+1) x (n+1)
    BINOM_EVEN = "binom-even"        # C(2j, i-1), size (n+1) x (n+1)
    BINOM_AFFINE = "binom-affine"    # C(a j + b, i-1)
    BINOM_NODES = "binom-nodes"      # C(x_j, i-1)

    # members are singletons: hash by identity, not through Enum.__hash__,
    # a Python-level call on every lookup of a per-kind table
    __hash__ = object.__hash__


class MatrixSpec(FrozenRecord):
    """One named matrix instance.

    ``n`` is the literal size for every kind except BINOM_ODD / BINOM_EVEN,
    where it is the family parameter and the matrix is (n+1) x (n+1).
    ``k`` is the shift cutoff for ROW_SHIFT / DOUBLE_SHIFT; ``a``/``b`` the
    affine progression; ``nodes`` the upper arguments for BINOM_NODES (its
    size is len(nodes), and ``n`` stays 0).  ``build`` refuses a field that
    its kind does not read.
    """

    __slots__ = ("kind", "n", "k", "a", "b", "nodes")

    def __init__(self, kind: MatrixKind, n: int = 0, k: int | None = None, a: Rat | None = None,
                 b: Rat | None = None, nodes: tuple[Rat, ...] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nodes", nodes)


def row_shift_matrix(n: int, k: int) -> ExactMatrix:
    """n x n unit lower bidiagonal matrix: left-multiplication adds each of the
    original rows k..n-1 to the row below it, all at once.  Valid 1 <= k <= n-1."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"row shift needs n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    return ExactMatrix.unit_lower(n, 1, k)


def double_shift_matrix(n: int, k: int) -> ExactMatrix:
    """n x n analogue shifting by two rows: ones at (i, i) and at (i, i-2) for
    i >= 2k+1.  Valid n >= 3 and 1 <= k <= floor((n+1)/2) - 1."""
    if n < 3:
        raise ValueError(f"double shift needs n >= 3, got n={n}")
    top = (n + 1) // 2 - 1
    if not 1 <= k <= top:
        raise ValueError(f"double shift needs 1 <= k <= {top} for n={n}, got k={k}")
    return ExactMatrix.unit_lower(n, 2, 2 * k)


def _row_shift(spec: MatrixSpec) -> ExactMatrix:
    if spec.k is None:
        raise ValueError("row-shift needs k")
    return row_shift_matrix(spec.n, spec.k)


def _double_shift(spec: MatrixSpec) -> ExactMatrix:
    if spec.k is None:
        raise ValueError("double-shift needs k")
    return double_shift_matrix(spec.n, spec.k)


def _lower_halving(spec: MatrixSpec) -> ExactMatrix:
    n = spec.n
    _need_size(n)
    # (-1/2)^d C(i-1+d, d) = C(-i, d) / 2^d at d = i - j, read right to
    # left: row i holds the numerators C(-i, d) 2^(i-1-d) over 2^(i-1)
    rows = ([c << (i - 1 - d) for d, c in enumerate(binomial_column(-i, i))][::-1] + [0] * (n - i)
            for i in range(1, n + 1))
    return ExactMatrix._over(rows, (1 << i for i in range(n)), n)


def _scaled_pascal(spec: MatrixSpec) -> ExactMatrix:
    n = spec.n
    _need_size(n)
    # row i is 2^i times column i of the Pascal rows (0-indexed)
    pascal = [binomial_column(j, n) for j in range(n)]
    rows = tuple(tuple([c << i for c in col]) for i, col in enumerate(zip(*pascal)))
    return ExactMatrix._of(rows, n, int)


def _bidiagonal(spec: MatrixSpec) -> ExactMatrix:
    _need_size(spec.n)
    return ExactMatrix.unit_lower(spec.n, 1, 1)


def _pascal(spec: MatrixSpec) -> ExactMatrix:
    n = spec.n
    _need_size(n)
    return ExactMatrix._of(tuple(tuple(binomial_column(i, n)) for i in range(n)), n, int)


def _binom_odd(spec: MatrixSpec) -> ExactMatrix:
    _need_size(spec.n)
    return _binomial_nodes_matrix(range(1, 2 * spec.n + 2, 2), 1)


def _binom_even(spec: MatrixSpec) -> ExactMatrix:
    _need_size(spec.n)
    return _binomial_nodes_matrix(range(2, 2 * spec.n + 3, 2), 1)


def _binom_affine(spec: MatrixSpec) -> ExactMatrix:
    n = spec.n
    _need_size(n)
    if spec.a is None or spec.b is None:
        raise ValueError("binom-affine needs a and b")
    a, b = _rational(spec.a), _rational(spec.b)
    if a.denominator == 1 == b.denominator:
        # int nodes a j + b (an int-valued Fraction read as its int), with no
        # common denominator to find
        (a, b), common = (a.numerator, b.numerator), 1
    else:
        (a, b), common = common_denominator((a, b))
    return _binomial_nodes_matrix([a * j + b for j in range(1, n + 1)], common)


def _binom_nodes(spec: MatrixSpec) -> ExactMatrix:
    if not spec.nodes:
        raise ValueError("binom-nodes needs a nonempty node tuple")
    return _binomial_nodes_matrix(*common_denominator(spec.nodes))


# per kind, the MatrixSpec fields besides ``kind`` that it reads and its
# builder; a field is given when it is not None, and n when it is not 0
_BUILDERS = {
    MatrixKind.ROW_SHIFT: (("n", "k"), _row_shift),
    MatrixKind.DOUBLE_SHIFT: (("n", "k"), _double_shift),
    MatrixKind.LOWER_HALVING: (("n",), _lower_halving),
    MatrixKind.SCALED_PASCAL: (("n",), _scaled_pascal),
    MatrixKind.BIDIAGONAL: (("n",), _bidiagonal),
    MatrixKind.PASCAL: (("n",), _pascal),
    MatrixKind.BINOM_ODD: (("n",), _binom_odd),
    MatrixKind.BINOM_EVEN: (("n",), _binom_even),
    MatrixKind.BINOM_AFFINE: (("n", "a", "b"), _binom_affine),
    MatrixKind.BINOM_NODES: (("nodes",), _binom_nodes),
}

# per kind, the fields it does not read, in MatrixSpec's order, and its builder
_UNREAD = {kind: (tuple(name for name in MatrixSpec.__slots__[1:] if name not in reads), builder)
           for kind, (reads, builder) in _BUILDERS.items()}


def build(spec: MatrixSpec) -> ExactMatrix:
    kind = spec.kind
    entry = _UNREAD.get(kind)
    if entry is None:
        raise ValueError(f"unknown matrix kind {kind!r}")
    unread, builder = entry
    given = [name for name in unread if (spec.n if name == "n" else getattr(spec, name) is not None)]
    if given:
        raise ValueError(f"{kind.value} does not take {', '.join(given)}")
    return builder(spec)


def _binomial_nodes_matrix(nums: list[int], common: int) -> ExactMatrix:
    """The square matrix C(x_j, i-1) over the nodes x_j = nums[j] / common,
    built a row at a time from the row above.  Integral nodes (common 1)
    give the int rows of ``binomial_rows``.  Otherwise row i (0-indexed)
    holds the running products prod_{t<i} (nums[j] - t common) over
    common^i i!, which ``ExactMatrix._over`` reduces."""
    size = len(nums)
    if common == 1:
        return ExactMatrix._of(binomial_rows(nums, size), size, int)
    row = (1,) * size
    rows = [row]
    dens = [1]
    for i in range(1, size):
        row = list(map(mul, row, map(sub, nums, repeat((i - 1) * common))))
        rows.append(row)
        dens.append(dens[-1] * common * i)
    return ExactMatrix._over(rows, dens, size)


def _need_size(n: int) -> None:
    if n < 1:
        raise ValueError("matrix size parameter must be >= 1")


CLOSED_FORM_KINDS = frozenset(
    {MatrixKind.BINOM_ODD, MatrixKind.BINOM_EVEN, MatrixKind.BINOM_AFFINE, MatrixKind.BINOM_NODES})


def det_closed_form(spec: MatrixSpec) -> Rat:
    """Exact closed form for the determinant of the binomial kinds.

    binom-odd and binom-even: 2^C(n+1, 2).
    binom-affine: a^C(n, 2), independent of b, raised on the int or
    Fraction a itself (an int-valued Fraction as its int, as ``binomial``
    takes it); TypeError, as from ``build``, for an a or b that is neither.
    binom-nodes: prod_{i<j} (x_j - x_i) / (1! 2! ... (size-1)!).
    """
    kind = spec.kind
    if kind in (MatrixKind.BINOM_ODD, MatrixKind.BINOM_EVEN):
        return 2 ** math.comb(spec.n + 1, 2)
    if kind is MatrixKind.BINOM_AFFINE:
        _rational(spec.b)
        a = _rational(spec.a)
        return (a.numerator if a.denominator == 1 else a) ** math.comb(spec.n, 2)
    if kind is MatrixKind.BINOM_NODES:
        # every node as an int over one common denominator: each difference
        # x_j - x_i is (ints[j] - ints[i]) / common
        size = len(spec.nodes)
        ints, common = common_denominator(spec.nodes)
        num = 1
        for i in range(size):
            for j in range(i + 1, size):
                num *= ints[j] - ints[i]
        den = common ** math.comb(size, 2)
        for k in range(1, size):
            den *= math.factorial(k)
        return Fraction(num, den)
    raise ValueError(f"no determinant closed form for kind {kind.value}")


def _spec_params(spec: MatrixSpec) -> dict:
    params: dict = {"kind": spec.kind._value_}  # ``value`` is an Enum property, read through a call
    if spec.kind is MatrixKind.BINOM_NODES:
        params["nodes"] = ",".join(str(x) for x in spec.nodes)
    else:
        params["n"] = spec.n
    if spec.k is not None:
        params["k"] = spec.k
    if spec.a is not None:
        params["a"] = str(spec.a)
    if spec.b is not None:
        params["b"] = str(spec.b)
    return params


def det_identity(spec: MatrixSpec) -> VerificationReport:
    """Compare the computed determinant of a binomial-kind matrix with its
    closed form, both exact; each is an int or a Fraction, and an int-valued
    Fraction renders as its int does."""
    started = time.perf_counter()
    computed = build(spec).determinant()
    return finish_report("det-closed-form", _spec_params(spec), det_closed_form(spec), computed, started)


def pascal_product(n: int) -> ExactMatrix:
    """The product of all n x n row-shift matrices, cutoff n-1 leftmost down
    to cutoff 1: ``ExactMatrix.shift_stack(n, 1)``, uncached, so a sweep over
    n keeps no stack alive.  Needs n >= 2."""
    if n < 2:
        raise ValueError("pascal product needs n >= 2")
    return ExactMatrix.shift_stack(n, 1)


def verify_pascal_product(n: int) -> VerificationReport:
    """The stacked row-shift product must equal the Pascal matrix C(i-1, j-1)."""
    started = time.perf_counter()
    product = pascal_product(n)
    closed = build(MatrixSpec(MatrixKind.PASCAL, n=n))
    computed = first_difference(product, closed)
    return finish_report("pascal-product", {"n": n}, "ok", computed, started)


def verify_row_shift(a: ExactMatrix, k: int) -> VerificationReport:
    """Left multiplication by the row-shift matrix must add each original row
    to the one below it from row k+1 down; right multiplication by its
    transpose must do the same for columns.  ``a`` holds ints or Fractions,
    as every matrix product does."""
    started = time.perf_counter()
    if a.rows != a.cols:
        raise ValueError("row-shift check needs a square matrix")
    n = a.rows
    rk = row_shift_matrix(n, k)
    left = rk @ a
    right = a @ rk.transpose()
    expected_left = ExactMatrix(
        [[(a[i, j] + a[i - 1, j]) if i >= k else a[i, j] for j in range(n)] for i in range(n)])
    expected_right = ExactMatrix(
        [[(a[i, j] + a[i, j - 1]) if j >= k else a[i, j] for j in range(n)] for i in range(n)])
    if left == expected_left and right == expected_right:
        computed = "ok"
    elif left != expected_left:
        computed = "row form differs: " + first_difference(left, expected_left)
    else:
        computed = "column form differs: " + first_difference(right, expected_right)
    return finish_report("row-shift-action", {"n": n, "k": k}, "ok", computed, started)


def verify_triangularization(n: int) -> VerificationReport:
    """Lower-halving (size n+1) times binom-odd (parameter n) must equal the
    scaled Pascal matrix, upper triangular with diagonal 2^0 .. 2^n."""
    started = time.perf_counter()
    t = build(MatrixSpec(MatrixKind.LOWER_HALVING, n=n + 1))
    odd = build(MatrixSpec(MatrixKind.BINOM_ODD, n=n))
    target = build(MatrixSpec(MatrixKind.SCALED_PASCAL, n=n + 1))
    product = t @ odd
    computed = first_difference(product, target)
    return finish_report("binom-triangularization", {"n": n}, "ok", computed, started)


def verify_even_from_odd(n: int) -> VerificationReport:
    """Bidiagonal (size n+1) times binom-odd must equal binom-even: the Pascal
    rule C(2j-1, i-2) + C(2j-1, i-1) = C(2j, i-1) in matrix form, taken as
    the row operation ``shift_rows(1, 1)`` with no bidiagonal matrix built."""
    started = time.perf_counter()
    odd = build(MatrixSpec(MatrixKind.BINOM_ODD, n=n))
    even = build(MatrixSpec(MatrixKind.BINOM_EVEN, n=n))
    product = odd.shift_rows(1, 1)
    computed = first_difference(product, even)
    return finish_report("binom-even-from-odd", {"n": n}, "ok", computed, started)

