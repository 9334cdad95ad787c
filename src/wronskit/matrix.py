"""Immutable matrices over the exact rings used here (int, Fraction,
TrigPoly), each a tuple of row tuples, read a row at a time, that caches its
ring, the widest type among its entries: the constructors that know it
(unit-lower matrices, integer products, transposes, conjugate_hankel and the
named families of structured.build) set it, and any other matrix learns it
from one scan of its entries when a product, determinant or rank first needs
it, refusing an entry of any other type.  The operations: a product over
Z and Q that builds each output row as a combination of the right factor's
rows, one per nonzero entry of the left row, so a sparse left factor costs
only its nonzero entries and an int product shares each row it passes
through unchanged, one fraction-free (Bareiss) elimination for the rank and
the determinant of integer and rational matrices, a division-free
determinant memoized over column subsets for TrigPoly entries, the even/odd
interleave split for checkerboard matrices, and the conjugation S H S^T of a
Hankel matrix H by a nonnegative integer matrix S.  Where TrigPoly entries
meet, each minor and each entry of a Hankel conjugation is one signed sum of
products, reduced by TrigPoly.sum_of_products; TrigPoly matrices are never
multiplied.

Rational arithmetic runs on Python ints: each row of a matrix that holds a
Fraction is scaled by the lcm of its denominators, the elimination and the
product work on those integer rows, and one Fraction is built per nonzero
result from the integer numerator over the product of the scales.  Every
zero entry of a product is the int 0."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, mul
from typing import Any, Callable, Iterable, Sequence

from .trigring import TrigPoly

Entry = Any  # int | Fraction | TrigPoly


class ExactMatrix:
    """Immutable matrix held as a tuple of row tuples; rows are immutable
    tuples, shared between matrices, never copied.  ``_ring`` caches the
    widest entry type (int, then Fraction, then TrigPoly): the constructors
    that know it set it, and otherwise the first product, determinant or
    rank fills it with one scan of the entries."""

    __slots__ = ("_r", "_cols", "_ring")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        data = tuple(map(tuple, rows))
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows have unequal lengths")
        self._r = data
        self._cols = width
        self._ring = None

    @classmethod
    def _of(cls, rows: tuple[tuple[Entry, ...], ...], cols: int, ring: type) -> "ExactMatrix":
        """Wrap finished row tuples, each of length cols, whose widest entry
        type is ring, without copying or checking them."""
        m = cls.__new__(cls)
        m._r = rows
        m._cols = cols
        m._ring = ring
        return m

    @classmethod
    def from_fn(cls, rows: int, cols: int, fn: Callable[[int, int], Entry]) -> "ExactMatrix":
        """Build from a 1-indexed entry function fn(i, j)."""
        return cls([[fn(i, j) for j in range(1, cols + 1)] for i in range(1, rows + 1)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.unit_lower(n, 1, n)

    @classmethod
    def unit_lower(cls, n: int, offset: int, start: int) -> "ExactMatrix":
        """The n x n matrix with ones on the diagonal and at (i, i - offset)
        for every row i >= start (0-indexed, offset >= 1), zeros elsewhere."""
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            if i >= start:
                row[i - offset] = 1
            rows.append(tuple(row))
        return cls._of(tuple(rows), n, int)

    @property
    def rows(self) -> int:
        return len(self._r)

    @property
    def cols(self) -> int:
        return self._cols

    def __getitem__(self, ij: tuple[int, int]) -> Entry:
        """0-indexed access: m[i, j]."""
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self._cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self._cols}")
        return self._r[i][j]

    def row(self, i: int) -> tuple[Entry, ...]:
        return self._r[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._r == other._r

    def __hash__(self):
        return hash(self._r)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product, a row at a time: output row i is the sum of
        e * (row k of the right factor) over the nonzero entries e at (i, k)
        of the left factor, each step one C-level map over a whole row, and a
        unit entry adds its row unscaled.  A sparse left factor (a row shift
        is a unit diagonal and one subdiagonal) therefore costs one row
        operation per nonzero entry; a row that one unit entry passes through
        is the right factor's own row tuple.  Every zero entry of the product
        is the int 0.  When a factor holds a Fraction, the rows are combined
        as ints (left rows scaled by their own lcms, the right factor by one)
        and each nonzero entry becomes one Fraction.  Entries must embed in the
        rationals: a TrigPoly operand raises TypeError, as in ``rank``;
        ``conjugate_hankel`` covers the ring's one product."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self._cols} @ {other.rows}x{other._cols}")
        rings = {self._entry_ring(), other._entry_ring()}
        if TrigPoly in rings:
            raise TypeError("matrix products need integer or rational entries")
        cols = other._cols
        if Fraction not in rings:
            return ExactMatrix._of(
                tuple(map(tuple, _row_combinations(self._r, other._r, cols))), cols, int)
        # left row i is scaled to ints by scales[i], the whole right factor by one lcm
        left, scales = self._integer_rows(True)
        common = math.lcm(*[v.denominator for v in chain.from_iterable(other._r)])
        right = [[v.numerator * (common // v.denominator) for v in row] for row in other._r]
        out = []
        for acc, scale in zip(_row_combinations(left, right, cols), scales):
            den = common * scale
            out.append([Fraction(v, den) if v else 0 for v in acc])
        return ExactMatrix(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(tuple(zip(*self._r)), len(self._r), self._ring)

    def _entry_ring(self) -> type:
        """The widest entry type, int, Fraction or TrigPoly: the cached
        ``_ring``, filled by ``_scan_ring`` on first use."""
        ring = self._ring
        if ring is None:
            self._ring = ring = _scan_ring(self._r)
        return ring

    def _integer_rows(self, rational: bool) -> tuple[list[list[int]], list[int] | None]:
        """The rows as lists of ints, each scaled by the lcm of its entries'
        denominators, and those per-row scales.  ``rational`` says whether
        an entry may be a Fraction (the matrix's ring); if not, the rows
        come back as lists of their entries, with no scales."""
        if not rational:
            return list(map(list, self._r)), None
        scales = [math.lcm(*[v.denominator for v in row]) for row in self._r]
        return [[v.numerator * (d // v.denominator) for v in row]
                for row, d in zip(self._r, scales)], scales

    def _bareiss(self, rational: bool) -> tuple[int, Entry]:
        """Fraction-free (Bareiss) elimination on the integer rows of
        ``_integer_rows``: (rank, determinant).  Every division is an exact
        integer ``//``, row swaps and pivot-less columns included: by
        Sylvester's identity each eliminated entry is a minor of the scaled
        matrix.  Scaling rows by nonzero ints keeps the rank and multiplies
        the determinant by the product of the scales, so the determinant is
        Fraction(sign * last pivot, product of the scales) for a matrix that
        holds a Fraction and sign * last pivot, an int, otherwise.  It is 0
        unless the matrix is square and every column has a pivot.

        Pivot choice: first nonzero entry in row order; each row swap flips
        the determinant's sign.
        """
        m, scales = self._integer_rows(rational)
        rows, cols = len(m), self._cols
        prev = 1
        sign = 1
        r = 0
        for col in range(cols):
            piv = next((i for i in range(r, rows) if m[i][col]), None)
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                sign = -sign
            top = m[r]
            pivot = top[col]
            rest = top[col + 1:]
            for i in range(r + 1, rows):
                row = m[i]
                lead = row[col]
                row[col + 1:] = [(pivot * a - lead * b) // prev for a, b in zip(row[col + 1:], rest)]
            prev = pivot
            r += 1
            if r == rows:
                break
        if r != rows or r != cols:
            return r, 0
        if scales is None:
            return r, sign * prev
        return r, Fraction(sign * prev, math.prod(scales))

    def determinant(self) -> Entry:
        """Exact determinant of a square matrix.

        Integer and rational matrices go through the Bareiss elimination that
        ``rank`` uses: O(n^3) operations on ints, each row of a rational
        matrix first scaled to ints by the lcm of its denominators, and one
        Fraction built at the end; an int for an int matrix.  A
        matrix with a TrigPoly entry takes the division-free expansion along
        the last row of each leading-rows submatrix, memoized over column
        subsets: O(n 2^n) ring operations instead of n! and no divisions.
        Each minor of two or more rows is one TrigPoly.sum_of_products over
        its signed (entry, sub-minor) pairs, so it is a TrigPoly.
        """
        rows = self._r
        if len(rows) != self._cols:
            raise ValueError("determinant needs a square matrix")
        ring = self._entry_ring()
        if ring is not TrigPoly:
            return self._bareiss(ring is Fraction)[1]
        memo: dict[int, Entry] = {}

        def minor(mask: int) -> Entry:
            got = memo.get(mask)
            if got is not None:
                return got
            k = mask.bit_count()
            if k == 1:
                return rows[0][mask.bit_length() - 1]
            line = rows[k - 1]
            terms = []
            pos = k - 1
            m = mask
            while m:
                c = (m & -m).bit_length() - 1
                entry = line[c]
                if entry:
                    sub = minor(mask ^ (1 << c))
                    if sub:
                        terms.append((-1 if pos % 2 else 1, entry, sub))
                pos += 1
                m &= m - 1
            memo[mask] = got = TrigPoly.sum_of_products(terms)
            return got

        return minor((1 << len(rows)) - 1)

    def rank(self) -> int:
        """Rank by the Bareiss elimination.  Entries must embed in the
        rationals; TrigPoly matrices have no rank here."""
        ring = self._entry_ring()
        if ring is TrigPoly:
            raise TypeError("rank needs integer or rational entries")
        return self._bareiss(ring is Fraction)[0]

    def interleave_split(self) -> tuple["ExactMatrix", "ExactMatrix"]:
        """Split a checkerboard matrix of even order 2m into its odd/odd and
        even/even m x m sub-blocks (parities of the 1-indexed positions).

        Every entry whose row+column index sum is odd must be zero; the first
        violation is reported with its 1-indexed position.  For such matrices
        det(whole) = det(odd block) * det(even block).
        """
        rows = self._r
        if len(rows) != self._cols or len(rows) % 2:
            raise ValueError("interleave split needs a square matrix of even order")
        for i, row in enumerate(rows):
            first = (i + 1) % 2  # the first column whose index sum with i is odd
            bad = next(compress(count(first, 2), row[first::2]), None)
            if bad is not None:
                raise ValueError(
                    f"checkerboard violation: nonzero entry at row {i + 1}, column {bad + 1}")
        odd = ExactMatrix(row[0::2] for row in rows[0::2])
        even = ExactMatrix(row[1::2] for row in rows[1::2])
        return odd, even

    def pretty(self) -> str:
        """Aligned text rendering with exact entries."""
        cells = [list(map(str, row)) for row in self._r]
        widths = [max(map(len, col)) for col in zip(*cells)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self._cols,
            "entries": [str(v) for v in chain.from_iterable(self._r)],
        }

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self._cols})"


_RINGS = frozenset({int, Fraction, TrigPoly})


def _scan_ring(rows: tuple[tuple[Entry, ...], ...]) -> type:
    """The widest type among the entries of rows, from one C-level pass over
    them; TypeError for an entry outside int, Fraction and TrigPoly (a bool
    or a float, say), which no exact operation here can take."""
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _RINGS:
        bad = ", ".join(sorted(t.__name__ for t in kinds - _RINGS))
        raise TypeError(f"matrix entries must be int, Fraction or TrigPoly, not {bad}")
    return TrigPoly if TrigPoly in kinds else Fraction if Fraction in kinds else int


def _row_combinations(left: Iterable[Sequence[int]], right: Sequence[Sequence[int]],
                      cols: int) -> Iterable[Iterable[int]]:
    """Per left row, the sum of e * right[k] over its nonzero entries e at k,
    all ints; a left row with no nonzero entry gives a row of zeros."""
    zero = (0,) * cols
    for row in left:
        acc = None
        for e, terms in compress(zip(row, right), row):
            if e != 1:
                terms = map(mul, repeat(e), terms)
            acc = terms if acc is None else list(map(add, acc, terms))
        yield zero if acc is None else acc


def conjugate_hankel(stack: ExactMatrix, h: Sequence[Entry]) -> ExactMatrix:
    """S H S^T for a matrix S of nonnegative ints with k columns and the
    k x k Hankel matrix H of the 2k-1 values h, H[a, b] = h[a + b] (0-indexed).

    Entry (i, j) is sum_t (s_i * s_j)_t h[t], where s_i * s_j is the
    convolution of rows i and j of S.  Each row is packed into one int, entry
    a in the w-bit slot a (Kronecker substitution), so every convolution is
    one int product.  A convolution coefficient is at most the product of
    the two row sums, below 2^w for w = 2 * (bit length of the largest row
    sum), so no slot carries into the next.  Entries with the same packed
    product share one TrigPoly.sum_of_products over (coefficient, h[t]).
    """
    k = stack.cols
    if len(h) != 2 * k - 1:
        raise ValueError(f"a Hankel matrix of order {k} needs {2 * k - 1} values, got {len(h)}")
    rows = stack._r
    if stack._entry_ring() is not int or min(map(min, rows)) < 0:
        raise ValueError("Hankel conjugation needs a matrix of nonnegative ints")
    width = 2 * max(map(sum, rows)).bit_length()
    mask = (1 << width) - 1
    packed = [sum(v << (a * width) for a, v in enumerate(row)) for row in rows]
    memo: dict[int, Entry] = {}
    out = []
    for a in packed:
        line = []
        for b in packed:
            prod = a * b
            got = memo.get(prod)
            if got is None:
                coeffs = ((prod >> (t * width)) & mask for t in range(len(h)))
                memo[prod] = got = TrigPoly.sum_of_products((c, v, 1) for c, v in zip(coeffs, h) if c)
            line.append(got)
        out.append(tuple(line))
    return ExactMatrix._of(tuple(out), len(out), TrigPoly)


def first_difference(got: ExactMatrix, want: ExactMatrix) -> str:
    """Human-readable location of the first disagreement, 'ok' if none."""
    if (got.rows, got.cols) != (want.rows, want.cols):
        return f"shape {got.rows}x{got.cols} != {want.rows}x{want.cols}"
    if got == want:
        return "ok"
    for i in range(got.rows):
        for j in range(got.cols):
            if got[i, j] != want[i, j]:
                return f"entry ({i + 1},{j + 1}) is {got[i, j]}, want {want[i, j]}"
    return "ok"
