"""Immutable matrices over the exact rings used here (int, Fraction,
TrigPoly), each a tuple of row tuples read a row at a time.  Each caches its
ring, the widest entry type: the constructors that know it set it, and any
other matrix learns it from one scan of its entries when a product,
determinant or rank first needs it, refusing an entry of any other type.
Operations: a product over Z and Q that sums the right factor's rows, one
per nonzero left entry; one fraction-free (Bareiss) elimination for the rank
and determinant over Z and Q; a division-free determinant memoized over
column subsets for TrigPoly entries, each minor one
TrigPoly.sum_of_products; the interleave split of a checkerboard matrix; and
the conjugation S H S^T of a Hankel matrix H by a nonnegative int matrix S.

A matrix over Q holds no Fraction.  It is stored as integer numerator rows,
each over one positive row denominator and in lowest terms, so equal
matrices are stored alike; ``ExactMatrix._over`` is the one constructor that
reduces such rows, and a matrix whose denominators all reduce to 1 is an int
matrix.  The operations and ``==`` work on those ints.  Fractions are built
only where entries are read (``row``, ``m[i, j]``, ``pretty``,
``to_json_dict``, the message of ``first_difference``) and once per rational
determinant; an entry reads as an int when its value is one, zeros
included.  A matrix built from Fraction entries takes this form at the scan
that learns its ring."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, floordiv, mul

from .combinatorics import common_denominator
from .trigring import TrigPoly

Entry = object  # int | Fraction | TrigPoly


class ExactMatrix:
    """Immutable matrix: ``_r`` its row tuples, shared between matrices,
    ``_ring`` the cached ring (None until known), ``_den`` None or, over Q,
    the row denominators of the integer rows in ``_r``."""

    __slots__ = ("_r", "_cols", "_ring", "_den")

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
        self._den = None

    @classmethod
    def _of(cls, rows: tuple[tuple[Entry, ...], ...], cols: int, ring: type | None) -> "ExactMatrix":
        """Wrap finished row tuples, each of length cols, whose widest entry
        type is ring (None: not known yet), without copying or checking them."""
        m = cls.__new__(cls)
        m._r = rows
        m._cols = cols
        m._ring = ring
        m._den = None
        return m

    @classmethod
    def _over(cls, rows: Iterable[Iterable[int]], dens: Iterable[int], cols: int) -> "ExactMatrix":
        """The matrix over Q whose row i is the ints rows[i], each of the
        cols entries over the positive int dens[i]: each row is reduced to
        lowest terms with one gcd, and a matrix whose denominators all reduce
        to 1 is an int matrix."""
        out = []
        reduced = []
        for row, d in zip(rows, dens):
            row = tuple(row)
            if d != 1:
                g = math.gcd(d, *row)
                if g != 1:
                    row = tuple(map(floordiv, row, repeat(g)))
                    d //= g
            out.append(row)
            reduced.append(d)
        m = cls._of(tuple(out), cols, int)
        if reduced.count(1) != len(reduced):
            m._den = tuple(reduced)
            m._ring = Fraction
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
        v = self._r[i][j]
        return v if self._den is None else _ratio(v, self._den[i])

    def row(self, i: int) -> tuple[Entry, ...]:
        den = self._den
        if den is None or den[i] == 1:
            return self._r[i]
        d = den[i]
        return tuple([_ratio(v, d) for v in self._r[i]])

    def _entries(self) -> tuple[tuple[Entry, ...], ...]:
        """Every row as it reads (``row``)."""
        if self._den is None:
            return self._r
        return tuple(map(self.row, range(len(self._r))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self._den is None) is (other._den is None):
            return self._den == other._den and self._r == other._r
        return self._entries() == other._entries()

    def __hash__(self):
        return hash(self._entries())

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product, a row at a time: output row i is the sum of
        e * (row k of the right factor) over the nonzero entries e at (i, k),
        each one C-level map over a row (a unit entry adds its row unscaled,
        and a row one unit entry passes through is shared).  Over Q the
        right factor's numerators are brought over the lcm of its row
        denominators, and output row i is over that lcm times left row i's
        denominator.  A TrigPoly operand raises TypeError, as in ``rank``;
        ``conjugate_hankel`` covers the ring's one product."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self._cols} @ {other.rows}x{other._cols}")
        if TrigPoly in (self._entry_ring(), other._entry_ring()):
            raise TypeError("matrix products need integer or rational entries")
        cols = other._cols
        right, common = _over_common(other)
        out = _row_combinations(self._r, right, cols)
        if self._den is None and other._den is None:
            return ExactMatrix._of(tuple(map(tuple, out)), cols, int)
        dens = repeat(common) if self._den is None else [d * common for d in self._den]
        return ExactMatrix._over(out, dens, cols)

    def transpose(self) -> "ExactMatrix":
        rows = len(self._r)
        if self._den is None:
            return ExactMatrix._of(tuple(zip(*self._r)), rows, self._ring)
        scaled, common = _over_common(self)
        return ExactMatrix._over(zip(*scaled), repeat(common), rows)

    def _entry_ring(self) -> type:
        """The widest entry type, int, Fraction or TrigPoly: the cached
        ``_ring``, filled by ``_scan_ring`` on first use.  Rows that hold a
        Fraction are then stored as integer numerators over their row
        denominators (``_over``)."""
        ring = self._ring
        if ring is None:
            ring = _scan_ring(self._r)
            if ring is Fraction:
                m = ExactMatrix._over(*zip(*map(common_denominator, self._r)), self._cols)
                self._r, self._den, ring = m._r, m._den, m._ring
            self._ring = ring
        return ring

    def _bareiss(self) -> tuple[int, Entry]:
        """Fraction-free (Bareiss) elimination on the integer rows: (rank,
        determinant).  Every division is an exact integer ``//``, row swaps
        and pivot-less columns included: by Sylvester's identity each
        eliminated entry is a minor.  Over Q the rows are the numerators, so
        the determinant is Fraction(sign * last pivot, product of the row
        denominators); an int for an int matrix, and 0 unless the matrix is
        square with a pivot in every column.  Pivot: the first nonzero entry
        in row order; each row swap flips the sign.
        """
        m = list(map(list, self._r))
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
        if self._den is None:
            return r, sign * prev
        return r, Fraction(sign * prev, math.prod(self._den))

    def determinant(self) -> Entry:
        """Exact determinant of a square matrix.

        Integer and rational matrices go through the Bareiss elimination that
        ``rank`` uses: O(n^3) operations on the integer rows.  A matrix with
        a TrigPoly entry takes the division-free expansion along the last row
        of each leading-rows submatrix, memoized over column subsets: O(n 2^n)
        ring operations instead of n!, each minor of two or more rows one
        TrigPoly.sum_of_products over its signed (entry, sub-minor) pairs.
        """
        if len(self._r) != self._cols:
            raise ValueError("determinant needs a square matrix")
        if self._entry_ring() is not TrigPoly:
            return self._bareiss()[1]
        rows = self._r
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
        if self._entry_ring() is TrigPoly:
            raise TypeError("rank needs integer or rational entries")
        return self._bareiss()[0]

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
        den = self._den

        def block(start: int) -> ExactMatrix:
            sub = (row[start::2] for row in rows[start::2])
            if den is None:
                return ExactMatrix(sub)
            return ExactMatrix._over(sub, den[start::2], len(rows) // 2)

        return block(0), block(1)

    def _cells(self) -> list[list[str]]:
        """Every entry as its str, as ``row`` would read it, from the ints."""
        den = self._den or repeat(1)
        return [list(map(str, row)) if d == 1 else [_ratio_str(v, d) for v in row]
                for row, d in zip(self._r, den)]

    def pretty(self) -> str:
        """Aligned text rendering with exact entries."""
        cells = self._cells()
        widths = [max(map(len, col)) for col in zip(*cells)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
            for row in cells)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self._cols,
            "entries": list(chain.from_iterable(self._cells())),
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


def _ratio(v: int, d: int) -> int | Fraction:
    """The entry v / d as it reads: an int when d divides v, else a Fraction."""
    return Fraction(v, d) if v % d else v // d


def _ratio_str(v: int, d: int) -> str:
    """str(_ratio(v, d)), without building the Fraction."""
    g = math.gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


def _over_common(m: ExactMatrix) -> tuple[Sequence[Sequence[int]], int]:
    """The integer rows of m over one common denominator, the lcm of its
    row denominators, and that lcm; an int matrix's own rows over 1."""
    den = m._den
    if den is None:
        return m._r, 1
    common = math.lcm(*den)
    return [row if d == common else tuple(map(mul, row, repeat(common // d)))
            for row, d in zip(m._r, den)], common


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
    if stack._entry_ring() is not int or min(map(min, stack._r)) < 0:
        raise ValueError("Hankel conjugation needs a matrix of nonnegative ints")
    rows = stack._r
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
