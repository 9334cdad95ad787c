"""Immutable matrices over the exact rings used here (int, Fraction,
TrigPoly), each a tuple of row tuples read a row at a time.  Each holds its
ring, the widest entry type, from the moment it is built: the constructors
that know it set it, and the public constructor learns it from one scan of
the entries, refusing an entry of any other type.  Operations: a product
over Z and Q that sums the right factor's rows, one per nonzero left entry;
``shift_rows``, an int matrix's product by a unit lower shift matrix as row
additions, and ``shift_stack``, the paper's stack of such shifts on the
identity; ``difference_determinant``, that stack run backwards as signed
column differences, which makes every affine binomial matrix (step 1) and
the coordinate checkerboard (step 2) triangular and checks that it did; one
fraction-free (Bareiss) elimination for the rank over Z and Q and for every
determinant that neither step reduces; a
division-free determinant memoized over column subsets for TrigPoly
entries (``_subset_minor``), whose minors are either packed ints, for a
dense matrix of int linear forms A(x) c + B(x) s of order 4 to 8 (one int
per coefficient of c^(k-e) s^e, by Kronecker substitution x = 2^W), or else
TrigPoly values, each one TrigPoly.sum_of_products; and the interleave split
of a checkerboard matrix.

A matrix over Q holds no Fraction.  It is stored as integer numerator rows,
each over one positive row denominator and in lowest terms, so equal
matrices are stored alike; ``ExactMatrix._over`` is the one constructor that
reduces such rows, and a matrix whose denominators all reduce to 1 is an int
matrix.  The operations and ``==`` work on those ints.  Fractions are built
only where entries are read (``row``, ``m[i, j]``, ``pretty``,
``to_json_dict``, the message of ``first_difference``) and once per rational
determinant; an entry reads as an int when its value is one, zeros
included.  ``ExactMatrix(rows)`` given Fraction entries stores them so."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import add, floordiv, mul, ne, sub

from .combinatorics import common_denominator
from .trigring import TrigPoly

Entry = object  # int | Fraction | TrigPoly


class ExactMatrix:
    """Immutable matrix: ``_r`` its row tuples, shared between matrices,
    ``_ring`` its ring (int, Fraction or TrigPoly), ``_den`` None or, over
    Q, the row denominators of the integer rows in ``_r``.  None of them
    changes after construction."""

    __slots__ = ("_r", "_cols", "_ring", "_den")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        data = tuple(map(tuple, rows))
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows have unequal lengths")
        ring = _scan_ring(data)
        den = None
        if ring is Fraction:
            m = ExactMatrix._over(*zip(*map(common_denominator, data)), width)
            data, den, ring = m._r, m._den, m._ring
        self._r = data
        self._cols = width
        self._ring = ring
        self._den = den

    @classmethod
    def _of(cls, rows: tuple[tuple[Entry, ...], ...], cols: int, ring: type) -> "ExactMatrix":
        """Wrap finished row tuples, each of length cols, whose widest entry
        type is ring, without copying or checking them."""
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
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.unit_lower(n, 1, n)

    @classmethod
    def unit_lower(cls, n: int, offset: int, start: int) -> "ExactMatrix":
        """The n x n matrix with ones on the diagonal and at (i, i - offset)
        for every row i >= start (0-indexed), zeros elsewhere; ValueError
        unless 1 <= offset <= start <= n."""
        _check_shift(n, offset, start)
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            if i >= start:
                row[i - offset] = 1
            rows.append(tuple(row))
        return cls._of(tuple(rows), n, int)

    @classmethod
    def shift_stack(cls, n: int, step: int) -> "ExactMatrix":
        """The product of unit_lower(n, step, start) over start = step, 2 step,
        ... below n, the last leftmost, as ``shift_rows`` on the identity.  Row
        i holds the coefficients of z^(i mod step) (1 + z^step)^(i//step)."""
        if step < 1:
            raise ValueError(f"shift step must be >= 1, got {step}")
        stack = cls.identity(n)
        for start in range(step, n, step):
            stack = stack.shift_rows(step, start)
        return stack

    def shift_rows(self, offset: int, start: int) -> "ExactMatrix":
        """``unit_lower(self.rows, offset, start) @ self`` for an int matrix
        (TypeError otherwise), as row additions in one C-level map: rows
        before start are shared, and row i >= start gains row i - offset."""
        _check_shift(len(self._r), offset, start)
        if self._ring is not int:
            raise TypeError("row shifts need an int matrix")
        rows = self._r
        added = map(tuple, map(map, repeat(add), rows[start:], rows[start - offset:-offset]))
        return ExactMatrix._of(rows[:start] + tuple(added), self._cols, int)

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
        denominator.  A TrigPoly operand raises TypeError, as in ``rank``."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self._cols} @ {other.rows}x{other._cols}")
        if TrigPoly in (self._ring, other._ring):
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

    def difference_determinant(self, step: int = 1) -> Entry | None:
        """The determinant by signed column differences, or None where they
        do not make the matrix triangular.  Rows and columns are 0-indexed.

        Round k = 1, 2, ... subtracts column j - step from column j for every
        j >= step k, all at once: a unit upper triangular column transform,
        which keeps the determinant.  Row i of an affine binomial matrix,
        C(a (j+1) + b, i), is a polynomial of degree i in j with leading
        coefficient a^i / i!, so step 1 leaves a^i on its diagonal and zeros
        right of it (binom-odd, binom-even, binom-affine: any int or
        rational a != 0 and b).  On the parity-gated pattern of the
        coordinate route, C(j+1, i//2) where i+j is even, step 2 (the double
        shift) does the same with the diagonal 2^(i//2).

        Triangularity is checked, never assumed.  Rounds after i//step + 1
        touch only columns right of row i's diagonal and keep zeros there at
        zero, so each row is taken alone, and the first with a nonzero entry
        right of its diagonal gives None.  Round k reads no column left of
        step (k-1), so after it only the row's entries from column step k on
        are kept, as a new list (one C-level map per round).  After round
        i//step the diagonal is final and sits at place i % step; the last
        round, i//step + 1, must leave zeros, that is the kept entries must
        repeat with period step, which is tested by comparison, not
        subtraction.  Otherwise the determinant is the diagonal product,
        exact: over Q it is Fraction(product, product of the row
        denominators), as ``_bareiss`` gives it.  O(n^3 / step) subtractions
        and no division; a TrigPoly or non-square matrix gives None, and a
        step below 1 raises ValueError.
        """
        if step < 1:
            raise ValueError(f"difference step must be >= 1, got {step}")
        if len(self._r) != self._cols or self._ring is TrigPoly:
            return None
        return self._difference_determinant(step)

    def _difference_determinant(self, step: int) -> Entry | None:
        """``difference_determinant(step)`` for a square int or rational
        matrix and a step >= 1, which the caller has checked."""
        det = 1
        for i, row in enumerate(self._r):
            for _ in range(i // step):
                row = list(map(sub, islice(row, step, None), row))
            d = i % step
            if any(islice(row, d + 1, step)) or any(map(ne, islice(row, step, None), row)):
                return None
            det *= row[d]
        if self._den is None:
            return det
        return Fraction(det, math.prod(self._den))

    def determinant(self) -> Entry:
        """Exact determinant of a square matrix.

        Integer and rational matrices try ``difference_determinant`` with
        step 1, which reduces every affine binomial matrix in O(n^3)
        subtractions (order 100 in 20 to 35 ms, against 1.4 to 3.6 s of
        elimination), then step 2, which reduces the coordinate checkerboard,
        then the Bareiss elimination that ``rank`` uses: O(n^3)
        multiplications and exact divisions on the integer rows.  A step
        that does not reduce costs a row or two of subtractions: a random
        matrix fails both at its first row.

        A matrix with a TrigPoly entry takes the division-free expansion
        along the last row of each leading-rows submatrix, memoized over
        column subsets (``_subset_minor``): O(n 2^n) ring operations instead
        of n!, with zero entries and zero minors pruned.  Its minors have
        one of two encodings:

        - packed (``_packed_determinant``) where the order is in
          PACKED_ORDERS, no entry is zero (looked for from the last entry
          back, so a threshold ladder is refused at one look), and one walk
          over the terms (``_linear_form_shape``) finds every entry a linear
          form A(x) c + B(x) s with int coefficients, of x-degree at most the
          order, and a slot width of at most PACKED_MAX_WIDTH bits: a k-row
          minor is a form of degree k in (c, s), kept as its k + 1
          coefficients in Z[x], each one int by Kronecker substitution, so
          every polynomial product is one int multiplication;
        - TrigPoly everywhere else: each minor of two or more rows is one
          TrigPoly.sum_of_products over its signed (entry, sub-minor) pairs,
          one dict update per pair of nonzero terms.  This is the route the
          tests take as the reference.

        A packed product costs about W^2 per pair of coefficient slots, W
        the one slot width that the largest coefficients set, zero
        coefficients included, and the walk and the packing cost a fixed
        25-35 us at order 4 and 100-145 us at order 8.  Cross-over, as
        TrigPoly time over packed time (best of several runs in one process;
        even grid: D^(2+2(i+j)) x^n cos x, dense ladder: ladder_wronskian at
        shift 0 with no zero entry; shared 2-core x86, Python 3.11; measured
        when choosing the route took three passes over the terms, about
        30 us more at order 4, so the packed side is now a little faster
        than listed):

        ============================================  ================
        matrix                                        packed speed-up
        ============================================  ================
        even grid, order 2                            0.3-0.5
        even grid, order 3, n = 1, 2 / n = 4, 8       0.8-1.0 / 1.5-1.7
        even grid, orders 4-8, n <= order             1.1-5.0
        dense ladder, orders 4-8, n <= order          1.1-3.4
        even grid, orders 4-7, n = order + 1..4       1.6-4.4
        dense ladder, orders 4-5, n = order + 1..3    1.2-2.0
        dense ladder, orders 6-8, n = order + 1..3    0.33-1.7
        even grid, order 9, n <= 6 / n = 8            1.3-2.4 / 0.9
        dense ladder, order 9, n = 8 / n = 9          1.3 / 0.48
        orders 4-8, W = 328-1127 (shifts 10^3-10^9)   0.18-1.1
        ladder with zero entries, orders 8-42         0.04-0.35
        ============================================  ================

        So the packed minors take orders 4-8 (order 3 loses at small n,
        order 9 at n = 8 and 9), entries of x-degree at most the order
        (longer ladder entries lose from order 6 on, even where grids would
        still win) and widths up to 320 bits (the large-shift losses start
        at 328); a zero entry leaves them to the TrigPoly route's pruning.
        """
        if len(self._r) != self._cols:
            raise ValueError("determinant needs a square matrix")
        if self._ring is not TrigPoly:
            det = self._difference_determinant(1)
            if det is None:
                det = self._difference_determinant(2)
            return self._bareiss()[1] if det is None else det
        rows = self._r
        order = len(rows)
        if order in PACKED_ORDERS and all(map(all, map(reversed, reversed(rows)))):
            shape = _linear_form_shape(rows)
            if shape is not None and shape[1] <= order and shape[0] <= PACKED_MAX_WIDTH:
                return _packed_determinant(rows, shape[0])
        return _subset_minor(rows, TrigPoly.sum_of_products)

    def rank(self) -> int:
        """Rank by the Bareiss elimination.  Entries must embed in the
        rationals; TrigPoly matrices have no rank here."""
        if self._ring is TrigPoly:
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

# The packed minors' domain (ExactMatrix.determinant has the measured
# cross-over): the orders, and the widest slot in bits.
PACKED_ORDERS = range(4, 9)
PACKED_MAX_WIDTH = 320


def _subset_minor(rows, combine):
    """The determinant of the square rows by expansion along the last row of
    each leading-rows submatrix, memoized over column masks.  A 1-row minor
    is the entry itself; a k-row minor is combine(terms), where terms lists
    (sign, entry, (k-1)-row minor) for every nonzero entry of row k-1 in the
    mask whose minor without that column is nonzero.  combine returns a
    falsy value exactly when the minor is zero."""
    memo = {}

    def minor(mask: int):
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
        memo[mask] = got = combine(terms)
        return got

    return minor((1 << len(rows)) - 1)


def _linear_form_shape(rows) -> tuple[int, int] | None:
    """(W, D) for rows whose every entry is a nonzero linear form
    A(x) c + B(x) s with int coefficients, from one walk over their terms:
    W the packed slot width (``_packed_determinant``), D the largest x-degree.
    None at the first entry that is no such form."""
    bound = 1
    degree = 0
    for row in rows:
        norm = 0
        for e in row:
            if type(e) is not TrigPoly or not e:
                return None
            for terms, c in ((e._p, 1), (e._q, 0)):  # A c: p keys (d, 1); B s: q keys (d, 0)
                for (d, k), v in terms.items():
                    if k != c or type(v) is not int:
                        return None
                    norm += abs(v)
                    if d > degree:
                        degree = d
        bound *= norm
    return bound.bit_length() + 1, degree


def _packed_determinant(rows, width: int) -> TrigPoly:
    """The determinant of square rows of linear forms A(x) c + B(x) s with
    int coefficients, by ``_subset_minor`` on packed minors.

    Packing: with a slot width of W bits, sum a_d x^d is the int
    sum a_d 2^(W d) (Kronecker substitution, a ring map from Z[x]), so one
    int product is one polynomial product.  An entry is the pair (A, B); a
    k-row minor, sum over e of delta_e c^(k-e) s^e with s^2 left unreduced,
    is the list of its k + 1 packed delta_e.  An entry times a minor adds
    A delta_e to slot e and B delta_e to slot e + 1 (``_packed_sum``).

    Width: W = width, which ``_linear_form_shape`` gives as the bit length
    of the product over rows of the rows' coefficient 1-norms, plus one.
    That norm is submultiplicative, and a minor of the leading k rows on any
    columns is a signed sum of products of one entry per row, so every
    coefficient of every such minor, taken unreduced, is at most the
    product of its rows' sums, hence below 2^(W-1).  The balanced base-2^W
    digits of each packed slot are then exactly its coefficients, and a
    slot is 0 only if its polynomial is: zero minors are pruned as on the
    TrigPoly route.  The result is decoded once (``_unpack_form``)."""
    packed = [[(_pack(e._p, width), _pack(e._q, width)) for e in row] for row in rows]
    return _unpack_form(_subset_minor(packed, _packed_sum), width)


def _pack(terms, width: int) -> int:
    """The int sum of v 2^(width d) over the terms (d, _) -> v."""
    return sum([v << width * d for (d, _), v in terms.items()])


def _packed_sum(terms) -> list[int] | tuple[()]:
    """The packed minor sum of sign (A c + B s) delta over the (sign, (A, B),
    delta) terms, each delta one packed minor of k slots: k + 1 slots, or ()
    when every slot is zero."""
    if not terms:
        return ()
    acc = [0] * (len(terms[0][2]) + 1)
    for sign, (a, b), sub in terms:
        if sign < 0:
            a, b = -a, -b
        e = 0
        for d in sub:
            acc[e] += a * d
            e += 1
            acc[e] += b * d
    return acc if any(acc) else ()


def _unpack_form(slots, width: int) -> TrigPoly:
    """The TrigPoly of sum delta_e c^(m-e) s^e over the m + 1 packed slots
    (none: zero), s^(2h) reduced to (1 - c^2)^h."""
    m = len(slots) - 1
    half, low = 1 << width - 1, (1 << width) - 1
    p: dict = {}
    q: dict = {}
    for e, v in enumerate(slots):
        coeffs = []  # (x degree, coefficient): the balanced base-2^width digits of v
        d = 0
        while v:
            r = v & low
            if r >= half:
                r -= low + 1
            if r:
                coeffs.append((d, r))
            v = (v - r) >> width
            d += 1
        h, odd = divmod(e, 2)
        out = q if odd else p
        for j in range(h + 1):
            k = -math.comb(h, j) if j % 2 else math.comb(h, j)
            cd = m - e + 2 * j
            for d, r in coeffs:
                out[d, cd] = out.get((d, cd), 0) + k * r
    return TrigPoly(p, q)


def _scan_ring(rows: tuple[tuple[Entry, ...], ...]) -> type:
    """The widest type among the entries of rows, from one C-level pass over
    them; TypeError for an entry outside int, Fraction and TrigPoly (a bool
    or a float, say), which no exact operation here can take."""
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _RINGS:
        bad = ", ".join(sorted(t.__name__ for t in kinds - _RINGS))
        raise TypeError(f"matrix entries must be int, Fraction or TrigPoly, not {bad}")
    return TrigPoly if TrigPoly in kinds else Fraction if Fraction in kinds else int


def _check_shift(n: int, offset: int, start: int) -> None:
    """ValueError unless the shift stays inside n rows: 1 <= offset <= start <= n."""
    if not 1 <= offset <= start <= n:
        raise ValueError(f"row shift needs 1 <= offset <= start <= n, got n={n}, "
                         f"offset={offset}, start={start}")


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


def first_difference(got: ExactMatrix, want: ExactMatrix) -> str:
    """Human-readable location of the first disagreement, 'ok' if none."""
    if (got.rows, got.cols) != (want.rows, want.cols):
        return f"shape {got.rows}x{got.cols} != {want.rows}x{want.cols}"
    if got == want:
        return "ok"
    i, j = next((i, j) for i in range(got.rows) for j in range(got.cols) if got[i, j] != want[i, j])
    return f"entry ({i + 1},{j + 1}) is {got[i, j]}, want {want[i, j]}"
