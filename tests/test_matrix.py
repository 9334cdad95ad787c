import gc
import math
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import cycle, islice
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from wronskit import (
    ChainSpec,
    ExactMatrix,
    MatrixKind,
    MatrixSpec,
    Trig,
    TrigPoly,
    binomial_pattern_matrix,
    build,
    coordinate_matrix,
    first_difference,
    ladder_wronskian,
    pascal_product,
    scaled_coordinate_matrix,
)
from wronskit import matrix, trigring
from wronskit.cli import SuiteConfig, plan_checks
from wronskit.independence import _conjugated_entry, _shift_stack
from oracles import (
    basis_element,
    conjugate_by_definition,
    determinant_by_permutations,
    from_fn,
    product_by_definition,
    rank_by_elimination,
    random_checkerboard,
    random_int_matrix,
    random_rational_matrix,
    random_trigpoly,
    random_unit_triangular,
)

S = basis_element(0, Trig.SIN)
C = basis_element(0, Trig.COS)

def _square(n):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(ExactMatrix)


matched_square_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(_square(n), _square(n)))


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ExactMatrix([])
    with pytest.raises(ValueError):
        ExactMatrix([[]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_indexing_and_shape():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    with pytest.raises(IndexError):
        m[2, 0]


def test_rows_are_tuples_read_once_and_never_aliased():
    rows = [[1, 2], [3, 4]]
    m = ExactMatrix(rows)
    rows[0][0] = 99
    rows.append([5, 6])
    assert m == ExactMatrix([[1, 2], [3, 4]]) and m.rows == 2
    once = ExactMatrix((v for v in (1, 2)) for _ in range(2))
    assert once == ExactMatrix([[1, 2], [1, 2]])
    assert all(type(m.row(i)) is tuple for i in range(m.rows))
    assert ExactMatrix([[1, 2]]) != ExactMatrix([[1], [2]])


def test_from_fn_is_one_indexed():
    m = from_fn(2, 2, lambda i, j: 10 * i + j)
    assert m == ExactMatrix([[11, 12], [21, 22]])


def test_matmul_row_shift_example():
    r1 = ExactMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    col = ExactMatrix([[5], [7], [11]])
    assert r1 @ col == ExactMatrix([[5], [12], [18]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]])


def test_matmul_identity_and_transpose():
    rng = Random(1)
    m = random_int_matrix(rng, 3, 5)
    assert ExactMatrix.identity(3) @ m == m
    assert m @ ExactMatrix.identity(5) == m
    assert m.transpose().transpose() == m
    a = random_int_matrix(rng, 3, 4)
    b = random_int_matrix(rng, 4, 2)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


ENTRIES = {
    "int": lambda rng: rng.randint(-5, 5),
    "fraction": lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    "mixed": lambda rng: rng.randint(-5, 5) if rng.random() < 0.5 else Fraction(rng.randint(-5, 5), 3),
}


def _sparse(rng, rows, cols, density, kind):
    """Entries of the given kind at about ``density`` of the positions, else
    the int 0.  Below density 1, row 0 and the last column stay all zero."""
    entry = ENTRIES[kind]
    blank = density < 1
    return ExactMatrix([
        [0 if blank and (i == 0 or j == cols - 1) or rng.random() >= density else entry(rng)
         for j in range(cols)]
        for i in range(rows)])


def _unit_lower_sparse(rng, n, kind):
    """A unit diagonal and a few entries of the given kind below it, as in
    the row-shift factors of the Pascal stack."""
    entry = ENTRIES[kind]
    return ExactMatrix([
        [1 if i == j else entry(rng) if j < i and rng.random() < 0.3 else 0 for j in range(n)]
        for i in range(n)])


# products whose terms cancel: entry (0, 0) is 1/2 * 2/3 - 1/3 and 1/3 - 1/3
CANCELLING = (
    (ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, 0]]),
     ExactMatrix([[Fraction(2, 3), 1], [-1, 0]])),
    (ExactMatrix([[1, -1]]), ExactMatrix([[Fraction(1, 3)], [Fraction(1, 3)]])),
)


@pytest.mark.parametrize("left, right", [
    ("int", "int"), ("fraction", "fraction"), ("mixed", "mixed"), ("mixed", "int")])
def test_matmul_matches_product_by_definition(left, right):
    rng = Random(f"{left}@{right}")
    cases = []  # (left factor, right factor, its row 0 and last column are blank)
    for density in (0.2, 0.4, 0.6, 0.8, 1.0):
        for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 3), (3, 6, 2)):
            cases.append((_sparse(rng, rows, inner, density, left),
                           _sparse(rng, inner, cols, density, right), density < 1))
    for n in (1, 2, 5, 8):
        # a unit-lower sparse left factor times a dense right one
        cases.append((_unit_lower_sparse(rng, n, left), _sparse(rng, n, n, 1.0, right), False))
        # a dense factor times a sparse one
        cases.append((_sparse(rng, n, n, 1.0, left), _sparse(rng, n, 3, 0.2, right), False))
    cases += [(a, b, False) for a, b in CANCELLING]
    for a, b, blank in cases:
        got, want = a @ b, product_by_definition(a, b)
        assert (got.rows, got.cols) == (a.rows, b.cols)
        for i in range(got.rows):
            for j in range(got.cols):
                assert got[i, j] == want[i, j], (i, j)
                assert str(got[i, j]) == str(want[i, j]), (i, j)
                # every zero entry is the int 0, cancelled rational sums included
                assert got[i, j] != 0 or type(got[i, j]) is int, (i, j)
        if blank:  # entries that get no term are zeros too
            assert got.row(0) == (0,) * got.cols
            assert all(got[i, got.cols - 1] == 0 for i in range(got.rows))
    assert all((a @ b)[0, 0] == 0 for a, b in CANCELLING)


def test_matmul_rejects_trigpoly_operands():
    ring = ExactMatrix([[S, 0], [1, C]])
    ints = ExactMatrix([[1, 2], [3, 4]])
    for a, b in ((ring, ints), (ints, ring), (ring, ring), (ExactMatrix([[TrigPoly.zero()]]), ExactMatrix([[1]]))):
        with pytest.raises(TypeError):
            a @ b


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from((3, 2 ** 20, 2 ** 40)), st.randoms())
@settings(deadline=None, max_examples=60)
def test_conjugate_hankel_matches_product_by_definition(order, height, bound, rng):
    # S H S^T one entry at a time (_conjugated_entry) against two products by
    # definition: entries of either sign up to 2^40, about a third of them and
    # one row in four zero, and some Hankel values ints
    h = [random_trigpoly(rng, terms=3, bound=3) if rng.random() < 0.8 else rng.randint(-3, 3)
         for _ in range(2 * order - 1)]
    stack = ExactMatrix([
        [0 if zero_row or rng.random() < 0.3 else rng.choice((-1, 1)) * rng.randint(1, bound)
         for _ in range(order)]
        for zero_row in (rng.random() < 0.25 for _ in range(height))])
    want = conjugate_by_definition(stack, ExactMatrix([[h[a + b] for b in range(order)] for a in range(order)]))
    for i in range(height):
        for j in range(height):
            got = _conjugated_entry(stack.row(i), stack.row(j), h)
            assert isinstance(got, TrigPoly), (i, j)
            assert got == want[i, j] and str(got) == str(want[i, j]), (i, j)


def test_determinant_small_cases():
    assert ExactMatrix([[7]]).determinant() == 7
    assert ExactMatrix([[1, 2], [3, 4]]).determinant() == -2
    assert ExactMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).determinant() == 30


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).determinant()


def _elimination_variants(m: ExactMatrix) -> list[ExactMatrix]:
    """m, m with a zero leading entry (forces a row swap), m with its rows
    reversed, and a singular m whose last row is the sum of the first and
    the second-to-last."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    zero_lead = [[0] + rows[0][1:]] + rows[1:]
    singular = rows[:-1] + [[a + b for a, b in zip(rows[0], rows[-2])]] if m.rows > 1 else [[0]]
    return [m, ExactMatrix(zero_lead), ExactMatrix(rows[::-1]), ExactMatrix(singular)]


def test_determinant_matches_permutation_oracle():
    rng = Random(7)
    for order in (2, 3, 4, 5):
        for _ in range(5):
            m = random_int_matrix(rng, order, order)
            assert m.determinant() == determinant_by_permutations(m)
    # int, Fraction and mixed entries all go through the Bareiss elimination
    singular = 0
    for order in range(1, 7):
        for _ in range(3):
            for m in (random_int_matrix(rng, order, order),
                      random_rational_matrix(rng, order),
                      random_rational_matrix(rng, order, mixed=True)):
                integer = all(isinstance(v, int) for i in range(order) for v in m.row(i))
                for case in _elimination_variants(m):
                    det = case.determinant()
                    assert det == determinant_by_permutations(case), case.pretty()
                    assert not integer or type(det) is int
                    singular += det == 0
    assert singular >= 3 * 18


# Rows of one kind each: ints, integer-valued Fractions, or Fractions whose
# denominators differ across the matrix (1/97 beside 1/2), so the integer
# core meets rows with different scales.
ROW_ENTRIES = {
    "int": st.integers(-6, 6),
    "integral": st.integers(-6, 6).map(Fraction),
    "rational": st.builds(Fraction, st.integers(-6, 6), st.sampled_from((2, 3, 97))),
    "mixed": st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.sampled_from((2, 97)))),
}


def _rows(height: int, width: int):
    row = st.sampled_from(sorted(ROW_ENTRIES)).flatmap(
        lambda kind: st.lists(ROW_ENTRIES[kind], min_size=width, max_size=width))
    return st.lists(row, min_size=height, max_size=height)


def _deficient(rows: list, blank: int) -> ExactMatrix:
    """The rows with column ``blank`` zeroed (no pivot there) and the last
    row replaced by the first plus half the second, so the rank falls."""
    rows = [[0 if j == blank else v for j, v in enumerate(r)] for r in rows]
    if len(rows) > 2:
        rows[-1] = [a + Fraction(1, 2) * b for a, b in zip(rows[0], rows[1])]
    return ExactMatrix(rows)


def _exact_matrices(square: bool):
    shapes = (st.integers(1, 5).map(lambda n: (n, n)) if square
              else st.tuples(st.integers(1, 5), st.integers(1, 6)))
    return shapes.flatmap(lambda hw: st.tuples(_rows(*hw), st.integers(0, hw[1] - 1), st.booleans())).map(
        lambda t: _deficient(t[0], t[1]) if t[2] else ExactMatrix(t[0]))


def _all_int(m: ExactMatrix) -> bool:
    return all(type(v) is int for i in range(m.rows) for v in m.row(i))


@given(_exact_matrices(square=True))
@settings(deadline=None, max_examples=150)
def test_integer_core_determinant_matches_oracle(m):
    det, want = m.determinant(), determinant_by_permutations(m)
    assert det == want and str(det) == str(want), m.pretty()
    if _all_int(m):
        assert type(det) is int


@given(_exact_matrices(square=False))
@settings(deadline=None, max_examples=150)
def test_integer_core_rank_matches_oracle(m):
    assert m.rank() == rank_by_elimination(m), m.pretty()


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_rows(s[0], s[1]), _rows(s[1], s[2]), st.integers(0, s[1] - 1))))
@settings(deadline=None, max_examples=150)
def test_integer_core_product_matches_oracle(factors):
    left_rows, right_rows, blank = factors
    # zero one inner index in the left factor, so some entries may get no term
    a = ExactMatrix([[0 if k == blank else v for k, v in enumerate(r)] for r in left_rows])
    b = ExactMatrix(right_rows)
    got, want = a @ b, product_by_definition(a, b)
    for i in range(got.rows):
        for j in range(got.cols):
            assert got[i, j] == want[i, j] and str(got[i, j]) == str(want[i, j]), (i, j)
            if all(not a[i, k] or not b[k, j] for k in range(a.cols)):
                assert type(got[i, j]) is int and got[i, j] == 0
    if _all_int(a) and _all_int(b):
        assert _all_int(got)


def test_integer_core_different_denominators():
    m = ExactMatrix([[Fraction(1, 97), Fraction(1, 2)], [Fraction(3, 2), Fraction(5, 97)]])
    assert m.determinant() == Fraction(5, 97 * 97) - Fraction(3, 4) == determinant_by_permutations(m)
    assert m.rank() == 2
    integral = ExactMatrix([[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]])
    det = integral.determinant()
    assert det == 2 and str(det) == "2"


def test_determinant_over_trig_ring():
    m = ExactMatrix([[S, C], [-C, S]])
    assert m.determinant() == 1
    assert determinant_by_permutations(m) == 1


def test_trig_determinant_matches_permutation_oracle():
    rng = Random(17)
    for order in range(1, 6):
        for _ in range(4):
            rows = [[0 if rng.random() < 0.3 else random_trigpoly(rng, terms=2, bound=3)
                     for _ in range(order)] for _ in range(order)]
            rows[-1][0] = random_trigpoly(rng, terms=2, bound=3)
            # the matrix, and a singular one whose first row repeats its last
            cases = [ExactMatrix(rows)] + ([ExactMatrix([rows[-1]] + rows[1:])] if order > 1 else [])
            for m in cases:
                det = m.determinant()
                assert isinstance(det, TrigPoly)
                assert det == determinant_by_permutations(m), m.pretty()


def test_rational_matrices_never_reach_the_ring_kernel(monkeypatch):
    def refuse(terms):
        raise AssertionError("TrigPoly kernel called on a rational matrix")

    monkeypatch.setattr(TrigPoly, "sum_of_products", staticmethod(refuse))
    rng = Random(19)
    a = random_int_matrix(rng, 4, 5)
    ints = a @ random_int_matrix(rng, 5, 3)
    assert all(type(v) is int for i in range(ints.rows) for v in ints.row(i))
    fracs = a @ random_rational_matrix(rng, 5)
    types = {type(v) for i in range(fracs.rows) for v in fracs.row(i)}
    assert Fraction in types and types <= {int, Fraction}
    square = random_int_matrix(rng, 5, 5)
    assert type(square.determinant()) is int
    assert square.determinant() == determinant_by_permutations(square)
    assert type((square @ square).determinant()) is int
    assert isinstance(random_rational_matrix(rng, 4).determinant(), (int, Fraction))


def _ring_minors(rows):
    """The determinant by TrigPoly minors, the route every other matrix takes."""
    return matrix._subset_minor(rows, TrigPoly.sum_of_products)


def _linear_form(rng: Random, max_x: int = 3, bound: int = 5) -> TrigPoly:
    """A nonzero A(x) c + B(x) s with int coefficients."""
    while True:
        form = TrigPoly({(rng.randint(0, max_x), 1): rng.randint(-bound, bound) for _ in range(2)},
                        {(rng.randint(0, max_x), 0): rng.randint(-bound, bound) for _ in range(2)})
        if form:
            return form


def _scaled_ones(rng: Random, order: int) -> tuple[list[list[TrigPoly]], TrigPoly]:
    """Dense rows f_i (I + J)[i] of linear forms, J the all-ones matrix, and
    their determinant (order + 1) f_0 ... f_(order-1) by ring products."""
    forms = [_linear_form(rng) for _ in range(order)]
    rows = [[f * (2 if i == j else 1) for j in range(order)] for i, f in enumerate(forms)]
    det = TrigPoly.constant(order + 1)
    for f in forms:
        det = det * f
    return rows, det


def test_ladder_determinants_match_the_ring_minors_at_every_count(monkeypatch):
    # from dense short chains (packed) past the threshold 2n+2 (zero entries)
    for n in range(6):
        for shift in range(3):
            for kind in (Trig.SIN, Trig.COS):
                for count in range(1, 2 * n + 4):
                    m = ladder_wronskian(ChainSpec(n, shift, kind, count))
                    det = m.determinant()
                    with monkeypatch.context() as patch:
                        patch.setattr(matrix, "_packed_determinant", lambda rows, width: _ring_minors(rows))
                        assert det == m.determinant(), (n, shift, kind, count)
                    if count <= 6:
                        assert det == determinant_by_permutations(m), (n, shift, kind, count)


_coefficients = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6)  # x-degree up to 5
_forms = st.builds(lambda a, b: TrigPoly({(d, 1): v for d, v in enumerate(a)},
                                         {(d, 0): v for d, v in enumerate(b)}),
                   _coefficients, _coefficients).filter(bool)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(_forms, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
@settings(deadline=None, max_examples=30)
def test_packed_minors_match_the_permutation_oracle(rows):
    m = ExactMatrix(rows)
    width, _ = matrix._linear_form_shape(rows)
    det = matrix._packed_determinant(rows, width)
    assert isinstance(det, TrigPoly)
    assert det == determinant_by_permutations(m), m.pretty()
    if len(rows) > 1:
        singular = rows[:-1] + rows[:1]
        assert matrix._packed_determinant(singular, matrix._linear_form_shape(singular)[0]) == TrigPoly()


def test_dense_linear_forms_of_orders_4_to_8_take_packed_minors(monkeypatch):
    rng = Random(23)
    for order in (4, 8):
        rows, want = _scaled_ones(rng, order)
        assert _ring_minors(rows) == want
        if order == 4:
            assert determinant_by_permutations(ExactMatrix(rows)) == want
        with monkeypatch.context() as patch:
            patch.setattr(TrigPoly, "sum_of_products", staticmethod(
                lambda terms: pytest.fail("TrigPoly kernel called on packed minors")))
            assert ExactMatrix(rows).determinant() == want


def test_other_trig_matrices_never_reach_the_packed_minors(monkeypatch):
    rng = Random(29)
    dense = [[_linear_form(rng) for _ in range(4)] for _ in range(4)]
    width, degree = matrix._linear_form_shape(dense)
    assert degree <= 4 and width <= matrix.PACKED_MAX_WIDTH
    zero, first_zero, squared, fraction, integer, tall, wide = (list(map(list, dense)) for _ in range(7))
    zero[1][2] = TrigPoly()
    first_zero[0][1] = TrigPoly()
    squared[2][0] = squared[2][0] + TrigPoly({(1, 2): 3})  # a c^2 term
    fraction[0][3] = fraction[0][3] + TrigPoly({(0, 1): Fraction(1, 2)})
    integer[3][1] = 7
    tall[2][2] = tall[2][2] + TrigPoly({(5, 1): 1})  # x^5 c: x-degree 5 above the order
    wide[0][0] = wide[0][0] + TrigPoly({(0, 1): 2 ** matrix.PACKED_MAX_WIDTH})
    # the walk itself refuses every entry that is no nonzero int linear form
    for rows in (zero, first_zero, squared, fraction, integer):
        assert matrix._linear_form_shape(rows) is None
    # and the rules refuse what it measures: D above the order, W above the bound
    assert matrix._linear_form_shape(tall)[1] == 5
    assert matrix._linear_form_shape(wide)[0] > matrix.PACKED_MAX_WIDTH
    order_three = [row[:3] for row in dense[:3]]
    cases = [(m, determinant_by_permutations(m)) for m in map(
        ExactMatrix, (order_three, zero, first_zero, squared, fraction, integer, tall, wide))]
    nine, want = _scaled_ones(rng, 9)
    cases.append((ExactMatrix(nine), want))
    monkeypatch.setattr(matrix, "_pack", lambda terms, width: pytest.fail("a refused matrix was packed"))
    monkeypatch.setattr(matrix, "_packed_determinant", lambda rows, width: pytest.fail("packed minors reached"))
    for m, want in cases:
        assert m.determinant() == want, m.pretty()


def test_symbolic_determinants_leave_no_cyclic_garbage():
    # the memo of minors is freed by reference counting on both encodings:
    # with the cyclic collector off, 100 determinants leave nothing for it
    matrices = [ladder_wronskian(ChainSpec(n, shift, Trig.SIN, count))
                for n, shift, count in ((3, 0, 4), (4, 1, 6), (2, 0, 3), (2, 0, 6), (1, 2, 4))]
    packed = [m for m in matrices if m.rows in matrix.PACKED_ORDERS and all(map(all, m._r))]
    assert 0 < len(packed) < len(matrices)
    gc.collect()
    gc.disable()
    try:
        for m in islice(cycle(matrices), 100):
            m.determinant()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_concurrent_cold_determinants_fill_shared_memos_safely():
    # four threads take the same packed determinants on entries whose memos
    # are empty, switching as often as the interpreter allows
    specs = [ChainSpec(n, shift, kind, count) for n, shift, count in ((3, 0, 4), (4, 1, 6), (6, 2, 8))
             for kind in (Trig.SIN, Trig.COS)]
    want = [ladder_wronskian(spec).determinant() for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            matrices = [ExactMatrix([[TrigPoly(dict(e.p), dict(e.q)) for e in ladder_wronskian(spec).row(i)]
                                     for i in range(spec.count)]) for spec in specs]
            got = [None] * 4

            def take(t):
                got[t] = [m.determinant() for m in matrices]

            threads = [threading.Thread(target=take, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), trial
            assert got == [want] * 4, trial
    finally:
        sys.setswitchinterval(interval)


def test_a_symbolic_sweep_packs_each_rung_once_per_width(monkeypatch):
    # the wronskian suite at n <= 4, run twice: every rung keeps its packings
    trigring.ladder_rung.cache_clear()
    packed = []
    pack = matrix._pack
    monkeypatch.setattr(matrix, "_pack", lambda e, width: packed.append((e, width)) or pack(e, width))
    plan = plan_checks(SuiteConfig(suites=("wronskian",), max_n=4))
    for _ in range(2):
        for _, check, args in plan:
            assert check(*args).passed
    per_rung = Counter((id(e), width) for e, width in packed)
    assert per_rung and max(per_rung.values()) == 1
    trigring.ladder_rung.cache_clear()


@given(matched_square_pairs)
@settings(deadline=None, max_examples=40)
def test_determinant_multiplicative(pair):
    a, b = pair
    assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_determinant_invariant_under_permutation_conjugation():
    rng = Random(13)
    for order in (3, 4, 5):
        m = random_int_matrix(rng, order, order)
        perm = list(range(order))
        rng.shuffle(perm)
        p = ExactMatrix([[1 if j == perm[i] else 0 for j in range(order)] for i in range(order)])
        assert (p @ m @ p.transpose()).determinant() == m.determinant()


def test_rank_full_and_deficient():
    assert ExactMatrix.identity(4).rank() == 4
    assert ExactMatrix([[0, 0], [0, 0]]).rank() == 0
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert m.rank() == 2
    wide = ExactMatrix([[1, 0, 2, 0], [0, 1, 0, 3]])
    assert wide.rank() == 2


def test_rank_with_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert m.rank() == 1


def test_rank_unchanged_by_unit_triangular_factors():
    rng = Random(5)
    for _ in range(10):
        m = random_int_matrix(rng, 4, 4)
        u = random_unit_triangular(rng, 4, upper=False)
        v = random_unit_triangular(rng, 4, upper=True)
        assert (u @ m).rank() == m.rank()
        assert (m @ v).rank() == m.rank()


def test_rank_rejects_trig_entries():
    with pytest.raises(TypeError):
        ExactMatrix([[S]]).rank()


def test_interleave_split_two_by_two():
    odd, even = ExactMatrix([[3, 0], [0, 4]]).interleave_split()
    assert odd == ExactMatrix([[3]])
    assert even == ExactMatrix([[4]])


def test_interleave_split_rejects_odd_order_and_violations():
    with pytest.raises(ValueError):
        ExactMatrix([[1]]).interleave_split()
    with pytest.raises(ValueError, match=r"row 1, column 2"):
        ExactMatrix([[1, 5], [0, 1]]).interleave_split()


def test_interleave_split_names_the_first_violation_in_row_order():
    m = [[1, 0, 2, 0], [0, 3, 0, 4], [5, 0, 6, 0], [0, 7, 0, 8]]
    odd, even = ExactMatrix(m).interleave_split()
    assert (odd, even) == (ExactMatrix([[1, 2], [5, 6]]), ExactMatrix([[3, 4], [7, 8]]))
    m[3][2] = m[2][3] = m[2][1] = 9  # 1-indexed (4, 3), (3, 4) and (3, 2)
    with pytest.raises(ValueError) as caught:
        ExactMatrix(m).interleave_split()
    assert str(caught.value) == "checkerboard violation: nonzero entry at row 3, column 2"
    m[0][3] = Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^checkerboard violation: nonzero entry at row 1, column 4$"):
        ExactMatrix(m).interleave_split()


def test_interleave_split_determinant_factorization():
    rng = Random(11)
    count = 0
    for order in (4, 6, 8):
        for _ in range(17):
            h = random_checkerboard(rng, order)
            odd, even = h.interleave_split()
            assert h.determinant() == odd.determinant() * even.determinant()
            count += 1
    assert count > 50


def test_pretty_and_json():
    m = ExactMatrix([[1, Fraction(-1, 2)], [30, 4]])
    text = m.pretty()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[") and lines[0].endswith("]")
    assert "-1/2" in lines[0]
    doc = m.to_json_dict()
    assert doc == {"rows": 2, "cols": 2, "entries": ["1", "-1/2", "30", "4"]}


def test_first_difference_reporting():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[1, 2], [3, 5]])
    assert first_difference(a, a) == "ok"
    assert first_difference(a, b) == "entry (2,2) is 4, want 5"
    assert "shape" in first_difference(a, ExactMatrix([[1]]))


def test_equality_requires_matching_shape():
    assert ExactMatrix([[1, 2]]) != ExactMatrix([[1], [2]])
    assert ExactMatrix([[1, 2]]) == ExactMatrix([[1, 2]])


@pytest.mark.parametrize("bad", [0.5, 1.0, True])
def test_entries_outside_the_exact_rings_are_refused(bad):
    # refused when the matrix is built, among ints, Fractions or TrigPolys
    for rows in ([[bad, 1], [1, 1]], [[Fraction(1, 2), 1], [1, bad]], [[S, 0], [bad, C]]):
        with pytest.raises(TypeError, match=f"must be int, Fraction or TrigPoly, not {type(bad).__name__}"):
            ExactMatrix(rows)
    # a TrigPoly operand keeps its own messages
    ints = ExactMatrix([[1, 2], [3, 4]])
    ring = ExactMatrix([[S, 0], [1, C]])
    with pytest.raises(TypeError, match="matrix products need integer or rational entries"):
        ring @ ints
    with pytest.raises(TypeError, match="rank needs integer or rational entries"):
        ring.rank()


def test_stored_rows_are_never_rewritten():
    ints = ExactMatrix([[2, 0, 1, 0], [0, 3, 0, 1], [1, 0, 4, 0], [0, 1, 0, 5]])
    fractions = ExactMatrix([[Fraction(1, 2), 0, 1, 0], [0, Fraction(5, 7), 0, 3],
                             [Fraction(2, 4), 0, 1, 0], [0, Fraction(6, 3), 0, Fraction(1, 3)]])
    trig = ExactMatrix([[S, 0, C, 0], [0, C, 0, S * S], [C * C, 0, S, 0], [0, 2, 0, C]])
    # the rational matrix whose first row read used to store it anew
    mixed = ExactMatrix([[Fraction(1, 2), 1], [3, Fraction(5, 7)]])
    for m in (ints, fractions, trig, mixed):
        built = (m._r, m._den, m._ring)
        reads = [lambda: m.row(0), lambda: m.row(1), lambda: m[1, 1], lambda: m == ints,
                 lambda: m == m.transpose(), lambda: hash(m), m.determinant, m.transpose, m.pretty,
                 m.to_json_dict]
        if m._ring is not TrigPoly:
            reads += [m.rank, lambda: m @ m, lambda: m.transpose() @ m]
        if m.rows == 4:
            reads.append(m.interleave_split)  # every matrix of order 4 here is a checkerboard
        for read in reads:
            read()
        assert all(now is then for now, then in zip((m._r, m._den, m._ring), built)), m.pretty()


def _check_storage(m: ExactMatrix) -> None:
    """m's rows hold what its ring says: ints and no denominators for an int
    matrix, entries as given for a TrigPoly one, and for a matrix over Q
    integer numerator rows, each over a positive denominator that shares no
    factor with the whole row, at least one denominator not 1."""
    ring = m._ring
    if ring is TrigPoly:
        assert m._den is None
        return
    assert all(type(v) is int for row in m._r for v in row)
    if ring is int:
        assert m._den is None
        return
    assert len(m._den) == m.rows and any(d != 1 for d in m._den)
    for row, d in zip(m._r, m._den):
        assert type(d) is int and d > 0 and math.gcd(d, *row) == 1


def _check_ring(m: ExactMatrix) -> None:
    """m's ring, set by its constructor, is what a fresh scan of its entries
    as they read gives; m is stored as a fresh matrix of those entries is,
    and renders as that matrix."""
    _check_storage(m)
    rows = [list(m.row(i)) for i in range(m.rows)]
    fresh = ExactMatrix(rows)
    assert m._ring is fresh._ring is matrix._scan_ring(rows)
    assert (m._r, m._den) == (fresh._r, fresh._den)
    assert str(m) == str(fresh) and m.to_json_dict() == fresh.to_json_dict() and m == fresh


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_rows(s[0], s[1]), _rows(s[1], s[2]))),
    st.integers(1, 6), st.integers(1, 5), st.integers(0, 6))
@settings(deadline=None, max_examples=100)
def test_products_transposes_and_unit_lower_declare_their_scanned_ring(factors, n, offset, start):
    a, b = ExactMatrix(factors[0]), ExactMatrix(factors[1])
    product = a @ b
    # every product, int or rational, is built in its final form and declares its ring
    _check_ring(product)
    _check_ring(product.transpose())
    offset = min(offset, n)
    start = min(max(start, offset), n)
    unit = ExactMatrix.identity(n).shift_rows(offset, start)
    assert unit == _shift_by_definition(n, offset, start)
    _check_ring(unit)
    _check_ring(unit.transpose())
    _check_ring(unit @ unit)


def _shift_by_definition(n: int, offset: int, start: int) -> ExactMatrix:
    """The unit lower shift matrix that shift_rows(offset, start) multiplies
    by, entry by entry: ones on the diagonal and at (i, i - offset) in every
    row i past start (1-indexed), zeros elsewhere."""
    return from_fn(n, n, lambda i, j: 1 if i == j or (i - j == offset and i > start) else 0)


RATS = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def _spec(kind: MatrixKind):
    sizes = st.integers(1, 7)
    if kind is MatrixKind.ROW_SHIFT:
        return st.integers(2, 7).flatmap(
            lambda n: st.builds(MatrixSpec, st.just(kind), st.just(n), st.integers(1, n - 1)))
    if kind is MatrixKind.DOUBLE_SHIFT:
        return st.integers(3, 8).flatmap(lambda n: st.builds(
            MatrixSpec, st.just(kind), st.just(n), st.integers(1, (n + 1) // 2 - 1)))
    if kind is MatrixKind.BINOM_AFFINE:
        return st.builds(MatrixSpec, st.just(kind), sizes, a=RATS, b=RATS)
    if kind is MatrixKind.BINOM_NODES:
        return st.builds(MatrixSpec, st.just(kind),
                         nodes=st.lists(RATS, min_size=1, max_size=6).map(tuple))
    return st.builds(MatrixSpec, st.just(kind), sizes)


@pytest.mark.parametrize("kind", list(MatrixKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_every_built_kind_declares_its_scanned_ring(kind, data):
    # integral Fractions (4/2) among the affine and node inputs build int columns
    m = build(data.draw(_spec(kind)))
    _check_ring(m)
    _check_ring(m.transpose())


@given(st.integers(0, 4), st.integers(0, 3), st.sampled_from(list(Trig)), st.integers(1, 6))
@settings(deadline=None, max_examples=30)
def test_ladder_wronskian_ring_is_its_scan(n, shift, kind, count):
    _check_ring(ladder_wronskian(ChainSpec(n, shift, kind, count)))


def test_shift_products_scan_no_entry_and_a_rational_product_each_factor_once(monkeypatch):
    scanned = []
    scan = matrix._scan_ring

    def counted(rows):
        scanned.append(id(rows))
        return scan(rows)

    monkeypatch.setattr(matrix, "_scan_ring", counted)
    assert pascal_product(29) == build(MatrixSpec(MatrixKind.PASCAL, n=29))
    assert _shift_stack.__wrapped__(12, 2)[1] == "ok"
    assert scanned == []
    rng = Random(23)
    # the public constructor scans the rows it is given exactly once, and
    # stores a's as numerators over row denominators there
    a, b = random_rational_matrix(rng, 5, mixed=True), random_int_matrix(rng, 5, 5)
    assert len(scanned) == 2 and a._den is not None and b._den is None
    product = a @ b
    for op in (lambda: a @ b, lambda: b @ a, lambda: a.transpose() @ b, a.determinant, a.rank, b.rank,
               lambda: a.row(0), lambda: a[1, 1], lambda: a == b, lambda: hash(a)):
        op()
    # a rational product is built over its row denominators and never scanned
    product.determinant()
    product.determinant()
    assert product._den is not None and len(scanned) == 2


def _int_rows(height: int, width: int):
    return st.lists(st.lists(st.integers(-20, 20), min_size=width, max_size=width),
                    min_size=height, max_size=height)


@given(st.tuples(st.integers(1, 7), st.integers(1, 5)).flatmap(lambda hw: _int_rows(*hw)),
       st.sampled_from([1, 2]), st.booleans())
@settings(deadline=None, max_examples=100)
def test_shift_rows_is_the_unit_lower_product(rows, offset, integral_fractions):
    # integral Fractions make an int matrix when it is built
    m = ExactMatrix([list(map(Fraction, row)) for row in rows] if integral_fractions else rows)
    n = m.rows
    for start in range(offset, n + 1):
        got = m.shift_rows(offset, start)
        unit = _shift_by_definition(n, offset, start)
        assert got == unit @ m == product_by_definition(unit, m), (offset, start)
        assert all(got._r[i] is m._r[i] for i in range(start))
        _check_ring(got)
    assert [list(m.row(i)) for i in range(n)] == rows


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _int_rows(n, n))),
       st.integers(-2, 8), st.integers(-2, 8), st.randoms())
@settings(deadline=None, max_examples=100)
def test_shift_rows_takes_int_matrices_and_shifts_inside_them(n_rows, offset, start, rng):
    n, rows = n_rows
    m = ExactMatrix(rows)
    if 1 <= offset <= start <= n:
        i, j = rng.randrange(n), rng.randrange(n)
        for bad in (Fraction(2 * rng.randint(-5, 5) + 1, 2), random_trigpoly(rng)):
            rows[i][j] = bad
            with pytest.raises(TypeError, match="row shifts need an int matrix"):
                ExactMatrix(rows).shift_rows(offset, start)
        return
    for op in (lambda: m.shift_rows(offset, start), lambda: ExactMatrix.identity(n).shift_rows(offset, start)):
        with pytest.raises(ValueError, match="row shift needs 1 <= offset <= start <= n"):
            op()


# Matrices over Q are stored as integer numerator rows over one denominator
# per row, each row in lowest terms.  Rows drawn here: zero rows, rows of
# random entries (ints, integral Fractions, negatives), and rows whose
# entries share a factor with each other and with their denominators.
FORMAT_ENTRIES = st.one_of(
    st.integers(-9, 9), st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def _format_row(width: int):
    return st.one_of(
        st.just([0] * width),
        st.lists(FORMAT_ENTRIES, min_size=width, max_size=width),
        st.builds(lambda vs, k, d: [Fraction(k * v, d) for v in vs],
                  st.lists(st.integers(-6, 6), min_size=width, max_size=width),
                  st.integers(1, 6), st.integers(1, 12)))


def _format_rows(height: int, width: int):
    return st.lists(_format_row(width), min_size=height, max_size=height)


FORMAT_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5))


@given(FORMAT_SHAPES.flatmap(lambda hw: _format_rows(*hw)))
@settings(deadline=None, max_examples=150)
def test_rational_rows_read_back_as_given(rows):
    m = ExactMatrix(rows)
    ring = m._ring
    _check_storage(m)
    assert ring is (Fraction if any(Fraction(v).denominator != 1 for r in rows for v in r) else int)
    for i, given_row in enumerate(rows):
        assert m.row(i) == tuple(given_row)
        for j, v in enumerate(given_row):
            # a fresh copy reads the same through either accessor
            for got in (m[i, j], ExactMatrix(rows)[i, j], ExactMatrix(rows).row(i)[j]):
                assert got == v and type(got) is (int if Fraction(v).denominator == 1 else Fraction)
    # rendered from the ints as the given entries render
    assert m.to_json_dict()["entries"] == [str(v) for r in rows for v in r]
    assert m.pretty() == ExactMatrix(rows).pretty()
    # the numerator rows over their denominators build the same matrix
    dens = m._den or (1,) * m.rows
    assert ExactMatrix._over(m._r, dens, m.cols) == m
    assert ExactMatrix._over([[v * 3 for v in r] for r in m._r], [3 * d for d in dens], m.cols)._r == m._r


@given(FORMAT_SHAPES.flatmap(lambda hw: _format_rows(*hw)), st.randoms())
@settings(deadline=None, max_examples=150)
def test_equality_and_hash_agree_across_entry_types(rows, rng):
    stored = ExactMatrix(rows)
    variants = [
        stored,
        ExactMatrix._over(stored._r, stored._den or [1] * stored.rows, stored.cols),  # from its numerators
        ExactMatrix([[Fraction(v) for v in r] for r in rows]),
        ExactMatrix([[TrigPoly.constant(v) for v in r] for r in rows]),
        ExactMatrix([[int(v) if Fraction(v).denominator == 1 else v for v in r] for r in rows]),
    ]
    for a in variants:
        for b in variants:
            assert a == b and hash(a) == hash(b)
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    changed = [list(r) for r in rows]
    changed[i][j] += Fraction(1, rng.choice((1, 2, 7)))
    other = ExactMatrix(changed)
    for a in variants:
        assert a != other and other != a
    # the same numerators over other denominators are another matrix
    third = ExactMatrix([[Fraction(v) / 3 for v in r] for r in rows])
    if any(v for r in rows for v in r):
        for a in variants:
            assert a != third and third != a


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_format_rows(s[0], s[1]), _format_rows(s[1], s[2]), _format_rows(s[0], s[0]))))
@settings(deadline=None, max_examples=150)
def test_rational_format_matches_oracles(factors):
    left, right, square = map(ExactMatrix, factors)
    product = left @ right
    _check_storage(product)
    assert product == product_by_definition(left, right)
    assert all(type(product[i, j]) is int or product[i, j].denominator != 1
               for i in range(product.rows) for j in range(product.cols))
    det = square.determinant()
    assert det == determinant_by_permutations(square) and str(det) == str(determinant_by_permutations(square))
    for m in (left, right, square, product, product.transpose()):
        assert m.rank() == rank_by_elimination(m)
    transposed = left.transpose()
    _check_storage(transposed)
    assert transposed == ExactMatrix([[left[i, j] for i in range(left.rows)] for j in range(left.cols)])
    if square.rows % 2 == 0:
        blanked = ExactMatrix([[v if (i + j) % 2 == 0 else 0 for j, v in enumerate(r)]
                               for i, r in enumerate(factors[2])])
        whole = blanked.determinant()
        odd, even = blanked.interleave_split()
        _check_storage(odd)
        _check_storage(even)
        assert odd.determinant() * even.determinant() == whole == determinant_by_permutations(blanked)


@given(st.integers(1, 5).flatmap(lambda n: _format_rows(n, n)), st.sampled_from([0.5, 1.0, True, False]),
       st.randoms())
@settings(deadline=None, max_examples=60)
def test_float_and_bool_entries_raise_among_rationals(rows, bad, rng):
    rows = [list(r) for r in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = bad
    # at construction, wherever the entry sits and whatever the others are
    for given in (rows, list(zip(*rows))):
        with pytest.raises(TypeError, match=f"must be int, Fraction or TrigPoly, not {type(bad).__name__}"):
            ExactMatrix(given)


# Nonzero slopes and any offsets, int or rational, negative included.
RATIONALS = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
SLOPES = RATIONALS.filter(bool)


def _nodes_matrix(nodes) -> ExactMatrix:
    return build(MatrixSpec(MatrixKind.BINOM_NODES, nodes=tuple(map(Fraction, nodes))))


def _same_as_oracles(det, m: ExactMatrix) -> None:
    want = m._bareiss()[1]
    assert det == want and str(det) == str(want), m.pretty()
    if m.rows <= 6:
        assert det == determinant_by_permutations(m), m.pretty()


@given(SLOPES, RATIONALS, st.integers(1, 9))
@settings(deadline=None, max_examples=150)
def test_differences_reduce_every_affine_binomial_matrix(a, b, size):
    m = _nodes_matrix([a * j + b for j in range(1, size + 1)])
    det = m._difference_determinant(1)
    assert det is not None, m.pretty()
    assert det == Fraction(a) ** math.comb(size, 2)
    _same_as_oracles(det, m)
    assert m.determinant() == det


@given(st.lists(RATIONALS, min_size=3, max_size=8))
@settings(deadline=None, max_examples=150)
def test_differences_refuse_nodes_off_an_arithmetic_progression(nodes):
    # row 1 is x_j itself: its second differences vanish only on a progression
    assume(any(x - 2 * y + z for x, y, z in zip(nodes, nodes[1:], nodes[2:])))
    m = _nodes_matrix(nodes)
    assert m._difference_determinant(1) is None
    assert m.determinant() == m._bareiss()[1]


@given(_exact_matrices(square=True), st.integers(1, 3))
@settings(deadline=None, max_examples=150)
def test_differences_on_random_matrices_are_none_or_the_determinant(m, step):
    det = m._difference_determinant(step)
    if det is not None:
        _same_as_oracles(det, m)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n), SLOPES, RATIONALS)))
@settings(deadline=None, max_examples=100)
def test_differences_reduce_row_combinations_of_an_affine_matrix(case):
    # a lower triangular factor on the left keeps every row's differences zero
    # right of the diagonal, so L times an affine matrix reduces as well
    rows, a, b = case
    size = len(rows)
    lower = ExactMatrix([[v if j <= i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)])
    m = lower @ _nodes_matrix([a * j + b for j in range(1, size + 1)])
    det = m._difference_determinant(1)
    assert det is not None, m.pretty()
    _same_as_oracles(det, m)


@given(SLOPES, RATIONALS, st.integers(2, 9), st.data())
@settings(deadline=None, max_examples=150)
def test_one_changed_entry_is_never_reported_triangular(a, b, size, data):
    m = _nodes_matrix([a * j + b for j in range(1, size + 1)])
    i = data.draw(st.integers(0, size - 2))
    j = data.draw(st.integers(0, size - 1))
    delta = data.draw(SLOPES)
    rows = [list(m.row(r)) for r in range(size)]
    rows[i][j] += delta
    assert ExactMatrix(rows)._difference_determinant(1) is None
    rows[i][j] -= delta
    rows[-1][j] += delta  # the last row has nothing right of its diagonal to break
    changed = ExactMatrix(rows)
    _same_as_oracles(changed._difference_determinant(1), changed)


@given(st.integers(1, 20), st.data())
@settings(deadline=None, max_examples=40)
def test_double_shift_differences_reduce_the_coordinate_checkerboard(n, data):
    size = 2 * n + 2
    pattern = binomial_pattern_matrix(n)
    for m in (pattern, scaled_coordinate_matrix(coordinate_matrix(n), n)):
        assert m._difference_determinant(2) == m.determinant() == 2 ** (n * (n + 1))
    # an off-parity entry in any row but the last breaks the checkerboard
    i = data.draw(st.integers(0, size - 2))
    j = data.draw(st.sampled_from(range(1 - i % 2, size, 2)))
    rows = [list(pattern.row(r)) for r in range(size)]
    rows[i][j] = data.draw(SLOPES)
    broken = ExactMatrix(rows)
    assert broken._difference_determinant(2) is None
    _same_as_oracles(broken.determinant(), broken)


def test_differences_take_no_trig_or_non_square_matrix(monkeypatch):
    assert ExactMatrix([[Fraction(3, 2)]]).determinant() == Fraction(3, 2)

    def refuse(self, step):
        raise AssertionError("column differences reached")

    monkeypatch.setattr(ExactMatrix, "_difference_determinant", refuse)
    assert ExactMatrix([[S, C], [C, S]]).determinant() == TrigPoly({(0, 0): 1, (0, 2): -2})
    with pytest.raises(ValueError, match="determinant needs a square matrix"):
        ExactMatrix([[1, 1, 1], [1, 2, 3]]).determinant()
