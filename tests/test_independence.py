import math
import sys
import threading
from fractions import Fraction

import pytest

from wronskit import (
    ChainSpec,
    ExactMatrix,
    MatrixKind,
    MatrixSpec,
    Trig,
    TrigPoly,
    binomial,
    binomial_pattern_matrix,
    build,
    coordinate_basis,
    coordinate_matrix,
    coordinates_in_basis,
    differentiate,
    falling_factorial,
    first_difference,
    harmonic_step,
    is_constant,
    ladder_rung,
    ladder_wronskian,
    pascal_product,
    scaled_coordinate_matrix,
    two_by_two,
    verify_basis_columns,
    verify_dependence,
    verify_even_hankel_transform,
    verify_full_rank,
    verify_wronskian_factorization,
    verify_wronskian_transform,
    wronskian_hankel,
)
from wronskit import independence, trigring
from wronskit.cli import EVEN_GRID_STEPS
from oracles import (
    basis_element,
    conjugate_by_definition,
    determinant_by_permutations,
    from_fn,
    rank_by_elimination,
)

S = basis_element(0, Trig.SIN)
C = basis_element(0, Trig.COS)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n=-1)
    with pytest.raises(ValueError):
        ChainSpec(n=0, shift=-1)
    with pytest.raises(ValueError):
        ChainSpec(n=0, count=0)
    # a string is not a kind: "cos" would read as the sine family
    for kind in ("cos", "sin", None):
        with pytest.raises(TypeError, match="must be a Trig"):
            ChainSpec(1, 0, kind, 4)


def test_derivative_chain_example():
    # the first row of the Wronskian matrix is the derivative chain itself
    chain = list(wronskian_hankel(ChainSpec(n=1, shift=0, kind=Trig.SIN, count=4)).row(0))
    f = basis_element(1, Trig.SIN)
    xc = basis_element(1, Trig.COS)
    assert chain == [f, S + xc, 2 * C - f, -3 * S - xc]


def test_chain_shift_offsets_orders():
    shifted = wronskian_hankel(ChainSpec(n=2, shift=3, kind=Trig.COS, count=2)).row(0)
    assert shifted[0] == ladder_rung(2, Trig.COS, 3, 0)
    assert shifted[1] == ladder_rung(2, Trig.COS, 4, 0)


def test_wronskian_matrix_is_hankel():
    m = wronskian_hankel(ChainSpec(n=2, shift=1, kind=Trig.SIN, count=4))
    assert (m.rows, m.cols) == (4, 4)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == ladder_rung(2, Trig.SIN, 1 + i + j, 0)
    # anti-diagonals constant
    assert m[0, 2] == m[1, 1] == m[2, 0]


def test_two_by_two_constants():
    assert is_constant(two_by_two(0, 0, Trig.SIN)) == -1
    assert is_constant(two_by_two(1, 0, Trig.SIN)) == -4
    assert is_constant(two_by_two(2, 0, Trig.SIN)) == -64
    # shifting differentiates a pure sinusoid, which keeps a^2 + b^2
    for shift in (0, 1, 2, 3):
        assert is_constant(two_by_two(1, shift, Trig.SIN)) == -4
    assert is_constant(two_by_two(0, 0, Trig.COS)) == -1


def test_wronskian_values_match_permutation_oracle():
    w0 = wronskian_hankel(ChainSpec(0, 0, Trig.SIN, 2))
    assert w0.determinant() == determinant_by_permutations(w0) == -1
    w1 = wronskian_hankel(ChainSpec(1, 0, Trig.SIN, 4))
    assert w1.determinant() == determinant_by_permutations(w1) == 16


def _conjugated_by_definition(spec: ChainSpec) -> ExactMatrix:
    """S W S^T for the chain's Wronskian matrix W and the double-shift stack S,
    by two products by definition."""
    return conjugate_by_definition(independence._shift_stack(spec.count, 2)[0], wronskian_hankel(spec))


def test_ladder_matches_the_ring_product():
    for n in range(7):
        for shift in (0, 1, 2):
            for kind in (Trig.SIN, Trig.COS):
                for count in range(1, 2 * n + 5):
                    spec = ChainSpec(n, shift, kind, count)
                    ladder = ladder_wronskian(spec)
                    assert ladder == _conjugated_by_definition(spec), spec
                    assert all(isinstance(v, TrigPoly) for i in range(count) for v in ladder.row(i))


def test_double_shift_stack_is_the_interleaved_binomial_matrix():
    # step 2 interleaves C(i//2, j//2) over the parities; step 1 is Pascal's C(i, j)
    for step in (1, 2):
        for size in range(1, 61):
            stack, difference = independence._shift_stack(size, step)
            want = ExactMatrix([[math.comb(i // step, j // step) if (i - j) % step == 0 else 0
                                 for j in range(size)] for i in range(size)])
            assert stack == want, (size, step)
            assert difference == "ok", (size, step)


@pytest.fixture
def fresh_caches():
    independence._shift_stack.cache_clear()
    trigring.ladder_rung.cache_clear()
    yield
    independence._shift_stack.cache_clear()
    trigring.ladder_rung.cache_clear()


def test_ladder_rung_is_a_harmonic_step_power(fresh_caches):
    for n in range(6):
        for kind in (Trig.SIN, Trig.COS):
            derivative = basis_element(n, kind)  # D^order f by the ring's own rule
            for order in range(5):
                u = derivative
                for k in range(n + 3):
                    rung = ladder_rung(n, kind, order, k)
                    assert rung == u, (n, kind, order, k)
                    assert (rung == 0) == (k >= n + 1), (n, kind, order, k)
                    u = harmonic_step(u)
                derivative = differentiate(derivative)
    # a cold rung is one closed form, whatever its k and order
    n = 400
    assert is_constant(two_by_two(n, 2, Trig.COS)) == -(2 ** n * math.factorial(n)) ** 2
    trigring.ladder_rung.cache_clear()
    assert is_constant(two_by_two(3, 3000, Trig.COS)) == -(2 ** 3 * math.factorial(3)) ** 2
    with pytest.raises(ValueError):
        ladder_rung(1, Trig.SIN, -1, 0)
    with pytest.raises(ValueError):
        ladder_rung(1, Trig.SIN, 0, -1)
    with pytest.raises(ValueError):
        ladder_rung(-1, Trig.SIN, 0, 0)
    for kind in ("cos", "sin", None):
        with pytest.raises(TypeError, match="must be a Trig"):
            ladder_rung(1, kind, 0, 0)


def test_a_ladder_makes_no_derivative_cold_or_warm(monkeypatch, fresh_caches):
    spec = ChainSpec(3, 1, Trig.COS, 9)
    want = ladder_wronskian(spec)
    trigring.ladder_rung.cache_clear()
    calls = []

    def counted(u):
        calls.append(u)
        return differentiate(u)

    monkeypatch.setattr(trigring, "differentiate", counted)
    assert ladder_wronskian(spec) == want  # cold
    assert ladder_wronskian(spec) == want  # warm
    assert calls == []
    trigring.harmonic_step(want[0, 0])  # the counter does see the ring's own rule
    assert calls


def test_concurrent_cold_reads_build_the_serial_ladder(fresh_caches):
    spec = ChainSpec(6, 3, Trig.COS, 14)
    want = ladder_wronskian(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            trigring.ladder_rung.cache_clear()
            got = [None] * 4

            def read(i):
                got[i] = ladder_wronskian(spec)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), trial
            assert got == [want] * 4, trial
    finally:
        sys.setswitchinterval(interval)


def test_a_wrong_stack_fails_the_checks(monkeypatch, fresh_caches):
    # single shifts in place of double shifts: S no longer has the ladder's rows
    shift_rows = ExactMatrix.shift_rows
    monkeypatch.setattr(ExactMatrix, "shift_rows",
                        lambda m, offset, start: shift_rows(m, 1 if offset == 2 else offset, start))
    for rep in (verify_wronskian_factorization(2, 1, Trig.COS), verify_dependence(1, Trig.SIN),
                verify_wronskian_transform(2, Trig.SIN)):
        assert not rep.passed
        assert rep.computed.startswith("double-shift stack off the ladder: entry (")
        assert ", want " in rep.computed
        assert "-> FAIL" in rep.line()
    # single shifts that do nothing: the even grid's stack is no longer
    # Pascal's, and the Wronskian's double shifts are untouched
    monkeypatch.setattr(ExactMatrix, "shift_rows",
                        lambda m, offset, start: m if offset == 1 else shift_rows(m, offset, start))
    independence._shift_stack.cache_clear()
    for steps in EVEN_GRID_STEPS:
        for shift in (0, 1, 2):
            for n in (1, 2, 3):
                for kind in (Trig.SIN, Trig.COS):
                    rep = verify_even_hankel_transform(steps, shift, n, kind)
                    assert not rep.passed
                    assert rep.computed.startswith("row-shift stack off Pascal: entry ("), rep.line()
    for n in (1, 2, 3):
        for kind in (Trig.SIN, Trig.COS):
            assert verify_wronskian_transform(n, kind).passed
            assert verify_wronskian_factorization(n, 1, kind).passed
            assert verify_dependence(n, kind).passed


def _first_of_class(size: int, step: int, e: int, k: int) -> tuple[int, int]:
    """The first (i, j) in row-major order, 0-indexed, of the ladder class (e, k)."""
    return next((i, j) for i in range(size) for j in range(size)
                if (i % step + j % step, i // step + j // step) == (e, k))


def test_a_wrong_rung_in_any_class_fails_the_transform_check(monkeypatch, fresh_caches):
    # every class is read: a wrong target at any k >= 1 rung, the last class
    # (2, 2n-2) among them, is reported at the class's first entry
    n = 3
    rung = ladder_rung
    for e in range(3):
        for k in range(1, 2 * n - 1):
            monkeypatch.setattr(independence, "ladder_rung", lambda power, kind, order, depth:
                                rung(power, kind, order, depth) + ((order, depth) == (e, k)))
            rep = verify_wronskian_transform(n, Trig.COS)
            i, j = _first_of_class(2 * n, 2, e, k)
            want = rung(n, Trig.COS, e, k) + 1
            assert not rep.passed, (e, k)
            assert rep.computed == f"entry ({i + 1},{j + 1}) is {rung(n, Trig.COS, e, k)}, want {want}", (e, k)
    # the even grid's classes are k = i + j at order shift; the report is
    # first_difference's between the conjugate by definition and the target
    steps, shift = 3, 1
    size = steps + 1
    grid = ExactMatrix([[rung(n, Trig.SIN, shift + 2 * (i + j), 0) for j in range(size)] for i in range(size)])
    conj = conjugate_by_definition(pascal_product(size), grid)
    for k in range(1, 2 * size - 1):
        monkeypatch.setattr(independence, "ladder_rung", lambda power, kind, order, depth:
                            rung(power, kind, order, depth) + ((order, depth) == (shift, k)))
        rep = verify_even_hankel_transform(steps, shift, n, Trig.SIN)
        target = ExactMatrix([[independence.ladder_rung(n, Trig.SIN, shift, i + j) for j in range(size)]
                              for i in range(size)])
        i, j = _first_of_class(size, 1, 0, k)
        assert not rep.passed, k
        assert rep.computed == first_difference(conj, target), k
        assert rep.computed.startswith(f"entry ({i + 1},{j + 1}) is "), k
    monkeypatch.setattr(independence, "ladder_rung", rung)
    assert verify_wronskian_transform(n, Trig.COS).passed
    assert verify_even_hankel_transform(steps, shift, n, Trig.SIN).passed


def test_transform_entries_match_the_product_by_definition():
    for n in range(1, 13):
        for kind in (Trig.SIN, Trig.COS):
            spec = ChainSpec(n, 0, kind, 2 * n)
            stack = independence._shift_stack(2 * n, 2)[0]
            want = _conjugated_by_definition(spec)
            h = [ladder_rung(n, kind, t, 0) for t in range(4 * n - 1)]
            for i in range(2 * n):
                for j in range(2 * n):
                    got = independence._conjugated_entry(stack.row(i), stack.row(j), h)
                    assert got == want[i, j] == ladder_rung(n, kind, i % 2 + j % 2, i // 2 + j // 2), (spec, i, j)
            assert verify_wronskian_transform(n, kind).computed == "ok", spec


def test_determinants_make_no_ring_product(fresh_caches):
    # a product with a TrigPoly operand raises, so no check can make one
    w = wronskian_hankel(ChainSpec(1, 0, Trig.SIN, 4))
    stack = independence._shift_stack(4, 2)[0]
    for a, b in ((stack, w), (w, stack.transpose()), (w, w)):
        with pytest.raises(TypeError):
            a @ b
    assert verify_wronskian_factorization(4, 2, Trig.COS).passed
    assert verify_dependence(4, Trig.SIN).passed
    spec = ChainSpec(1, 0, Trig.SIN, 4)
    assert _conjugated_by_definition(spec) == ladder_wronskian(spec)


def test_wronskian_factorization_reports():
    for n in (0, 1, 2):
        for shift in (0, 1):
            for kind in (Trig.SIN, Trig.COS):
                rep = verify_wronskian_factorization(n, shift, kind)
                assert rep.passed, rep.line()
    rep = verify_wronskian_factorization(2, 0, Trig.SIN)
    assert rep.expected == str(Fraction(-64) ** 3)
    assert "quadratic constant -64" in rep.note


def test_dependence_reports():
    for n in (0, 1, 2):
        for kind in (Trig.SIN, Trig.COS):
            rep = verify_dependence(n, kind)
            assert rep.passed, rep.line()
            assert rep.expected == "0"


def test_even_hankel_transform_small_case_detail():
    # steps=1, n=1: conjugated corner entry must be (D^2+1)^2 f = 0
    f = basis_element(1, Trig.SIN)
    h = [f, ladder_rung(1, Trig.SIN, 2, 0), ladder_rung(1, Trig.SIN, 4, 0)]
    grid = ExactMatrix([[h[0], h[1]], [h[1], h[2]]])
    stack = ExactMatrix([[1, 0], [1, 1]])
    conj = ExactMatrix([[independence._conjugated_entry(stack.row(i), stack.row(j), h) for j in range(2)]
                        for i in range(2)])
    assert conj[0, 0] == f
    assert conj[0, 1] == harmonic_step(f)
    assert conj[1, 1] == harmonic_step(harmonic_step(f))
    assert conj[1, 1] == 0
    assert grid.determinant() == conj.determinant()


def test_even_hankel_transform_grid():
    for steps in (1, 2, 3):
        for shift in (0, 1, 2):
            for n in (1, 2, 3):
                for kind in (Trig.SIN, Trig.COS):
                    rep = verify_even_hankel_transform(steps, shift, n, kind)
                    assert rep.passed, rep.line()


def test_even_hankel_transform_validation():
    with pytest.raises(ValueError):
        verify_even_hankel_transform(0, 0, 1)
    with pytest.raises(ValueError):
        verify_even_hankel_transform(1, -1, 1)


def test_wronskian_transform_identity_for_smallest_size():
    # size 2 uses an empty double-shift product, so the grid itself must
    # already sit on the ladder
    rep = verify_wronskian_transform(1, Trig.SIN)
    assert rep.passed
    f = basis_element(1, Trig.SIN)
    grid = wronskian_hankel(ChainSpec(1, 0, Trig.SIN, 2))
    assert grid[0, 0] == f
    assert grid[0, 1] == differentiate(f)
    assert grid[1, 1] == differentiate(differentiate(f))


def test_wronskian_transform_grid():
    for n in (1, 2, 3):
        for kind in (Trig.SIN, Trig.COS):
            rep = verify_wronskian_transform(n, kind)
            assert rep.passed, rep.line()
    with pytest.raises(ValueError):
        verify_wronskian_transform(0)


def test_coordinate_basis_layout():
    basis = coordinate_basis(1)
    assert basis == ((1, Trig.COS), (1, Trig.SIN), (0, Trig.SIN), (0, Trig.COS))
    basis4 = coordinate_basis(4)
    assert len(basis4) == 10
    powers = [p for p, _ in basis4]
    assert powers == [4, 4, 3, 3, 2, 2, 1, 1, 0, 0]
    # pair order alternates, starting cos-first
    assert basis4[0][1] is Trig.COS and basis4[2][1] is Trig.SIN and basis4[4][1] is Trig.COS


def test_coordinates_in_basis_roundtrip():
    n = 2
    u = ladder_rung(n, Trig.SIN, 3, 0)
    coords = coordinates_in_basis(u, n)
    total = 0 * u
    for value, (power, kind) in zip(coords, coordinate_basis(n)):
        total = total + value * basis_element(power, kind)
    assert total == u


def test_coordinates_in_basis_rejects_outside_span():
    with pytest.raises(ValueError):
        coordinates_in_basis(C * C, 1)
    with pytest.raises(ValueError):
        coordinates_in_basis(basis_element(3, Trig.SIN), 1)


def test_coordinate_matrix_small_instance():
    a = coordinate_matrix(1)
    assert a == ExactMatrix([
        [1, 0, -1, 0],
        [0, -1, 0, 1],
        [1, 0, -3, 0],
        [0, 2, 0, -4]])


def test_coordinate_matrices_match_their_entry_definitions():
    def coordinate(n):
        def entry(i, j):
            if (i + j) % 2:
                return 0
            depth = (2 * i - 1) // 4
            sign = -1 if ((2 * j + 1) // 4 + (2 * i + 1) // 8) % 2 else 1
            return sign * binomial(j, depth) * falling_factorial(n, depth)
        return entry

    for n in range(1, 25):
        size = 2 * n + 2
        for got, want in (
                (coordinate_matrix(n), from_fn(size, size, coordinate(n))),
                (binomial_pattern_matrix(n), from_fn(
                    size, size, lambda i, j: binomial(j, (2 * i - 1) // 4) if (i + j) % 2 == 0 else 0))):
            assert got == want, n
            assert all(type(got[i, j]) is int for i in range(size) for j in range(size))


def test_coordinate_matrix_first_columns_closed_form():
    # column 1 is (1, 0, n, 0, ...), column 2 is (0, -1, 0, 2n, 0, n(n-1), 0, ...)
    for n in range(1, 7):
        a = coordinate_matrix(n)
        col1 = [a[i, 0] for i in range(2 * n + 2)]
        assert col1[0] == 1 and col1[2] == n
        assert all(v == 0 for idx, v in enumerate(col1) if idx not in (0, 2))
        col2 = [a[i, 1] for i in range(2 * n + 2)]
        assert col2[1] == -1 and col2[3] == 2 * n
        if n >= 2:
            assert col2[5] == n * (n - 1)


def test_coordinate_columns_match_symbolic_derivatives():
    for n in (1, 2, 3):
        rep = verify_basis_columns(n)
        assert rep.passed, rep.line()
    for n in (1, 2):
        a = coordinate_matrix(n)
        for j in range(1, 2 * n + 3):
            coords = coordinates_in_basis(ladder_rung(n, Trig.SIN, j, 0), n)
            assert coords == [a[i, j - 1] for i in range(2 * n + 2)]


def test_scaled_coordinate_matrix_pattern():
    for n in range(1, 5):
        a = coordinate_matrix(n)
        scaled = scaled_coordinate_matrix(a, n)
        assert scaled == binomial_pattern_matrix(n)


def test_scaled_matrix_splits_into_binomial_matrices():
    for n in range(1, 5):
        scaled = scaled_coordinate_matrix(coordinate_matrix(n), n)
        odd, even = scaled.interleave_split()
        assert odd == build(MatrixSpec(MatrixKind.BINOM_ODD, n=n))
        assert even == build(MatrixSpec(MatrixKind.BINOM_EVEN, n=n))


def test_scaled_coordinate_matrix_shape_check():
    with pytest.raises(ValueError):
        scaled_coordinate_matrix(coordinate_matrix(2), 1)


def test_full_rank_reports():
    for n in range(1, 5):
        rep = verify_full_rank(n)
        assert rep.passed, rep.line()
        assert rep.expected == f"rank {2 * n + 2}"
        assert f"n(n+1) = {n * (n + 1)}" in rep.note
        assert "inconsistent" in rep.note


def _column_3_as_column_1(m: ExactMatrix) -> ExactMatrix:
    """m with its third column replaced by its first: both have odd index, so a
    checkerboard stays one, but the matrix is singular."""
    return ExactMatrix([[*row[:2], row[0], *row[3:]] for row in map(m.row, range(m.rows))])


def test_full_rank_of_a_singular_matrix_falls_back_to_elimination(monkeypatch):
    # the nonzero row and column scales keep the rank, whatever the matrix holds
    for n in range(1, 11):
        m = coordinate_matrix(n)
        for mat in (m, _column_3_as_column_1(m)):
            assert scaled_coordinate_matrix(mat, n).rank() == mat.rank()
    monkeypatch.setattr(independence, "coordinate_matrix",
                        lambda n: _column_3_as_column_1(coordinate_matrix(n)))
    for n in (1, 2, 5):
        rank = rank_by_elimination(_column_3_as_column_1(coordinate_matrix(n)))
        assert rank < 2 * n + 2
        rep = verify_full_rank(n)
        assert not rep.passed, rep.line()
        assert rep.computed.startswith(f"rank {rank}; "), rep.computed
        assert "determinant 0 != " in rep.computed


def test_full_rank_note_distinguishes_exponents():
    rep = verify_full_rank(1)
    assert "= 4 " in rep.note or "= 4" in rep.note.split(";")[0]
    assert "would give 1" in rep.note
