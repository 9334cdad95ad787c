from fractions import Fraction
from random import Random

import pytest

from wronskit import (
    ExactMatrix,
    MatrixKind,
    MatrixSpec,
    binomial,
    build,
    det_closed_form,
    det_identity,
    double_shift_matrix,
    pascal_product,
    row_shift_matrix,
    verify_even_from_odd,
    verify_pascal_product,
    verify_row_shift,
    verify_triangularization,
)
from oracles import from_fn, random_int_matrix


def test_row_shift_entries_and_action():
    r2 = row_shift_matrix(4, 2)
    assert r2 == ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    rng = Random(3)
    for n in (2, 3, 5, 7):
        a = random_int_matrix(rng, n, n)
        for k in range(1, n):
            assert verify_row_shift(a, k).passed


def test_row_shift_adds_original_rows_not_running_sums():
    # rows k+1..n must each gain the ORIGINAL previous row, all at once
    a = ExactMatrix([[1, 0], [0, 1]])
    r1 = row_shift_matrix(2, 1)
    assert r1 @ a == ExactMatrix([[1, 0], [1, 1]])
    b = ExactMatrix([[1], [10], [100]])
    assert row_shift_matrix(3, 1) @ b == ExactMatrix([[1], [11], [110]])


def test_row_shift_domain():
    with pytest.raises(ValueError):
        row_shift_matrix(3, 0)
    with pytest.raises(ValueError):
        row_shift_matrix(3, 3)
    with pytest.raises(ValueError):
        row_shift_matrix(1, 1)


def test_double_shift_entries_and_domain():
    u1 = double_shift_matrix(4, 1)
    assert u1 == ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
    u2 = double_shift_matrix(6, 2)
    assert u2[4, 2] == 1 and u2[5, 3] == 1 and u2[2, 0] == 0
    with pytest.raises(ValueError):
        double_shift_matrix(4, 2)
    with pytest.raises(ValueError, match="needs n >= 3"):
        double_shift_matrix(2, 1)


def test_unit_triangular_kinds_have_determinant_one():
    for n in range(2, 9):
        for k in range(1, n):
            assert row_shift_matrix(n, k).determinant() == 1
    for n in range(3, 9):
        for k in range(1, (n + 1) // 2):
            assert double_shift_matrix(n, k).determinant() == 1
    for n in range(1, 9):
        assert build(MatrixSpec(MatrixKind.LOWER_HALVING, n=n)).determinant() == 1
        assert build(MatrixSpec(MatrixKind.BIDIAGONAL, n=n)).determinant() == 1
        assert build(MatrixSpec(MatrixKind.PASCAL, n=n)).determinant() == 1


def _same_entries(got, want):
    """got equals want, and each entry of got reads as an int exactly when
    its value is one (a Fraction otherwise), whatever type want holds."""
    assert got == want
    assert [type(got[i, j]) for i in range(got.rows) for j in range(got.cols)] == \
        [int if Fraction(want[i, j]).denominator == 1 else Fraction
         for i in range(want.rows) for j in range(want.cols)]


# every integral value both as an int and as an int-valued Fraction, so the
# affine builds take both the int-node path and the common-denominator path
AFFINE_TEST_SLOPES = (-2, -1, 0, 1, 2, 3, Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
                      Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1, 2))
AFFINE_TEST_OFFSETS = (-1, 0, 1, 2, Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
                       Fraction(1, 3))


def test_closure_free_builders_match_their_entry_definitions():
    for n in range(1, 13):
        _same_entries(ExactMatrix.identity(n), from_fn(n, n, lambda i, j: 1 if i == j else 0))
        _same_entries(build(MatrixSpec(MatrixKind.BIDIAGONAL, n=n)),
                      from_fn(n, n, lambda i, j: 1 if i == j or i == j + 1 else 0))
        _same_entries(build(MatrixSpec(MatrixKind.PASCAL, n=n)),
                      from_fn(n, n, lambda i, j: binomial(i - 1, j - 1)))
        _same_entries(build(MatrixSpec(MatrixKind.BINOM_ODD, n=n)),
                      from_fn(n + 1, n + 1, lambda i, j: binomial(2 * j - 1, i - 1)))
        _same_entries(build(MatrixSpec(MatrixKind.BINOM_EVEN, n=n)),
                      from_fn(n + 1, n + 1, lambda i, j: binomial(2 * j, i - 1)))
        _same_entries(build(MatrixSpec(MatrixKind.LOWER_HALVING, n=n)), from_fn(
            n, n, lambda i, j: Fraction((-1) ** (i - j) * binomial(2 * i - j - 1, i - j),
                                        2 ** (i - j)) if j <= i else 0))
        _same_entries(build(MatrixSpec(MatrixKind.SCALED_PASCAL, n=n)),
                      from_fn(n, n, lambda i, j: 2 ** (i - 1) * binomial(j - 1, i - 1)))
        nodes = tuple(Fraction(3 * j - 17, 1 + j % 3) for j in range(n))
        _same_entries(build(MatrixSpec(MatrixKind.BINOM_NODES, nodes=nodes)),
                      from_fn(n, n, lambda i, j: binomial(nodes[j - 1], i - 1)))
        for a in AFFINE_TEST_SLOPES:
            for b in AFFINE_TEST_OFFSETS:
                _same_entries(build(MatrixSpec(MatrixKind.BINOM_AFFINE, n=n, a=a, b=b)),
                              from_fn(n, n, lambda i, j: binomial(a * j + b, i - 1)))
        for k in range(1, n):
            _same_entries(row_shift_matrix(n, k), from_fn(
                n, n, lambda i, j: 1 if i == j or (i == j + 1 and i >= k + 1) else 0))
        for k in range(1, (n + 1) // 2):
            _same_entries(double_shift_matrix(n, k), from_fn(
                n, n, lambda i, j: 1 if i == j or (i == j + 2 and i >= 2 * k + 1) else 0))


def test_lower_halving_entries():
    t = build(MatrixSpec(MatrixKind.LOWER_HALVING, n=3))
    assert t[2, 1] == Fraction(-3, 2)
    assert t[0, 0] == 1 and t[1, 1] == 1 and t[0, 2] == 0
    assert t[1, 0] == -1


def test_scaled_pascal_is_upper_triangular_with_power_diagonal():
    g = build(MatrixSpec(MatrixKind.SCALED_PASCAL, n=5))
    for i in range(5):
        assert g[i, i] == 2 ** i
        for j in range(i):
            assert g[i, j] == 0


def test_binom_odd_small_instance():
    b = build(MatrixSpec(MatrixKind.BINOM_ODD, n=1))
    assert b == ExactMatrix([[1, 1], [1, 3]])
    assert b.determinant() == 2


def test_binom_even_small_instance():
    c = build(MatrixSpec(MatrixKind.BINOM_EVEN, n=1))
    assert c == ExactMatrix([[1, 1], [2, 4]])
    assert c.determinant() == 2


def test_det_identity_binomial_families():
    for n in range(1, 7):
        assert det_identity(MatrixSpec(MatrixKind.BINOM_ODD, n=n)).passed
        assert det_identity(MatrixSpec(MatrixKind.BINOM_EVEN, n=n)).passed


def test_det_identity_affine():
    for a in (-2, -1, 1, 2, 3, Fraction(1, 2)):
        for b in (-1, 0, 1, 2):
            for n in (1, 2, 4):
                rep = det_identity(MatrixSpec(MatrixKind.BINOM_AFFINE, n=n, a=a, b=b))
                assert rep.passed, rep.line()


def test_det_identity_affine_zero_slope():
    # degenerate slope: all columns equal, determinant 0 for n >= 2
    rep = det_identity(MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=0, b=2))
    assert rep.passed and rep.computed == "0"
    rep = det_identity(MatrixSpec(MatrixKind.BINOM_AFFINE, n=1, a=0, b=2))
    assert rep.passed and rep.computed == "1"


def test_det_identity_nodes():
    rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=(1, 3, 5)))
    assert rep.passed
    rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=(2, 2, 6)))
    assert rep.passed and rep.computed == "0"
    rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=(Fraction(1, 2), Fraction(-3, 4))))
    assert rep.passed


@pytest.mark.parametrize("spec, message", [
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, b=1), "binom-affine needs a and b"),
    (MatrixSpec(MatrixKind.BINOM_NODES), "binom-nodes needs a nonempty node tuple"),
])
def test_det_identity_validates_the_spec_before_its_closed_form(spec, message):
    with pytest.raises(ValueError, match=message):
        det_identity(spec)


@pytest.mark.parametrize("spec", [
    MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=1.5, b=0),
    MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=1, b=0.5),
    MatrixSpec(MatrixKind.BINOM_NODES, nodes=(Fraction(1, 2), 2.5, 3)),
], ids=["affine-a", "affine-b", "nodes"])
def test_float_binomial_inputs_raise_a_type_error_naming_float(spec):
    for op in (build, det_closed_form, det_identity):
        with pytest.raises(TypeError, match="must be int or Fraction, not float"):
            op(spec)


@pytest.mark.parametrize("bad", ["3", complex(2, 0)], ids=repr)
def test_det_closed_form_refuses_an_affine_a_or_b_that_is_not_rational(bad):
    name = type(bad).__name__
    for spec in (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=bad, b=0),
                 MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=2, b=bad)):
        for op in (build, det_closed_form):
            with pytest.raises(TypeError, match=f"must be int or Fraction, not {name}$"):
                op(spec)


# (params, expected, computed) of det_identity, as rendered before the
# closed form and the determinant reached the report without Fraction round trips
@pytest.mark.parametrize("spec, params, rendered", [
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=Fraction(2), b=0),
     {"kind": "binom-affine", "n": 3, "a": "2", "b": "0"}, "8"),
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=Fraction(-2), b=1),
     {"kind": "binom-affine", "n": 3, "a": "-2", "b": "1"}, "-8"),
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=2, a=3, b=1),
     {"kind": "binom-affine", "n": 2, "a": "3", "b": "1"}, "3"),
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=Fraction(1, 2), b=1),
     {"kind": "binom-affine", "n": 3, "a": "1/2", "b": "1"}, "1/8"),
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=4, a=Fraction(-1, 2), b=Fraction(1, 3)),
     {"kind": "binom-affine", "n": 4, "a": "-1/2", "b": "1/3"}, "1/64"),
    (MatrixSpec(MatrixKind.BINOM_NODES, nodes=(2, 2, 6)),
     {"kind": "binom-nodes", "nodes": "2,2,6"}, "0"),
    (MatrixSpec(MatrixKind.BINOM_NODES, nodes=(Fraction(1, 2), 2, Fraction(7, 3), 4)),
     {"kind": "binom-nodes", "nodes": "1/2,2,7/3,4"}, "385/432"),
    (MatrixSpec(MatrixKind.BINOM_ODD, n=3), {"kind": "binom-odd", "n": 3}, "64"),
    (MatrixSpec(MatrixKind.BINOM_EVEN, n=4), {"kind": "binom-even", "n": 4}, "1024"),
], ids=["affine-int-valued-fraction", "affine-negative", "affine-int", "affine-half",
        "affine-rational", "nodes-repeated", "nodes-rational", "odd", "even"])
def test_det_identity_renders_as_before(spec, params, rendered):
    rep = det_identity(spec)
    assert (rep.check, rep.params, rep.expected, rep.computed, rep.passed, rep.note) == (
        "det-closed-form", params, rendered, rendered, True, "")
    assert rep.line() == (f"det-closed-form [{', '.join(f'{k}={v}' for k, v in params.items())}]: "
                          f"expected {rendered}, computed {rendered} -> pass")


def test_det_closed_form_undefined_for_unit_kinds():
    with pytest.raises(ValueError):
        det_closed_form(MatrixSpec(MatrixKind.PASCAL, n=3))


def test_build_validation():
    with pytest.raises(ValueError):
        build(MatrixSpec(MatrixKind.ROW_SHIFT, n=4))
    with pytest.raises(ValueError):
        build(MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=2))
    with pytest.raises(ValueError):
        build(MatrixSpec(MatrixKind.BINOM_NODES))
    with pytest.raises(ValueError):
        build(MatrixSpec(MatrixKind.PASCAL, n=0))


@pytest.mark.parametrize("spec, unread", [
    (MatrixSpec(MatrixKind.PASCAL, n=3, k=2), "pascal does not take k"),
    (MatrixSpec(MatrixKind.BINOM_NODES, nodes=(1, 2, 4), a=3), "binom-nodes does not take a"),
    (MatrixSpec(MatrixKind.BINOM_NODES, n=3, nodes=(1, 2)), "binom-nodes does not take n"),
    (MatrixSpec(MatrixKind.BINOM_ODD, n=2, a=0, b=1), "binom-odd does not take a, b"),
    (MatrixSpec(MatrixKind.ROW_SHIFT, n=3, k=1, nodes=()), "row-shift does not take nodes"),
    (MatrixSpec(MatrixKind.BINOM_AFFINE, n=3, a=1, b=0, k=1), "binom-affine does not take k"),
])
def test_build_rejects_fields_its_kind_does_not_read(spec, unread):
    with pytest.raises(ValueError, match=unread):
        build(spec)


def test_pascal_product_matches_closed_form():
    for n in range(2, 10):
        assert pascal_product(n) == build(MatrixSpec(MatrixKind.PASCAL, n=n))
        assert verify_pascal_product(n).passed
    with pytest.raises(ValueError):
        pascal_product(1)


def test_pascal_product_smallest_case():
    assert pascal_product(2) == ExactMatrix([[1, 0], [1, 1]])


def test_triangularization_and_even_from_odd():
    for n in range(1, 8):
        rep = verify_triangularization(n)
        assert rep.passed, rep.line()
        rep = verify_even_from_odd(n)
        assert rep.passed, rep.line()


def test_triangularization_two_by_two_detail():
    t = build(MatrixSpec(MatrixKind.LOWER_HALVING, n=2))
    assert t == ExactMatrix([[1, 0], [-1, 1]])
    b = build(MatrixSpec(MatrixKind.BINOM_ODD, n=1))
    assert t @ b == ExactMatrix([[1, 1], [0, 2]])
