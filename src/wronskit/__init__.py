"""Exact verification of Wronskian and binomial-determinant identities for
the derivative families of x^n sin x and x^n cos x.

Everything is computed over the integers, the rationals, or the quotient ring
Q[x, s, c]/(s^2 + c^2 - 1); no floating point enters any result.
"""

from .combinatorics import (
    binomial,
    check_even_binomial_sum,
    check_odd_binomial_sum,
    falling_factorial,
)
from .independence import (
    ChainSpec,
    binomial_pattern_matrix,
    coordinate_basis,
    coordinate_matrix,
    coordinates_in_basis,
    ladder_wronskian,
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
from .matrix import ExactMatrix, first_difference
from .report import VerificationReport
from .structured import (
    MatrixKind,
    MatrixSpec,
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
from .trigring import (
    Trig,
    TrigPoly,
    differentiate,
    harmonic_step,
    is_constant,
    ladder_rung,
)

__all__ = [
    "ChainSpec",
    "ExactMatrix",
    "MatrixKind",
    "MatrixSpec",
    "Trig",
    "TrigPoly",
    "VerificationReport",
    "binomial",
    "binomial_pattern_matrix",
    "build",
    "check_even_binomial_sum",
    "check_odd_binomial_sum",
    "coordinate_basis",
    "coordinate_matrix",
    "coordinates_in_basis",
    "det_closed_form",
    "det_identity",
    "differentiate",
    "double_shift_matrix",
    "falling_factorial",
    "first_difference",
    "harmonic_step",
    "is_constant",
    "ladder_rung",
    "ladder_wronskian",
    "pascal_product",
    "row_shift_matrix",
    "scaled_coordinate_matrix",
    "two_by_two",
    "verify_basis_columns",
    "verify_dependence",
    "verify_even_from_odd",
    "verify_even_hankel_transform",
    "verify_full_rank",
    "verify_pascal_product",
    "verify_row_shift",
    "verify_triangularization",
    "verify_wronskian_factorization",
    "verify_wronskian_transform",
    "wronskian_hankel",
]
