"""End-to-end acceptance checks.

Each test covers one guaranteed behaviour at its stated time budget and
prints a single pass/fail line (run with ``pytest -s`` to see them).
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from wronskit import (
    ChainSpec,
    ExactMatrix,
    MatrixKind,
    MatrixSpec,
    Trig,
    basis_element,
    check_even_binomial_sum,
    check_odd_binomial_sum,
    conjugated_wronskian,
    coordinate_matrix,
    det_identity,
    differentiate,
    harmonic_step,
    is_constant,
    ladder_rung,
    ladder_wronskian,
    scaled_coordinate_matrix,
    trigring,
    verify_dependence,
    verify_even_from_odd,
    verify_even_hankel_transform,
    verify_full_rank,
    verify_pascal_product,
    verify_triangularization,
    verify_wronskian_factorization,
    verify_wronskian_transform,
    wronskian_hankel,
)
from wronskit.cli import SuiteConfig, run_checks
from oracles import (
    central_difference,
    determinant_by_permutations,
    eval_exact,
    eval_float,
    random_distinct_rationals,
    random_trigpoly,
)


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    assert elapsed <= budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


GOLDEN_COORDINATES_N4 = ExactMatrix([
    [1, 0, -1, 0, 1, 0, -1, 0, 1, 0],
    [0, -1, 0, 1, 0, -1, 0, 1, 0, -1],
    [4, 0, -12, 0, 20, 0, -28, 0, 36, 0],
    [0, 8, 0, -16, 0, 24, 0, -32, 0, 40],
    [0, 0, 36, 0, -120, 0, 252, 0, -432, 0],
    [0, 12, 0, -72, 0, 180, 0, -336, 0, 540],
    [0, 0, 24, 0, -240, 0, 840, 0, -2016, 0],
    [0, 0, 0, 96, 0, -480, 0, 1344, 0, -2880],
    [0, 0, 0, 0, 120, 0, -840, 0, 3024, 0],
    [0, 0, 0, 24, 0, -360, 0, 1680, 0, -5040],
])


def test_golden_coordinate_matrix():
    with criterion("golden-coordinate-matrix", 1.0):
        assert coordinate_matrix(4) == GOLDEN_COORDINATES_N4


def test_coordinate_matrix_full_rank():
    with criterion("coordinate-full-rank", 5.0):
        for n in range(1, 7):
            assert coordinate_matrix(n).rank() == 2 * n + 2


def test_binomial_determinants_closed_form():
    with criterion("binomial-determinants", 5.0):
        for n in range(1, 9):
            power = str(2 ** (n * (n + 1) // 2))
            for kind in (MatrixKind.BINOM_ODD, MatrixKind.BINOM_EVEN):
                rep = det_identity(MatrixSpec(kind, n=n))
                assert rep.passed, rep.line()
                assert rep.expected == power


def test_scaled_matrix_determinant_factorizes():
    with criterion("scaled-determinant-split", 5.0):
        for n in range(1, 13):
            scaled = scaled_coordinate_matrix(coordinate_matrix(n), n)
            odd, even = scaled.interleave_split()
            det = scaled.determinant()
            assert det == odd.determinant() * even.determinant()
            assert det == 2 ** (n * (n + 1))
            rep = verify_full_rank(n)
            assert rep.passed, rep.line()
            assert f"n(n+1) = {n * (n + 1)}" in rep.note
            assert "n(n-1)" in rep.note and "inconsistent" in rep.note
        for n in range(13, 21):
            rep = verify_full_rank(n)
            assert rep.passed and rep.computed == f"rank {2 * n + 2}", rep.line()


def test_odd_binomial_sum_identity():
    with criterion("odd-binomial-sum", 2.0):
        reports = [check_odd_binomial_sum(n, j)
                   for n in range(1, 13) for j in range(1, 13)]
        assert len(reports) == 144
        assert all(r.passed for r in reports)


def test_even_binomial_sum_instances():
    with criterion("even-binomial-sum", 2.0):
        reports = [check_even_binomial_sum(n, j)
                   for n in range(1, 11) for j in range(1, 11)]
        assert len(reports) == 100
        assert all(r.passed for r in reports)
        assert all("unproved" in r.note for r in reports)


def test_pascal_product():
    with criterion("pascal-product", 2.0):
        for n in range(2, 13):
            rep = verify_pascal_product(n)
            assert rep.passed, rep.line()


def test_pascal_product_at_n_100():
    with criterion("pascal-product-100", 2.0):
        rep = verify_pascal_product(100)
        assert rep.passed, rep.line()


def test_triangularization_at_n_100():
    with criterion("binom-triangularization-100", 2.0):
        rep = verify_triangularization(100)
        assert rep.passed, rep.line()


def test_triangularization_at_n_200():
    # 0.75 to 1.2 s on a shared 2-core container, nearly all of it the product
    with criterion("binom-triangularization-200", 3.0):
        rep = verify_triangularization(200)
        assert rep.passed, rep.line()


def test_cli_lower_halving_json_at_n_200():
    # about 0.16 s per process on a shared 2-core container: interpreter
    # start, import, and 20100 nonzero entries rendered from numerator rows
    with criterion("cli-lower-halving-200-json", 2.0):
        proc = subprocess.run(
            [sys.executable, "-m", "wronskit", "matrix", "--kind", "lower-halving", "--n", "200", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["rows"], doc["cols"]) == (200, 200)
    entries = doc["entries"]
    assert entries[:2] == ["1", "0"] and entries[200:202] == ["-1", "1"]
    # row 200, column 1: (-1/2)^199 C(398, 199)
    assert Fraction(entries[199 * 200]) == Fraction(-math.comb(398, 199), 2 ** 199)
    assert sum(v != "0" for v in entries) == 200 * 201 // 2


def test_even_from_odd_at_n_100():
    with criterion("binom-even-from-odd-100", 2.0):
        rep = verify_even_from_odd(100)
        assert rep.passed, rep.line()


def test_full_rank_at_n_60():
    with criterion("coordinate-full-rank-60", 5.0):
        rep = verify_full_rank(60)
        assert rep.passed and rep.computed == "rank 122", rep.line()


def test_coords_suite_to_n_40():
    with criterion("coords-suite-40", 5.0):
        reports, _ = run_checks(SuiteConfig(suites=("coords",), max_n=40))
        assert len(reports) == 80
        assert all(rep.passed for _, rep in reports), [rep.line() for _, rep in reports if not rep.passed]


def test_cli_pascal_suite_to_n_60():
    with criterion("cli-pascal-60", 10.0):
        proc = subprocess.run(
            [sys.executable, "-m", "wronskit", "verify", "--suite", "pascal", "--max-n", "60"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_node_determinants():
    with criterion("node-determinants", 2.0):
        rng = random.Random(20260817)
        for i in range(30):
            nodes = random_distinct_rationals(rng, 2 + i % 5)
            rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=nodes))
            assert rep.passed, rep.line()
        repeated = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=(2, 2, 6)))
        assert repeated.passed and repeated.expected == "0"
        # dense non-integer nodes, halves beside thirds: every entry is
        # nonzero, so the Bareiss elimination on the scaled integer rows does
        # its full O(n^3) work, at order 18 and at order 40
        dense = tuple(Fraction(k, 2) for k in range(1, 20, 2)) + tuple(
            Fraction(k, 3) for k in (1, 2, 4, 5, 7, 8, 10, 11))
        rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=dense))
        assert len(dense) == 18 and rep.passed, rep.line()
        dense = tuple(Fraction(k, 2) for k in range(1, 40, 2)) + tuple(
            Fraction(k, 3) for k in range(1, 31) if k % 3)
        rep = det_identity(MatrixSpec(MatrixKind.BINOM_NODES, nodes=dense))
        assert len(set(dense)) == 40 and rep.passed, rep.line()


def test_affine_determinants():
    with criterion("affine-determinants", 2.0):
        for n in range(1, 8):
            for a in (-2, -1, 1, 2, 3, Fraction(1, 2)):
                for b in (-1, 0, 1, 2):
                    rep = det_identity(MatrixSpec(MatrixKind.BINOM_AFFINE, n=n, a=a, b=b))
                    assert rep.passed, rep.line()
        rep = det_identity(MatrixSpec(MatrixKind.BINOM_AFFINE, n=40, a=Fraction(1, 2), b=1))
        assert rep.passed and rep.expected == str(Fraction(1, 2 ** math.comb(40, 2))), rep.line()


def test_wronskian_factorization():
    with criterion("wronskian-factorization", 60.0):
        for n in range(0, 9):
            for shift in (0, 1, 2):
                for kind in (Trig.SIN, Trig.COS):
                    rep = verify_wronskian_factorization(n, shift, kind)
                    assert rep.passed, rep.line()
        # the north-star sizes: orders 42, 62 and 76, the largest whose value
        # (4125 digits) CPython renders by default
        for n in (20, 30, 37):
            for shift, kind in ((0, Trig.SIN), (2, Trig.COS)):
                rep = verify_wronskian_factorization(n, shift, kind)
                assert rep.passed, rep.line()
        # spot values against a brute-force expansion of the same matrices
        w0 = wronskian_hankel(ChainSpec(0, 0, Trig.SIN, 2))
        assert w0.determinant() == determinant_by_permutations(w0) == -1
        w1 = wronskian_hankel(ChainSpec(1, 0, Trig.SIN, 4))
        assert w1.determinant() == determinant_by_permutations(w1) == 16
        # the conjugation and the ladder keep the determinant of the plain Hankel
        # grid, at the threshold 2n+2, one past it, and below it where the value
        # is not constant
        specs = [ChainSpec(n, shift, kind, 2 * n + 2)
                 for n in range(4) for shift in (0, 1, 2) for kind in (Trig.SIN, Trig.COS)]
        specs += [ChainSpec(n, 0, Trig.SIN, 2 * n + 3) for n in range(3)]
        specs += [ChainSpec(2, 1, Trig.SIN, 3), ChainSpec(3, 0, Trig.COS, 5)]
        for spec in specs:
            want = wronskian_hankel(spec).determinant()
            for form in (conjugated_wronskian(spec), ladder_wronskian(spec)):
                assert form.determinant() == want, spec
                if spec.count <= 6:
                    assert determinant_by_permutations(form) == want, spec
        assert all(is_constant(conjugated_wronskian(spec).determinant()) is None for spec in specs[-2:])


def test_wronskian_dependence():
    with criterion("wronskian-dependence", 60.0):
        for n in (*range(0, 9), 20, 30, 37):
            for kind in (Trig.SIN, Trig.COS):
                rep = verify_dependence(n, kind)
                assert rep.passed, rep.line()
                assert rep.expected == "0"


def test_ladder_determinants_past_the_digit_limit():
    # compared as ints, so no value is rendered; n = 100 is an order-202 determinant
    with criterion("ladder-determinants-n60-n100", 60.0):
        for n in (60, 100):
            for spec, want in ((ChainSpec(n, 2, Trig.COS, 2 * n + 2),
                                (-1) ** (n + 1) * (2 ** n * math.factorial(n)) ** (2 * n + 2)),
                               (ChainSpec(n, 0, Trig.SIN, 2 * n + 3), 0)):
                trigring.ladder_rung.cache_clear()
                det = ladder_wronskian(spec).determinant()
                assert det == want, spec


def test_wronskian_at_a_shift_of_a_billion():
    # every rung is one closed form, so no derivative order below the shift is built
    with criterion("wronskian-shift-1e9", 1.0):
        proc = subprocess.run(
            [sys.executable, "-m", "wronskit", "wronskian", "--n", "3", "--shift", "1000000000"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith(": 28179280429056")  # (2^3 3!)^8


def test_wronskian_suite_at_a_large_shift():
    with criterion("wronskian-suite-shift-30000", 2.0):
        proc = subprocess.run(
            [sys.executable, "-m", "wronskit", "verify", "--suite", "wronskian", "--max-n", "4",
             "--shifts", "0,30000"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        aggregate = json.loads(proc.stdout)["aggregate"]
        assert aggregate["total"] == aggregate["passed"] == 86, aggregate


def test_hankel_and_wronskian_transforms():
    with criterion("grid-transforms", 30.0):
        for steps in (1, 2, 3):
            for shift in (0, 1, 2):
                for n in (1, 2, 3):
                    for kind in (Trig.SIN, Trig.COS):
                        rep = verify_even_hankel_transform(steps, shift, n, kind)
                        assert rep.passed, rep.line()
        for n in (1, 2, 3):
            for kind in (Trig.SIN, Trig.COS):
                rep = verify_wronskian_transform(n, kind)
                assert rep.passed, rep.line()


def test_reference_witnesses():
    # the literal S W S^T at orders 24 and 60 (slots of about 60 bits), and a
    # 9 x 9 even-Hankel grid conjugated with both determinants taken by the
    # subset DP over the ring
    with criterion("reference-witnesses", 10.0):
        for rep in (verify_wronskian_transform(12), verify_wronskian_transform(12, Trig.COS),
                    verify_wronskian_transform(30), verify_wronskian_transform(30, Trig.COS),
                    verify_even_hankel_transform(8, 2, 8, Trig.COS)):
            assert rep.passed and rep.computed == "ok", rep.line()


def test_ring_correctness():
    with criterion("ring-correctness", 10.0):
        rng = random.Random(13)
        for _ in range(100):
            u = random_trigpoly(rng)
            v = random_trigpoly(rng)
            assert differentiate(u * v) == differentiate(u) * v + u * differentiate(v)
        for n in range(0, 7):
            for kind in (Trig.SIN, Trig.COS):
                u = basis_element(n, kind)
                for _ in range(n + 1):
                    assert u != 0
                    u = harmonic_step(u)
                assert u == 0
        at_zero = (Fraction(0), Fraction(0), Fraction(1))  # x = 0, s = 0, c = 1
        for n in range(0, 7):
            for k in range(n + 1):
                assert eval_exact(ladder_rung(n, Trig.SIN, k, 0), *at_zero) == 0
            assert eval_exact(ladder_rung(n, Trig.SIN, n + 1, 0), *at_zero) == math.factorial(n + 1)
        rng = random.Random(20260817)
        for _ in range(20):
            u = random_trigpoly(rng)
            du = differentiate(u)
            for x0 in (0.3, 0.7, 1.1):
                exact = eval_float(du, x0)
                approx = central_difference(u, x0, step=1e-5)
                assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_cli_end_to_end_determinism(tmp_path):
    with criterion("cli-determinism", 180.0):
        outputs = []
        for name in ("first.json", "second.json"):
            target = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "wronskit", "verify", "--suite", "all",
                 "--max-n", "3", "--output", str(target)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(target.read_text())
            for record in doc["records"]:
                record.pop("millis", None)
            doc["aggregate"].pop("duration", None)
            outputs.append(doc)
        assert outputs[0] == outputs[1]
        assert outputs[0]["aggregate"]["failed"] == 0
        assert outputs[0]["aggregate"]["total"] == outputs[0]["aggregate"]["passed"]


def _stripped_report_digest(suites: str, max_n: str, records: int) -> str:
    """sha256 of the JSON report of `verify --suite <suites> --max-n <max_n>`,
    with every record's "millis" and the aggregate "duration" removed,
    dumped with sorted keys; the report must hold ``records`` records."""
    proc = subprocess.run(
        [sys.executable, "-m", "wronskit", "verify", "--suite", suites, "--max-n", max_n],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for record in doc["records"]:
        record.pop("millis", None)
    doc["aggregate"].pop("duration", None)
    assert len(doc["records"]) == records
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# The digests pin every report string, so a faster route through the
# rational layers or the symbolic witnesses cannot change a report
# unnoticed.  Regenerate one only for a deliberate change of the reports.
# `verify --suite identities,open-identity,determinants,pascal,coords --max-n 10`
GOLDEN_RATIONAL_REPORT_SHA256 = "9627e809e754283acfe0a32c7d2f8898f9fd11b6a76e86ab228800c3c9853492"
# `verify --suite wronskian --max-n 12`
GOLDEN_WRONSKIAN_REPORT_SHA256 = "3e1687ea47e79ed5e4dbe1eaeb75e50671186b19e52366ce82d7c8ee38c4db1f"


def test_golden_rational_report_digest():
    with criterion("golden-rational-report", 10.0):
        digest = _stripped_report_digest("identities,open-identity,determinants,pascal,coords", "10", 514)
        assert digest == GOLDEN_RATIONAL_REPORT_SHA256


def test_golden_wronskian_report_digest():
    with criterion("golden-wronskian-report", 10.0):
        assert _stripped_report_digest("wronskian", "12", 344) == GOLDEN_WRONSKIAN_REPORT_SHA256
