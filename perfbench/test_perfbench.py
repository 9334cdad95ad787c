"""Tests of the benchmark's own parts: seeded inputs, known answers, output
checking and the outside-in tracer.  Run with ``python -m pytest perfbench``
from the repository root (``src`` on the import path)."""

import contextlib
import io
from fractions import Fraction

import child
import tracing
import workloads
import wronskit
import wronskit.cli
from wronskit import independence, trigring


def test_same_seed_gives_identical_inputs():
    for workload in ("wronskian-symbolic", "rational-linalg"):
        assert workloads.checks(workload, 7) == workloads.checks(workload, 7)
    assert workloads.checks("rational-linalg", 7) != workloads.checks("rational-linalg", 8)
    order = workloads.pass_order(118, 7, 0)
    assert sorted(order) == list(range(118))
    assert order == workloads.pass_order(118, 7, 0)
    assert order != workloads.pass_order(118, 7, 1)
    assert order != workloads.pass_order(118, 8, 0)
    assert workloads.cli_commands(7) == workloads.cli_commands(7)
    assert sorted(workloads.cli_commands(7)) == sorted(workloads.CLI_COMMANDS)


def test_input_lists_have_fixed_content():
    symbolic = workloads.checks("wronskian-symbolic", 1)
    assert len(symbolic) == 118
    assert sorted(map(repr, symbolic)) == sorted(map(repr, workloads.checks("wronskian-symbolic", 2)))
    assert len(workloads.checks("rational-linalg", 1)) == 641


def test_dense_nodes_are_distinct_non_integers():
    items = workloads.checks("rational-linalg", workloads.HELD_OUT_SEED)
    dense = [p["nodes"] for c, p in items if p.get("kind") == "binom-nodes" and len(p["nodes"]) >= 10]
    assert sorted(map(len, dense)) == [10, 10, 11, 11, 12, 12, 13, 13, 14, 14]
    for nodes in dense:
        assert len(set(nodes)) == len(nodes)
        assert all(x.denominator >= 2 for x in nodes)


def test_known_answers_are_the_closed_forms():
    ka = workloads.known_answer
    assert [ka("wronskian-factorization", {"n": n}) for n in range(3)] == ["-1", "16", "-262144"]
    assert ka("det-closed-form", {"kind": "binom-odd", "n": 2}) == "8"
    assert ka("det-closed-form", {"kind": "binom-affine", "n": 3, "a": Fraction(1, 2)}) == "1/8"
    assert ka("det-closed-form", {"kind": "binom-nodes", "nodes": "2,2,6"}) == "0"
    assert ka("det-closed-form", {"kind": "binom-nodes", "nodes": (1, 3, 5)}) == "8"
    assert ka("coordinate-full-rank", {"n": 3}) == "rank 8"
    assert ka("odd-binomial-sum", {"n": 3, "j": 2}) == "0"
    assert ka("even-binomial-sum", {"n": "6", "j": "9"}) == "1792"


def test_program_matches_known_answers_on_small_inputs():
    items = workloads.checks("wronskian-symbolic", 1) + workloads.checks("rational-linalg", 1)
    small = [(c, p) for c, p in items
             if p.get("n", 0) <= 2 and len(p.get("nodes", ())) <= 5]
    assert len(small) > 150
    for check, params in small:
        fn, args = child.bind(wronskit, check, params)
        report = fn(*args)
        assert report.check == check
        assert report.computed == workloads.known_answer(check, params), (check, params)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wronskit.cli.main(list(argv))
    return code, buf.getvalue()


def test_cli_outputs_are_checked_against_known_answers():
    for fmt in ("json", "markdown"):
        argv = ("verify", "--suite", "all", "--max-n", "1", "--format", fmt)
        code, out = _cli(argv)
        problems, per_suite = workloads.cli_failures(argv, code, out)
        assert problems == []
        assert per_suite["wronskian"] > 0 and per_suite["determinants"] > 0
    for argv in workloads.CLI_COMMANDS[2:]:
        code, out = _cli(argv)
        assert workloads.cli_failures(argv, code, out) == ([], {})
    argv = ("wronskian", "--n", "3")
    code, out = _cli(argv)
    problems, _ = workloads.cli_failures(argv, code, out.replace("28179280429056", "28179280429057"))
    assert problems
    assert workloads.cli_failures(argv, 1, out)[0] == ["exit status 1"]


def test_tracer_patches_every_binding_and_restores_them():
    original_diff = trigring.differentiate
    original_mul = trigring.TrigPoly.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert independence.differentiate is trigring.differentiate is not original_diff
        assert trigring.TrigPoly.__rmul__ is trigring.TrigPoly.__mul__ is not original_mul
        assert wronskit.verify_dependence is independence.verify_dependence
        assert wronskit.verify_wronskian_factorization(1).passed
        spec = wronskit.MatrixSpec(wronskit.MatrixKind.BINOM_NODES, nodes=(1, 3, 5))
        assert wronskit.det_identity(spec).passed
    finally:
        tracer.uninstall()
    assert trigring.differentiate is original_diff
    assert independence.differentiate is original_diff
    assert trigring.TrigPoly.__rmul__ is original_mul
    stats = tracer.stats
    assert tracer.missing == []
    assert stats["matrix.det_symbolic"][0] == 1 and stats["matrix.det_symbolic"][3] == 4
    assert stats["matrix.det_rational"][0] == 1 and stats["matrix.det_rational"][3] == 3
    assert stats["trigring.mul"][0] > 0 and stats["trigring.mul"][3] > 0
    assert stats["independence.verify"][0] == 1
    assert stats["report.finish_report"][0] == 2
    for calls, total, self_s, _size in stats.values():
        assert calls > 0 and 0 <= self_s <= total + 1e-9
