"""Seeded inputs and known answers for the wronskit benchmark.

This module never imports wronskit.  Every input is plain data, a check name
and a parameter dict shaped like the ``params`` of the program's reports, and
every known answer is a closed form computed here, so a wrong ``computed``
string from the program cannot also make its own answer key wrong.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

WORKLOADS = ("wronskian-symbolic", "rational-linalg", "cli-verify")

# Held-out seed: later performance claims are confirmed on it after being
# developed against the others.
HELD_OUT_SEED = 20230519

KINDS = ("sin", "cos")

# The CLI's fixed affine grid and node tuples; the last tuple repeats a node,
# so its determinant is 0.
AFFINE_SLOPES = (-2, -1, 1, 2, 3, Fraction(1, 2))
AFFINE_OFFSETS = (-1, 0, 1, 2)
NODE_TUPLES = (
    (1, 3, 5),
    (0, 2, 7, 11),
    (Fraction(1, 2), 2, Fraction(7, 3), 4),
    (-3, -1, 2, 5, 8),
    (2, 2, 6),
)

# Dense binom-nodes determinants: two seeded tuples of each order.
DENSE_ORDERS = (10, 11, 12, 13, 14)
DENSE_PER_ORDER = 2

CLI_NODES = "1,3/2,4,-2,7/3,5,11/4,-5"
CLI_COMMANDS = (
    ("verify", "--suite", "all", "--max-n", "2"),
    ("verify", "--suite", "all", "--max-n", "2", "--format", "markdown"),
    ("wronskian", "--n", "3"),
    ("matrix", "--kind", "binom-nodes", "--nodes", CLI_NODES),
    ("identity", "--which", "even", "--n", "6", "--j", "9"),
)

Check = tuple[str, dict]


def wronskian_symbolic_checks() -> list[Check]:
    out: list[Check] = []
    for n in range(5):
        for shift in range(3):
            for kind in KINDS:
                out.append(("wronskian-factorization", {"n": n, "shift": shift, "kind": kind}))
    for n in range(4):
        for kind in KINDS:
            out.append(("wronskian-dependence", {"n": n, "kind": kind}))
    for steps in (1, 2, 3):
        for shift in range(3):
            for n in range(1, 5):
                for kind in KINDS:
                    out.append(("even-hankel-transform",
                                {"steps": steps, "shift": shift, "n": n, "kind": kind}))
    for n in range(1, 5):
        for kind in KINDS:
            out.append(("wronskian-transform", {"n": n, "kind": kind}))
    return out


def dense_nodes(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Distinct non-integer rationals with denominators 2..6, so no
    C(x_j, i-1) entry vanishes and the determinant is nonzero."""
    nodes: list[Fraction] = []
    while len(nodes) < size:
        x = Fraction(rng.randint(-30, 30), rng.randint(2, 6))
        if x.denominator > 1 and x not in nodes:
            nodes.append(x)
    return tuple(nodes)


def rational_linalg_checks(rng: random.Random) -> list[Check]:
    out: list[Check] = []
    for size in DENSE_ORDERS:
        for _ in range(DENSE_PER_ORDER):
            out.append(("det-closed-form", {"kind": "binom-nodes", "nodes": dense_nodes(rng, size)}))
    for nodes in NODE_TUPLES:
        out.append(("det-closed-form", {"kind": "binom-nodes", "nodes": tuple(map(Fraction, nodes))}))
    for n in range(1, 13):
        out.append(("det-closed-form", {"kind": "binom-odd", "n": n}))
        out.append(("det-closed-form", {"kind": "binom-even", "n": n}))
    for n in range(1, 11):
        for a in AFFINE_SLOPES:
            for b in AFFINE_OFFSETS:
                out.append(("det-closed-form",
                            {"kind": "binom-affine", "n": n, "a": Fraction(a), "b": Fraction(b)}))
    for n in range(1, 9):
        out.append(("coordinate-full-rank", {"n": n}))
    for n in range(2, 30):
        out.append(("pascal-product", {"n": n}))
    for n in range(1, 20):
        out.append(("binom-triangularization", {"n": n}))
        out.append(("binom-even-from-odd", {"n": n}))
    for n in range(1, 13):
        for j in range(1, 13):
            out.append(("odd-binomial-sum", {"n": n, "j": j}))
            out.append(("even-binomial-sum", {"n": n, "j": j}))
    return out


def checks(workload: str, seed: int) -> list[Check]:
    """The input list of a check workload in its fixed order.  The content is
    fixed, except that for rational-linalg the seed draws the dense nodes;
    the order a pass runs it in is ``pass_order``."""
    if workload == "wronskian-symbolic":
        return wronskian_symbolic_checks()
    if workload == "rational-linalg":
        return rational_linalg_checks(random.Random(seed))
    raise ValueError(f"{workload} is not a check workload")


def pass_order(count: int, seed: int, pass_index: int) -> list[int]:
    """The order, as indices into ``checks``, in which pass ``pass_index`` of a
    run with this seed performs its checks: a seeded shuffle, drawn afresh for
    every pass.  Each pass fills the program's caches again, and the checks
    that pay for the filling are the first to need an entry; a new order per
    pass spreads that cost over the checks instead of fixing it on the few
    that one order puts first."""
    order = list(range(count))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


def cli_commands(seed: int) -> list[tuple[str, ...]]:
    """The fixed CLI command mix in seeded order."""
    out = list(CLI_COMMANDS)
    random.Random(seed).shuffle(out)
    return out


def _nodes(value) -> tuple[Fraction, ...]:
    if isinstance(value, str):
        return tuple(Fraction(part) for part in value.split(","))
    return tuple(Fraction(x) for x in value)


def vandermonde_over_superfactorial(nodes: tuple[Fraction, ...]) -> Fraction:
    num = Fraction(1)
    for i, xi in enumerate(nodes):
        for xj in nodes[i + 1:]:
            num *= xj - xi
    den = 1
    for k in range(1, len(nodes)):
        den *= math.factorial(k)
    return num / den


def known_answer(check: str, params: dict) -> str:
    """The ``computed`` string a correct program reports for this check.

    ``params`` may hold typed values (as generated here) or the strings a
    JSON or markdown report carries.
    """
    if check == "wronskian-factorization":
        n = int(params["n"])
        return str((-1) ** (n + 1) * (2 ** n * math.factorial(n)) ** (2 * n + 2))
    if check == "wronskian-dependence":
        return "0"
    if check == "det-closed-form":
        kind = str(params["kind"])
        if kind in ("binom-odd", "binom-even"):
            return str(2 ** math.comb(int(params["n"]) + 1, 2))
        if kind == "binom-affine":
            return str(Fraction(str(params["a"])) ** math.comb(int(params["n"]), 2))
        if kind == "binom-nodes":
            return str(vandermonde_over_superfactorial(_nodes(params["nodes"])))
        raise ValueError(f"no known answer for det-closed-form kind {kind}")
    if check == "coordinate-full-rank":
        return f"rank {2 * int(params['n']) + 2}"
    if check in ("odd-binomial-sum", "even-binomial-sum"):
        n, j = int(params["n"]), int(params["j"])
        return str(2 ** (n - 1) * math.comb(j - 1, n - 1))
    if check in ("pascal-product", "binom-triangularization", "binom-even-from-odd",
                 "even-hankel-transform", "wronskian-transform", "coordinate-columns"):
        return "ok"
    raise ValueError(f"no known answer for check {check}")


_REPORT_LINE = re.compile(r"expected (\S+), computed (\S+) -> (pass|FAIL)")


def _json_records(text: str) -> list[tuple[str, str, dict, str, bool]]:
    doc = json.loads(text)
    return [(r["suite"], r["check"], r["params"], r["computed"], r["pass"]) for r in doc["records"]]


def _markdown_records(text: str) -> list[tuple[str, str, dict, str, bool]]:
    out = []
    suite = None
    for line in text.splitlines():
        if line.startswith("## "):
            suite = line[3:].strip()
            continue
        if not line.startswith("| ") or line.startswith("| check |"):
            continue
        check, params, _expected, computed, verdict, _millis = (
            cell.strip() for cell in line.strip().strip("|").split("|"))
        out.append((suite, check, dict(kv.split("=", 1) for kv in params.split(", ")),
                    computed, verdict == "pass"))
    return out


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def cli_failures(argv: tuple[str, ...], exit_code: int, stdout: str) -> tuple[list[str], dict[str, int]]:
    """Problems with one CLI invocation's output, checked against the known
    answers, and the record count per suite when the command is ``verify``."""
    problems = [] if exit_code == 0 else [f"exit status {exit_code}"]
    per_suite: dict[str, int] = {}
    command = argv[0]
    try:
        if command == "verify":
            markdown = "markdown" in argv
            records = _markdown_records(stdout) if markdown else _json_records(stdout)
            if not records:
                problems.append("no records")
            for suite, check, params, computed, passed in records:
                per_suite[suite] = per_suite.get(suite, 0) + 1
                want = known_answer(check, params)
                if computed != want or not passed:
                    problems.append(f"{check} {params}: computed {computed}, known answer {want}")
        elif command == "wronskian":
            value = stdout.strip().splitlines()[-1].rsplit(": ", 1)[1]
            want = known_answer("wronskian-factorization", {"n": _flag(argv, "--n")})
            if value != want:
                problems.append(f"wronskian {value}, known answer {want}")
        else:
            if command == "matrix":
                want = known_answer("det-closed-form",
                                    {"kind": _flag(argv, "--kind"), "nodes": _flag(argv, "--nodes")})
            else:
                want = known_answer(f"{_flag(argv, '--which')}-binomial-sum",
                                    {"n": _flag(argv, "--n"), "j": _flag(argv, "--j")})
            match = _REPORT_LINE.search(stdout)
            if match is None:
                problems.append("no report line")
            elif match.group(2) != want or match.group(3) != "pass":
                problems.append(f"computed {match.group(2)}, known answer {want}")
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, per_suite
