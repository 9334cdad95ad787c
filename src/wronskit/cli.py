"""Command line front end.

``verify`` sweeps whole suites of exact checks and writes a deterministic
JSON or markdown report; ``matrix``, ``wronskian`` and ``identity`` are
single-shot conveniences for one matrix, one symbolic Wronskian or one
identity instance.  Exit status: 0 all checks pass, 1 at least one failed,
2 bad usage or configuration, or a value with more digits than CPython renders.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections.abc import Callable
from fractions import Fraction

from .combinatorics import check_even_binomial_sum, check_odd_binomial_sum
from .independence import (
    ChainSpec,
    ladder_wronskian,
    verify_basis_columns,
    verify_dependence,
    verify_even_hankel_transform,
    verify_full_rank,
    verify_wronskian_factorization,
    verify_wronskian_transform,
    wronskian_hankel,
)
from .report import Record, VerificationReport
from .structured import (
    CLOSED_FORM_KINDS,
    MatrixKind,
    MatrixSpec,
    build,
    det_identity,
    verify_even_from_odd,
    verify_pascal_product,
    verify_triangularization,
)
from .trigring import Trig

SUITES = ("identities", "determinants", "pascal", "wronskian", "coords", "open-identity")

# fixed affine-progression grid swept by the determinants suite
AFFINE_SLOPES = (-2, -1, 1, 2, 3, Fraction(1, 2))
AFFINE_OFFSETS = (-1, 0, 1, 2)

# grid sizes minus one swept by the wronskian suite's even-grid transform check
EVEN_GRID_STEPS = (1, 2, 3)

# representative node tuples for the determinants suite; the last one has a
# repeated node, so its determinant must vanish
NODE_TUPLES = (
    (1, 3, 5),
    (0, 2, 7, 11),
    (Fraction(1, 2), 2, Fraction(7, 3), 4),
    (-3, -1, 2, 5, 8),
    (2, 2, 6),
)


# Converters from a flag's text or a config-file value to a setting; each
# also checks the value.  List settings take a JSON list or a comma string,
# the form the flags take; an int setting takes an int or its decimal text.

def _parts(value) -> list:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list):
        raise ValueError(f"expected a list or a comma string, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, str):
            out.extend(part.strip() for part in item.split(",") if part.strip())
        else:
            out.append(item)
    return out


def _each(convert: Callable) -> Callable[[object], tuple]:
    """A list converter: every item through convert, repeats dropped in
    order, at least one item."""
    def convert_all(value) -> tuple:
        items = tuple(dict.fromkeys(map(convert, _parts(value))))
        if not items:
            raise ValueError(f"expected at least one value, got {value!r}")
        return items
    return convert_all


def _one_of(*allowed: str) -> Callable[[object], str]:
    def convert(value) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {value!r}")
        return value
    return convert


def _integer(low: int) -> Callable[[object], int]:
    def convert(value) -> int:
        number = value
        if isinstance(value, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", value):
            number = int(value)
        if isinstance(number, bool) or not isinstance(number, int) or number < low:
            raise ValueError(f"expected an integer >= {low}, got {value!r}")
        return number
    return convert


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _suites(value) -> tuple[str, ...]:
    names = _each(_one_of("all", *SUITES))(value)
    return SUITES if "all" in names else names


def _kinds(value) -> tuple[Trig, ...]:
    return tuple(map(Trig, _each(_one_of("sin", "cos"))(value)))


# setting name -> (flag, default as the flag's text or None, help, converter):
# the one definition of a verify setting.  A SuiteConfig has these fields in
# this order, the config file takes these keys, and flag text and config
# values both go through the converter.
SETTINGS: dict[str, tuple[str, str | None, str, Callable]] = {
    "suites": ("--suite", "all", "suite name or comma list; repeatable; 'all' selects every suite", _suites),
    "max_n": ("--max-n", "3", "largest family parameter n", _integer(1)),
    "max_j": ("--max-j", None, "largest column index for the identity sweeps (default: max-n)", _integer(1)),
    "shifts": ("--shifts", "0,1,2", "comma list of derivative shifts for the wronskian suite",
               _each(_integer(0))),
    "kinds": ("--kinds", "sin,cos", "comma list of sin and cos", _kinds),
    "fmt": ("--format", "json", "report format, json or markdown", _one_of("json", "markdown")),
    "output": ("--output", None, "write the report here instead of stdout", _text),
}


class SuiteConfig(Record):
    """The settings of one verify run, given in SETTINGS order or by name; a
    setting not given takes its default."""

    __slots__ = tuple(SETTINGS)

    def __init__(self, *values, **named):
        if len(values) > len(SETTINGS):
            raise TypeError(f"SuiteConfig takes at most {len(SETTINGS)} settings, got {len(values)}")
        given = dict(zip(SETTINGS, values))
        for name, value in named.items():
            if name not in SETTINGS or name in given:
                raise TypeError(f"SuiteConfig got an unknown or repeated setting {name!r}")
            given[name] = value
        for name, (_, default, _, convert) in SETTINGS.items():
            if name not in given:
                given[name] = None if default is None else convert(default)
            setattr(self, name, given[name])


# (suite, checker, arguments): the check is checker(*arguments)
Check = tuple[str, Callable[..., VerificationReport], tuple]


def plan_checks(config: SuiteConfig) -> list[Check]:
    """Expand the configured suites into independent checks."""
    max_n, shifts, kinds = config.max_n, config.shifts, config.kinds
    ns = range(1, max_n + 1)
    js = range(1, (config.max_j or max_n) + 1)
    plan: list[Check] = []
    if "identities" in config.suites:
        plan += [("identities", check_odd_binomial_sum, (n, j)) for n in ns for j in js]
    if "open-identity" in config.suites:
        plan += [("open-identity", check_even_binomial_sum, (n, j)) for n in ns for j in js]
    if "determinants" in config.suites:
        for n in ns:
            plan += [("determinants", det_identity, (MatrixSpec(MatrixKind.BINOM_ODD, n=n),)),
                     ("determinants", det_identity, (MatrixSpec(MatrixKind.BINOM_EVEN, n=n),)),
                     ("determinants", verify_triangularization, (n,)),
                     ("determinants", verify_even_from_odd, (n,))]
        plan += [("determinants", det_identity, (MatrixSpec(MatrixKind.BINOM_AFFINE, n=n, a=a, b=b),))
                 for n in ns for a in AFFINE_SLOPES for b in AFFINE_OFFSETS]
        plan += [("determinants", det_identity, (MatrixSpec(MatrixKind.BINOM_NODES, nodes=nodes),))
                 for nodes in NODE_TUPLES]
    if "pascal" in config.suites:
        plan += [("pascal", verify_pascal_product, (n,)) for n in range(2, max_n + 1)]
    if "wronskian" in config.suites:
        plan += [("wronskian", verify_wronskian_factorization, (n, shift, kind))
                 for n in range(max_n + 1) for shift in shifts for kind in kinds]
        plan += [("wronskian", verify_dependence, (n, kind)) for n in range(max_n + 1) for kind in kinds]
        plan += [("wronskian", verify_even_hankel_transform, (steps, shift, n, kind))
                 for steps in EVEN_GRID_STEPS for shift in shifts for n in ns for kind in kinds]
        plan += [("wronskian", verify_wronskian_transform, (n, kind)) for n in ns for kind in kinds]
    if "coords" in config.suites:
        plan += [("coords", verify_full_rank, (n,)) for n in ns]
        plan += [("coords", verify_basis_columns, (n,)) for n in ns]
    return plan


def run_checks(config: SuiteConfig) -> tuple[list[tuple[str, VerificationReport]], float]:
    started = time.perf_counter()
    reports = [(suite, fn(*args)) for suite, fn, args in plan_checks(config)]
    duration = (time.perf_counter() - started) * 1000.0
    reports.sort(key=lambda sr: (sr[0], sr[1].check, json.dumps(sr[1].params, sort_keys=True)))
    return reports, duration


def to_record(suite: str, report: VerificationReport) -> dict:
    record = {
        "suite": suite,
        "check": report.check,
        "params": report.params,
        "expected": report.expected,
        "computed": report.computed,
        "pass": report.passed,
        "millis": round(report.millis, 3),
    }
    if report.note:
        record["note"] = report.note
    return record


def render_json(reports: list[tuple[str, VerificationReport]], duration: float) -> str:
    records = [to_record(s, r) for s, r in reports]
    passed = sum(1 for r in records if r["pass"])
    doc = {
        "records": records,
        "aggregate": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            "duration": round(duration, 3),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_markdown(reports: list[tuple[str, VerificationReport]], duration: float) -> str:
    lines = ["# verification report"]
    current = None
    for suite, rep in reports:
        if suite != current:
            lines.extend(["", f"## {suite}", "",
                          "| check | params | expected | computed | pass | millis |",
                          "|---|---|---|---|---|---|"])
            current = suite
        params = ", ".join(f"{k}={v}" for k, v in sorted(rep.params.items()))
        verdict = "pass" if rep.passed else "**FAIL**"
        lines.append(f"| {rep.check} | {params} | {rep.expected} | {rep.computed} "
                     f"| {verdict} | {rep.millis:.3f} |")
    passed = sum(1 for _, r in reports if r.passed)
    lines.extend(["", f"**total** {len(reports)}, **passed** {passed}, "
                      f"**failed** {len(reports) - passed}, **duration** {duration:.3f} ms", ""])
    return "\n".join(lines)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wronskit",
        description="Exact verification of Wronskian and binomial determinant identities "
                    "for the derivative families of x^n sin x and x^n cos x.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run suites of checks and emit a report")
    verify.set_defaults(run=_cmd_verify)
    for name, (flag, default, text, _) in SETTINGS.items():
        verify.add_argument(flag, dest=name, action="append" if name == "suites" else "store",
                            help=text if default is None else f"{text} (default: {default})")
    verify.add_argument("--config", default=None, help="JSON config file; flags override it")

    matrix = sub.add_parser("matrix", help="print one structured matrix")
    matrix.set_defaults(run=_cmd_matrix)
    matrix.add_argument("--kind", required=True, choices=[k.value for k in MatrixKind])
    matrix.add_argument("--n", type=int, default=0, help="size / family parameter")
    matrix.add_argument("--k", type=int, default=None, help="shift cutoff for the shift kinds")
    matrix.add_argument("--a", type=_parse_fraction, default=None, help="affine slope")
    matrix.add_argument("--b", type=_parse_fraction, default=None, help="affine offset")
    matrix.add_argument("--nodes", default=None, help="comma list of rational nodes")
    matrix.add_argument("--json", action="store_true", help="emit JSON instead of aligned text")

    wronskian = sub.add_parser("wronskian", help="symbolic Wronskian of a derivative chain")
    wronskian.set_defaults(run=_cmd_wronskian)
    wronskian.add_argument("--n", type=int, required=True, help="f = x^n sin x or x^n cos x")
    wronskian.add_argument("--shift", type=int, default=0, help="first derivative order in the chain")
    wronskian.add_argument("--kind", choices=("sin", "cos"), default="sin")
    wronskian.add_argument("--count", type=int, default=None,
                           help="chain length (default 2n+2, the independence threshold)")
    wronskian.add_argument("--print-matrix", action="store_true",
                           help="print the chain's Hankel matrix W before the determinant")

    identity = sub.add_parser("identity", help="check one binomial-sum identity instance")
    identity.set_defaults(run=_cmd_identity)
    identity.add_argument("--which", choices=("odd", "even"), required=True,
                          help="odd: proved row sum; even: unproved analogue")
    identity.add_argument("--n", type=int, required=True)
    identity.add_argument("--j", type=int, required=True)
    return parser


def _load_config(args: argparse.Namespace) -> SuiteConfig:
    """Merge the config file and the flags, flags last; a null or absent
    value keeps the default.  Both go through the setting's one converter."""
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(raw) - set(SETTINGS)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    values = {}
    for name, (*_, convert) in SETTINGS.items():
        for given in (raw.get(name), getattr(args, name)):
            if given is None:
                continue
            try:
                values[name] = convert(given)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    return SuiteConfig(**values)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    reports, duration = run_checks(config)
    if not reports:  # a report of no check would pass while checking nothing
        print(f"configuration error: suites {','.join(config.suites)} plan no check "
              f"up to max_n = {config.max_n}", file=sys.stderr)
        return 2
    text = render_json(reports, duration) if config.fmt == "json" else render_markdown(reports, duration)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for _, r in reports) else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    kind = MatrixKind(args.kind)
    nodes = None
    if args.nodes is not None:
        try:
            nodes = tuple(_parse_fraction(part) for part in args.nodes.split(","))
        except argparse.ArgumentTypeError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
    spec = MatrixSpec(kind, n=args.n, k=args.k, a=args.a, b=args.b, nodes=nodes)
    try:
        mat = build(spec)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    identity_report = det_identity(spec) if kind in CLOSED_FORM_KINDS else None
    if args.json:
        doc = mat.to_json_dict()
        if identity_report is not None:
            doc["det_identity"] = to_record("determinants", identity_report)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(mat.pretty())
        if identity_report is not None:
            print(identity_report.line())
    if identity_report is not None and not identity_report.passed:
        return 1
    return 0


def _cmd_wronskian(args: argparse.Namespace) -> int:
    count = args.count if args.count is not None else 2 * args.n + 2
    try:
        spec = ChainSpec(n=args.n, shift=args.shift, kind=Trig(args.kind), count=count)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.print_matrix:
        print(wronskian_hankel(spec).pretty())
    det = ladder_wronskian(spec).determinant()
    print(f"Wronskian of D^{spec.shift} f .. D^{spec.shift + count - 1} f, "
          f"f = x^{spec.n} {spec.kind.value}(x): {det}")
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    if args.n < 1 or args.j < 1:
        print("configuration error: n and j must be >= 1", file=sys.stderr)
        return 2
    checker = check_odd_binomial_sum if args.which == "odd" else check_even_binomial_sum
    report = checker(args.n, args.j)
    print(report.line())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # an int past the process's own limit, which wronskit never changes
        if "integer string conversion" not in str(exc):
            raise
        print("cannot render an exact value: it has more digits than "
              f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}", file=sys.stderr)
        return 2


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
