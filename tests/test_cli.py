import json
import math
import re
import sys

import pytest

from wronskit import cli, verify_wronskian_factorization
from wronskit.cli import SUITES, main
from wronskit.report import VerificationReport


def strip_timings(doc: dict) -> dict:
    for record in doc["records"]:
        record.pop("millis", None)
    doc["aggregate"].pop("duration", None)
    return doc


def run_to_json(tmp_path, name: str, argv: list) -> tuple[int, dict]:
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_pascal_suite_counts_and_fields(tmp_path):
    code, doc = run_to_json(tmp_path, "pascal.json",
                            ["verify", "--suite", "pascal", "--max-n", "6"])
    assert code == 0
    records = doc["records"]
    assert len(records) == 5  # n = 2 .. 6
    assert doc["aggregate"] == {"total": 5, "passed": 5, "failed": 0,
                                "duration": doc["aggregate"]["duration"]}
    for record in records:
        assert record["suite"] == "pascal"
        assert record["check"] == "pascal-product"
        assert record["pass"] is True
        assert set(record) >= {"suite", "check", "params", "expected", "computed", "pass", "millis"}


def test_verify_is_deterministic(tmp_path):
    argv = ["verify", "--suite", "identities,determinants", "--max-n", "3"]
    code1, doc1 = run_to_json(tmp_path, "a.json", list(argv))
    code2, doc2 = run_to_json(tmp_path, "b.json", list(argv))
    assert code1 == code2 == 0
    assert strip_timings(doc1) == strip_timings(doc2)


def test_records_sorted_by_suite_check_params(tmp_path):
    _, doc = run_to_json(tmp_path, "sorted.json",
                         ["verify", "--suite", "all", "--max-n", "2"])
    keys = [(r["suite"], r["check"], json.dumps(r["params"], sort_keys=True))
            for r in doc["records"]]
    assert keys == sorted(keys)
    assert {r["suite"] for r in doc["records"]} == set(SUITES)


def test_plan_order_does_not_change_the_report(tmp_path, monkeypatch):
    argv = ["verify", "--suite", "all", "--max-n", "2"]
    _, forward = run_to_json(tmp_path, "forward.json", argv)
    original = cli.plan_checks
    monkeypatch.setattr("wronskit.cli.plan_checks", lambda config: original(config)[::-1])
    _, backward = run_to_json(tmp_path, "backward.json", argv)
    assert strip_timings(forward) == strip_timings(backward)


def test_wronskian_suite_runs_to_max_n(tmp_path, capsys):
    code, doc = run_to_json(tmp_path, "wronskian.json", ["verify", "--suite", "wronskian", "--max-n", "5"])
    assert code == 0 and "limits" not in doc
    largest = {}
    for r in doc["records"]:
        largest[r["check"]] = max(largest.get(r["check"], 0), r["params"]["n"])
    assert largest == {"wronskian-factorization": 5, "wronskian-dependence": 5,
                       "even-hankel-transform": 5, "wronskian-transform": 5}
    assert main(["verify", "--suite", "pascal", "--max-n", "2", "--format", "markdown"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["# verification report", "", "## pascal"]
    assert not any(line.startswith("limits") for line in lines)
    # the rational sweeps run up to --max-n as well
    _, doc = run_to_json(tmp_path, "rational.json", ["verify", "--suite", "determinants,coords", "--max-n", "9"])
    affine = [r["params"]["n"] for r in doc["records"] if r["params"].get("kind") == "binom-affine"]
    columns = [r["params"]["n"] for r in doc["records"] if r["check"] == "coordinate-columns"]
    assert max(affine) == max(columns) == 9


def test_repeated_shifts_and_kinds_run_once(tmp_path):
    base = ["verify", "--suite", "wronskian", "--max-n", "1"]
    _, repeated = run_to_json(tmp_path, "repeated.json", base + ["--shifts", "0,0", "--kinds", "sin,sin"])
    _, single = run_to_json(tmp_path, "single.json", base + ["--shifts", "0", "--kinds", "sin"])
    assert strip_timings(repeated) == strip_timings(single)
    assert single["aggregate"]["total"] == 8


def test_even_hankel_transform_follows_shifts(tmp_path):
    _, doc = run_to_json(tmp_path, "shift5.json",
                         ["verify", "--suite", "wronskian", "--max-n", "1", "--shifts", "5"])
    shifts = {r["params"]["shift"] for r in doc["records"] if r["check"] == "even-hankel-transform"}
    assert shifts == {5}


def test_markdown_format(capsys):
    code = main(["verify", "--suite", "pascal", "--max-n", "3", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# verification report")
    assert "## pascal" in out
    assert "| pascal-product |" in out
    assert "**total** 2, **passed** 2, **failed** 0" in out


def test_verify_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--help"])
    assert stop.value.code == 0
    # one help entry per flag, with argparse's line wrapping undone
    text = " ".join(capsys.readouterr().out.split())
    entries = {entry.split()[0]: entry for entry in text.split(" --")[1:]}
    assert entries["suite"].endswith("(default: all)")
    assert entries["max-n"].endswith("(default: 3)")
    assert entries["max-j"].endswith("(default: max-n)")
    assert entries["shifts"].endswith("(default: 0,1,2)")
    assert entries["kinds"].endswith("(default: sin,cos)")
    assert entries["format"].endswith("(default: json)")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["pascal"], "max_n": 6}))
    code, doc = run_to_json(tmp_path, "cfg_run.json",
                            ["verify", "--config", str(cfg), "--max-n", "3"])
    assert code == 0
    assert doc["aggregate"]["total"] == 2  # flag max-n=3 overrides the file's 6


@pytest.mark.parametrize("suites, expected", [
    (["all"], set(SUITES)),
    ("all", set(SUITES)),
    ("pascal", {"pascal"}),
    ("identities, pascal", {"identities", "pascal"}),
    (["identities,pascal", "pascal"], {"identities", "pascal"}),
])
def test_config_suites_take_what_the_flag_takes(tmp_path, suites, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": suites, "max_n": 2}))
    code, doc = run_to_json(tmp_path, "suites.json", ["verify", "--config", str(cfg)])
    assert code == 0
    assert {r["suite"] for r in doc["records"]} == expected


def test_config_lists_take_comma_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": "wronskian", "max_n": 1, "shifts": "0,0", "kinds": "sin"}))
    _, from_file = run_to_json(tmp_path, "file.json", ["verify", "--config", str(cfg)])
    _, from_flags = run_to_json(tmp_path, "flags.json", ["verify", "--suite", "wronskian", "--max-n", "1",
                                                         "--shifts", "0", "--kinds", "sin"])
    assert strip_timings(from_file) == strip_timings(from_flags)


@pytest.mark.parametrize("raw", [{"max_n": True}, {"max_n": 3.9}, {"max_j": False}, {"shifts": [0, 1.5]},
                                 {"shifts": 2}, {"kinds": ["tan"]}, {"fmt": 1}, ["pascal"]])
def test_config_rejects_values_the_flags_cannot_give(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--suite", "pascal", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


# per SETTINGS row: one valid text other than the default, and texts to reject
SETTING_TEXTS = {
    "suites": ("pascal,identities", ("nonsense",)),
    "max_n": ("2", ("0",)),
    "max_j": ("2", ("0",)),
    "shifts": ("1, 0", ("-1", "abc", "1_0")),
    "kinds": ("cos", ("tan",)),
    "fmt": ("markdown", ("xml",)),
    "output": ("report.md", ()),
}


@pytest.mark.parametrize("name", list(cli.SETTINGS))
def test_flags_and_config_take_the_same_text(tmp_path, name):
    text = SETTING_TEXTS[name][0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: text}))
    parse = cli.build_parser().parse_args
    from_flag = cli._load_config(parse(["verify", cli.SETTINGS[name][0], text]))
    from_file = cli._load_config(parse(["verify", "--config", str(cfg)]))
    assert from_flag == from_file != cli.SuiteConfig()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name, bad", [(name, bad) for name in cli.SETTINGS for bad in SETTING_TEXTS[name][1]])
def test_flags_and_config_reject_the_same_text(tmp_path, capsys, source, name, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: bad}))
    argv = [cli.SETTINGS[name][0], bad] if source == "flag" else ["--config", str(cfg)]
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {name}: ") and repr(bad) in err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": ["pascal"], "retries": 2}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_invalid_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_missing_file_rejected(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2


def test_unknown_suite_rejected(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unwritable_output_rejected(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "report.json"
    code = main(["verify", "--suite", "pascal", "--max-n", "2", "--output", str(target)])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_exit_code_one_on_failure(tmp_path, monkeypatch):
    def failing(n, j):
        return VerificationReport(check="odd-binomial-sum", params={"n": n, "j": j},
                                  expected="1", computed="2", passed=False, millis=0.0)
    monkeypatch.setattr("wronskit.cli.check_odd_binomial_sum", failing)
    code, doc = run_to_json(tmp_path, "fail.json",
                            ["verify", "--suite", "identities", "--max-n", "2"])
    assert code == 1
    assert doc["aggregate"]["failed"] == 4


def test_matrix_json_document(capsys):
    code = main(["matrix", "--kind", "binom-odd", "--n", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["rows"], doc["cols"]) == (3, 3)
    assert doc["entries"][:3] == ["1", "1", "1"]  # first row, flat row-major list
    assert doc["det_identity"]["check"] == "det-closed-form"
    assert doc["det_identity"]["pass"] is True
    assert doc["det_identity"]["expected"] == "8"


def test_matrix_pretty_with_identity_line(capsys):
    code = main(["matrix", "--kind", "binom-even", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det-closed-form" in out and "pass" in out


def test_matrix_without_closed_form_prints_only_entries(capsys):
    code = main(["matrix", "--kind", "pascal", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det-closed-form" not in out


def test_matrix_kind_parameter_errors(capsys):
    assert main(["matrix", "--kind", "row-shift", "--n", "3"]) == 2
    assert "configuration error" in capsys.readouterr().err  # k is required
    assert main(["matrix", "--kind", "double-shift", "--n", "2", "--k", "1"]) == 2
    assert "configuration error: double shift needs n >= 3, got n=2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "binom-nodes", "--nodes", "1,2,4", "--a", "3"], "binom-nodes does not take a"),
    (["--kind", "pascal", "--n", "3", "--k", "2"], "pascal does not take k"),
    (["--kind", "binom-nodes", "--n", "3", "--nodes", "1,2,4"], "binom-nodes does not take n"),
])
def test_matrix_rejects_a_flag_its_kind_does_not_read(capsys, argv, message):
    assert main(["matrix", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_matrix_nodes_argument(capsys):
    code = main(["matrix", "--kind", "binom-nodes", "--nodes", "1,3/2,4", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 3
    assert doc["det_identity"]["pass"] is True


def test_wronskian_command(capsys):
    code = main(["wronskian", "--n", "1", "--kind", "sin"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f = x^1 sin(x)" in out
    assert out.strip().endswith("16")
    n = 9
    assert main(["wronskian", "--n", str(n)]) == 0
    closed = (-1) ** (n + 1) * (2 ** n * math.factorial(n)) ** (2 * n + 2)
    assert capsys.readouterr().out.strip().endswith(f": {closed}")
    # below the threshold the Wronskian is not constant
    assert main(["wronskian", "--n", "2", "--shift", "1", "--count", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith(
        ": 16*x^3*s - 40*x*s - 8*x^4*c - 76*x^2*c - 8*c^3 - 208*c")


def test_wronskian_print_matrix(capsys):
    code = main(["wronskian", "--n", "0", "--count", "2", "--print-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "s" in out and "c" in out
    assert out.strip().endswith("-1")


def test_wronskian_past_the_digit_limit_exits_2(capsys):
    # n = 37 has 4125 digits and renders; n = 38 has 4381
    limit = sys.get_int_max_str_digits()
    if limit == 0 or limit >= 4381:
        pytest.skip(f"int digit limit {limit} renders n = 38")
    n = 37
    assert main(["wronskian", "--n", str(n)]) == 0
    closed = (-1) ** (n + 1) * (2 ** n * math.factorial(n)) ** (2 * n + 2)
    assert capsys.readouterr().out.strip().endswith(f": {closed}")
    assert main(["wronskian", "--n", "38"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert f"sys.get_int_max_str_digits() = {limit}" in lines[0]


def test_verify_past_the_digit_limit_exits_2(capsys):
    # at a 640-digit limit the factorization value renders up to n = 16 (617
    # digits) and not at n = 17 (709 digits)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert verify_wronskian_factorization(16).passed
        assert main(["verify", "--suite", "wronskian", "--max-n", "17"]) == 2
        captured = capsys.readouterr()
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "cannot render an exact value: it has more digits than sys.get_int_max_str_digits() = 640"]


def test_matrix_and_identity_past_the_digit_limit_exit_2(capsys):
    # at a 640-digit limit neither the closed form 1000^C(25, 2) (901 digits)
    # nor 2^499 C(2999, 499) renders: the matrix must not drop its identity
    # line and exit 0, and the identity must not call it a configuration error
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes, captured = [], []
        for argv in (["matrix", "--kind", "binom-affine", "--n", "25", "--a", "1000", "--b", "0"],
                     ["identity", "--which", "odd", "--n", "500", "--j", "3000"]):
            codes.append(main(argv))
            captured.append(capsys.readouterr())
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [2, 2]
    for got in captured:
        assert got.out == ""
        assert got.err.splitlines() == [
            "cannot render an exact value: it has more digits than sys.get_int_max_str_digits() = 640"]


def test_large_shifts_run(tmp_path, capsys):
    assert main(["wronskian", "--n", "1", "--shift", "600"]) == 0
    assert capsys.readouterr().out.strip().endswith(": 16")
    code, doc = run_to_json(tmp_path, "shift.json",
                            ["verify", "--suite", "wronskian", "--max-n", "1", "--shifts", "1200"])
    assert code == 0
    assert doc["records"] and all(r["pass"] for r in doc["records"])
    assert {r["params"]["shift"] for r in doc["records"] if "shift" in r["params"]} == {1200}


def test_wronskian_rejects_negative(capsys):
    for argv in (["--n", "-1"], ["--n", "1", "--shift", "-1"], ["--n", "1", "--count", "0"]):
        assert main(["wronskian", *argv]) == 2
        assert capsys.readouterr().err == "configuration error: chain needs n >= 0, shift >= 0, count >= 1\n"


def test_identity_command(capsys):
    assert main(["identity", "--which", "odd", "--n", "3", "--j", "2"]) == 0
    line = capsys.readouterr().out
    assert "odd-binomial-sum" in line and "pass" in line
    assert main(["identity", "--which", "even", "--n", "2", "--j", "2"]) == 0


def test_identity_rejects_bad_parameters(capsys):
    assert main(["identity", "--which", "odd", "--n", "0", "--j", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_module_entry_point():
    with pytest.raises(SystemExit) as exc:
        from wronskit.cli import run_main
        import sys
        old = sys.argv
        sys.argv = ["wronskit", "identity", "--which", "odd", "--n", "1", "--j", "1"]
        try:
            run_main()
        finally:
            sys.argv = old
    assert exc.value.code == 0


# `wronskit matrix` output for rational kinds, captured before matrices over Q
# stored integer rows over row denominators: the text byte for byte, and the
# JSON document byte for byte once its one "millis" line is dropped.
PINNED_MATRIX_ARGV = {
    "lower-halving": ["--kind", "lower-halving", "--n", "6"],
    "binom-affine": ["--kind", "binom-affine", "--n", "4", "--a", "1/2", "--b", "1"],
    "binom-nodes": ["--kind", "binom-nodes", "--nodes", "1/2,2,7/3,4"],
}
PINNED_MATRIX_TEXT = {
    "lower-halving": """\
[     1      0     0     0   0  0 ]
[    -1      1     0     0   0  0 ]
[   3/2   -3/2     1     0   0  0 ]
[  -5/2    5/2    -2     1   0  0 ]
[  35/8  -35/8  15/4  -5/2   1  0 ]
[ -63/8   63/8    -7  21/4  -3  1 ]
""",
    "binom-affine": """\
[     1  1     1  1 ]
[   3/2  2   5/2  3 ]
[   3/8  1  15/8  3 ]
[ -1/16  0  5/16  1 ]
det-closed-form [kind=binom-affine, n=4, a=1/2, b=1]: expected 1/64, computed 1/64 -> pass
""",
    "binom-nodes": """\
[    1  1      1  1 ]
[  1/2  2    7/3  4 ]
[ -1/8  1   14/9  6 ]
[ 1/16  0  14/81  4 ]
det-closed-form [kind=binom-nodes, nodes=1/2,2,7/3,4]: expected 385/432, computed 385/432 -> pass
""",
}

PINNED_MATRIX_JSON = {
    "lower-halving": """\
{
  "cols": 6,
  "entries": [
    "1",
    "0",
    "0",
    "0",
    "0",
    "0",
    "-1",
    "1",
    "0",
    "0",
    "0",
    "0",
    "3/2",
    "-3/2",
    "1",
    "0",
    "0",
    "0",
    "-5/2",
    "5/2",
    "-2",
    "1",
    "0",
    "0",
    "35/8",
    "-35/8",
    "15/4",
    "-5/2",
    "1",
    "0",
    "-63/8",
    "63/8",
    "-7",
    "21/4",
    "-3",
    "1"
  ],
  "rows": 6
}
""",
    "binom-affine": """\
{
  "cols": 4,
  "det_identity": {
    "check": "det-closed-form",
    "computed": "1/64",
    "expected": "1/64",
    "params": {
      "a": "1/2",
      "b": "1",
      "kind": "binom-affine",
      "n": 4
    },
    "pass": true,
    "suite": "determinants"
  },
  "entries": [
    "1",
    "1",
    "1",
    "1",
    "3/2",
    "2",
    "5/2",
    "3",
    "3/8",
    "1",
    "15/8",
    "3",
    "-1/16",
    "0",
    "5/16",
    "1"
  ],
  "rows": 4
}
""",
    "binom-nodes": """\
{
  "cols": 4,
  "det_identity": {
    "check": "det-closed-form",
    "computed": "385/432",
    "expected": "385/432",
    "params": {
      "kind": "binom-nodes",
      "nodes": "1/2,2,7/3,4"
    },
    "pass": true,
    "suite": "determinants"
  },
  "entries": [
    "1",
    "1",
    "1",
    "1",
    "1/2",
    "2",
    "7/3",
    "4",
    "-1/8",
    "1",
    "14/9",
    "6",
    "1/16",
    "0",
    "14/81",
    "4"
  ],
  "rows": 4
}
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_MATRIX_ARGV))
def test_rational_matrix_output_is_pinned(capsys, name):
    argv = ["matrix", *PINNED_MATRIX_ARGV[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == PINNED_MATRIX_TEXT[name]
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    if name == "lower-halving":
        assert "millis" not in out
    else:
        assert len(re.findall(r'\n *"millis": [0-9.]+,\n', out)) == 1
    assert re.sub(r'\n *"millis": [0-9.]+,(?=\n)', "", out) == PINNED_MATRIX_JSON[name]
