import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wronskit
from wronskit import ChainSpec, MatrixKind, MatrixSpec, Trig, VerificationReport
from wronskit.cli import SUITES, SuiteConfig


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from wronskit import *", namespace)
    for name in wronskit.__all__:
        assert namespace[name] is getattr(wronskit, name)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, except those in its ``__all__``
    and those whose import line carries ``# noqa: F401``."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                # the alias's own line, as an import may span several
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(set(imported) - used - exported)


def test_every_import_is_used():
    package = Path(wronskit.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}


def _uncalled_helpers(package: Path) -> list[str]:
    """The underscore-named functions and methods defined in the package's
    modules (dunder methods, which Python calls, left out) that no name or
    attribute anywhere in the package reads outside their own body."""
    defined = []
    read = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                read.append((path.name, node.id if isinstance(node, ast.Name) else node.attr, node.lineno))
    return sorted(f"{module}:{name}" for module, name, first, last in defined
                  if not any(n == name and not (m == module and first <= line <= last) for m, n, line in read))


def test_every_private_helper_has_a_caller():
    # a mention in a docstring or comment is no caller: names come from the syntax tree
    assert _uncalled_helpers(Path(wronskit.__file__).parent) == []


# The import guard: what `import wronskit` and `import wronskit.cli` add to a
# bare interpreter must leave out these stdlib modules, which no check needs
# and whose import every fresh process would pay (dataclasses pulls in
# inspect, ast, dis and tokenize).
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _modules_after(statement: str, *flags: str) -> set[str]:
    env = dict(os.environ)
    source = str(Path(wronskit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, *flags, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


# Under -S no site .pth file preloads a module, so typing, which the package
# needs only for annotations, must stay out of what it imports too.
@pytest.mark.parametrize("statement, flags, heavy", [
    pytest.param("import wronskit", (), HEAVY_STDLIB, id="import wronskit"),
    pytest.param("import wronskit.cli", (), HEAVY_STDLIB, id="import wronskit.cli"),
    pytest.param("import wronskit.cli", ("-S",), HEAVY_STDLIB + ("typing",), id="import wronskit.cli -S"),
])
def test_import_leaves_out_the_heavy_stdlib(statement, flags, heavy):
    added = _modules_after(statement, *flags) - _modules_after("pass", *flags)
    assert "wronskit" in added
    assert sorted(added & set(heavy)) == []


# Value semantics of the package's small value classes: construction,
# defaults, equality, hashing, immutability and repr as a dataclass has them.

def _report(**changes) -> VerificationReport:
    fields = dict(check="c", params={"n": 1}, expected="2", computed="2", passed=True, millis=0.5)
    return VerificationReport(**{**fields, **changes})


def test_frozen_values_refuse_assignment():
    for value, field in ((ChainSpec(1), "n"), (MatrixSpec(MatrixKind.PASCAL, n=3), "kind"),
                         (_report(), "check")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0


def test_equal_values_compare_and_hash_alike():
    assert ChainSpec(2, 1, Trig.COS, 4) == ChainSpec(n=2, shift=1, kind=Trig.COS, count=4)
    assert hash(ChainSpec(2, 1, Trig.COS, 4)) == hash(ChainSpec(n=2, shift=1, kind=Trig.COS, count=4))
    assert ChainSpec(2) != ChainSpec(3) and ChainSpec(2) != ChainSpec(2, kind=Trig.COS)
    affine = MatrixSpec(MatrixKind.BINOM_AFFINE, 3, a=Fraction(1, 2), b=-1)
    assert affine == MatrixSpec(kind=MatrixKind.BINOM_AFFINE, n=3, a=Fraction(1, 2), b=-1)
    assert hash(affine) == hash(MatrixSpec(MatrixKind.BINOM_AFFINE, 3, None, Fraction(1, 2), -1))
    assert affine != MatrixSpec(MatrixKind.BINOM_AFFINE, 3, a=Fraction(1, 2), b=0)
    assert {ChainSpec(1), ChainSpec(1), MatrixSpec(MatrixKind.PASCAL, n=2)} == {
        ChainSpec(1), MatrixSpec(MatrixKind.PASCAL, n=2)}
    # a value equals only a value of its own class, never a bare tuple
    assert ChainSpec(1) != (1, 0, Trig.SIN, 1)
    assert _report() == _report() and _report() != _report(note="x")
    assert SuiteConfig(max_n=4) == SuiteConfig(max_n=4) and SuiteConfig(max_n=4) != SuiteConfig()
    # a report holds a dict and a config is mutable: neither hashes
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_report())
    with pytest.raises(TypeError, match="unhashable type: 'SuiteConfig'"):
        hash(SuiteConfig())
    config = SuiteConfig()
    config.max_n = 4
    assert config == SuiteConfig(max_n=4)


def test_values_take_positional_and_keyword_arguments_with_defaults():
    chain = ChainSpec(2)
    assert (chain.n, chain.shift, chain.kind, chain.count) == (2, 0, Trig.SIN, 1)
    assert ChainSpec(2, 1, Trig.COS, 4) == ChainSpec(2, count=4, kind=Trig.COS, shift=1)
    spec = MatrixSpec(MatrixKind.BINOM_NODES, nodes=(1, 3))
    assert (spec.kind, spec.n, spec.k, spec.a, spec.b, spec.nodes) == (
        MatrixKind.BINOM_NODES, 0, None, None, None, (1, 3))
    assert MatrixSpec(MatrixKind.ROW_SHIFT, 4, 2) == MatrixSpec(MatrixKind.ROW_SHIFT, k=2, n=4)
    report = VerificationReport("c", {"n": 1}, "2", "2", True, 0.5)
    assert report == _report() and report.note == ""
    assert VerificationReport("c", {}, "1", "2", False, 1.0, "why").note == "why"
    config = SuiteConfig(suites=("coords",), max_n=40)
    assert (config.suites, config.max_n, config.max_j, config.shifts, config.kinds,
            config.fmt, config.output) == (("coords",), 40, None, (0, 1, 2),
                                           (Trig.SIN, Trig.COS), "json", None)
    assert SuiteConfig(("coords",), 40) == config
    assert SuiteConfig().suites == SUITES and SuiteConfig().max_n == 3
    for bad in (lambda: ChainSpec(), lambda: MatrixSpec(), lambda: ChainSpec(1, size=2),
                lambda: SuiteConfig(colour="red"), lambda: ChainSpec(1, n=1)):
        with pytest.raises(TypeError):
            bad()


def test_chain_spec_refuses_a_negative_order():
    for args in ((-1,), (1, -1), (1, 0, Trig.SIN, 0)):
        with pytest.raises(ValueError, match=r"^chain needs n >= 0, shift >= 0, count >= 1$"):
            ChainSpec(*args)


def test_value_reprs():
    assert repr(ChainSpec(2)) == "ChainSpec(n=2, shift=0, kind=<Trig.SIN: 'sin'>, count=1)"
    assert repr(MatrixSpec(MatrixKind.BINOM_AFFINE, 3, a=Fraction(1, 2), b=-1)) == (
        "MatrixSpec(kind=<MatrixKind.BINOM_AFFINE: 'binom-affine'>, n=3, k=None, "
        "a=Fraction(1, 2), b=-1, nodes=None)")
    assert repr(_report()) == ("VerificationReport(check='c', params={'n': 1}, expected='2', "
                               "computed='2', passed=True, millis=0.5, note='')")
    assert repr(SuiteConfig(suites=("coords",), max_n=40)) == (
        "SuiteConfig(suites=('coords',), max_n=40, max_j=None, shifts=(0, 1, 2), "
        "kinds=(<Trig.SIN: 'sin'>, <Trig.COS: 'cos'>), fmt='json', output=None)")


def test_values_survive_pickle_and_copy():
    for value in (ChainSpec(1, 2, Trig.COS, 3), MatrixSpec(MatrixKind.BINOM_NODES, nodes=(1, 3)),
                  _report(note="x"), SuiteConfig(max_n=5)):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value
