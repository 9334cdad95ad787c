import ast
from pathlib import Path

import wronskit


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
