"""No check in the package may live only in an assert: `python -O` strips
every assert statement, so a check that must hold raises instead.  The
package must parse at the oldest Python that pyproject.toml declares.  And
no module but ``__init__``, whose imports are the re-exports, nor any
script in ``tests/`` or ``tools/``, imports a name that it never reads."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bnloci"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/bnloci: {found}"


def test_package_parses_at_the_declared_python_floor():
    # ast's feature_version rejects grammar newer than the floor, such as
    # except* (3.11) or type statements (3.12); it checks syntax, not the
    # standard library
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    assert (major, minor) == (3, 10)
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))


def unread_imports(path):
    """The names that the file imports and never loads, as "file:line name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{node.lineno} {bound}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        for bound in [alias.asname or alias.name.partition(".")[0]]
        if bound not in loaded
    ]


def test_package_imports_no_name_it_never_reads():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert files
    found = [line for path in files for line in unread_imports(path)]
    assert found == [], f"unread imports in src/bnloci: {found}"


@pytest.mark.parametrize("folder", ["tests", "tools"])
def test_tests_and_tools_import_no_name_they_never_read(folder):
    files = sorted((ROOT / folder).glob("*.py"))
    assert files
    found = [line for path in files for line in unread_imports(path)]
    assert found == [], f"unread imports in {folder}: {found}"


def test_an_unread_import_is_found(tmp_path):
    path = tmp_path / "classical.py"
    path.write_text(
        "from __future__ import annotations\n\nimport os.path\n"
        "from collections import namedtuple\nfrom .loci import rho\n\n\n"
        "def f(g: int) -> int:\n    return rho(g, 1, 2) + len(os.sep)\n",
        encoding="utf-8",
    )
    assert unread_imports(path) == ["classical.py:4 namedtuple"]
