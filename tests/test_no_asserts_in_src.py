"""No check in the package may live only in an assert: `python -O` strips
every assert statement, so a check that must hold raises instead.  And the
package must parse at the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

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
