"""No check in the package may live only in an assert: `python -O` strips
every assert statement, so a check that must hold raises instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bnloci"


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
