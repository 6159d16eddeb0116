"""What a fresh process loads: no module of the package imports
``fractions`` or ``importlib.resources`` when it is imported, so that
``import bnloci.cli`` and ``bn verify`` load neither, and no ``bn`` command
loads ``fractions`` or ``bnloci.oracles``; the K3 functions that return a
Fraction import ``fractions`` themselves.  Imports are read with
``ast``; an import inside a function runs only when it is called, and any
other, under a class or an ``if`` too, runs at import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bnloci"

# the modules that a fresh process must not pay for
DEFERRED = ("fractions", "importlib.resources")


def import_time_imports(path):
    """The modules named by every import that runs when the file is
    imported: all but those inside a function."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.extend(f"{child.module}.{alias.name}" for alias in child.names)
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return found


def deferred_imports(src):
    return [
        f"{path.name}: {name}"
        for path in sorted(src.glob("*.py"))
        for name in import_time_imports(path)
        if any(name == mod or name.startswith(mod + ".") for mod in DEFERRED)
    ]


def test_no_module_imports_fractions_or_resources_at_import_time():
    assert (SRC / "cli.py").is_file()
    assert deferred_imports(SRC) == []


@pytest.mark.parametrize(
    "line, found",
    [
        ("import fractions", True),
        ("from fractions import Fraction", True),
        ("import importlib.resources", True),
        ("from importlib import resources", True),
        ("from importlib.resources import files", True),
        ("if True:\n    from fractions import Fraction", True),
        ("class C:\n    from fractions import Fraction", True),
        ("def f():\n    from fractions import Fraction", False),
        ("def f():\n    from importlib import resources", False),
        ("from importlib import import_module", False),
        ("from . import fractions", False),
    ],
)
def test_an_import_time_import_of_fractions_or_resources_is_found(tmp_path, line, found):
    (tmp_path / "k3.py").write_text(line + "\n", encoding="utf-8")
    assert bool(deferred_imports(tmp_path)) is found


def test_cli_import_and_verify_leave_fractions_unloaded():
    # bn verify builds no Fraction; min_series_degree still returns one,
    # after importing fractions on its first call
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import contextlib, io, sys\n"
        "import bnloci.cli\n"
        "loaded = ['fractions' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = bnloci.cli.main(['verify', '7..12'])\n"
        "loaded.append('fractions' in sys.modules)\n"
        "from bnloci.k3 import min_series_degree\n"
        "from bnloci.lattice import LatticeBasis\n"
        "m = min_series_degree(LatticeBasis(100, 10, 60), 1)\n"
        "from fractions import Fraction\n"
        "print(loaded, rc, type(m) is Fraction, m)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[False, False] 0 True 18\n"


def test_no_bn_command_loads_fractions_or_the_oracles():
    # no engine path reads an exact c_2 bound or an oracle, so every bn
    # command runs without either: listings, the poset and verify
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    facts = str(SRC / "data" / "genus12.json")
    commands = [
        ["invariants", "12", "3", "9"],
        ["k3", "13", "2", "7", "--series", "3", "--json"],
        ["k3", "13", "2", "7", "--series", "3", "--json", "--filters", "on"],
        ["poset", "12", "--facts", facts, "--format", "json"],
        ["poset", "20"],
        ["verify", "7..12"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import bnloci.cli\n"
        "codes = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(bnloci.cli.main(argv))\n"
        "print(codes, [m for m in ('fractions', 'bnloci.oracles') if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == f"{[0] * len(commands)} []\n"
