"""The oracle boundary: ``bnloci.oracles`` holds the independent checks, no
other module of the package imports it (``__init__`` included, so the
checks are no attributes of ``bnloci``), and it reaches into ``k3`` only
for the assignment type, never for the walk or the scaled c_2 arithmetic.
Imports are read with ``ast``, so a lazy import inside a function counts as
well.  The engine modules (all but ``__init__`` and ``oracles``) define no
public name, and their classes no public method or property, that the
engine itself never reads, but for the public API named in ``UNREAD``; a
method or property is read only as an attribute (``x.name``), and no two
classes define one member name, so that each attribute read names one
member."""

import ast
from pathlib import Path

import pytest

import bnloci
import bnloci.k3
import bnloci.lattice
import bnloci.loci
import bnloci.oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "bnloci"

# the public names of the oracle module: those moved out of the engine, and
# the slab scan, which was written as an oracle
MOVED = {
    "enumerate_filtration_types", "GTPattern", "gt_pattern", "gt_check", "quotient_checks",
    "c2_lower_bound", "trivial_relations", "clifford_collapse", "secant_containment",
    "slab_classes", "CastelnuovoData", "castelnuovo_bound", "castelnuovo_severi",
    "ci_gonality", "four_secant_count", "net_threshold", "secant_expected_dim",
    "find_classes_with_square", "self_int", "plane_projection_rule", "coppens_noncontainment",
}

# the public names that an engine module defines and no engine module reads,
# each with the reason it stays in the engine; a method or property is named
# as Class.name
UNREAD = {
    "enumerate_assignments": "public K3 API: the listing as Assignments, acceptance criterion 6",
    "candidate_subsheaf_classes": "public K3 API: the box classes that a step can use",
    "min_series_degree": "public K3 API: the exact minimum c_2 bound of a lattice",
    "k3_expected": "public K3 API: the K3-expected containments, never relations",
    "closure": "one line that acceptance criterion 6 calls; the oracles may not import poset",
    "covers": "public poset API: each cover with its <= credit, which the README quick tour "
    "prints; DOT and JSON read the cover ends alone",
    "L": "the value constant beside H, the second basis class",
    "Assignment.type_str": "the filtration type as text, which acceptance criterion 6 reads",
    "Assignment.sort_key": "the canonical order, which listing_records and the exact search "
    "reproduce without calling it; the tests hold both to it",
    "RelationMatrix.relation": "public cell query: one cell as a Relation, which the "
    "benchmark's off-clock digest and the tests read",
}

# what the oracles may take from the engine's K3 module, and all they take:
# the value type of an assignment
K3_OPEN = {"Assignment"}

# the modules open to the oracles as a whole: value types and arithmetic
OPEN = {"bnloci.lattice", "bnloci.loci"}


def imports(path):
    """(module, name) for every import in the file, relative imports resolved
    against the package; name is None for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "bnloci" + (f".{module}" if module else "")
            found += [(module, alias.name) for alias in node.names]
    return found


def loads(module, name):
    # the modules an import can load: `from bnloci import oracles` loads the
    # submodule, `from bnloci.oracles import x` the module itself
    return {module} | ({f"{module}.{name}"} if name else set())


def engine_imports_of_oracles(src):
    return [
        f"{path.name}: {module}" + (f" import {name}" if name else "")
        for path in sorted(src.glob("*.py"))
        if path.name != "oracles.py"
        for module, name in imports(path)
        if "bnloci.oracles" in loads(module, name)
    ]


def oracle_imports_of_the_engine(src):
    bad = []
    for module, name in imports(src / "oracles.py"):
        if (module == "bnloci.k3" and name in K3_OPEN) or module in OPEN:
            continue
        if module == "bnloci" or module.startswith("bnloci."):
            bad.append(module + (f" import {name}" if name else ""))
    return bad


def defined_names(stmt):
    """The names that a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def read_names(tree):
    """Every name that the tree reads: a loaded name, an attribute, or the
    last part of an imported name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.rpartition(".")[2] for alias in node.names}
    return found


def read_attributes(tree):
    """Every attribute that the tree reads as ``x.name``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def engine_surface(src):
    """(names, members, read, attributes) over the engine modules: names
    maps every public top-level name to its module, members every public
    method or property of a class, as ``Class.name``, to its module; read
    holds the names that the engine reads as a name, an attribute or an
    import, attributes those that it reads as ``x.name``.  A class's head
    and each statement of its body are read apart, so a definition's reads
    of itself do not count."""
    names, members, read, attributes = {}, {}, set(), set()
    for path in sorted(src.glob("*.py")):
        if path.stem in ("__init__", "oracles"):
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            defined = defined_names(stmt)
            names.update((name, path.stem) for name in defined if not name.startswith("_"))
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
                members.update(
                    (f"{stmt.name}.{node.name}", path.stem) for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                )
            for node in parts:
                own = defined | defined_names(node)
                read |= read_names(node) - own
                attributes |= read_attributes(node) - own
    return names, members, read, attributes


def shared_member_names(members):
    """{name: [Class, ...]} for every member name that more than one class
    defines."""
    classes = {}
    for member in members:
        cls, _, name = member.partition(".")
        classes.setdefault(name, []).append(cls)
    return {name: owners for name, owners in classes.items() if len(owners) > 1}


def unread_engine_names(src):
    """{name: module} for every public top-level name that no engine module
    reads outside the definition itself, and every public member that no
    engine module reads as an attribute.  A member whose name another class
    also defines is never read: an attribute read names one member only."""
    names, members, read, attributes = engine_surface(src)
    attributes -= shared_member_names(members).keys()
    return {name: module for name, module in names.items() if name not in read} | {
        member: module for member, module in members.items()
        if member.partition(".")[2] not in attributes
    }


def test_every_engine_name_is_read_by_the_engine():
    assert set(unread_engine_names(SRC)) == set(UNREAD)


def test_no_two_engine_classes_share_a_public_member_name():
    assert shared_member_names(engine_surface(SRC)[1]) == {}
    assert not hasattr(bnloci.lattice.LatticeClass, "key")


def test_an_engine_name_that_only_its_definition_reads_is_found(tmp_path):
    # reads in __init__, in oracles, in a docstring and in the definition
    # itself do not count
    (tmp_path / "__init__.py").write_text("from .lattice import spare\n", encoding="utf-8")
    (tmp_path / "oracles.py").write_text("from .lattice import spare\n", encoding="utf-8")
    (tmp_path / "lattice.py").write_text(
        "def used():\n    pass\n\n\ndef spare(n):\n    return spare(n - 1)\n",
        encoding="utf-8",
    )
    (tmp_path / "k3.py").write_text(
        'from .lattice import used\n\n\ndef walk():\n    """Calls spare."""\n',
        encoding="utf-8",
    )
    assert unread_engine_names(tmp_path) == {"spare": "lattice", "walk": "k3"}


def test_a_method_that_only_its_own_body_reads_is_found(tmp_path):
    # a method or property counts as read where an engine module reads it as
    # an attribute outside its own body, not where a local name or an import
    # alias matches it; a member name that two classes define is found in
    # both; private and dunder methods are not scanned
    (tmp_path / "__init__.py").write_text("from .lattice import Basis\nBasis().spare()\n",
                                          encoding="utf-8")
    (tmp_path / "lattice.py").write_text(
        "class Basis:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def _hidden(self):\n        return self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def key(self):\n        pass\n\n"
        "    def spare(self):\n        return self.spare()\n\n"
        "    @property\n    def width(self):\n        return 1\n\n\n"
        "class Pair:\n"
        "    def key(self):\n        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "k3.py").write_text(
        "from math import floor as width\n\nfrom .lattice import Basis, Pair\n\n\n"
        'def walk():\n    """Reads Basis.width."""\n    spare = width(0.5)\n'
        "    return spare, Pair().key()\n\n\nwalk()\n",
        encoding="utf-8",
    )
    assert unread_engine_names(tmp_path) == {
        "Basis.spare": "lattice", "Basis.width": "lattice",
        "Basis.key": "lattice", "Pair.key": "lattice",
    }
    assert shared_member_names(engine_surface(tmp_path)[1]) == {"key": ["Basis", "Pair"]}


def test_no_engine_module_imports_the_oracles():
    assert engine_imports_of_oracles(SRC) == []


def test_the_oracles_import_no_engine_path():
    assert oracle_imports_of_the_engine(SRC) == []


@pytest.mark.parametrize(
    "line",
    ["from .oracles import gt_check", "from . import oracles", "import bnloci.oracles",
     "from bnloci import oracles", "from bnloci.oracles import gt_check"],
)
def test_an_engine_import_of_the_oracles_is_found(tmp_path, line):
    (tmp_path / "oracles.py").write_text("", encoding="utf-8")
    (tmp_path / "k3.py").write_text(f"def f():\n    {line}\n", encoding="utf-8")
    found = engine_imports_of_oracles(tmp_path)
    assert len(found) == 1 and found[0].startswith("k3.py: bnloci")


@pytest.mark.parametrize(
    "line",
    ["from .k3 import _walk", "from .k3 import _least", "from .k3 import _candidate_rows",
     "from .poset import rule_sources", "from . import poset", "import bnloci.k3",
     "from bnloci import assemble", "from .cli import main", "from .k3 import _scale",
     "from .k3 import _check_step"],
)
def test_an_oracle_import_of_the_engine_is_found(tmp_path, line):
    (tmp_path / "oracles.py").write_text(
        f"from .k3 import Assignment\nfrom .loci import BNLocus\n{line}\n",
        encoding="utf-8",
    )
    assert len(oracle_imports_of_the_engine(tmp_path)) == 1


@pytest.mark.parametrize("name", sorted(MOVED))
def test_each_moved_name_lives_in_the_oracles_alone(name):
    assert hasattr(bnloci.oracles, name) and not hasattr(bnloci, name)
    for module in (bnloci.k3, bnloci.loci, bnloci.lattice):
        assert not hasattr(module, name), f"{module.__name__} still defines {name}"


def test_the_oracles_define_exactly_the_moved_names():
    tree = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert {name for name in defined if not name.startswith("_")} == MOVED
