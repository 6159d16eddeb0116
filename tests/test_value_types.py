"""The value types are named tuples: each validating constructor keeps its
ValueError (also under python -O), fields cannot be assigned, and the
package does not import dataclasses."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bnloci import (
    H,
    Assignment,
    BNLocus,
    DiffCell,
    Fact,
    FilterConfig,
    K3Expectation,
    LatticeBasis,
    LatticeClass,
    RelKind,
    Relation,
)
from bnloci.oracles import GTPattern, castelnuovo_bound

SRC = Path(__file__).resolve().parent.parent / "src"

# constructor calls, as source text, and the ValueError each must raise
INVALID = [
    ("BNLocus(2, 1, 2)", "invalid locus (g=2, r=1, d=2)"),
    ("BNLocus(9, 1, 3)._replace(g=2)", "invalid locus (g=2, r=1, d=3)"),
    ("LatticeBasis(9, -1, 6)", "invalid lattice basis (9, -1, 6)"),
    ("LatticeBasis(9, 2, -6)", "invalid lattice basis (9, 2, -6)"),
    ("LatticeBasis(9, 2, 6)._replace(r=-1)", "invalid lattice basis (9, -1, 6)"),
    (
        "Relation(BNLocus(9, 1, 3), BNLocus(10, 1, 3), RelKind.LE, 'x')",
        "relations must stay within one genus",
    ),
    (
        "Relation(BNLocus(9, 1, 3), BNLocus(9, 1, 4), RelKind.LE, 'x')"
        "._replace(rhs=BNLocus(10, 1, 4))",
        "relations must stay within one genus",
    ),
    (
        "Fact(BNLocus(9, 1, 3), BNLocus(10, 2, 6), RelKind.LE, 'x')",
        "facts must stay within one genus",
    ),
    (
        "Fact(BNLocus(9, 1, 3), BNLocus(9, 2, 6), RelKind.LE, '')",
        "facts must carry a citation string",
    ),
    (
        "Fact(BNLocus(9, 1, 3), BNLocus(9, 2, 6), RelKind.LE, 'x')._replace(source='')",
        "facts must carry a citation string",
    ),
    (
        "Relation(BNLocus(9, 1, 3), BNLocus(9, 1, 4), 'bogus', 'x')",
        "'bogus' is not a valid RelKind",
    ),
    (
        "Relation(BNLocus(9, 1, 3), BNLocus(9, 1, 4), RelKind.LE, 'x')._replace(kind='<=')",
        "'<=' is not a valid RelKind",
    ),
    (
        "Fact(BNLocus(9, 1, 3), BNLocus(9, 2, 6), 'bogus', 'x')",
        "'bogus' is not a valid RelKind",
    ),
]


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    ).stdout


@pytest.mark.parametrize("call,message", INVALID)
def test_constructors_validate(call, message):
    with pytest.raises(ValueError) as err:
        eval(call)
    assert str(err.value) == message


def test_constructors_validate_under_python_O():
    # the checks are plain raises, not asserts, so -O keeps every one
    code = (
        "import json, sys\n"
        "from bnloci import BNLocus, Fact, LatticeBasis, RelKind, Relation\n"
        "out = []\n"
        "for call in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        eval(call)\n"
        "        out.append(None)\n"
        "    except ValueError as exc:\n"
        "        out.append(str(exc))\n"
        "print(json.dumps(out))\n"
    )
    out = run_python("-O", "-c", code, json.dumps([call for call, _ in INVALID]))
    assert json.loads(out) == [message for _, message in INVALID]


def instances():
    x, y = BNLocus(9, 1, 3), BNLocus(9, 2, 6)
    witness = Assignment((1, 2), (LatticeClass(0, 1), H), Fraction(7, 2))
    return [
        x,
        Relation(x, y, RelKind.LE, "t"),
        LatticeClass(1, -1),
        LatticeBasis(9, 2, 6),
        witness,
        FilterConfig(),
        Fact(x, y, RelKind.LE, "t"),
        DiffCell(x, y, "subset", "unknown"),
        GTPattern(((Fraction(1),),)),
        K3Expectation(9, 2, 6, 1, 4, witness),
        castelnuovo_bound(3, 6),
    ]


def test_relation_kinds_given_by_value_become_relkinds():
    x, y = BNLocus(9, 1, 3), BNLocus(9, 2, 6)
    for kind in RelKind:
        assert str(kind) == kind.value
        for value in (kind, kind.value):
            assert Relation(x, y, value, "t").kind is kind
            assert Fact(x, y, value, "t").kind is kind
            assert Fact(x, y, value, "t").to_relation().kind is kind


@pytest.mark.parametrize("value", instances(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_defaults_repr_and_tuple_equality():
    assert Assignment((1, 2), (H, H), Fraction(1)).filtered_by == ()
    assert FilterConfig() == FilterConfig(False, False)
    assert FilterConfig(elliptic_filter=True) == FilterConfig(False, True)
    assert repr(BNLocus(9, 1, 3)) == "BNLocus(g=9, r=1, d=3)"
    assert str(BNLocus(9, 1, 3)) == "M^1_{9,3}"
    # as documented in the README: a value equals the plain tuple of its fields
    assert BNLocus(9, 1, 3) == (9, 1, 3) and hash(BNLocus(9, 1, 3)) == hash((9, 1, 3))
    assert sorted([LatticeClass(1, 0), LatticeClass(0, 2), LatticeClass(0, -1)]) == [
        (0, -1), (0, 2), (1, 0)
    ]
    assert LatticeClass(1, 2) + LatticeClass(0, 1) == LatticeClass(1, 3)
    assert 2 * LatticeClass(1, -1) == LatticeClass(1, -1) * 2 == LatticeClass(2, -2)


def test_import_leaves_out_dataclasses():
    code = "import sys, bnloci.cli; print('dataclasses' in sys.modules)"
    assert run_python("-c", code).strip() == "False"
