import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bnloci.cli import (
    EXIT_CONTRADICTION,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    FactsError,
    genus_range,
    load_facts,
    main,
    packaged_facts,
    parse_fact_records,
)
from k3_jobs import assemble_jobs

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "bnloci" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "9", "2", "7")
    assert code == EXIT_OK
    assert "rho: -3" in out
    assert "kappa: 3 (brute-force cross-check: 3)" in out
    assert "delta: -17" in out


def test_invariants_trivial_case(capsys):
    code, out, _ = run(capsys, "invariants", "3", "1", "2")
    assert code == EXIT_OK and "rho: -1" in out


def test_invariants_normalizes_and_flags_nonspecial(capsys):
    code, out, _ = run(capsys, "invariants", "9", "2", "9")
    assert "normalized" in out
    assert code == EXIT_DOMAIN  # the normalized (1,7) has rho >= 0


@pytest.mark.parametrize(
    "g, r, d, dual, delta",
    [(30, 4, 6, "M^27_{30,52}", 312), (7, 2, 3, "M^5_{7,9}", 15)],
)
def test_invariants_below_cliffords_bound_prints_the_lines_and_a_note(capsys, g, r, d, dual, delta):
    # rho < 0 but d < 2r with d <= g-1: no curve carries such a series, so
    # the locus is not proper; its lines print, with a note in kappa's place
    code, out, err = run(capsys, "invariants", str(g), str(r), str(d))
    assert code == EXIT_DOMAIN and err == ""
    assert out.splitlines() == [
        f"locus: M^{r}_{{{g},{d}}}",
        f"rho: {g - (r + 1) * (g - d + r)}",
        f"clifford index: {d - 2 * r}",
        f"serre dual: {dual}",
        f"delta: {delta}",
        f"d < 2r: by Clifford's theorem no curve of genus {g} carries a g^{r}_{d} "
        f"(d <= g-1 after normalizing); kappa and gonality bounds are undefined",
    ]


@pytest.mark.parametrize("g, r, d, note", [
    (9, 2, 12, "rho >= 0: not Brill-Noether special"),
    (9, 8, 16, "rho >= 0: not Brill-Noether special"),  # the canonical series
    (9, 10, 18, "by Riemann-Roch no curve of genus 9 carries a g^10_18: it would have "
                "h^1 = 1, but h^1 >= 1 needs d <= 2g-2 = 16 and h^1 >= 2 needs d <= 2g-4 = 14"),
    (9, 8, 15, "by Riemann-Roch no curve of genus 9 carries a g^8_15: it would have "
               "h^1 = 2, but h^1 >= 1 needs d <= 2g-2 = 16 and h^1 >= 2 needs d <= 2g-4 = 14"),
])
def test_invariants_without_a_serre_dual_prints_the_lines_and_a_note(capsys, g, r, d, note):
    # d >= g and the Serre dual M^{g-d+r-1}_{g,2g-2-d} is not a locus: the
    # lines that need no dual print, with a note in kappa's place
    code, out, err = run(capsys, "invariants", str(g), str(r), str(d))
    assert code == EXIT_DOMAIN and err == ""
    assert out.splitlines() == [
        f"locus: M^{r}_{{{g},{d}}}",
        f"rho: {g - (r + 1) * (g - d + r)}",
        f"clifford index: {d - 2 * r}",
        f"delta: {4 * (g - 1) * (r - 1) - d * d}",
        f"{note}; kappa and gonality bounds are undefined",
    ]


def test_k3_command_table(capsys):
    code, out, _ = run(capsys, "k3", "9", "2", "6", "--series", "1")
    assert code == EXIT_OK
    assert out.count("1<2") == 4
    for val in ("8", "4"):
        assert val in out
    assert "minimum c2 bound: 4" in out


def test_k3_command_100_9_57(capsys):
    code, out, _ = run(capsys, "k3", "100", "9", "57", "--series", "4")
    assert code == EXIT_OK
    assert "203/4 (50.75)" in out
    assert "123/4 (30.75)" in out


def test_k3_inapplicable_exit_code(capsys):
    code, out, _ = run(capsys, "k3", "100", "2", "19", "--series", "1")
    assert code == EXIT_DOMAIN
    assert "inapplicable" in out


def test_k3_json_roundtrip(capsys):
    code, out, _ = run(capsys, "k3", "10", "3", "9", "--series", "2", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out.strip()
    assert payload["min_c2_bound"] == "15/2"
    assert len(payload["assignments"]) == 4


def test_k3_json_matches_benchmark_lock(capsys):
    # perfbench/refs.json is a regression lock on `bn k3 --json` output for
    # the five hottest listing jobs, not a mathematical truth
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))["k3"]
    assert len(refs) == 5
    for job, want in refs.items():
        g, r, d, s, filters = job.split(",")
        code, out, _ = run(capsys, "k3", g, r, d, "--series", s, "--filters", filters, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        got = {
            "assignments": len(payload["assignments"]),
            "min_c2_bound": payload["min_c2_bound"],
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
        }
        assert got == want, job


# sha256 of the `bn k3` text table for the jobs of the JSON lock above: a
# regression lock on the text rendering, not a mathematical truth
K3_TEXT_SHA256 = {
    "13,2,7,6,off": "e3f71b4ea64ad9712a6f0461519f3abbc3d3b7c39429dd5ceead15d51874ecca",
    "15,4,13,7,off": "b9c87b42a02b6841ecbee5cd10c6630976ef35d6cde977daab01a8a62cdad9ab",
    "16,1,2,7,on": "3f18936c8ece145e8f13105e9cec829b3f13021b5076dfeb10add3a998b5ffb2",
    "16,3,11,7,off": "c88c85ba484647519d48c1d4693ef8f750384acee7587afa19c2861e80956f99",
    "17,4,14,8,on": "dfc821163f3de37f7586db001004670140f352511ae292de26f2caa364631b00",
}


def test_k3_text_matches_lock(capsys):
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))["k3"]
    assert sorted(refs) == sorted(K3_TEXT_SHA256)
    for job in refs:
        g, r, d, s, filters = job.split(",")
        code, out, _ = run(capsys, "k3", g, r, d, "--series", s, "--filters", filters)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == K3_TEXT_SHA256[job], job


def _k3_oracle(g, r, d, s, filters):
    """`bn k3` output as the dict-payload renderer wrote it: one dict per
    assignment and one json.dumps over the payload (JSON), or the table
    built entry by entry (text); and the set of the entries' tags.  Each
    class is written as text once per job, not once per entry."""
    from bnloci import FilterConfig, LatticeBasis, destab_box, enumerate_assignments

    basis = LatticeBasis(g, r, d)
    config = FilterConfig(True, True) if filters == "on" else FilterConfig()
    assignments = enumerate_assignments(basis, s, config)
    minimum = min((a.c2_bound for a in assignments), default=None)
    box = destab_box(basis)
    classes = {c for a in assignments for c in a.chern}
    text_of, xy_of = {c: str(c) for c in classes}, {c: str(c.xy) for c in classes}
    payload = {
        "lattice": {"g": g, "r": r, "d": d},
        "series_dim": s,
        "filters": filters,
        "box": list(box),
        "assignments": [
            {
                "type": a.type_str,
                "chern": [text_of[c] for c in a.chern],
                "chern_xy": [list(c.xy) for c in a.chern],
                "c2_bound": str(a.c2_bound),
                "filters": list(a.filtered_by),
            }
            for a in assignments
        ],
        "min_c2_bound": None if minimum is None else str(minimum),
    }
    text = [
        f"lattice {basis}  series dimension s = {s}  filters {filters}",
        f"destabilizing box |x| <= {box[0]}, |y| <= {box[1]}",
    ]
    if not assignments:
        text.append("no admissible assignments: no such series on any smooth curve in |H|")
    else:
        text.append(f"{'type':<10} {'c1(E_i)':<28} {'(x,y) of c1(E_i)':<22} {'c2 bound':<12} flags")
        for a in assignments:
            chern = ", ".join([text_of[c] for c in a.chern[:-1]]) or "-"
            xy = ", ".join([xy_of[c] for c in a.chern[:-1]]) or "-"
            bound = str(a.c2_bound)
            if a.c2_bound.denominator != 1:
                bound += f" ({float(a.c2_bound):.2f})"
            flags = ",".join(a.filtered_by) or "-"
            text.append(f"{a.type_str:<10} {chern:<28} {xy:<22} {bound:<12} {flags}")
        text.append(f"minimum c2 bound: {minimum}")
    json_text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return json_text, "\n".join(text) + "\n", {a.filtered_by for a in assignments}


@pytest.mark.parametrize("filters", ["on", "off"])
def test_k3_output_equals_the_dict_payload_renderer(capsys, filters):
    # the assemble jobs of g = 7..14, the five perfbench k3_list jobs and an
    # empty listing; filters off, some entries carry both tags at once
    jobs = assemble_jobs(range(7, 15))
    assert len(jobs) == 344
    jobs += [tuple(map(int, job.split(",")[:4])) for job in sorted(K3_TEXT_SHA256)]
    tags = set()
    for job in jobs + [(3, 1, 3, 1)]:
        want_json, want_text, job_tags = _k3_oracle(*job, filters)
        argv = ["k3", *map(str, job[:3]), "--series", str(job[3]), "--filters", filters]
        assert run(capsys, *argv, "--json") == (EXIT_OK, want_json, ""), job
        assert run(capsys, *argv) == (EXIT_OK, want_text, ""), job
        tags |= job_tags
    assert tags == ({()} if filters == "on" else {(), ("dm",), ("elliptic",), ("dm", "elliptic")})


def test_k3_listings_render_from_records_with_no_fraction(capsys, monkeypatch):
    # the listing keeps its shape: no Assignment per entry, and no Fraction
    # at all, in JSON or in text, as every bound and the minimum are written
    # in integers; any Fraction built anywhere goes through Fraction.__new__
    from fractions import Fraction

    import bnloci.k3 as k3

    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(k3, "Assignment", None)  # building one would raise
    monkeypatch.setattr(Fraction, "__new__", counted)
    argv = ("k3", "15", "4", "13", "--series", "7")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    entries = json.loads(out)["assignments"]
    bounds = {a["c2_bound"] for a in entries}
    assert len(entries) == 14263 and len(bounds) > 100
    code, out, _ = run(capsys, *argv)
    # three header lines, one line per entry and the minimum
    assert code == EXIT_OK and out.count("\n") == 14263 + 4
    assert built == []
    # the counter sees a Fraction when one is built
    assert Fraction(3, 6) == Fraction(1, 2) and len(built) == 2


def test_k3_into_a_reader_that_closes_early_exits_0_quietly():
    # the listing runs far past a pipe buffer, so the write after the reader
    # closes raises BrokenPipeError, which main turns into a quiet exit 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bnloci.cli", "k3", "15", "4", "13", "--series", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"lattice ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


def test_k3_empty_listing_and_inapplicable_lattice_in_json(capsys):
    code, out, _ = run(capsys, "k3", "3", "1", "3", "--series", "1", "--json")
    assert code == EXIT_OK
    assert '"assignments":[]' in out and '"min_c2_bound":null' in out
    code, out, _ = run(capsys, "k3", "100", "2", "19", "--series", "1", "--json")
    assert code == EXIT_DOMAIN and out.startswith("inapplicable")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_k3_json_under_python_O_matches_benchmark_lock():
    # python -O strips asserts: the listing's leaf re-check and the renderer
    # must give the locked output without them
    want = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))["k3"][
        "13,2,7,6,off"
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "bnloci.cli", "k3", "13", "2", "7", "--series", "6", "--json"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    payload = json.loads(out)
    assert {
        "assignments": len(payload["assignments"]),
        "min_c2_bound": payload["min_c2_bound"],
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
    } == want


# sha256 of `bn poset G --format F` (with the packaged facts for G = 7..12,
# without facts for G = 13..20) and of `bn verify 7..12`: a regression lock
# on the poset and verify renderings, not a mathematical truth
POSET_SHA256 = {
    (7, "json"): "11876541e31fe4ad39c55850477011cb56546c24570d73d61d52b535df3b649f",
    (7, "dot"): "893494d2da47760a90f95e704bdbad6a32582a49fdd369c088565315f01b5f4e",
    (8, "json"): "965b0343d4ec4907fe0697dce820ad0cc4fc82ddefbbb341466fbcffc68ee1cc",
    (8, "dot"): "e7389b3e6be912b7a244241c7d4f3fe6b4f73655909d247c7e53d9d251728c6d",
    (9, "json"): "9e16e25ad8a2eba1323e55a6df0fab70671908c9e0e1d6fabe85ce4db8acef90",
    (9, "dot"): "36e54bfb794fd480ee49d762ae6b902fd617f58796152aa6d9426d3a73cc15dd",
    (10, "json"): "8d16cce32cf63985e0e3f3582d83ad769a3a4805762ca058a05a84828709c920",
    (10, "dot"): "1adb4457d2973178b445aef41a7125283d9ea71afbd04ac4469af52b797c7ca7",
    (11, "json"): "8202d3dca9bab90b3db48447e69270567723fe7cd067db2893d226c2f641b52a",
    (11, "dot"): "1d58bf521454ab97c3e5e2f27b4a72578c1bd03352beda06c11f9ce1de1c83f3",
    (12, "json"): "6c24b02fa1e498c084897aca005a0262e9cd2df83581fe71f3646a3e5ec2149d",
    (12, "dot"): "5a23585846f71e9594e925d77dd307a7b2cd69aa4841d208f7c1e198a29b3ccd",
    (13, "json"): "9bc3bebaa0fa2f906d2014257d202a8d074fef25fab62c9fb73278f31de4e4bb",
    (13, "dot"): "78866b75bbc199c0dc1320279f55e82f0d8a161d39b9443d46af8702bfe2a29a",
    (14, "json"): "74e2740e264fcb0578c82222e88f98a8151514c2487c810a6f22ecc63cad1f50",
    (14, "dot"): "68d678763eebceac2e4ee9472926cfee4333ef6bb3b8f63c42cf158fe7339c76",
    (15, "json"): "23336479fd943b86ce4d65e6e962a2830694d4ec89c6ed652187db2c645a6a8e",
    (15, "dot"): "3ac3d554b05e23c3bf72f497f2f5d2e3c4dd353a7c028ac1090a6f48a913abdc",
    (16, "json"): "7fd91cf0f9255a5349c95aedd61150247013d00eee209097dfcbefe4b462a063",
    (16, "dot"): "41ee518209e22b593f3a0018c9125c34deea93a2c33494f48ecda1658068dfb5",
    # g = 17..20 (JSON only) pin every premise string of the closure,
    # including the assemble_warm benchmark genus 18: a regression lock too
    (17, "json"): "c4d6e6eb892eac68448919f7c0b04d7664c9ec85f5fe78d0174ab1e4485c90fb",
    (18, "json"): "ea1124e0fb4edd8d852ced1d737789b67fa4fc300e2ca8b2f8358c79012e5a56",
    (19, "json"): "4f5090a5a56f14367db090eee009ea765431da74fc4249978a0bc0a962ca0cf9",
    (20, "json"): "71531bdf7f7c31cb33c61300d358a92685ed8aac880814554aceaaf735e6ff37",
}
VERIFY_SHA256 = "d24264e99f4e623298a4412edbc6864e266d6647cab565887d65aa02bcb4ab60"


def test_poset_and_verify_match_lock(capsys):
    for (g, fmt), want in POSET_SHA256.items():
        facts = ["--facts", str(DATA / f"genus{g}.json")] if g <= 12 else []
        code, out, _ = run(capsys, "poset", str(g), *facts, "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == want, (g, fmt)
    code, out, _ = run(capsys, "verify", "7..12")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256


def test_poset_dot_deterministic(capsys):
    code, out1, _ = run(capsys, "poset", "7", "--format", "dot")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "poset", "7", "--format", "dot")
    assert out1 == out2
    assert "M_1_3 -> M_2_6 [style=solid];" in out1
    assert "M_2_6 -> M_1_4 [style=solid];" in out1
    assert "\r" not in out1


def test_poset_genus_3_single_node(capsys):
    code, out, _ = run(capsys, "poset", "3", "--format", "dot")
    assert code == EXIT_OK
    assert out.count("[label=") == 1
    assert "style=solid" not in out


def test_poset_json_with_facts_file(capsys):
    code, out, _ = run(
        capsys, "poset", "12", "--facts", str(DATA / "genus12.json"), "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["unknown"] == []
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out.strip()


def test_poset_without_facts_leaves_unknowns(capsys):
    code, out, _ = run(capsys, "poset", "12", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["unknown"] != []


def test_poset_contradiction_exit_code(tmp_path, capsys):
    bad = [
        {
            "genus": 9,
            "lhs": {"r": 1, "d": 4},
            "rhs": {"r": 2, "d": 6},
            "relation": "subset",
            "source": "deliberately false",
        }
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "poset", "9", "--facts", str(path))
    assert code == EXIT_CONTRADICTION
    assert "kappa" in err


def test_facts_parse_errors(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "poset", "9", "--facts", str(path))
    assert code == EXIT_IO and "error" in err

    # a relation that is not a string is a parse error, not an unhashable key
    for relation in (["subset"], {"kind": "subset"}):
        record = {"genus": 9, "lhs": {"r": 1, "d": 4}, "rhs": {"r": 2, "d": 6}, "source": "x"}
        path.write_text(json.dumps([dict(record, relation=relation)]))
        code, _, err = run(capsys, "poset", "9", "--facts", str(path))
        assert code == EXIT_IO and "record 0" in err and "Traceback" not in err

    with pytest.raises(FactsError, match="record 0"):
        parse_fact_records(
            json.dumps(
                [
                    {
                        "genus": 9,
                        "lhs": {"r": 1, "d": 4},
                        "rhs": {"r": 2, "d": 6},
                        "relation": "subset",
                        "source": "x",
                        "extra": 1,
                    }
                ]
            ),
            9,
        )
    with pytest.raises(FactsError, match="not an enumerated proper locus"):
        parse_fact_records(
            json.dumps(
                [
                    {
                        "genus": 9,
                        "lhs": {"r": 1, "d": 8},
                        "rhs": {"r": 2, "d": 6},
                        "relation": "subset",
                        "source": "x",
                    }
                ]
            ),
            9,
        )
    # genus, r and d take JSON integers only: no float, string or bool
    good = {"genus": 9, "lhs": {"r": 1, "d": 4}, "rhs": {"r": 2, "d": 6},
            "relation": "subset", "source": "x"}
    assert len(parse_fact_records(json.dumps([good]), 9)) == 1
    for field, value in (("genus", 9.9), ("r", 1.7), ("d", "4"), ("r", True)):
        rec = json.loads(json.dumps(good))
        if field == "genus":
            rec["genus"] = value
        else:
            rec["lhs"][field] = value
        text = json.dumps([good, rec])
        with pytest.raises(FactsError, match=f"record 1: {field} must be an integer"):
            parse_fact_records(text, 9)
        path.write_text(text)
        code, out, err = run(capsys, "poset", "9", "--facts", str(path))
        assert code == EXIT_IO and out == "" and "record 1" in err, (field, value)
    # the other malformed records: a locus that is not an {r, d} object or
    # that BNLocus rejects, an unknown relation, an empty or non-string source
    for field, value, message in (
        ("lhs", [1, 4], "locus must be an object with keys r, d"),
        ("lhs", {"r": 0, "d": 4}, "invalid locus"),
        ("relation", "superset", "relation must be one of"),
        ("source", "", "source citation must be a non-empty string"),
        ("source", 7, "source citation must be a non-empty string"),
    ):
        text = json.dumps([good, dict(good, **{field: value})])
        with pytest.raises(FactsError, match=f"record 1: {message}"):
            parse_fact_records(text, 9)
        path.write_text(text)
        code, out, err = run(capsys, "poset", "9", "--facts", str(path))
        assert code == EXIT_IO and out == "" and f"record 1: {message}" in err, (field, value)
    # a top level that is not an array of records
    text = json.dumps(good)
    with pytest.raises(FactsError, match="top level must be a JSON array"):
        parse_fact_records(text, 9)
    path.write_text(text)
    code, out, err = run(capsys, "poset", "9", "--facts", str(path))
    assert code == EXIT_IO and out == "" and "top level must be a JSON array" in err


def _two_pass_parse(text, genus):
    """The fact parser as it was before the one-pass one, kept as its
    oracle: each record's fields checked one by one, each locus built and
    tested on its own, and each Fact built by Fact.__new__."""
    from bnloci.loci import BNLocus, RelKind, is_proper_locus
    from bnloci.poset import Fact

    relations = {k.value for k in RelKind}

    def json_int(value, where, what):
        if type(value) is not int:
            raise FactsError(f"{where}: {what} must be an integer, got {json.dumps(value)}")
        return value

    def point(g, obj, where):
        if not isinstance(obj, dict) or set(obj) != {"r", "d"}:
            raise FactsError(f"{where}: locus must be an object with keys r, d")
        r, d = json_int(obj["r"], where, "r"), json_int(obj["d"], where, "d")
        try:
            return BNLocus(g, r, d)
        except ValueError as exc:
            raise FactsError(f"{where}: {exc}") from exc

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FactsError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise FactsError("top level must be a JSON array of records")
    facts = []
    for i, rec in enumerate(data):
        where = f"record {i}"
        if not isinstance(rec, dict) or set(rec) != {"genus", "lhs", "rhs", "relation", "source"}:
            raise FactsError(
                f"{where}: expected exactly the keys genus, lhs, rhs, relation, source"
            )
        g = json_int(rec["genus"], where, "genus")
        if g != genus:
            raise FactsError(f"{where}: genus {g} does not match requested genus {genus}")
        if not isinstance(rec["relation"], str) or rec["relation"] not in relations:
            raise FactsError(f"{where}: relation must be one of {sorted(relations)}")
        if not isinstance(rec["source"], str) or not rec["source"]:
            raise FactsError(f"{where}: source citation must be a non-empty string")
        lhs = point(g, rec["lhs"], where)
        rhs = point(g, rec["rhs"], where)
        for pt in (lhs, rhs):
            if not is_proper_locus(*pt):
                raise FactsError(f"{where}: {pt} is not an enumerated proper locus")
        facts.append(Fact(lhs, rhs, RelKind(rec["relation"]), rec["source"]))
    return facts


_DROP = object()


def _edited(rec, *edits):
    """A copy of ``rec`` with each (path, value) edit applied: the value
    set at the path of keys, or the key removed when the value is _DROP."""
    new = json.loads(json.dumps(rec))
    for (*outer, key), value in edits:
        target = new
        for step in outer:
            target = target[step]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    return new


def _record_mutations(rec, g):
    """Single-field changes of the valid record ``rec`` of genus g, and a few
    values that are no record at all."""
    edits = [
        [(path, value)]
        for path in (("genus",), ("lhs", "r"), ("lhs", "d"), ("rhs", "r"), ("rhs", "d"))
        for value in (True, False, 1.0, 9.5, "4", None)
    ]
    edits += [[((key,), _DROP)] for key in ("genus", "lhs", "rhs", "relation", "source")]
    edits.append([(("extra",), 1)])
    edits += [[(("relation",), value)]
              for value in ("superset", "", "EQ", 1, None, True, ["subset"], {"kind": "subset"})]
    edits += [[(("source",), value)] for value in ("", 7, None, ["x"])]
    # off the genus: one above, one below, and one that BNLocus refuses
    edits += [[(("genus",), value)] for value in (g + 1, g - 1, 2)]
    improper = {"r": 1, "d": g - 1}  # rho(g, 1, g-1) = g - 4 >= 0
    for side, other in (("lhs", "rhs"), ("rhs", "lhs")):
        edits += [[((side, key), _DROP)] for key in ("r", "d")]
        edits += [[((side, "g"), g)], [((side,), [1, 4])], [((side,), None)],
                  [((side, "d"), g - 1)], [((side, "r"), 0)]]
        # an improper locus beside a malformed one: both loci parse before
        # either one's properness is tested
        edits += [[((side,), improper), ((other, "r"), "1")],
                  [((side,), improper), ((other,), [1, 4])]]
    return [_edited(rec, *edit) for edit in edits] + [[rec], 7, None, "record"]


@pytest.mark.parametrize("name", [f"{kind}genus{g}.json" for g in range(7, 13)
                                  for kind in ("", "fixture_")])
def test_the_one_pass_parser_agrees_with_the_two_pass_oracle(name):
    # each packaged file, and each single-field change of its first and last
    # record, at the file's genus: equal facts of equal types, or the same
    # FactsError message
    g = int(re.search(r"[0-9]+", name).group())
    records = json.loads((DATA / name).read_text(encoding="utf-8"))
    texts = [json.dumps(records), json.dumps(records[:1] * 3), "{not json", "{}"]
    for at in sorted({0, len(records) - 1}) if records else ():
        for mutated in _record_mutations(records[at], g):
            texts.append(json.dumps(records[:at] + [mutated] + records[at + 1:]))
    # points repeated within a file: a locus with r = 1 repeated with r true
    # after its valid twin, and a record of genus d after two valid ones
    pool = records or json.loads((DATA / f"fixture_genus{g}.json").read_text(encoding="utf-8"))
    rec, side = next((rec, side) for rec in pool for side in ("lhs", "rhs") if rec[side]["r"] == 1)
    for edit in (((side, "r"), True), (("genus",), rec[side]["d"])):
        texts.append(json.dumps([rec, rec, _edited(rec, edit)]))

    def outcome(parse, text, genus):
        try:
            facts = parse(text, genus)
        except FactsError as exc:
            return ("error", str(exc))
        return [(fact, [type(x) for x in (fact, *fact, *fact.lhs, *fact.rhs)])
                for fact in facts]

    assert len(texts) > 100 or not records
    for text in texts:
        assert outcome(parse_fact_records, text, g) == outcome(_two_pass_parse, text, g), text


def test_the_parser_builds_each_fact_through_its_constructor(monkeypatch):
    # Fact.__new__ runs on every record: wrapped to refuse one citation, it
    # passes the other records and stops the parse at the one that carries it
    from bnloci.poset import Fact

    new = Fact.__new__

    def refusing(cls, lhs, rhs, kind, source):
        if source == "refused citation":
            raise ValueError("refused citation")
        return new(cls, lhs, rhs, kind, source)

    monkeypatch.setattr(Fact, "__new__", staticmethod(refusing))
    good = {"genus": 9, "lhs": {"r": 1, "d": 4}, "rhs": {"r": 2, "d": 6},
            "relation": "subset", "source": "x"}
    assert len(parse_fact_records(json.dumps([good, good]), 9)) == 2
    with pytest.raises(ValueError, match="refused citation") as caught:
        parse_fact_records(json.dumps([good, dict(good, source="refused citation")]), 9)
    assert type(caught.value) is ValueError


def test_facts_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError: unmapped, it would exit as a domain error
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe[]")
    with pytest.raises(FactsError, match="not valid UTF-8"):
        load_facts(path, 9)
    code, out, err = run(capsys, "poset", "9", "--facts", str(path))
    assert code == EXIT_IO and out == "" and err.startswith("error: not valid UTF-8")


def test_facts_at_a_large_genus_parse_without_listing_the_loci(monkeypatch):
    # membership is the closed form of is_proper_locus: no enumerate_loci(g)
    import bnloci.cli as cli
    import bnloci.loci as loci

    def no_listing(g):
        raise AssertionError("enumerate_loci called")

    monkeypatch.setattr(cli, "enumerate_loci", no_listing)
    monkeypatch.setattr(loci, "enumerate_loci", no_listing)
    rec = {"genus": 4000, "lhs": {"r": 1, "d": 2}, "rhs": {"r": 2, "d": 2668},
           "relation": "subset", "source": "x"}
    (fact,) = parse_fact_records(json.dumps([rec]), 4000)
    assert (fact.lhs.key, fact.rhs.key) == ((1, 2), (2, 2668))
    rec["rhs"]["d"] = 2669  # rho(4000, 2, 2669) = 1
    with pytest.raises(FactsError, match="record 0: M\\^2_\\{4000,2669\\} is not an enumerated proper locus"):
        parse_fact_records(json.dumps([rec]), 4000)


def test_verify_single_genus(capsys):
    code, out, _ = run(capsys, "verify", "9")
    assert code == EXIT_OK
    assert "genus 9: PASS" in out


def test_verify_without_facts_prints_one_line_per_unknown_pair(capsys, monkeypatch):
    import bnloci.cli as cli
    from bnloci import assemble

    unknown = assemble(9).unknown_pairs()
    assert len(unknown) == 4
    monkeypatch.setattr(cli, "packaged_facts", lambda genus: [])
    code, out, _ = run(capsys, "verify", "9")
    assert code == EXIT_DOMAIN == 1
    assert re.search(r"^genus 9: FAIL \(\d+ differing cells, 4 unknown\)$", out, re.M)
    lines = [line for line in out.splitlines() if line.lstrip().startswith("unknown:")]
    assert lines == [f"  unknown: {x} vs {y}" for x, y in unknown]


def test_verify_corrupted_fixture_fails_with_diff(capsys, monkeypatch):
    import bnloci.cli as cli
    from bnloci import RelKind, closure_relations

    real = cli.packaged_fixture_matrix

    def corrupted(genus):
        matrix = real(genus)
        kept = [
            r
            for r in matrix.all_relations()
            if not (
                r.kind is RelKind.LE
                and {r.lhs.key, r.rhs.key} == {(2, 6), (1, 4)}
            )
        ]
        return closure_relations(genus, matrix.loci, kept)

    monkeypatch.setattr(cli, "packaged_fixture_matrix", corrupted)
    code, out, _ = run(capsys, "verify", "7")
    assert code == EXIT_DOMAIN
    assert "genus 7: FAIL" in out
    assert "computed subset, expected unknown" in out


def test_k3_filters_flag(capsys):
    code, out, _ = run(capsys, "k3", "11", "2", "7", "--series", "3", "--filters", "on")
    assert code == EXIT_OK
    assert "dm" not in out.split("minimum")[0].split("flags")[1]
    code, out_off, _ = run(capsys, "k3", "11", "2", "7", "--series", "3")
    assert "dm" in out_off


def test_parse_genus_range():
    assert list(genus_range("7..12")) == [7, 8, 9, 10, 11, 12]
    assert list(genus_range("9")) == [9]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    # two main calls, the second a usage error, build the parser once: each
    # build adds the one subcommand group of `bn`
    import argparse

    import bnloci.cli as cli

    built = []
    real = argparse.ArgumentParser.add_subparsers

    def spy(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    cli.build_parser.cache_clear()
    assert run(capsys, "invariants", "9", "2", "7")[0] == EXIT_OK
    with pytest.raises(SystemExit):
        main(["k3", "9", "2", "7"])
    assert built == ["bn"]
    assert "--series" in capsys.readouterr().err
    # and lazily: a process that only imports the module builds none
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import bnloci.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "0\n"


def test_cli_import_leaves_the_oracles_unloaded():
    # no engine path needs bnloci.oracles, so a fresh `import bnloci.cli`
    # does not load it, and the package does not re-export its checks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, bnloci.cli; before = 'bnloci.oracles' in sys.modules; "
        "import bnloci; "
        "print(before, hasattr(bnloci, 'gt_check'), 'bnloci.oracles' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False False False\n"


def test_poset_output_file(tmp_path, capsys):
    target = tmp_path / "g7.dot"
    code, out, _ = run(capsys, "poset", "7", "--output", str(target))
    assert code == EXIT_OK and out == ""
    text = target.read_text()
    assert text.startswith("digraph") and text.endswith("}\n")


def test_poset_rejects_mismatched_facts_genus(capsys):
    code, _, err = run(capsys, "poset", "9", "--facts", str(DATA / "genus12.json"))
    assert code == EXIT_IO
    assert "genus" in err


def test_make_data_reproduces_packaged_data():
    # tools/make_data.py is independent of the package; its output must be
    # the packaged files byte for byte
    spec = importlib.util.spec_from_file_location("make_data", ROOT / "tools" / "make_data.py")
    make_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_data)
    for g in range(7, 13):
        for name, records in (
            (f"genus{g}.json", make_data.FACTS[g]),
            (f"fixture_genus{g}.json", make_data.build_fixture(g)),
        ):
            text = json.dumps(make_data.to_json_records(g, records), indent=1) + "\n"
            assert text == (DATA / name).read_text(encoding="utf-8")


def test_packaged_facts_all_cite_sources():
    for g in range(7, 13):
        for fact in packaged_facts(g):
            assert fact.source


@pytest.mark.parametrize("g,r,d", [(10, 3, 9), (11, 2, 7)])
@pytest.mark.parametrize("filters", ["on", "off"])
def test_k3_json_minimum_equals_min_series_degree(capsys, g, r, d, filters):
    from bnloci import FilterConfig, LatticeBasis, min_series_degree

    config = FilterConfig(True, True) if filters == "on" else FilterConfig()
    for s in (1, 2, 3):
        code, out, _ = run(
            capsys, "k3", str(g), str(r), str(d), "--series", str(s),
            "--filters", filters, "--json",
        )
        assert code == EXIT_OK
        want = min_series_degree(LatticeBasis(g, r, d), s, config)
        assert json.loads(out)["min_c2_bound"] == str(want)


def _refuse_work(monkeypatch, name):
    import bnloci.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} started")

    monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "job, message",
    [
        pytest.param(("10", "3", "9", s), "outside 1..4", id=s)
        for s in ("0", "-1", "5", "1000000")
    ]
    # s = 49 is a proper rank at g = 100 but would list 2^49 - 1 types
    + [pytest.param(("100", "9", "57", "49"), "above 14", id="100-9-57-49")],
)
def test_k3_series_outside_proper_ranks_is_rejected(capsys, monkeypatch, job, message):
    _refuse_work(monkeypatch, "listing_records")
    _refuse_work(monkeypatch, "LatticeBasis")
    g, r, d, s = job
    code, out, err = run(capsys, "k3", g, r, d, "--series", s)
    assert code == EXIT_DOMAIN
    assert message in err and out == ""


@pytest.mark.parametrize("g", ["2", "-5"])
def test_k3_genus_below_3_is_rejected_as_poset_rejects_it(capsys, monkeypatch, g):
    _refuse_work(monkeypatch, "listing_records")
    _refuse_work(monkeypatch, "LatticeBasis")
    code, out, err = run(capsys, "k3", g, "1", "2", "--series", "1")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "need g >= 3" in err and "--series" not in err
    assert run(capsys, "poset", g) == (code, out, err)


def test_verify_empty_range_is_rejected(capsys, monkeypatch):
    _refuse_work(monkeypatch, "assemble")
    code, out, err = run(capsys, "verify", "12..7")
    assert code == EXIT_DOMAIN
    assert "empty genus range 12..7" in err and out == ""
    with pytest.raises(ValueError, match="empty"):
        list(genus_range("12..7"))


@pytest.mark.parametrize("spec", ["7..", "abc", "7..x", "..12", "", "-3", "7...12"])
def test_verify_malformed_range_names_the_spec_and_the_forms(capsys, monkeypatch, spec):
    _refuse_work(monkeypatch, "assemble")
    code, out, err = run(capsys, "verify", spec)
    assert code == EXIT_DOMAIN and out == ""
    assert f"invalid genus range {spec!r}" in err
    assert "a genus (9) or a range (7..12)" in err
    with pytest.raises(ValueError, match="invalid genus range"):
        list(genus_range(spec))


def test_poset_above_the_genus_cap_is_rejected(capsys, monkeypatch):
    from bnloci.cli import MAX_POSET_GENUS

    assert MAX_POSET_GENUS == 30
    _refuse_work(monkeypatch, "assemble")
    code, out, err = run(capsys, "poset", "31", "--format", "json")
    assert code == EXIT_DOMAIN and out == ""
    assert "genus 31 is above 30" in err
    # the cap itself is assembled: the refusal shows that it got that far
    with pytest.raises(AssertionError, match="assemble started"):
        main(["poset", "30"])


@pytest.mark.parametrize("g", ["1000001", str(10**8), "9" * 40])
def test_invariants_above_the_genus_cap_is_refused_before_any_work(capsys, monkeypatch, g):
    # kappa_bruteforce scans about g/2 values: 6 s at 10^7, far longer at 10^8
    from bnloci.cli import MAX_INVARIANTS_GENUS

    assert MAX_INVARIANTS_GENUS == 10**6
    for name in ("BNLocus", "kappa_bruteforce"):
        _refuse_work(monkeypatch, name)
    code, out, err = run(capsys, "invariants", g, "1", "3")
    assert code == EXIT_DOMAIN and out == ""
    assert f"genus {g} is above 1000000" in err
    # the cap itself gets past the check, to the work
    with pytest.raises(AssertionError, match="BNLocus started"):
        main(["invariants", "1000000", "1", "3"])


def test_k3_on_a_lattice_without_candidates_lists_nothing(capsys):
    # Lambda^1_(3,4) has an empty destabilizing box scan: the walk has no
    # candidate row and emits no leaf
    code, out, err = run(capsys, "k3", "3", "1", "4", "--series", "1")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "lattice Lambda^1_(3,4)  series dimension s = 1  filters off\n"
        "destabilizing box |x| <= 1, |y| <= 0\n"
        "no admissible assignments: no such series on any smooth curve in |H|\n"
    )


@pytest.mark.parametrize("spec", ["13", "6", "11..13"])
def test_verify_outside_packaged_genera_is_a_domain_error(capsys, monkeypatch, spec):
    _refuse_work(monkeypatch, "assemble")
    code, out, err = run(capsys, "verify", spec)
    assert code == EXIT_DOMAIN
    assert "packaged genera are 7..12" in err and out == ""


def test_verify_range_past_a_machine_int_is_a_domain_error(capsys, monkeypatch):
    # a 20-digit bound is checked against the packaged genera before any
    # list of genera is built; it once died in an OverflowError traceback
    _refuse_work(monkeypatch, "assemble")
    code, out, err = run(capsys, "verify", "7..99999999999999999999")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "no packaged facts or fixture for genus 13" in err


def test_packaged_reads_what_importlib_resources_reads():
    # _packaged reads by path; the installed-package view is the reference
    from importlib import resources

    from bnloci.cli import PACKAGED_GENERA, _packaged

    data = resources.files("bnloci.data")
    for g in PACKAGED_GENERA:
        for name in (f"genus{g}.json", f"fixture_genus{g}.json"):
            assert _packaged(name) == data.joinpath(name).read_text(encoding="utf-8")


def test_packaged_genera_have_their_data_files():
    from importlib import resources

    from bnloci.cli import PACKAGED_GENERA

    data = resources.files("bnloci.data")
    for g in PACKAGED_GENERA:
        for name in (f"genus{g}.json", f"fixture_genus{g}.json"):
            assert data.joinpath(name).is_file()


@pytest.mark.parametrize(
    "job, box, size",
    [
        (("1000000", "2", "2000"), "|x| <= 1001, |y| <= 999999", 2000997999),
        (("1000000", "1", "1"), "|x| <= 1, |y| <= 1999997", 2999995),
        # X = 2000000002 columns: the count is a closed form, not a column sum
        (
            ("1000000001", "1000000002", "2000000001"),
            "|x| <= 2000000002, |y| <= 2000000000",
            8000000006000000000,
        ),
    ],
)
def test_k3_box_above_the_cap_is_rejected_before_any_class(capsys, monkeypatch, job, box, size):
    import bnloci.k3 as k3
    from bnloci.cli import MAX_K3_BOX_CLASSES

    _refuse_work(monkeypatch, "listing_records")
    monkeypatch.setattr(k3, "LatticeClass", None)  # building a class would raise
    code, out, err = run(capsys, "k3", *job, "--series", "1")
    assert code == EXIT_DOMAIN and out == ""
    assert f"box {box}" in err and f"holds {size} quotient classes" in err
    assert f"above {MAX_K3_BOX_CLASSES}" in err


def test_k3_without_series_is_a_usage_error(capsys):
    # argparse exits 2, the status of a contradiction, with the usage on stderr
    with pytest.raises(SystemExit) as exc:
        main(["k3", "9", "2", "6"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ") and "--series" in err


def test_k3_listing_above_the_cap_is_rejected_at_that_leaf(capsys, monkeypatch):
    import bnloci.k3 as k3
    from bnloci import LatticeBasis, enumerate_assignments

    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))["k3"]
    assert max(v["assignments"] for v in refs.values()) == 14263 < k3.MAX_ASSIGNMENTS
    # the README's example at the real cap: 32,999 kept at s = 4, past it at 5
    _, _, groups = k3.listing_records(LatticeBasis(61, 8, 41), 4)
    assert sum(len(records) for _, records in groups) == 32999
    code, out, err = run(capsys, "k3", "61", "8", "41", "--series", "5", "--json")
    assert code == EXIT_DOMAIN and out == ""
    assert "listing of Lambda^8_(61,41) at s = 5 passes 100000 assignments" in err
    basis = LatticeBasis(11, 2, 7)
    full = len(enumerate_assignments(basis, 3))
    monkeypatch.setattr(k3, "MAX_ASSIGNMENTS", full)  # a listing at the cap is kept
    assert len(enumerate_assignments(basis, 3)) == full

    cap, leaves, walk = full // 2, [], k3._walk

    def counted_walk(basis, s, drop, leaf):  # counts every leaf the walk emits
        def counted(*args):
            leaves.append(args)
            return leaf(*args)

        return walk(basis, s, drop, counted)

    monkeypatch.setattr(k3, "MAX_ASSIGNMENTS", cap)
    monkeypatch.setattr(k3, "_walk", counted_walk)
    message = f"listing of Lambda^2_(11,7) at s = 3 passes {cap} assignments"
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_assignments(basis, 3)
    assert len(leaves) == cap + 1  # the walk stops at the first leaf past the cap
    code, out, err = run(capsys, "k3", "11", "2", "7", "--series", "3", "--json")
    assert code == EXIT_DOMAIN and out == ""
    assert message in err


def test_k3_box_cap_admits_every_assemble_box_and_the_readme_jobs(monkeypatch):
    from bnloci import LatticeBasis, box_class_count, delta, enumerate_loci
    from bnloci.cli import MAX_K3_BOX_CLASSES

    sizes = {
        (g, x.r, x.d): box_class_count(LatticeBasis(g, x.r, x.d))
        for g in range(3, 31)
        for x in enumerate_loci(g)
        if delta(g, x.r, x.d) < 0
    }
    assert max(sizes.values()) == sizes[(27, 7, 25)] == 2652
    assert box_class_count(LatticeBasis(100, 9, 57)) == 286
    assert max(sizes.values()) < MAX_K3_BOX_CLASSES
    # a job at the cap gets past it, to the search
    _refuse_work(monkeypatch, "listing_records")
    with pytest.raises(AssertionError, match="listing_records started"):
        main(["k3", "27", "7", "25", "--series", "1"])
