"""Command-line surface: `bn invariants`, `bn k3`, `bn poset`, `bn verify`.

Exit statuses: 0 success, 1 domain error (invalid locus, Delta >= 0 where a
lattice is required, verification diff), 2 contradiction or usage error
(argparse exits 2 with the usage on stderr, e.g. ``bn k3`` without
``--series``), 3 I/O or parse error.  Every other refusal prints
``error: ...`` on stderr.  Two exits of 1 are reports, with the report on
stdout and nothing on stderr: ``bn verify`` with a diff, and
``bn invariants`` off the proper loci or with a kappa mismatch.

Numbers: G, R, D and ``--series`` are read by ``int()`` (argparse
``type=int``), so a sign, surrounding spaces and non-ASCII decimal digits
pass (``+7``, ``" 7"`` and U+0667, Arabic-Indic seven, are all 7);
``bn verify``'s range takes ASCII digits only, and the facts files JSON
integers only.

A fresh process pays only for what its command runs: the packaged facts
and fixtures are read by path (:func:`_packaged`) and parsed in one pass
at the genus the caller names, each locus built by BNLocus and each
record by Fact (:func:`parse_fact_records`), and no command imports
``fractions``, as none builds a Fraction (see :mod:`bnloci.k3`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from .classical import gonality_bounds
from .k3 import (
    _TAG_NAMES,
    BOTH_FILTERS,
    FilterConfig,
    bound_text,
    box_class_count,
    destab_box,
    key_prefixes,
    listing_records,
    type_text,
)
from .lattice import H, LatticeBasis, delta
from .loci import (
    BNLocus,
    RelKind,
    clifford_index,
    enumerate_loci,
    is_proper_locus,
    kappa,
    kappa_bruteforce,
    normalize,
    rho,
    serre_dual,
)
from .poset import (
    ContradictionError,
    Fact,
    RelationMatrix,
    assemble,
    closure_relations,
    compare,
    covers,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONTRADICTION = 2
EXIT_IO = 3

# genera with a packaged facts file and fixture under bnloci/data
PACKAGED_GENERA = range(7, 13)

# the largest genus `bn poset` assembles: the top of the tests' behaviour
# lock, where a cold assemble takes 20-25 ms (medians of 11 fresh
# processes, the call alone timed by perf_counter) and a fresh
# `bn poset 30 --format json` 0.19-0.21 s (medians of 15 whole processes,
# output to /dev/null, no bytecode cache), each range over six sets on a
# 2-CPU x86_64 VM with CPython 3.11.7 whose speed drifts; the cost grows
# fast above
MAX_POSET_GENUS = 30

# the keys of a record and of a locus: a dict's keys() equal these iff it
# has exactly them
_RECORD_KEYS = frozenset({"genus", "lhs", "rhs", "relation", "source"})
_POINT_KEYS = frozenset({"r", "d"})
# each relation's value to its kind
_KINDS = {k.value: k for k in RelKind}


class FactsError(ValueError):
    """Malformed facts or fixture file."""


def _json_int(value, where: str, what: str) -> int:
    # a JSON integer only, so no float, string or bool is coerced; the type
    # is compared exactly because bool is a subclass of int
    if type(value) is not int:
        raise FactsError(f"{where}: {what} must be an integer, got {json.dumps(value)}")
    return value


def _parse_point(genus: int, obj, where: str) -> BNLocus:
    """The locus that ``obj``, an object with exactly the keys r, d, names
    at ``genus``, built by BNLocus; whether it is proper is the caller's
    test."""
    if not isinstance(obj, dict) or obj.keys() != _POINT_KEYS:
        raise FactsError(f"{where}: locus must be an object with keys r, d")
    r, d = _json_int(obj["r"], where, "r"), _json_int(obj["d"], where, "d")
    try:
        return BNLocus(genus, r, d)
    except ValueError as exc:
        raise FactsError(f"{where}: {exc}") from exc


def parse_fact_records(text: str, genus: int) -> list[Fact]:
    """Parse a JSON array of fact records of ``genus``, validating every
    record's loci as enumerated proper loci of that genus
    (:func:`~bnloci.loci.is_proper_locus`, no listing).  Raises FactsError
    with the index of the offending record.

    One pass, which reports the first fault of a record in a fixed order:
    its keys, genus, relation and source, then both loci, and only then
    whether each is proper.  Each Fact is built by ``Fact``, whose own
    checks run on every record."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FactsError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise FactsError("top level must be a JSON array of records")
    facts = []
    for i, rec in enumerate(data):
        where = f"record {i}"
        if not isinstance(rec, dict) or rec.keys() != _RECORD_KEYS:
            raise FactsError(
                f"{where}: expected exactly the keys genus, lhs, rhs, relation, source"
            )
        g = _json_int(rec["genus"], where, "genus")
        if g != genus:
            raise FactsError(f"{where}: genus {g} does not match requested genus {genus}")
        relation = rec["relation"]
        kind = _KINDS.get(relation) if isinstance(relation, str) else None
        if kind is None:
            raise FactsError(f"{where}: relation must be one of {sorted(_KINDS)}")
        source = rec["source"]
        if not isinstance(source, str) or not source:
            raise FactsError(f"{where}: source citation must be a non-empty string")
        lhs = _parse_point(g, rec["lhs"], where)
        rhs = _parse_point(g, rec["rhs"], where)
        for pt in (lhs, rhs):
            if not is_proper_locus(*pt):
                raise FactsError(f"{where}: {pt} is not an enumerated proper locus")
        facts.append(Fact(lhs, rhs, kind, source))
    return facts


def load_facts(path: str | Path, genus: int) -> list[Fact]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, so main would file it as a domain error
        raise FactsError(f"not valid UTF-8: {exc}") from exc
    return parse_fact_records(text, genus)


def _packaged(name: str) -> str:
    """The text of the packaged data file ``name``, read by its path beside
    this module, where pyproject ships ``data/*.json``: the text that
    ``importlib.resources`` gives, but the twelve packaged files take
    0.2-0.5 ms this way and 1.4-2.2 ms through it (fresh processes, 2-CPU
    x86_64, CPython 3.11.7)."""
    return (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")


def packaged_facts(genus: int) -> list[Fact]:
    return parse_fact_records(_packaged(f"genus{genus}.json"), genus)


def packaged_fixture_matrix(genus: int) -> RelationMatrix:
    facts = parse_fact_records(_packaged(f"fixture_genus{genus}.json"), genus)
    return closure_relations(
        genus, enumerate_loci(genus), [f.to_relation() for f in facts]
    )


# ---------------------------------------------------------------- invariants


# the largest genus `bn invariants` takes: kappa_bruteforce scans about g/2
# values of k, about 0.8 s at this cap and 6 s at 10^7 (2-CPU x86_64 VM)
MAX_INVARIANTS_GENUS = 10**6


def cmd_invariants(args) -> int:
    g, r, d = args.g, args.r, args.d
    if g > MAX_INVARIANTS_GENUS:
        raise ValueError(
            f"genus {g} is above {MAX_INVARIANTS_GENUS}, the largest genus "
            f"bn invariants takes: its brute-force kappa check scans about g/2 values"
        )
    locus = BNLocus(g, r, d)
    lines = []
    try:
        norm = normalize(locus)
    except ValueError:  # d >= g, and the Serre dual has r' < 1 or d' < 2
        norm = None
    if norm not in (None, locus):
        lines.append(f"note: {locus} normalized to {norm} by Serre duality")
        locus = norm
    rv = rho(locus.g, locus.r, locus.d)
    lines += [f"locus: {locus}", f"rho: {rv}", f"clifford index: {clifford_index(locus)}"]
    if norm:
        # d <= g-1 now, so the dual has r' = g-d+r-1 >= r and d' = 2g-2-d >= g-1 >= 2
        lines.append(f"serre dual: {serre_dual(locus)}")
    lines.append(f"delta: {delta(locus.g, locus.r, locus.d)}")
    # off the proper loci: rho >= 0, or d < 2r with d <= g-1, or no Serre dual
    # (r' = h^1 - 1 < 1 or d' = 2g-2-d < 2), where rho = g - (r+1)h^1 < 0 needs
    # h^1 >= 1 past degree 2g-2 or h^1 >= 2 past 2g-4
    if not (norm and is_proper_locus(*locus)):
        why = "rho >= 0: not Brill-Noether special" if rv >= 0 else (
            f"d < 2r: by Clifford's theorem no curve of genus {g} carries a "
            f"g^{locus.r}_{locus.d} (d <= g-1 after normalizing)" if norm else
            f"by Riemann-Roch no curve of genus {g} carries a g^{r}_{d}: it would have "
            f"h^1 = {g - d + r}, but h^1 >= 1 needs d <= 2g-2 = {2 * g - 2} and "
            f"h^1 >= 2 needs d <= 2g-4 = {2 * g - 4}")
        lines.append(f"{why}; kappa and gonality bounds are undefined")
        print("\n".join(lines))
        return EXIT_DOMAIN
    k = kappa(locus.g, locus.r, locus.d)
    kb = kappa_bruteforce(locus.g, locus.r, locus.d)
    lines.append(f"kappa: {k} (brute-force cross-check: {kb})")
    lo, hi = gonality_bounds(locus.g, locus.r, locus.d)
    lines.append(f"gonality bounds: kappa lower bound {lo}, heuristic K {hi}")
    lines.append("note: the heuristic K can fail when the K3 lattice carries "
                 "elliptic pencils; it is not a certificate")
    print("\n".join(lines))
    return EXIT_OK if k == kb else EXIT_DOMAIN


# ------------------------------------------------------------------------ k3


# the largest --series that `bn k3` lists: s sets 2^s - 1 filtration types,
# and this is the largest s that assemble reaches up to MAX_POSET_GENUS, as
# the proper loci of genus g have s <= (g-1)/2
MAX_K3_SERIES = (MAX_POSET_GENUS - 1) // 2

# the most quotient classes `bn k3` scans in the destabilizing box: the box
# grows with g (about 2 * 10^9 classes on Lambda^2_(10^6,2000)); the largest
# box that assemble reaches up to genus 30 has 2,652 (Lambda^7_(27,25))
MAX_K3_BOX_CLASSES = 10_000


def _class_columns(classes, name, sep, end):
    """One column of the classes that `bn k3` renders the keys of
    :func:`~bnloci.k3.listing_records` in: ``(prefixes, lasts)``, both
    indexed by ints.  ``name`` names each class once; ``lasts[digit]`` is
    the name of the class of a digit followed by ``end``, and
    ``prefixes[key // len(classes)]`` the names of a key's prefix, each
    followed by ``sep`` (:func:`~bnloci.k3.key_prefixes`), each prefix
    built once, as siblings share all classes but the last.  A key's column
    is its prefix's entry followed by ``lasts[key % len(classes)]``."""
    names = [name(c) for c in classes]
    return key_prefixes([n + sep for n in names], ""), [n + end for n in names]


def cmd_k3(args) -> int:
    """`bn k3`, rendered from :func:`~bnloci.k3.listing_records` with no
    Assignment and no Fraction, in one write per type, each record from
    per-listing tables:
    each distinct bound's text once, in integers
    (:func:`~bnloci.k3.bound_text`), keyed by its scaled integer, for every
    scaled total of the listing before the first write; each
    class's fragments once, indexed by digit, and each key prefix's once
    (:func:`_class_columns`); the filter and type fragments once per type,
    indexed by the int tags.  The minimum is the least scaled bound."""
    if args.g < 3:
        # the message enumerate_loci gives, and so bn poset
        raise ValueError("need g >= 3")
    # the series of proper loci of genus g have 1 <= s <= (g-1)/2
    top = (args.g - 1) // 2
    if not 1 <= args.series <= top:
        raise ValueError(
            f"--series {args.series} is outside 1..{top}, the ranks of proper "
            f"Brill-Noether loci of genus {args.g}"
        )
    if args.series > MAX_K3_SERIES:
        raise ValueError(
            f"--series {args.series} is above {MAX_K3_SERIES}, the largest series "
            f"bn k3 lists: s sets 2^s - 1 filtration types"
        )
    basis = LatticeBasis(args.g, args.r, args.d)
    if basis.discriminant >= 0:
        print(
            f"inapplicable: Delta({args.g},{args.r},{args.d}) = "
            f"{basis.discriminant} >= 0, no K3 surface with this Picard lattice"
        )
        return EXIT_DOMAIN
    box = destab_box(basis)
    size = box_class_count(basis)
    if size > MAX_K3_BOX_CLASSES:
        raise ValueError(
            f"the destabilizing box |x| <= {box[0]}, |y| <= {box[1]} of {basis} "
            f"holds {size} quotient classes, above {MAX_K3_BOX_CLASSES}, the most "
            f"bn k3 scans"
        )
    config = BOTH_FILTERS if args.filters == "on" else FilterConfig()
    big, classes, groups = listing_records(basis, args.series, config)
    radix = len(classes)
    totals = {total for _, records in groups for _, total, _ in records}
    write = sys.stdout.write
    if args.json:
        # the bytes of json.dumps(payload, sort_keys=True, separators=(",", ":")):
        # "assignments" is the first key, each entry's keys are written in
        # sorted order, and every fragment comes from json.dumps, but for the
        # bound text, whose characters JSON does not escape
        dumps = functools.partial(json.dumps, separators=(",", ":"))
        bound = {total: f'"{bound_text(total, big)}"' for total in totals}
        top, top_xy = dumps(str(H)), dumps(list(H.xy))
        text, chern = _class_columns(classes, lambda c: dumps(str(c)), ",", "," + top)
        xy, chern_xy = _class_columns(classes, lambda c: dumps(list(c.xy)), ",", "," + top_xy)
        flags = [dumps(list(names)) for names in _TAG_NAMES]
        write('{"assignments":[')
        sep = ""
        for ranks, records in groups:  # one write per type
            kind = dumps(type_text(ranks))
            tails = [f'],"filters":{names},"type":{kind}}}' for names in flags]
            write(sep + ",".join([
                f'{{"c2_bound":{bound[total]},"chern":[{text[key // radix]}{chern[key % radix]}],'
                f'"chern_xy":[{xy[key // radix]}{chern_xy[key % radix]}{tails[tags]}'
                for key, total, tags in records
            ]))
            sep = ","
        minimum = min(bound, default=None)  # the table is keyed by every scaled bound
        rest = {"lattice": {"g": args.g, "r": args.r, "d": args.d}, "series_dim": args.series,
                "filters": args.filters, "box": list(box),
                "min_c2_bound": None if minimum is None else bound_text(minimum, big)}
        write("]," + dumps(rest, sort_keys=True)[1:] + "\n")
        return EXIT_OK
    print(f"lattice {basis}  series dimension s = {args.series}  filters {args.filters}")
    print(f"destabilizing box |x| <= {box[0]}, |y| <= {box[1]}")
    if not groups:
        print("no admissible assignments: no such series on any smooth curve in |H|")
        return EXIT_OK
    print(f"{'type':<10} {'c1(E_i)':<28} {'(x,y) of c1(E_i)':<22} {'c2 bound':<12} flags")
    # a fractional bound also as a decimal: int / int rounds as float(Fraction) does
    bound = {t: bound_text(t, big) + (f" ({t / big:.2f})" if t % big else "") for t in totals}
    text, chern = _class_columns(classes, str, ", ", "")
    xy, chern_xy = _class_columns(classes, lambda c: str(c.xy), ", ", "")
    flags = [",".join(names) or "-" for names in _TAG_NAMES]
    for ranks, records in groups:  # one write per type
        kind = f"{type_text(ranks):<10}"
        write("".join([
            f"{kind} {text[key // radix] + chern[key % radix]:<28} "
            f"{xy[key // radix] + chern_xy[key % radix]:<22} {bound[total]:<12} {flags[tags]}\n"
            for key, total, tags in records
        ]))
    print(f"minimum c2 bound: {bound_text(min(bound), big)}")
    return EXIT_OK


# --------------------------------------------------------------------- poset


def _locus_json(x: BNLocus) -> list[int]:
    return [x.r, x.d]


def matrix_to_json(matrix: RelationMatrix) -> str:
    relations = [
        {
            "lhs": _locus_json(r.lhs),
            "rhs": _locus_json(r.rhs),
            "relation": r.kind.value,
            "provenance": r.provenance,
        }
        for r in matrix.all_relations()
        if r.kind is not RelKind.EQ
    ]
    payload = {
        "genus": matrix.genus,
        "classes": [[_locus_json(m) for m in cls] for cls in matrix.classes],
        "relations": relations,
        "covers": [
            {"lhs": _locus_json(c.lhs), "rhs": _locus_json(c.rhs)}
            for c in covers(matrix)
        ],
        "unknown": [
            [_locus_json(x), _locus_json(y)] for (x, y) in matrix.unknown_pairs()
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _node_id(rep: BNLocus) -> str:
    return f"M_{rep.r}_{rep.d}"


def matrix_to_dot(matrix: RelationMatrix) -> str:
    """Deterministic DOT: nodes sorted, one node per equality class, grid by
    r (horizontal) and Clifford index (vertical rank constraints)."""
    g = matrix.genus
    lines = [f"digraph brill_noether_genus_{g} {{", '  rankdir="BT";', '  node [shape=box];']
    # the classes come in key order of their representatives, so each
    # Clifford level's row is already sorted
    levels: dict[int, list[str]] = {}
    for cls in matrix.classes:
        node = _node_id(cls[0])
        label = " = ".join(str(m) for m in cls)
        lines.append(f'  {node} [label="{label}"];')
        levels.setdefault(clifford_index(cls[0]), []).append(node)
    rows = [levels[lev] for lev in sorted(levels)]
    for row in rows:
        lines.append("  { rank=same; " + "; ".join(row) + "; }")
    for lower, upper in zip(rows, rows[1:]):
        lines.append(f"  {lower[0]} -> {upper[0]} [style=invis];")
    for cov in covers(matrix):
        lines.append(
            f"  {_node_id(cov.lhs)} -> {_node_id(cov.rhs)} [style=solid];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_poset(args) -> int:
    if args.g > MAX_POSET_GENUS:
        raise ValueError(
            f"genus {args.g} is above {MAX_POSET_GENUS}, the largest genus "
            f"bn poset assembles"
        )
    facts = load_facts(args.facts, args.g) if args.facts else []
    matrix = assemble(args.g, facts)
    text = matrix_to_dot(matrix) if args.format == "dot" else matrix_to_json(matrix) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -------------------------------------------------------------------- verify


def genus_range(spec: str) -> range:
    """'9' or '7..12' as a range of genera, built without listing them; a
    malformed spec or an empty range is a ValueError that names the spec."""
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", spec)
    if match is None:
        raise ValueError(
            f"invalid genus range {spec!r}: expected a genus (9) or a range (7..12)"
        )
    lo, hi = match.groups()
    genera = range(int(lo), int(hi or lo) + 1)
    if not genera:
        raise ValueError(f"empty genus range {spec}")
    return genera


def cmd_verify(args) -> int:
    genera = genus_range(args.range)
    # the first genus outside is at most one past the packaged ones, so this
    # stops after a few steps however far the range reaches
    outside = next((g for g in genera if g not in PACKAGED_GENERA), None)
    if outside is not None:
        raise ValueError(
            f"no packaged facts or fixture for genus {outside}; packaged "
            f"genera are {PACKAGED_GENERA[0]}..{PACKAGED_GENERA[-1]}"
        )
    failed = False
    for g in genera:
        facts = packaged_facts(g)
        expected = packaged_fixture_matrix(g)
        computed = assemble(g, facts)
        diffs = compare(computed, expected)
        unknown = computed.unknown_pairs()
        if diffs or unknown:
            failed = True
            print(f"genus {g}: FAIL ({len(diffs)} differing cells, "
                  f"{len(unknown)} unknown)")
            for diff in diffs:
                print(f"  {diff}")
            for x, y in unknown:
                print(f"  unknown: {x} vs {y}")
        else:
            print(f"genus {g}: PASS ({len(computed.classes)} classes, "
                  f"{computed.relation_count()} closed relations)")
    return EXIT_DOMAIN if failed else EXIT_OK


# ---------------------------------------------------------------------- main


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `bn` parser, built on the first call and shared by every later
    one: parsing leaves it unchanged, and a process that only imports this
    module builds none."""
    p = argparse.ArgumentParser(
        prog="bn",
        description="Relative positions of Brill-Noether loci: invariants, "
        "K3 lattice bounds, and containment posets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("invariants", help="numerical invariants of one locus")
    pi.add_argument("g", type=int, help=f"the genus, at most {MAX_INVARIANTS_GENUS}")
    pi.add_argument("r", type=int)
    pi.add_argument("d", type=int)
    pi.set_defaults(func=cmd_invariants)

    pk = sub.add_parser("k3", help="admissible assignments and c2 bounds")
    pk.add_argument("g", type=int)
    pk.add_argument("r", type=int)
    pk.add_argument("d", type=int)
    pk.add_argument("--series", type=int, required=True, metavar="S",
                    help="dimension s of the series g^s_e being tested, "
                    f"in 1..(g-1)/2 and at most {MAX_K3_SERIES}")
    pk.add_argument("--filters", choices=("on", "off"), default="off")
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(func=cmd_k3)

    pp = sub.add_parser("poset", help="relation matrix and cover diagram")
    pp.add_argument("g", type=int, help=f"the genus, at most {MAX_POSET_GENUS}")
    pp.add_argument("--facts", metavar="PATH")
    pp.add_argument("--format", choices=("dot", "json"), default="dot")
    pp.add_argument("--output", metavar="PATH")
    pp.set_defaults(func=cmd_poset)

    pv = sub.add_parser("verify", help="check computed matrices against fixtures")
    pv.add_argument("range", help="a genus (9) or range (7..12)")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe: not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except ContradictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except (FactsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
