import functools
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bnloci import (
    BNLocus,
    ContradictionError,
    Fact,
    RelKind,
    Relation,
    assemble,
    closure,
    closure_relations,
    compare,
    coppens_noncontainment,
    covers,
    delta,
    enumerate_loci,
    k3_noncontainment,
    kappa,
    plane_projection_rule,
    rho_k,
    rule_sources,
    trivially_implied,
)
from bnloci.cli import packaged_facts
from bnloci.oracles import (
    clifford_collapse,
    secant_containment,
    secant_expected_dim,
    trivial_relations,
)
from bnloci.poset import _BLOCK, RelationMatrix, _bits, _product, _transpose
from engine_caches import clear_engine_caches


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Regression lock, not mathematical truth: matrix_digest of assemble(g) and
# its unknown-pair count for the genera past perfbench/refs.json (g = 13..18),
# taken from the engine as it stood before the K3 search stopped at the
# Clifford floor (g = 19, 20) and before the K3 search shared rank prefixes
# across filtration types (g = 21..30).
LOCK_PAST_REFS = {
    19: ("57bfb9482fbc4ac3543dc3a6dbdaf3b3f6661db8a9e98e8c446f083569e1055a", 657),
    20: ("0f7620b6a1593d45f010194ceee92a94fe31d259969a93e9acdc8817ab1ca422", 832),
    21: ("5d0f624e8e14ec45e2f1b1e20b32be5de3e78cd2df49e307b716270159d84967", 1118),
    22: ("9e1415446bda254be6641958ed5cace898b9e14291c07ea95493e4b49b2b573a", 1372),
    23: ("141aaa92de64acb68477419bc01c164641ab296af64b904f44a3864272e7ec7a", 1782),
    24: ("b8a4675e15ecac08bdb69076600872778aafe1b8f1a00886825da37098079fc7", 2160),
    25: ("826f9973f4a4789727ad7a46b144077e74c242e87c09635b20f57d6da0786209", 2710),
    26: ("af3ca36d476e5588f5fa613da7c1c436237ceb0d45123f350024713e8d529faf", 3197),
    27: ("7838a535e5f39578a67f2d2d4c555a5fbc2cb938e3d31fd03f16ff966bcd2263", 3943),
    28: ("e60494bf51fba7ca8e069d687bd8ca821742541295f3300f803a34e7fc42439c", 4649),
    29: ("93b4a08711f7d8d359776af4442d15c270a0e75df9a1f624bcde26aa20a8a0f3", 5621),
    30: ("61c70934825c2e4cb224f9e8e4c7eaf0e262f39091071d2205f4c99f62e15e75", 6446),
}


def rel(g, a, b, kind, prov="test"):
    return Relation(BNLocus(g, *a), BNLocus(g, *b), kind, prov)


def naive_closure(loci, rels):
    """Reference closure over explicit sets of pairs, independent of the
    engine: returns (classes, {(x, y): kind}), or None on a contradiction."""
    le = {(x, x) for x in loci}
    nle = set()
    for r in rels:
        if r.kind is RelKind.NLE:
            nle.add((r.lhs, r.rhs))
        else:
            le.add((r.lhs, r.rhs))
            if r.kind is RelKind.EQ:
                le.add((r.rhs, r.lhs))
    while True:
        above = {x: {y for (u, y) in le if u == x} for x in loci}
        below = {x: {u for (u, y) in le if y == x} for x in loci}
        grown_le = le | {(a, c) for (a, b) in le for c in above[b]}
        grown_nle = (
            nle
            | {(b, c) for (a, c) in nle for b in above[a]}  # A<=B, A!<=C: B!<=C
            | {(a, b) for (a, c) in nle for b in below[c]}  # B<=C, A!<=C: A!<=B
        )
        if (grown_le, grown_nle) == (le, nle):
            break
        le, nle = grown_le, grown_nle
    if le & nle:
        return None
    classes = {tuple(sorted(above[x] & below[x], key=lambda l: l.key)) for x in loci}
    cells = {}
    for x in loci:
        for y in loci:
            if x != y:
                if (x, y) in le:
                    cells[(x, y)] = "eq" if (y, x) in le else "subset"
                else:
                    cells[(x, y)] = "not_subset" if (x, y) in nle else "unknown"
    return sorted(classes, key=lambda c: c[0].key), cells


def naive_covers(matrix):
    """Reference covers, one relation() lookup per cell: the strict rep-level
    pairs with no rep strictly between them, minus the trivially implied."""
    reps = [c[0] for c in matrix.classes]
    le = {
        (a, b)
        for a in reps
        for b in reps
        if a != b and matrix.relation(a, b)[0] == RelKind.LE.value
    }
    members = {cls[0]: cls for cls in matrix.classes}
    out = []
    for (a, b) in sorted(le, key=lambda k: (k[0].key, k[1].key)):
        if any((a, c) in le and (c, b) in le for c in reps):
            continue
        if any(trivially_implied(x, y) for x in members[a] for y in members[b]):
            continue
        out.append(Relation(a, b, RelKind.LE, matrix.relation(a, b)[1] or ""))
    return out


def naive_unknown_pairs(matrix):
    reps = [c[0] for c in matrix.classes]
    return [
        (x, y)
        for x in reps
        for y in reps
        if x != y and matrix.relation(x, y)[0] == "unknown"
    ]


def naive_all_relations(matrix):
    """Reference all_relations: the eq rows of each class, then every known
    cell between representatives, read through relation()."""
    out = [Relation(m, cls[0], RelKind.EQ, "class") for cls in matrix.classes for m in cls[1:]]
    reps = [c[0] for c in matrix.classes]
    for x in reps:
        for y in reps:
            kind, prov = matrix.relation(x, y)
            if x != y and kind != "unknown":
                out.append(Relation(x, y, RelKind(kind), prov))
    out.sort(key=lambda r: (r.lhs.key, r.rhs.key, r.kind.value))
    return out


def naive_compare(matrix, expected):
    return [
        (x, y, matrix.relation(x, y)[0], expected.relation(x, y)[0])
        for x in matrix.loci
        for y in matrix.loci
        if x != y and matrix.relation(x, y)[0] != expected.relation(x, y)[0]
    ]


def eager_closure(genus, loci, relations):
    """Oracle: the closure as it stood when every provenance string was built
    during the closure, not rendered from derivation records on read.
    Returns ``(cells, relations)``: ``cells`` maps every ordered pair of
    loci to ``relation()``'s (kind, provenance), and ``relations`` is
    ``all_relations()``.  Raises the same ContradictionError."""

    def bits(row):
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def merge(p1, p2):
        return p2 if (len(p2), p2) < (len(p1), p1) else p1

    loci = tuple(sorted(set(loci), key=lambda l: l.key))
    index = {x: i for i, x in enumerate(loci)}
    n = len(loci)
    le, nle = {}, {}

    def put(table, key, prov):
        old = table.get(key)
        table[key] = prov if old is None else merge(old, prov)

    for r in relations:
        if r.lhs.g != genus or r.rhs.g != genus:
            raise ValueError(f"relation {r} is not at genus {genus}")
        a, b = index.get(r.lhs), index.get(r.rhs)
        if a is None or b is None:
            raise ValueError(f"relation {r} references a locus outside the poset")
        if r.kind is RelKind.NLE:
            put(nle, (a, b), r.provenance)
        else:
            put(le, (a, b), r.provenance)
            if r.kind is RelKind.EQ:
                put(le, (b, a), r.provenance)

    up = [1 << i for i in range(n)]
    for a, b in le:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                new = up[k] & ~up[i]
                up[i] |= new
                for j in bits(new):
                    le[(i, j)] = f"closure({le[(i, k)]},{le[(k, j)]})"

    seeds = sorted(nle.items())
    for (a, c), p_seed in seeds:
        if up[a] >> c & 1:
            raise ContradictionError(loci[a], loci[c], le.get((a, c), "reflexivity"), p_seed)

    ups = [list(bits(row)) for row in up]
    down = [0] * n
    for i in range(n):
        for j in ups[i]:
            down[j] |= 1 << i
    nle_rows = [0] * n
    for a, c in nle:
        nle_rows[a] |= 1 << c
    for (a, c), p_seed in seeds:
        for b in ups[a]:
            new = down[c] & ~nle_rows[b]
            if not new:
                continue
            nle_rows[b] |= new
            p_b = p_seed if b == a else f"closure({le[(a, b)]},{p_seed})"
            for d in bits(new):
                nle[(b, d)] = p_b if d == c else f"closure({le[(d, c)]},{p_b})"

    rep = [next(bits(up[i] & down[i])) for i in range(n)]
    cells = {}
    for i, x in enumerate(loci):
        for j, y in enumerate(loci):
            cell = (rep[i], rep[j])
            if rep[i] == rep[j]:
                cells[(x, y)] = ("eq", "class")
            elif up[i] >> j & 1:
                cells[(x, y)] = ("subset", le[cell])
            elif nle_rows[i] >> j & 1:
                cells[(x, y)] = ("not_subset", nle[cell])
            else:
                cells[(x, y)] = ("unknown", None)
    out = []
    for i, r in enumerate(rep):
        if r != i:
            out.append(Relation(loci[i], loci[r], RelKind.EQ, "class"))
            continue
        for j in range(n):
            if rep[j] == j != i and cells[(loci[i], loci[j])][0] != "unknown":
                kind, prov = cells[(loci[i], loci[j])]
                out.append(Relation(loci[i], loci[j], RelKind(kind), prov))
    return cells, out


def assert_matches_eager_closure(g, loci, rels, build=None):
    """Every cell's (kind, provenance), all_relations() and any
    ContradictionError message of the matrix that ``build()`` makes (by
    default closure_relations(g, loci, rels)) agree with the eager oracle.
    Three fresh matrices are read in three orders: all_relations() first,
    every cell first, and sparse first (covers(), then every cell in
    reverse order, then all_relations()), so no reading order hides a
    record or a memoized string that renders differently."""
    build = build or (lambda: closure_relations(g, loci, rels))
    try:
        cells, want = eager_closure(g, loci, rels)
    except ContradictionError as exc:
        with pytest.raises(ContradictionError) as err:
            build()
        assert str(err.value) == str(exc)
        assert (err.value.prov_le, err.value.prov_nle) == (exc.prov_le, exc.prov_nle)
        return
    m = build()
    assert m.all_relations() == want
    assert {(x, y): m.relation(x, y) for x in m.loci for y in m.loci} == cells
    m = build()
    assert {(x, y): m.relation(x, y) for x in m.loci for y in m.loci} == cells
    assert m.all_relations() == want
    m = build()
    for c in covers(m):
        assert cells[(c.lhs, c.rhs)] == (c.kind.value, c.provenance)
    backwards = m.loci[::-1]
    assert {(x, y): m.relation(x, y) for x in backwards for y in backwards} == cells
    assert m.all_relations() == want


def assert_matches_naive_closure(g, loci, rels):
    want = naive_closure(loci, rels)
    try:
        m = closure_relations(g, loci, rels)
    except ContradictionError:
        assert want is None
        return
    assert want is not None
    classes, cells = want
    assert list(m.classes) == classes
    assert {(x, y): m.relation(x, y)[0] for (x, y) in cells} == cells
    # a cell and its provenance are those of its representatives' cell
    rep = {x: cls[0] for cls in m.classes for x in cls}
    for x in m.loci:
        for y in m.loci:
            if rep[x] != rep[y]:
                assert m.relation(x, y) == m.relation(rep[x], rep[y])
    assert covers(m) == naive_covers(m)
    assert m.unknown_pairs() == naive_unknown_pairs(m)
    assert m.all_relations() == naive_all_relations(m)
    # the first half of the seeds closes to a weaker matrix
    weaker = closure_relations(g, loci, rels[: len(rels) // 2])
    for a, b in ((m, weaker), (weaker, m), (m, m)):
        got = [(d.lhs, d.rhs, d.got, d.want) for d in compare(a, b)]
        assert got == naive_compare(a, b)


def reference_seeds(genus, facts=()):
    """Oracle: assemble's seeds as Relations, built pair by pair from the
    per-pair rule functions, as assemble built them before it seeded the
    rule families as bit rows.  Every family keeps every cell of its rule,
    also those that an earlier-sorted family holds and that
    :func:`rule_sources` no longer seeds twice (the point removals, which
    are secant cells, and the gonality non-containments, which are kappa
    cells), so the closures of these seeds hold that dropping them moves no
    kind and no provenance.  Returns (loci, relations) as tuples, built
    once per (genus, facts)."""
    return _reference_seeds(genus, tuple(facts))


@functools.lru_cache(maxsize=None)
def _reference_seeds(genus, facts):
    loci = enumerate_loci(genus)
    lset = set(loci)
    rels: list[Relation] = []
    rels += trivial_relations(genus)
    rels += clifford_collapse(genus)

    # refined Brill-Noether for fixed gonality: exact criterion both ways
    for i, src in enumerate(loci):
        if src.r != 1:
            continue
        for j, tgt in enumerate(loci):
            if i == j:
                continue
            if rho_k(genus, src.d, tgt.r, tgt.d) >= 0:
                rels.append(Relation(src, tgt, RelKind.LE, "gonality"))
            else:
                rels.append(Relation(src, tgt, RelKind.NLE, "gonality"))

    kap = [kappa(genus, x.r, x.d) for x in loci]
    for x, kx in zip(loci, kap):
        for y, ky in zip(loci, kap):
            if kx > ky:  # never x itself
                rels.append(Relation(x, y, RelKind.NLE, "kappa"))

    for x in loci:
        if x.r == 2:
            rel = plane_projection_rule(genus, x.d)
            if rel is not None and rel.rhs in lset:
                rels.append(rel)
            rel = coppens_noncontainment(genus, x.d)
            if rel is not None and rel.rhs in lset:
                rels.append(rel)

    for x in loci:
        for y in loci:
            if x.r >= y.r + 1 >= 2 and y.d < x.d:
                rel = secant_containment(genus, x.r, x.d, y.r, y.d)
                if rel is not None:
                    rels.append(rel)

    for i, x in enumerate(loci):
        if delta(genus, x.r, x.d) >= 0:
            continue
        for j, y in enumerate(loci):
            if i == j:
                continue
            rel = k3_noncontainment(genus, x.r, x.d, y.r, y.d)
            if rel is not None:
                rels.append(rel)

    for fact in facts:
        if fact.lhs.g != genus:
            raise ValueError(f"fact {fact} is not at genus {genus}")
        if fact.lhs not in lset or fact.rhs not in lset:
            raise ValueError(f"fact {fact} references a locus outside the poset")
        rels.append(fact.to_relation())

    return tuple(loci), tuple(rels)


def assert_assemble_matches_eager_closure(g, facts=()):
    """assemble(g, facts) itself against the eager closure of its
    pair-by-pair seeds: every cell, all_relations() and any contradiction."""
    loci, rels = reference_seeds(g, facts)
    assert_matches_eager_closure(g, loci, rels, build=lambda: assemble(g, facts))


def test_closure_equality_then_transitivity():
    g = 9
    loci = enumerate_loci(g)
    m = closure_relations(
        g,
        loci,
        [
            rel(g, (2, 4), (1, 2), RelKind.EQ),
            rel(g, (1, 2), (1, 3), RelKind.LE),
            rel(g, (1, 3), (1, 4), RelKind.LE),
        ],
    )
    assert m.relation(BNLocus(g, 2, 4), BNLocus(g, 1, 4))[0] == "subset"
    assert m.relation(BNLocus(g, 2, 4), BNLocus(g, 1, 2))[0] == "eq"


def test_closure_noncontainment_propagation():
    # A !<= C with A <= B gives B !<= C, instantiated on genus-9 loci
    g = 9
    m = closure_relations(
        g,
        enumerate_loci(g),
        [
            rel(g, (2, 7), (1, 5), RelKind.LE),
            rel(g, (2, 7), (2, 6), RelKind.NLE),
        ],
    )
    assert m.relation(BNLocus(g, 1, 5), BNLocus(g, 2, 6))[0] == "not_subset"
    # B <= C with A !<= C gives A !<= B
    m = closure_relations(
        g,
        enumerate_loci(g),
        [
            rel(g, (1, 3), (2, 6), RelKind.LE),
            rel(g, (3, 8), (2, 6), RelKind.NLE),
        ],
    )
    assert m.relation(BNLocus(g, 3, 8), BNLocus(g, 1, 3))[0] == "not_subset"


def test_closure_idempotent_on_assembled():
    for g in (7, 9):
        m = assemble(g, packaged_facts(g))
        m2 = closure(m)
        assert m.classes == m2.classes
        for x in m.loci:
            for y in m.loci:
                if x != y:
                    assert m.relation(x, y)[0] == m2.relation(x, y)[0]


def test_mutual_containment_promotes_to_equality():
    g = 7
    m = closure_relations(
        g,
        enumerate_loci(g),
        [
            rel(g, (1, 3), (2, 6), RelKind.LE),
            rel(g, (2, 6), (1, 3), RelKind.LE),
        ],
    )
    assert m.relation(BNLocus(g, 1, 3), BNLocus(g, 2, 6))[0] == "eq"


# seed strings with repeats and equal lengths, so that relations share a
# source and seeds of one cell tie on length and are ordered by string, and
# the empty string, which a label or a memo must not read as missing
PROVENANCE = st.sampled_from(["", "a", "b", "ab", "ba", "abc"])


def relation_lists(loci, most, same=False):
    """n relations for n drawn from 0..most, each between two of ``loci`` (a
    locus and itself too when ``same``), with a kind and a PROVENANCE string."""
    pairs = st.sampled_from([(a, b) for a in loci for b in loci if same or a != b])
    kinds = st.sampled_from([RelKind.EQ, RelKind.LE, RelKind.NLE])
    one = st.builds(lambda ab, kind, prov: Relation(*ab, kind, prov), pairs, kinds, PROVENANCE)
    return st.integers(0, most).flatmap(lambda n: st.lists(one, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(rels=relation_lists(enumerate_loci(9)[:6], 8))
def test_closure_random_small_matrices(rels):
    g = 9
    loci = enumerate_loci(g)[:6]
    assert_matches_eager_closure(g, loci, rels)
    try:
        m = closure_relations(g, loci, rels)
    except ContradictionError:
        return
    # idempotent
    m2 = closure(m)
    for x in loci:
        for y in loci:
            if x != y:
                assert m.relation(x, y)[0] == m2.relation(x, y)[0]
    # monotone: every seeded relation survives in the closure
    for r in rels:
        kind = m.relation(r.lhs, r.rhs)[0]
        if r.kind is RelKind.EQ:
            assert kind == "eq"
        elif r.kind is RelKind.LE:
            assert kind in ("eq", "subset")
        else:
            assert kind == "not_subset"


def test_contradiction_detection_direct():
    g = 9
    rels = [
        rel(g, (2, 6), (1, 4), RelKind.LE),
        rel(g, (2, 6), (1, 4), RelKind.NLE),
    ]
    with pytest.raises(ContradictionError):
        closure_relations(g, enumerate_loci(g), rels)
    assert_matches_eager_closure(g, enumerate_loci(g), rels)


@pytest.mark.parametrize(
    "length, loop",
    [pytest.param(n, None, id=str(n)) for n in (0, 1, 2, 5)]
    + [pytest.param(0, "loop", id="0-loop"), pytest.param(0, "", id="0-empty-loop")],
)
def test_generated_contradiction_message_matches_eager_closure(length, loop):
    # a chain x_0 <= ... <= x_length and a seed x_0 !<= x_length: the <= side
    # of the message is rendered from nested Warshall records (a self-loop,
    # "reflexivity", when the chain is empty, unless a source seeds it)
    g = 11
    loci = enumerate_loci(g)
    chain = loci[: length + 1]
    rels = [
        Relation(a, b, RelKind.LE, f"step{i}") for i, (a, b) in enumerate(zip(chain, chain[1:]))
    ]
    if loop is not None:
        rels.append(Relation(chain[0], chain[0], RelKind.LE, loop))
    rels.append(Relation(chain[0], chain[-1], RelKind.NLE, "refuted"))
    with pytest.raises(ContradictionError) as err:
        closure_relations(g, loci, rels)
    assert err.value.prov_nle == "refuted"
    assert err.value.prov_le.count("closure(") == max(length - 1, 0)
    if loop is not None:
        assert err.value.prov_le == loop
    assert_matches_eager_closure(g, loci, rels)


def test_empty_provenance_names_its_seed():
    # a cell seeded with "" keeps "", though a closure through other seeds
    # also reaches it: the empty string is a label, not a missing text
    g = 9
    a, b, d = loci = enumerate_loci(g)[:3]
    rels = [
        Relation(a, b, RelKind.LE, "p"),
        Relation(a, d, RelKind.NLE, "q"),
        Relation(b, d, RelKind.NLE, ""),
        Relation(d, a, RelKind.LE, ""),
    ]
    m = closure_relations(g, loci, rels)
    assert m.relation(b, d) == ("not_subset", "")
    assert m.relation(d, a) == ("subset", "")
    assert m.relation(d, b) == ("subset", "closure(,p)")
    assert_matches_eager_closure(g, loci, rels)


def test_assemble_matches_figures_without_unknowns():
    for g in range(7, 13):
        m = assemble(g, packaged_facts(g))
        assert m.unknown_pairs() == []


def test_assemble_low_genus_has_no_contradictions():
    for g in range(3, 7):
        m = assemble(g)
        # trivial containments only below genus 7; no contradiction raised
        assert m.genus == g


def test_assemble_beyond_fixtures_stays_consistent():
    # no fixtures exist past genus 12; the rule families must still agree
    for g in range(13, 21):
        m = assemble(g)
        reps = [c[0] for c in m.classes]
        decided = sum(
            1
            for x in reps
            for y in reps
            if x != y and m.relation(x, y)[0] != "unknown"
        )
        assert decided > len(reps) * (len(reps) - 1) // 2


def test_genus_10_equality_classes():
    m = assemble(10, packaged_facts(10))
    merged = [cls for cls in m.classes if BNLocus(10, 1, 2) in cls][0]
    keys = {x.key for x in merged}
    assert {(1, 2), (2, 5), (3, 7), (4, 9)} <= keys


def test_injected_false_fact_names_kappa():
    facts = list(packaged_facts(9))
    facts.append(
        Fact(BNLocus(9, 1, 4), BNLocus(9, 2, 6), RelKind.LE, "injected falsehood")
    )
    with pytest.raises(ContradictionError) as err:
        assemble(9, facts)
    msg = str(err.value)
    assert "kappa" in msg and "injected falsehood" in msg
    assert_assemble_matches_eager_closure(9, facts)


def test_equality_contradiction_names_both_loci_and_citation():
    facts = list(packaged_facts(9))
    facts.append(
        Fact(BNLocus(9, 1, 4), BNLocus(9, 2, 6), RelKind.EQ, "injected equality")
    )
    with pytest.raises(ContradictionError) as err:
        assemble(9, facts)
    msg = str(err.value)
    assert str(BNLocus(9, 1, 4)) in msg and str(BNLocus(9, 2, 6)) in msg
    assert "kappa" in msg and "fact:injected equality" in msg
    assert_assemble_matches_eager_closure(9, facts)


@pytest.mark.parametrize("lhs, rhs, family", [
    ((1, 3), (1, 4), "trivial"),
    ((3, 8), (2, 7), "secant"),
])
def test_not_subset_fact_against_a_containment_names_citation_and_family(lhs, rhs, family):
    # a not_subset fact leaves <= alone, so the contradiction it makes is
    # met at its own cell, whose <= side is the family's seed
    facts = list(packaged_facts(9))
    facts.append(Fact(BNLocus(9, *lhs), BNLocus(9, *rhs), RelKind.NLE, "injected refutation"))
    with pytest.raises(ContradictionError) as err:
        assemble(9, facts)
    assert (err.value.prov_le, err.value.prov_nle) == (family, "fact:injected refutation")
    assert (err.value.lhs.key, err.value.rhs.key) == (lhs, rhs)
    assert_assemble_matches_eager_closure(9, facts)


@settings(max_examples=300, deadline=None)
@given(rels=relation_lists(enumerate_loci(9), 24, same=True))
def test_closure_matches_naive_closure_on_genus_9(rels):
    g = 9
    loci = enumerate_loci(g)
    assert_matches_naive_closure(g, loci, rels)
    assert_matches_eager_closure(g, loci, rels)


@pytest.mark.parametrize("g", range(13, 19))
def test_closure_matches_naive_closure_on_assemble_seeds(g):
    loci, rels = reference_seeds(g)
    assert_matches_naive_closure(g, loci, rels)


@pytest.mark.parametrize("g", range(7, 31))
def test_provenance_matches_eager_closure_on_assemble_seeds(g):
    # assemble itself, with the packaged facts where there are any, so fact:
    # provenance and closures over it are rendered too
    assert_assemble_matches_eager_closure(g, packaged_facts(g) if g <= 12 else ())


def test_sparse_reads_render_only_the_cells_they_read():
    # covers() of assemble(30) renders the provenance of its 211 covers and
    # their premises, not a table of every seeded cell (18,216 at this genus)
    m = assemble(30)
    covers(m)
    assert len(m._texts) < 1000
    # one unread seeded !<= cell between representatives adds one string
    a, c = next(
        (a, c)
        for a in _bits(m._rep_mask)
        for c in _bits(m._seed_rows[a] & m._rep_mask)
        if (a, c) not in m._texts
    )
    before = len(m._texts)
    assert m.relation(m.loci[a], m.loci[c])[0] == "not_subset"
    assert len(m._texts) - before <= 1


@pytest.mark.parametrize("g", range(7, 31))
def test_rule_rows_equal_the_per_pair_rules(g):
    # each family's rows hold exactly the (lhs, rhs, kind) cells of its
    # per-pair rule function, an eq seed as <= both ways, except the cells
    # that a family sorted before it holds: a point removal (r, d) ->
    # (r-1, d-1) of trivial_relations, the Serre-normal base point at
    # d + 1 = g included, must be a secant cell, and a gonality !<= a kappa
    # cell
    loci, rels = reference_seeds(g)
    want, held = {}, {}
    for r in rels:
        if r.provenance == "trivial" and r.rhs.r < r.lhs.r:
            held.setdefault("secant", set()).add((r.lhs, r.rhs, r.kind))
            continue
        if r.provenance == "gonality" and r.kind is RelKind.NLE:
            held.setdefault("kappa", set()).add((r.lhs, r.rhs, r.kind))
            continue
        cells = want.setdefault(r.provenance, set())
        if r.kind is RelKind.EQ:
            cells |= {(r.lhs, r.rhs, RelKind.LE), (r.rhs, r.lhs, RelKind.LE)}
        else:
            cells.add((r.lhs, r.rhs, r.kind))
    got = {}
    for prov, le_rows, nle_rows in rule_sources(g):
        cells = got.setdefault(prov, set())
        for kind, rows in ((RelKind.LE, le_rows), (RelKind.NLE, nle_rows)):
            for i, row in rows.items():
                cells |= {(loci[i], y, kind) for j, y in enumerate(loci) if row >> j & 1}
    assert {p for p in got if not got[p]} <= {"plane-projection", "coppens", "secant"}
    assert {p: c for p, c in got.items() if c} == want
    assert set(held) == {"secant", "kappa"}
    for prov, cells in held.items():
        assert cells <= got[prov], prov

    # the bisection's premise: per lattice and rank s, the certified targets
    # are a prefix in ascending e
    for x in loci:
        if delta(g, x.r, x.d) < 0:
            for s in sorted({y.r for y in loci}):
                hit = [k3_noncontainment(g, x.r, x.d, s, y.d) is not None for y in loci if y.r == s]
                assert hit == sorted(hit, reverse=True), (x, s)


@pytest.mark.parametrize("g", range(7, 31))
def test_gonality_seeds_no_nle_and_trivial_only_base_points(g):
    # the gonality family seeds no !<= (its non-containments are the kappa
    # rows), and the trivial family exactly the base points added,
    # (r, d) -> (r, d + 1) with d + 1 <= g - 1
    loci = tuple(enumerate_loci(g))
    sources = {source[0]: source for source in rule_sources(g)}
    assert sources["gonality"][2] == {}
    _, le_rows, nle_rows = sources["trivial"]
    got = {(loci[i], loci[j]) for i, row in le_rows.items() for j in _bits(row)}
    want = {(x, y) for x in loci for y in loci if y.key == (x.r, x.d + 1)}
    assert nle_rows == {} and got == want


def test_gonality_row_premises():
    # rho_k is non-increasing in k, so the gonality strata meeting a locus
    # are those up to its kappa; M^1_{g,d} is its own kappa's locus
    for g in range(3, 61):
        for x in enumerate_loci(g):
            kx = kappa(g, x.r, x.d)
            for k in range(2, (g + 3) // 2 + 1):
                assert (rho_k(g, k, x.r, x.d) >= 0) == (k <= kx), (g, k, x)
            if x.r == 1:
                assert kx == x.d, x


def test_secant_row_premise():
    # the secant cycle's expected dimension is positive exactly from one
    # degree e on, for every r > s >= 1 and e < d
    for r in range(2, 16):
        for s in range(1, r):
            for d in range(-4, 40):
                for e in range(-8, d):
                    want = e >= d - r + s - (r - s - 1) // s
                    assert (secant_expected_dim(r, d, s, e) > 0) == want, (r, d, s, e)


def naive_transpose(rows):
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def square_rows(n):
    # n rows of n bits, and None or the index of a row set to all ones
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return st.tuples(rows, st.none() | st.integers(0, n - 1) if n else st.none())


@settings(max_examples=200, deadline=None)
@given((st.sampled_from([0, 1, 2, 63, 64, 65, 200]) | st.integers(0, 80)).flatmap(square_rows))
def test_transpose_matches_the_per_bit_transpose(drawn):
    rows, full = drawn
    if full is not None:
        rows[full] = (1 << len(rows)) - 1
    assert _transpose(rows) == naive_transpose(rows)
    assert _transpose(_transpose(rows)) == rows


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
def test_transpose_edges(n):
    ones = (1 << n) - 1
    for rows in ([0] * n, [ones] * n, [1 << i for i in range(n)], [ones] + [0] * (n - 1)):
        rows = rows[:n]  # at n = 0 the last list has one row too many
        assert _transpose(rows) == naive_transpose(rows), (n, rows)


def naive_product(rows, cols):
    out = []
    for row in rows:
        acc = 0
        for c, col in enumerate(cols):
            if row >> c & 1:
                acc |= col
        out.append(acc)
    return out


@st.composite
def product_operands(draw):
    # rectangular: the number of rows, the n cols and the cols' width differ
    n = draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 200]) | st.integers(0, 80))
    m, width = draw(st.integers(0, 40)), draw(st.integers(0, 80))
    values = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):  # repeated rows: a small pool of values, mixed with 0
        values = st.sampled_from([0, *draw(st.lists(values, min_size=1, max_size=3))])
    rows = draw(st.lists(values, min_size=m, max_size=m))
    cols = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n))
    # zero columns: a whole block, the last column (closing a partial block
    # unless _BLOCK divides n), every other column, or any set
    zeros = draw(
        st.sampled_from([set(), set(range(_BLOCK)), {n - 1}, set(range(0, n, 2))])
        | st.sets(st.integers(0, n))
    )
    cols = [0 if c in zeros else col for c, col in enumerate(cols)]
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = draw(st.sampled_from([0, (1 << n) - 1]))
    return rows, cols


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_product_matches_the_per_bit_product(operands):
    assert _product(*operands) == naive_product(*operands)


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 200])
def test_product_edges(n):
    ones = (1 << n) - 1
    unit = [1 << i for i in range(n)]
    staircase = [(1 << i + 1) - 1 for i in range(n)]
    # rows that repeat: a pool of three values, one of them 0
    repeated = [(ones, 0, ones >> 1)[i % 3] for i in range(n)]
    # zero columns: the first block, the last column (closing the partial
    # block at n = 5, 7 and 200) and every other column
    gaps = [
        [0 if c in zeros else col for c, col in enumerate(staircase)]
        for zeros in (range(_BLOCK), {n - 1}, range(0, n, 2))
    ]
    for rows in ([0] * n, [ones] * n, unit, [ones, 0, ones][:n], staircase, repeated):
        for cols in ([0] * n, [ones] * n, unit, staircase, *gaps):
            assert _product(rows, cols) == naive_product(rows, cols), (n, rows, cols)
        assert _product(rows, unit) == rows


def per_cell_rounds(up):
    """Oracle: Warshall's pass as it recorded one ``via[(i, j)] = k`` for
    each <= cell (i, j) derived in round k.  Returns (closed rows, via)."""
    up, via = list(up), {}
    for k in range(len(up)):
        for i in range(len(up)):
            if up[i] >> k & 1:
                new = up[k] & ~up[i]
                up[i] |= new
                via.update(((i, j), k) for j in range(len(up)) if new >> j & 1)
    return up, via


def assert_rounds_match_per_cell_rounds(m):
    # each derived cell's bit sits in exactly one record of its row, so the
    # first record holding it, which _le_prov reads, has the per-cell round
    seeded = [1 << i for i in range(len(m.loci))]
    for i, records in enumerate(m._records[1]):
        # every seed record (a source's string) precedes every round record
        is_round = [not isinstance(label, str) for label, _ in records]
        assert is_round == sorted(is_round), i
        for label, row in records:
            if isinstance(label, str):
                seeded[i] |= row
    closed, via = per_cell_rounds(seeded)
    assert m._up == closed
    got = {}
    for i, records in enumerate(m._records[1]):
        rounds = 0
        for k, new in records:
            if isinstance(k, str):
                continue
            rounds |= new
            for j in range(len(closed)):
                if new >> j & 1:
                    assert (i, j) not in got, (i, j)
                    got[(i, j)] = k
        # every seeded bit lies in a seed record and in no round record
        assert closed[i] & ~rounds == seeded[i] and not seeded[i] & rounds, i
    assert got == via


def seed_rows(g):
    # up to n rows of n bits, then up to n rows (i, j) set to the one bit j
    n = len(enumerate_loci(g))
    index = st.integers(0, n - 1)
    rows = st.lists(st.integers(0, (1 << n) - 1), max_size=n)
    return st.tuples(st.just(g), rows, st.lists(st.tuples(index, index), max_size=n))


@settings(max_examples=100, deadline=None)
@given(st.integers(7, 14).flatmap(seed_rows))
def test_rounds_match_the_per_cell_rounds_on_random_matrices(drawn):
    g, rows, chains = drawn
    loci = tuple(enumerate_loci(g))
    le_rows = dict(enumerate(rows))
    # rows of one bit make long chains, closed over many rounds
    for i, j in chains:
        le_rows[i] = 1 << j
    m = RelationMatrix(g, loci, {x: i for i, x in enumerate(loci)}, [("r", le_rows, {})])
    assert_rounds_match_per_cell_rounds(m)


@pytest.mark.parametrize("g", range(7, 21))
def test_rounds_match_the_per_cell_rounds_on_assemble_seeds(g):
    assert_rounds_match_per_cell_rounds(assemble(g, packaged_facts(g) if g <= 12 else ()))


@pytest.mark.parametrize("g", range(7, 31))
def test_relation_count_is_the_number_of_relations(g):
    m = assemble(g, packaged_facts(g) if g <= 12 else ())
    assert m.relation_count() == len(m.all_relations())


def test_assemble_matches_behaviour_lock():
    # perfbench/refs.json is a regression lock on the engine's verdicts
    # (kinds, classes, covers; no provenance), not a mathematical truth
    spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))
    lock = {g: (v["digest"], v["unknown_pairs"]) for g, v in refs["matrix"].items()}
    lock = {int(g): v for g, v in lock.items()} | LOCK_PAST_REFS
    assert sorted(lock) == list(range(13, 31))
    for g, want in lock.items():
        m = assemble(g)
        assert (bench.matrix_digest(m), len(m.unknown_pairs())) == want, g


def test_cross_genus_relations_rejected(monkeypatch):
    import bnloci.poset as poset

    with pytest.raises(ValueError):
        Relation(BNLocus(9, 1, 3), BNLocus(10, 1, 3), RelKind.LE, "bad")

    def refuse(*args):
        raise AssertionError("rule_sources started")

    # facts are checked before any rule family runs, also when the genus is
    # not seeded yet; rho(9, 1, 8) >= 0, so M^1_{9,8} is not a locus of the
    # poset
    clear_engine_caches()
    monkeypatch.setattr(poset, "rule_sources", refuse)
    for fact, message in [
        (Fact(BNLocus(10, 1, 3), BNLocus(10, 2, 6), RelKind.LE, "x"), "not at genus 9"),
        (Fact(BNLocus(9, 1, 8), BNLocus(9, 1, 3), RelKind.LE, "x"), "outside the poset"),
    ]:
        with pytest.raises(ValueError, match=message):
            assemble(9, [fact])


def test_closure_relations_rejects_loci_off_the_genus():
    # without the check this gave a genus-9 matrix over genus-10 loci
    with pytest.raises(ValueError, match=r"locus M\^1_\{10,2\} is not at genus 9"):
        closure_relations(9, enumerate_loci(10), [])
    stray = list(enumerate_loci(9)) + [BNLocus(10, 1, 2)]
    with pytest.raises(ValueError, match="not at genus 9"):
        closure_relations(9, stray, [])
    assert closure_relations(9, enumerate_loci(9), []).genus == 9


def test_covers_genus_7_exact():
    m = assemble(7, packaged_facts(7))
    got = [(c.lhs.key, c.rhs.key) for c in covers(m)]
    assert got == [((1, 3), (2, 6)), ((2, 6), (1, 4))]


def test_covers_genus_10_includes_diagram_arrows():
    m = assemble(10, packaged_facts(10))
    got = {(c.lhs.key, c.rhs.key) for c in covers(m)}
    assert ((3, 8), (1, 4)) in got
    assert ((1, 3), (3, 9)) in got


def test_covers_never_skip_chain():
    for g in range(7, 13):
        m = assemble(g, packaged_facts(g))
        reps = [c[0] for c in m.classes]
        le = {
            (a, b)
            for a in reps
            for b in reps
            if a != b and m.relation(a, b)[0] == "subset"
        }
        for c in covers(m):
            assert not any(
                (c.lhs, z) in le and (z, c.rhs) in le for z in reps
            )


def test_trivially_implied_closed_form():
    assert trivially_implied(BNLocus(9, 2, 6), BNLocus(9, 2, 7))
    assert trivially_implied(BNLocus(9, 3, 8), BNLocus(9, 2, 7))
    assert trivially_implied(BNLocus(9, 4, 8), BNLocus(9, 3, 8))
    assert not trivially_implied(BNLocus(9, 2, 6), BNLocus(9, 1, 4))
    assert not trivially_implied(BNLocus(9, 1, 3), BNLocus(9, 2, 6))


def test_compare_detects_single_removed_arrow():
    g = 7
    m = assemble(g, packaged_facts(g))
    # rebuild the expected matrix but drop the (2,6) <= (1,4) arrow
    kept = [
        r
        for r in m.all_relations()
        if not (
            r.kind is RelKind.LE
            and {r.lhs.key, r.rhs.key} == {(2, 6), (1, 4)}
        )
    ]
    weakened = closure_relations(g, m.loci, kept)
    diffs = compare(m, weakened)
    assert len(diffs) == 1
    assert diffs[0].lhs.key == (2, 6) and diffs[0].rhs.key == (1, 4)
    assert diffs[0].got == "subset" and diffs[0].want == "unknown"


def test_compare_rejects_matrices_it_cannot_align():
    nine = closure_relations(9, enumerate_loci(9), [])
    with pytest.raises(ValueError, match="different genera"):
        compare(nine, closure_relations(10, enumerate_loci(10), []))
    with pytest.raises(ValueError, match="different loci"):
        compare(nine, closure_relations(9, enumerate_loci(9)[1:], []))


def test_relation_kinds_given_by_value_seed_like_relkinds():
    # the seeding tests the kind by identity, so a kind given as its string
    # must reach it as the RelKind, not as <= (not_subset read as subset, eq
    # as subset one way only)
    g = 9
    loci = enumerate_loci(g)
    x, y = BNLocus(g, 1, 4), BNLocus(g, 2, 7)
    for kind in RelKind:
        by_value = closure_relations(g, loci, [Relation(x, y, kind.value, "r")])
        by_kind = closure_relations(g, loci, [Relation(x, y, kind, "r")])
        assert by_value.all_relations() == by_kind.all_relations(), kind
    got = closure_relations(g, loci, [Relation(x, y, "eq", "r")])
    assert got.relation(x, y) == got.relation(y, x) == ("eq", "class")
    got = closure_relations(g, loci, [Relation(x, y, "not_subset", "r")])
    assert got.relation(x, y) == ("not_subset", "r")
    # the fact agrees with the kappa rule instead of contradicting it
    facts = {kind: assemble(g, [Fact(x, y, kind, "cite")]) for kind in ("not_subset", RelKind.NLE)}
    assert facts["not_subset"].all_relations() == facts[RelKind.NLE].all_relations()
    assert facts["not_subset"].relation(x, y)[0] == "not_subset"


def test_a_k3_row_that_its_edge_call_refuses_stops_the_assembly(monkeypatch):
    # rule_sources hands the last target of each cut K3 row to the per-pair
    # certificate; a row that the certificate refuses raises, naming the row
    import bnloci.poset as poset

    monkeypatch.setattr(poset, "k3_noncontainment", lambda *args: None)
    clear_engine_caches()
    with pytest.raises(RuntimeError, match=r"^K3 row of M\^1_\{9,3\} at rank 1 passes its bound$"):
        assemble(9)


def matrix_view(m):
    return m.all_relations(), m.classes, covers(m)


def test_a_warm_assemble_equals_a_cold_one():
    # the loci and rule seeds of a genus are built once per process; a call
    # after another at the same genus, with or without facts, gives exactly
    # the matrix of a cold call
    for g in range(7, 31):
        facts = packaged_facts(g) if g <= 12 else []
        clear_engine_caches()
        cold_plain = matrix_view(assemble(g))
        warm_facts = matrix_view(assemble(g, facts))
        clear_engine_caches()
        cold_facts = matrix_view(assemble(g, facts))
        warm_plain = matrix_view(assemble(g))
        assert warm_facts == cold_facts, g
        assert warm_plain == cold_plain, g


def test_a_warm_assemble_rejects_what_a_cold_one_does():
    fact = Fact(BNLocus(9, 2, 6), BNLocus(9, 1, 3), RelKind.LE, "cite")
    messages = []
    for warm in (False, True):
        clear_engine_caches()
        if warm:
            assemble(9)
        with pytest.raises(ContradictionError) as raised:
            assemble(9, [fact])
        messages.append(str(raised.value))
    assert messages == [
        "contradiction: M^2_{9,6} <= M^1_{9,3} via [fact:cite] but M^2_{9,6} !<= M^1_{9,3} via [k3]"
    ] * 2
    # a float genus still raises once the int genus is seeded
    with pytest.raises(TypeError):
        assemble(9.0)


def test_rule_sources_hand_out_no_cached_row():
    # rule_sources builds fresh rows on every call, so changing them leaves
    # the seeds that assemble keeps alone
    for g in (9, 18):
        before = matrix_view(assemble(g))
        loci = tuple(enumerate_loci(g))
        full = (1 << len(loci)) - 1
        for _, le_rows, nle_rows in rule_sources(g):
            for rows in (le_rows, nle_rows):
                for i in range(len(loci)):
                    rows[i] = full
        assert matrix_view(assemble(g)) == before, g
