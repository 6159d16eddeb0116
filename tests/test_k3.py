import ast
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bnloci import (
    Assignment,
    FilterConfig,
    H,
    L,
    LatticeBasis,
    LatticeClass,
    box_class_count,
    candidate_subsheaf_classes,
    destab_box,
    enumerate_assignments,
    k3_certified_below,
    k3_expected,
    k3_noncontainment,
    min_series_degree,
    pair,
)
from bnloci.k3 import (
    BOTH_FILTERS, DM, ELLIPTIC, MAX_WORKERS, K3Expectation, _drop_mask, _TAG_NAMES,
    bound_text, listing_records, type_ranks,
)
from bnloci.oracles import (
    GTPattern,
    c2_lower_bound,
    enumerate_filtration_types,
    gt_check,
    gt_pattern,
    quotient_checks,
    self_int,
    slab_classes,
)
from engine_caches import clear_engine_caches
from k3_jobs import assemble_jobs


def mk(basis, ranks, chern_heads):
    a = Assignment(tuple(ranks), tuple(chern_heads) + (H,), None)
    return a._replace(c2_bound=c2_lower_bound(basis, a))


def chain_all_triples(rk, hdeg):
    # oracle: mu(i,j) >= mu(i,k) >= mu(j,k) on every triple of the chain
    # P_i = (rk[i], hdeg[i]), with mu(i,j) the slope of P_i P_j
    def mu(i, j):
        return Fraction(hdeg[j] - hdeg[i], rk[j] - rk[i])

    triples = itertools.combinations(range(len(rk)), 3)
    return all(mu(i, j) >= mu(i, k) >= mu(j, k) for i, j, k in triples)


def gt_all_triples(basis, assignment):
    # the oracle on mu(E_j/E_i) >= mu(E_k/E_i) >= mu(E_k/E_j)
    rk = (0,) + assignment.ranks
    return chain_all_triples(rk, [0] + [pair(basis, H, c) for c in assignment.chern])


def test_filtration_types():
    assert enumerate_filtration_types(1) == [(1, 2)]
    assert enumerate_filtration_types(2) == [(1, 3), (2, 3), (1, 2, 3)]
    types3 = enumerate_filtration_types(3)
    assert len(types3) == 7
    for t in [(1, 4), (2, 4), (1, 2, 4)]:
        assert t in types3
    assert len(enumerate_filtration_types(5)) == 31
    with pytest.raises(ValueError):
        enumerate_filtration_types(0)


def test_gt_check_examples():
    basis = LatticeBasis(11, 2, 7)
    good = mk(basis, (1, 2, 4), [L, H - L])
    assert gt_check(basis, good) and quotient_checks(basis, good)
    swapped = mk(basis, (1, 2, 4), [H - L, L])
    assert not gt_check(basis, swapped)
    # n = 2: reduces to mu(E_1) >= mu(E) >= mu(E/E_1)
    b96 = LatticeBasis(9, 2, 6)
    assert gt_check(b96, mk(b96, (1, 2), [H - L]))
    assert not gt_check(b96, mk(b96, (1, 2), [L]))  # mu(E_1) = 6 < mu(E) = 8
    # x_{1,1} = 1 >= x_{2,2} = 2 fails
    assert GTPattern(((Fraction(1),), (Fraction(0), Fraction(2)))).is_valid() is False


def test_gt_check_matches_all_triples_oracle():
    rng = random.Random(97)
    bases = [
        LatticeBasis(9, 2, 6), LatticeBasis(9, 2, 7), LatticeBasis(10, 3, 9),
        LatticeBasis(11, 2, 7), LatticeBasis(100, 9, 57),
    ]
    types = [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (2, 4), (1, 3, 5)]
    checked = 0
    for _ in range(10_000):
        basis = rng.choice(bases)
        ranks = rng.choice(types)
        heads = [
            LatticeClass(rng.randint(-3, 3), rng.randint(-6, 6))
            for _ in range(len(ranks) - 1)
        ]
        # gt_check reads no c2 bound, so none is computed
        a = Assignment(tuple(ranks), tuple(heads) + (H,), None)
        assert gt_check(basis, a) == gt_all_triples(basis, a)
        checked += 1
    assert checked == 10_000


def test_gt_pattern_shape():
    basis = LatticeBasis(11, 2, 7)
    pat = gt_pattern(basis, mk(basis, (1, 2, 4), [L, H - L]))
    assert [len(row) for row in pat.entries] == [1, 2, 3]
    assert pat.entries[0][0] == Fraction(7)  # mu(E_1) = H.L
    assert pat.is_valid()


def test_quotient_checks_examples():
    b97 = LatticeBasis(9, 2, 7)
    assert quotient_checks(b97, mk(b97, (1, 3), [H - L]))
    # negative-square quotient fails
    b107 = LatticeBasis(10, 2, 7)
    assert not quotient_checks(b107, mk(b107, (1, 2), [2 * L]))
    b = LatticeBasis(100, 9, 57)
    assert quotient_checks(b, mk(b, (1, 5), [3 * L]))


def test_destab_box_examples():
    assert destab_box(LatticeBasis(9, 2, 6)) == (4, 8)
    with pytest.raises(ValueError):
        destab_box(LatticeBasis(100, 2, 19))
    assert destab_box(LatticeBasis(14, 3, 13)) == (2, 3)


def test_candidates_respect_box_and_signs():
    for g, r, d in [(9, 2, 6), (10, 3, 9), (14, 3, 13), (100, 9, 57)]:
        basis = LatticeBasis(g, r, d)
        xmax, ymax = destab_box(basis)
        for sub in candidate_subsheaf_classes(basis):
            q = H - sub
            x, y = q.xy
            assert abs(x) <= xmax and abs(y) <= ymax
            assert (x > 0 and y > 0) or (x <= 0 and y < 0)
            assert self_int(basis, q) >= 0 and pair(basis, H, q) > 0


def assemble_lattices():
    # every lattice that assemble reaches at g = 7..30, as (g, r, d)
    lattices = sorted({job[:3] for job in assemble_jobs(range(7, 31))})
    assert len(lattices) > 600
    return lattices


def test_box_class_count_is_the_box_that_the_candidates_scan():
    # the lemma's box scanned pair by pair: for r = 1, x = 0 with 0 < -y*d
    # < 2(g-1) and x = 1 with 0 < y*d < g-1; else one sign branch of
    # |x| <= X, |y| <= Y, with x >= 2 - X on the branch x <= 0; on a few
    # chosen lattices and on every lattice that assemble reaches.  The
    # candidates are the box's classes that a step can use, 0 < H.c < H^2
    lattices = [(9, 2, 6), (10, 3, 9), (14, 3, 13), (100, 9, 57), (27, 7, 25)]
    lattices += [(16, 1, 2), (13, 1, 3)]
    lattices += assemble_lattices()
    for g, r, d in lattices:
        basis = LatticeBasis(g, r, d)
        xmax, ymax = destab_box(basis)
        if r == 1:
            quots = [(0, y) for y in range(-ymax, 0)]
            quots += [(1, y) for y in range(1, g) if y * d < g - 1]
        else:
            quots = [
                (x, y)
                for x in range(-xmax, xmax + 1)
                for y in range(-ymax, ymax + 1)
                if (x > 0 and y > 0) or (2 - xmax <= x <= 0 and y < 0)
            ]
        assert box_class_count(basis) == len(quots), (g, r, d)
        kept = [LatticeClass(x, -y) for x, y in quots]
        kept = [
            q for q in kept if self_int(basis, q) >= 0 and 0 < pair(basis, H, q) < basis.h_square
        ]
        assert candidate_subsheaf_classes(basis) == sorted(H - q for q in kept), (g, r, d)


def test_candidates_reject_r0_lattices_like_the_box():
    # Delta = -4(g-1) - d^2 < 0 for every r = 0 lattice, but the lemma that
    # bounds the box does not hold there
    basis = LatticeBasis(9, 0, 3)
    assert basis.discriminant < 0
    for fn in (destab_box, box_class_count, candidate_subsheaf_classes):
        with pytest.raises(ValueError, match="r = 0"):
            fn(basis)


def test_slab_is_every_class_of_the_three_conditions():
    # the slab against a plain scan of a square of classes aH + bL; the slab
    # has |a| <= d + 2 and |b| < 2g - 2 by the Hodge index bound on y
    for g, r, d in [(9, 2, 6), (10, 3, 9), (13, 1, 3), (16, 1, 2), (9, 0, 3), (12, 3, 11)]:
        basis = LatticeBasis(g, r, d)
        span = range(-3 * g, 3 * g + 1)
        want = [
            LatticeClass(a, b)
            for a in span
            for b in span
            if 0 < pair(basis, H, LatticeClass(a, b)) < basis.h_square
            and self_int(basis, H - LatticeClass(a, b)) >= 0
        ]
        assert slab_classes(basis) == want, (g, r, d)
    with pytest.raises(ValueError, match="not finite"):
        slab_classes(LatticeBasis(9, 3, 4))


def strict_r1_class(basis):
    # the one slab class outside the lemma's box: for r = 1 and d | g-1,
    # c = ((g-1)/d) L with c^2 = (H-c)^2 = 0, which the strict bound
    # y*d < g-1 of the r = 1 box leaves out; None on every other lattice
    g, r, d = basis
    return (g - 1) // d * L if r == 1 and (g - 1) % d == 0 else None


def box_slab(basis):
    # the lemma-free slab less the strict r = 1 class
    return [c for c in slab_classes(basis) if c != strict_r1_class(basis)]


def test_candidates_are_the_slab_but_for_one_r1_class():
    # the lemma's box scan against the lemma-free slab, on every lattice
    # that assemble reaches and on the lattices past it that bn k3 scans
    inside = [LatticeBasis(*lattice) for lattice in assemble_lattices()]
    past = list(lattices_outside_assemble(range(3, 13)))
    assert (len(inside), len(past)) == (655, 625)
    for bases, misses in ((inside, 45), (past, 28)):
        for basis in bases:
            assert candidate_subsheaf_classes(basis) == box_slab(basis), basis
        assert sum(len(slab_classes(basis)) - len(box_slab(basis)) for basis in bases) == misses
    assert sum(len(candidate_subsheaf_classes(basis)) for basis in inside) == 5147


def test_candidate_rows_equal_the_pairings_on_every_assemble_lattice():
    # each row's integers, computed from the box without a LatticeClass, are
    # the pairings of its class (a, b), on every lattice that assemble
    # reaches, and the class store holds that class at the row's digit; its
    # tag bits are the parts of expected_tags that read the class alone (the
    # digits have their own test)
    from bnloci.k3 import _candidate_rows

    for lattice in assemble_lattices():
        basis = LatticeBasis(*lattice)
        rows, hs, classes = _candidate_rows(basis)
        assert hs == tuple(row[0] for row in rows)
        assert len(classes) == len(rows) + 1 and classes[0] == LatticeClass(0, 0)
        for u, a, b, cc, v, qq, tags, digit in rows:
            c = LatticeClass(a, b)
            assert classes[digit] == c and type(classes[digit]) is LatticeClass
            assert 0 < u < basis.h_square
            assert (u, v, cc, qq) == (
                pair(basis, H, c), pair(basis, L, c), self_int(basis, c), self_int(basis, H - c)
            ), (lattice, c)
            dm = DM if c == H - L else 0
            elliptic = ELLIPTIC if self_int(basis, H - c) == 0 else 0
            assert tags == dm | elliptic, (lattice, c)
        assert list(map(row_class, rows)) == sorted(
            candidate_subsheaf_classes(basis), key=lambda c: (pair(basis, H, c), c)
        )


def test_c2_lower_bound_pinned_values():
    b = LatticeBasis(100, 9, 57)
    assert c2_lower_bound(b, mk(b, (1, 5), [H - L])) == Fraction(203, 4)
    assert c2_lower_bound(b, mk(b, (1, 5), [3 * L])) == Fraction(123, 4)
    b = LatticeBasis(100, 2, 51)
    assert c2_lower_bound(b, mk(b, (2, 4), [H - L])) == 77
    b = LatticeBasis(10, 2, 7)
    assert c2_lower_bound(b, mk(b, (1, 2), [H - L])) == 5
    b = LatticeBasis(10, 3, 9)
    vals = {
        str(c): c2_lower_bound(b, mk(b, (2, 4), [c]))
        for c in [H - L, L, 2 * H - 3 * L, -H + 3 * L]
    }
    assert vals == {"H-L": 10, "L": 10, "2H-3L": 12, "-H+3L": 12}


def test_c2_closed_form_type_12_with_sub_h_minus_l():
    rng = random.Random(5)
    count = 0
    while count < 20:
        g = rng.randint(5, 60)
        r = rng.randint(2, 8)
        d = rng.randint(2, 2 * g)
        basis = LatticeBasis(g, r, d)
        a = mk(basis, (1, 2), [H - L])
        assert a.c2_bound == d - (2 * r - 2)
        count += 1


def test_enumerate_assignments_9_6():
    out = enumerate_assignments(LatticeBasis(9, 2, 6), 1)
    got = {str(a.chern[0]): a.c2_bound for a in out}
    assert got == {"2H-4L": 8, "H-L": 4, "2L": 4, "-H+4L": 8}


def test_enumerate_assignments_9_7_series_2():
    out = enumerate_assignments(LatticeBasis(9, 2, 7), 2)
    assert all(a.ranks == (1, 3) for a in out)
    got = {str(a.chern[0]): a.c2_bound for a in out}
    assert got == {"H-L": 7, "L": Fraction(15, 2)}


def test_enumerate_assignments_11_7_filtered():
    out = enumerate_assignments(LatticeBasis(11, 2, 7), 3, BOTH_FILTERS)
    survivors = [a for a in out if a.c2_bound <= 10]
    assert len(survivors) == 1
    a = survivors[0]
    assert a.ranks == (1, 2, 4) and a.chern[:2] == (L, H - L)


def test_filter_flags_annotated():
    out = enumerate_assignments(LatticeBasis(11, 2, 7), 3)
    flagged = {
        (a.type_str, str(a.chern[0])): a.filtered_by
        for a in out
        if a.c2_bound <= 10
    }
    assert flagged[("1<4", "H-L")] == ("dm",)
    assert flagged[("1<4", "2L")] == ("elliptic",)


def test_filters_are_monotone():
    configs = [
        FilterConfig(),
        FilterConfig(dm_filter=True),
        FilterConfig(elliptic_filter=True),
        BOTH_FILTERS,
    ]
    for g, r, d, s in [(11, 2, 7, 3), (12, 2, 8, 3), (100, 2, 52, 3), (100, 10, 60, 1)]:
        basis = LatticeBasis(g, r, d)
        base = min_series_degree(basis, s)
        for cfg in configs:
            m = min_series_degree(basis, s, cfg)
            assert m is None or base is None or m >= base


def test_min_series_degree_examples():
    assert min_series_degree(LatticeBasis(100, 10, 60), 1) == 18
    assert min_series_degree(LatticeBasis(100, 10, 61), 1) == 43
    # for d >= 52 no g^3_e with rho < 0 survives the filters: bound > 77
    for d in (52, 53):
        m = min_series_degree(LatticeBasis(100, 2, d), 3, BOTH_FILTERS)
        assert m is not None and m > 77


def test_donagi_morrison_citations_equal_the_filtered_minimum():
    # the two packaged genus-12 facts that cite a K3 bound with the
    # Donagi-Morrison filter: the engine must give the cited figure
    from bnloci.cli import packaged_facts

    cited = {}
    for fact in packaged_facts(12):
        found = re.search(r"force c2 >= (\d+/\d+)$", fact.source)
        if fact.source.startswith("Donagi-Morrison") and found:
            cited[(fact.lhs.key, fact.rhs.key)] = Fraction(found.group(1))
    assert sorted(cited) == [((2, 8), (3, 11)), ((2, 9), (3, 11))]
    for ((r, d), (s, _)), bound in cited.items():
        basis = LatticeBasis(12, r, d)
        assert min_series_degree(basis, s, FilterConfig(dm_filter=True)) == bound
        assert min_series_degree(basis, s) < bound  # 28/3 and 31/3 unfiltered


def test_k3_noncontainment_examples():
    rel = k3_noncontainment(7, 2, 6, 1, 3)
    assert rel is not None and rel.provenance == "k3"
    assert k3_noncontainment(8, 2, 7, 1, 4) is not None
    assert k3_noncontainment(10, 3, 9, 3, 8) is not None
    # bound exactly e: no certificate
    assert k3_noncontainment(7, 2, 6, 1, 4) is None
    # Delta >= 0: quietly inapplicable
    assert k3_noncontainment(10, 2, 6, 1, 3) is None


def test_k3_noncontainment_filter_provenance():
    dm = FilterConfig(dm_filter=True)
    rel = k3_noncontainment(12, 2, 8, 3, 11, dm)
    assert rel is not None and rel.provenance == "k3[dm]"
    rel = k3_noncontainment(12, 2, 9, 3, 11, dm)
    assert rel is not None and rel.provenance == "k3[dm]"
    rel = k3_noncontainment(10, 2, 7, 3, 9, dm)
    assert rel is not None and rel.provenance == "k3[dm]"
    # when the unfiltered bound already certifies, provenance stays plain
    rel = k3_noncontainment(7, 2, 6, 1, 3, dm)
    assert rel is not None and rel.provenance == "k3"


def test_k3_expected_examples():
    e = k3_expected(11, 2, 7, 3, 10)
    assert e is not None
    assert e.witness.ranks == (1, 2, 4) and e.witness.chern[:2] == (L, H - L)
    assert e.witness.c2_bound == 10
    assert k3_expected(12, 2, 7, 3, 10) is not None
    assert k3_expected(12, 2, 7, 3, 11) is not None
    assert k3_expected(100, 2, 52, 3, 77) is None


def test_conjectured_threshold_vs_filtered_enumerator():
    # a refuted degree threshold predicted containments at e >= 76 for
    # (100,2,51) into 3-dimensional series (tests/test_classical.py scores
    # it); the filtered enumerator settles on 77
    assert min_series_degree(LatticeBasis(100, 2, 51), 3, BOTH_FILTERS) == 77
    e = k3_expected(100, 2, 51, 3, 77)
    assert e is not None and e.witness.ranks == (2, 4)
    assert e.witness.chern[0] == H - L


def listing_expectation(g, r, d, s, e, cfg):
    # oracle: the least listed assignment by (bound, sort key) with bound <= e
    witnesses = [a for a in enumerate_assignments(LatticeBasis(g, r, d), s, cfg) if a.c2_bound <= e]
    if not witnesses:
        return None
    return K3Expectation(g, r, d, s, e, min(witnesses, key=lambda a: (a.c2_bound, a.sort_key())))


def test_k3_expected_equals_the_listing_answer_on_assemble_jobs():
    from bnloci import rho

    jobs = assemble_jobs(range(7, 13))
    assert len(jobs) > 100
    flagged = 0
    for g, r, d, s in jobs:
        for e in range(2 * s, g):
            if rho(g, s, e) >= 0:
                continue
            for cfg in (FilterConfig(), BOTH_FILTERS):
                got = k3_expected(g, r, d, s, e, cfg)
                assert got == listing_expectation(g, r, d, s, e, cfg), (g, r, d, s, e, cfg)
                flagged += got is not None
    assert flagged > 100


def test_k3_expected_needs_no_listing(monkeypatch):
    import bnloci.k3 as k3

    want = {cfg: listing_expectation(11, 2, 7, 3, 10, cfg) for cfg in (FilterConfig(), BOTH_FILTERS)}
    monkeypatch.setattr(k3, "MAX_ASSIGNMENTS", 1)
    with pytest.raises(ValueError, match="passes 1 assignments"):
        enumerate_assignments(LatticeBasis(11, 2, 7), 3, BOTH_FILTERS)
    for cfg, witness in want.items():
        assert witness is not None and k3_expected(11, 2, 7, 3, 10, cfg) == witness


def test_k3_expected_walks_once_per_lattice_series_and_filters(monkeypatch):
    # every proper target e of a job reads the same cached least leaf
    import bnloci.k3 as k3
    from bnloci import rho

    g, r, d, s = 13, 2, 8, 3
    targets = [e for e in range(2 * s, g) if rho(g, s, e) < 0]
    assert len(targets) >= 5
    configs = (None, FilterConfig(), FilterConfig(dm_filter=True), BOTH_FILTERS)
    want = {
        cfg: [listing_expectation(g, r, d, s, e, cfg or BOTH_FILTERS) for e in targets]
        for cfg in configs
    }
    real, walks = k3._least, []

    def spy(*args, **kwargs):
        walks.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(k3, "_least", spy)
    for cfg in configs:
        assert any(want[cfg]) and not all(want[cfg]), cfg
        k3._min_bound_cached.cache_clear()
        walks.clear()
        assert [k3_expected(g, r, d, s, e, cfg) for e in targets] == want[cfg], cfg
        assert len(walks) == 1, (cfg, walks)


def test_exact_minimum_breaks_ties_on_the_decoded_type(monkeypatch):
    # the exact entry is the least kept leaf by (bound, len(ranks), ranks,
    # key).  On these jobs several kept leaves share the least bound, the
    # walk meets another one first, and on Lambda^4_(15,13) the last one it
    # meets is not the least either
    import bnloci.k3 as k3

    entry = k3._min_bound_cached.__wrapped__
    pinned = {
        (9, 2, 6, 1, 0): (16, 2, (1, 2), 5, 0),
        (9, 1, 3, 4, 3): (1200, 3, (3, 4, 5), 55, 0),
        (15, 4, 13, 6, 3): (10080, 6, (1, 3, 4, 5, 6, 7), 37626140, 0),
    }
    ties = {}
    for (g, r, d, s, drop), want in pinned.items():
        leaves = []
        k3._walk(LatticeBasis(g, r, d), s, drop, lambda *leaf: leaves.append(leaf))
        tied = ties[g, r, d, s, drop] = [leaf for leaf in leaves if leaf[2] == want[0]]
        assert tied[0][1] != want[3] and len(tied) >= 2, (g, r, d, s, drop)
        assert (tied[-1][1] != want[3]) == (g == 15), (g, r, d, s, drop)
        assert entry(g, r, d, s, drop, False) == want, (g, r, d, s, drop)
    # no job at g <= 30 ties two types whose bitmasks order otherwise than
    # the decoded types, so a decoder that orders the types by descending
    # bitmask stands in: the walk must order tied leaves by what type_ranks
    # decodes, not by bitmask and not by the order that it meets them
    monkeypatch.setattr(k3, "type_ranks", lambda mask: (-mask,))
    moved = 0
    for job, tied in ties.items():
        want = min((total, 1, (-ranks,), key, tags) for ranks, key, total, tags in tied)
        assert entry(*job, False) == want, job
        moved += min(tied)[1] != want[3]  # the least by bitmask, then key
    assert moved == 2


def test_enumerated_assignments_pass_all_checks_and_box():
    for g, r, d, s in [(9, 2, 6, 1), (9, 2, 7, 2), (10, 3, 9, 3), (11, 2, 7, 3)]:
        basis = LatticeBasis(g, r, d)
        cands = set((c.a, c.b) for c in candidate_subsheaf_classes(basis))
        for a in enumerate_assignments(basis, s):
            assert gt_check(basis, a)
            assert quotient_checks(basis, a)
            for head in a.chern[:-1]:
                assert (head.a, head.b) in cands


# ------------------------------------------------ completeness and differential

ORACLE_JOBS = [
    (9, 2, 6, (1, 2, 3)),
    (10, 3, 9, (1, 2, 3)),
    (11, 2, 7, (1, 2, 3)),
    (16, 1, 2, (1, 2, 3)),  # the r = 1 branch of the candidate box
    (16, 3, 11, (1,)),
    (13, 1, 3, (1, 2, 3)),  # r = 1 with d | g-1: the box leaves out 4L
]
ALL_CONFIGS = [
    FilterConfig(),
    FilterConfig(dm_filter=True),
    FilterConfig(elliptic_filter=True),
    BOTH_FILTERS,
]


def brute_force_assignments(basis, s, cands=None):
    # every tuple of classes for every type, kept iff it passes the stated
    # conditions; no pruning, no shared code with the DFS.  The classes
    # default to the lemma-free slab less the strict r = 1 class
    cands = box_slab(basis) if cands is None else cands
    out = []
    for ranks in enumerate_filtration_types(s):
        for heads in itertools.product(cands, repeat=len(ranks) - 1):
            a = Assignment(ranks, tuple(heads) + (H,), Fraction(0))
            if quotient_checks(basis, a) and gt_check(basis, a):
                out.append(a._replace(c2_bound=c2_lower_bound(basis, a)))
    return out


def expected_tags(basis, s, a):
    # the filter definitions of FilterConfig, written out afresh
    tags = ()
    if a.ranks == (1, s + 1) and a.chern[0] == H - L and s > basis.r:
        tags += ("dm",)
    top_rank = a.ranks[-1] - a.ranks[-2]
    if top_rank >= 2 and self_int(basis, H - a.chern[-2]) == 0:
        tags += ("elliptic",)
    return tags


def filtered_out(tags, config):
    return (config.dm_filter and "dm" in tags) or (config.elliptic_filter and "elliptic" in tags)


@pytest.mark.parametrize("g,r,d,series", ORACLE_JOBS)
def test_enumeration_is_complete_against_brute_force(g, r, d, series):
    basis = LatticeBasis(g, r, d)
    for s in series:
        oracle = sorted(brute_force_assignments(basis, s), key=Assignment.sort_key)
        oracle = [a._replace(filtered_by=expected_tags(basis, s, a)) for a in oracle]
        for cfg in ALL_CONFIGS:
            want = [a for a in oracle if not filtered_out(a.filtered_by, cfg)]
            listed = enumerate_assignments(basis, s, cfg)
            # same assignments, bounds and tags, in the canonical order
            assert listed == want, (g, r, d, s, cfg)
            kept = [a.c2_bound for a in want]
            assert min_series_degree(basis, s, cfg) == min(kept, default=None), (s, cfg)


def test_the_strict_r1_class_costs_assignments_but_no_minimum():
    # (13, 1, 3): the strict r = 1 bound leaves out c = 4L; over the whole
    # slab the brute force finds more assignments, with the same minima
    basis = LatticeBasis(13, 1, 3)
    assert strict_r1_class(basis) == 4 * L
    for s, whole, listed, least in [
        (1, 5, 4, Fraction(3)), (2, 17, 14, Fraction(9, 2)), (3, 53, 42, Fraction(17, 3))
    ]:
        every = brute_force_assignments(basis, s, slab_classes(basis))
        assert (len(every), len(enumerate_assignments(basis, s))) == (whole, listed), s
        assert min(a.c2_bound for a in every) == min_series_degree(basis, s) == least, s


def concave_chain(steps):
    """(rk, hd) of the steps (rank, (slope, nudge)): a concave chain with
    integer step slopes, the slopes falling along the ranks, and each
    H-degree then nudged by at most 1 (ties and near misses)."""
    rk, hd, exact = [0], [0], 0
    slopes = sorted((slope for _, (slope, _) in steps), reverse=True)
    for m, (rank, (_, nudge)) in zip(slopes, sorted(steps)):
        exact += m * (rank - rk[-1])
        rk.append(rank)
        hd.append(exact + nudge)
    return tuple(rk), hd


def free_chain(steps):
    """(rk, hd) of the steps (rank, H-degree), in ascending rank."""
    steps = sorted(steps)
    return (0, *(rank for rank, _ in steps)), [0, *(h for _, h in steps)]


# (rk, hd): 0 = rk[0] < rk[1] < ... < rk[n] with 1 <= n <= 9, ranks in 1..20
# and hd[0] = 0.  Each step draws its rank and one more choice: half are
# concave chains, whose step draws its slope in -4..4 with a nudge that is 0
# three times in five, and half have free H-degrees in -30..30.  Unique by
# itemgetter(0), Hypothesis draws the ranks without replacement, so no
# repeated rank is drawn and thrown away.
integer_chains = st.one_of(
    st.lists(
        st.tuples(st.integers(1, 20), st.sampled_from(
            tuple(itertools.product(range(-4, 5), (0, 0, 0, 1, -1))))),
        min_size=1, max_size=9, unique_by=operator.itemgetter(0),
    ).map(concave_chain),
    st.lists(
        st.tuples(st.integers(1, 20), st.integers(-30, 30)),
        min_size=1, max_size=9, unique_by=operator.itemgetter(0),
    ).map(free_chain),
)


@settings(max_examples=500, deadline=None)
@given(integer_chains)
def test_adjacent_slope_recheck_equals_all_triples(chain):
    # the step checks along the chain's successive prefixes: step k adds P_k
    # to the checked leaf P_0..P_{k-1}, P_top, and must first fail at the
    # first k whose prefix leaf P_0..P_k, P_top fails the all-triples oracle
    from bnloci.k3 import _check_step

    rk, hd = chain
    top, htot = rk[-1], hd[-1]
    # the slope of P_i P_j for i < j, built once: a prefix leaf is the
    # subchain P_0..P_k, P_top, so its triples read the same slopes
    mu = {
        (i, j): Fraction(hd[j] - hd[i], rk[j] - rk[i])
        for i, j in itertools.combinations(range(len(rk)), 2)
    }

    def leaf_all_triples(points):
        triples = itertools.combinations(points, 3)
        return all(mu[i, j] >= mu[i, k] >= mu[j, k] for i, j, k in triples)

    first_step = first_leaf = None
    for k in range(1, len(rk) - 1):
        dr, hpp = (rk[k - 1] - rk[k - 2], hd[k - 2]) if k >= 2 else (0, 0)
        # rows carry what the check reads: the H-degree, and (H-c)^2 = 0;
        # a quotient failure means that the step's two slope pairs held
        row = (hd[k], 0, 0, 0, 0, 0)
        if first_step is None and _check_step(htot, top, rk[k - 1], hd[k - 1], dr, hpp, rk[k], row) == "GT":
            first_step = k
        if first_leaf is None and not leaf_all_triples([*range(k + 1), len(rk) - 1]):
            first_leaf = k
    assert first_step == first_leaf
    # a leaf is a subchain of the whole chain, so the oracle on the whole
    # chain is the oracle on every prefix leaf (the last one is the chain)
    assert (first_leaf is None) == chain_all_triples(rk, hd)


def test_minimum_path_matches_listing_path_on_assemble_jobs():
    jobs = assemble_jobs(range(7, 13))
    assert len(jobs) > 100
    for g, r, d, s in jobs:
        basis = LatticeBasis(g, r, d)
        for cfg in (FilterConfig(), BOTH_FILTERS):
            listed = enumerate_assignments(basis, s, cfg)
            want = min((a.c2_bound for a in listed), default=None)
            assert min_series_degree(basis, s, cfg) == want, (g, r, d, s, cfg)
            for a in listed:
                assert a.c2_bound == c2_lower_bound(basis, a)


def test_floored_minimum_decides_every_query_like_the_exact_minimum():
    from bnloci import rho
    from bnloci.k3 import _min_bound_cached, _scale

    # every exact query below comes after the floored one at the same key
    _min_bound_cached.cache_clear()
    plain = FilterConfig()
    jobs = assemble_jobs(range(7, 15))
    assert len(jobs) > 300
    for g, r, d, s in jobs:
        basis = LatticeBasis(g, r, d)
        listed = enumerate_assignments(basis, s, plain)
        # BOTH_FILTERS keeps exactly the untagged assignments
        kept = {plain: [a.c2_bound for a in listed]}
        kept[BOTH_FILTERS] = [a.c2_bound for a in listed if not a.filtered_by]
        exact = {cfg: min(bounds, default=None) for cfg, bounds in kept.items()}
        for cfg, bounds in kept.items():
            m = _min_bound_cached(g, r, d, s, _drop_mask(cfg), True)
            floored = None if m is None else Fraction(m, _scale(s))
            if exact[cfg] is None or exact[cfg] > 2 * s:
                assert floored == exact[cfg], (g, r, d, s, cfg)
            else:
                assert floored <= 2 * s and floored in bounds, (g, r, d, s, cfg)
        for e in range(2 * s, g):
            if rho(g, s, e) >= 0:
                continue
            for cfg in kept:
                m = exact[cfg]
                want = None
                if m is None or m > e:
                    m0 = exact[plain]
                    want = "k3" if m0 is None or m0 > e else "k3[dm,elliptic]"
                rel = k3_noncontainment(g, r, d, s, e, cfg)
                assert (rel and rel.provenance) == want, (g, r, d, s, e, cfg)
                below = k3_certified_below(g, r, d, s, cfg)
                assert (below is None or e < below) == (m is None or m > e), (g, r, d, s, e, cfg)
        for cfg in kept:
            # the bound is ceil of the exact minimum whenever that is above 2s
            below, m = k3_certified_below(g, r, d, s, cfg), exact[cfg]
            if m is None or m > 2 * s:
                assert below == (None if m is None else math.ceil(m)), (g, r, d, s, cfg)
            else:
                assert below <= 2 * s, (g, r, d, s, cfg)
        for cfg in kept:
            assert min_series_degree(basis, s, cfg) == exact[cfg], (g, r, d, s, cfg)


def test_floored_search_stops_early(monkeypatch):
    import bnloci.k3 as k3

    checked = []
    real = k3._check_step

    def spy(htot, top, rm, hp, dr, hpp, r, row):
        checked.append(r)
        return real(htot, top, rm, hp, dr, hpp, r, row)

    monkeypatch.setattr(k3, "_check_step", spy)
    basis = LatticeBasis(15, 4, 13)
    # the listing checks each (node state, row) once: 3,465 checks for 14,263 leaves
    assert len(enumerate_assignments(basis, 7)) == 14263
    assert len(checked) == 3465
    checked.clear()
    k3._min_bound_cached.cache_clear()
    assert k3.k3_certified_below(15, 4, 13, 7) <= 14
    assert 0 < len(checked) < 14263 // 100


def per_type_walk(basis, s, leaf):
    # oracle: the filtration DFS as one search per filtration type, which
    # walks a prefix again for every type that shares it
    from bnloci.k3 import _candidate_rows, _scale

    htot = basis.h_square
    big = _scale(s)
    rows = _candidate_rows(basis)[0]
    hs = [row[0] for row in rows]
    heads = [row_class(row) for row in rows]
    origin = (0, 0, 0, 0, 0, htot)  # E_0 = 0, so c.p = p.p = 0
    path = []  # the classes of the chosen rows

    for ranks in enumerate_filtration_types(s):
        rk = (0,) + ranks
        n = len(ranks)
        half = [0] * (n + 1)
        const = [0] * (n + 1)
        for i in range(1, n + 1):
            rho_i = rk[i] - rk[i - 1]
            half[i] = (rho_i - 1) * (big // (2 * rho_i))
            const[i] = rho_i * big - big // rho_i

        def dfs(m, p, hpp, acc):
            hp = p[0]
            a, b = rk[m] - rk[m - 1], rk[n] - rk[m]
            start = bisect_left(hs, -(-(htot * a + hp * b) // (a + b)))
            if m == 1:
                stop = len(rows)
            else:
                stop = bisect_right(hs, hp + (hp - hpp) * a // (rk[m - 1] - rk[m - 2]), start)
            for idx in range(start, stop):
                c = rows[idx]
                cp = c[1] * hp + c[2] * p[4]
                total = acc + half[m] * (c[3] - 2 * cp + p[3]) + big * (cp - p[3]) + const[m]
                path.append(heads[idx])
                if m == n - 1:
                    leaf(ranks, path, total + half[n] * c[5] + big * (c[0] - c[3]) + const[n])
                else:
                    dfs(m + 1, c, hp, total)
                path.pop()

        dfs(1, origin, 0, 0)


def row_class(row):
    # the class of a candidate row, from its own (a, b) fields
    return LatticeClass(row[1], row[2])


def key_rows(basis, of_row=None):
    # the decoder of the walk's keys into tuples of of_row(row) (the rows
    # themselves by default), by division and each row's own digit field,
    # with no k3 decoder: a key is its prefix key // radix and its last
    # digit, and the digits are at least 1, so the empty prefix is 0
    from bnloci.k3 import _candidate_rows

    rows = _candidate_rows(basis)[0]
    by_digit = {row[7]: of_row(row) if of_row else row for row in rows}
    radix, memo = len(rows) + 1, {0: ()}

    def decode(key):
        if key not in memo:
            memo[key] = decode(key // radix) + (by_digit[key % radix],)
        return memo[key]

    return decode


def walk_leaves(basis, s, drop):
    # the prefix walk's leaves as (ranks, the classes its key spells, scaled
    # bound, tag names), sorted
    from bnloci.k3 import _walk

    leaves, decode = [], key_rows(basis, row_class)
    _walk(basis, s, drop, lambda *leaf: leaves.append(leaf))
    ranks_of = {mask: type_ranks(mask) for mask in {leaf[0] for leaf in leaves}}
    return sorted((ranks_of[mask], decode(key), total, _TAG_NAMES[tags]) for mask, key, total, tags in leaves)


def oracle_leaves(basis, s):
    # the per-type walk's leaves as (ranks, the rows' classes, scaled bound,
    # tag names by the filter definitions), sorted
    out = []
    per_type_walk(basis, s, lambda ranks, path, total: out.append((ranks, tuple(path), total)))
    return sorted(
        (ranks, heads, total, expected_tags(basis, s, Assignment(ranks, heads + (H,), Fraction(0))))
        for ranks, heads, total in out
    )


# the five k3_list jobs of perfbench, as (g, r, d, s), read off the
# "g,r,d,s,filters" keys of its references, so (13, 2, 7, 6) comes first
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"
K3_LIST_JOBS = sorted(
    tuple(map(int, job.split(",")[:4]))
    for job in json.loads(REFS.read_text(encoding="utf-8"))["k3"]
)


def per_type_listing(s, leaves):
    # oracle: the leaves of oracle_leaves as one listing, sorted by
    # Assignment.sort_key; a config's listing is the part of it that it keeps
    from bnloci.k3 import _scale

    out = [Assignment(ranks, heads + (H,), Fraction(total, _scale(s)), tags) for ranks, heads, total, tags in leaves]
    return sorted(out, key=Assignment.sort_key)


def test_prefix_walk_matches_per_type_walk():
    # the walk's leaves, their tags and the classes their keys spell are the
    # per-type oracle's under every config, which drops exactly the leaves
    # that it filters; and the listing of enumerate_assignments is the
    # oracle's, in its order, with one Fraction object per distinct bound
    jobs = assemble_jobs(range(7, 15)) + K3_LIST_JOBS
    assert len(jobs) > 300 and max(s for *_, s in jobs) == 8
    emitted, seen = 0, set()
    for g, r, d, s in jobs:
        basis = LatticeBasis(g, r, d)
        oracle = oracle_leaves(basis, s)
        listing = per_type_listing(s, oracle)
        emitted += len(oracle)
        seen.update(tags for *_, tags in oracle)
        for cfg in ALL_CONFIGS:
            kept = [leaf for leaf in oracle if not filtered_out(leaf[3], cfg)]
            assert walk_leaves(basis, s, _drop_mask(cfg)) == kept, (g, r, d, s, cfg)
            listed = enumerate_assignments(basis, s, cfg)
            assert listed == [a for a in listing if not filtered_out(a.filtered_by, cfg)], (g, r, d, s, cfg)
            assert len({id(a.c2_bound) for a in listed}) == len({a.c2_bound for a in listed})
    # every set of tags occurs
    assert emitted > 30000 and seen == set(_TAG_NAMES)


def test_row_digits_are_the_ranks_of_the_classes_in_a_b_order():
    # a listing key spells its classes as row digits in radix n + 1, and its
    # int order is the class order only if the digits are injective and in
    # (a, b) order; and they must be >= 1: with a digit 0, a key loses its
    # leading class, as 0 d_2 ... d_n and d_2 ... d_n are one int, so it
    # decodes to one class too few.  That trap is live: on Lambda^3_(16,11)
    # at s = 7 and Lambda^4_(17,14) at s = 8 the least class leads keys
    # whose other digits are a key of the next shorter type
    from bnloci.k3 import _candidate_rows

    lattices = {job[:3] for job in assemble_jobs(range(7, 17)) + K3_LIST_JOBS}
    assert any(r == 1 for _, r, _ in lattices)
    for lattice in sorted(lattices):
        rows = _candidate_rows(LatticeBasis(*lattice))[0]
        digits = [row[7] for row in sorted(rows, key=row_class)]
        assert digits == list(range(1, len(rows) + 1)), lattice
    for g, r, d, s in K3_LIST_JOBS:
        basis = LatticeBasis(g, r, d)
        _, classes, groups = listing_records(basis, s)
        radix = len(classes)
        rows = _candidate_rows(basis)[0]
        assert classes == (LatticeClass(0, 0), *sorted(map(row_class, rows)))
        keys = {}  # by type length
        for ranks, records in groups:
            keys.setdefault(len(ranks), set()).update(key for key, _, _ in records)
        led = [key for n, ks in keys.items() for key in ks
               if key // radix ** (n - 2) == 1 and key % radix ** (n - 2) in keys.get(n - 1, ())]
        assert bool(led) == ((g, r, d, s) in [(16, 3, 11, 7), (17, 4, 14, 8)]), (g, r, d, s)


def test_rank_bitmasks_decode_to_the_types_in_listing_order():
    # every type bitmask of the walk, bits 1..s free and bit s+1 set,
    # decodes to a strictly increasing tuple ending in s+1; the decodes are
    # the filtration types, and sorting the masks by the decode gives the
    # (len, ranks) order of the tuples
    for s in range(1, 11):
        top = s + 1
        masks = [1 << top | free << 1 for free in range(1, 1 << s)]
        for mask in masks:
            ranks = type_ranks(mask)
            assert ranks[0] >= 1 and ranks[-1] == top, (s, mask)
            assert all(a < b for a, b in zip(ranks, ranks[1:])), (s, mask)
            assert sum(1 << r for r in ranks) == mask, (s, mask)
        order = sorted(masks, key=lambda mask: (len(type_ranks(mask)), type_ranks(mask)))
        assert [type_ranks(mask) for mask in order] == enumerate_filtration_types(s), s


@given(st.integers(), st.integers(min_value=1))
@example(-7, 2)
@example(0, 5)
@example(12, 4)
@example(-12, 4)
@example(5, 1)
def test_bound_text_is_the_fraction_text(total, big):
    assert bound_text(total, big) == str(Fraction(total, big))


def test_bound_text_of_every_listed_bound_is_the_fraction_text():
    # every distinct bound of the listing jobs of the benchmark, unfiltered
    distinct = 0
    for g, r, d, s in K3_LIST_JOBS:
        big, _, groups = listing_records(LatticeBasis(g, r, d), s)
        totals = {total for _, records in groups for _, total, _ in records}
        distinct += len(totals)
        for total in totals:
            assert bound_text(total, big) == str(Fraction(total, big)), (g, r, d, s, total)
    assert distinct > 1000


def test_enumerated_classes_are_the_classes_that_the_walk_hands_its_leaf():
    # cmd_k3 and enumerate_assignments decode the same keys with the same
    # decoder, so comparing the two cannot catch a bad decode; this reads the
    # classes off the walk's keys by division and the rows' own (a, b)
    # fields (key_rows), and checks the decoded listing
    from bnloci.k3 import _scale

    for g, r, d, s in K3_LIST_JOBS:
        basis = LatticeBasis(g, r, d)
        for cfg in (FilterConfig(), BOTH_FILTERS):
            want = sorted(
                (
                    Assignment(ranks, heads + (H,), Fraction(total, _scale(s)), tags)
                    for ranks, heads, total, tags in walk_leaves(basis, s, _drop_mask(cfg))
                ),
                key=Assignment.sort_key,
            )
            assert enumerate_assignments(basis, s, cfg) == want, (g, r, d, s, cfg)


def test_floored_walk_emits_short_types_first(monkeypatch):
    # the prefix walk emits a node's leaves before it descends, so the
    # floored minimum, without the cut of branch and bound, emits no more
    # leaves than the per-type search checked (7,895 over these genera); a
    # plain depth-first order checks 85,944
    emitted = cold_assemble_uncut_leaves(monkeypatch, range(13, 18))
    clear_engine_caches()
    assert 0 < emitted <= 7895


def count_lower_end_bisections(monkeypatch, work):
    # the walk is the only user of bisect_left in k3: one call per (node, r)
    # interval whose lower end it looks up
    import bnloci.k3 as k3

    calls = 0
    real = k3.bisect_left

    def spy(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(k3, "bisect_left", spy)
    work()
    return calls


def test_walk_skips_empty_intervals_on_cold_assemble(monkeypatch):
    # the rank loop ends at the first empty lower end and no childless
    # prefix is entered: 16,090 bisections without either, 6,563 with both
    from bnloci.poset import assemble

    def cold_assemble():
        clear_engine_caches()
        for g in range(13, 18):
            assemble(g)

    assert 0 < count_lower_end_bisections(monkeypatch, cold_assemble) <= 6563


def test_walk_skips_empty_intervals_on_the_listing_jobs(monkeypatch):
    def listings():
        for g, r, d, s in K3_LIST_JOBS:
            enumerate_assignments(LatticeBasis(g, r, d), s)

    # 57,560 bisections without the pruning
    assert 0 < count_lower_end_bisections(monkeypatch, listings) <= 37911


def test_walk_emits_the_leaves_in_a_locked_order():
    # the sequence of leaves, not only their set, as the walk emitted it
    # before the interval pruning: the floored minimum relies on the order
    import hashlib

    from bnloci.k3 import _walk

    digest, emitted = hashlib.sha256(), 0
    for g, r, d, s in assemble_jobs(range(7, 13)) + K3_LIST_JOBS[:1]:
        basis = LatticeBasis(g, r, d)
        decode = key_rows(basis)

        def leaf(ranks, key, total, tags):
            nonlocal emitted
            emitted += 1
            digest.update(
                repr((type_ranks(ranks), [(row[1], row[2]) for row in decode(key)], total)).encode()
            )

        _walk(basis, s, 0, leaf)
    assert emitted == 7458
    assert digest.hexdigest() == "6086f3aea1f5615713bb775877f4c5c4da2078a81db3cbf3b6fbf439d3a0ddf3"


def test_step_table_is_the_formulas_written_out():
    # D = 2 lcm(1..s+1), half[rho] = (rho-1) D / (2 rho), const[rho] =
    # rho D - D / rho, and masks[r] the tags that _walk's docstring allows a
    # leaf of type (..., r, s+1): DM only for type 1 < s+1 with s > r of the
    # lattice, ELLIPTIC only when the top quotient has rank s+1 - r >= 2
    from bnloci.k3 import _step_table

    for s in range(1, 15):
        big = 2 * math.lcm(*range(1, s + 2))
        for dm in (False, True):
            table = _step_table(s, dm)
            assert type(table) is tuple and len(table) == 4
            assert table[0] == big
            half, const, masks = table[1:]
            assert all(type(part) is tuple for part in (half, const, masks))
            assert len(half) == len(const) == s + 2 and half[0] == const[0] == 0
            for rho in range(1, s + 2):
                assert half[rho] * 2 * rho == (rho - 1) * big, (s, rho)
                assert const[rho] * rho == rho * rho * big - big, (s, rho)
            assert masks == tuple(
                (DM if r == 1 and dm else 0) | (ELLIPTIC if s + 1 - r >= 2 else 0)
                for r in range(s + 1)
            ), (s, dm)


def test_walk_tables_are_built_once_per_series_and_lattice(monkeypatch):
    # a cold assemble builds the step table once per (s, s > r) key that a
    # walk with candidate rows reads, and the rows and heights once per
    # lattice that it walks
    import bnloci.k3 as k3
    from bnloci.poset import assemble

    walks = []
    real = k3._least

    def spy(basis, s, drop, floor):
        walks.append((basis, s))
        return real(basis, s, drop, floor)

    monkeypatch.setattr(k3, "_least", spy)
    clear_engine_caches()
    k3._step_table.cache_clear()
    assemble(17)
    tables, rows = k3._step_table.cache_info(), k3._candidate_rows.cache_info()
    lattices = {basis for basis, _ in walks}
    stepped = [(basis, s) for basis, s in walks if k3._candidate_rows(basis)[0]]
    keys = {(s, s > basis.r) for basis, s in stepped}
    assert len(walks) > len(lattices) > 10 and len(stepped) > len(keys) > 1
    assert (tables.misses, tables.hits) == (len(keys), len(stepped) - len(keys))
    assert (rows.misses, rows.hits) == (len(lattices), len(walks) - len(lattices))


def lattices_outside_assemble(genera):
    # every r >= 1 lattice with Delta < 0 and d <= 2g whose box bn k3 scans;
    # d > g - 1 is past every proper locus, so assemble never walks these
    from bnloci.cli import MAX_K3_BOX_CLASSES

    for g in genera:
        for r in range(1, 2 * g):
            for d in range(2 * g + 1):
                basis = LatticeBasis(g, r, d)
                if basis.discriminant < 0 and box_class_count(basis) <= MAX_K3_BOX_CLASSES:
                    yield basis


def test_walk_on_lattices_without_candidates_matches_per_type_walk():
    from bnloci.k3 import _candidate_rows

    bases = list(lattices_outside_assemble(range(3, 13)))
    empty = [b for b in bases if not _candidate_rows(b)[0]]
    assert len(empty) == 125 and LatticeBasis(3, 1, 4) in empty
    # and every lattice past d = g - 1 that does have candidates
    past = [b for b in bases if b.d > b.g - 1 and _candidate_rows(b)[0]]
    assert len(past) == 410
    emitted = 0
    for basis in empty + past:
        for s in range(1, 4):
            leaves = walk_leaves(basis, s, 0)
            assert leaves == oracle_leaves(basis, s), (basis, s)
            if basis in empty:
                assert leaves == [] and enumerate_assignments(basis, s) == []
                assert min_series_degree(basis, s) is None
            emitted += len(leaves)
    assert emitted == 5958


@pytest.mark.parametrize("fn", [k3_noncontainment, k3_expected])
@pytest.mark.parametrize(
    "args",
    [
        (12, 2, 8, 3, 5),  # target e = 5 < 2s: M^3_{12,5} is empty by Clifford
        (12, 2, 3, 1, 4),  # source d = 3 < 2r
    ],
)
def test_loci_below_clifford_are_rejected(fn, args):
    with pytest.raises(ValueError, match="proper locus"):
        fn(*args)


def test_k3_queries_are_defined_exactly_on_the_proper_loci(monkeypatch):
    # the box of test_kappa_is_defined_exactly_on_the_proper_loci: both K3
    # queries reject every triple off the proper loci, as source and as
    # target, with ValueError alone, the message of kappa's one domain
    # check, and before any K3 walk starts
    from bnloci import is_proper_locus, kappa
    import bnloci.k3 as k3

    def no_walk(*args):
        raise AssertionError(f"a K3 walk started for {args}")

    monkeypatch.setattr(k3, "_min_bound_cached", no_walk)
    monkeypatch.setattr(k3, "_least", no_walk)
    rejected = 0
    for g in range(-2, 21):
        for r in range(-3, 13):
            for d in range(-3, 2 * g + 4):
                if is_proper_locus(g, r, d):
                    continue
                rejected += 1
                with pytest.raises(ValueError) as domain:
                    kappa(g, r, d)
                # pair it with the proper M^1_{g,2}, or below g = 3 with itself
                other = (1, 2) if g >= 3 else (r, d)
                for fn in (k3_noncontainment, k3_expected):
                    for args in ((g, r, d, *other), (g, *other, r, d)):
                        with pytest.raises(ValueError, match="proper locus") as err:
                            fn(*args)
                        assert str(err.value) == str(domain.value), args
    assert rejected == 9200 - 498  # the box less the proper loci of g = 3..20


@pytest.mark.parametrize("s", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: min_series_degree(LatticeBasis(9, 2, 6), s),
        lambda s: listing_records(LatticeBasis(9, 2, 6), s),
        lambda s: k3_certified_below(9, 2, 6, s),
    ],
    ids=["min_series_degree", "listing_records", "k3_certified_below"],
)
def test_series_below_1_is_rejected_by_the_walk(call, s):
    # no filtration type exists, and an empty walk would read as "every e
    # certified"
    with pytest.raises(ValueError, match="need s >= 1"):
        call(s)


@pytest.mark.parametrize("fn", [min_series_degree, listing_records, enumerate_assignments])
def test_search_on_a_lattice_without_a_k3_is_rejected(fn):
    # Delta(9, 3, 4) = 48 >= 0: the walk's candidate rows reach destab_box
    assert LatticeBasis(9, 3, 4).discriminant == 48
    with pytest.raises(ValueError, match="no such K3 surface"):
        fn(LatticeBasis(9, 3, 4), 2)


def test_k3_expected_is_none_without_a_k3():
    # both loci are proper, but Delta(9, 3, 7) = 15 >= 0
    assert LatticeBasis(9, 3, 7).discriminant == 15
    assert k3_expected(9, 3, 7, 1, 3) is None


# ------------------------------------------------------------ branch and bound


def chain_sums(basis, big, rk, classes):
    # (the walk's step sum, the closed form) of the chain of classes c_1..c_m
    # over the ranks rk (led by 0), times D: the step terms
    # (rho-1)/(2 rho) f^2 + f.c_{j-1} + rho - 1/rho, and
    # c_m^2/2 + sum_j (rho_j - 1/rho_j - f_j^2 / (2 rho_j)) with f_j = c_j - c_{j-1}
    step = closed = 0
    prev = LatticeClass(0, 0)
    for i, c in enumerate(classes, 1):
        rho, f = rk[i] - rk[i - 1], c - prev
        ff, unit = self_int(basis, f), big // (2 * rho)
        step += (rho - 1) * unit * ff + big * pair(basis, f, prev) + rho * big - big // rho
        closed += rho * big - big // rho - unit * ff
        prev = c
    return step, closed + self_int(basis, prev) * big // 2


def least_leaf_totals(basis, s, drop):
    # the uncut walk, with every prefix (ranks, rows) of the rows that a
    # leaf's key spells mapped to the least total of the leaves through its
    # last row, and of the leaves strictly below it.  With nothing dropped,
    # each leaf's step sum, closed form and total must agree
    from bnloci.k3 import _scale, _walk

    through, below, big = {}, {}, _scale(s)
    decode, heads = key_rows(basis), key_rows(basis, row_class)

    def leaf(ranks, key, total, tags):
        ranks, path = type_ranks(ranks), decode(key)
        n = len(path)
        for m in range(1, n + 1):
            prefix = (ranks[:m], path[:m])
            if through.get(prefix, total) >= total:
                through[prefix] = total
            if m < n and below.get(prefix, total) >= total:
                below[prefix] = total
        if not drop:
            classes = heads(key) + (H,)
            assert chain_sums(basis, big, (0,) + ranks, classes) == (total, total), (ranks, path)

    _walk(basis, s, drop, leaf)
    return through, below


def test_branch_and_bound_bounds_hold_on_every_uncut_leaf():
    # the lower bound of the k3 docstring ("Branch and bound"), in
    # Fractions: at each row it is at most every leaf through it.  Below a
    # child, with the slope of the child's own step, the check reads the
    # larger of R min(k, 1) and the Cauchy-Schwarz term k b_c^2 / R (the
    # remaining L-coefficients sum to -b_c), which is at least the bound
    # that the walk tests on entering the child, and it too is at most
    # every leaf strictly below the child.  The closed form T that both
    # start from equals the walk's sum on every leaf and prefix, and
    # c2_lower_bound on every assignment listed with the filters off at
    # g <= 10
    from bnloci.k3 import _scale

    rows = 0
    for g, r, d, s in assemble_jobs(range(7, 15)):
        basis = LatticeBasis(g, r, d)
        h2, dl, big = basis.h_square, -basis.discriminant, _scale(s)
        unit = min(Fraction(dl, 2 * h2), 1)
        nodes = {}

        def node_part(rk, path):
            # acc/D - c_m^2/2 + H^2/2 at the node of the rows ``path``
            key = (rk, tuple(path))
            if key not in nodes:
                step, closed = chain_sums(basis, big, rk, list(map(row_class, path)))
                assert step == closed, key
                cm = path[-1][3] if path else 0
                nodes[key] = Fraction(step, big) - Fraction(cm - h2, 2)
            return nodes[key]

        for listed in enumerate_assignments(basis, s) if g <= 10 else ():
            step, closed = chain_sums(basis, big, (0,) + listed.ranks, listed.chern)
            assert Fraction(closed, big) == c2_lower_bound(basis, listed), (g, r, d, s, listed)
        for cfg in (FilterConfig(), BOTH_FILTERS):
            through, below = least_leaf_totals(basis, s, _drop_mask(cfg))
            rows += len(through)
            for (ranks, path), least in through.items():
                # the interval bound of the row path[m] at the node path[:m]
                m, rk = len(path) - 1, (0,) + ranks
                hm = path[m - 1][0] if m else 0
                a, h = rk[m + 1] - rk[m], path[m][0]
                bound = (
                    node_part(rk[: m + 1], path[:m])
                    - Fraction((h - hm) * (h2 - hm), 2 * a * h2)
                    + (s + 1 - rk[m]) * unit
                )
                assert bound * big <= least, (g, r, d, s, ranks, path)
            for (ranks, path), least in below.items():
                # the bound below the child path[m-1] of the node path[:m-1]
                m, rk = len(path), (0,) + ranks
                h, hp = path[m - 1][0], path[m - 2][0] if m > 1 else 0
                rest, b = s + 1 - rk[m], path[m - 1][2]
                mu = Fraction(h - hp, rk[m] - rk[m - 1])
                bound = (
                    node_part(rk, path)
                    - mu * (h2 - h) / (2 * h2)
                    + max(rest * unit, Fraction(dl * b * b, 2 * rest * h2))
                )
                assert bound * big <= least, (g, r, d, s, ranks, path)
    assert rows > 25_000


class _Stopped(Exception):
    # stops the walk of uncut_least at its first kept leaf <= floor
    pass


def uncut_least(basis, s, drop, floor, counted=None):
    # _least without the cut: its answer read off the uncut walk's kept
    # leaves in order.  With an int floor, the least bound of the leaves up
    # to the first one <= floor; with floor None, the least leaf by (bound,
    # len(ranks), ranks, key) as (scaled_c2, len(ranks), ranks, key, tags);
    # None when it keeps none.  counted() runs once per leaf read
    import bnloci.k3 as k3

    best = None

    def leaf(ranks, key, total, tags):
        nonlocal best
        if counted:
            counted()
        if floor is None:
            ranks = type_ranks(ranks)
            found = (total, len(ranks), ranks, key, tags)
            if best is None or found < best:
                best = found
        elif best is None or total < best:
            best = total
            if total <= floor:
                raise _Stopped

    try:
        k3._walk(basis, s, drop, leaf)
    except _Stopped:
        pass
    return best


def test_cut_floored_entry_equals_the_uncut_one(monkeypatch):
    # the floored entry of every assemble job of g = 7..30 (and the oracle
    # jobs) with filters off, and of g = 7..16 under BOTH_FILTERS, is the
    # same int as that of the walk without the cut
    import bnloci.k3 as k3

    entry = k3._min_bound_cached.__wrapped__
    jobs = [(job, 0) for job in assemble_jobs(range(7, 31))]
    jobs += [((g, r, d, s), 0) for g, r, d, series in ORACLE_JOBS for s in series]
    jobs += [(job, _drop_mask(BOTH_FILTERS)) for job in assemble_jobs(range(7, 17))]
    assert len(assemble_jobs(range(7, 31))) == 6999 and len(jobs) > 7500
    cut = [entry(*job, drop, True) for job, drop in jobs]
    monkeypatch.setattr(k3, "_least", uncut_least)
    assert [entry(*job, drop, True) for job, drop in jobs] == cut
    assert len({m for m in cut if m is not None}) > 900


def test_cut_exact_entry_equals_the_uncut_least_leaf(monkeypatch):
    # the exact entry of every assemble job of g = 7..16 under every drop
    # mask, bound and witness, is the least kept leaf of the walk without
    # the cut by (bound, len(ranks), ranks, key)
    import bnloci.k3 as k3

    entry = k3._min_bound_cached.__wrapped__
    jobs = [(job, drop) for job in assemble_jobs(range(7, 17)) for drop in range(4)]
    assert len(jobs) == 2356
    cut = [entry(*job, drop, False) for job, drop in jobs]
    monkeypatch.setattr(k3, "_least", uncut_least)
    assert [entry(*job, drop, False) for job, drop in jobs] == cut
    assert len({m for m in cut if m is not None}) > 700


def test_floored_search_decides_every_proper_target_degree():
    # _least floored at e D, for every proper target degree e of rank s, not
    # only the Clifford floor 2s: on every assemble job of g = 7..16, with no
    # filter and with both, it is None iff the exact entry is, it is <= e D
    # iff the exact bound is, and above e D it is the exact bound
    from bnloci import is_proper_locus
    from bnloci.k3 import _least, _scale

    walks = stopped = 0
    for g, r, d, s in assemble_jobs(range(7, 17)):
        basis, big = LatticeBasis(g, r, d), _scale(s)
        targets = [e for e in range(2 * s, g) if is_proper_locus(g, s, e)]
        for drop in (0, _drop_mask(BOTH_FILTERS)):
            exact = _least(basis, s, drop, None)
            least = None if exact is None else exact[0]
            for e in targets:
                m, job = _least(basis, s, drop, e * big), (g, r, d, s, drop, e)
                if least is None or least > e * big:
                    assert m == least, job
                else:
                    assert m is not None and m <= e * big, job
                    stopped += 1
            walks += len(targets)
    assert (walks, stopped) == (6060, 2264)


def test_floored_stop_equals_the_uncut_one_at_every_proper_target_degree():
    # _least floored at e D is the same int as the uncut walk read in order
    # up to its first kept leaf <= e D, where it stops as well as where it
    # does not: every proper target degree e of rank s on every assemble
    # job of g = 7..16, with no filter and with both ("Why the answer is
    # unchanged" for every floor, not only the Clifford floor 2s)
    from bnloci import is_proper_locus
    from bnloci.k3 import _least, _scale

    walks = 0
    for g, r, d, s in assemble_jobs(range(7, 17)):
        basis, big = LatticeBasis(g, r, d), _scale(s)
        for drop in (0, _drop_mask(BOTH_FILTERS)):
            for e in range(2 * s, g):
                if is_proper_locus(g, s, e):
                    walks += 1
                    want = uncut_least(basis, s, drop, e * big)
                    assert _least(basis, s, drop, e * big) == want, (g, r, d, s, drop, e)
    assert walks == 6060


def test_k3_expected_on_the_unknown_pairs_of_assemble_27():
    # cold k3_expected on the unknown pairs of fact-free assemble(27) whose
    # left lattice exists: 184 of the 286 are expected, and each answer and
    # witness is the one that the uncut walk's least leaf gives.  The jobs
    # reach Lambda^7_(27,25) at s = 8, the largest box that assemble meets
    from bnloci import delta
    from bnloci.k3 import _scale
    from bnloci.poset import assemble

    clear_engine_caches()
    pairs = [(x, y) for x, y in assemble(27).unknown_pairs() if delta(27, x.r, x.d) < 0]
    got = [k3_expected(27, x.r, x.d, y.r, y.d) for x, y in pairs]
    assert len(pairs) == 286 and sum(e is not None for e in got) == 184
    drop, least = _drop_mask(BOTH_FILTERS), {}
    for (x, y), expected in zip(pairs, got):
        basis, job = LatticeBasis(27, x.r, x.d), (x.r, x.d, y.r)
        if job not in least:
            least[job] = uncut_least(basis, y.r, drop, None)
        m, big = least[job], _scale(y.r)
        if m is None or m[0] > y.d * big:
            assert expected is None, (x, y)
            continue
        heads = key_rows(basis, row_class)(m[3])
        witness = Assignment(m[2], heads + (H,), Fraction(m[0], big), _TAG_NAMES[m[4]])
        assert expected == K3Expectation(27, x.r, x.d, y.r, y.d, witness), (x, y)
    assert (7, 25, 8) in least


def step_checks(monkeypatch, work):
    # the _check_step calls that work() makes
    import bnloci.k3 as k3

    checked = 0
    real = k3._check_step

    def spy(*args):
        nonlocal checked
        checked += 1
        return real(*args)

    monkeypatch.setattr(k3, "_check_step", spy)
    work()
    monkeypatch.setattr(k3, "_check_step", real)
    return checked


def cold_assemble_rows(monkeypatch, genera):
    # the _check_step calls of a cold assemble(g) over the genera
    from bnloci.poset import assemble

    def work():
        clear_engine_caches()
        for g in genera:
            assemble(g)

    return step_checks(monkeypatch, work)


def test_listing_checks_each_node_state_row_once(monkeypatch):
    # the uncut walk plans each node state's rank loop once and replays it,
    # so the listing jobs check 10,412 (state, row) pairs where a check per
    # leaf made 35,688; and every emitted leaf's last step is among the
    # checked calls, rebuilt from its ranks and its key decoded by division
    # (key_rows), not by the walk's own state
    import bnloci.k3 as k3

    checked = []
    real = k3._check_step

    def spy(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(k3, "_check_step", spy)
    emitted = []
    for g, r, d, s in K3_LIST_JOBS:
        basis = LatticeBasis(g, r, d)
        decode, htot = key_rows(basis), basis.h_square
        first, leaves = len(checked), []
        k3._walk(basis, s, 0, lambda ranks, key, total, tags: leaves.append((ranks, key)))
        calls = set(checked[first:])
        leaves = [(type_ranks(ranks), key) for ranks, key in leaves]
        for ranks, key in leaves:
            path = decode(key)
            rk, hd = (0, *ranks[:-1]), (0, *[row[0] for row in path])
            m = len(path) - 1  # the parent P_m of the last step
            dr, hpp = (rk[m] - rk[m - 1], hd[m - 1]) if m else (0, 0)
            assert (htot, s + 1, rk[m], hd[m], dr, hpp, rk[-1], path[-1]) in calls, (g, r, d, s)
        emitted += leaves
    assert len(checked) == 10412 and len(emitted) == 35688


def cold_assemble_uncut_leaves(monkeypatch, genera):
    # the leaves that the walk without the cut, run by uncut_least in
    # place of _least, emits in a cold assemble(g) over the genera; each is
    # checked, and the per-type search checked exactly these
    import bnloci.k3 as k3
    from bnloci.poset import assemble

    emitted = 0
    real = k3._least

    def count():
        nonlocal emitted
        emitted += 1

    def least(basis, s, drop, floor):
        return uncut_least(basis, s, drop, floor, count)

    monkeypatch.setattr(k3, "_least", least)
    clear_engine_caches()
    for g in genera:
        assemble(g)
    monkeypatch.setattr(k3, "_least", real)
    return emitted


def test_cut_checks_at_most_half_the_rows_of_a_cold_assemble(monkeypatch):
    # the cut must keep skipping at least half of the rows: a cold
    # assemble(30) checks 6,753 rows with it, where the walk without it
    # emits 46,077 leaves, and cold assemble(13..17) 3,539 and 7,895.  The
    # floored walk reaches the leaves that tie its least bound so far
    genera = ([30], range(13, 18))
    cut = [cold_assemble_rows(monkeypatch, gs) for gs in genera]
    uncut = [cold_assemble_uncut_leaves(monkeypatch, gs) for gs in genera]
    clear_engine_caches()
    assert cut == [6753, 3539] and uncut == [46077, 7895]
    assert all(2 * rows <= full for rows, full in zip(cut, uncut))


def test_cut_checks_at_most_half_the_rows_of_the_exact_walks(monkeypatch):
    # the same for the exact walk: over the 1,178 exact entries of the
    # assemble jobs of g = 7..16, with no filter and with both, it checks
    # 26,615 rows with the cut, where the walk without it, which checks each
    # (node state, row) once, checks 83,286
    import bnloci.k3 as k3

    entry = k3._min_bound_cached.__wrapped__
    drops = (0, _drop_mask(BOTH_FILTERS))
    jobs = [(job, drop) for job in assemble_jobs(range(7, 17)) for drop in drops]
    cut = step_checks(monkeypatch, lambda: [entry(*job, drop, False) for job, drop in jobs])
    uncut = step_checks(
        monkeypatch,
        lambda: [
            uncut_least(LatticeBasis(g, r, d), s, drop, None)
            for (g, r, d, s), drop in jobs
        ],
    )
    assert len(jobs) == 1178 and cut == 26615 and uncut == 83286
    assert 2 * cut <= uncut


def test_minimum_walks_leave_nothing_for_the_cyclic_gc():
    # a minimum walk holds no reference cycle, so all it builds is freed by
    # reference counting when it returns: with the cyclic GC off, cold
    # floored walks (assemble(13..17) and assemble(30)) and exact ones
    # (k3_expected on the proper targets of Lambda^7_(27,25) at s = 8)
    # leave nothing for gc.collect() to find
    import gc

    from bnloci import is_proper_locus
    from bnloci.poset import assemble

    clear_engine_caches()
    gc.collect()
    gc.disable()
    try:
        for g in (13, 14, 15, 16, 17, 30):
            assemble(g)
        for e in range(1, 27):
            if is_proper_locus(27, 8, e):
                k3_expected(27, 7, 25, 8, e)
        assert gc.collect() == 0
    finally:
        gc.enable()
        clear_engine_caches()


# ------------------------------------------------------------ re-check and caps


def test_recheck_rejects_a_bad_leaf():
    from bnloci.k3 import _candidate_rows, _check_step

    basis = LatticeBasis(9, 2, 6)
    rows = _candidate_rows(basis)[0]
    htot = basis.h_square
    # a child of the root, ranks (0, 1, 2): the lowest H-degree first gives
    # mu(E_1) < mu(E), so the pair (P_0, P_1, P_top) fails
    assert _check_step(htot, 2, 0, 0, 0, 0, 1, rows[0]) == "GT"
    assert _check_step(htot, 2, 0, 0, 0, 0, 1, rows[-1]) is None
    # the same slopes with (H-c)^2 < 0 fail the quotient check
    bad = (rows[-1][0], 0, 0, 0, 0, -1)
    assert _check_step(htot, 2, 0, 0, 0, 0, 1, bad) == "a quotient check"
    # after P_1 = (1, h), P_2 = (2, 2h + 1) bends up: it fails the pair
    # (P_0, P_1, P_2), the one the root's children (dr = 0) never test, and
    # passes the pair (P_1, P_2, P_top) and the quotient checks for
    # P_top = (3, 3h + 1)
    h = rows[-1][0]
    assert h > 0
    up = (2 * h + 1, 0, 0, 0, 0, 0)
    assert _check_step(3 * h + 1, 3, 1, h, 1, 0, 2, up) == "GT"
    assert _check_step(3 * h + 1, 3, 1, h, 0, 0, 2, up) is None


@pytest.mark.parametrize(
    "call",
    ["enumerate_assignments(b, 2)", "min_series_degree(b, 2)", "k3_certified_below(9, 2, 6, 2)"],
)
def test_recheck_fires_under_python_O(call):
    # drop the lower interval cut, and with it the interval bound of the
    # floored walk's cut, so the DFS emits inadmissible leaves; the leaf
    # check must stop it even with asserts stripped
    out = python_O_call("k.bisect_left = lambda a, x, *rest: 0", call)
    assert out.startswith("raised") and "violates" in out


@pytest.mark.parametrize(
    "call",
    [
        "enumerate_assignments(b, 3)",
        "min_series_degree(k.LatticeBasis(11, 2, 7), 4)",
        "k3_certified_below(11, 2, 7, 4)",
    ],
)
def test_step_check_fires_on_the_upper_pair_under_python_O(call):
    # drop the upper interval cut: a child P of a node P_m past the root then
    # bends up, and the pair (P_{m-1}, P_m, P) of the step check stops it.
    # On the walks with the cut, exact and floored, the root's leaves have
    # set the cut by then, so a walk that skips subtrees still checks every
    # row that it visits; on Lambda^2_(9,6) at s = 3 the exact cut skips the
    # bent-up child, so both run on Lambda^2_(11,7) at s = 4
    out = python_O_call("k.bisect_right = lambda a, x, *rest: len(a)", call)
    assert out.startswith("raised") and "violates GT" in out
    leaf = re.fullmatch(r"raised DFS leaf (\(.*?\)) over ranks (\(.*?\)) violates GT\n", out)
    hd, rk = map(ast.literal_eval, leaf.groups())
    assert len(rk) >= 4  # P_0, P_m, P, P_top: the child of a node past the root

    def rises(i):  # slope(P_i, P_{i+1}) > slope(P_{i-1}, P_i)
        return (hd[i + 1] - hd[i]) * (rk[i] - rk[i - 1]) > (hd[i] - hd[i - 1]) * (rk[i + 1] - rk[i])

    assert rises(len(rk) - 3) and not rises(len(rk) - 2)


def python_O_call(patch, call):
    code = (
        "import bnloci.k3 as k\n"
        f"{patch}\n"
        "b = k.LatticeBasis(9, 2, 6)\n"
        "try:\n"
        f"    k.{call}\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout


@pytest.mark.parametrize("workers", [0, -1, MAX_WORKERS + 1, 10**9, 1.5, "2", True, None])
def test_workers_out_of_range_is_rejected_before_any_work(workers, monkeypatch):
    import bnloci.k3 as k3

    def no_walk(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(k3, "_walk", no_walk)
    with pytest.raises(ValueError, match="workers"):
        enumerate_assignments(LatticeBasis(9, 2, 6), 1, workers=workers)


def test_workers_within_cap_give_the_serial_result():
    basis = LatticeBasis(11, 2, 7)
    serial = enumerate_assignments(basis, 3)
    assert enumerate_assignments(basis, 3, workers=MAX_WORKERS) == serial
