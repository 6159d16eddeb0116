"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the lines).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from bnloci import (
    Assignment,
    BNLocus,
    ContradictionError,
    Fact,
    H,
    L,
    LatticeBasis,
    LatticeClass,
    RelKind,
    Relation,
    assemble,
    closure,
    closure_relations,
    enumerate_assignments,
    enumerate_loci,
    kappa,
    kappa_bruteforce,
    min_series_degree,
    pair,
    rho,
)
from bnloci.cli import main
from bnloci.oracles import (
    c2_lower_bound,
    castelnuovo_bound,
    castelnuovo_severi,
    find_classes_with_square,
    four_secant_count,
    gt_check,
    secant_expected_dim,
)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_kappa_closed_form_vs_bruteforce():
    t0 = time.monotonic()
    checked = 0
    for g in range(4, 61):
        for r in range(1, 11):
            dmin = 2 if r == 1 else 2 * r
            for d in range(dmin, g):
                if rho(g, r, d) >= 0:
                    continue
                assert kappa(g, r, d) == kappa_bruteforce(g, r, d), (g, r, d)
                checked += 1
    for args, want in [
        ((6, 2, 5), 2),
        ((9, 2, 7), 3),
        ((12, 3, 9), 3),
        ((12, 4, 11), 2),
        ((100, 2, 52), 26),
        ((100, 3, 77), 26),
    ]:
        assert kappa(*args) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"kappa sweep took {elapsed:.1f}s"
    report(1, f"kappa == brute force on {checked} loci in {elapsed:.2f}s")


def _bounds(g, r, d, s):
    return sorted(a.c2_bound for a in enumerate_assignments(LatticeBasis(g, r, d), s))


def test_criterion_2_k3_bound_reproduction():
    cases = []

    def timed(label, fn, want):
        t0 = time.monotonic()
        got = fn()
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"{label} took {elapsed:.2f}s"
        assert got == want, (label, got, want)
        cases.append(label)

    F = Fraction
    timed("L^2_(9,6) s=1", lambda: _bounds(9, 2, 6, 1), [4, 4, 8, 8])
    timed("L^2_(9,7) s=2", lambda: _bounds(9, 2, 7, 2), [7, F(15, 2)])
    timed(
        "L^2_(10,7) s=1 min",
        lambda: min_series_degree(LatticeBasis(10, 2, 7), 1),
        5,
    )
    timed("L^2_(10,7) s=2", lambda: _bounds(10, 2, 7, 2), [7, 8])
    timed(
        "L^3_(10,9) s=2",
        lambda: _bounds(10, 3, 9, 2),
        [F(15, 2), F(15, 2), F(21, 2), F(21, 2)],
    )
    timed(
        "L^3_(10,9) s=3 rank-2 types",
        lambda: sorted(
            a.c2_bound
            for a in enumerate_assignments(LatticeBasis(10, 3, 9), 3)
            if a.ranks == (2, 4)
        ),
        [10, 10, 12, 12],
    )
    timed(
        "L^3_(10,9) s=3 type 1<4 cell 2H-3L",
        lambda: [
            a.c2_bound
            for a in enumerate_assignments(LatticeBasis(10, 3, 9), 3)
            if a.ranks == (1, 4) and a.chern[0] == 2 * H - 3 * L
        ],
        [F(35, 3)],  # printed elsewhere as 11+1/3; the recursion gives 35/3
    )

    def sel_100_9_57():
        out = enumerate_assignments(LatticeBasis(100, 9, 57), 4)
        cells = {
            str(a.chern[0]): a.c2_bound for a in out if a.ranks == (1, 5)
        }
        bounds = sorted({a.c2_bound for a in out})
        return (cells["H-L"], cells["3L"], bounds[0], bounds[1])

    timed(
        "L^9_(100,57) s=4 type 1<5",
        sel_100_9_57,
        (F(203, 4), F(123, 4), F(123, 4), F(203, 4)),
    )
    timed(
        "L^2_(100,51) s=3 type 2<4 (H-L)",
        lambda: [
            a.c2_bound
            for a in enumerate_assignments(LatticeBasis(100, 2, 51), 3)
            if a.ranks == (2, 4) and a.chern[0] == H - L
        ],
        [77],
    )
    timed(
        "L^10_(100,60) s=1 min",
        lambda: min_series_degree(LatticeBasis(100, 10, 60), 1),
        18,
    )
    timed(
        "L^10_(100,61) s=1 min",
        lambda: min_series_degree(LatticeBasis(100, 10, 61), 1),
        43,
    )
    report(2, f"{len(cases)} pinned K3 bounds reproduced exactly")


def test_criterion_3_figure_reproduction(capsys):
    t0 = time.monotonic()
    code = main(["verify", "7..12"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    for g in range(7, 13):
        assert f"genus {g}: PASS" in out
    assert elapsed < 30.0, f"verify took {elapsed:.1f}s"
    with capsys.disabled():
        report(3, f"bn verify 7..12 passed in {elapsed:.2f}s")


def test_criterion_4_lattice_inventories():
    b11 = LatticeBasis(11, 2, 7)
    assert find_classes_with_square(b11, -2) == []
    zeros = {c.key() for c in find_classes_with_square(b11, 0)}
    assert (1, -2) in zeros and (-1, 5) in zeros
    b12 = LatticeBasis(12, 2, 7)
    got = {c.key() for c in find_classes_with_square(b12, -2)}
    base = {(1, -3), (-1, 4), (2, -5), (-2, 9)}
    assert got == base | {(-a, -b) for (a, b) in base}
    report(4, "(-2)- and (0)-class inventories match on L^2_(11,7), L^2_(12,7)")


def test_criterion_5_classical_rules():
    assert four_secant_count(11, 10) == 20
    assert secant_expected_dim(5, 13, 3, 10) == -1
    assert castelnuovo_bound(3, 9).bound == 12
    assert castelnuovo_severi(2, 1, 3, 0) == 4
    report(5, "four classical pinned values reproduced")


def test_criterion_6_property_suites():
    rng = random.Random(1789)

    # gt_check against the all-triples oracle on 10^4 random assignments
    bases = [
        LatticeBasis(9, 2, 6),
        LatticeBasis(10, 3, 9),
        LatticeBasis(11, 2, 7),
        LatticeBasis(100, 9, 57),
    ]
    types = [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (2, 4)]

    def oracle(basis, a):
        rk = (0,) + a.ranks
        hdeg = [0] + [pair(basis, H, c) for c in a.chern]
        n = len(a.ranks)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    mu_ij = Fraction(hdeg[j] - hdeg[i], rk[j] - rk[i])
                    mu_ik = Fraction(hdeg[k] - hdeg[i], rk[k] - rk[i])
                    mu_jk = Fraction(hdeg[k] - hdeg[j], rk[k] - rk[j])
                    if not (mu_ij >= mu_ik >= mu_jk):
                        return False
        return True

    agreements = 0
    for _ in range(10_000):
        basis = rng.choice(bases)
        ranks = rng.choice(types)
        chern = tuple(
            LatticeClass(rng.randint(-3, 3), rng.randint(-5, 5))
            for _ in range(len(ranks) - 1)
        ) + (H,)
        a = Assignment(ranks, chern, None)
        a = a._replace(c2_bound=c2_lower_bound(basis, a))
        assert gt_check(basis, a) == oracle(basis, a)
        agreements += 1

    # closure idempotence and monotonicity on randomized small matrices
    g = 9
    loci = enumerate_loci(g)
    pairs = [(a, b) for a in loci for b in loci if a != b]
    for trial in range(300):
        rels = []
        for i in range(rng.randint(0, 8)):
            a, b = rng.choice(pairs)
            kind = rng.choice([RelKind.EQ, RelKind.LE, RelKind.NLE])
            rels.append(Relation(a, b, kind, f"s{trial}.{i}"))
        try:
            m = closure_relations(g, loci, rels)
        except ContradictionError:
            continue
        m2 = closure(m)
        for x in loci:
            for y in loci:
                if x != y:
                    assert m.relation(x, y)[0] == m2.relation(x, y)[0]
        for r in rels:
            kind = m.relation(r.lhs, r.rhs)[0]
            if r.kind is RelKind.EQ:
                assert kind == "eq"
            elif r.kind is RelKind.LE:
                assert kind in ("eq", "subset")
            else:
                assert kind == "not_subset"

    # bilinearity of the pairing on 10^4 random classes
    for _ in range(10_000):
        basis = LatticeBasis(rng.randint(2, 50), rng.randint(0, 8), rng.randint(0, 40))
        u = LatticeClass(rng.randint(-30, 30), rng.randint(-30, 30))
        v = LatticeClass(rng.randint(-30, 30), rng.randint(-30, 30))
        w = LatticeClass(rng.randint(-30, 30), rng.randint(-30, 30))
        assert pair(basis, u + v, w) == pair(basis, u, w) + pair(basis, v, w)

    # determinism of enumeration under 2-way and 8-way partitioning
    def blob(workers):
        out = enumerate_assignments(LatticeBasis(100, 9, 57), 4, workers=workers)
        return json.dumps(
            [[a.type_str, [c.key() for c in a.chern], str(a.c2_bound)] for a in out]
        ).encode()

    assert blob(1) == blob(2) == blob(8)
    report(6, f"gt oracle x{agreements}, closure properties, bilinearity, determinism")


def test_criterion_7_contradiction_names_kappa():
    from bnloci.cli import packaged_facts

    facts = list(packaged_facts(9))
    facts.append(
        Fact(BNLocus(9, 1, 4), BNLocus(9, 2, 6), RelKind.LE, "deliberately false")
    )
    with pytest.raises(ContradictionError) as err:
        assemble(9, facts)
    assert "kappa" in str(err.value)
    report(7, "injected (9,1,4) <= (9,2,6) aborts naming the kappa rule")
