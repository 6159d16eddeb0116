import pytest
from hypothesis import given, strategies as st

from bnloci import (
    BNLocus,
    RelKind,
    clifford_index,
    enumerate_loci,
    is_proper_locus,
    kappa,
    kappa_bruteforce,
    normalize,
    rho,
    rho_k,
    serre_dual,
)
from bnloci.oracles import clifford_collapse, trivial_relations


def test_rho_examples():
    assert rho(9, 2, 7) == -3
    assert rho(9, 1, 4) == -3
    assert rho(4, 1, 3) == 0
    assert rho(12, 4, 11) == -13


def test_clifford_index_examples():
    assert clifford_index(BNLocus(7, 2, 5)) == 1
    assert clifford_index(BNLocus(9, 3, 6)) == 0
    assert clifford_index(BNLocus(11, 3, 10)) == 4


def test_serre_dual_examples():
    assert serre_dual(BNLocus(11, 2, 7)) == BNLocus(11, 5, 13)
    x = BNLocus(9, 2, 8)  # d = g-1 and r = g-d+r-1: self-dual
    assert serre_dual(x) == x
    with pytest.raises(ValueError):
        serre_dual(BNLocus(5, 1, 5))  # dual r would be 0


@given(
    g=st.integers(5, 40),
    r=st.integers(1, 6),
    d=st.integers(2, 60),
)
def test_serre_dual_is_involutive(g, r, d):
    try:
        x = BNLocus(g, r, d)
        y = serre_dual(x)
    except ValueError:
        return
    assert serre_dual(y) == x


def test_normalize_examples():
    assert normalize(BNLocus(11, 5, 13)) == BNLocus(11, 2, 7)
    assert normalize(BNLocus(9, 2, 7)) == BNLocus(9, 2, 7)
    assert normalize(BNLocus(10, 4, 12)) == BNLocus(10, 1, 6)


@given(g=st.integers(4, 40), r=st.integers(1, 6), d=st.integers(2, 60))
def test_normalize_idempotent(g, r, d):
    try:
        x = normalize(BNLocus(g, r, d))
    except ValueError:
        return
    assert x.d <= g - 1
    assert normalize(x) == x


def test_enumerate_loci_small_genera():
    assert [x.key for x in enumerate_loci(3)] == [(1, 2)]
    assert [x.key for x in enumerate_loci(6)] == [(1, 2), (1, 3), (2, 4), (2, 5)]
    assert [x.key for x in enumerate_loci(7)] == [
        (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6), (3, 6),
    ]


def test_enumerate_loci_are_proper_and_normalized():
    for g in range(3, 26):
        for x in enumerate_loci(g):
            assert rho(g, x.r, x.d) < 0
            assert 2 <= x.d <= g - 1
            assert x.r == 1 or x.d >= 2 * x.r


def test_is_proper_locus_is_membership_in_enumerate_loci():
    # the closed form against the listing, over a box past every edge
    for g in range(3, 41):
        listed = {x.key for x in enumerate_loci(g)}
        box = {(r, d) for r in range(-3, g + 2) for d in range(-3, 2 * g + 2)}
        assert listed < box
        assert {key for key in box if is_proper_locus(g, *key)} == listed, g
    assert not any(is_proper_locus(g, r, d) for g in range(-2, 3) for r in range(-3, 5) for d in range(-3, 5))


def test_rho_k_examples():
    assert rho_k(6, 2, 2, 5) >= 0
    assert rho_k(6, 3, 2, 5) < 0
    assert rho_k(9, 3, 2, 6) >= 0
    # l = 0 maximizes once the linear coefficient goes nonpositive
    for g, r, d in [(10, 2, 7), (12, 3, 9)]:
        k = g - d + 2 * r + 1
        assert rho_k(g, k, r, d) == rho(g, r, d)
        assert rho_k(g, k + 3, r, d) == rho(g, r, d)


def rho_k_scan(g, k, r, d):
    """Oracle: rho_k with its correction max(c*l - l^2) scanned over every
    0 <= l <= r', as the definition reads."""
    rp = max(min(r, g - d + r - 1), 0)
    coeff = g - k - d + 2 * r + 1
    return rho(g, r, d) + max(coeff * l - l * l for l in range(rp + 1))


def test_rho_k_vertex_matches_the_scan_on_a_grid():
    # on this grid r' <= 44 and -86 <= coeff <= 127: scan each (r', coeff)
    # once, the correction at coeff being scans[r'][coeff + 100]
    scans = [[max(c * l - l * l for l in range(rp + 1)) for c in range(-100, 140)] for rp in range(45)]
    for g in range(3, 45):
        for r in range(1, g):
            for d in range(2, 2 * g):
                base, row = rho(g, r, d), scans[max(min(r, g - d + r - 1), 0)]
                got = [rho_k(g, k, r, d) for k in range(2, g + 3)]
                want = [base + row[g - k - d + 2 * r + 101] for k in range(2, g + 3)]
                assert got == want, (g, r, d)


@given(
    g=st.integers(3, 400),
    k=st.integers(-5, 410),
    r=st.integers(1, 400),
    d=st.integers(-5, 800),
)
def test_rho_k_vertex_matches_the_scan(g, k, r, d):
    assert rho_k(g, k, r, d) == rho_k_scan(g, k, r, d)


def test_kappa_bruteforce_is_linear_in_g():
    # one O(1) rho_k per k: a genus in the hundred thousands is instant
    assert kappa_bruteforce(200001, 5000, 100000) == kappa(200001, 5000, 100000)


def test_rho_k_nonincreasing_in_k():
    for g, r, d in [(9, 2, 7), (12, 4, 11), (16, 3, 12), (20, 2, 13)]:
        vals = [rho_k(g, k, r, d) for k in range(2, (g + 3) // 2 + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_kappa_pinned_values():
    assert kappa(6, 2, 5) == 2
    assert kappa(9, 2, 7) == 3
    assert kappa(12, 3, 9) == 3
    assert kappa(12, 4, 11) == 2
    assert kappa(100, 2, 52) == 26
    assert kappa(100, 3, 77) == 26


def test_kappa_bruteforce_examples():
    assert kappa_bruteforce(6, 2, 5) == 2
    for g in range(5, 30):
        for d in range(2, (g + 1) // 2 + 1):
            if rho(g, 1, d) < 0:
                assert kappa_bruteforce(g, 1, d) == d == kappa(g, 1, d)


def test_kappa_errors_outside_domain():
    with pytest.raises(ValueError):
        kappa(10, 1, 6)  # rho = 0
    with pytest.raises(ValueError):
        kappa(30, 4, 6)  # d < 2r: empty locus
    with pytest.raises(ValueError):
        kappa(11, 2, 13)  # not normalized
    # r = 0, and d < 2r at r = 1, are outside the domain for both functions
    for fn in (kappa, kappa_bruteforce):
        for g, r, d in ((9, 0, -1), (9, 1, 1)):
            with pytest.raises(ValueError, match="proper loci"):
                fn(g, r, d)


def test_kappa_is_defined_exactly_on_the_proper_loci():
    # a box past every edge of the domain: both functions agree on the
    # proper loci and raise ValueError, never another exception, elsewhere
    for g in range(-2, 21):
        for r in range(-3, 13):
            for d in range(-3, 2 * g + 4):
                if is_proper_locus(g, r, d):
                    assert kappa(g, r, d) == kappa_bruteforce(g, r, d), (g, r, d)
                    continue
                for fn in (kappa, kappa_bruteforce):
                    with pytest.raises(ValueError):
                        fn(g, r, d)


def test_kappa_upper_bound():
    for g in range(4, 40):
        for x in enumerate_loci(g):
            assert 2 <= kappa(g, x.r, x.d) <= (g + 3) // 2


def test_trivial_relations_examples():
    rels = {(r.lhs.key, r.rhs.key) for r in trivial_relations(9)}
    assert ((2, 6), (2, 7)) in rels
    assert ((2, 6), (1, 5)) in rels
    for r in trivial_relations(9):
        assert r.kind is RelKind.LE and r.provenance == "trivial"
        assert r.rhs.r <= r.lhs.r


def test_trivial_relations_reference_enumerated_loci_only():
    for g in range(3, 16):
        lset = set(enumerate_loci(g))
        for rel in trivial_relations(g) + clifford_collapse(g):
            assert rel.lhs in lset and rel.rhs in lset
    # (7,2,6) has no valid targets: (2,7) and (1,5) are not proper loci
    assert not [r for r in trivial_relations(7) if r.lhs.key == (2, 6)]


def test_clifford_collapse_examples():
    g8 = {(r.lhs.key, r.rhs.key) for r in clifford_collapse(8)}
    assert ((2, 5), (1, 2)) in g8 and ((3, 7), (1, 2)) in g8
    g10 = {(r.lhs.key, r.rhs.key) for r in clifford_collapse(10)}
    assert ((4, 9), (1, 2)) in g10
    # below genus 7 only the d = 2r collapse applies
    g6 = {(r.lhs.key, r.rhs.key) for r in clifford_collapse(6)}
    assert g6 == {((2, 4), (1, 2))}
    for rel in clifford_collapse(10):
        assert rel.kind is RelKind.EQ and rel.provenance == "clifford"
