import random

import pytest

from bnloci import (
    H,
    L,
    LatticeBasis,
    LatticeClass,
    delta,
    pair,
)
from bnloci.lattice import ZERO, floor_sqrt_ratio
from bnloci.oracles import find_classes_with_square, self_int


def gram_pair(basis, u, v):
    # independent oracle: expand over monomials with the Gram matrix
    # ((H^2, H.L), (L.H, L^2)) = ((2g-2, d), (d, 2r-2))
    gram = ((2 * basis.g - 2, basis.d), (basis.d, 2 * basis.r - 2))
    vec_u = (u.a, u.b)
    vec_v = (v.a, v.b)
    return sum(vec_u[i] * gram[i][j] * vec_v[j] for i in range(2) for j in range(2))


def test_pair_examples():
    assert pair(LatticeBasis(9, 2, 6), H, H - L) == 16 - 6
    assert pair(LatticeBasis(10, 2, 7), H - L, L) == 7 - 2
    for g, r, d in [(5, 2, 3), (9, 2, 6), (100, 9, 57)]:
        basis = LatticeBasis(g, r, d)
        assert pair(basis, H, H) == 2 * g - 2


def test_self_int_examples():
    assert self_int(LatticeBasis(100, 9, 57), H - 3 * L) == 0
    assert self_int(LatticeBasis(12, 2, 7), H - 3 * L) == -2
    assert self_int(LatticeBasis(7, 2, 5), LatticeClass(0, 0)) == 0


def test_delta_examples():
    assert delta(7, 2, 6) == -12
    assert delta(100, 2, 19) == 35
    for g, d in [(5, 1), (11, 4), (40, 9)]:
        assert delta(g, 1, d) == -d * d


def test_pair_is_symmetric_and_bilinear_random():
    rng = random.Random(20240517)
    for _ in range(10_000):
        basis = LatticeBasis(rng.randint(2, 40), rng.randint(0, 6), rng.randint(0, 30))
        u = LatticeClass(rng.randint(-20, 20), rng.randint(-20, 20))
        v = LatticeClass(rng.randint(-20, 20), rng.randint(-20, 20))
        w = LatticeClass(rng.randint(-20, 20), rng.randint(-20, 20))
        assert pair(basis, u, v) == pair(basis, v, u) == gram_pair(basis, u, v)
        assert pair(basis, u + v, w) == pair(basis, u, w) + pair(basis, v, w)


def test_no_overflow_at_large_parameters():
    basis = LatticeBasis(10**6, 2, 10**6)
    big = LatticeClass(10**6, -(10**6))
    assert self_int(basis, big) == (2 * 10**6 - 2) * 10**12 - 2 * 10**18 + 2 * 10**12


def test_find_classes_square_zero_11_7():
    basis = LatticeBasis(11, 2, 7)
    assert find_classes_with_square(basis, -2) == []
    small = find_classes_with_square(basis, 0, 2, 5)
    assert LatticeClass(1, -2) in small and LatticeClass(-1, 5) in small


def test_find_classes_minus_two_12_7():
    basis = LatticeBasis(12, 2, 7)
    got = set(c.key() for c in find_classes_with_square(basis, -2))
    base = {(1, -3), (-1, 4), (2, -5), (-2, 9)}
    want = base | {(-a, -b) for (a, b) in base}
    assert got == want


def test_find_classes_negation_closed_and_deterministic():
    for g, r, d in [(9, 2, 6), (11, 2, 7), (10, 3, 9), (14, 3, 13)]:
        basis = LatticeBasis(g, r, d)
        for square in (-2, 0, 2):
            out = find_classes_with_square(basis, square, 6, 6)
            assert out == find_classes_with_square(basis, square, 6, 6)
            assert out == sorted(out, key=lambda c: c.key())
            assert {(-c.a, -c.b) for c in out} == {c.key() for c in out}


def test_hodge_index_sanity_small_boxes():
    # every diagram lattice with Delta < 0 shows both signs in a 5x5 box
    bases = [
        (9, 2, 6), (9, 2, 7), (10, 2, 7), (10, 3, 9), (11, 2, 7), (11, 3, 10),
        (12, 2, 7), (12, 2, 8), (12, 2, 9), (12, 3, 10), (12, 3, 11), (14, 3, 13),
    ]
    for g, r, d in bases:
        basis = LatticeBasis(g, r, d)
        assert basis.discriminant < 0
        squares = [
            self_int(basis, LatticeClass(a, b))
            for a in range(-5, 6)
            for b in range(-5, 6)
            if (a, b) != (0, 0)
        ]
        assert any(s > 0 for s in squares) and any(s < 0 for s in squares)


def test_floor_sqrt_ratio_exact():
    for num in range(0, 500):
        for den in (1, 2, 3, 7, 64):
            m = floor_sqrt_ratio(num, den)
            assert m * m * den <= num < (m + 1) * (m + 1) * den


@pytest.mark.parametrize("call", [
    lambda: find_classes_with_square(LatticeBasis(9, 2, 6), 0, 0, 3),
    lambda: floor_sqrt_ratio(-1, 2),
], ids=["find_classes_with_square", "floor_sqrt_ratio"])
def test_input_checks_raise(call):
    with pytest.raises(ValueError):
        call()


def test_class_str_roundtrip_conventions():
    assert str(ZERO) == "0"
    assert str(H - 3 * L) == "H-3L"
    assert str(-H + 4 * L) == "-H+4L"
    assert str(2 * L) == "2L"
    assert (H - 3 * L).xy == (1, 3)
    assert (2 * L).xy == (0, -2)
