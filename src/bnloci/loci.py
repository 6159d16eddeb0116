"""Brill-Noether loci as (g, r, d) data and their numerical invariants.

The locus M^r_{g,d} is the closure in the moduli of genus-g curves of the
curves carrying a g^r_d.  We only ever track loci that are proper
subvarieties (rho < 0), normalized by Serre duality so that d <= g-1.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import isqrt


class RelKind(str, enum.Enum):
    EQ = "eq"
    LE = "subset"
    NLE = "not_subset"

    def __str__(self) -> str:
        return self.value


class BNLocus(namedtuple("BNLocus", "g r d")):
    """The Brill-Noether locus M^r_{g,d}."""

    __slots__ = ()

    def __new__(cls, g: int, r: int, d: int):
        if g < 3 or r < 1 or d < 2:
            raise ValueError(f"invalid locus (g={g}, r={r}, d={d})")
        return tuple.__new__(cls, (g, r, d))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: keep it validating
        return cls(*iterable)

    @property
    def key(self) -> tuple[int, int]:
        return (self.r, self.d)

    def __str__(self) -> str:
        return f"M^{self.r}_{{{self.g},{self.d}}}"


class Relation(namedtuple("Relation", "lhs rhs kind provenance")):
    """A typed claim between two loci of the same genus, with provenance.
    ``kind`` may be given by its value (``"not_subset"``); an unknown kind
    raises ValueError."""

    __slots__ = ()

    def __new__(cls, lhs: BNLocus, rhs: BNLocus, kind: RelKind, provenance: str):
        if lhs.g != rhs.g:
            raise ValueError("relations must stay within one genus")
        if type(kind) is not RelKind:
            kind = RelKind(kind)
        return tuple.__new__(cls, (lhs, rhs, kind, provenance))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __str__(self) -> str:
        sym = {RelKind.EQ: "=", RelKind.LE: "<=", RelKind.NLE: "!<="}[self.kind]
        return f"{self.lhs} {sym} {self.rhs}  [{self.provenance}]"


def rho(g: int, r: int, d: int) -> int:
    """The Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def clifford_index(locus: BNLocus) -> int:
    """Clifford index d - 2r of the defining series."""
    return locus.d - 2 * locus.r


def serre_dual(locus: BNLocus) -> BNLocus:
    """M^r_{g,d} = M^{g-d+r-1}_{g,2g-2-d}; an involution."""
    g = locus.g
    r2 = g - locus.d + locus.r - 1
    d2 = 2 * g - 2 - locus.d
    if r2 < 1 or d2 < 2:
        raise ValueError(f"Serre dual of {locus} is not a valid locus")
    return BNLocus(g, r2, d2)


def normalize(locus: BNLocus) -> BNLocus:
    """Return the Serre-dual representative with d <= g-1."""
    if locus.d <= locus.g - 1:
        return locus
    return serre_dual(locus)


def is_proper_locus(g: int, r: int, d: int) -> bool:
    """Whether M^r_{g,d} is a normalized proper locus: rho < 0 and
    2r <= d <= g-1 with r >= 1 (so d >= 2 and g >= 3).  The one definition
    of the set: :func:`enumerate_loci` lists it, the rules and the fact
    parser test membership here, and :func:`kappa`, :func:`kappa_bruteforce`
    and the K3 certificates raise ValueError off it, through one check."""
    return 1 <= r and 2 * r <= d <= g - 1 and rho(g, r, d) < 0


def enumerate_loci(g: int) -> list[BNLocus]:
    """All normalized proper loci at genus g, those of :func:`is_proper_locus`
    (rho < 0, 2r <= d <= g-1), in (r, d) order, which is the order of the
    loops.

    Loci with d = 2r are kept here; the poset engine merges them into
    M^1_{g,2} via the Clifford collapse.
    """
    if g < 3:
        raise ValueError("need g >= 3")
    return [
        BNLocus(g, r, d)
        for r in range(1, (g - 1) // 2 + 1)
        for d in range(2 * r, g)
        if is_proper_locus(g, r, d)
    ]


def rho_k(g: int, k: int, r: int, d: int) -> int:
    """Gonality-refined Brill-Noether number: the general k-gonal curve
    of genus g carries a g^r_d iff this is >= 0.

    The correction is the maximum of the concave c*l - l^2 over
    0 <= l <= r', taken at the integer nearest its vertex c/2 (c//2 when c
    is odd ties with c//2 + 1), clamped to the range."""
    rp = max(min(r, g - d + r - 1), 0)
    coeff = g - k - d + 2 * r + 1
    l = min(max(coeff // 2, 0), rp)
    return rho(g, r, d) + coeff * l - l * l


def _floor_neg_two_sqrt(n: int) -> int:
    # floor(-2*sqrt(n)) for n >= 0, by exact integer square-root bracketing
    m = 4 * n
    s = isqrt(m)
    return -s if s * s == m else -(s + 1)


def _require_proper_locus(g: int, r: int, d: int) -> None:
    # the one check that raises off is_proper_locus; both kappa functions and
    # the prelude of both K3 locus queries call it
    if not is_proper_locus(g, r, d):
        raise ValueError(
            f"kappa and the K3 certificates are defined on the proper loci only "
            f"(rho < 0, 2r <= d <= g-1); ({g},{r},{d}) is not a proper locus"
        )


def kappa(g: int, r: int, d: int) -> int:
    """Largest k with M^1_{g,k} contained in M^r_{g,d}, by closed form.
    Raises ValueError off the proper loci (:func:`is_proper_locus`)."""
    _require_proper_locus(g, r, d)
    fl = d // r
    if g + 1 > fl + d:
        return fl
    return g + 1 - d + 2 * r + _floor_neg_two_sqrt(-rho(g, r, d))


def kappa_bruteforce(g: int, r: int, d: int) -> int:
    """Largest k >= 2 with rho_k(g,k,r,d) >= 0, by direct scan up to
    floor((g+3)/2).  Independent oracle for :func:`kappa`, with the same
    domain check."""
    _require_proper_locus(g, r, d)
    best = None
    for k in range(2, (g + 3) // 2 + 1):
        if rho_k(g, k, r, d) >= 0:
            best = k
    if best is None:
        raise ValueError(f"no gonality stratum meets M^{r}_{{{g},{d}}}")
    return best

