"""Classical numerical rules: genus bounds, gonality statements and secant
dimension counts that yield containments or non-containments of loci
without any K3 input.

The two rules that produce relations differ at their edges.
:func:`coppens_noncontainment` returns ``None`` when its hypotheses fail.
:func:`plane_projection_rule` raises ``ValueError`` outside its domain
(d < 4 or rho(g,2,d) >= 0), and returns ``None`` when g is not below the
plane genus (d-1)(d-2)/2.  The poset engine discards relations whose
endpoints are not enumerated proper loci.
"""

from __future__ import annotations

from collections import namedtuple

from .loci import BNLocus, RelKind, Relation, rho, kappa


class CastelnuovoData(namedtuple("CastelnuovoData", "m epsilon bound")):
    __slots__ = ()


def castelnuovo_bound(r: int, d: int) -> CastelnuovoData:
    """Castelnuovo's genus bound for a basepoint-free, birationally very
    ample g^r_d: g <= m(m-1)(r-1)/2 + m*epsilon with m = floor((d-1)/(r-1))."""
    if r < 2 or d < r:
        raise ValueError("need r >= 2 and d >= r")
    m = (d - 1) // (r - 1)
    eps = d - 1 - m * (r - 1)
    bound = m * (m - 1) * (r - 1) // 2 + m * eps
    return CastelnuovoData(m, eps, bound)


def castelnuovo_severi(d1: int, g1: int, d2: int, g2: int) -> int:
    """Genus bound for a curve with independent covers of degrees d1, d2
    onto curves of genus g1, g2."""
    if d1 < 2 or d2 < 2 or g1 < 0 or g2 < 0:
        raise ValueError("need d1, d2 >= 2 and g1, g2 >= 0")
    return (d1 - 1) * (d2 - 1) + d1 * g1 + d2 * g2


def plane_projection_rule(g: int, d: int) -> Relation | None:
    """Projection from a singular point of a plane model: if
    g < (d-1)(d-2)/2 then M^2_{g,d} is contained in M^1_{g,d-2}."""
    if d < 4 or rho(g, 2, d) >= 0:
        raise ValueError("need d >= 4 and rho(g,2,d) < 0")
    if 2 * g < (d - 1) * (d - 2):
        return Relation(
            BNLocus(g, 2, d), BNLocus(g, 1, d - 2), RelKind.LE, "plane-projection"
        )
    return None


def coppens_noncontainment(g: int, d: int) -> Relation | None:
    """Coppens: the normalization of a general nodal plane curve of degree d
    and genus g has gonality d-2 when rho(g,1,d-3) < 0, so
    M^2_{g,d} is not contained in M^1_{g,d-3}.

    Needs a nonnegative node count (d-1)(d-2)/2 - g; returns None when the
    hypotheses fail.
    """
    if d < 5:
        return None
    if (d - 1) * (d - 2) // 2 - g < 0:
        return None
    if rho(g, 1, d - 3) >= 0:
        return None
    return Relation(BNLocus(g, 2, d), BNLocus(g, 1, d - 3), RelKind.NLE, "coppens")


def ci_gonality(degrees: list[int]) -> int:
    """Lower bound (a1-1)*a2*...*a_{r-1} for the gonality of a smooth
    complete intersection of the given multidegree (sorted ascending)."""
    if not degrees or any(a < 2 for a in degrees):
        raise ValueError("need degrees >= 2")
    if sorted(degrees) != list(degrees):
        raise ValueError("degrees must be sorted ascending")
    out = degrees[0] - 1
    for a in degrees[1:]:
        out *= a
    return out


def secant_expected_dim(r: int, d: int, s: int, e: int) -> int:
    """Expected dimension of the cycle of (d-e)-divisors imposing at most
    r-s conditions on a g^r_d; equals r - s - (d-e-r+s)s."""
    if not (r > s >= 1) or not (d > e):
        raise ValueError("need r > s >= 1 and d > e")
    return r - s - (d - e - r + s) * s


def four_secant_count(g: int, d: int) -> int:
    """Cayley's virtual count of 4-secant lines to a degree-d genus-g space
    curve: (d-2)(d-3)^2(d-4)/12 - g(d^2-7d+13-g)/2, computed in integers.

    Both divisions are exact for every g and d.  Of the three consecutive
    integers d-4, d-3, d-2 one is a multiple of 3 and one is even, and a
    second factor 2 comes from (d-3)^2 when d is odd, or from the two even
    factors d-2, d-4 when d is even, so 12 divides the first numerator.
    d^2-7d = d(d-7) is even, so d^2-7d+13 is odd: g and d^2-7d+13-g have
    opposite parity, and their product is even."""
    if d < 5:
        raise ValueError("need d >= 5")
    return (d - 2) * (d - 3) ** 2 * (d - 4) // 12 - g * (d * d - 7 * d + 13 - g) // 2


def net_threshold(r: int, d: int) -> int:
    """The degree d - 2r + 2 + floor((r+3)/2) from which every curve with a
    g^r_d, r >= 3, is conjectured to carry a net g^2_e.  Informational: it
    never seeds a relation.

    It is the least e with ``secant_expected_dim(r, d, 2, e) >= 0``.  For
    odd r that dimension is odd, so the threshold is the secant rule's own
    cut (dimension > 0).  For even r it is one below that cut, at expected
    dimension exactly 0, where the virtual count may vanish.

    Scored against the packaged fixtures at g = 7..12 and fact-free
    :func:`~bnloci.poset.assemble` at g = 13..30, over every proper net
    M^2_{g,e} with e at or above the threshold, nothing refutes it: all 100
    fixture cells are ``eq`` or ``subset``, and of the 8,920 rule cells 8,508
    are proven and 412 are open.  Only the 568 cells of dimension 0 go
    beyond the secant rule: 156 are proven and 412 open.  A second
    conjectured threshold, for containments into series of larger
    dimension, was refuted by 7 fixture cells and 1,098 rule cells, and was
    dropped.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    return d - 2 * r + 2 + (r + 3) // 2


def gonality_bounds(g: int, r: int, d: int) -> tuple[int, int]:
    """(certified lower bound, heuristic expected value) for the minimal k
    with M^r_{g,d} <= M^1_{g,k}: the pair (kappa, min(d-2r+2, floor((g+3)/2))).

    The heuristic can fail in both directions; lattices carrying elliptic
    pencils give curves of much lower gonality than d-2r+2.
    """
    return (kappa(g, r, d), min(d - 2 * r + 2, (g + 3) // 2))
