"""Classical rules that need no K3 input: plane projection from nodes
(:func:`plane_projection_rule`) and Coppens' gonality theorem for nodal
plane curves (:func:`coppens_noncontainment`), which
:func:`~bnloci.poset.rule_sources` seeds, and the gonality bounds of a
locus (:func:`gonality_bounds`), which ``bn invariants`` prints.

The two rules that produce relations differ at their edges.
:func:`coppens_noncontainment` returns ``None`` when its hypotheses fail.
:func:`plane_projection_rule` raises ``ValueError`` outside its domain
(d < 4 or rho(g,2,d) >= 0), and returns ``None`` when g is not below the
plane genus (d-1)(d-2)/2.  The poset engine discards relations whose
endpoints are not enumerated proper loci.
"""

from __future__ import annotations

from .loci import BNLocus, RelKind, Relation, rho, kappa


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


def gonality_bounds(g: int, r: int, d: int) -> tuple[int, int]:
    """(certified lower bound, heuristic expected value) for the minimal k
    with M^r_{g,d} <= M^1_{g,k}: the pair (kappa, min(d-2r+2, floor((g+3)/2))).

    The heuristic can fail in both directions; lattices carrying elliptic
    pencils give curves of much lower gonality than d-2r+2.
    """
    return (kappa(g, r, d), min(d - 2 * r + 2, (g + 3) // 2))
