"""Independent checks of the engine: public functions that no engine path
calls, kept so that each fast path can be held against a second encoding.

- K3: the filtration types one by one (:func:`enumerate_filtration_types`),
  the Gelfand-Tsetlin pattern of an assignment and its interlacing check
  (:func:`gt_pattern`, :func:`gt_check`), the quotient conditions
  (:func:`quotient_checks`) and the exact c_2 bound of an assignment
  (:func:`c2_lower_bound`), against the walk of :mod:`bnloci.k3`, which
  checks each leaf step-wise in integers.  The slab of classes that an
  admissible step can use, read off its defining inequalities alone
  (:func:`slab_classes`), against
  :func:`~bnloci.k3.candidate_subsheaf_classes`, the classes of the
  destabilizing-lemma box that a step can use.
- Loci: the base-point moves and the Clifford collapse as Relations
  (:func:`trivial_relations`, :func:`clifford_collapse`), and the secant
  containment, the plane projection from a node and Coppens'
  non-containment of one pair (:func:`secant_containment`,
  :func:`plane_projection_rule`, :func:`coppens_noncontainment`), against
  the rows that :func:`~bnloci.poset.rule_sources` seeds.  The base-point
  moves are held against the trivial rows (a point added) and the secant
  rows (a point removed, which the secant family seeds).
- Citations: the numerical checks behind the packaged facts' citations,
  Castelnuovo's genus bound (:func:`castelnuovo_bound`), the
  Castelnuovo-Severi inequality (:func:`castelnuovo_severi`),
  complete-intersection gonality (:func:`ci_gonality`), secant-cycle
  expected dimensions (:func:`secant_expected_dim`) and Cayley's 4-secant
  count (:func:`four_secant_count`); the conjectured net threshold
  (:func:`net_threshold`), scored against the engine's verdicts; and the
  self-intersection (:func:`self_int`) with the box search for classes of
  prescribed square (:func:`find_classes_with_square`).

The boundary runs both ways, and ``tests/test_oracle_boundary.py`` holds
it: no other module of the package imports this one, not even
``__init__``, so its checks are imported from ``bnloci.oracles``; and this
one imports nothing from ``poset`` or ``cli`` and, from ``k3``, only
``Assignment``, the value type of an assignment.  The exact c_2 bound is
written here in its closed form, apart from the walk's scaled integers.
``lattice`` and ``loci`` hold the value types and the arithmetic, and
are open to it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .k3 import Assignment
from .lattice import H, ZERO, LatticeBasis, LatticeClass, floor_sqrt_ratio, pair
from .loci import BNLocus, RelKind, Relation, enumerate_loci, is_proper_locus, rho


def enumerate_filtration_types(s: int) -> list[tuple[int, ...]]:
    """All strictly increasing rank sequences r_1 < ... < r_n = s+1 with
    n >= 2, i.e. nonempty subsets of {1..s} capped by s+1; 2^s - 1 of them,
    sorted by length then lexicographically."""
    if s < 1:
        raise ValueError("need s >= 1")
    types = []
    for size in range(1, s + 1):
        for combo in itertools.combinations(range(1, s + 1), size):
            types.append(combo + (s + 1,))
    types.sort(key=lambda t: (len(t), t))
    return types


class GTPattern(namedtuple("GTPattern", "entries")):
    """Triangular array x_{i,j} (1 <= j <= i <= n) of exact rationals,
    as a tuple of rows of Fractions."""

    __slots__ = ()

    def is_valid(self) -> bool:
        """The interlacing conditions x_{i,j} >= x_{i+1,j+1} >= x_{i+1,j}."""
        n = len(self.entries)
        for i in range(1, n):  # rows i and i+1, 1-based i = index+1
            upper = self.entries[i - 1]
            lower = self.entries[i]
            for j in range(1, i + 1):
                if not (upper[j - 1] >= lower[j] >= lower[j - 1]):
                    return False
        return True


def gt_pattern(basis: LatticeBasis, assignment: Assignment) -> GTPattern:
    """Slope pattern x_{i,j} = mu(E_i / E_{i-j}) of an assignment."""
    from fractions import Fraction

    rk = (0,) + assignment.ranks
    hdeg = [0] + [pair(basis, H, c) for c in assignment.chern]
    rows = []
    for i in range(1, len(rk)):
        row = tuple(
            Fraction(hdeg[i] - hdeg[i - j], rk[i] - rk[i - j]) for j in range(1, i + 1)
        )
        rows.append(row)
    return GTPattern(tuple(rows))


def gt_check(basis: LatticeBasis, assignment: Assignment) -> bool:
    """True iff the slope data of the assignment is a Gelfand-Tsetlin
    pattern; equivalent to mu(E_j/E_i) >= mu(E_k/E_i) >= mu(E_k/E_j) for all
    triples i < j < k (the all-triples form is the test oracle)."""
    return gt_pattern(basis, assignment).is_valid()


def quotient_checks(basis: LatticeBasis, assignment: Assignment) -> bool:
    """Quotient non-negativity c1(E/E_i)^2 >= 0, quotient slope-positivity
    H.c1(E/E_i) > 0, and the slope sandwich mu(E_i) >= mu(E), for 0 < i < n."""
    from fractions import Fraction

    rk = (0,) + assignment.ranks
    n = len(assignment.ranks)
    mu_total = Fraction(basis.h_square, rk[-1])
    for i in range(1, n):
        ci = assignment.chern[i - 1]
        q = H - ci
        if self_int(basis, q) < 0:
            return False
        if pair(basis, H, q) <= 0:
            return False
        if Fraction(pair(basis, H, ci), rk[i]) < mu_total:
            return False
    return True


def c2_lower_bound(basis: LatticeBasis, assignment: Assignment) -> Fraction:
    """Exact rational lower bound on c_2(E) for the assignment, from the
    Chern-class recursion over the filtration steps plus the moduli-space
    bound c_2(F) >= (rk-1) c1(F)^2 / (2 rk) + rk - 1/rk for each stable
    factor F (zero for line-bundle factors)."""
    from fractions import Fraction

    total = Fraction(0)
    prev_rank, prev = 0, ZERO
    for rank, cur in zip(assignment.ranks, assignment.chern):
        f, step = cur - prev, rank - prev_rank  # the factor F and its rank
        stable = Fraction((step - 1) * self_int(basis, f), 2 * step) + step - Fraction(1, step)
        total += stable + pair(basis, f, prev)
        prev_rank, prev = rank, cur
    return total


def self_int(basis: LatticeBasis, u: LatticeClass) -> int:
    """Self-intersection u.u."""
    return pair(basis, u, u)


def find_classes_with_square(
    basis: LatticeBasis, square: int, box_a: int = 10, box_b: int = 10
) -> list[LatticeClass]:
    """All nonzero classes aH + bL with |a| <= box_a, |b| <= box_b and
    self-intersection ``square``, sorted lexicographically by (a, b).

    Both a class and its negative are reported; callers wanting effective
    representatives filter by the sign of the H-degree.
    """
    if box_a < 1 or box_b < 1:
        raise ValueError("box bounds must be >= 1")
    found = []
    for a in range(-box_a, box_a + 1):
        for b in range(-box_b, box_b + 1):
            if a == 0 and b == 0:
                continue
            c = LatticeClass(a, b)
            if self_int(basis, c) == square:
                found.append(c)
    return found


def slab_classes(basis: LatticeBasis) -> list[LatticeClass]:
    """Every class c with 0 < H.c < H^2 and (H-c)^2 >= 0, the conditions
    that an intermediate filtration step states, sorted by (a, b).  No
    lemma is used: for Q = H - c = xH + yL and t = H.Q, the Hodge index
    identity H^2 Q^2 = t^2 + y^2 Delta makes Q^2 >= 0 read y^2 |Delta| <= t^2,
    so the scan runs over t in 1..H^2-1 and those y, and keeps each
    integral x = (t - y d) / H^2.

    Raises ValueError when Delta >= 0, where the set is not finite.
    """
    h2, d, disc = basis.h_square, basis.d, -basis.discriminant
    if disc <= 0:
        raise ValueError(
            f"Delta({basis.g},{basis.r},{basis.d}) = {-disc} >= 0: the slab is not finite"
        )
    out = []
    for t in range(1, h2):
        ymax = floor_sqrt_ratio(t * t, disc)
        for y in range(-ymax, ymax + 1):
            x, rem = divmod(t - y * d, h2)
            if not rem:
                out.append(LatticeClass(1 - x, -y))
    return sorted(out)


def trivial_relations(g: int) -> list[Relation]:
    """Containments from adding a base point (d -> d+1) and removing a
    non-base point (r,d -> r-1,d-1), restricted to enumerated loci."""
    out = []
    for x in enumerate_loci(g):
        # adding a base point; d+1 = g falls back to the Serre-normal form,
        # which is then the removal's target too
        add = (x.r, x.d + 1) if x.d + 1 <= g - 1 else (x.r - 1, g - 2)
        remove = (x.r - 1, x.d - 1)
        for r2, d2 in (add,) if add == remove else (add, remove):
            if is_proper_locus(g, r2, d2):
                out.append(Relation(x, BNLocus(g, r2, d2), RelKind.LE, "trivial"))
    return out


def clifford_collapse(g: int) -> list[Relation]:
    """Equalities M^r_{g,2r} = M^1_{g,2} (all g), and M^r_{g,2r+1} = M^1_{g,2}
    for g >= 7, over enumerated loci with r >= 2.  M^1_{g,2} is itself a
    locus at every g >= 3, as its rho is 2 - g."""
    loci = enumerate_loci(g)
    hyper = BNLocus(g, 1, 2)
    out = []
    for x in loci:
        if x.r >= 2 and (x.d == 2 * x.r or (x.d == 2 * x.r + 1 and g >= 7)):
            out.append(Relation(x, hyper, RelKind.EQ, "clifford"))
    return out


def secant_containment(g: int, r: int, d: int, s: int, e: int) -> Relation | None:
    """Containment M^r_{g,d} <= M^s_{g,e} from secant divisors, emitted only
    when the expected dimension of the secant cycle is strictly positive.

    At expected dimension exactly zero nothing is emitted: the virtual count
    can vanish, so existence is not guaranteed (for s = 2 and r odd the
    conjectured :func:`net_threshold` is the same cut).
    """
    if not (r >= s + 1 >= 2):
        raise ValueError("need r >= s+1 >= 2")
    if d > g - 1 or e > g - 1:
        raise ValueError("expects normalized degrees (<= g-1)")
    if e >= d:
        return None
    if secant_expected_dim(r, d, s, e) > 0:
        return Relation(BNLocus(g, r, d), BNLocus(g, s, e), RelKind.LE, "secant")
    return None


def plane_projection_rule(g: int, d: int) -> Relation | None:
    """Projection from a singular point of a plane model: if
    g < (d-1)(d-2)/2 then M^2_{g,d} is contained in M^1_{g,d-2}.

    Raises ValueError outside its domain (d < 4 or rho(g,2,d) >= 0), and
    returns None when g is not below the plane genus (d-1)(d-2)/2.  The
    relation's target need not be an enumerated proper locus.
    """
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
    hypotheses fail, and never raises, unlike
    :func:`plane_projection_rule`.  The relation's target need not be an
    enumerated proper locus.
    """
    if d < 5:
        return None
    if (d - 1) * (d - 2) // 2 - g < 0:
        return None
    if rho(g, 1, d - 3) >= 0:
        return None
    return Relation(BNLocus(g, 2, d), BNLocus(g, 1, d - 3), RelKind.NLE, "coppens")


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
