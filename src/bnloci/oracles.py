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
  containment of one pair (:func:`secant_containment`), against the rows
  that :func:`~bnloci.poset.rule_sources` seeds.  The base-point moves are
  held against the trivial rows (a point added) and the secant rows (a
  point removed, which the secant family seeds).

The boundary runs both ways, and ``tests/test_oracle_boundary.py`` holds
it: no other module of the package imports this one, not even
``__init__``, so its checks are imported from ``bnloci.oracles``; and this
one imports nothing from ``poset`` or ``cli`` and, from ``k3``, only
``Assignment``, the value type of an assignment.  The exact c_2 bound is
written here in its closed form, apart from the walk's scaled integers.
``lattice``, ``loci`` and ``classical`` hold the value types and the
arithmetic, and are open to it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .classical import secant_expected_dim
from .k3 import Assignment
from .lattice import H, ZERO, LatticeBasis, LatticeClass, floor_sqrt_ratio, pair, self_int
from .loci import BNLocus, RelKind, Relation, enumerate_loci, is_proper_locus


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
        f, rho = cur - prev, rank - prev_rank
        stable = Fraction((rho - 1) * self_int(basis, f), 2 * rho) + rho - Fraction(1, rho)
        total += stable + pair(basis, f, prev)
        prev_rank, prev = rank, cur
    return total


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
    conjectured :func:`~bnloci.classical.net_threshold` is the same cut).
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
