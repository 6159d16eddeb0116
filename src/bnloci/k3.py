"""Lazarsfeld-Mukai bundle filtration analysis on rank-2 K3 lattices.

On a K3 surface S with Pic(S) = Z[H] + Z[L] (Gram matrix from a
:class:`~bnloci.lattice.LatticeBasis`), a g^s_e on a smooth curve C in |H|
with rho(g,s,e) < 0 forces its rank-(s+1) Lazarsfeld-Mukai bundle E to be
non-simple, hence to carry a terminal filtration: stable torsion-free
factors with slopes interlacing like a Gelfand-Tsetlin pattern.

This module enumerates all candidate first-Chern-class data for such
filtrations ("assignments"), computes the exact rational lower bound each
one imposes on c_2(E) = e, and turns "every assignment needs c_2 > e"
into certified non-existence of a g^s_e on C.

One depth-first search, :func:`_walk`, serves both the listing path
(:func:`listing_records`) and the minimum-only path
(:func:`min_series_degree`).  It runs over rank prefixes, not over
filtration types, so that a prefix shared by many types is visited once.

Interval cuts.  For a filtration type r_1 < ... < r_n = s+1, put
P_i = (r_i, h_i) with h_i = H.c1(E_i), P_0 = (0, 0) and P_n = (s+1, H^2).
The all-triples Gelfand-Tsetlin conditions mu(i,j) >= mu(i,k) >= mu(j,k)
say exactly that P_0, ..., P_n is a concave chain: the slope of P_{i-1}P_i
never increases with i.  A subchain of a concave chain is concave, so once
P_1..P_{m-1} are chosen with P_0..P_{m-1}, P_n concave, a choice of h_m is
admissible iff P_0..P_m, P_n is concave, which adds two inequalities:

    slope(P_{m-1}, P_m) <= slope(P_{m-2}, P_{m-1})   (upper end; m >= 2)
    slope(P_m, P_n)     <= slope(P_{m-1}, P_m)       (lower end)

So the admissible H-degrees at level m form one integer interval, found by
bisection in the candidates sorted by H-degree, and at the last level the
two inequalities close the whole chain.  The quotient conditions
(H-c)^2 >= 0 and H.(H-c) > 0 hold for every candidate by construction, and
mu(E_i) >= mu(E) is the triple (0, i, n).  That triple puts every step's
H-degree above 0, so the candidates hold only classes with H.c > 0, also by
construction (:func:`_candidate_rows`): no cut could reach any other.

Prefix sharing.  The level-m cuts read only r_{m-2}, r_{m-1}, r_m and
r_n = s+1, never the ranks after r_m, and the bound of steps 1..m reads only
r_1..r_m and c_1..c_m.  So the admissible prefixes (r_1..r_m; c_1..c_m) are
the same for every type that starts with r_1..r_m.  The cuts at level m are
the same whether or not m = n-1 is the last level, so each admissible
prefix is also exactly one admissible leaf of the type (r_1..r_m, s+1),
closed by the step of rank s+1-r_m to c1(E_n) = H.  The walk therefore
visits each prefix once, emits it as a leaf, and extends it by every rank in
(r_m, s], where the per-type search walked it again for each of the
2^(s-r_m) - 1 longer types.  A node emits all its children's leaves before
it descends into any child.  That keeps the shortest types ahead of their
extensions, and the Clifford-floor stop below relies on it: the types of
length 2 come first, in the order of the per-type search, and the floored
search stops at its first kept leaf <= 2s, so the order sets how soon.

Pruning.  Most intervals are empty, and the walk skips them in two exact
ways.  At a node P_m = (r_m, h_p), write h_max for the largest candidate
H-degree.  The lower end for a child of rank r = r_m + a is

    slope(P, P_top) <= slope(P_m, P)  iff  h >= h_p + a (H^2 - h_p) / (s+1 - r_m),

so the least admissible h is h_p + ceil(a (H^2 - h_p) / (s+1 - r_m)).  It never
decreases as r grows if h_p < H^2.  That holds at every node: the root has
h_p = 0 < H^2 = 2g - 2, and every other node is a child whose row passed
:func:`_check_step`, which rejects h >= H^2 (the quotient condition
H.(H-c) > 0).  So once the lower end at some r passes h_max, it does so at
every larger r, and the node's rank loop ends there; each bisection for the
lower end also starts from the previous one.  The same bound decides before
the descent whether a child can emit anything.  For a child P = (r, h) the
lower end at rank r + 1 is h + ceil((H^2 - h) / (s + 1 - r)), and it is at
most h_max iff, in integers,

    h (s - r) + H^2 <= h_max (s + 1 - r).

If that fails, the child has no row at rank r + 1 and, by the
monotonicity, none at any later rank.  For r = s the test reads
H^2 <= h_max, which never holds, as every candidate has H.c < H^2; so it
also stands for "r < s".  A child that fails it would emit no leaf and have
no child of its own, so it is never entered.
The walk thus emits the same leaves in the same order, and every leaf it
emits is checked (the floored search skips more; see "Branch and bound").
A lattice with no candidate row has no admissible step at all, and the
walk returns at once.

Node states.  A node's rank loop reads only its state: r_m, the row of c_m
(named by its digit), H.c_{m-1} and r_m - r_{m-1}.  The interval ends read
r_m, H.c_m, H.c_{m-1} and the rank step; a row's step check, its step term,
its closing term, its tags and whether it has a child read the same and the
row.  The scaled bound acc of steps 1..m only adds to every total, the key
only leads every child's digits, and the ranks r_1..r_m only lead every
type.  So the uncut walk plans the loop of each state once, at its first
visit, with acc = 0: per rank, the kept leaves as (digit, end, tags) and the
children as (row, total, state).  Every visit, the first included, replays
the plan: it adds acc to every bound and the node's key times n + 1 to every
digit, builds the ranks tuple once per rank, emits the leaves in the plan's
order and then enters the children in theirs, which is the order of a node
that checks and emits row by row.
The plans live in a dict local to one walk.  On the five listing jobs of
the benchmark the walk enters 16,076 nodes but only 2,084 states, and checks
10,412 (state, row) pairs where a check per leaf made 35,688.  The floored
walk cannot store its loop: its interval and descent bounds read t, which
falls as leaves arrive, within a node too, so the rows it reads at a state
depend on the leaves before them.  It keeps the node that checks and emits
row by row.

Scaled integers.  The c_2 bound is a sum of one term per filtration step
whose denominators divide 2 rho_i with rho_i <= s+1, so the search carries
it as an integer times D = 2 lcm(1..s+1); the minimum cache,
k3_noncontainment and the listing records stay in integers, and a Fraction
is built once per distinct bound of a listing or minimum.  The step table
(D, each rank's two scaled step constants and the tag masks,
:func:`_step_table`) depends on s and on whether s > r alone, so it is
built once per series and shared by every walk at that key.  Each
candidate class is one row of integers, built once per lattice together
with the rows' H-degrees that the cuts bisect and the one tuple of the
classes themselves, and a leaf is read off its rows alone.  So a walk pays
only for the work of its own nodes.  The filters are decided once, in the
walk: each row carries the tag bits its class could earn (``DM`` for
(a, b) = (1, -1), ``ELLIPTIC`` for (H-c)^2 = 0), each rank step masks them
by what its filtration type allows, and a leaf with a tag that the config
drops is checked but not emitted.  A leaf's classes reach its caller as one
int key: the rows' digits (each class's rank 1..n in (a, b) order) in
radix n + 1, where a child's key is its node's key times n + 1 plus the
child's digit, so the walk keeps no path of rows.  The listing sorts each
type once on those ints, which order as the classes do, and every reader
decodes a key through the one memo of its prefixes (:func:`key_prefixes`),
which builds each shared prefix once.

Every leaf, on both paths, is checked in integers, with no bisection or
rounding shared with the cuts, and a failure raises RuntimeError, which,
unlike an assert, survives python -O.  The check is step-wise
(:func:`_check_step`): a leaf pays for the conditions that its last step
adds, not for its whole chain.  Those read only the leaf's node state and
its last row, so the uncut walk checks each (state, row) once, when it
plans the state, and the check stands for every leaf that a replay emits
through that row; a failing row raises while its state is planned, before
the node emits any leaf.  The walk descends into a prefix only after
that prefix's own leaf (r_1..r_m, s+1) has passed its check, so when a child
P = (r, H.c) of it is emitted, the child's chain P_0..P_m, P, P_top differs
from the checked parent chain P_0..P_m, P_top in exactly two adjacent slope
pairs, (P_{m-1}, P_m, P) for m >= 1 and (P_m, P, P_top), and in the quotient
conditions (H-c)^2 >= 0, H.(H-c) > 0 and mu(E_i) >= mu(E) on the new row.
The step check tests those, by cross-multiplication.  By induction on m,
from the root's children, whose chain P_0, P, P_top has the one pair
(P_0, P, P_top), every leaf that reaches a caller has had every adjacent
slope pair of its chain and the quotient conditions of every intermediate
step checked.  The pairs stand for all C(n+1, 3) triples by the three-chord
lemma: as r_0 < ... < r_n, slope(P_i, P_k) is a weighted mean of the step
slopes from i to k, so non-increasing steps give every triple, and the
triples (i-1, i, i+1) are the pairs.  The tests keep the all-triples form
of every prefix leaf as their oracle, so that the lemma and the induction
are checked, not trusted.

The Clifford floor.  A certificate M^r_{g,d} !<= M^s_{g,e} needs every
kept assignment to force c_2 > e, and a proper locus M^s_{g,e} has
e >= 2s (Clifford's theorem; :func:`_has_lattice` rejects loci with
d < 2r).  So once one kept leaf has bound <= 2s, no query at that
(lattice, s) can certify and the exact minimum does not matter.  The
floor 2s is read off s, so the certifying search derives it: it stops at
the first kept leaf whose bound is <= 2s, and its answer is exact whenever
it is > 2s, and <= 2s otherwise, which decides "minimum > e" for every
e >= 2s alike.  The exact search keeps the least kept leaf by (bound,
sort key), which gives :func:`min_series_degree` its bound and
:func:`k3_expected` its witness for every e.  The
candidate rows depend on the lattice alone, so they are built once per
lattice and shared by every s.  The floored minimum m of a (lattice, s)
gives one integer, ceil(m / D) (:func:`k3_certified_below`), and a proper
target M^s_{g,e} is certified iff e is below it, so every query at that
(lattice, s) is one comparison.

Branch and bound.  The floored search reads a kept leaf only when its
bound is below every earlier kept bound, so it walks with a cut (the
branch and bound of Land and Doig): it skips every subtree whose leaves
all have bound at least ``best``, the least kept bound so far.  The lower
bounds are exact algebra on the lattice.  Write a leaf's factors as rank
rho_j and class f_j = c_j - c_{j-1}, so sum_j f_j = H.  As
H^2 = sum_j f_j^2 + 2 sum_j f_j.c_{j-1}, the walk's step sum is

    T = H^2/2 + sum_j (rho_j - 1/rho_j - f_j^2 / (2 rho_j)),

and by the same identity for c_m, the scaled sum acc of steps 1..m at a
node P_m is D times this form with c_m^2/2 in place of H^2/2.  So every
leaf below the node has bound

    acc/D - c_m^2/2 + H^2/2 + sum_{j>m} (rho_j - 1/rho_j - f_j^2 / (2 rho_j)),

and three facts bound the remaining terms from below.

- Hodge index.  For f = aH + bL, H^2 f^2 = (H.f)^2 + b^2 Delta with
  Delta = H^2 L^2 - d^2 < 0.  Every factor has 0 < H.f_j < H^2: the step
  slopes do not increase, the last is positive (H.(H-c) > 0), and there
  are at least two steps, whose H-degrees sum to H^2.  So f_j is no
  multiple of H and b_j != 0.  With k = |Delta| / (2 H^2) a term reads
  rho - 1/rho + k b^2/rho - (H.f)^2 / (2 rho H^2), and as b^2 >= 1,
  rho - 1/rho + k b^2/rho >= rho min(k, 1): for k >= 1 drop 1/rho
  against k/rho, and for k < 1 use rho (1-k) >= (1-k)/rho.
- Cauchy-Schwarz.  The remaining factors have total rank R = s+1 - r_m
  and sum_{j>m} b_j = -b_m, b_m the L-coefficient of c_m, so, dropping
  rho - 1/rho >= 0, their terms other than (H.f)^2 add up to at least
  k sum_{j>m} b_j^2 / rho_j >= k b_m^2 / R.
- Concavity.  The step slopes mu_j = H.f_j / rho_j do not increase, so for
  j > m none exceeds mu, the slope of step m+1 or of any earlier step, and
  sum_{j>m} (H.f_j)^2 / rho_j = sum_{j>m} mu_j H.f_j <= mu (H^2 - h_m).

The walk holds t = best - 1, with best scaled, and skips only when a bound
times D exceeds t.  It compares two bounds, in integers:

- Descent.  Before the walk enters a child c of rank r = r_m + a and
  H-degree h, every leaf strictly below c has bound at least
  acc_c/D - c^2/2 + H^2/2 - mu (H^2 - h) / (2 H^2)
  + max(R min(k, 1), k b_c^2 / R), with R = s+1 - r and mu = (h - h_m)/a,
  the slope of the step to c.  Times 2 H^2 D a R, with
  mn = min(|Delta|, 2 H^2), it exceeds t iff
  a R H^2 (2 (acc_c - t) + D (H^2 - c^2)) + a D max(R^2 mn, |Delta| b_c^2)
  > R D (h - h_m)(H^2 - h).
- Interval.  At a node, every leaf through a row of H-degree h at rank
  r_m + a has bound at least
  acc/D - c_m^2/2 + H^2/2 - (h - h_m)(H^2 - h_m) / (2 a H^2) + R min(k, 1),
  with R = s+1 - r_m and mu = (h - h_m)/a.  Times 2 a H^2, it exceeds t
  iff a N > D (h - h_m)(H^2 - h_m), with
  N = H^2 (2 (acc - t) + D (H^2 - c_m^2)) + R D mn.  It decreases in h, so
  the rows kept are those with h >= h_m + ceil(a N / (D (H^2 - h_m))), and
  the interval's lower end rises to the larger of this and the lower end
  of "Interval cuts", in the one bisection.  The raised end matters only
  when N > 0, where it grows with a, and t never rises, so the lower end
  still never decreases in r, and the rank loop ends as in "Pruning".

Why the answer is unchanged.  Scaled leaf bounds are integers, so a
skipped leaf has bound > t, i.e. >= best at the time of the skip, and best
never rises.  Such a leaf is no new minimum, so it could neither lower
best nor be the first kept leaf <= 2s that ends the search.  The kept
leaves that are new minima are thus the same, in the same order, with and
without the cut, so the floored entry is the same int, bit for bit, and
:func:`k3_certified_below` keeps its exact ceil(m / D) contract.  Every row
that the walk visits is checked before its leaf is emitted, so the
step-wise check above holds for the leaves it emits.  The listing, which
needs every leaf, and the exact search walk without the cut, and so replay
the node states' plans ("Node states").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .lattice import H, ZERO, LatticeBasis, LatticeClass, delta, floor_sqrt_ratio, pair, self_int
from .loci import BNLocus, RelKind, Relation, _require_proper_locus


class FilterConfig(
    namedtuple("FilterConfig", "dm_filter elliptic_filter", defaults=(False, False))
):
    """Optional exclusion rules for assignments that provably never arise
    from genuine terminal filtrations.

    dm_filter: drop type 1 < s+1 with c1(E_1) = H - L when s > r; the series
    would then lie inside |L (x) O_C|, impossible for dimension reasons.

    elliptic_filter: drop assignments whose top quotient has rank >= 2 and
    square-zero first Chern class; such a quotient is a direct sum of copies
    of an elliptic-pencil line bundle, hence not stable.

    Filters only ever remove assignments, so the unfiltered minimum is the
    safe bound for non-containment certificates.  Both switches default
    to False.
    """

    __slots__ = ()


BOTH_FILTERS = FilterConfig(dm_filter=True, elliptic_filter=True)

# the filter tags as bits of a candidate row, of a leaf and of a drop mask
DM, ELLIPTIC = 1, 2

# the names of each set of tag bits, for the listing records and
# Assignment.filtered_by
_TAG_NAMES = ((), ("dm",), ("elliptic",), ("dm", "elliptic"))


def _drop_mask(config: FilterConfig | None) -> int:
    """The tag bits whose leaves ``config`` drops; None drops none."""
    dm, elliptic = config or (False, False)
    return (DM if dm else 0) | (ELLIPTIC if elliptic else 0)


class LMInvariants(namedtuple("LMInvariants", "rank c2 chi")):
    """Numerical invariants of the Lazarsfeld-Mukai bundle of a g^s_e on a
    smooth genus-g curve in |H|; c1 is always H."""

    __slots__ = ()


def lm_invariants(g: int, s: int, e: int) -> LMInvariants:
    return LMInvariants(rank=s + 1, c2=e, chi=g - e + 2 * s + 1)


def type_text(ranks: tuple[int, ...]) -> str:
    """A filtration type as text, its ranks joined by '<' (``1<3<4``)."""
    return "<".join(map(str, ranks))


class Assignment(
    namedtuple("Assignment", "ranks chern c2_bound filtered_by", defaults=((),))
):
    """Candidate filtration datum: ranks r_1 < ... < r_n = s+1 and the first
    Chern classes c1(E_1), ..., c1(E_n) = H, with its exact rational lower
    bound on c_2(E).

    ``ranks`` is a tuple of ints, ``chern`` a tuple of
    :class:`~bnloci.lattice.LatticeClass`, ``c2_bound`` a Fraction.
    ``filtered_by`` (default ``()``) records which optional filters would
    discard it; the tags are annotations, the discarding is done by the
    active config.
    """

    __slots__ = ()

    @property
    def type_str(self) -> str:
        return type_text(self.ranks)

    def sort_key(self):
        return (len(self.ranks), self.ranks, self.chern)


def destab_box(basis: LatticeBasis) -> tuple[int, int]:
    """Integer bounds (X, Y) with |x| <= X, |y| <= Y for the quotient class
    c1(E/M) = xH - yL of any destabilizing step: the floors of
    1 + d/sqrt(|Delta|) and (2g-2)/sqrt(|Delta|), computed by exact
    squared-integer comparison.

    For r = 1 the lemma gives x in {0, 1} and |y| < 2(g-1)/d instead.
    Raises when Delta >= 0 (no K3 with this Picard lattice and nef H).
    """
    disc = basis.discriminant
    if disc >= 0:
        raise ValueError(
            f"Delta({basis.g},{basis.r},{basis.d}) = {disc} >= 0: no such K3 surface"
        )
    if basis.r == 0:
        raise ValueError("rule not applicable to r = 0 lattices")
    if basis.r == 1:
        ymax = (2 * (basis.g - 1) - 1) // basis.d  # strict: |y|*d < 2(g-1)
        return (1, ymax)
    s = -disc
    return (
        1 + floor_sqrt_ratio(basis.d * basis.d, s),
        floor_sqrt_ratio(basis.h_square * basis.h_square, s),
    )


def box_class_count(basis: LatticeBasis) -> int:
    """The size of the destabilizing-lemma box, a closed form known before
    any class is built: (2X - 1) Y classes for r >= 2, with X, Y of
    :func:`destab_box` (x = 1..X with y = 1..Y, and x = 2-X..0 with
    y = -Y..-1), and Y + floor((g-2)/d) for r = 1 (x = 0 with y = -Y..-1,
    and x = 1 with 0 < y d < g-1).  It is no sum over columns, so ``bn k3``
    can size the box of any (g, r, d) before its cap.
    :func:`_candidate_rows` scans part of this box, and never more.

    Raises the errors of :func:`destab_box`: Delta >= 0 or r = 0.
    """
    xmax, ymax = destab_box(basis)
    if basis.r == 1:
        return ymax + (basis.g - 2) // basis.d
    return (2 * xmax - 1) * ymax


def candidate_subsheaf_classes(basis: LatticeBasis) -> list[LatticeClass]:
    """Candidate values of c1(E_i) for intermediate filtration steps: the
    classes c = H - Q, Q = xH - yL in the destabilizing-lemma box, that a
    step can use: 0 < H.c < H^2 and Q^2 >= 0.  Sorted by (a, b).

    These are the ``classes`` of :func:`_candidate_rows` after the zero
    class, which its one box scan meets in (a, b) order.
    Raises the errors of :func:`destab_box`: Delta >= 0 or r = 0.
    """
    return list(_candidate_rows(basis)[2][1:])


def _c2_bound(
    basis: LatticeBasis, rk: tuple[int, ...], chern: tuple[LatticeClass, ...]
) -> Fraction:
    """The exact c_2 lower bound of the filtration with ranks ``rk`` (led by
    0) and first Chern classes ``chern``, in the closed form that
    :func:`~bnloci.oracles.c2_lower_bound` reads; the walk carries the same
    sum in scaled integers and never calls it."""
    total = Fraction(0)
    prev = ZERO
    for i in range(1, len(rk)):
        cur = chern[i - 1]
        f = cur - prev
        rho_i = rk[i] - rk[i - 1]
        stable = Fraction((rho_i - 1) * self_int(basis, f), 2 * rho_i) + rho_i - Fraction(
            1, rho_i
        )
        total += stable + pair(basis, f, prev)
        prev = cur
    return total


@lru_cache(maxsize=None)
def _scale(s: int) -> int:
    """D = 2 lcm(1..s+1): every c_2 term times D is an integer, since each
    factor rank rho <= s+1 divides lcm(1..s+1)."""
    return 2 * lcm(*range(1, s + 2))


@lru_cache(maxsize=None)
def _step_table(s: int, dm: bool) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The walk's step table for series s, built once per (s, dm):
    ``(D, half, const, masks)`` with D = :func:`_scale`.  A step of rank
    rho adds half[rho] (f.f) + D (f.p) + const[rho] to the scaled c_2 bound,
    with half[rho] = (rho - 1) D / (2 rho) and const[rho] = rho D - D / rho
    (index 0 unused).  masks[r] holds the tags that a leaf of type
    (..., r, s+1) can carry: ``DM`` only for r = 1 and only when ``dm``
    (s > r of the lattice), ``ELLIPTIC`` only for r < s.  The entry and its
    three tables are tuples, so no caller can change a shared entry."""
    big, top = _scale(s), s + 1
    half = (0, *[(rho - 1) * (big // (2 * rho)) for rho in range(1, top + 1)])
    const = (0, *[rho * big - big // rho for rho in range(1, top + 1)])
    masks = tuple(
        (DM if r == 1 and dm else 0) | (ELLIPTIC if r < s else 0) for r in range(top)
    )
    return big, half, const, masks


@lru_cache(maxsize=512)
def _candidate_rows(
    basis: LatticeBasis,
) -> tuple[tuple[tuple, ...], tuple[int, ...], tuple[LatticeClass, ...]]:
    """``(rows, hs, classes)``, cached per lattice: the candidate classes
    c = aH + bL as rows (H.c, a, b, c.c, v, (H-c)^2, tags, digit), sorted
    by (H-degree, a, b); ``hs``, the rows' H-degrees in that order, which
    the walk bisects; and ``classes``, (0, c_1, ..., c_n), the zero class
    and then the n candidate classes in (a, b) order, the one store of the
    classes themselves.  With u = H.c = a H^2 + b d and v = a d + b L^2,
    c.x = x.a u + x.b v for any class x, so a step needs two products, and
    the rows sort as tuples on (u, a, b).  ``tags`` holds the filter bits
    the class can earn: ``DM`` when (a, b) = (1, -1), i.e. c = H - L, and
    ``ELLIPTIC`` when (H-c)^2 = 0; :func:`_walk` masks them by the filtration
    type.  ``digit`` is the class's rank 1..n in (a, b) order, so
    classes[digit] is the row's class; the walk's keys spell digits.

    The rows come from one scan of the lemma's box (:func:`destab_box`) in
    integers, column by column: for Q = xH - yL the class is
    c = H - Q = (1 - x, y) = (a, b), and the columns are a = 1-X..X-1 with
    |b| <= Y for r >= 2, and for r = 1 the column a = 1 with |b| <= Y and
    the column a = 0 with the strict bound b d < g-1.  Every lattice that
    reaches the scan has d >= 1: LatticeBasis rejects d < 0, and d = 0
    gives Delta = 4(g-1)(r-1) >= 0 for r >= 1, which :func:`destab_box`
    rejects like r = 0.  So u = a H^2 + b d grows with b, and a column runs
    b upward from its first class with u > 0, b = floor(-a H^2 / d) + 1,
    and ends at its first class with u >= H^2, i.e. H.Q <= 0.  In between
    a class is kept iff (H-c)^2 = H^2 - 2u + c.c >= 0, i.e. Q^2 >= 0.  No
    walk reads a row with u <= 0, as mu(E_i) >= mu(E) puts every step's
    H-degree above 0, so the rows are the box's classes that a step can
    use.  Inside 0 < u < H^2 the sign of b is fixed, b > 0 for a <= 0 and
    b < 0 for a >= 1, so the strip already holds the lemma's two sign
    branches.  A LatticeClass is built only for a kept row, by
    ``tuple.__new__``, which skips the namedtuple's constructor.  The scan
    runs a, then b, upward, so it meets the kept classes in (a, b) order:
    it appends each to ``classes``, and a row's digit is the class's index
    there.
    """
    h2, d, l2 = basis.h_square, basis.d, basis.l_square
    xmax, ymax = destab_box(basis)
    rows, classes = [], [ZERO]
    # a = 1 - x for x = 2-X..X, or x in {0, 1} = 1-X..X when r = 1 (X = 1)
    for a in range(1 - xmax, xmax + (basis.r == 1)):
        bmax = (basis.g - 2) // d if basis.r == 1 and a == 0 else ymax
        for b in range(max(-a * h2 // d + 1, -bmax), bmax + 1):
            u = a * h2 + b * d
            if u >= h2:
                break  # u grows with b (d >= 1): the rest of the column fails too
            v = a * d + b * l2
            cc = a * u + b * v
            qq = h2 - 2 * u + cc
            if qq >= 0:
                tags = (DM if a == 1 and b == -1 else 0) | (ELLIPTIC if qq == 0 else 0)
                rows.append((u, a, b, cc, v, qq, tags, len(classes)))
                classes.append(tuple.__new__(LatticeClass, (a, b)))
    rows.sort()
    return tuple(rows), tuple(row[0] for row in rows), tuple(classes)


def _leaf_error(basis: LatticeBasis, rk: tuple[int, ...], key: int, what: str) -> RuntimeError:
    """The error of a leaf of ranks ``rk`` (led by 0) and walk key ``key``
    that fails its step check, naming the H-degrees of its chain."""
    chern = _class_prefixes(_candidate_rows(basis)[2])[key]
    hd = (0, *[pair(basis, H, c) for c in chern], basis.h_square)
    return RuntimeError(f"DFS leaf {hd} over ranks {rk} violates {what}")


def _check_step(
    htot: int, top: int, rm: int, hp: int, dr: int, hpp: int, r: int, row: tuple
) -> str | None:
    """The conditions that the step to P = (r, H.c), c the class of ``row``,
    adds to the checked leaf (r_1..r_m, s+1) of its parent (module
    docstring): the adjacent slope pairs (P_{m-1}, P_m, P) and
    (P_m, P, P_top) by integer cross-multiplication, then the quotient
    conditions (H-c)^2 >= 0, H.(H-c) > 0 and mu(E_i) >= mu(E) on the new
    row.  P_m = (rm, hp), P_top = (top, htot), and P_{m-1} = (rm - dr, hpp);
    dr = 0 stands for the root, which has no P_{m-1}, and makes the first
    pair read 0 > 0.  Returns what the leaf violates, or None."""
    h = row[0]
    a = r - rm
    if (h - hp) * dr > (hp - hpp) * a or (htot - h) * a > (h - hp) * (top - r):
        return "GT"
    if row[5] < 0 or h >= htot or h * top < htot * r:
        return "a quotient check"
    return None


def _walk(
    basis: LatticeBasis,
    s: int,
    drop: int,
    leaf: Callable[[tuple[int, ...], int, int, int], None],
    cut: bool = False,
) -> None:
    """The one filtration DFS.  For every filtration type and every admissible
    tuple of :func:`_candidate_rows`, call ``leaf(ranks, key, scaled_c2, tags)``,
    where ``key`` spells the chosen rows' digits in radix n + 1, n the
    number of rows, so ``classes`` of :func:`_candidate_rows` decodes it
    (:func:`key_prefixes`), and every key of a type has the same length;
    ``scaled_c2`` is the c_2 lower bound times :func:`_scale` and ``tags`` the
    leaf's filter bits: its last row's bits, masked by its type.  ``DM``
    counts only for type 1 < s+1 with s > r, and ``ELLIPTIC`` only when the
    top quotient has rank s+1 - r_m >= 2.  A leaf with a tag in ``drop`` is
    checked like any other but not emitted, and its children are entered.

    Without ``cut``, the walk plans the rank loop of each node state once
    and replays the plan at every visit of that state (module docstring,
    "Node states"); the plans live in a dict local to this call.  With
    ``cut``, the caller reads a kept leaf only when its scaled_c2 is
    below every earlier one, and the walk skips, unchecked, every subtree
    and row whose leaves all have scaled_c2 at least the least kept one so
    far (module docstring, "Branch and bound"); as what it skips depends on
    the leaves before, each node checks and emits its rows one by one.

    A node emits all its children's leaves before it descends into any
    child, so the leaves of the shortest types come first.  The module
    docstring proves that the interval cuts, the prefix sharing, the
    pruning and the replayed plans emit exactly the leaves of the per-type
    search, in this order ("Interval cuts", "Prefix sharing", "Pruning",
    "Node states"), and where the step table and the rows come from
    ("Scaled integers").  A lattice without candidate rows emits no leaf.

    Raises ValueError for s < 1, where no type exists and an empty walk
    would read as "every e certified", and for Delta >= 0 or r = 0 through
    :func:`destab_box`, which :func:`_candidate_rows` reaches first; and
    RuntimeError for a leaf that fails its step check (:func:`_check_step`),
    which the uncut walk raises before the leaf's node emits any leaf.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    rows, hs, classes = _candidate_rows(basis)
    if not rows:
        return  # no candidate class: no type has an admissible step
    # a step of rank rho adds T = half[rho]*(f.f) + D*(f.p) + const[rho] with
    # f = c_i - c_{i-1}, p = c_{i-1}: the stable-factor bound plus the
    # recursion term, times D; masks[r] are the tags a leaf of type
    # (..., r, s+1) can carry
    big, half, const, masks = _step_table(s, s > basis.r)
    htot, top = basis.h_square, s + 1
    count, hmax, radix = len(rows), hs[-1], len(classes)
    # E_0 = 0, so c.p = p.p = 0; its digit 0 names classes[0], the zero class
    root = (0, 0, 0, 0, 0, htot, 0, 0)
    if not cut:
        plans = {}  # the rank loop of each node state, for this walk only

        def plan(ranks: tuple[int, ...], p: tuple, state: tuple, key: int) -> tuple:
            # the rank loop of the node state (module docstring, "Node
            # states") with acc = 0, as (emits, descents): emits holds
            # (r, [(digit, end, tags), ...]) for the kept leaves, descents
            # (r, [(row, total, child state), ...]) for the children; ranks
            # and key name the first visit's leaf in a step-check error,
            # which raises before that visit emits any leaf
            rm, _, hpp, dr = state
            hp, pp, pv = p[0], p[3], p[4]
            emits, descents, start = [], [], 0
            for r in range(rm + 1, top):
                a = r - rm
                lo = -(-(htot * a + hp * (top - r)) // (top - rm))
                start = bisect_left(hs, lo, start)
                if start == count:
                    break
                stop = bisect_right(hs, hp + (hp - hpp) * a // dr, start) if dr else count
                if start == stop:
                    continue
                hm, cm, hn, cn, mask = half[a], const[a], half[top - r], const[top - r], masks[r]
                wide, room = top - r - 1, hmax * (top - r) - htot
                leaves, kids = [], []
                for c in rows[start:stop]:
                    cp = c[1] * hp + c[2] * pv
                    total = hm * (c[3] - 2 * cp + pp) + big * (cp - pp) + cm
                    what = _check_step(htot, top, rm, hp, dr, hpp, r, c)
                    if what:
                        raise _leaf_error(basis, (0, *ranks, r, top), key * radix + c[7], what)
                    tags = c[6] & mask
                    if not tags & drop:
                        leaves.append((c[7], total + hn * c[5] + big * (c[0] - c[3]) + cn, tags))
                    if c[0] * wide <= room:
                        kids.append((c, total, (r, c[7], hp, a)))
                if leaves:
                    emits.append((r, leaves))
                if kids:
                    descents.append((r, kids))
            return emits, descents

        def replay(ranks: tuple[int, ...], p: tuple, state: tuple, acc: int, key: int) -> None:
            # p is the row of c_m, state = (r_m, its digit, H.c_{m-1},
            # r_m - r_{m-1}), acc the scaled bound of steps 1..m, key the
            # digits of c_1..c_m
            steps = plans.get(state)
            if steps is None:
                steps = plans[state] = plan(ranks, p, state, key)
            key *= radix  # a child's key adds its row's digit
            emits, descents = steps
            for r, leaves in emits:
                leaf_ranks = ranks + (r, top)
                for digit, end, tags in leaves:
                    leaf(leaf_ranks, key + digit, acc + end, tags)
            for r, kids in descents:
                kid = ranks + (r,)
                for c, total, child in kids:
                    replay(kid, c, child, acc + total, key + c[7])

        replay((), root, (0, 0, 0, 0), 0, 0)
        return

    # t is the least kept total so far less 1 (None before the first), and
    # the walk skips what bounds above t (module docstring, "Branch and
    # bound"); dl = |Delta| and mn = min(|Delta|, 2 H^2)
    t = None
    dl = -basis.discriminant
    mn = min(dl, 2 * htot)

    def node(
        ranks: tuple[int, ...], rm: int, p: tuple, hpp: int, dr: int, acc: int, key: int
    ) -> None:
        # p is the row of c_m, rm = r_m, hpp = H.c_{m-1}, dr = r_m - r_{m-1},
        # acc the scaled bound of steps 1..m, key the digits of c_1..c_m
        nonlocal t
        hp, pp, pv = p[0], p[3], p[4]
        key *= radix  # a child's key adds its row's digit
        children = []
        start = 0
        # the interval bound skips a row (r_m + a, h) iff
        # a (base - 2 H^2 t) > den (h - h_m)
        base = htot * (2 * acc + big * (htot - pp)) + (top - rm) * big * mn
        den = big * (htot - hp)
        for r in range(rm + 1, top):
            a = r - rm
            # the lower end never decreases in r, so no later r has a row
            # either once it passes hmax (module docstring, "Pruning")
            lo = -(-(htot * a + hp * (top - r)) // (top - rm))
            if t is not None:
                lo = max(lo, hp - (-a * (base - 2 * htot * t) // den))
            start = bisect_left(hs, lo, start)
            if start == count:
                break
            stop = bisect_right(hs, hp + (hp - hpp) * a // dr, start) if dr else count
            if start == stop:
                continue
            kid = ranks + (r,)
            leaf_ranks = kid + (top,)
            hm, cm, hn, cn, mask = half[a], const[a], half[top - r], const[top - r], masks[r]
            # a child P = (r, h) has its lower end at rank r + 1 inside the
            # rows iff h * (top - r - 1) + H^2 <= hmax * (top - r); never at r = s
            wide, room = top - r - 1, hmax * (top - r) - htot
            for c in rows[start:stop]:
                cp = c[1] * hp + c[2] * pv
                total = acc + hm * (c[3] - 2 * cp + pp) + big * (cp - pp) + cm
                what = _check_step(htot, top, rm, hp, dr, hpp, r, c)
                if what:
                    raise _leaf_error(basis, (0,) + leaf_ranks, key + c[7], what)
                tags = c[6] & mask
                if not tags & drop:
                    # closing step to E_top with c1 = H: f.f = (H-c)^2, f.p = H.c - c.c
                    end = total + hn * c[5] + big * (c[0] - c[3]) + cn
                    leaf(leaf_ranks, key + c[7], end, tags)
                    if t is None or end <= t:
                        t = end - 1
                if c[0] * wide <= room:
                    children.append((kid, r, c, a, total))
        for kid, r, c, a, total in children:
            if t is not None:
                # the descent bound of the leaves strictly below c exceeds t,
                # both times 2 H^2 D a R with R = s+1 - r
                h, rest = c[0], top - r
                if a * rest * htot * (2 * (total - t) + big * (htot - c[3])) + a * big * max(
                    rest * rest * mn, dl * c[2] * c[2]
                ) > rest * big * (h - hp) * (htot - h):
                    continue
            node(kid, r, c, hp, a, total, key + c[7])

    node((), 0, root, 0, 0, 0, 0)


# enumerate_assignments refuses more workers than this; it runs serially anyway
MAX_WORKERS = 64

# enumerate_assignments stops, with ValueError, once its kept listing passes
# this many assignments: the listing grows about 5-7x per step in s
MAX_ASSIGNMENTS = 100_000


class Memo(dict):
    """A dict that builds the value of each missing key once, by
    ``render(key)``."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        value = self[key] = self.render(key)
        return value


def key_prefixes(radix: int, extend, empty) -> Memo:
    """The one decoder of the walk's keys: a :class:`Memo` whose entry p is
    ``extend(prefixes[p // radix], p % radix)``, from the prefix one digit
    shorter and the last digit, and whose entry 0 is ``empty``.  As every
    digit is at least 1, p = 0 only for the empty prefix, and one int spells
    one string of digits, whatever its type.  A listing keyed this way
    decodes or renders only its distinct prefixes, where siblings share all
    classes but the last."""
    prefixes = Memo(lambda p: extend(prefixes[p // radix], p % radix))
    prefixes[0] = empty
    return prefixes


def _class_prefixes(classes: tuple[LatticeClass, ...]) -> Memo:
    """The :func:`key_prefixes` of the tuples of classes that keys spell,
    with ``classes`` of :func:`_candidate_rows`."""
    return key_prefixes(len(classes), lambda pre, digit: pre + (classes[digit],), ())


def listing_records(basis: LatticeBasis, s: int, config: FilterConfig | None = None):
    """The one listing core: ``(D, classes, [(ranks, records), ...])``,
    D = :func:`_scale`, one record ``(key, scaled_c2, tags)`` per kept leaf.
    ``classes`` is that of :func:`_candidate_rows`, (0, c_1, ..., c_n), and
    a record's key is its leaf's walk key: its classes, without the common
    last class H, as digits in radix R = len(classes) = n + 1.  The digits
    are at least 1, so no key loses its leading class, and every key of a
    type has the same length, so the int order of the keys is the (a, b)
    order of their classes.  Each type's records are sorted once on their
    keys, which are unique within a type, and the types go by
    (length, ranks): the order of :meth:`Assignment.sort_key`.
    :func:`key_prefixes` decodes the keys.  The walk drops the leaves that
    the config filters and hands over the tags of the rest, which the
    records name; the leaf stops with ValueError at the first kept leaf past
    :data:`MAX_ASSIGNMENTS`, so neither memory nor work is unbounded.
    Raises the errors of :func:`_walk`: s < 1, Delta >= 0 or r = 0."""
    classes = _candidate_rows(basis)[2]
    cap, first = MAX_ASSIGNMENTS, itemgetter(0)
    groups, kept = defaultdict(list), 0  # records by type, kept leaves

    def leaf(ranks, key, total, tags):
        nonlocal kept
        kept += 1
        if kept > cap:
            raise ValueError(
                f"the listing of {basis} at s = {s} passes {cap} assignments, "
                f"the most a K3 listing keeps"
            )
        groups[ranks].append((key, total, _TAG_NAMES[tags]))

    _walk(basis, s, _drop_mask(config), leaf)
    order = sorted(groups, key=lambda ranks: (len(ranks), ranks))
    records = [(ranks, sorted(groups[ranks], key=first)) for ranks in order]
    return _scale(s), classes, records


def enumerate_assignments(
    basis: LatticeBasis,
    s: int,
    config: FilterConfig | None = None,
    workers: int = 1,
) -> list[Assignment]:
    """All admissible assignments for a rank-(s+1) Lazarsfeld-Mukai bundle on
    the given lattice, with config filters applied, sorted canonically
    (type length, type, then chern classes lexicographically).

    One :class:`Assignment` per record of :func:`listing_records`, in its
    order.  Its classes are the decoded key: the tuple of the key's prefix,
    built once per distinct prefix (:func:`key_prefixes`), then the class of
    the last digit and H.  The bound ``Fraction(scaled_c2, D)`` is built
    once per distinct scaled bound and shared.  ``workers`` must be an int
    in 1..MAX_WORKERS (else ValueError) and is otherwise ignored: the search
    is serial, because a thread pool over the filtration types ran slower
    under the GIL.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an int, got {workers!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")
    big, classes, groups = listing_records(basis, s, config)
    radix, prefixes = len(classes), _class_prefixes(classes)
    lasts = [(c, H) for c in classes]
    bounds = dict.fromkeys(total for _, records in groups for _, total, _ in records)
    bounds = {total: Fraction(total, big) for total in bounds}
    return [
        tuple.__new__(
            Assignment, (ranks, prefixes[key // radix] + lasts[key % radix], bounds[total], flags)
        )
        for ranks, records in groups
        for key, total, flags in records
    ]


class _FloorReached(Exception):
    """Ends a floored minimum-only walk at its first kept leaf <= 2s."""


@lru_cache(maxsize=4096)
def _min_bound_cached(g: int, r: int, d: int, s: int, drop: int, floored: bool):
    """The one cache of minimum-only searches, keyed on plain values: the
    lattice (g, r, d), the series s, the drop mask of the filters
    (:func:`_drop_mask`) and whether the search stops at the Clifford floor
    2s (module docstring).  A hit hashes only these; the basis is built on
    a miss.  Bounds are scaled integers (times D = :func:`_scale`), and an
    entry is None when no assignment is kept.

    A floored entry is the minimum bound, an int: exact whenever it is
    > 2s * D, and <= 2s * D otherwise; :func:`k3_certified_below` turns it
    into a degree bound in integers.  Its leaf compares one integer, and
    its walk runs with the cut of branch and bound, which skips every
    subtree that cannot hold a new minimum: the entry is the one that the
    uncut walk gives, bit for bit (module docstring).  An
    exact entry is the least kept leaf by (bound, :meth:`Assignment.sort_key`),
    as ``(scaled_c2, len(ranks), ranks, key, tags)`` with the leaf's walk
    key, which spells its classes without the last H: every key of one type
    has the same length, so within a type the keys order as the classes do.
    :func:`min_series_degree` reads its bound and :func:`k3_expected`
    decodes its witness."""
    basis = LatticeBasis(g, r, d)
    best = None
    if floored:
        limit = 2 * s * _scale(s)

        def leaf(ranks, key, total, tags):
            nonlocal best
            if best is None or total < best:
                best = total
                if total <= limit:
                    raise _FloorReached

    else:

        def leaf(ranks, key, total, tags):
            nonlocal best
            found = (total, len(ranks), ranks, key, tags)
            if best is None or found < best:
                best = found

    try:
        _walk(basis, s, drop, leaf, floored)
    except _FloorReached:
        pass
    return best


def min_series_degree(
    basis: LatticeBasis, s: int, config: FilterConfig | None = None
) -> Fraction | None:
    """Minimum c_2 lower bound over all (filtered) assignments, or None when
    no assignment exists.  A smooth curve in |H| admits no g^s_e for any
    integer e strictly below this value (and none at all when None).

    This is the minimum-only path of the shared DFS core: it reads the bound
    of the least kept leaf that the exact search caches per (lattice, s,
    filters), with no Assignment and no Fraction per leaf, and returns
    ``Fraction(bound, D)``.  The certificates stop at the Clifford floor
    instead (:func:`k3_certified_below`).  Raises the errors of
    :func:`_walk`: s < 1, Delta >= 0 or r = 0.
    """
    least = _min_bound_cached(basis.g, basis.r, basis.d, s, _drop_mask(config), False)
    return None if least is None else Fraction(least[0], _scale(s))


def _has_lattice(g: int, r: int, d: int, s: int, e: int) -> bool:
    """The prelude of both K3 locus queries: raise ValueError unless
    M^r_{g,d} and M^s_{g,e} are proper loci, then say whether Delta(g, r, d)
    < 0, i.e. whether the lattice Lambda^r_{g,d} exists.  A proper target
    has e >= 2s, which is what makes the Clifford floor 2s a sound early
    stop; no K3 walk starts before both loci pass."""
    _require_proper_locus(g, r, d)
    _require_proper_locus(g, s, e)
    return delta(g, r, d) < 0


def k3_certified_below(
    g: int, r: int, d: int, s: int, config: FilterConfig | None = None
) -> int | None:
    """The degree below which Lambda^r_{g,d} certifies every rank-s target:
    for a proper locus M^s_{g,e}, every kept assignment forces c_2 > e iff
    e < the returned bound, and None means that no assignment is kept, so
    every e is certified.  Needs Delta(g, r, d) < 0.

    The bound is ceil(m / D) for the cached minimum m (times D =
    :func:`_scale`) of the search floored at 2s: m > e * D iff
    e < ceil(m / D) for an integer e.  When m <= 2s * D the floored search
    stopped early, and the bound is <= 2s <= e for every proper target, so
    none is certified, exactly as with the exact minimum.  It is one integer
    per (lattice, s, filters): :func:`k3_noncontainment` decides through it,
    and :func:`~bnloci.poset.rule_sources` cuts a K3 row with one bisection
    of the target degrees of rank s.
    """
    m = _min_bound_cached(g, r, d, s, _drop_mask(config), True)
    return None if m is None else -(-m // _scale(s))


def _certifies(g: int, r: int, d: int, s: int, e: int, config: FilterConfig | None) -> bool:
    """Whether Lambda^r_{g,d} certifies M^r_{g,d} !<= M^s_{g,e} under
    ``config``: :func:`k3_certified_below` is None, or e is below it."""
    below = k3_certified_below(g, r, d, s, config)
    return below is None or e < below


def k3_noncontainment(
    g: int, r: int, d: int, s: int, e: int, config: FilterConfig | None = None
) -> Relation | None:
    """Certified non-containment M^r_{g,d} !<= M^s_{g,e} from the lattice
    Lambda^r_{g,d}: emitted when Delta < 0 and every admissible assignment
    for a rank-(s+1) bundle forces c_2 > e (or none exists at all).

    Filters default to off so the certificate never relies on them; when a
    filter-enabled config is decisive, the provenance records it.

    Both loci must be proper loci, else ValueError from the prelude
    :func:`_has_lattice` that :func:`k3_expected` shares.  Since e >= 2s,
    both searches stop at the Clifford floor 2s: a kept assignment with
    bound <= 2s already rules out a certificate.  One predicate, "e is
    below :func:`k3_certified_below`, or that is None", decides the
    certificate under ``config`` and, unfiltered, whether the provenance
    names the filters; it is in integers, and a cached query builds no
    basis and no Fraction.
    """
    if not _has_lattice(g, r, d, s, e):
        return None
    if not _certifies(g, r, d, s, e, config):
        return None
    provenance = "k3"
    drop = _drop_mask(config)
    if drop and not _certifies(g, r, d, s, e, None):
        provenance = "k3[" + ",".join(_TAG_NAMES[drop]) + "]"
    # the prelude checked both loci, so they skip the weaker check of BNLocus
    lhs, rhs = tuple.__new__(BNLocus, (g, r, d)), tuple.__new__(BNLocus, (g, s, e))
    return Relation(lhs, rhs, RelKind.NLE, provenance)


class K3Expectation(namedtuple("K3Expectation", "g r d s e witness")):
    """A potential containment M^r_{g,d} <= M^s_{g,e} that holds for smooth
    hyperplane sections of general K3s with Picard lattice Lambda^r_{g,d},
    witnessed by an assignment with c_2 bound <= e.  An expectation, not a
    proof: witnesses need not come from genuine filtrations.  ``witness``
    is the :class:`Assignment`."""

    __slots__ = ()


def k3_expected(
    g: int, r: int, d: int, s: int, e: int, config: FilterConfig | None = None
) -> K3Expectation | None:
    """Flag M^r_{g,d} <= M^s_{g,e} as K3-expected when a filtered assignment
    with c_2 bound <= e survives; filters default to on here, matching how
    expectations are read off in practice.  Never emits a Relation.  Both
    loci must be proper loci, else ValueError from the prelude
    :func:`_has_lattice` that :func:`k3_noncontainment` shares.

    The witness is the least such assignment by (bound,
    :meth:`Assignment.sort_key`): the least kept leaf of the exact search
    that :func:`min_series_degree` also reads, which is the witness iff its
    bound is <= e; its classes are its key, decoded.  So every e costs one cached walk per (lattice, s,
    filters), and no listing is built, so :data:`MAX_ASSIGNMENTS` does not
    apply."""
    if not _has_lattice(g, r, d, s, e):
        return None
    drop = _drop_mask(config if config is not None else BOTH_FILTERS)
    least = _min_bound_cached(g, r, d, s, drop, False)
    big = _scale(s)
    if least is None or least[0] > e * big:
        return None
    total, _, ranks, key, tags = least
    chern = _class_prefixes(_candidate_rows(LatticeBasis(g, r, d))[2])[key] + (H,)
    witness = Assignment(ranks, chern, Fraction(total, big), _TAG_NAMES[tags])
    return K3Expectation(g, r, d, s, e, witness)
