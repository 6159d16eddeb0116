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

Two depth-first searches run over the same rank prefixes, not over
filtration types, so that a prefix shared by many types is visited once.
:func:`_walk` serves the listing path (:func:`listing_records`), and
:func:`_least` both minimum-only paths, the floored one of
:func:`k3_certified_below` and the exact one of :func:`min_series_degree`
and :func:`k3_expected`.

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
emits is checked (the minimum searches skip more; see "Branch and bound").
A lattice with no candidate row has no admissible step at all, and the
walk returns at once.

Node states.  A node's rank loop reads only its state: r_m, the row of c_m
(named by its digit), H.c_{m-1} and r_m - r_{m-1}.  The interval ends read
r_m, H.c_m, H.c_{m-1} and the rank step; a row's step check, its step term,
its closing term, its tags and whether it has a child read the same and the
row.  The scaled bound acc of steps 1..m only adds to every total, the key
only leads every child's digits, and the ranks r_1..r_m only lead every
type.  So the listing's walk, :func:`_walk`, plans the loop of each
state once, at its first visit, with acc = 0: per rank, the kept leaves as
(digit, end, tags) and the children as (row, total, state).  Every visit,
the first included, replays the plan: it adds acc to every bound and the
node's key times n + 1 to every digit, sets the bit of each planned rank in
the node's rank bitmask once (``ranks | 1 << r``, the type of that rank's
leaves and the ranks of its children alike), emits the leaves in the plan's
order and then enters the children in theirs, which is the order of a node
that checks and emits row by row.  The plans live in a dict local to one
walk.  On the five listing jobs of the benchmark the walk enters far
fewer states than nodes and checks each (state, row) pair once, not one
row per leaf (``test_listing_checks_each_node_state_row_once`` pins both
counts).

Scaled integers.  The c_2 bound is a sum of one term per filtration step
whose denominators divide 2 rho_i with rho_i <= s+1, so the search carries
it as an integer times D = 2 lcm(1..s+1); the minimum cache,
k3_noncontainment, the listing records and ``bn k3``'s bound text stay in
integers (:func:`bound_text`), and a Fraction is built only for an
Assignment or a minimum that a caller reads, once per distinct bound.  So
``fractions`` is imported inside the three functions that build one
(:func:`enumerate_assignments`, :func:`min_series_degree`,
:func:`k3_expected`), not at module level: no
``bn verify``, ``bn poset`` or ``bn k3`` run builds a Fraction, and a fresh
process that loads none saves the 3 ms of importing ``fractions`` with
``decimal`` and ``numbers``.  A
leaf's filtration type reaches its caller as one int too, a bitmask with
bit r set for each rank r_i: every node carries the bits of r_1..r_m and
of s+1, so a child or a leaf of rank r adds one bit, and the readers decode
each distinct type once (:func:`type_ranks`), while the exact minimum
decodes only the leaves that tie or beat its least bound.  The step table
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
which builds each shared prefix once, in one frame.

Every leaf, on every path, is checked in integers, with no bisection or
rounding shared with the cuts, and a failure raises RuntimeError, which,
unlike an assert, survives python -O.  The check is step-wise
(:func:`_check_step`): a leaf pays for the conditions that its last step
adds, not for its whole chain.  Those read only the leaf's node state and
its last row, so the listing's walk checks each (state, row) once, when it
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
floored walk (:func:`_least` with the floor 2s D) returns from its loop at
the first kept leaf whose bound is <= 2s, with that bound, and otherwise
returns the least kept bound, which is exact whenever it is > 2s, and <= 2s
otherwise, which decides "minimum > e" for every e >= 2s alike.  The exact
walk (:func:`_least` with no floor) keeps the least kept leaf by (bound,
sort key), which gives :func:`min_series_degree` its bound and
:func:`k3_expected` its witness for every e.  The candidate rows depend on
the lattice alone, so they are built once per lattice and shared by every
s.  The floored minimum m of a (lattice, s) gives one integer, ceil(m / D)
(:func:`k3_certified_below`), and a proper target M^s_{g,e} is certified
iff e is below it, so every query at that (lattice, s) is one comparison.

Branch and bound.  Both minimum walks keep their own minimum, and a kept
leaf matters to it only when its bound is at most ``best``, the least kept
bound so far: the floored walk needs only the leaves below ``best``, and
the exact walk also the ties, which its sort key decides.  So both walk
with a cut (the branch and bound of Land and Doig) that skips every
subtree and row whose leaves all have bound above ``best``.  The lower
bound is exact algebra on the lattice.  Write a leaf's factors as rank
rho_j and class f_j = c_j - c_{j-1}, so sum_j f_j = H.  As
H^2 = sum_j f_j^2 + 2 sum_j f_j.c_{j-1}, the walk's step sum is

    T = H^2/2 + sum_j (rho_j - 1/rho_j - f_j^2 / (2 rho_j)),

and by the same identity for c_m, the scaled sum acc of steps 1..m at a
node P_m is D times this form with c_m^2/2 in place of H^2/2.  So every
leaf below the node has bound

    acc/D - c_m^2/2 + H^2/2 + sum_{j>m} (rho_j - 1/rho_j - f_j^2 / (2 rho_j)),

and two facts bound the remaining terms from below.

- Hodge index.  For f = aH + bL, H^2 f^2 = (H.f)^2 + b^2 Delta with
  Delta = H^2 L^2 - d^2 < 0.  Every factor has 0 < H.f_j < H^2: the step
  slopes do not increase, the last is positive (H.(H-c) > 0), and there
  are at least two steps, whose H-degrees sum to H^2.  So f_j is no
  multiple of H and b_j != 0.  With k = |Delta| / (2 H^2) a term reads
  rho - 1/rho + k b^2/rho - (H.f)^2 / (2 rho H^2), and as b^2 >= 1,
  rho - 1/rho + k b^2/rho >= rho min(k, 1): for k >= 1 drop 1/rho
  against k/rho, and for k < 1 use rho (1-k) >= (1-k)/rho.  The
  remaining factors have total rank R = s+1 - r_m, so their terms other
  than (H.f)^2 add up to at least R min(k, 1).
- Concavity.  The step slopes mu_j = H.f_j / rho_j do not increase, so for
  j > m none exceeds mu, the slope of step m+1 or of any earlier step, and
  sum_{j>m} (H.f_j)^2 / rho_j = sum_{j>m} mu_j H.f_j <= mu (H^2 - h_m).

So every leaf below the node P_m whose step m+1 has slope at most mu has
bound at least

    acc/D - c_m^2/2 + H^2/2 - mu (H^2 - h_m) / (2 H^2) + R min(k, 1),

which falls as mu rises.  Both walks hold t = best, scaled, and skip only
when this bound times D exceeds t.  Times 2 a H^2, with mu = (h - h_m)/a
and mn = min(|Delta|, 2 H^2), it exceeds t iff a N > D (h - h_m)(H^2 - h_m),
with N = H^2 (2 (acc - t) + D (H^2 - c_m^2)) + R D mn.  The walks apply it
twice per node:

- Rows.  A row of H-degree h at rank r_m + a is the step m+1 of every leaf
  through it, with mu = (h - h_m)/a.  The test decreases in h, so the rows
  kept are those with h >= h_m + ceil(a N / (D (H^2 - h_m))), and the
  interval's lower end rises to the larger of this and the lower end of
  "Interval cuts", in the one bisection.  The raised end matters only when
  N > 0, where it grows with a, and t never rises, so the lower end still
  never decreases in r, and the rank loop ends as in "Pruning".
- The node's own step.  With a = r_m - r_{m-1} and mu = (h_m - h_{m-1})/a,
  the slope of step m, the bound holds for every leaf below the node, as
  the upper end of "Interval cuts" makes no row steeper than the node's
  own step; the test reads a N > D (h_m - h_{m-1})(H^2 - h_m), with the
  node's own N.  When it holds, every row of the node would be skipped,
  so the walk runs it once, on entry, and skips the whole node before its
  rank loop.  The root has a = 0, where the test reads 0 > 0, so it is
  never skipped.

The exact walk also keeps its least leaf by (bound, sort key), and decodes
a leaf's type (:func:`type_ranks`) only when its bound is <= t, so only
for a leaf that ties or beats ``best``; the floored walk calls nothing per
kept leaf.  The bound reads t, which falls as a walk keeps leaves, within a
node too, so the rows that it reads at a node state depend on the leaves
before them: each node checks its rows one by one, and no plan of "Node
states" can stand for it.

Both minimum walks run as one loop over an explicit stack of node states
(ranks, r_m, the row of c_m, H.c_{m-1}, r_m - r_{m-1}, acc, key).  Each pop
runs the entry test against t and the node's rank loop, then pushes the
node's children in reverse, so that each child is entered in depth-first
order, after its elder siblings' subtrees, and its entry test reads the t
that they left.  A walk builds no closure and no reference cycle, so all it
builds is freed by reference counting when it returns, not by the cyclic GC.

Why the answer is unchanged.  A walk skips a leaf only when the leaf's
bound is above t = best at the time of the skip, and best never rises.  So
a skipped leaf can neither beat nor tie the least kept bound so far, then
or later.  Nor can it be the first kept leaf <= 2s that ends the floored
walk: once best <= 2s, the floored walk has already stopped.  Every leaf
that ties or beats the least so far is thus reached, in the order of the
uncut walk, and no other leaf moves t or stops the walk.  So the floored
entry, t when the walk stops or ends, is the least bound of the uncut
walk's kept leaves up to the first one <= 2s, the same int, bit for bit,
and :func:`k3_certified_below` keeps its exact ceil(m / D) contract.  The
least leaf by (bound, sort key) does not depend on the order of visits, so
the exact entry is the uncut walk's least kept leaf, witness and all.
Every row that a walk visits is checked before its leaf's bound is read,
so the step-wise check above holds for every leaf that can move t.  The
listing, which needs every leaf, runs :func:`_walk`, which has no cut and
replays the node states' plans ("Node states").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import gcd, lcm

from .lattice import H, ZERO, LatticeBasis, LatticeClass, delta, floor_sqrt_ratio, pair
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


def type_text(ranks: tuple[int, ...]) -> str:
    """A filtration type as text, its ranks joined by '<' (``1<3<4``)."""
    return "<".join(map(str, ranks))


def type_ranks(mask: int) -> tuple[int, ...]:
    """The one decoder of the walk's filtration types: the ranks
    r_1 < ... < r_n = s+1 of the type whose rank bitmask ``mask`` sets bit
    r for each r_i, in increasing order.  Bit 0 is never set, and the
    highest set bit is s+1, so the tuple ends in s+1."""
    return tuple(r for r in range(1, mask.bit_length()) if mask >> r & 1)


def bound_text(total: int, big: int) -> str:
    """``str(Fraction(total, big))`` for big >= 1, in integers: the reduced
    numerator, then ``/`` and the reduced denominator unless that is 1."""
    div = gcd(total, big)
    num, den = total // div, big // div
    return f"{num}/{den}" if den != 1 else str(num)


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


def _leaf_error(basis: LatticeBasis, ranks: int, key: int, what: str) -> RuntimeError:
    """The error of a leaf of type bitmask ``ranks`` and walk key ``key``
    that fails its step check, naming the H-degrees of its chain and its
    ranks, led by 0."""
    chern = _class_prefixes(_candidate_rows(basis)[2])[key]
    hd = (0, *[pair(basis, H, c) for c in chern], basis.h_square)
    return RuntimeError(f"DFS leaf {hd} over ranks {(0, *type_ranks(ranks))} violates {what}")


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
    basis: LatticeBasis, s: int, drop: int, leaf: Callable[[int, int, int, int], None]
) -> None:
    """The listing walk: for every filtration type and every admissible tuple
    of :func:`_candidate_rows`, call ``leaf(ranks, key, scaled_c2, tags)``,
    where ``ranks`` is the type r_1 < ... < r_n = s+1 as an int with bit r
    set for each r_i, which :func:`type_ranks` decodes; ``key`` spells the
    chosen rows' digits in radix n + 1, n the number of rows, so ``classes``
    of :func:`_candidate_rows` decodes it (:func:`key_prefixes`), and every
    key of a type has the same length; ``scaled_c2`` is the c_2 lower bound
    times :func:`_scale` and ``tags`` the leaf's filter bits: its last row's
    bits, masked by its type.  ``DM`` counts only for type 1 < s+1 with
    s > r, and ``ELLIPTIC`` only when the top quotient has rank
    s+1 - r_m >= 2.  A leaf with a tag in ``drop`` is checked like any other
    but not emitted, and its children are entered.  A lattice without
    candidate rows has no leaf.

    A node emits all its children's leaves before it descends into any
    child, so the leaves of the shortest types come first.  The module
    docstring proves that these are exactly the leaves of the per-type
    search, in this order ("Interval cuts", "Prefix sharing", "Pruning"),
    that each node state's plan, made once in a dict local to this call and
    replayed at every visit, emits them unchanged ("Node states"), and says
    where the step table and the rows come from ("Scaled integers").

    Raises ValueError for s < 1, where no type exists, and for Delta >= 0
    or r = 0 through :func:`destab_box`; and RuntimeError for a leaf that
    fails its step check (:func:`_check_step`), before the leaf's node emits
    any leaf.
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
    plans = {}  # the rank loop of each node state, for this walk only

    def plan(ranks: int, p: tuple, state: tuple, key: int) -> tuple:
        # the rank loop of the node state (module docstring, "Node
        # states") with acc = 0, as (emits, descents): emits holds
        # (1 << r, [(digit, end, tags), ...]) for the kept leaves,
        # descents (1 << r, [(row, total, child state), ...]) for the
        # children; ranks and key name the first visit's leaf in a
        # step-check error, which raises before that visit emits any leaf
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
                    raise _leaf_error(basis, ranks | 1 << r, key * radix + c[7], what)
                tags = c[6] & mask
                if not tags & drop:
                    leaves.append((c[7], total + hn * c[5] + big * (c[0] - c[3]) + cn, tags))
                if c[0] * wide <= room:
                    kids.append((c, total, (r, c[7], hp, a)))
            if leaves:
                emits.append((1 << r, leaves))
            if kids:
                descents.append((1 << r, kids))
        return emits, descents

    def replay(ranks: int, p: tuple, state: tuple, acc: int, key: int) -> None:
        # ranks is the bitmask of r_1..r_m and s+1, p the row of c_m,
        # state = (r_m, its digit, H.c_{m-1}, r_m - r_{m-1}), acc the
        # scaled bound of steps 1..m, key the digits of c_1..c_m
        steps = plans.get(state)
        if steps is None:
            steps = plans[state] = plan(ranks, p, state, key)
        key *= radix  # a child's key adds its row's digit
        emits, descents = steps
        for bit, leaves in emits:
            kind = ranks | bit
            for digit, end, tags in leaves:
                leaf(kind, key + digit, acc + end, tags)
        for bit, kids in descents:
            kind = ranks | bit
            for c, total, child in kids:
                replay(kind, c, child, acc + total, key + c[7])

    replay(1 << top, root, (0, 0, 0, 0), 0, 0)


def _least(basis: LatticeBasis, s: int, drop: int, floor: int | None) -> int | tuple | None:
    """The minimum search over the leaves that :func:`_walk` would emit
    under ``drop``, with the cut of branch and bound: it skips, unchecked,
    every subtree and row whose leaves all have scaled_c2 above the least
    kept one so far, and checks every row that it visits.  An int ``floor``
    makes it the floored search: it returns the least scaled_c2 of the kept
    leaves, or None when it keeps none, and returns at its first kept leaf
    <= floor, with that leaf's scaled_c2 ("The Clifford floor").  With
    ``floor`` None it is the exact search: it returns the least kept leaf by
    (scaled_c2, :meth:`Assignment.sort_key`) as ``(scaled_c2, len(ranks),
    ranks, key, tags)``, with the ranks decoded to a tuple, or None when it
    keeps none.

    The module docstring proves the cut ("Branch and bound") and that both
    answers are those of :func:`_walk`'s leaves read in order ("Why the
    answer is unchanged").  Raises the errors of :func:`_walk`: ValueError
    for s < 1, where an empty search would read as "every e certified", and
    for Delta >= 0 or r = 0, and RuntimeError for a visited row that fails
    its step check.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    rows, hs, classes = _candidate_rows(basis)
    if not rows:
        return None  # no candidate class: no type has an admissible step
    # a step of rank rho adds T = half[rho]*(f.f) + D*(f.p) + const[rho] with
    # f = c_i - c_{i-1}, p = c_{i-1}: the stable-factor bound plus the
    # recursion term, times D; masks[r] are the tags a leaf of type
    # (..., r, s+1) can carry
    big, half, const, masks = _step_table(s, s > basis.r)
    htot, top = basis.h_square, s + 1
    count, hmax, radix = len(rows), hs[-1], len(classes)
    # E_0 = 0, so c.p = p.p = 0; its digit 0 names classes[0], the zero class
    root = (0, 0, 0, 0, 0, htot, 0, 0)
    # t is the least kept total so far (None before the first), and the walk
    # skips what bounds above t (module docstring, "Branch and bound"); a
    # floored walk returns t at its first kept total <= floor, and the exact
    # one keeps in best its least leaf by sort key; R D mn with
    # mn = min(|Delta|, 2 H^2) is the Hodge term of R remaining ranks, times 2 H^2 D
    t = best = None
    mn = min(-basis.discriminant, 2 * htot)
    # a node state is (ranks, rm, p, hpp, dr, acc, key): ranks the bitmask of
    # r_1..r_m and s+1, rm = r_m, p the row of c_m, hpp = H.c_{m-1},
    # dr = r_m - r_{m-1}, acc the scaled bound of steps 1..m, key the digits
    # of c_1..c_m; a node pushes its children in reverse, so each is entered
    # in the order of the recursion, after its elder siblings' subtrees
    stack = [(1 << top, 0, root, 0, 0, 0, 0)]
    while stack:
        ranks, rm, p, hpp, dr, acc, key = stack.pop()
        hp, pp, pv = p[0], p[3], p[4]
        # the interval bound skips a row (r_m + a, h) iff
        # a (base - 2 H^2 t) > den (h - h_m); no row is steeper than the
        # node's own step (dr, hp - hpp), so when that step is skipped, so is
        # every row, and the node is dropped at once (never the root: dr = 0)
        base = htot * (2 * acc + big * (htot - pp)) + (top - rm) * big * mn
        den = big * (htot - hp)
        if t is not None and dr * (base - 2 * htot * t) > den * (hp - hpp):
            continue
        key *= radix  # a child's key adds its row's digit
        children = []
        start = 0
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
            kind = ranks | 1 << r  # the leaves' type and the children's ranks
            hm, cm, hn, cn, mask = half[a], const[a], half[top - r], const[top - r], masks[r]
            # a child P = (r, h) has its lower end at rank r + 1 inside the
            # rows iff h * (top - r - 1) + H^2 <= hmax * (top - r); never at r = s
            wide, room = top - r - 1, hmax * (top - r) - htot
            for c in rows[start:stop]:
                cp = c[1] * hp + c[2] * pv
                total = acc + hm * (c[3] - 2 * cp + pp) + big * (cp - pp) + cm
                what = _check_step(htot, top, rm, hp, dr, hpp, r, c)
                if what:
                    raise _leaf_error(basis, kind, key + c[7], what)
                if not c[6] & mask & drop:
                    # closing step to E_top with c1 = H: f.f = (H-c)^2, f.p = H.c - c.c
                    end = total + hn * c[5] + big * (c[0] - c[3]) + cn
                    if t is None or end <= t:
                        t = end
                        if floor is None:
                            kinds = type_ranks(kind)
                            found = (end, len(kinds), kinds, key + c[7], c[6] & mask)
                            if best is None or found < best:
                                best = found
                        elif end <= floor:
                            return t
                if c[0] * wide <= room:
                    children.append((kind, r, c, hp, a, total, key + c[7]))
        stack += children[::-1]
    return best if floor is None else t


# enumerate_assignments refuses more workers than this; it runs serially anyway
MAX_WORKERS = 64

# enumerate_assignments stops, with ValueError, once its kept listing passes
# this many assignments: the listing grows about 5-7x per step in s
MAX_ASSIGNMENTS = 100_000


class _Prefixes(dict):
    """The memo of :func:`key_prefixes`: a missing entry p is built in this
    one frame, from the prefix one digit shorter and the tail of the last
    digit."""

    __slots__ = ("tails", "radix")

    def __missing__(self, p):
        value = self[p] = self[p // self.radix] + self.tails[p % self.radix]
        return value


def key_prefixes(tails, empty) -> dict:
    """The one decoder of the walk's keys, in radix R = ``len(tails)``: a
    memo whose entry p is ``prefixes[p // R] + tails[p % R]``, the prefix
    one digit shorter followed by the tail of the last digit, and whose
    entry 0 is ``empty``.  As every digit is at least 1, p = 0 only for the
    empty prefix, and one int spells one string of digits, whatever its
    type.  A listing keyed this way decodes or renders only its distinct
    prefixes, where siblings share all classes but the last, each in one
    frame."""
    prefixes = _Prefixes()
    prefixes.tails, prefixes.radix = tails, len(tails)
    prefixes[0] = empty
    return prefixes


def _class_prefixes(classes: tuple[LatticeClass, ...]) -> dict:
    """The :func:`key_prefixes` of the tuples of classes that keys spell,
    with ``classes`` of :func:`_candidate_rows`."""
    return key_prefixes([(c,) for c in classes], ())


def listing_records(basis: LatticeBasis, s: int, config: FilterConfig | None = None):
    """The one listing core: ``(D, classes, [(ranks, records), ...])``,
    D = :func:`_scale`, one record ``(key, scaled_c2, tags)`` of ints per
    kept leaf.  ``classes`` is that of :func:`_candidate_rows`,
    (0, c_1, ..., c_n), and a record's key is its leaf's walk key: its
    classes, without the common last class H, as digits in radix
    R = len(classes) = n + 1.  The digits are at least 1, so no key loses
    its leading class, and every key of a type has the same length, so the
    int order of the keys is the (a, b) order of their classes.  ``tags``
    holds the leaf's filter bits, which ``_TAG_NAMES[tags]`` names.

    The leaf files each record under its type's rank bitmask, an int, and
    each group is sorted once, natively: the keys are unique within a type,
    so the tuples order as their keys do.  Each distinct type is decoded
    once, by :func:`type_ranks`, and the types go by (length, ranks): the
    order of :meth:`Assignment.sort_key`.  :func:`key_prefixes` decodes the
    keys.  The walk drops the leaves that the config filters, and the leaf
    stops with ValueError at the first kept leaf past
    :data:`MAX_ASSIGNMENTS`, so neither memory nor work is unbounded.
    Raises the errors of :func:`_walk`: s < 1, Delta >= 0 or r = 0."""
    classes = _candidate_rows(basis)[2]
    cap = MAX_ASSIGNMENTS
    groups, kept = defaultdict(list), 0  # records by type bitmask, kept leaves

    def leaf(ranks, key, total, tags):
        nonlocal kept
        kept += 1
        if kept > cap:
            raise ValueError(
                f"the listing of {basis} at s = {s} passes {cap} assignments, "
                f"the most a K3 listing keeps"
            )
        groups[ranks].append((key, total, tags))

    _walk(basis, s, _drop_mask(config), leaf)
    types = {type_ranks(mask): mask for mask in groups}
    records = []
    for ranks in sorted(types, key=lambda ranks: (len(ranks), ranks)):
        group = groups[types[ranks]]
        group.sort()  # the keys are unique, so the tuples order as they do
        records.append((ranks, group))
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
    once per distinct scaled bound and shared, and ``filtered_by`` names
    the record's tag bits.  ``workers`` must be an int
    in 1..MAX_WORKERS (else ValueError) and is otherwise ignored: the search
    is serial, because a thread pool over the filtration types ran slower
    under the GIL.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an int, got {workers!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")
    from fractions import Fraction

    big, classes, groups = listing_records(basis, s, config)
    radix, prefixes = len(classes), _class_prefixes(classes)
    lasts = [(c, H) for c in classes]
    bounds = dict.fromkeys(total for _, records in groups for _, total, _ in records)
    bounds = {total: Fraction(total, big) for total in bounds}
    return [
        tuple.__new__(
            Assignment,
            (ranks, prefixes[key // radix] + lasts[key % radix], bounds[total], _TAG_NAMES[tags]),
        )
        for ranks, records in groups
        for key, total, tags in records
    ]


@lru_cache(maxsize=4096)
def _min_bound_cached(g: int, r: int, d: int, s: int, drop: int, floored: bool):
    """The one cache of minimum-only searches, keyed on plain values: the
    lattice (g, r, d), the series s, the drop mask of the filters
    (:func:`_drop_mask`) and whether the search stops at the Clifford floor
    2s (module docstring).  A hit hashes only these; the basis is built on
    a miss.  Bounds are scaled integers (times D = :func:`_scale`), and an
    entry is None when no assignment is kept.

    Both entries are one :func:`_least` ("Branch and bound"), and the floor
    it gets, 2s * D or None, says which.  A floored entry is an int, the
    minimum bound, exact whenever it is > 2s * D and <= 2s * D otherwise,
    which :func:`k3_certified_below` reads.  An exact entry is the least kept leaf
    by (bound, :meth:`Assignment.sort_key`), as ``(scaled_c2, len(ranks),
    ranks, key, tags)``, whose bound :func:`min_series_degree` reads and
    whose witness :func:`k3_expected` decodes."""
    return _least(LatticeBasis(g, r, d), s, drop, 2 * s * _scale(s) if floored else None)


def min_series_degree(
    basis: LatticeBasis, s: int, config: FilterConfig | None = None
) -> Fraction | None:
    """Minimum c_2 lower bound over all (filtered) assignments, or None when
    no assignment exists.  A smooth curve in |H| admits no g^s_e for any
    integer e strictly below this value (and none at all when None).

    This is the exact minimum-only path: it reads the bound of the least
    kept leaf that the exact search, :func:`_least` with no floor, caches
    per (lattice, s, filters), with no Assignment and no Fraction per leaf,
    and returns ``Fraction(bound, D)``.  The certificates stop at the
    Clifford floor instead (:func:`k3_certified_below`).  Raises the errors
    of :func:`_least`: s < 1, Delta >= 0 or r = 0.
    """
    from fractions import Fraction

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
    bound is <= e; its classes are its key, decoded.  So every e costs one
    cached walk per (lattice, s, filters), with the cut of branch and bound,
    which reaches every leaf that ties the least bound and skips the rest.
    No listing is built, so :data:`MAX_ASSIGNMENTS` does not apply."""
    if not _has_lattice(g, r, d, s, e):
        return None
    drop = _drop_mask(config if config is not None else BOTH_FILTERS)
    least = _min_bound_cached(g, r, d, s, drop, False)
    big = _scale(s)
    if least is None or least[0] > e * big:
        return None
    from fractions import Fraction

    total, _, ranks, key, tags = least
    chern = _class_prefixes(_candidate_rows(LatticeBasis(g, r, d))[2])[key] + (H,)
    witness = Assignment(ranks, chern, Fraction(total, big), _TAG_NAMES[tags])
    return K3Expectation(g, r, d, s, e, witness)
