"""Assemble rule outputs and external facts into a closed relation matrix
over the proper loci of one genus, detect contradictions, and extract the
non-trivial cover diagram.

The closure works on bit rows.  With the loci indexed 0..n-1 in key order,
``up[i]`` is a Python int whose bit j says locus i <= locus j.  One pass of
Warshall's algorithm closes <=, and the equality classes are the mutual
bits.  Once <= is closed, the non-containments close in one pass too: each
propagation rule only moves the left end of a !<= up along <= or its right
end down, so the closure of the seeded !<= cells is exactly
{(B, D) : A <= B, D <= C, (A, C) seeded}, and that set is already closed
under both rules.  A contradiction at such a derived (B, D) would mean
B <= D, so A <= B <= D <= C contradicts the seed (A, C) itself: checking
the seeded !<= cells against <= finds every contradiction.

The closed rows are the matrix: :class:`RelationMatrix` keeps ``up``, the
closed !<= rows and each locus's class representative, and every query is
a row operation on them.  Provenance is kept as derivation records, not
strings: a seeded cell keeps its rule's string, a <= cell derived in
Warshall's round k records k, and a derived !<= cell is credited on read to
the lexicographically first seed that reaches it.  The matrix renders a
cell's provenance string only when it is read, and keeps it.  The cover
diagram is the transitive reduction of ``up`` restricted to the class
representatives.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .classical import coppens_noncontainment, plane_projection_rule, secant_containment
from .k3 import k3_noncontainment
from .lattice import delta
from .loci import (
    BNLocus,
    RelKind,
    Relation,
    clifford_collapse,
    enumerate_loci,
    kappa,
    rho_k,
    trivial_relations,
)


class ContradictionError(RuntimeError):
    """A pair of loci claimed both contained and not contained."""

    def __init__(self, lhs: BNLocus, rhs: BNLocus, prov_le: str, prov_nle: str):
        self.lhs, self.rhs = lhs, rhs
        self.prov_le, self.prov_nle = prov_le, prov_nle
        super().__init__(
            f"contradiction: {lhs} <= {rhs} via [{prov_le}] "
            f"but {lhs} !<= {rhs} via [{prov_nle}]"
        )


class Fact(namedtuple("Fact", "lhs rhs kind source")):
    """An externally supplied relation (a result proved by construction),
    ingested from a data file with a non-empty citation string."""

    __slots__ = ()

    def __new__(cls, lhs: BNLocus, rhs: BNLocus, kind: RelKind, source: str):
        if not source:
            raise ValueError("facts must carry a citation string")
        if lhs.g != rhs.g:
            raise ValueError("facts must stay within one genus")
        return tuple.__new__(cls, (lhs, rhs, kind, source))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_relation(self) -> Relation:
        return Relation(self.lhs, self.rhs, self.kind, f"fact:{self.source}")


def trivially_implied(x: BNLocus, y: BNLocus) -> bool:
    """x <= y by trivial moves alone (base-point additions d -> d+1 and
    point removals (r,d) -> (r-1,d-1), with Serre normalization): holds iff
    y.r <= x.r and x.d - y.d <= x.r - y.r."""
    return y.r <= x.r and x.d - y.d <= x.r - y.r


def _merge_prov(p1: str, p2: str) -> str:
    # keeps the most compact provenance for a cell that several rules hit,
    # the first one on a tie
    return p2 if (len(p2), p2) < (len(p1), p1) else p1


def _bits(row: int):
    """Indices of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _low(row: int) -> int:
    """Index of the lowest set bit of a nonzero ``row``."""
    return (row & -row).bit_length() - 1


def _render_le(texts: dict, via: dict, i: int, j: int) -> str:
    """Provenance of the <= cell (i, j): its text if ``texts`` has it (a
    seed or an earlier rendering), else ``closure(p(i,k),p(k,j))`` for its
    Warshall round k = ``via[(i, j)]``, rendered and stored in ``texts``.
    Both premises were set before round k, so the walk ends; it keeps its
    own stack rather than recursing."""
    stack = [(i, j)]
    while stack:
        a, b = cell = stack[-1]
        if cell in texts:
            stack.pop()
            continue
        k = via[cell]
        left, right = texts.get((a, k)), texts.get((k, b))
        if left is None:
            stack.append((a, k))
        elif right is None:
            stack.append((k, b))
        else:
            texts[cell] = f"closure({left},{right})"
            stack.pop()
    return texts[(i, j)]


class RelationMatrix:
    """Closed matrix of pairwise claims at a fixed genus.

    The matrix holds the closure's own rows over the loci 0..n-1 in key
    order: ``up[i]`` (bit j: locus i <= locus j), ``nle_rows[i]`` (bit j:
    locus i !<= locus j) and ``rep[i]``, the index of the smallest-key
    member of i's equality class.  Both row sets are closed over every
    locus, and equal loci have equal rows and equal columns (x <= x' <= x
    carries every <= and !<= across), so the kind of any cell is read off
    its own bits, while its provenance is that of the representatives' cell.

    Provenance is held as derivation records, keyed by index pairs: the
    seeded cells' strings, the Warshall round of each derived <= cell, and
    the seeded !<= rows, from which a derived !<= cell finds the seed it is
    credited to.  :meth:`relation`, :meth:`all_relations`, :func:`covers`
    and a :class:`ContradictionError` render a provenance string only when
    they read it, and the matrix memoizes each rendered string, so the
    strings are the same as if they had been built during the closure.
    Rendering only adds to those memo tables and is a function of the
    records, so instances are immutable in effect once built and safe to
    share.
    """

    def __init__(
        self,
        genus: int,
        loci: tuple[BNLocus, ...],
        index: dict[BNLocus, int],
        up: list[int],
        down: list[int],
        nle_rows: list[int],
        seed_rows: list[int],
        rep: list[int],
        le: dict[tuple[int, int], str],
        via: dict[tuple[int, int], int],
        nle: dict[tuple[int, int], str],
    ):
        self.genus = genus
        self.loci = loci
        self._index = index
        self._up, self._down, self._nle_rows, self._rep = up, down, nle_rows, rep
        # seed_rows[a] bit c: (a, c) is a seeded !<= cell
        self._seed_rows = seed_rows
        # le and nle start as the seeds' strings and memoize the rest
        self._le, self._via, self._nle = le, via, nle
        members: dict[int, int] = {}
        for i, r in enumerate(rep):
            members[r] = members.get(r, 0) | 1 << i
        # bit j of _same[i]: loci i and j are equal
        self._same = [members[r] for r in rep]
        self._rep_mask = sum(1 << r for r in members)
        self.classes = tuple(tuple(loci[i] for i in _bits(m)) for m in members.values())

    def _le_prov(self, i: int, j: int) -> str:
        return _render_le(self._le, self._via, i, j)

    def _nle_prov(self, b: int, d: int) -> str:
        """Provenance of the !<= cell (b, d).  A derived cell is credited to
        the lexicographically first seed (a, c) with a <= b and d <= c and
        reads ``closure(p(d,c),closure(p(a,b),p(a,c)))``, dropping the outer
        or inner step when d = c or a = b."""
        text = self._nle.get((b, d))
        if text is None:
            up, seed_rows = self._up, self._seed_rows
            for a in _bits(self._down[b]):
                hit = seed_rows[a] & up[d]
                if hit:
                    break
            c = _low(hit)
            text = self._nle[(a, c)]
            if a != b:
                text = f"closure({self._le_prov(a, b)},{text})"
            if c != d:
                text = f"closure({self._le_prov(d, c)},{text})"
            self._nle[(b, d)] = text
        return text

    def class_of(self, x: BNLocus) -> BNLocus:
        return self.loci[self._rep[self._index[x]]]

    def representatives(self) -> list[BNLocus]:
        return [c[0] for c in self.classes]

    def relation(self, x: BNLocus, y: BNLocus) -> tuple[str, str | None]:
        """(kind, provenance) with kind one of eq/subset/not_subset/unknown."""
        i, j = self._index[x], self._index[y]
        if self._same[i] >> j & 1:
            return (RelKind.EQ.value, "class")
        if self._up[i] >> j & 1:
            return (RelKind.LE.value, self._le_prov(self._rep[i], self._rep[j]))
        if self._nle_rows[i] >> j & 1:
            return (RelKind.NLE.value, self._nle_prov(self._rep[i], self._rep[j]))
        return ("unknown", None)

    def unknown_pairs(self) -> list[tuple[BNLocus, BNLocus]]:
        loci, mask = self.loci, self._rep_mask
        return [
            (loci[i], loci[j])
            for i in _bits(mask)
            for j in _bits(mask & ~self._up[i] & ~self._nle_rows[i])
        ]

    def all_relations(self) -> list[Relation]:
        """Every known class-level cell as a Relation, sorted by (lhs, rhs):
        a non-representative's one eq row to its representative, and a
        representative's known cells to the other representatives."""
        loci, out = self.loci, []
        for i, r in enumerate(self._rep):
            if r != i:
                out.append(Relation(loci[i], loci[r], RelKind.EQ, "class"))
                continue
            le, nle = self._up[i], self._nle_rows[i]
            for j in _bits((le | nle) & self._rep_mask & ~(1 << i)):
                if le >> j & 1:
                    out.append(Relation(loci[i], loci[j], RelKind.LE, self._le_prov(i, j)))
                else:
                    out.append(Relation(loci[i], loci[j], RelKind.NLE, self._nle_prov(i, j)))
        return out


def closure_relations(
    genus: int, loci: Iterable[BNLocus], relations: Iterable[Relation]
) -> RelationMatrix:
    """Least fixed point of the given relations under transitivity, equality
    merging, and non-containment propagation:

        A <= B and A !<= C   gives   B !<= C
        B <= C and A !<= C   gives   A !<= B

    An eq seed sets <= both ways; Warshall's pass closes <= on the bit rows
    (see the module docstring), and each class is represented by its member
    of smallest key.  The !<= rows come from one grouped OR: ``reach[A]`` is
    the OR of ``down[C]`` over the seeds (A, C), and the row of B is the OR
    of ``reach[A]`` over A <= B.

    A seeded cell keeps its rule's provenance (the most compact one when
    several seeds hit it).  A derived cell keeps only a derivation record,
    and :class:`RelationMatrix` renders it as ``closure(p1,p2)`` of its
    premises when it is read: a <= cell from its Warshall round k as
    (i <= k, k <= j), a !<= cell (B, D) from the lexicographically first
    seed (A, C) with A <= B and D <= C as A <= B and A !<= C, then D <= C.

    Raises :class:`ContradictionError` when a pair ends up both ways; it
    names the lexicographically first seeded !<= cell that <= contradicts.
    """
    loci = tuple(sorted(set(loci), key=lambda l: l.key))
    index = {x: i for i, x in enumerate(loci)}
    n = len(loci)
    le: dict[tuple[int, int], str] = {}
    nle: dict[tuple[int, int], str] = {}

    get = index.get
    NLE, EQ = RelKind.NLE, RelKind.EQ
    for rel in relations:
        lhs, rhs, kind, prov = rel
        if lhs.g != genus or rhs.g != genus:
            raise ValueError(f"relation {rel} is not at genus {genus}")
        a, b = get(lhs), get(rhs)
        if a is None or b is None:
            raise ValueError(f"relation {rel} references a locus outside the poset")
        # setdefault stores a cell's first seed; any later one at the same
        # cell goes through _merge_prov
        table = nle if kind is NLE else le
        old = table.setdefault((a, b), prov)
        if old is not prov:
            table[(a, b)] = _merge_prov(old, prov)
        if kind is EQ:
            old = le.setdefault((b, a), prov)
            if old is not prov:
                le[(b, a)] = _merge_prov(old, prov)

    up = [1 << i for i in range(n)]
    for a, b in le:
        up[a] |= 1 << b
    via: dict[tuple[int, int], int] = {}
    for k in range(n):
        bit, row_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                new = row_k & ~up[i]
                if new:
                    up[i] |= new
                    while new:
                        low = new & -new
                        via[(i, low.bit_length() - 1)] = k
                        new ^= low

    seed_rows = [0] * n
    for a, c in nle:
        seed_rows[a] |= 1 << c
    for a in range(n):
        if seed_rows[a] & up[a]:
            c = _low(seed_rows[a] & up[a])
            prov_le = _render_le(le, via, a, c) if a != c or (a, c) in le else "reflexivity"
            raise ContradictionError(loci[a], loci[c], prov_le, nle[(a, c)])

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    nle_rows = [0] * n
    for a in range(n):
        if seed_rows[a]:
            reach = 0
            for c in _bits(seed_rows[a]):
                reach |= down[c]
            for b in _bits(up[a]):
                nle_rows[b] |= reach

    rep = [_low(up[i] & down[i]) for i in range(n)]
    return RelationMatrix(
        genus, loci, index, up, down, nle_rows, seed_rows, rep, le, via, nle
    )


def closure(matrix: RelationMatrix) -> RelationMatrix:
    """Re-close a matrix; idempotent."""
    return closure_relations(matrix.genus, matrix.loci, matrix.all_relations())


def assemble(genus: int, facts: Iterable[Fact] = ()) -> RelationMatrix:
    """Seed the matrix with every rule family plus the supplied facts, then
    close.  Rule families: trivial containments, Clifford collapses, the
    gonality theorem (both directions), the kappa comparison, plane
    projection, Coppens' gonality theorem, positive-dimensional secant
    cycles, and K3 filtration non-containments.
    """
    loci = enumerate_loci(genus)
    lset = set(loci)
    rels: list[Relation] = []
    rels += trivial_relations(genus)
    rels += clifford_collapse(genus)

    # refined Brill-Noether for fixed gonality: exact criterion both ways
    for i, src in enumerate(loci):
        if src.r != 1:
            continue
        for j, tgt in enumerate(loci):
            if i == j:
                continue
            if rho_k(genus, src.d, tgt.r, tgt.d) >= 0:
                rels.append(Relation(src, tgt, RelKind.LE, "gonality"))
            else:
                rels.append(Relation(src, tgt, RelKind.NLE, "gonality"))

    kap = [kappa(genus, x.r, x.d) for x in loci]
    for x, kx in zip(loci, kap):
        for y, ky in zip(loci, kap):
            if kx > ky:  # never x itself
                rels.append(Relation(x, y, RelKind.NLE, "kappa"))

    for x in loci:
        if x.r == 2:
            rel = plane_projection_rule(genus, x.d)
            if rel is not None and rel.rhs in lset:
                rels.append(rel)
            rel = coppens_noncontainment(genus, x.d)
            if rel is not None and rel.rhs in lset:
                rels.append(rel)

    for x in loci:
        for y in loci:
            if x.r >= y.r + 1 >= 2 and y.d < x.d:
                rel = secant_containment(genus, x.r, x.d, y.r, y.d)
                if rel is not None:
                    rels.append(rel)

    for i, x in enumerate(loci):
        if delta(genus, x.r, x.d) >= 0:
            continue
        for j, y in enumerate(loci):
            if i == j:
                continue
            rel = k3_noncontainment(genus, x.r, x.d, y.r, y.d)
            if rel is not None:
                rels.append(rel)

    for fact in facts:
        if fact.lhs.g != genus:
            raise ValueError(f"fact {fact} is not at genus {genus}")
        if fact.lhs not in lset or fact.rhs not in lset:
            raise ValueError(f"fact {fact} references a locus outside the poset")
        rels.append(fact.to_relation())

    return closure_relations(genus, loci, rels)


def covers(matrix: RelationMatrix) -> list[Relation]:
    """Strict-containment cover relations between equivalence classes, with
    covers implied by trivial containments alone removed; sorted by the
    (r, d) of source then target.

    On the rows this is the transitive reduction (Aho, Garey and Ullman,
    1972): a representative's strict row is its <= row over the other
    representatives, and its covers are the bits of that row that no bit
    of the row reaches in turn.
    """
    loci, up, mask = matrix.loci, matrix._up, matrix._rep_mask
    strict = {i: up[i] & mask & ~(1 << i) for i in _bits(mask)}
    members = dict(zip(strict, matrix.classes))
    out = []
    for i, row in strict.items():
        above = 0
        for k in _bits(row):
            above |= strict[k]
        for j in _bits(row & ~above):
            if any(trivially_implied(x, y) for x in members[i] for y in members[j]):
                continue
            out.append(Relation(loci[i], loci[j], RelKind.LE, matrix._le_prov(i, j)))
    return out


class DiffCell(namedtuple("DiffCell", "lhs rhs got want")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.lhs} vs {self.rhs}: computed {self.got}, expected {self.want}"


def compare(matrix: RelationMatrix, expected: RelationMatrix) -> list[DiffCell]:
    """Cells (over ordered pairs of loci) where the two matrices differ,
    including unknown-vs-known gaps.  Empty diff means exact agreement."""
    if matrix.genus != expected.genus:
        raise ValueError("matrices are at different genera")
    if matrix.loci != expected.loci:
        raise ValueError("matrices are over different loci sets")
    loci, diffs = matrix.loci, []
    for i in range(len(loci)):
        # a cell's kind is fixed by its class, <= and !<= bits, and any
        # change in one of them changes the kind
        differ = (
            (matrix._same[i] ^ expected._same[i])
            | (matrix._up[i] ^ expected._up[i])
            | (matrix._nle_rows[i] ^ expected._nle_rows[i])
        )
        for j in _bits(differ):
            x, y = loci[i], loci[j]
            diffs.append(DiffCell(x, y, matrix.relation(x, y)[0], expected.relation(x, y)[0]))
    return diffs
