"""Assemble rule outputs and external facts into a closed relation matrix
over the proper loci of one genus, detect contradictions, and extract the
non-trivial cover diagram.

The closure works on bit rows.  With the loci indexed 0..n-1 in key order,
``up[i]`` is a Python int whose bit j says locus i <= locus j.  <= is
closed over the condensation (:func:`_condense`): Tarjan's algorithm finds
the strongly connected components, sinks first, and each component's row
is its members ORed with the closed rows of its successors.  The equality
classes are the mutual bits.  Once <= is closed, the non-containments
close in one pass too: each propagation rule only moves the left end of a
!<= up along <= or its right end down, so the closure of the seeded !<=
cells is exactly
{(B, D) : A <= B, D <= C, (A, C) seeded}, and that set is already closed
under both rules.  A contradiction at such a derived (B, D) would mean
B <= D, so A <= B <= D <= C contradicts the seed (A, C) itself: checking
the seeded !<= cells against <= finds every contradiction.  That set is
two boolean products of bit rows (:func:`_product`): ``reach``, the seeded
!<= rows times ``down`` (the transpose of ``up``), gives each A the D
below some seeded C, and ``down`` times ``reach`` gives each B the OR of
``reach[A]`` over A <= B.

The seeds are bit rows too, and every matrix is built one way: from a
list of sources, each a provenance string with its seeded <= and !<= rows,
filled row by row.  :func:`assemble` takes one source per rule family
(:func:`rule_sources`) and one per fact citation; :func:`closure_relations`
groups its relations into one source per provenance string.  Its callers
send few strings: a fixture carries 3, and the re-closed ``all_relations()``
of ``assemble`` 38 over 17,760 relations at genus 30.  The closure starts
from the OR of the sources' rows.  A cell seeded by several sources keeps
the least string by (length, string), so the sources are sorted once in
that order.

The rule seeds depend on the genus alone, never on the facts, so
:func:`assemble` keeps them: the loci, their index and the
:func:`rule_sources` of a genus are built once per process, in two private
``lru_cache``s typed on the genus and bounded by :data:`_SEEDED_GENERA`
genera (28, a g = 3..30 sweep, whose seeds hold about 0.62 MB by
tracemalloc).  Each computed K3 row thus passes its edge check once, when
its genus is seeded.  Every call still checks and groups its own facts,
before any rule family runs, and closes its own matrix over the kept
seeds and its facts; nothing that depends on the facts is kept.
:func:`rule_sources` is not cached and builds fresh rows on every call,
and a matrix shares with the cache the immutable loci tuple, its private
index and the kept seed sources, which it only reads.

The closed rows are the matrix: :class:`RelationMatrix` keeps ``up``, the
closed !<= rows, each locus's class representative and the sorted
sources, and every query of a kind is a row operation on the rows.
Provenance is kept as derivation records, not strings, and each kind's
records are made from the kept sources on the first read of a credit of
that kind (:meth:`RelationMatrix._derive`).  Each row of a kind gets one
list of (label, bits) records in derivation order: first each sorted
source's row, labelled by its string, then, for <= only, one record
(k, new) per round k of Warshall's pass over the seeded rows that added
bits to the row.  A cell's derivation is the first record of its row that
holds its bit: a seeded cell's is its first source, and a derived <=
cell's is the round k that added it, whose premises are (i, k) and
(k, j).  Warshall's pass is the one source of these credits.  The kinds,
the classes, the unknown pairs, :func:`compare`, ``bn verify`` and the
cover ends that DOT prints (:func:`_cover_pairs`) make no records of
either kind.  A derived !<= cell is credited on read to the
lexicographically first seed that reaches it.  The matrix
renders a cell's provenance string only when it is read, and keeps it.
The cover diagram is the transitive reduction of ``up`` restricted to the
class representatives.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .k3 import k3_certified_below, k3_noncontainment
from .lattice import delta
from .loci import BNLocus, RelKind, Relation, _validating_make, enumerate_loci, kappa


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
    ingested from a data file with a non-empty citation string.  ``kind``
    may be given by its value, as for :class:`~bnloci.loci.Relation`."""

    __slots__ = ()

    def __new__(cls, lhs: BNLocus, rhs: BNLocus, kind: RelKind, source: str):
        if not source:
            raise ValueError("facts must carry a citation string")
        if lhs.g != rhs.g:
            raise ValueError("facts must stay within one genus")
        if type(kind) is not RelKind:
            kind = RelKind(kind)
        return tuple.__new__(cls, (lhs, rhs, kind, source))

    _make = _validating_make

    def to_relation(self) -> Relation:
        return Relation(self.lhs, self.rhs, self.kind, f"fact:{self.source}")


def trivially_implied(x: BNLocus, y: BNLocus) -> bool:
    """x <= y by trivial moves alone (base-point additions d -> d+1 and
    point removals (r,d) -> (r-1,d-1), with Serre normalization): holds iff
    y.r <= x.r and x.d - y.d <= x.r - y.r."""
    return y.r <= x.r and x.d - y.d <= x.r - y.r


def _seed(source: tuple, a: int, b: int, kind: RelKind) -> None:
    """Seed the cell (a, b) of ``kind`` in ``source`` = (provenance, <= rows,
    !<= rows), each rows a dict from a locus index to its bit row; an eq
    seed sets <= both ways."""
    _, le_rows, nle_rows = source
    rows = nle_rows if kind is RelKind.NLE else le_rows
    rows[a] = rows.get(a, 0) | 1 << b
    if kind is RelKind.EQ:
        le_rows[b] = le_rows.get(b, 0) | 1 << a


def _bits(row: int):
    """Indices of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _transpose(rows: list[int]) -> list[int]:
    """The transpose of the square bit matrix ``rows``: bit i of the j-th
    result row is bit j of ``rows[i]``.  The n rows are written as n binary
    digits each, the last row first, and joined into one string, so
    character j of each row's digits holds its bit n - 1 - j, and the
    strided slice ``digits[j::n]``, read as one binary number, carries that
    bit of row i at place i; the columns come out highest first."""
    n = len(rows)
    digits = "".join([format(row, f"0{n}b") for row in reversed(rows)])
    return [int(digits[j::n], 2) for j in range(n)][::-1]


# bits per block in the tables of _product, timed on the closures of genus 7..30
# with zero cols copied: 5 ran the two products 0-15% faster at genus 7..18 but
# 3-9% slower from genus 21 on, and 7 ran them 7-26% slower up to genus 22 and
# within 1% of 6 from genus 28 on
_BLOCK = 6


def _product(rows: list[int], cols: list[int]) -> list[int]:
    """The boolean product of two bit matrices: row i of the result is the
    OR of ``cols[c]`` over the set bits c of ``rows[i]``.  Each run of
    :data:`_BLOCK` cols gets a table of the ORs of its every subset, and a
    row is read one block of bits at a time through the tables (the "Four
    Russians" method: Arlazarov, Dinic, Kronrod and Faradzev, 1970).  A
    zero col adds nothing to any OR, so it doubles its table by a copy of
    the table; and the closure's rows repeat (its zero rows, and one
    ``down`` row per equality class), so each distinct row is read once,
    and a zero row not at all."""
    tables = []
    for start in range(0, len(cols), _BLOCK):
        table = [0]
        for col in cols[start:start + _BLOCK]:
            table += [t | col for t in table] if col else table
        tables.append(table)
    mask, out, done = (1 << _BLOCK) - 1, [], {0: 0}
    for row in rows:
        acc = done.get(row)
        if acc is None:
            acc, key = 0, row
            for table in tables:
                if not key:
                    break
                acc |= table[key & mask]
                key >>= _BLOCK
            done[row] = acc
        out.append(acc)
    return out


def _low(row: int) -> int:
    """Index of the lowest set bit of a nonzero ``row``."""
    return (row & -row).bit_length() - 1


def _condense(seed: list[int]) -> list[int]:
    """The closure of the bit rows ``seed`` under <=, reflexive and
    transitive, over their condensation (Purdom, 1970).  Tarjan's algorithm
    (1972), run on an explicit path, not by recursion, finds the strongly
    connected components, sinks first.  "Visited" and "on stack" are
    masks: a node takes the lowest of ``seed[v] & ~visited`` for its next
    tree edge, and reads low-links only over ``seed[v] & onstack``, so an
    edge to a finished node costs no step.  A node's place on the stack is
    ``below[v]``, the on-stack mask when it was pushed: the nodes on the
    stack have nested masks, so their ints order them as the stack does,
    and a component is the on-stack mask less its root's ``below``.  Each
    component is closed as it is emitted: its row is its members' mask
    ORed with the closed row of each successor outside it, all emitted
    already, taking the highest successor w not yet reached and then
    dropping the bits of ``closed[w]``."""
    n = len(seed)
    closed, below, low = [0] * n, [0] * n, [0] * n
    visited = onstack = 0
    for root in range(n):
        path, tree = [], ~visited & 1 << root
        while tree or path:
            if tree:
                v = _low(tree)
                visited |= 1 << v
                below[v] = low[v] = onstack
                onstack |= 1 << v
                path.append(v)
            else:
                v = path.pop()
                for w in _bits(seed[v] & onstack):
                    if low[w] < low[v]:
                        low[v] = low[w]
                if low[v] == below[v]:
                    row, onstack = onstack ^ below[v], below[v]
                    members, rest = [v] if row == 1 << v else list(_bits(row)), 0
                    for w in members:
                        rest |= seed[w]
                    rest &= ~row
                    while rest:
                        w = closed[rest.bit_length() - 1]
                        row |= w
                        rest &= ~w
                    for w in members:
                        closed[w] = row
            tree = seed[path[-1]] & ~visited if path else 0
    return closed


# the kinds' values as plain strs, which relation() returns: on CPython 3.11 each
# read of RelKind.X.value is a Python-level descriptor call
_EQ, _LE, _NLE = RelKind.EQ.value, RelKind.LE.value, RelKind.NLE.value


class RelationMatrix:
    """Closed matrix of pairwise claims at a fixed genus, built from its
    seed sources.

    A source is ``(provenance, <= rows, !<= rows)``, each rows a dict from a
    locus index to its bit row; an eq seed is <= both ways.  The sources
    are sorted by (length, provenance) and their rows ORed, and
    :func:`_condense` closes <=.  The !<= rows are two products (:func:`_product`):
    ``reach``, the seeded !<= rows times ``down``, and then ``down`` times
    ``reach``, so the !<= row of each B is the OR of ``reach[A]`` over
    A <= B, ``reach[A]`` being the OR of ``down[C]`` over the seeds (A, C).
    Raises :class:`ContradictionError` when a pair ends up both ways,
    naming the first seeded !<= cell that <= contradicts.

    The matrix holds the closure's own rows over the loci 0..n-1 in key
    order: ``up[i]`` (bit j: locus i <= locus j), ``nle_rows[i]`` (bit j:
    locus i !<= locus j) and ``rep[i]``, the index of the smallest-key
    member of i's equality class.  Both row sets are closed over every
    locus, and equal loci have equal rows and equal columns (x <= x' <= x
    carries every <= and !<= across), so the kind of any cell is read off
    its own bits, while its provenance is that of the representatives' cell.

    ``down``, the transpose of the closed ``up`` (bit i of ``down[j]``:
    locus i <= locus j), is read as n strided slices of one string of
    binary digits (:func:`_transpose`), not one set bit at a time.  The
    class fields come from the rows too: ``_same[i]`` is ``up[i] &
    down[i]``, and only a class of two or more members walks its bits.

    Construction keeps the rows and the sorted sources, and makes no
    provenance.  Provenance is held as derivation records:
    ``_records[kind][i]`` (kind 1 for <=, 2 for !<=, as in a source) lists
    the (label, bits) records of row i, each sorted source's row labelled
    by its string, then, for <=, each Warshall round k that added bits,
    labelled by k.  A seeded bit is never in a round's bits, so a cell's
    derivation is the first record holding its bit (:meth:`_first`).  A
    kind's records are made from the kept sources on the first read of a
    credit of that kind (:meth:`_derive`): the <= records by a
    ``relation()`` of a <= cell, ``all_relations()``, :func:`covers`, a !<=
    credit derived through <=, and a contradiction's message; the !<=
    records by a !<= credit.  Readers of kinds alone make neither:
    ``relation_count()``, ``unknown_pairs()``, ``classes``, :func:`compare`
    (so ``bn verify``) and DOT.  The seeded !<= rows credit each derived
    !<= cell to a seed.  Reads render the strings and memoize them in one
    dict (no cell is both <= and !<=), the same as if built during the
    closure; the records are built in locals and published in one dict
    assignment, so instances are immutable in effect and safe to share.
    """

    def __init__(
        self, genus: int, loci: tuple[BNLocus, ...], index: dict[BNLocus, int],
        sources: Iterable[tuple],
    ):
        self.genus, self.loci, self._index = genus, loci, index
        # kept for _derive, in the (length, string) order that credits a seed
        self._sources = sources = sorted(sources, key=lambda source: (len(source[0]), source[0]))
        n = len(loci)
        up = [1 << i for i in range(n)]
        # seed_rows[a] bit c: (a, c) is a seeded !<= cell
        seed_rows = [0] * n
        for source in sources:
            for kind, rows in ((1, up), (2, seed_rows)):
                for i, row in source[kind].items():
                    rows[i] |= row
        up = _condense(up)

        down = _transpose(up)
        # reach[a] bit d: d <= c for a seed (a, c); the !<= row of b ORs reach[a] over a <= b
        nle_rows = _product(down, _product(seed_rows, down))

        self._up, self._down, self._nle_rows, self._seed_rows = up, down, nle_rows, seed_rows
        # bit j of _same[i]: loci i and j are equal
        self._same = same = [row & col for row, col in zip(up, down)]
        self._rep = rep = [_low(row) for row in same]
        reps = [i for i, r in enumerate(rep) if r == i]
        self._rep_mask = sum(1 << i for i in reps)
        self.classes = tuple(
            (loci[i],) if same[i] == 1 << i else tuple(loci[j] for j in _bits(same[i]))
            for i in reps
        )
        # _records[kind]: the credit records of a kind, made on its first read;
        # _texts: the memo of every rendered <= and !<= string, seeds included
        self._records, self._texts = {}, {}
        for a in range(n):
            if seed_rows[a] & up[a]:
                c = _low(seed_rows[a] & up[a])
                prov_le = "reflexivity" if self._first(1, a, c) is None else self._le_prov(a, c)
                raise ContradictionError(loci[a], loci[c], prov_le, self._first(2, a, c))

    def _first(self, kind: int, a: int, b: int) -> str | int | None:
        """The label of the first record of row a of ``kind`` (1 for <=, 2
        for !<=) that holds bit b: a seeding source's string or a Warshall
        round; None when no record holds it (an unseeded self-loop).  The
        first read of a kind makes its records (:meth:`_derive`)."""
        records = self._records.get(kind) or self._derive(kind)
        for label, bits in records[a]:
            if bits >> b & 1:
                return label
        return None

    def _derive(self, kind: int) -> list[list[tuple]]:
        """The records of ``kind`` (1 for <=, 2 for !<=), from the kept
        sources: each row's (string, row) record of each sorted source that
        seeds it, then, for <=, one (k, new) record for each round k of
        Warshall's pass over the seeded rows that added the bits ``new`` to
        the row.  They are built in locals and published in one dict
        assignment, so a shared matrix read by several threads never shows
        a part of them; two first reads at once each build the same
        records, and either set is kept."""
        n = len(self.loci)
        # the seeded rows, reflexive, ORed as the records are made; read for <= only
        up, records = [1 << i for i in range(n)], [[] for _ in range(n)]
        for source in self._sources:
            for i, row in source[kind].items():
                up[i] |= row
                records[i].append((source[0], row))
        for k in range(n if kind == 1 else 0):
            bit, row_k = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    new = row_k & ~up[i]
                    if new:
                        up[i] |= new
                        records[i].append((k, new))
        self._records[kind] = records
        return records

    def _le_prov(self, i: int, j: int) -> str:
        """Provenance of the <= cell (i, j), from its derivation
        (:meth:`_first`, whose first <= read makes the <= records): a seed's
        string, or ``closure(p(i,k),p(k,j))`` for the Warshall round k that
        added bit j to row i, rendered and stored.  A cell is resolved on
        an explicit stack, not by recursion, so that a long chain (any loci
        set may reach :func:`closure_relations`) cannot overflow: the top
        cell reads its first record, a string is its text, and a round k
        pushes the first of its premises (a, k), (k, b) that is not
        memoized yet.  Both premises were set before round k, so the walk
        ends.  A cell is pushed only when its text is missing, and the
        cells above it are seeds or have smaller rounds, so it is still
        missing whenever it is back on top, and none is pushed twice."""
        texts = self._texts
        stack = [(i, j)]
        while (i, j) not in texts:
            a, b = stack[-1]
            k = self._first(1, a, b)
            if isinstance(k, str):
                texts[stack.pop()] = k
            elif (a, k) not in texts:
                stack.append((a, k))
            elif (k, b) not in texts:
                stack.append((k, b))
            else:
                texts[stack.pop()] = f"closure({texts[(a, k)]},{texts[(k, b)]})"
        return texts[(i, j)]

    def _nle_prov(self, b: int, d: int) -> str:
        """Provenance of the !<= cell (b, d): its memoized text or its
        seed's string (:meth:`_first`), else that of the lexicographically
        first seed (a, c) with a <= b and d <= c, read as
        ``closure(p(d,c),closure(p(a,b),p(a,c)))``, dropping the outer or
        inner step when d = c or a = b."""
        texts = self._texts
        text = texts.get((b, d))
        if text is None:
            text = self._first(2, b, d)
            if text is None:
                up, seed_rows = self._up, self._seed_rows
                for a in _bits(self._down[b]):
                    hit = seed_rows[a] & up[d]
                    if hit:
                        break
                c = _low(hit)
                text = self._first(2, a, c)
                if a != b:
                    text = f"closure({self._le_prov(a, b)},{text})"
                if c != d:
                    text = f"closure({self._le_prov(d, c)},{text})"
            texts[(b, d)] = text
        return text

    def relation(self, x: BNLocus, y: BNLocus) -> tuple[str, str | None]:
        """(kind, provenance) with kind one of eq/subset/not_subset/unknown."""
        i, j = self._index[x], self._index[y]
        kind = self._kind(i, j)
        if kind == _LE:
            return (kind, self._le_prov(self._rep[i], self._rep[j]))
        if kind == _NLE:
            return (kind, self._nle_prov(self._rep[i], self._rep[j]))
        return (kind, "class" if kind == _EQ else None)

    def _kind(self, i: int, j: int) -> str:
        """The kind of the cell (i, j), read off its bits with no
        provenance: eq, subset, not_subset or unknown."""
        if self._same[i] >> j & 1:
            return _EQ
        if self._up[i] >> j & 1:
            return _LE
        return _NLE if self._nle_rows[i] >> j & 1 else "unknown"

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

    def relation_count(self) -> int:
        """``len(self.all_relations())``, counted on the rows without
        building a Relation or rendering a provenance string."""
        up, nle, mask = self._up, self._nle_rows, self._rep_mask
        return sum(
            ((up[i] | nle[i]) & mask & ~(1 << i)).bit_count() if r == i else 1
            for i, r in enumerate(self._rep)
        )


def closure_relations(
    genus: int, loci: Iterable[BNLocus], relations: Iterable[Relation]
) -> RelationMatrix:
    """Least fixed point of the given relations under transitivity, equality
    merging, and non-containment propagation:

        A <= B and A !<= C   gives   B !<= C
        B <= C and A !<= C   gives   A !<= B

    The relations are grouped into one source per provenance string
    (:func:`_group`), and :class:`RelationMatrix` closes the sources.
    Raises ValueError for a locus or a relation off the genus, or for a
    relation outside ``loci``.
    """
    loci = tuple(sorted(set(loci), key=lambda l: l.key))
    for x in loci:
        if x.g != genus:
            raise ValueError(f"locus {x} is not at genus {genus}")
    index = {x: i for i, x in enumerate(loci)}
    return RelationMatrix(genus, loci, index, _group(genus, index, relations))


def _group(genus: int, index: dict[BNLocus, int], relations: Iterable[Relation]) -> list[tuple]:
    """The ``relations`` as sources, one per provenance string, each cell
    seeded by :func:`_seed`.  Raises ValueError for a relation off the genus
    or with a locus not in ``index``."""
    sources: dict[str, tuple] = {}
    get = index.get
    for rel in relations:
        lhs, rhs, kind, prov = rel
        if lhs.g != genus or rhs.g != genus:
            raise ValueError(f"relation {rel} is not at genus {genus}")
        a, b = get(lhs), get(rhs)
        if a is None or b is None:
            raise ValueError(f"relation {rel} references a locus outside the poset")
        _seed(sources.get(prov) or sources.setdefault(prov, (prov, {}, {})), a, b, kind)
    return list(sources.values())


def closure(matrix: RelationMatrix) -> RelationMatrix:
    """Re-close a matrix; idempotent."""
    return closure_relations(matrix.genus, matrix.loci, matrix.all_relations())


def rule_sources(genus: int) -> list[tuple]:
    """Every rule family's seeds over the loci of ``genus``
    (:func:`_indexed_loci`) as one source each (see :func:`_seed`), filled
    row by row from each family's closed form.  The one rule call per pair
    left is the K3 edge call below.  The trivial, Clifford,
    plane-projection and Coppens rules set their few bits; the other rows
    are masks and cuts.

    A seeded cell is credited to the first source in the (length, string)
    order that holds it, so a family leaves out the cells that an earlier
    family always holds: those bits could never decide a kind or name a
    provenance.  A trivial row is one bit, the base point added, (r, d) to
    (r, d + 1), when that is a locus.  Removing a point, (r, d) to
    (r - 1, d - 1), is a secant cell (expected dimension 1 at s = r - 1,
    e = d - 1), and so is the Serre normal form of adding a point at
    d + 1 = g, the same cell; "secant" sorts before "trivial".

    A kappa row is the loci of smaller :func:`kappa`, ``below[k]``: a prefix
    of the loci in kappa order.

    A gonality row, that of M^1_{g,d}, is cut from the same masks.
    :func:`rho_k` (g, k, s, e) never increases in k: its correction, the max
    over 0 <= l <= r' of c*l - l^2 with c = g - k - e + 2s + 1, does not grow
    as c falls, and r' does not depend on k.  So rho_k(g, d, s, e) >= 0 iff
    d <= kappa(g, s, e), and as kappa(g, 1, d) = d the <= row is
    ``full & ~below[d]``, without i.  The theorem's !<= row would be
    ``below[d]``, the kappa row of M^1_{g,d} itself, and "kappa" sorts
    before "gonality", so the gonality family seeds no !<=.

    A plane-projection row, that of a net (2, d), is one bit: projecting
    from a node of the plane model gives a pencil of degree d - 2 when
    g < (d-1)(d-2)/2, so the row is (1, d - 2) when that holds and
    (1, d - 2) is a locus.  A Coppens row is one !<= bit, to (1, d - 3),
    when the node count (d-1)(d-2)/2 - g is nonnegative and (1, d - 3) is
    a locus; that membership is Coppens' other hypotheses, d >= 5 and
    rho(g, 1, d - 3) < 0.

    A secant row of (r, d) is one bit range per rank s < r.
    :func:`~bnloci.oracles.secant_expected_dim` is r - s - (d - e - r + s)*s,
    so for r > s >= 1 it is positive iff e >= d - r + s - (r - s - 1) // s;
    with e < d the targets of rank s are a range in ascending e, cut by two
    bisections of their degrees.

    A K3 row is one bisection per rank s: x !<= (s, e) is certified iff e
    is below :func:`k3_certified_below` of x and s (or that is None), so the
    certified targets of rank s are a prefix in ascending e, cut by one
    bisection of their degrees.  The last target of each cut is handed to
    :func:`k3_noncontainment`, and a row it does not certify raises
    RuntimeError.

    The per-pair functions stay the tests' oracle for every row; all but
    :func:`k3_noncontainment` live in :mod:`bnloci.oracles`, as no engine
    path calls them.
    """
    loci, at = _indexed_loci(genus)
    # key order puts rank s in the index run runs[s] = [start, count], after all lower ranks
    runs: dict[int, list[int]] = {}
    degrees: dict[int, list[int]] = {}  # degrees[s]: the e of the run, ascending
    for i, x in enumerate(loci):
        runs.setdefault(x.r, [i, 0])[1] += 1
        degrees.setdefault(x.r, []).append(x.d)
    trivial, clifford, gonality, kap_src, plane, coppens, secant, k3 = sources = [
        (name, {}, {}) for name in ("trivial", "clifford", "gonality", "kappa",
                                    "plane-projection", "coppens", "secant", "k3")
    ]
    kap = [kappa(genus, r, d) for _, r, d in loci]
    seen, below = 0, {}  # below[k]: the loci of kappa < k, a prefix in kappa order
    for i in sorted(range(len(loci)), key=kap.__getitem__):
        kap_src[2][i] = below.setdefault(kap[i], seen)
        seen |= 1 << i

    full, hyper = (1 << len(loci)) - 1, at[(genus, 1, 2)]
    for i, (g, r, d) in enumerate(loci):
        if (g, r, d + 1) in at:  # add a base point: not at d + 1 = g, nor where rho >= 0
            _seed(trivial, i, at[(g, r, d + 1)], RelKind.LE)
        if r >= 2 and (d == 2 * r or (d == 2 * r + 1 and g >= 7)):
            _seed(clifford, i, hyper, RelKind.EQ)
        if r == 1:  # kappa(g, 1, d) = d: below[d] is set, and lacks i
            gonality[1][i] = full & ~below[d] & ~(1 << i)
        if r == 2:
            if 2 * g < (d - 1) * (d - 2) and (g, 1, d - 2) in at:
                _seed(plane, i, at[(g, 1, d - 2)], RelKind.LE)
            if 2 * g <= (d - 1) * (d - 2) and (g, 1, d - 3) in at:
                _seed(coppens, i, at[(g, 1, d - 3)], RelKind.NLE)
        row = 0
        for s, (start, _) in runs.items():  # per rank s < r: the e in [first, d)
            if s >= r:
                break
            first = bisect_left(degrees[s], d - r + s - (r - s - 1) // s)
            row |= ((1 << (bisect_left(degrees[s], d) - first)) - 1) << (start + first)
        secant[1][i] = row
        if delta(g, r, d) < 0:  # per rank s: the targets of degree below the bound
            certified = 0
            for s, (start, count) in runs.items():
                bound = k3_certified_below(g, r, d, s)
                cut = count if bound is None else bisect_left(degrees[s], bound)
                # the per-pair certificate, which also validates both loci,
                # must hold at the row's edge: one call per row, not per probe
                if cut and k3_noncontainment(g, r, d, s, degrees[s][cut - 1]) is None:
                    raise RuntimeError(f"K3 row of {loci[i]} at rank {s} passes its bound")
                certified |= ((1 << cut) - 1) << start
            k3[2][i] = certified & ~(1 << i)
    return sources


# genera whose loci and rule seeds stay cached, least recently used first
# out: 28 holds a g = 3..30 sweep, whose seeds take about 0.62 MB (tracemalloc)
_SEEDED_GENERA = 28


@lru_cache(maxsize=_SEEDED_GENERA, typed=True)
def _indexed_loci(genus: int) -> tuple[tuple[BNLocus, ...], dict[BNLocus, int]]:
    """The loci of ``genus`` (:func:`enumerate_loci`) and each one's index,
    cached per genus; typed, so that a genus of another type (``9.0``)
    never shares an entry with an int and still raises TypeError.
    Private: only :func:`assemble` and :func:`rule_sources` read it, and
    neither changes it."""
    loci = tuple(enumerate_loci(genus))
    return loci, {x: i for i, x in enumerate(loci)}


@lru_cache(maxsize=_SEEDED_GENERA, typed=True)
def _rule_seeds(genus: int) -> tuple[tuple, ...]:
    """:func:`rule_sources`, computed and checked once per genus: the seeds
    never read the facts, and :class:`RelationMatrix` only reads its
    sources."""
    return tuple(rule_sources(genus))


def assemble(genus: int, facts: Iterable[Fact] = ()) -> RelationMatrix:
    """Seed the matrix with every rule family (:func:`rule_sources`) and
    the facts, grouped by citation into sources of provenance
    ``fact:<citation>`` (:func:`_group`, so a fact off the genus or outside
    the poset raises ValueError before any rule family runs), then close.
    Rule families: base-point additions, Clifford collapses, the gonality
    theorem's containments, the kappa comparison (which holds the gonality
    theorem's non-containments), plane projection, Coppens' gonality
    theorem, positive-dimensional secant cycles (which hold the point
    removals), and K3 filtration non-containments.

    The loci, their index and the rule seeds depend on the genus alone, so
    they are built once per genus per process and kept for the
    :data:`_SEEDED_GENERA` (28) most recently assembled genera, about
    0.62 MB at g = 3..30; each computed K3 row passes its edge check once,
    when its genus is seeded.  Every call checks and groups its own facts
    and closes its own matrix, so a warm call pays only for those two."""
    loci, index = _indexed_loci(genus)
    facts = _group(genus, index, map(Fact.to_relation, facts))
    return RelationMatrix(genus, loci, index, [*_rule_seeds(genus), *facts])


def covers(matrix: RelationMatrix) -> list[Relation]:
    """Strict-containment cover relations between equivalence classes, with
    covers implied by trivial containments alone removed; sorted by the
    (r, d) of source then target (:func:`_cover_pairs`), each with its <=
    provenance."""
    loci = matrix.loci
    return [
        Relation(loci[i], loci[j], RelKind.LE, matrix._le_prov(i, j))
        for i, j in _cover_pairs(matrix)
    ]


def _cover_pairs(matrix: RelationMatrix) -> list[tuple[int, int]]:
    """The index pairs of :func:`covers`, in its order, read off the rows
    with no provenance, so that a reader of the ends alone (DOT, and the
    ``"covers"`` of JSON) never builds the <= records.

    On the rows this is the transitive reduction (Aho, Garey and Ullman,
    1972): a representative's strict row is its <= row over the other
    representatives, and its covers are the bits of that row that no bit
    of the row reaches in turn: the row less its product with the strict
    rows (:func:`_product`).
    """
    mask = matrix._rep_mask
    strict = [row & mask & ~(1 << i) for i, row in enumerate(matrix._up)]
    members = dict(zip(_bits(mask), matrix.classes))
    return [
        (i, j)
        for i, above in zip(members, _product([strict[i] for i in members], strict))
        for j in _bits(strict[i] & ~above)
        if not any(trivially_implied(x, y) for x in members[i] for y in members[j])
    ]


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
            diffs.append(DiffCell(loci[i], loci[j], matrix._kind(i, j), expected._kind(i, j)))
    return diffs
