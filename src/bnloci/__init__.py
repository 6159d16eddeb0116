"""Relative positions of Brill-Noether loci.

Exact-arithmetic tooling for deciding containments, equalities and
non-containments of the loci M^r_{g,d} inside the moduli of genus-g curves:
numerical invariants, classical genus/gonality rules, Lazarsfeld-Mukai
filtration bounds on rank-2 K3 lattices, and a provenance-tracking poset
engine that reproduces the full genus 7-12 classification.
"""

from .lattice import (
    H,
    L,
    LatticeBasis,
    LatticeClass,
    delta,
    pair,
)
from .loci import (
    BNLocus,
    RelKind,
    Relation,
    clifford_index,
    enumerate_loci,
    is_proper_locus,
    kappa,
    kappa_bruteforce,
    normalize,
    rho,
    rho_k,
    serre_dual,
)
from .classical import (
    coppens_noncontainment,
    gonality_bounds,
    plane_projection_rule,
)
from .k3 import (
    Assignment,
    FilterConfig,
    K3Expectation,
    box_class_count,
    candidate_subsheaf_classes,
    destab_box,
    enumerate_assignments,
    k3_certified_below,
    k3_expected,
    k3_noncontainment,
    min_series_degree,
)
from .poset import (
    ContradictionError,
    DiffCell,
    Fact,
    RelationMatrix,
    assemble,
    closure,
    closure_relations,
    compare,
    covers,
    rule_sources,
    trivially_implied,
)

__version__ = "0.1.0"
