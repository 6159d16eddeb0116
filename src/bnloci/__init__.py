"""Relative positions of Brill-Noether loci.

Exact-arithmetic tooling for deciding containments, equalities and
non-containments of the loci M^r_{g,d} inside the moduli of genus-g curves:
numerical invariants and gonality bounds, Lazarsfeld-Mukai filtration
bounds on rank-2 K3 lattices, and a provenance-tracking poset engine that
seeds the rule families, the classical plane-projection and Coppens rules
among them, and reproduces the full genus 7-12 classification.  The
independent checks, the per-pair rule functions among them, are imported
from :mod:`bnloci.oracles`, which this package does not load.
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
    gonality_bounds,
    is_proper_locus,
    kappa,
    kappa_bruteforce,
    normalize,
    rho,
    rho_k,
    serre_dual,
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
