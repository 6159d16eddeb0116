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
    find_classes_with_square,
    pair,
    self_int,
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
    CastelnuovoData,
    castelnuovo_bound,
    castelnuovo_severi,
    ci_gonality,
    coppens_noncontainment,
    four_secant_count,
    gonality_bounds,
    net_threshold,
    plane_projection_rule,
    secant_expected_dim,
)
from .k3 import (
    Assignment,
    FilterConfig,
    K3Expectation,
    LMInvariants,
    box_class_count,
    candidate_subsheaf_classes,
    destab_box,
    enumerate_assignments,
    k3_certified_below,
    k3_expected,
    k3_noncontainment,
    lm_invariants,
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

# the names of the independent checks in bnloci.oracles, which no engine path
# needs: the package imports that module on the first read of one of them
_ORACLE_NAMES = frozenset(
    {
        "GTPattern",
        "c2_lower_bound",
        "clifford_collapse",
        "enumerate_filtration_types",
        "gt_check",
        "gt_pattern",
        "quotient_checks",
        "secant_containment",
        "slab_classes",
        "trivial_relations",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
