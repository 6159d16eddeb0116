"""The one way the tests empty the engine's caches, so that a test that
spies on the K3 walk or patches a rule sees a cold assemble."""

import bnloci.k3 as k3
import bnloci.poset as poset


def clear_engine_caches() -> None:
    """Empty the K3 minimum and candidate-row caches and the per-genus loci
    and rule seeds of :func:`bnloci.poset.assemble`."""
    for cached in (k3._min_bound_cached, k3._candidate_rows, poset._indexed_loci, poset._rule_seeds):
        cached.cache_clear()
