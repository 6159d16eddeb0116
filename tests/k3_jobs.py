"""The one definition of the K3 jobs that :func:`bnloci.assemble` asks, for
the tests that walk them."""

from bnloci import delta, enumerate_loci


def assemble_jobs(genera):
    """Every (g, r, d, s), sorted, with g in ``genera``: the lattice (g, r, d)
    of a locus with delta < 0 and the rank s of another locus of the genus."""
    jobs = set()
    for g in genera:
        loci = enumerate_loci(g)
        jobs.update((g, x.r, x.d, y.r) for x in loci if delta(g, x.r, x.d) < 0 for y in loci if y != x)
    return sorted(jobs)
