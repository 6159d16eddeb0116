import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from bnloci import (
    BNLocus,
    RelKind,
    assemble,
    coppens_noncontainment,
    delta,
    gonality_bounds,
    k3_expected,
    plane_projection_rule,
)
from bnloci.oracles import (
    castelnuovo_bound,
    castelnuovo_severi,
    ci_gonality,
    four_secant_count,
    net_threshold,
    secant_containment,
    secant_expected_dim,
)


def test_castelnuovo_bound_examples():
    a = castelnuovo_bound(3, 9)
    assert (a.m, a.epsilon, a.bound) == (4, 0, 12)
    b = castelnuovo_bound(3, 8)
    assert (b.m, b.epsilon, b.bound) == (3, 1, 9)
    c = castelnuovo_bound(2, 4)
    assert (c.m, c.epsilon, c.bound) == (3, 0, 3)


def test_castelnuovo_bound_monotone_in_degree():
    for r in (2, 3, 4, 5):
        vals = [castelnuovo_bound(r, d).bound for d in range(r, 40)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_castelnuovo_severi_examples():
    assert castelnuovo_severi(2, 1, 3, 0) == 4
    assert castelnuovo_severi(2, 0, 2, 0) == 1
    assert castelnuovo_severi(2, 1, 4, 0) == 5


@pytest.mark.parametrize("call, args", [
    (castelnuovo_bound, (1, 5)),
    (castelnuovo_severi, (1, 0, 3, 0)),
    (plane_projection_rule, (9, 3)),
    (ci_gonality, ([1, 3],)),
    (secant_expected_dim, (2, 7, 2, 5)),
    (four_secant_count, (9, 4)),
    (secant_containment, (12, 1, 5, 1, 3)),  # r = s
    (secant_containment, (12, 3, 12, 2, 9)),  # d past g - 1
], ids=lambda v: getattr(v, "__name__", None))
def test_input_checks_raise(call, args):
    with pytest.raises(ValueError):
        call(*args)


def test_plane_projection_examples():
    rel = plane_projection_rule(9, 7)
    assert rel.lhs.key == (2, 7) and rel.rhs.key == (1, 5)
    assert rel.kind is RelKind.LE and rel.provenance == "plane-projection"
    assert plane_projection_rule(10, 6) is None  # smooth plane sextics
    rel = plane_projection_rule(7, 6)
    assert rel.rhs.key == (1, 4)


def test_coppens_examples():
    rel = coppens_noncontainment(12, 7)
    assert rel.lhs.key == (2, 7) and rel.rhs.key == (1, 4)
    assert rel.kind is RelKind.NLE and rel.provenance == "coppens"
    rel = coppens_noncontainment(9, 6)
    assert rel.rhs.key == (1, 3)
    assert coppens_noncontainment(7, 5) is None  # negative node count
    assert coppens_noncontainment(4, 6) is None  # rho(4,1,3) = 0


def test_projection_and_coppens_are_consistent():
    # when both fire, gonality is exactly d-2: contained at d-2, not at d-3
    for g, d in [(9, 6), (9, 7), (10, 7), (11, 8), (12, 9)]:
        proj = plane_projection_rule(g, d)
        cop = coppens_noncontainment(g, d)
        assert proj is not None and cop is not None
        assert proj.rhs.d == d - 2 and cop.rhs.d == d - 3
        assert proj.kind is RelKind.LE and cop.kind is RelKind.NLE


def test_ci_gonality_examples():
    assert ci_gonality([2, 4]) == 4
    assert ci_gonality([3, 3]) == 6
    assert ci_gonality([2, 2]) == 2
    with pytest.raises(ValueError):
        ci_gonality([4, 2])


def cited(genera, pattern):
    # the packaged facts of these genera whose citation matches the pattern
    from bnloci.cli import packaged_facts

    return [
        (fact, found)
        for g in genera
        for fact in packaged_facts(g)
        if (found := re.search(pattern, fact.source))
    ]


def test_ci_gonality_equals_the_cited_gonality():
    # the two genus-10 facts that cite the gonality of a complete
    # intersection: the helper must give the cited figure, which is above
    # the degree of the pencil that the fact rules out
    pattern = r"(?:plane sextics have|two cubics in P\^3, of) gonality (\d+)"
    facts = {
        (fact.lhs.key, fact.rhs.key): (fact, int(found.group(1)))
        for fact, found in cited([10], pattern)
    }
    assert sorted(facts) == [((2, 6), (1, 4)), ((3, 9), (1, 5))]
    sextic, gonality = facts[(2, 6), (1, 4)]
    assert "smooth plane sextics" in sextic.source
    assert ci_gonality([sextic.lhs.d]) == gonality == 5
    cubics, gonality = facts[(3, 9), (1, 5)]
    assert "complete intersection of two cubics" in cubics.source
    assert ci_gonality([3, 3]) == gonality == 6
    for fact, gonality in facts.values():
        assert fact.kind is RelKind.NLE and gonality > fact.rhs.d


def test_castelnuovo_severi_stays_below_the_cited_genus():
    # the four genus-11 and -12 facts that cite Castelnuovo-Severi: a curve
    # with a double cover of an elliptic curve and a g^1_3 has genus at most
    # castelnuovo_severi(2, 1, 3, 0), below the genus the citation states
    pattern = r"^Castelnuovo-Severi: bielliptic curves of genus >= (\d+) admit no g\^1_(\d+)$"
    facts = cited([11, 12], pattern)
    assert sorted((fact.lhs.g, fact.lhs.key) for fact, _ in facts) == [
        (11, (2, 6)), (11, (3, 8)), (12, (2, 6)), (12, (3, 8))
    ]
    for fact, found in facts:
        least_genus, degree = int(found.group(1)), int(found.group(2))
        assert fact.kind is RelKind.NLE and fact.rhs.key == (1, degree) == (1, 3)
        assert castelnuovo_severi(2, 1, fact.rhs.d, 0) == 4 < least_genus == 5 <= fact.lhs.g


def test_castelnuovo_bound_stays_below_the_cited_genus():
    # the four genus-11 and -12 facts that cite Castelnuovo's bound for a
    # g^{e-1}_{2e}: both loci of each have that form, and a birationally very
    # ample g^{e-1}_{2e} lives on curves of genus at most
    # castelnuovo_bound(e-1, 2e), below the genus the citation states
    pattern = r"^Castelnuovo genus bound: for g >= (\d+) a g\^\{e-1\}_\{2e\} with e >= (\d+) "
    facts = cited([11, 12], pattern)
    assert sorted((fact.lhs.g, fact.lhs.key, fact.rhs.key) for fact, _ in facts) == [
        (11, (3, 8), (2, 6)), (11, (3, 8), (4, 10)), (12, (3, 8), (2, 6)), (12, (3, 8), (4, 10))
    ]
    for fact, found in facts:
        least_genus, least_e = int(found.group(1)), int(found.group(2))
        assert least_genus <= fact.lhs.g and fact.lhs.d // 2 >= least_e
        bounds = {}
        for x in (fact.lhs, fact.rhs):
            e = x.d // 2
            assert x.key == (e - 1, 2 * e)
            bounds[e] = castelnuovo_bound(e - 1, 2 * e).bound
        assert all(bound < least_genus == 11 for bound in bounds.values())
        assert {e: bound for e, bound in bounds.items() if e >= least_e} in ({4: 9}, {4: 9, 5: 9})


def test_castelnuovo_bound_stays_below_the_genus_of_the_lange_fact():
    # the genus-10 fact on M^3_{10,8}: its g^3_8 cannot be birationally very
    # ample, as Castelnuovo's bound for it is below the cited genus
    pattern = r"^Castelnuovo bound plus Lange's dimension count: a genus-(\d+) curve with a g\^(\d+)_(\d+) "
    facts = cited([10], pattern)
    assert len(facts) == 1
    fact, found = facts[0]
    g, r, d = map(int, found.groups())
    assert (g, (r, d)) == (fact.lhs.g, fact.lhs.key) == (10, (3, 8))
    assert castelnuovo_bound(r, d).bound == 9 < g


def test_castelnuovo_curves_reach_the_bound_at_the_cited_genus():
    # the six genus-12 facts on Castelnuovo curves, of degree 9 in P^3 or 11
    # in P^4: a curve is one iff its genus is Castelnuovo's bound, 12
    facts = cited([12], r"Castelnuovo curve")
    assert sorted(fact.lhs.key for fact, _ in facts) == [(3, 9)] * 2 + [(4, 11)] * 4
    stated = 0
    for fact, _ in facts:
        ambient = re.search(r"in P\^(\d+)", fact.source)
        assert ambient or "space curves" in fact.source  # curves in P^3
        assert (int(ambient.group(1)) if ambient else 3) == fact.lhs.r
        degree = re.search(r"degree[- ](\d+)", fact.source)
        if degree:
            genus = re.search(r"genus[- ](\d+)", fact.source)
            assert (int(degree.group(1)), int(genus.group(1))) == (fact.lhs.d, fact.lhs.g)
            stated += 1
        assert castelnuovo_bound(fact.lhs.r, fact.lhs.d).bound == 12 == fact.lhs.g
    assert stated == 5  # the cubic-scroll citation names P^4 alone


def test_four_secant_count_equals_the_cayley_citation():
    # the genus-11 fact whose citation gives Cayley's count of 4-secant lines
    pattern = r"^Cayley's formula gives (\d+) 4-secant lines to a smooth degree-(\d+) genus-(\d+) space curve"
    facts = cited([11], pattern)
    assert len(facts) == 1
    fact, found = facts[0]
    count, d, g = map(int, found.groups())
    assert (g, (3, d)) == (fact.lhs.g, fact.lhs.key) == (11, (3, 10))
    assert four_secant_count(g, d) == count == 20


def test_secant_expected_dim_examples():
    assert secant_expected_dim(5, 13, 3, 10) == -1
    assert secant_expected_dim(3, 9, 2, 8) == 1
    # with e = d - 1 one free point remains: dimension r - s at s = r - 1
    assert secant_expected_dim(4, 11, 3, 10) == 1


def test_secant_expected_dim_linear_in_e():
    for (r, d, s) in [(4, 12, 2), (5, 13, 3), (6, 14, 2)]:
        for e in range(3, d - 1):
            assert (
                secant_expected_dim(r, d, s, e + 1)
                - secant_expected_dim(r, d, s, e)
                == s
            )


def test_secant_containment_gate():
    # fires only with strictly positive expected dimension
    for (g, r, d, s, e) in [(12, 3, 11, 2, 9), (10, 3, 9, 1, 5), (11, 3, 10, 1, 6)]:
        assert secant_expected_dim(r, d, s, e) <= 0
        assert secant_containment(g, r, d, s, e) is None
    assert secant_containment(12, 3, 10, 2, 10) is None  # e = d
    rel = secant_containment(12, 3, 10, 2, 9)
    assert rel is not None and rel.kind is RelKind.LE and rel.provenance == "secant"
    # odd r, s = 2: the dedicated threshold agrees with positivity
    for r in (3, 5, 7):
        d = 2 * r + 6
        g = 40
        thr = d - 2 * r + 2 + (r + 3) // 2
        for e in range(4, d):
            fired = secant_containment(g, r, d, 2, e) is not None
            assert fired == (e >= thr)


def test_four_secant_count_examples():
    assert four_secant_count(11, 10) == 20
    assert four_secant_count(9, 8) == -4
    assert four_secant_count(0, 5) == 1


def test_four_secant_count_exact_region():
    # integrality and agreement with an all-integer evaluation
    for d in range(5, 21):
        for g in range(0, 31):
            twelve_times = (d - 2) * (d - 3) ** 2 * (d - 4)
            assert twelve_times % 12 == 0
            second = g * (d * d - 7 * d + 13 - g)
            assert second % 2 == 0
            assert four_secant_count(g, d) == twelve_times // 12 - second // 2


def test_net_threshold_example():
    assert net_threshold(3, 12) == 12 - 6 + 2 + 3 == 11
    for r in (0, 1, 2):
        with pytest.raises(ValueError, match="need r >= 3"):
            net_threshold(r, 2 * r + 3)


def test_net_threshold_is_the_least_degree_of_nonnegative_secant_dimension():
    # odd r: the secant rule's own cut, dimension 1; even r: one below that
    # cut, at dimension exactly 0
    for r in range(3, 21):
        for d in range(2 * r + 1, 4 * r + 8):
            least = min(e for e in range(d) if secant_expected_dim(r, d, 2, e) >= 0)
            assert net_threshold(r, d) == least, (r, d)
            assert secant_expected_dim(r, d, 2, least) == r % 2, (r, d)


@lru_cache(maxsize=None)
def threshold_a(g, r, d, s):
    # the conjectured degree from which M^r_{g,d} lies in M^s_{g,e} for
    # r < s; the scoring below refutes it, and no hypothesis that the code
    # can state removes every refuted cell, so the package dropped it
    return (
        Fraction(d - 2 * r + s)
        + Fraction(g - d + r + 1, 2)
        + Fraction((s - 2) * (r - 1) - 1, s - 1)
    )


VERDICT = {"eq": "agree", "subset": "agree", "not_subset": "disagree", "unknown": "unknown"}


def threshold_cells():
    # (threshold, g, source, target, kind) for every proper target at or
    # above a threshold: the truth is the packaged fixture at g = 7..12 and
    # fact-free assemble(g) at g = 13..30
    from bnloci.cli import packaged_fixture_matrix

    for g in range(7, 31):
        matrix = packaged_fixture_matrix(g) if g <= 12 else assemble(g)
        for x in matrix.loci:
            for y in matrix.loci:
                if 2 <= x.r < y.r:
                    name, least = "threshold_a", threshold_a(g, x.r, x.d, y.r)
                elif y.r == 2 < x.r:
                    name, least = "net_threshold", net_threshold(x.r, x.d)
                else:
                    continue
                if y.d >= least:
                    yield name, g, x, y, matrix.relation(x, y)[0]


def test_conjectured_thresholds_scored_where_the_truth_is_known():
    cells = list(threshold_cells())
    table = Counter(
        (name, "fixtures" if g <= 12 else "rules", VERDICT[kind]) for name, g, _, _, kind in cells
    )
    assert table == {
        ("threshold_a", "fixtures", "agree"): 42,
        ("threshold_a", "fixtures", "disagree"): 7,
        ("threshold_a", "rules", "agree"): 3390,
        ("threshold_a", "rules", "disagree"): 1098,
        ("threshold_a", "rules", "unknown"): 4411,
        ("net_threshold", "fixtures", "agree"): 100,
        ("net_threshold", "rules", "agree"): 8508,
        ("net_threshold", "rules", "unknown"): 412,
    }
    # the fixture counterexamples to threshold_a, as (g; r, d -> s, e)
    refuted = [
        (g, x.r, x.d, y.r, y.d)
        for name, g, x, y, kind in cells
        if name == "threshold_a" and g <= 12 and kind == "not_subset"
    ]
    assert refuted == [
        (9, 2, 6, 3, 8),
        (10, 2, 6, 3, 9), (10, 2, 7, 3, 9),
        (11, 2, 8, 3, 10),
        (12, 2, 6, 4, 11), (12, 2, 8, 3, 11), (12, 2, 9, 3, 11),
    ]
    assert threshold_a(100, 2, 51, 3) == 76
    # net_threshold goes beyond the secant rule only on the cells of
    # expected dimension 0 (even r, e at the threshold), and every open cell
    # is one of them
    by_dimension = Counter(
        (y.d < x.d and secant_expected_dim(x.r, x.d, 2, y.d) == 0, VERDICT[kind])
        for name, _, x, y, kind in cells
        if name == "net_threshold"
    )
    assert by_dimension == {(True, "agree"): 156, (True, "unknown"): 412, (False, "agree"): 8452}


def test_filtered_k3_expected_scored_on_the_unknown_pairs():
    # k3_expected (filters on) on every unknown ordered class pair of
    # fact-free assemble(g), g = 9..12, against the packaged fixture
    from bnloci.cli import packaged_facts, packaged_fixture_matrix

    table, wrong = Counter(), []
    for g in range(9, 13):
        truth = packaged_fixture_matrix(g)
        for x, y in assemble(g).unknown_pairs():
            if delta(g, x.r, x.d) >= 0:
                table["no lattice"] += 1
                continue
            predicted = "subset" if k3_expected(g, x.r, x.d, y.r, y.d) else "not_subset"
            right = (truth.relation(x, y)[0] in ("eq", "subset")) == (predicted == "subset")
            table[predicted, right] += 1
            if not right:
                wrong.append((g, x.key, y.key))
    assert table == {
        "no lattice": 57, ("subset", True): 8, ("subset", False): 3, ("not_subset", True): 5
    }
    assert wrong == [(10, (3, 9), (1, 5)), (11, (3, 9), (1, 3)), (12, (3, 10), (1, 6))]
    # the packaged facts decide each against the expectation
    for g, source, target in wrong:
        x, y = (BNLocus(g, *key) for key in (source, target))
        kind, provenance = assemble(g, packaged_facts(g)).relation(x, y)
        assert kind == "not_subset" and provenance.startswith("fact:"), (g, source, target)


def test_gonality_bounds_examples():
    assert gonality_bounds(9, 2, 7) == (3, 5)
    assert gonality_bounds(100, 10, 60) == (6, 42)
    for g, d in [(9, 4), (11, 5), (15, 7)]:
        assert gonality_bounds(g, 1, d) == (d, d)
