from holring import chartable, groups as G
from holring.chartable import character_table
from holring.citations import REGISTRY
from holring.blocks import hybrid_report, padic_blocks
from holring.dt import (
    DT_INVERSION,
    DTAssertion,
    dt_query,
    maximality_consequence,
    weakly_hybrid,
    _match_fact,
    _odd_part_inverted,
)
from holring.reports import Scenario, conjecture_report
from holring.verify import catalog

from helpers import reference_odd_part_inverted

CATALOG = [
    ("c2", lambda: G.cyclic(2)),
    ("c3", lambda: G.cyclic(3)),
    ("c4", lambda: G.cyclic(4)),
    ("v4", lambda: G.direct_product(G.cyclic(2), G.cyclic(2))),
    ("c5", lambda: G.cyclic(5)),
    ("s3", lambda: G.symmetric(3)),
    ("q8", lambda: G.quaternion()),
    ("d10", lambda: G.dihedral(5)),
    ("a4", lambda: G.alternating(4)),
    ("d12", lambda: G.dihedral(6)),
    ("d14", lambda: G.dihedral(7)),
    ("c3xs3", lambda: G.direct_product(G.cyclic(3), G.symmetric(3))),
    ("mc73", lambda: G.metacyclic(7, 3)),
    ("s4", lambda: G.symmetric(4)),
    ("aff5", lambda: G.affine(5)),
    ("aff8", lambda: G.affine(8)),
]


def _primes_for(g):
    return [p for p in (2, 3, 5, 7) if g.order % p == 0]


# ---------------------------------------------------------------- facts


def test_cyclic_prime_facts():
    for p in (2, 3, 5, 7):
        out = dt_query(G.cyclic(p), p)
        assert out.kind == "cyclic" and out.size == p - 1
        assert out.citations == ("dt-cyclic-prime",)
        assert out.derivation


def test_cyclic_four_at_two_has_order_two():
    out = dt_query(G.cyclic(4), 2)
    assert (out.kind, out.size) == ("order", 2)
    assert "dt-cyclic-four" in out.citations


def test_klein_four_at_two_has_order_two():
    v4 = G.direct_product(G.cyclic(2), G.cyclic(2))
    out = dt_query(v4, 2)
    assert (out.kind, out.size) == ("order", 2)
    assert "dt-klein-four" in out.citations


def test_odd_order_inverted_groups_are_trivial_at_two():
    for g in (G.dihedral(5), G.dihedral(7), G.symmetric(3), G.dihedral(15)):
        out = dt_query(g, 2)
        assert out.kind == "trivial", g.order
        assert "dt-inversion-trivial" in out.citations


def test_coprime_prime_is_trivial_by_maximality():
    for g, p in ((G.cyclic(3), 2), (G.symmetric(3), 5), (G.quaternion(), 3)):
        out = dt_query(g, p)
        assert out.kind == "trivial"
        assert out.citations == ("dt-maximal-trivial",)


def test_quaternion_at_two_stays_structureless():
    # no stored fact for Q8; only the nontriviality bound applies
    assert _match_fact(G.quaternion(), 2) is None
    out = dt_query(G.quaternion(), 2)
    assert out.kind == "nontrivial" and out.size is None
    assert "dt-nonmaximal-lower-bound" in out.citations


def test_overlapping_facts_agree_on_triviality():
    # C2 at 2 matches both the prime-order rule and the inversion rule
    for g, p in ((G.cyclic(2), 2), (G.cyclic(3), 3), (G.dihedral(5), 2)):
        verdicts = set()
        for make in (lambda: _match_fact(g, p),):
            hit = make()
            if hit is not None:
                verdicts.add(hit.triviality())
        out = dt_query(g, p)
        verdicts.add(out.triviality())
        assert len(verdicts) == 1


# ------------------------------------------------------- derived results


def test_dihedral_12_at_two_transfers_through_klein_quotient():
    out = dt_query(G.dihedral(6), 2)
    assert (out.kind, out.size) == ("order", 2)
    for label in (
        "dt-weak-hybrid-quotient-iso",
        "weak-hybrid-product",
        "dt-klein-four",
    ):
        assert label in out.citations
    assert len(out.derivation) >= 2


def test_product_with_matrix_factor_stops_at_the_c6_quotient():
    # C3 x S3 at 2: the alternating core is hybrid outright (only the
    # degree-2 characters survive outside its kernel), but the quotient
    # is C6 whose DT the fact base cannot settle, so the engine reports
    # unknown instead of overclaiming triviality
    g = G.direct_product(G.cyclic(3), G.symmetric(3))
    by_rep = {}
    for s in g.normal_subgroups():
        if len(s) != 3:
            continue
        rep = hybrid_report(g, s, 2)
        by_rep[rep.is_hybrid] = s
    assert set(by_rep) == {True, False}
    wh = weakly_hybrid(g, by_rep[True], 2)
    assert wh.verdict == "yes"
    # the other core's lone decomposition leaves a residue-degree-2
    # block, outside the rational-block hypothesis, so no verdict
    other = weakly_hybrid(g, by_rep[False], 2)
    assert other.verdict == "unknown" and other.citations == ()
    assert dt_query(g, 2).kind == "unknown"
    assert dt_query(G.cyclic(6), 2).kind == "unknown"


def test_s4_at_three_nontrivial_through_s3_quotient():
    out = dt_query(G.symmetric(4), 3)
    assert out.triviality() == "nontrivial"
    assert "dt-weak-hybrid-quotient-iso" in out.citations
    assert "dt-nonmaximal-lower-bound" in out.citations


def test_affine_8_at_seven_inherits_cyclic_group():
    out = dt_query(G.affine(8), 7)
    assert (out.kind, out.size) == ("cyclic", 6)
    assert "dt-weak-hybrid-quotient-iso" in out.citations
    assert "dt-cyclic-prime" in out.citations


def test_frobenius_72_at_two_reduces_to_quaternion_complement():
    out = dt_query(G.frob72(), 2)
    assert out.kind == "nontrivial"
    assert "dt-weak-hybrid-quotient-iso" in out.citations


def test_odd_prime_on_nonmaximal_ring_is_nontrivial():
    for g, p in ((G.cyclic(9), 3), (G.metacyclic(7, 3), 3), (G.cyclic(25), 5)):
        out = dt_query(g, p)
        assert out.triviality() == "nontrivial"


def test_depth_zero_still_sound_but_weaker():
    deep = dt_query(G.dihedral(6), 2)
    shallow = dt_query(G.dihedral(6), 2, depth=0)
    assert (deep.kind, deep.size) == ("order", 2)
    assert shallow.kind == "nontrivial"
    assert deep.triviality() == shallow.triviality() == "nontrivial"


def test_jsonable_shape():
    out = dt_query(G.cyclic(4), 2).to_jsonable()
    assert out["assertion"] == "order" and out["size"] == 2
    assert isinstance(out["citations"], list)
    assert isinstance(out["derivation"], list)
    flat = dt_query(G.quaternion(), 2).to_jsonable()
    assert "size" not in flat


def test_every_citation_is_registered_and_derivation_nonempty():
    for name, make in CATALOG:
        g = make()
        for p in (2, 3, 5, 7):
            out = dt_query(g, p)
            assert out.derivation, (name, p)
            for label in out.citations:
                assert label in REGISTRY, (name, p, label)
            if out.kind != "unknown":
                assert out.citations, (name, p)


# ---------------------------------------------------- integrity checks


def test_trivial_verdicts_respect_maximality_constraint():
    # trivial DT forces maximality except at (p, v_p) = (2, 1)
    for name, make in CATALOG:
        g = make()
        for p in (2, 3, 5, 7):
            out = dt_query(g, p)
            if out.triviality() != "trivial":
                continue
            v = 0
            n = g.order
            while n % p == 0:
                n //= p
                v += 1
            assert v == 0 or (p == 2 and v == 1), (name, p)


def test_quotient_surjectivity_monotone_across_catalog():
    # a derivably nontrivial quotient forbids a trivial verdict upstairs
    for name, make in CATALOG:
        g = make()
        for p in _primes_for(g):
            own = dt_query(g, p).triviality()
            for sub in g.normal_subgroups():
                if not 1 < len(sub) < g.order:
                    continue
                quot, _ = g.quotient(sub)
                if quot.order % p != 0:
                    continue
                if dt_query(quot, p).triviality() == "nontrivial":
                    assert own != "trivial", (name, p, len(sub))


def test_hybrid_bridge_agrees_with_quotient():
    # when the ring is N-hybrid the two sides must not disagree
    cases = [
        (G.symmetric(3), 3, 2),
        (G.symmetric(4), 4, 3),
        (G.affine(8), 8, 7),
        (G.dihedral(5), 5, 2),
    ]
    for g, nord, p in cases:
        sub = [s for s in g.normal_subgroups() if len(s) == nord][0]
        assert hybrid_report(g, sub, p).is_hybrid
        quot, _ = g.quotient(sub)
        a, b = dt_query(g, p), dt_query(quot, p)
        known = {"trivial", "nontrivial"}
        if a.triviality() in known and b.triviality() in known:
            assert a.triviality() == b.triviality()


# ------------------------------------------------ maximality consequence


def test_false_trivial_claim_on_c3_is_flagged():
    g = G.cyclic(3)
    claim = DTAssertion("trivial", None, (), ("hypothetical",))
    out = maximality_consequence(g, 3, claim)
    assert out["consistent"] is False
    assert not out["ring_is_maximal"]
    # and the engine itself never makes that claim
    assert dt_query(g, 3).triviality() == "nontrivial"


def test_s3_trivial_at_two_is_consistent():
    g = G.symmetric(3)
    out = maximality_consequence(g, 2, dt_query(g, 2))
    assert out["consistent"] is True
    assert out["ring_is_maximal"] is False
    assert out["valuation"] == 1


def test_coprime_case_is_maximal_and_trivial():
    g = G.cyclic(5)
    res = dt_query(g, 3)
    out = maximality_consequence(g, 3, res)
    assert res.kind == "trivial"
    assert out["ring_is_maximal"] is True
    assert out["all_idempotents_integral"] is True
    assert out["consistent"] is True


def test_odd_p_group_claim_needs_maximal_ring():
    g = G.cyclic(3)
    claim = DTAssertion("cyclic", 3, (), ("hypothetical",))
    out = maximality_consequence(g, 3, claim)
    assert out["dt_is_p_group"] is True
    assert out["consistent"] is False


def test_engine_output_always_consistent_across_catalog():
    for name, make in CATALOG:
        g = make()
        for p in (2, 3, 5, 7):
            out = dt_query(g, p)
            res = maximality_consequence(g, p, out)
            assert res["consistent"] is True, (name, p)
            assert res["ring_is_maximal"] == res["all_idempotents_integral"]


def test_maximality_matches_block_data_directly():
    # maximality_consequence reports all_idempotents_integral as
    # ring_is_maximal; the block data must agree in both directions
    for name, make in CATALOG:
        g = make()
        for p in (2, 3, 5, 7):
            blocks = padic_blocks(character_table(g), p)
            integral = all(b.idempotent_integral for b in blocks)
            assert integral == (g.order % p != 0), (name, p)
            out = maximality_consequence(g, p, dt_query(g, p))
            assert out["all_idempotents_integral"] == integral, (name, p)


def test_dt_and_maximality_build_no_table_where_no_rule_reads_one(monkeypatch):
    def refuse(group):
        raise AssertionError("dixon_table called")

    monkeypatch.setattr(chartable, "dixon_table", refuse)
    g = G.inversion([15])
    res = dt_query(g, 2)
    assert res.kind == "trivial" and DT_INVERSION in res.citations
    out = maximality_consequence(g, 2, res)
    assert out["consistent"] and not out["all_idempotents_integral"]
    c2_5 = G.from_generators([
        [j ^ 1 if j // 2 == i else j for j in range(10)] for i in range(5)
    ])
    assert c2_5.order == 32 and c2_5.family is None
    res = dt_query(c2_5, 3)
    assert res.kind == "trivial"
    out = maximality_consequence(c2_5, 3, res)
    assert out["consistent"] and out["all_idempotents_integral"]


def test_odd_part_inverted_finds_the_odd_order_elements():
    for g in (G.dihedral(9), G.dihedral(15), G.symmetric(3), G.inversion([7])):
        odd = {x for x in range(g.order) if g.element_order(x) % 2}
        assert _odd_part_inverted(g) == odd, g.family
        assert all(g.mul(g.mul(t, x), t) == g.inv(x)
                   for t in set(range(g.order)) - odd for x in odd)
    # C10 and C18 have |G|/2 odd-order elements but no involution outside
    # them; in Aff(7) the 21 odd-order elements form a subgroup, but the
    # elements outside it are not all involutions
    for g in (G.cyclic(10), G.cyclic(18), G.affine(7)):
        assert _odd_part_inverted(g) is None, g.family


def test_odd_part_inverted_matches_the_group_law_reference():
    groups = list(catalog())  # frob72 among them
    groups += [G.cyclic(n) for n in range(1, 41)] + [G.dihedral(n) for n in range(1, 31)]
    groups += [G.inversion(orders) for orders in (
        [1], [2], [3], [5], [9], [15], [21], [2, 2], [3, 3], [3, 5], [3, 9], [5, 5])]
    groups += [G.direct_product(G.symmetric(3), G.cyclic(n)) for n in (3, 5)]
    groups += [G.direct_product(G.dihedral(n), G.cyclic(2)) for n in (3, 5)]
    groups += [G.affine(q) for q in (3, 7, 11)] + [G.metacyclic(7, 3), G.metacyclic(11, 5)]
    assert len(groups) == 126
    found = 0
    for g in groups:
        want = reference_odd_part_inverted(g)
        assert _odd_part_inverted(g) == want, (g.family, g.order)
        found += want is not None
    assert found == 37


def test_c2_7_at_two_reads_only_the_normal_odd_order_subgroups(monkeypatch):
    """On C2^7 (29,212 normal subgroups) at p = 2 the quotient walks and
    the epsilon rule ask only for the normal subgroups of odd order."""
    g = G.from_generators([
        [j ^ 1 if j // 2 == i else j for j in range(14)] for i in range(7)
    ])
    asked = []
    real = G.FiniteGroup.normal_subgroups

    def spy(self, d=None):
        asked.append((self.order, d))
        return real(self, d)

    monkeypatch.setattr(G.FiniteGroup, "normal_subgroups", spy)
    assert dt_query(g, 2).kind == "nontrivial"
    for conjecture in ("local-epsilon", "global-epsilon"):
        rep = conjecture_report(Scenario(group=g, p=2, conjecture=conjecture))
        assert not rep.derivation
    assert asked and set(asked) == {(128, 1)}
