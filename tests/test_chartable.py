import hashlib
import math
import random
from fractions import Fraction

import pytest

from holring import chartable
from holring.chartable import (
    Character,
    _finish,
    abelian_table,
    affine_table,
    character_table,
    derived_table,
    dixon_table,
    frobenius_table,
    induce_character,
    inversion_table,
    product_table,
)
from holring.cyclotomic import CycloNum, prime_divisors
from holring.dt import _product_decompositions
from holring.groups import (
    ConjClassData,
    affine,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frob72,
    from_generators,
    from_spec,
    group_name,
    inversion,
    metacyclic,
    quaternion,
    symmetric,
)
from holring.verify import catalog

from helpers import cyclic_product_generators


def _as_int_rows(table):
    rows = []
    for ch in table.characters:
        row = []
        for v in ch.values:
            r = v.as_rational()
            assert r is not None and r.denominator == 1
            row.append(int(r))
        rows.append(row)
    return rows


def test_s4_table_is_pinned():
    """The canonical ordering fixes every row and column of the S4 table."""
    g = symmetric(4)
    t = character_table(g)
    cls = g.classes()
    assert [g.element_order(r) for r in cls.representatives] == [1, 2, 2, 3, 4]
    assert list(cls.sizes) == [1, 6, 3, 8, 6]
    assert _as_int_rows(t) == [
        [1, 1, 1, 1, 1],
        [1, -1, 1, 1, -1],
        [2, 0, 2, -1, 0],
        [3, 1, -1, 0, -1],
        [3, -1, -1, 0, 1],
    ]


def test_q8_table_is_pinned():
    t = character_table(quaternion())
    assert [ch.degree for ch in t.characters] == [1, 1, 1, 1, 2]
    assert _as_int_rows(t)[4] == [2, -2, 0, 0, 0]


@pytest.mark.parametrize(
    "group",
    [symmetric(4), quaternion(), alternating(4), dihedral(6), alternating(5),
     metacyclic(7, 3)],
    ids=["s4", "q8", "a4", "d12", "a5", "c7:c3"],
)
def test_orthogonality(group):
    t = character_table(group, method="generic")
    chars = t.characters
    k = len(chars)
    for i in range(k):
        for j in range(k):
            got = chars[i].inner(chars[j]).as_rational()
            assert got == (1 if i == j else 0)
    # column orthogonality against centralizer orders
    cls = group.classes()
    for ci in range(k):
        for cj in range(k):
            s = CycloNum.rational(0)
            for ch in chars:
                s = s + ch.values[ci] * ch.values[cj].conjugate()
            want = Fraction(group.order, cls.sizes[ci]) if ci == cj else 0
            assert s.as_rational() == want


def _seeded_cyclic_products(count, seed):
    """Products of cyclic groups of order <= 128, given by generators on
    shuffled points: abelian groups with no family."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        orders = [rng.randint(2, 9) for _ in range(rng.randint(1, 4))]
        if math.prod(orders) <= 128:
            out.append((orders, from_generators(cyclic_product_generators(orders, rng))))
    return out


SEEDED_ABELIAN = _seeded_cyclic_products(12, 41)
INVERSION_ORDERS = [[2, 2], [2, 4], [3, 3], [2, 2, 2], [4, 6]]


@pytest.mark.parametrize(
    "group, closed",
    [
        (cyclic(12), abelian_table),
        (dihedral(5), inversion_table),
        (dihedral(6), inversion_table),
        (affine(7), affine_table),
        (affine(8), affine_table),
        (direct_product(symmetric(3), cyclic(2)), product_table),
        # q = 11 is below k = 16 here
        (direct_product(direct_product(cyclic(2), cyclic(2)),
                        direct_product(cyclic(2), cyclic(2))), product_table),
    ]
    # Dixon inverts once per cyclic subgroup and re-indexes the value at
    # every class of its powers: abelian groups have the most such classes
    + [(cyclic(n), abelian_table) for n in range(1, 41) if n != 12]
    + [(direct_product(cyclic(a), cyclic(b)), product_table) for a, b in ((2, 6), (4, 6), (3, 9))]
    # abelian groups with no family, and A x| <t> with t inverting A
    + [(g, abelian_table) for _, g in SEEDED_ABELIAN]
    + [(dihedral(n), inversion_table) for n in range(1, 31) if n not in (5, 6)]
    + [(inversion(orders), inversion_table) for orders in INVERSION_ORDERS],
    ids=["c12", "d10", "d12", "aff7", "aff8", "s3xc2", "c2^4"]
    + [f"c{n}" for n in range(1, 41) if n != 12] + ["c2xc6", "c4xc6", "c3xc9"]
    + ["gens-" + "x".join(f"c{n}" for n in orders) for orders, _ in SEEDED_ABELIAN]
    + [f"d{2 * n}" for n in range(1, 31) if n not in (5, 6)]
    + ["i" + "x".join(map(str, orders)) for orders in INVERSION_ORDERS],
)
def test_generic_engine_matches_closed_forms(group, closed):
    a = closed(group)
    b = dixon_table(group)
    assert a.characters == b.characters
    assert _keys(a) == _keys(b)


def test_abelian_groups_with_no_closed_form_never_run_dixon(monkeypatch):
    def refuse(group):
        raise AssertionError("dixon_table called")

    monkeypatch.setattr(chartable, "dixon_table", refuse)
    for g in (from_generators(cyclic_product_generators([2, 6])), symmetric(2), alternating(3)):
        assert len(character_table(g).characters) == g.order


@pytest.mark.parametrize("orders", [[3, 4, 5, 7], [2] * 10], ids=["c420", "c2^10"])
def test_abelian_route_passes_the_table_checks_at_large_orders(orders):
    # _finish asserts the character count, the degrees and distinctness
    g = from_generators(cyclic_product_generators(orders))
    t = abelian_table(g)
    assert len(t.characters) == g.order == math.prod(orders)


@pytest.mark.parametrize(
    "group",
    # metacyclic(29, 28) has q = 2,437, so Dixon's split scans a large F_q
    [affine(5), metacyclic(7, 3), frob72(), inversion([7]), metacyclic(29, 28)],
    ids=["aff5", "c7:c3", "frob72", "d14", "c29:c28"],
)
def test_kernel_induction_route_matches_generic(group):
    a = frobenius_table(group)
    b = dixon_table(group)
    assert a.characters == b.characters


@pytest.mark.parametrize("group", [
    from_generators([tuple(t ^ 1 if t // 2 == j else t for t in range(10)) for j in range(5)]),
    symmetric(5),
], ids=["C2^5", "S5"])
def test_dixon_builds_class_matrices_only_until_the_split_ends(monkeypatch, group):
    built = []
    class_matrix = ConjClassData.class_matrix

    def counting(self, g, i):
        built.append(i)
        return class_matrix(self, g, i)

    monkeypatch.setattr(ConjClassData, "class_matrix", counting)
    k = len(group.classes().classes)
    assert len(dixon_table(group).characters) == k
    assert 0 < len(built) < k - 1


def test_product_table_degrees():
    g = direct_product(symmetric(3), cyclic(2))
    t = character_table(g)
    assert [ch.degree for ch in t.characters] == [1, 1, 1, 1, 2, 2]


def test_a5_quadratic_values():
    g = alternating(5)
    t = character_table(g)
    assert [ch.degree for ch in t.characters] == [1, 3, 3, 4, 5]
    assert [ch.field_conductor for ch in t.characters] == [1, 5, 5, 1, 1]
    cls = g.classes()
    five_classes = [ci for ci, rep in enumerate(cls.representatives)
                    if g.element_order(rep) == 5]
    assert len(five_classes) == 2
    for ci in five_classes:
        a = t.characters[1].values[ci]
        b = t.characters[2].values[ci]
        # the two values are the roots of x^2 - x - 1
        assert (a + b).as_rational() == 1
        assert (a * b).as_rational() == -1


def test_frob72_table():
    g = frob72()
    t = character_table(g)
    assert [ch.degree for ch in t.characters] == [1, 1, 1, 1, 2, 8]
    cls = g.classes()
    assert [g.element_order(r) for r in cls.representatives] == [1, 2, 3, 4, 4, 4]
    assert _as_int_rows(t)[5] == [8, 0, -1, 0, 0, 0]
    assert _as_int_rows(t)[4] == [2, -2, 2, 0, 0, 0]


def test_metacyclic_table():
    t = character_table(metacyclic(7, 3), method="generic")
    assert [ch.degree for ch in t.characters] == [1, 1, 1, 3, 3]
    assert [ch.field_conductor for ch in t.characters] == [1, 3, 3, 7, 7]


def test_cyclic8_conductors():
    t = character_table(cyclic(8))
    assert sorted(ch.field_conductor for ch in t.characters) == [1, 1, 4, 4, 8, 8, 8, 8]


def test_kernels_s4():
    g = symmetric(4)
    t = character_table(g)
    subs = g.normal_subgroups()
    assert t.characters[0].kernel == frozenset(range(24))
    assert t.characters[1].kernel == subs[2]  # sign: kernel A4
    assert t.characters[2].kernel == subs[1]  # 2-dim: kernel V4
    assert t.characters[3].kernel == frozenset([0])
    assert t.characters[4].kernel == frozenset([0])


def test_induction_from_order_two_subgroup():
    g = symmetric(3)
    refl = g.index[(1, 0, 2)]
    h, embed = g.subgroup_as_group(frozenset([0, refl]))
    ht = character_table(h)
    ind = induce_character(g, h, embed, ht.characters[0])
    assert ind.degree == 3
    vals = [v.as_rational() for v in ind.values]
    assert vals == [3, 1, 0]
    # Frobenius reciprocity for every irreducible of g
    gt = character_table(g)
    gcls, hcls = g.classes(), h.classes()
    for ch in gt.characters:
        res = Character(h, [ch.values[gcls.class_of[embed[rep]]]
                            for rep in hcls.representatives])
        lhs = ind.inner(ch).as_rational()
        rhs = ht.characters[0].inner(res).as_rational()
        assert lhs == rhs


def test_trivial_and_tiny_groups():
    t1 = character_table(cyclic(1))
    assert len(t1.characters) == 1
    assert t1.characters[0].degree == 1
    t2 = character_table(cyclic(2))
    assert _as_int_rows(t2) == [[1, 1], [1, -1]]
    tv = character_table(dihedral(2))
    assert [ch.degree for ch in tv.characters] == [1, 1, 1, 1]


def test_tables_are_cached():
    g = symmetric(4)
    assert character_table(g) is character_table(g)


def _galois_orbit_by_values(g, table, i):
    """Reference: apply zeta -> zeta^k to every value of chi_i and look
    the image up among the characters by value."""
    lookup = {ch.values: j for j, ch in enumerate(table.characters)}
    exponent = g.exponent()
    return {
        k: lookup[tuple(v.galois(k) for v in table.characters[i].values)]
        for k in range(1, exponent + 1)
        if math.gcd(k, exponent) == 1
    }


@pytest.mark.parametrize("method", ["auto", "generic"])
def test_galois_orbit_matches_action_on_values(method):
    for g in catalog():
        t = character_table(g, method)
        for i in range(len(t.characters)):
            assert t.galois_orbit(i) == _galois_orbit_by_values(g, t, i), (
                group_name(g), method, i)


def test_equal_characters_hash_equal():
    g = cyclic(12)
    chars = character_table(g).characters
    for ch in chars:
        # the same values written at a larger conductor are stored minimal
        again = Character(g, [v.embedded(24) for v in ch.values])
        assert again == ch and hash(again) == hash(ch) and again.key == ch.key
    assert len({ch.key for ch in chars}) == len({hash(ch) for ch in chars}) == 12


def test_finish_rejects_a_duplicate_character():
    # the conductor-8 row goes through _finish's memo of minimal, which
    # brings it down to the values of row 1
    g = cyclic(4)
    rows = [ch.values for ch in character_table(g).characters]
    rows[3] = [v.embedded(8) for v in rows[1]]
    with pytest.raises(AssertionError, match="pairwise distinct"):
        _finish(g, rows)


def test_finish_rejects_a_degree_that_does_not_divide_the_order():
    # 1, 1, 2, 2, 5, 6, 7 squared sum to |S5| = 120 over its 7 classes,
    # but 7 does not divide 120
    g = symmetric(5)
    k = len(g.classes().classes)
    rows = [[d] + [i] * (k - 1) for i, d in enumerate([1, 1, 2, 2, 5, 6, 7])]
    with pytest.raises(AssertionError, match="divide"):
        _finish(g, rows)


@pytest.mark.parametrize("method", ["auto", "generic"])
def test_stored_values_are_minimal_and_kernels_match_values(method):
    for g in catalog():
        for ch in character_table(g, method).characters:
            assert all(v.minimal() is v for v in ch.values), group_name(g)
            cls = g.classes()
            by_value = {x for v, members in zip(ch.values, cls.classes)
                        if v == ch.degree for x in members}
            assert ch.kernel == by_value, group_name(g)


@pytest.mark.parametrize("method", ["auto", "generic"])
def test_minimal_runs_no_galois_search(monkeypatch, method):
    minimal, galois = CycloNum.minimal, CycloNum.galois
    depth, calls, built = [0], [], []

    def counting_minimal(self):
        built.append(self.m)
        depth[0] += 1
        try:
            return minimal(self)
        finally:
            depth[0] -= 1

    def counting_galois(self, k):
        if depth[0]:
            calls.append((self.m, k))
        return galois(self, k)

    monkeypatch.setattr(CycloNum, "minimal", counting_minimal)
    monkeypatch.setattr(CycloNum, "galois", counting_galois)
    for g in (symmetric(5), cyclic(20), affine(9)):
        t = character_table(g, method)
        assert len(t.characters) == len(g.classes().classes)
    assert built and calls == []


# -- tables derived from a parent table ------------------------------------


def _keys(table):
    return [ch.key for ch in table.characters]


def _fresh_catalog():
    """Copies of the catalog groups with empty caches, so every table
    below is derived here rather than read from an earlier test."""
    return [from_spec(g.family) for g in catalog()]


def test_quotient_tables_are_inflations_of_the_parent():
    for g in _fresh_catalog():
        t = character_table(g)
        for n in g.normal_subgroups():
            if len(n) in (1, g.order):
                continue
            q, to_q = g.quotient(n)
            lift = dict(zip(to_q, range(g.order)))
            derived = derived_table(t, q, lift, n)
            assert character_table(q) is derived
            assert _keys(derived) == _keys(dixon_table(q)), (group_name(g), len(n))


def test_direct_factor_tables_are_restrictions_of_the_parent():
    pairs = 0
    for g in _fresh_catalog():
        t = character_table(g)
        for m, h in _product_decompositions(g, frozenset([0])):
            for sub, other in ((m, h), (h, m)):
                f, embed = g.subgroup_as_group(sub)
                derived = derived_table(t, f, embed, other)
                assert _keys(derived) == _keys(dixon_table(f)), (group_name(g), len(sub))
                pairs += 1
    assert pairs >= 20


def test_generic_after_auto_runs_dixon_once(monkeypatch):
    runs = []

    def counting(group):
        runs.append(group)
        return dixon_table(group)

    monkeypatch.setattr(chartable, "dixon_table", counting)
    g = symmetric(4)
    assert character_table(g, "generic") is character_table(g, "auto")
    h = symmetric(4)
    assert character_table(h, "auto") is character_table(h, "generic")
    assert runs == [g, h]


def test_derived_tables_seed_the_cache_for_dt(monkeypatch):
    from holring.dt import dt_query

    groups = (symmetric(4), direct_product(cyclic(2), cyclic(6)), dihedral(6))
    for g in groups:
        character_table(g)
    runs = []
    monkeypatch.setattr(chartable, "dixon_table",
                        lambda group: runs.append(group) or dixon_table(group))
    for g in groups:
        for p in prime_divisors(g.order):
            dt_query(g, p)
    assert runs == []


def test_tables_keep_their_keys():
    """One sha256 over the character keys of every catalog group's "auto"
    and "generic" tables and of the derived tables of the quotients of S4
    and frob72, in table order."""
    h = hashlib.sha256()
    for g in _fresh_catalog():
        for method in ("auto", "generic"):
            h.update(repr(_keys(character_table(g, method))).encode())
    for g in (symmetric(4), frob72()):
        t = character_table(g)
        for n in g.normal_subgroups()[1:-1]:
            q, to_q = g.quotient(n)
            lift = dict(zip(to_q, range(g.order)))
            h.update(repr(_keys(derived_table(t, q, lift, n))).encode())
    assert h.hexdigest() == "a6f2e14eba1c39e37b03187273e743bc1711cfb27b2a061c05a93c2dca53df45"
