import math
import random
from fractions import Fraction

import pytest

from holring import chartable
from holring.chartable import (
    Character,
    _finish,
    affine_table,
    character_table,
    cyclic_table,
    derived_table,
    dihedral_table,
    dixon_table,
    frobenius_table,
    induce_character,
    product_table,
)
from holring.cyclotomic import CycloNum, prime_divisors
from holring.dt import _product_decompositions
from holring.groups import (
    affine,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frob72,
    from_spec,
    group_name,
    inversion,
    metacyclic,
    quaternion,
    symmetric,
)
from holring.verify import catalog


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


@pytest.mark.parametrize(
    "group, closed",
    [
        (cyclic(12), cyclic_table),
        (dihedral(5), dihedral_table),
        (dihedral(6), dihedral_table),
        (affine(7), affine_table),
        (affine(8), affine_table),
        (direct_product(symmetric(3), cyclic(2)), product_table),
        # q = 11 is below k = 16 here
        (direct_product(direct_product(cyclic(2), cyclic(2)),
                        direct_product(cyclic(2), cyclic(2))), product_table),
    ],
    ids=["c12", "d10", "d12", "aff7", "aff8", "s3xc2", "c2^4"],
)
def test_generic_engine_matches_closed_forms(group, closed):
    a = closed(group)
    b = dixon_table(group)
    assert a.characters == b.characters


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


def _det_mod(mat, q):
    m = [list(r) for r in mat]
    det = 1
    for c in range(len(m)):
        sel = next((r for r in range(c, len(m)) if m[r][c] % q), None)
        if sel is None:
            return 0
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det = det * m[c][c] % q
        inv = pow(m[c][c], q - 2, q)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv
            m[r] = [(a - f * b) % q for a, b in zip(m[r], m[c])]
    return det % q


def test_charpoly_is_det_x_minus_m_at_every_point():
    rng = random.Random(15)
    q = 7
    cases = [
        [[3 if s == t else 0 for t in range(5)] for s in range(5)],  # scalar
        [[1 if t == s + 1 else 0 for t in range(6)] for s in range(6)],  # nilpotent
        [[0, 0, 1], [0, 2, 0], [5, 0, 4]],  # h[1][0] = 0: needs the row swap
    ]
    # repeated eigenvalues: P diag(2, 2, 2, 5, 5) P^-1 with P unipotent
    p = [[1 if s == t else (rng.randrange(q) if t > s else 0) for t in range(5)]
         for s in range(5)]
    p_inv = [[0] * 5 for _ in range(5)]
    for col in range(5):
        e = [1 if s == col else 0 for s in range(5)]
        for s in reversed(range(5)):
            p_inv[s][col] = (e[s] - sum(p[s][t] * p_inv[t][col]
                                        for t in range(s + 1, 5))) % q
    diag = [2, 2, 2, 5, 5]
    cases.append([[sum(p[s][u] * diag[u] * p_inv[u][t] for u in range(5)) % q
                   for t in range(5)] for s in range(5)])
    for n in range(1, 9):
        cases.append([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
    for mat in cases:
        n = len(mat)
        f = chartable._fq_charpoly(mat, q)
        assert len(f) == n + 1 and f[-1] == 1
        for x in range(q):
            shifted = [[((x if s == t else 0) - mat[s][t]) % q for t in range(n)]
                       for s in range(n)]
            assert sum(c * x**i for i, c in enumerate(f)) % q == _det_mod(shifted, q)
    assert chartable._fq_roots(chartable._fq_charpoly(cases[3], q), q) == [2, 5]
    assert chartable._fq_roots(chartable._fq_charpoly(cases[1], q), q) == [0]


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
    assert t.characters[1].kernel == subs[2].element_ids  # sign: kernel A4
    assert t.characters[2].kernel == subs[1].element_ids  # 2-dim: kernel V4
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
    g = cyclic(4)
    chars = list(character_table(g).characters)
    chars[3] = Character(g, [v.embedded(8) for v in chars[1].values])
    with pytest.raises(AssertionError, match="pairwise distinct"):
        _finish(g, chars, "test")


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
            if n.order in (1, g.order):
                continue
            q, to_q = g.quotient(n.element_ids)
            lift = dict(zip(to_q, range(g.order)))
            derived = derived_table(t, q, lift, n.element_ids)
            assert character_table(q) is derived
            assert _keys(derived) == _keys(dixon_table(q)), (group_name(g), n.order)


def test_direct_factor_tables_are_restrictions_of_the_parent():
    pairs = 0
    for g in _fresh_catalog():
        t = character_table(g)
        for m, h in _product_decompositions(g, frozenset([0])):
            for sub, other in ((m, h), (h, m)):
                f, embed = g.subgroup_as_group(sub.element_ids)
                derived = derived_table(t, f, embed, other.element_ids)
                assert _keys(derived) == _keys(dixon_table(f)), (group_name(g), sub.order)
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
