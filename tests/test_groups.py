import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holring import groups
from holring.chartable import character_table
from holring.cyclotomic import CycloNum, prime_divisors
from holring.groups import (
    MAX_ORDER,
    affine,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frob72,
    from_generators,
    from_spec,
    inversion,
    metacyclic,
    quaternion,
    symmetric,
)
from holring.verify import catalog

from helpers import (
    abelian_invariants,
    reference_commutator_subgroup,
    reference_frobenius_kernel,
    reference_inversion,
    reference_normal_subgroups,
)


def _inv_tuple(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _oracle_classes(elements):
    """Conjugacy classes computed on raw permutation tuples.

    Independent of the group's multiplication tables: conjugation is done
    by direct tuple composition t o x o t^{-1}.
    """
    remaining = set(elements)
    out = []
    while remaining:
        x = sorted(remaining)[0]
        orbit = set()
        for t in elements:
            ti = _inv_tuple(t)
            orbit.add(tuple(t[x[ti[i]]] for i in range(len(t))))
        assert orbit <= set(elements)
        out.append(frozenset(orbit))
        remaining -= orbit
    return out


def test_family_orders():
    assert cyclic(12).order == 12
    assert dihedral(7).order == 14
    assert dihedral(1).order == 2
    assert dihedral(2).order == 4
    assert symmetric(4).order == 24
    assert alternating(5).order == 60
    assert quaternion().order == 8
    assert affine(5).order == 20
    assert affine(4).order == 12
    assert affine(8).order == 56
    assert affine(9).order == 72
    assert inversion([9]).order == 18
    assert metacyclic(7, 3).order == 21
    assert frob72().order == 72
    assert direct_product(symmetric(3), cyclic(2)).order == 12


def test_identity_is_id_zero_and_elements_sorted():
    g = symmetric(4)
    assert g.elements[0] == tuple(range(g.degree))
    assert list(g.elements[1:]) == sorted(g.elements[1:])


def test_group_axioms_spot_checks():
    for g in (symmetric(3), quaternion(), affine(4)):
        n = g.order
        for a in range(n):
            assert g.mul(a, g.inv(a)) == 0
            assert g.mul(g.inv(a), a) == 0
            assert g.mul(a, 0) == a == g.mul(0, a)
        # associativity on a fixed triple sweep
        for a in range(0, n, 2):
            for b in range(1, n, 3):
                for c in range(n):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize(
    "g, step",
    [
        (cyclic(1), 1),
        (cyclic(12), 1),
        (quaternion(), 1),
        (affine(8), 1),
        (frob72(), 1),
        (direct_product(direct_product(cyclic(2), cyclic(2)), symmetric(3)), 1),
        (symmetric(6), 7),
    ],
)
def test_cayley_table_matches_composition(g, step):
    """Table rows against direct tuple composition (g*h)(x) = g(h(x))."""
    table = g.cayley_table()
    assert len(table) == g.order
    for a in range(0, g.order, step):
        p = g.elements[a]
        assert [g.elements[c] for c in table[a]] == [tuple(p[x] for x in q) for q in g.elements]


_CATALOG = [cyclic(6), dihedral(4), symmetric(3), quaternion(), affine(4)]


@given(
    gi=st.integers(min_value=0, max_value=len(_CATALOG) - 1),
    a=st.integers(min_value=0, max_value=7),
    j=st.integers(min_value=-8, max_value=8),
    k=st.integers(min_value=-8, max_value=8),
)
def test_power_laws(gi, a, j, k):
    g = _CATALOG[gi]
    x = a % g.order
    assert g.mul(g.power(x, j), g.power(x, k)) == g.power(x, j + k)
    assert g.power(x, g.element_order(x)) == 0


@pytest.mark.parametrize(
    "g, expected",
    [
        (affine(5), 5),
        (symmetric(4), 5),
        (quaternion(), 5),
        (frob72(), 6),
        (affine(9), 9),
        (affine(8), 8),
        (dihedral(6), 6),
    ],
)
def test_class_counts_against_tuple_oracle(g, expected):
    oracle = _oracle_classes(g.elements)
    assert len(oracle) == expected
    cls = g.classes()
    assert len(cls.classes) == expected
    got = {frozenset(g.elements[i] for i in c) for c in cls.classes}
    assert got == set(oracle)


def test_class_ordering_and_maps():
    g = symmetric(4)
    cls = g.classes()
    assert cls.classes[0] == (0,)
    orders = [g.element_order(r) for r in cls.representatives]
    assert orders == sorted(orders) == [1, 2, 2, 3, 4]
    assert sorted(cls.sizes) == [1, 3, 6, 6, 8]
    for ci, rep in enumerate(cls.representatives):
        for k in range(-3, 6):
            assert cls.power_class(ci, k) == cls.class_of[g.power(rep, k)]


def test_power_maps_over_the_catalog():
    for g in catalog():
        cls, e = g.classes(), g.exponent()
        for ci, rep in enumerate(cls.representatives):
            assert len(cls.powers[ci]) == g.element_order(rep)
            for k in range(-e, e + 1):
                assert cls.power_class(ci, k) == cls.class_of[g.power(rep, k)], (
                    g.family, ci, k)


def test_structure_constants_count_products_over_the_catalog():
    for g in catalog():
        cls = g.classes()
        k = len(cls.classes)
        a = [cls.class_matrix(g, i) for i in range(k)]
        for kk, z in enumerate(cls.representatives):
            for i in range(k):
                for j in range(k):
                    pairs = sum(
                        g.mul(x, y) == z for x in cls.classes[i] for y in cls.classes[j]
                    )
                    assert a[i][j][kk] == pairs, (g.family, i, j, kk)


def test_structure_constants_match_the_character_formula():
    # a_ijk = |C_i||C_j|/|G| sum_chi chi(g_i) chi(g_j) conj(chi(g_k)) / chi(1)
    # (Isaacs, Character Theory of Finite Groups, ch. 3), exactly in CycloNum
    for g in catalog():
        cls, table = g.classes(), character_table(g)
        k = len(cls.classes)
        a = [cls.class_matrix(g, i) for i in range(k)]
        conj = [[v.conjugate() for v in ch.values] for ch in table.characters]
        for i in range(k):
            for j in range(k):
                weights = [
                    ch.values[i] * ch.values[j] * Fraction(cls.sizes[i] * cls.sizes[j], g.order * ch.degree)
                    for ch in table.characters
                ]
                for kk in range(k):
                    total = sum((w * c[kk] for w, c in zip(weights, conj)), CycloNum.rational(0))
                    assert total == a[i][j][kk], (g.family, i, j, kk)


def test_exponent_is_computed_once(monkeypatch):
    g = symmetric(4)
    assert g.exponent() == 12
    calls = []
    element_order = groups.FiniteGroup.element_order

    def counting(self, a):
        calls.append(a)
        return element_order(self, a)

    monkeypatch.setattr(groups.FiniteGroup, "element_order", counting)
    assert g.exponent() == 12
    assert calls == []


def test_element_orders_and_exponent():
    g = symmetric(4)
    counts = {}
    for x in range(g.order):
        counts[g.element_order(x)] = counts.get(g.element_order(x), 0) + 1
    assert counts == {1: 1, 2: 9, 3: 8, 4: 6}
    assert g.exponent() == 12
    assert quaternion().exponent() == 4
    assert frob72().exponent() == 12


def test_p_singular_classes():
    cls = symmetric(4).classes()
    assert len(cls.p_singular_classes(2)) == 3
    assert len(cls.p_singular_classes(3)) == 1
    assert cls.p_singular_classes(5) == frozenset()


def test_normal_subgroups_s4():
    g = symmetric(4)
    subs = g.normal_subgroups()
    assert list(map(len, subs)) == [1, 4, 12, 24]
    v4 = subs[1]
    assert all(g.mul(a, b) == g.mul(b, a) for a in v4 for b in v4)
    assert all(g.element_order(x) <= 2 for x in v4)


def test_normal_subgroups_are_copied_on_return():
    g = symmetric(4)
    g.normal_subgroups().pop()
    assert list(map(len, g.normal_subgroups())) == [1, 4, 12, 24]


def test_normal_subgroups_are_kept_per_order(monkeypatch):
    """A repeated call returns a fresh copy of the kept list, with no
    closure and no product of the lattice computed again."""
    g = dihedral(6)
    calls = []
    real_closure, real_mul = g.subgroup_closure, g.mul
    monkeypatch.setattr(g, "subgroup_closure", lambda gens: calls.append("closure") or real_closure(gens))
    monkeypatch.setattr(g, "mul", lambda a, b: calls.append("mul") or real_mul(a, b))
    first, first_6 = g.normal_subgroups(), g.normal_subgroups(6)
    assert calls.count("closure") == len(g.classes().classes) and "mul" in calls
    calls.clear()
    first.append(frozenset())
    assert g.normal_subgroups() == first[:-1] and g.normal_subgroups(6) == first_6
    assert g.normal_subgroups() is not g.normal_subgroups()
    assert calls == []


def test_normal_subgroups_various():
    assert list(map(len, alternating(5).normal_subgroups())) == [1, 60]
    assert list(map(len, cyclic(12).normal_subgroups())) == [1, 2, 3, 4, 6, 12]
    assert list(map(len, quaternion().normal_subgroups())) == [1, 2, 4, 4, 4, 8]
    assert list(map(len, dihedral(6).normal_subgroups())) == [1, 2, 3, 6, 6, 6, 12]
    g = dihedral(6)
    cls = g.classes()
    for s in g.normal_subgroups():
        # a union of classes: closed under conjugation
        assert all(set(cls.classes[cls.class_of[x]]) <= s for x in s)


def test_commutator_subgroups():
    assert len(symmetric(4).commutator_subgroup()) == 12
    assert len(quaternion().commutator_subgroup()) == 2
    assert len(cyclic(10).commutator_subgroup()) == 1
    assert len(frob72().commutator_subgroup()) == 18
    assert len(dihedral(5).commutator_subgroup()) == 5


def _lattice_groups():
    """The catalog, some larger groups, products, and every quotient of S4
    and frob72 by a normal subgroup: 58 groups, in a fixed order."""
    out = list(catalog()) + [
        symmetric(5), alternating(5), metacyclic(7, 3), metacyclic(13, 4), metacyclic(31, 5),
        inversion([3, 3]), inversion([15]),
        direct_product(cyclic(3), alternating(4)), direct_product(symmetric(3), dihedral(5)),
        direct_product(cyclic(2), cyclic(2)), direct_product(quaternion(), cyclic(2)),
        direct_product(dihedral(4), cyclic(2)),
    ]
    for g in (symmetric(4), frob72()):
        out += [g.quotient(n)[0] for n in g.normal_subgroups()]
    assert len(out) == 58
    return out


def test_subgroup_lattice_and_element_orders_keep_their_values():
    """One sha256 over the elements, normal subgroups, G', Frobenius kernel,
    element orders, exponent, abelian flag and classes of 58 groups."""
    h = hashlib.sha256()
    for g in _lattice_groups():
        k = g.frobenius_kernel()
        h.update(repr((
            g.elements, [sorted(n) for n in g.normal_subgroups()],
            sorted(g.commutator_subgroup()),
            None if k is None else sorted(k),
            [g.element_order(x) for x in range(g.order)], g.exponent(), g.is_abelian(),
            g.classes(),
        )).encode())
    assert h.hexdigest() == "31eb028e107a6a56401eb24974c4a250a2fa080f1205b79369753ef4f6993e36"


def test_normal_subgroups_of_order_dividing_d_filter_the_full_lattice():
    for g in _lattice_groups():
        full = g.normal_subgroups()
        for d in (d for d in range(1, g.order + 1) if g.order % d == 0):
            assert g.normal_subgroups(d) == [n for n in full if d % len(n) == 0], (g.order, d)


def test_normal_subgroup_atoms_are_closed_once_per_class(monkeypatch):
    g = symmetric(4)
    calls = []
    real = g.subgroup_closure
    monkeypatch.setattr(g, "subgroup_closure", lambda gens: calls.append(1) or real(gens))
    assert [list(map(len, g.normal_subgroups(d))) for d in (3, 4, 24, 12, None)] == [
        [1], [1, 4], [1, 4, 12, 24], [1, 4, 12], [1, 4, 12, 24],
    ]
    assert len(calls) == len(g.classes().classes)


def test_subgroup_lattice_matches_the_brute_force_references():
    for g in _lattice_groups():
        assert g.normal_subgroups() == reference_normal_subgroups(g)
        assert g.commutator_subgroup() == reference_commutator_subgroup(g)
        assert g.frobenius_kernel() == reference_frobenius_kernel(g)


@pytest.mark.parametrize(
    "g, korder, corder",
    [
        (dihedral(5), 5, 2),
        (affine(7), 7, 6),
        (affine(4), 4, 3),
        (metacyclic(7, 3), 7, 3),
        (inversion([9]), 9, 2),
        (frob72(), 9, 8),
        (alternating(4), 4, 3),
    ],
)
def test_frobenius_detection(g, korder, corder):
    kernel = g.frobenius_kernel()
    assert kernel is not None
    assert len(kernel) == korder
    # a complement maps isomorphically onto G/N, so its order is the index
    assert g.order // len(kernel) == corder
    assert math.gcd(len(kernel), corder) == 1
    assert kernel in g.normal_subgroups()
    # centralizer criterion holds on the kernel
    for n in kernel:
        if n != 0:
            assert g.centralizer(n) <= kernel


def test_not_frobenius():
    assert symmetric(4).frobenius_kernel() is None
    assert quaternion().frobenius_kernel() is None
    assert cyclic(6).frobenius_kernel() is None
    assert dihedral(6).frobenius_kernel() is None


def test_frob72_kernel_meta_matches_detection():
    g = frob72()
    kernel = g.frobenius_kernel()
    assert kernel == g.meta["kernel"]
    # G/N, isomorphic to a complement, is Q8: unique element of order 2
    q, _ = g.quotient(kernel)
    orders = sorted(q.element_order(x) for x in range(q.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quotient_s4():
    g = symmetric(4)
    subs = g.normal_subgroups()
    v4 = subs[1]
    q, to_q = g.quotient(v4)
    assert q.order == 6
    assert not q.is_abelian()
    # quotient map is a homomorphism with kernel V4
    for a in range(0, g.order, 3):
        for b in range(g.order):
            assert to_q[g.mul(a, b)] == q.mul(to_q[a], to_q[b])
    assert {x for x in range(g.order) if to_q[x] == 0} == set(v4)
    q2, _ = g.quotient(subs[2])
    assert q2.order == 2


def test_quotient_frob72_is_quaternion_like():
    g = frob72()
    q, _ = g.quotient(g.meta["kernel"])
    assert q.order == 8
    assert not q.is_abelian()
    assert sum(1 for x in range(8) if q.element_order(x) == 2) == 1


def test_subgroup_as_group_embedding():
    g = symmetric(4)
    a4 = g.normal_subgroups()[2]
    h, embed = g.subgroup_as_group(a4)
    assert h.order == 12
    assert embed[0] == 0
    for a in range(h.order):
        for b in range(h.order):
            assert g.mul(embed[a], embed[b]) == embed[h.mul(a, b)]


def test_derived_groups_are_built_once_and_do_not_alias():
    g = symmetric(4)
    v4, a4 = g.normal_subgroups()[1:3]
    q, to_q = g.quotient(v4)
    again, to_q_again = g.quotient(set(v4))
    assert again is q and to_q_again is to_q
    h, embed = g.subgroup_as_group(a4)
    assert g.subgroup_as_group(sorted(a4)) == (h, embed)
    # the maps are tuples, so no caller can change what the next one reads
    for shared in (to_q, embed):
        with pytest.raises(TypeError):
            shared[0] = 1
    assert to_q[0] == embed[0] == 0


def test_abelian_invariants():
    assert abelian_invariants(cyclic(12)) == [12]
    assert abelian_invariants(cyclic(1)) == []
    assert abelian_invariants(direct_product(cyclic(6), cyclic(2))) == [6, 2]
    assert abelian_invariants(direct_product(cyclic(4), cyclic(6))) == [12, 2]
    assert abelian_invariants(direct_product(cyclic(2), cyclic(2))) == [2, 2]
    g = inversion([3, 3])
    h, _ = g.subgroup_as_group(g.frobenius_kernel())
    assert abelian_invariants(h) == [3, 3]
    with pytest.raises(ValueError, match="non-abelian"):
        abelian_invariants(symmetric(3))


def test_affine_field_and_decomposition():
    g = affine(9)
    field = g.meta["field"]
    assert field.size == 9
    # reconstruct each permutation from its (k, b) decomposition
    gen = field.exp[1]
    for eid, (k, b) in g.meta["decomp"].items():
        a = 1
        for _ in range(k):
            a = field.mul(a, gen)
        perm = tuple(field.add(field.mul(a, x), b) for x in range(field.size))
        assert g.elements[eid] == perm
    assert len(g.meta["kernel"]) == 9


def test_affine_and_metacyclic_groups_keep_their_element_ids():
    """sha256 pins of the element lists, kernels and (log, b) decompositions
    of every Aff(q) with q(q - 1) <= 2000, and of eight metacyclic groups."""
    prime_powers = [q for q in range(2, 46)
                    if len(prime_divisors(q)) == 1 and q * (q - 1) <= MAX_ORDER]
    assert len(prime_powers) == 21
    h = hashlib.sha256()
    for q in prime_powers:
        g = affine(q)
        h.update(repr((q, g.elements, sorted(g.meta["kernel"]),
                       sorted(g.meta["decomp"].items()))).encode())
    assert h.hexdigest() == "0cc5bfd8acc4d0d631cce8d377c29dbe91896cf7498da270cda89875fec11cb2"
    h = hashlib.sha256()
    for l, p in ((7, 3), (13, 3), (13, 4), (13, 6), (31, 5), (43, 7), (43, 21), (43, 42)):
        g = metacyclic(l, p)
        h.update(repr((l, p, g.elements, sorted(g.meta["kernel"]))).encode())
    assert h.hexdigest() == "63ba17e8b0c0121b9ba7f2eb3193c782e0602c6ecafa44c356e61b44e6b5b58a"


INVERSION_ORDERS = [[7], [3, 3], [15], [2, 2, 2], [4, 6], [1], [1, 3], [100]]


@pytest.mark.parametrize("orders", INVERSION_ORDERS)
def test_inversion_groups_match_the_all_translations_construction(orders):
    g, want = inversion(orders), reference_inversion(orders)
    assert g.elements == want.elements
    assert g.meta["kernel"] == want.meta["kernel"]


def test_inversion_groups_are_generated_by_one_translation_per_factor(monkeypatch):
    sizes = []

    def closure(gens):
        sizes.append(len(gens))
        return real(gens)

    real = groups._closure
    monkeypatch.setattr(groups, "_closure", closure)
    for orders in INVERSION_ORDERS + [[999]]:
        sizes.clear()
        g = inversion(orders)
        assert sizes and max(sizes) <= len(orders) + 1, orders
    assert g.order == 1998 and len(g.meta["kernel"]) == 999


def _schoolbook_product(field, a, b):
    """a * b in F_q from the digits of a and b: the polynomial product,
    then long division by the field's modulus."""
    p = prime_divisors(field.size)[0]
    k = len(field.modulus) - 1
    da = [a // p**j % p for j in range(k)]
    db = [b // p**j % p for j in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * field.modulus[j]) % p
    return sum(prod[j] * p**j for j in range(k))


@pytest.mark.parametrize(
    "q", [q for q in range(2, 44) if len(prime_divisors(q)) == 1]
)
def test_field_tables_make_a_field(q):
    field = groups._Field(q)
    p = prime_divisors(q)[0]
    k = len(field.modulus) - 1
    assert p**k == q and field.modulus[-1] == 1
    assert sorted(field.exp) == list(range(1, q))
    assert field.log == {x: j for j, x in enumerate(field.exp)}
    # exp[1] generates the units under the reference product (F_2: exp[0])
    gen = field.exp[1 % (q - 1)]
    x, order = gen, 1
    while x != 1:
        x = _schoolbook_product(field, x, gen)
        order += 1
    assert order == q - 1
    for a in range(q):
        for b in range(q):
            assert field.mul(a, b) == _schoolbook_product(field, a, b)
            assert field.add(a, b) == sum(
                (a // p**j + b // p**j) % p * p**j for j in range(k))
    if q <= 9:
        triples = itertools.product(range(q), repeat=3)
    else:
        rng = random.Random(q)
        triples = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(300)]
    add, mul = field.add, field.mul
    for a, b, c in triples:
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(add(a, b), c) == add(a, add(b, c))


def test_affine_rejects_non_prime_power():
    with pytest.raises(ValueError):
        affine(6)


def test_direct_product_structure():
    a, b = symmetric(3), cyclic(2)
    g = direct_product(a, b)
    ea, eb = g.meta["factor_embeddings"]
    for i in range(a.order):
        for j in range(b.order):
            # embedded factors commute
            x, y = ea[i], eb[j]
            assert g.mul(x, y) == g.mul(y, x)
    pair_of = g.meta["pair_of"]
    for i in (0, 1, 3):
        for j in (0, 1):
            xy = g.mul(ea[i], eb[j])
            assert pair_of[xy] == (i, j)
    assert g.family == {
        "family": "product",
        "factors": [{"family": "symmetric", "n": 3}, {"family": "cyclic", "n": 2}],
    }


def test_from_generators_and_spec():
    g = from_generators([(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    with pytest.raises(ValueError):
        from_generators([(0, 0, 1)])
    spec = {
        "family": "product",
        "factors": [{"family": "dihedral", "n": 3}, {"family": "cyclic", "n": 2}],
    }
    assert from_spec(spec).order == 12
    assert from_spec({"generators": [[1, 2, 3, 0]]}).order == 4
    with pytest.raises(ValueError):
        from_spec({"family": "sporadic"})


@pytest.mark.parametrize("perms", [[(1, 0), (0, 2, 1)], [(0, 2, 1), (1, 0)]])
def test_from_generators_rejects_mixed_degrees(perms):
    with pytest.raises(ValueError, match="same 0..d-1, got degrees 2, 3"):
        from_generators(perms)


@pytest.mark.parametrize("perms", [[(1.0, 0)], [(1, 0, "x")], [(1, 0), (True, False)]])
def test_from_generators_rejects_entries_that_are_not_ints(perms):
    with pytest.raises(ValueError, match="permutation entries must be integers"):
        from_generators(perms)


def test_empty_generator_list_is_rejected():
    with pytest.raises(ValueError, match="at least one generator"):
        from_generators([])
    with pytest.raises(ValueError, match="at least one generator"):
        from_spec({"generators": []})


def test_order_bound_enforced():
    with pytest.raises(ValueError):
        cyclic(groups.MAX_ORDER + 1)
    with pytest.raises(ValueError):
        from_generators([tuple(list(range(1, 2047)) + [0])])
