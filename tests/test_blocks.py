import math
from fractions import Fraction

import pytest

from holring import groups as G
from holring.blocks import (
    central_conductor,
    decomposition_group,
    different_valuation,
    hybrid_report,
    idempotent_certificate,
    padic_blocks,
)
from holring.chartable import character_table
from holring.citations import REGISTRY
from holring.cyclotomic import CycloNum, euler_phi, padic_valuation
from holring.dt import weakly_hybrid

CATALOG = [
    ("c12", lambda: G.cyclic(12)),
    ("s3", lambda: G.symmetric(3)),
    ("s4", lambda: G.symmetric(4)),
    ("a4", lambda: G.alternating(4)),
    ("d10", lambda: G.dihedral(5)),
    ("d12", lambda: G.dihedral(6)),
    ("q8", lambda: G.quaternion()),
    ("aff5", lambda: G.affine(5)),
    ("aff8", lambda: G.affine(8)),
    ("mc73", lambda: G.metacyclic(7, 3)),
]


def test_decomposition_group_is_a_subgroup_containing_frobenius():
    for p in (2, 3, 5):
        for m in range(1, 31):
            members, inertia, w = decomposition_group(p, m)
            mem = set(members)
            assert 1 in mem and inertia <= mem and w in mem
            for a in members:
                for b in members:
                    assert a * b % m in mem or m == 1
            if m > 1 and math.gcd(p, m) == 1:
                assert p % m in mem


def test_different_valuation_frozen_values():
    # full cyclotomic towers and unramified cases
    assert different_valuation(2, 4, frozenset([1])) == 2
    assert different_valuation(2, 8, frozenset([1])) == 8
    assert different_valuation(3, 3, frozenset([1])) == 1
    assert different_valuation(5, 5, frozenset([1])) == 3
    assert different_valuation(7, 7, frozenset([1])) == 5
    assert different_valuation(3, 9, frozenset([1])) == 9
    assert different_valuation(5, 25, frozenset([1])) == 35
    assert different_valuation(2, 7, frozenset([1])) == 0
    assert different_valuation(3, 8, frozenset([1])) == 0
    assert different_valuation(2, 1, frozenset([1])) == 0


def _coset_group(p, m, stab):
    """Quotient D/S as a permutation group via its regular action."""
    members, inertia, _ = decomposition_group(p, m)
    cosets = []
    seen = set()
    for u in members:
        if u in seen:
            continue
        cs = frozenset(u * s % m for s in stab)
        seen |= cs
        cosets.append(cs)
    cosets.sort(key=min)
    where = {}
    for i, cs in enumerate(cosets):
        for u in cs:
            where[u] = i
    perms = []
    for cs in cosets:
        b = min(cs)
        perms.append(tuple(where[min(c) * b % m] for c in cosets))
    grp = G.from_generators(perms)
    assert grp.order == len(cosets)
    to_elem = {}
    for i, t in enumerate(perms):
        to_elem[i] = grp.elements.index(t)
    return grp, cosets, where, to_elem


def _oracle_different(p, m, stab):
    """Conductor-discriminant route: sum the conductor exponents of the
    characters of D/S computed with the character-table engine."""
    members, inertia, _ = decomposition_group(p, m)
    grp, cosets, where, to_elem = _coset_group(p, m, stab)
    table = character_table(grp)
    a = 0
    mm = m
    while mm % p == 0:
        mm //= p
        a += 1
    e_ram = len(inertia) // len(inertia & set(stab))
    f = (len(members) // len(stab)) // e_ram
    total = 0
    for ch in table.characters:
        cexp = 0
        for c in range(a, 0, -1):
            layer = [u for u in inertia if (u - 1) % p ** (c - 1) == 0]
            ids = {to_elem[where[u]] for u in layer}
            trivial = all(
                not (ch.values[grp.classes().class_of[x]] - 1) for x in ids
            )
            if not trivial:
                cexp = c
                break
        total += cexp
    assert total % f == 0
    return total // f


def test_different_valuation_conductor_discriminant_oracle():
    cases = []
    for p, m in [(2, 4), (2, 8), (2, 12), (3, 3), (3, 9), (3, 12),
                 (5, 5), (2, 15), (2, 20), (3, 7)]:
        members, _, _ = decomposition_group(p, m)
        subs = [frozenset([1]), frozenset(members)]
        for d in members:
            cyc = {1}
            x = d
            while x not in cyc:
                cyc.add(x)
                x = x * d % m
            subs.append(frozenset(cyc))
        for stab in {s for s in subs}:
            cases.append((p, m, stab))
    for p, m, stab in cases:
        assert different_valuation(p, m, stab) == _oracle_different(
            p, m, stab
        ), (p, m, sorted(stab))


def test_block_examples_rational_and_fused():
    t2 = character_table(G.cyclic(2))
    bl = padic_blocks(t2, 2)
    assert [b.char_indices for b in bl] == [(0,), (1,)]
    assert all(
        b.residue_degree == 1 and b.ram_index == 1 and b.different_val == 0
        for b in bl
    )
    assert all(not b.idempotent_integral for b in bl)

    t3 = character_table(G.cyclic(3))
    bl = padic_blocks(t3, 2)
    assert [b.char_indices for b in bl] == [(0,), (1, 2)]
    fused = bl[1]
    assert fused.residue_degree == 2 and fused.ram_index == 1
    assert fused.different_val == 0 and fused.idempotent_integral

    bl = padic_blocks(t3, 3)
    assert bl[1].ram_index == 2 and bl[1].different_val == 1
    assert bl[1].residue_degree == 1


def test_block_example_affine_big_character():
    for q, p in [(8, 3), (5, 2), (7, 2), (9, 2)]:
        t = character_table(G.affine(q))
        bl = padic_blocks(t, p)
        big = [b for b in bl if b.degree == q - 1]
        assert len(big) == 1
        b = big[0]
        assert len(b.char_indices) == 1
        assert b.residue_degree == 1 and b.ram_index == 1
        assert b.different_val == 0


def test_block_example_affine5_ramified_linear_pair():
    t = character_table(G.affine(5))
    bl = padic_blocks(t, 2)
    pair = [b for b in bl if b.degree == 1 and len(b.char_indices) == 2]
    assert len(pair) == 1
    b = pair[0]
    # the two order-4 linear characters span Q_2(i), ramified
    assert b.residue_degree == 1 and b.ram_index == 2
    assert b.different_val == 2


@pytest.mark.parametrize("name,make", CATALOG)
@pytest.mark.parametrize("p", [2, 3])
def test_blocks_partition_and_orbit_constants(name, make, p):
    table = character_table(make())
    bl = padic_blocks(table, p)
    covered = sorted(i for b in bl for i in b.char_indices)
    assert covered == list(range(len(table.characters)))
    for b in bl:
        degs = {table.characters[i].degree for i in b.char_indices}
        kers = {table.characters[i].kernel for i in b.char_indices}
        conds = {
            table.characters[i].field_conductor for i in b.char_indices
        }
        assert degs == {b.degree}
        assert len(kers) == 1 and len(conds) == 1
    assert sum(len(b.char_indices) * b.degree for b in bl) == sum(
        ch.degree for ch in table.characters
    )


@pytest.mark.parametrize("name,make", CATALOG)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_integral_idempotent_iff_conductor_zero(name, make, p):
    g = make()
    table = character_table(g)
    for b, expn in central_conductor(table, p):
        assert expn >= 0
        assert (expn == 0) == b.idempotent_integral
        if b.idempotent_integral:
            assert b.ram_index == 1 and b.different_val == 0
            assert b.schur_index == 1 and b.matrix_size == b.degree
        else:
            assert b.schur_index is None and b.matrix_size is None
        cert = idempotent_certificate(table, b)
        assert cert["integral"] == b.idempotent_integral
        assert cert["vanishes_on_p_singular"] == b.idempotent_integral


def test_idempotent_examples():
    ts3 = character_table(G.symmetric(3))
    b2 = [b for b in padic_blocks(ts3, 2) if b.degree == 2][0]
    assert b2.idempotent_integral
    ta4 = character_table(G.alternating(4))
    b3 = [b for b in padic_blocks(ta4, 3) if b.degree == 3][0]
    assert b3.idempotent_integral
    # trivial character of C_p never gives an integral idempotent at p
    for p in (2, 3, 5):
        t = character_table(G.cyclic(p))
        assert not padic_blocks(t, p)[0].idempotent_integral


def test_central_conductor_frozen():
    for p in (2, 3, 5):
        t = character_table(G.cyclic(p))
        assert [e for _, e in central_conductor(t, p)] == [1, 1]
    ts3 = character_table(G.symmetric(3))
    assert [e for _, e in central_conductor(ts3, 3)] == [1, 1, 1]
    assert [e for _, e in central_conductor(ts3, 2)] == [1, 1, 0]
    t4 = character_table(G.cyclic(4))
    assert [e for _, e in central_conductor(t4, 2)] == [2, 2, 2]
    # coprime order: the group ring is maximal
    for t, p in [(character_table(G.cyclic(5)), 3),
                 (character_table(G.symmetric(4)), 5),
                 (character_table(G.quaternion()), 7)]:
        assert all(e == 0 for _, e in central_conductor(t, p))


def _orbit_stabilizer(table, block, p):
    ch = table.characters[block.char_indices[0]]
    m = ch.field_conductor
    members, _, _ = decomposition_group(p, m)
    stab = [
        u
        for u in members
        if tuple(v.galois(u) for v in ch.values) == ch.values
    ]
    return m, members, stab


def _spread(g, block, p, alpha):
    """Group-ring coefficients of the central element acting as alpha on
    the block and as 0 elsewhere (alpha from the block's center field)."""
    table = character_table(g)
    ch = table.characters[block.char_indices[0]]
    m, members, stab = _orbit_stabilizer(table, block, p)
    reps = []
    seen = set()
    for u in members:
        cs = frozenset(u * s % m for s in stab)
        if cs in seen:
            continue
        seen.add(cs)
        reps.append(u)
    inv_class = [g.classes().class_of[g.inv(x)] for x in range(g.order)]
    coeffs = []
    for x in range(g.order):
        chv = ch.values[inv_class[x]]
        term = (alpha * chv).embedded(m)
        acc = CycloNum.rational(0)
        for u in reps:
            acc = acc + term.galois(u)
        coeffs.append(Fraction(block.degree, g.order) * acc.as_rational())
    return coeffs


def _lattice_oracle_exponent_cyclic(g, block, p):
    """Smallest k with pi^k O-multiples of the block landing in Z_(p)[G],
    testing against an explicit integral basis of the block's maximal
    order; only valid when the orbit stabilizer is trivial (center is
    the full cyclotomic field) or the center is rational."""
    ch = character_table(g).characters[block.char_indices[0]]
    m = ch.field_conductor
    basis = [CycloNum.root_of_unity(m, j) for j in range(euler_phi(m))]
    if m % p == 0:
        pi = CycloNum.rational(1) - CycloNum.root_of_unity(m, 1)
    else:
        pi = CycloNum.rational(p)
    for k in range(0, 12):
        if all(
            all(
                padic_valuation(c, p) >= 0
                for c in _spread(g, block, p, pi**k * b)
            )
            for b in basis
        ):
            return k
    raise AssertionError("no exponent up to 12")


@pytest.mark.parametrize(
    "n,p", [(2, 2), (3, 3), (4, 2), (5, 5)]
)
def test_central_conductor_lattice_oracle_cyclic(n, p):
    g = G.cyclic(n)
    table = character_table(g)
    for b, expn in central_conductor(table, p):
        m, members, stab = _orbit_stabilizer(table, b, p)
        assert len(stab) == 1 or m == 1  # oracle precondition
        assert _lattice_oracle_exponent_cyclic(g, b, p) == expn


def _s3_matrix_model():
    """The faithful integral 2-dimensional representation of S3."""
    g = G.symmetric(3)
    r = next(x for x in range(6) if g.element_order(x) == 3)
    s = next(x for x in range(6) if g.element_order(x) == 2)
    rm = ((0, -1), (1, -1))
    sm = ((0, 1), (1, 0))

    def mmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    rep = {}
    for a in range(3):
        for bexp in range(2):
            x = g.mul(g.power(r, a), g.power(s, bexp))
            mat = ((1, 0), (0, 1))
            for _ in range(a):
                mat = mmul(mat, rm)
            for _ in range(bexp):
                mat = mmul(mat, sm)
            rep[x] = mat
    assert len(rep) == 6
    return g, rep


@pytest.mark.parametrize("p", [2, 3])
def test_central_conductor_lattice_oracle_s3(p):
    g, rep = _s3_matrix_model()
    table = character_table(g)
    conds = central_conductor(table, p)
    inv = [g.inv(x) for x in range(6)]
    for b, expn in conds:
        if b.degree == 2:
            # matrix-unit images have coefficients rho(g^-1)_ji / 3
            worst = min(
                padic_valuation(Fraction(rep[inv[x]][j][i], 3), p)
                for x in range(6)
                for i in range(2)
                for j in range(2)
                if rep[inv[x]][j][i]
            )
            assert expn == max(0, -worst)
        else:
            ch = table.characters[b.char_indices[0]]
            vals = [ch.values[g.classes().class_of[inv[x]]] for x in range(6)]
            worst = min(
                padic_valuation(
                    Fraction(1, 6) * v.as_rational(), p
                )
                for v in vals
            )
            assert expn == max(0, -worst)


def test_hybrid_spec_examples():
    s3 = G.symmetric(3)
    a3 = s3.commutator_subgroup()
    rep = hybrid_report(s3, a3.element_ids, 2)
    assert rep.is_hybrid and rep.witness is None
    assert rep.quotient_order_desc == "Z_2[G/N] (+) M_2x2(Z_2)"

    s4 = G.symmetric(4)
    v4 = [n for n in s4.normal_subgroups() if n.order == 4][0]
    rep = hybrid_report(s4, v4.element_ids, 3)
    assert rep.is_hybrid
    assert len(rep.block_split) == 2
    assert all(rep.blocks[i].degree == 3 for i in rep.block_split)
    assert (
        rep.quotient_order_desc
        == "Z_3[G/N] (+) M_3x3(Z_3) (+) M_3x3(Z_3)"
    )

    big = G.direct_product(G.cyclic(3), G.alternating(4))
    _, pb = big.meta["factor_embeddings"]
    a4 = G.alternating(4)
    v4a = [n for n in a4.normal_subgroups() if n.order == 4][0]
    nids = frozenset(pb[i] for i in v4a.element_ids)
    rep = hybrid_report(big, nids, 3)
    assert not rep.is_hybrid
    assert character_table(big).characters[rep.witness].degree == 3


def test_hybrid_requires_normal_subgroup():
    s3 = G.symmetric(3)
    s = next(x for x in range(6) if s3.element_order(x) == 2)
    # a subgroup that is not normal, and a union of classes that is not a
    # subgroup
    transpositions = s3.classes().classes[s3.classes().class_of[s]]
    for ids in (frozenset([0, s]), frozenset([0, *transpositions])):
        with pytest.raises(ValueError, match="must be normal"):
            hybrid_report(s3, ids, 2)
        with pytest.raises(ValueError, match="must be normal"):
            s3.quotient(ids)


@pytest.mark.parametrize("name,make", CATALOG)
@pytest.mark.parametrize("p", [2, 3])
def test_hybrid_implies_p_coprime_to_n(name, make, p):
    g = make()
    for sub in g.normal_subgroups():
        rep = hybrid_report(g, sub.element_ids, p)
        if rep.is_hybrid and sub.order > 1:
            assert sub.order % p != 0


def test_add_a_group_products():
    s3 = G.symmetric(3)
    prod = G.direct_product(s3, G.cyclic(3))
    pa, _ = prod.meta["factor_embeddings"]
    a3 = s3.commutator_subgroup()
    nids = frozenset(pa[i] for i in a3.element_ids)
    assert hybrid_report(prod, nids, 2).is_hybrid

    a4 = G.alternating(4)
    prod = G.direct_product(a4, G.cyclic(2))
    pa, _ = prod.meta["factor_embeddings"]
    v4 = [n for n in a4.normal_subgroups() if n.order == 4][0]
    nids = frozenset(pa[i] for i in v4.element_ids)
    assert hybrid_report(prod, nids, 3).is_hybrid

    # p dividing the extra factor breaks hybridity
    prod = G.direct_product(s3, G.cyclic(2))
    pa, _ = prod.meta["factor_embeddings"]
    nids = frozenset(pa[i] for i in a3.element_ids)
    assert not hybrid_report(prod, nids, 2).is_hybrid


FROBENIUS = [
    ("s3", lambda: G.symmetric(3)),
    ("d10", lambda: G.dihedral(5)),
    ("aff5", lambda: G.affine(5)),
    ("aff7", lambda: G.affine(7)),
    ("aff8", lambda: G.affine(8)),
    ("aff9", lambda: G.affine(9)),
    ("mc73", lambda: G.metacyclic(7, 3)),
    ("frob72", lambda: G.frob72()),
]


@pytest.mark.parametrize("name,make", FROBENIUS)
def test_frobenius_kernel_hybrid_at_every_allowed_prime(name, make):
    g = make()
    kernel, _ = g.frobenius_kernel_complement()
    n = g.order
    primes = [p for p in (2, 3, 5, 7) if n % p == 0]
    for p in primes:
        if kernel.order % p == 0:
            continue
        assert hybrid_report(g, kernel.element_ids, p).is_hybrid, (name, p)


def test_weakly_hybrid_d12_yes_via_product():
    d12 = G.dihedral(6)
    n3 = [n for n in d12.normal_subgroups() if n.order == 3][0]
    assert not hybrid_report(d12, n3.element_ids, 2).is_hybrid
    rep = weakly_hybrid(d12, n3.element_ids, 2)
    assert rep.verdict == "yes"
    assert "weak-hybrid-product" in rep.citations
    for label in rep.citations:
        assert label in REGISTRY


def test_weakly_hybrid_yes_when_hybrid():
    s3 = G.symmetric(3)
    a3 = s3.commutator_subgroup()
    rep = weakly_hybrid(s3, a3.element_ids, 2)
    assert rep.verdict == "yes"
    assert "hybrid-implies-weakly" in rep.citations


def test_weakly_hybrid_no_when_p_divides_n():
    c4 = G.cyclic(4)
    n2 = [n for n in c4.normal_subgroups() if n.order == 2][0]
    rep = weakly_hybrid(c4, n2.element_ids, 2)
    assert rep.verdict == "no"
    assert rep.citations == ("weak-hybrid-coprime",)


def test_weakly_hybrid_no_via_dt_obstruction():
    prod = G.direct_product(G.symmetric(3), G.cyclic(4))
    pa, _ = prod.meta["factor_embeddings"]
    a3 = G.symmetric(3).commutator_subgroup()
    nids = frozenset(pa[i] for i in a3.element_ids)
    assert not hybrid_report(prod, nids, 2).is_hybrid
    rep = weakly_hybrid(prod, nids, 2)
    assert rep.verdict == "no"
    assert "weak-hybrid-product-obstruction" in rep.citations
    assert "dt-cyclic-four" in rep.citations


def test_weakly_hybrid_unknown_without_usable_decomposition():
    prod = G.direct_product(G.cyclic(3), G.cyclic(4))
    pa, _ = prod.meta["factor_embeddings"]
    nids = frozenset(pa[i] for i in range(3))
    rep = weakly_hybrid(prod, nids, 2)
    assert rep.verdict == "unknown"
    assert rep.citations == ()


@pytest.mark.parametrize(
    "make,p", [(lambda: G.symmetric(5), 2), (lambda: G.dihedral(20), 5)], ids=["s5-2", "d40-5"]
)
def test_galois_orbits_need_no_field_arithmetic(monkeypatch, make, p):
    t = character_table(make())
    calls = []

    def counting(name):
        original = getattr(CycloNum, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("galois", "minimal", "__hash__"):
        monkeypatch.setattr(CycloNum, name, counting(name))
    padic_blocks(t, p)
    t.rational_orbits()
    assert calls == []


def test_blocks_are_computed_once_per_table_and_prime(monkeypatch):
    from holring import blocks

    runs = []
    body = blocks._padic_blocks

    def counting(table, p):
        runs.append((table, p))
        return body(table, p)

    monkeypatch.setattr(blocks, "_padic_blocks", counting)
    groups = [G.symmetric(4), G.dihedral(6), G.direct_product(G.symmetric(3), G.cyclic(4)),
              G.direct_product(G.cyclic(2), G.cyclic(6))]
    for g in groups:
        t = character_table(g)
        for p in (2, 3):
            central_conductor(t, p)
            for n in g.normal_subgroups():
                hybrid_report(g, n.element_ids, p)
                weakly_hybrid(g, n.element_ids, p)
            central_conductor(t, p)
    seen = [(id(t), p) for t, p in runs]
    assert len(seen) == len(set(seen))
    # the factor tables of the weak-hybrid test took part too
    assert len({id(t) for t, _ in runs}) > len(groups)


def test_returned_blocks_and_orbits_do_not_alias():
    t = character_table(G.symmetric(4))
    blocks = padic_blocks(t, 2)
    first = list(blocks)
    blocks.clear()
    assert padic_blocks(t, 2) == first
    orbit = t.galois_orbit(0)
    expect = dict(orbit)
    orbit.clear()
    orbit[5] = 3
    assert t.galois_orbit(0) == expect
