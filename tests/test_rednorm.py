import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holring.chartable import character_table
from holring.cyclotomic import CycloNum, padic_valuation, prime_divisors, semilocal_valuation
from holring.groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    random_integral_element,
    random_integral_matrix,
)
from holring.groups import (
    affine,
    alternating,
    cyclic,
    dihedral,
    group_name,
    quaternion,
    symmetric,
)
from holring.lattice import PLattice
from holring.rednorm import (
    SEED,
    _structured_matrices,
    adjoint_and_norm,
    center_lattice,
    denominator_membership,
    in_central_conductor,
    maximal_center_lattice,
    norm_ideal_probe,
    reduced_char_polys,
    reduced_norm,
)
from holring.verify import catalog

from helpers import (
    class_sum_generators,
    is_galois_equivariant,
    reference_adjoint_and_norm,
    reference_class_coords,
)

S3 = symmetric(3)
S4 = symmetric(4)
A4 = alternating(4)
Q8 = quaternion()
D10 = dihedral(5)
C4 = cyclic(4)
C5 = cyclic(5)

small_coeffs = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=6, max_size=6
)


def one_by_one(group, elem):
    return GroupRingMatrix(group, [[elem]])


def transposition(group):
    comm = group.commutator_subgroup().element_ids
    return next(
        x
        for x in range(group.order)
        if group.element_order(x) == 2 and x not in comm
    )


def matrices_equal(a, b):
    return a.n == b.n and all(
        x == y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)
    )


def ast_identity_holds(h):
    adj, nr = adjoint_and_norm(h)
    target = GroupRingMatrix.scalar(h.group, h.n, nr.to_group_ring())
    return matrices_equal(adj * h, target) and matrices_equal(h * adj, target)


# ------------------------------------------------- char poly and norm


def test_char_poly_of_identity_is_shifted_binomial():
    h = GroupRingMatrix.identity(S3, 2)
    for poly in reduced_char_polys(h):
        d = poly.degree
        assert d == 2 * poly.character.degree
        assert poly.coeffs == tuple(
            math.comb(d, j) * (-1) ** (d - j) for j in range(d + 1)
        )
        assert poly.norm_value() == 1


def test_char_poly_of_transposition():
    h = one_by_one(S3, GroupRingElem.basis(S3, transposition(S3)))
    by_degree = {p.character.degree: p for p in reduced_char_polys(h)}
    assert by_degree[2].coeffs == (-1, 0, 1)
    linear = sorted(
        tuple(c.as_rational() for c in p.coeffs)
        for p in reduced_char_polys(h)
        if p.character.degree == 1
    )
    assert linear == [(-1, 1), (1, 1)]


def test_norm_is_signed_constant_term():
    rng = random.Random(3)
    for n in (1, 2):
        h = random_integral_matrix(S3, n, rng)
        nr = reduced_norm(h)
        for value, poly in zip(nr.values, reduced_char_polys(h)):
            assert value == poly.norm_value()
            assert poly.coeffs[-1] == 1
            sign = (-1) ** poly.degree
            assert value == poly.constant_term * sign


def test_char_poly_coefficients_of_integral_matrix_are_integral():
    rng = random.Random(5)
    for g in (S3, Q8, D10):
        h = random_integral_matrix(g, 2, rng)
        for poly in reduced_char_polys(h):
            assert all(c.den == 1 for c in poly.coeffs)


def _regular_matrix(h):
    """Left multiplication by h on Q[G]^n in the element basis."""
    g, n = h.group, h.n
    dim = g.order * n
    m = [[0] * dim for _ in range(dim)]
    for b in range(n):
        for a in range(n):
            coeffs = h.rows[a][b].coeffs
            for x in range(g.order):
                col = b * g.order + x
                for k, c in enumerate(coeffs):
                    if c:
                        m[a * g.order + g.mul(k, x)][col] += c
    return m


def _det_bareiss(m):
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_regular_representation_determinant_oracle():
    # det of left multiplication equals the product of reduced norms,
    # each raised to the character degree
    rng = random.Random(11)
    for g, n in ((S3, 1), (S3, 2), (C4, 1), (Q8, 1)):
        h = random_integral_matrix(g, n, rng)
        det = _det_bareiss(_regular_matrix(h))
        product = CycloNum.rational(1)
        for poly in reduced_char_polys(h):
            value = poly.norm_value()
            for _ in range(poly.character.degree):
                product = product * value
        assert product.as_rational() == det


def test_norm_of_product_is_product_of_norms():
    rng = random.Random(17)
    for g, n in ((S3, 2), (Q8, 1), (D10, 2)):
        a = random_integral_matrix(g, n, rng)
        b = random_integral_matrix(g, n, rng)
        assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


def test_norm_of_product_is_product_of_norms_over_s6():
    # order 720: products run on the full Cayley table
    g = symmetric(6)
    rng = random.Random(1729)
    a = one_by_one(g, random_integral_element(g, rng))
    b = one_by_one(g, random_integral_element(g, rng))
    assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


# derandomised differential tests at n = 2 over the catalog up to order 24

SMALL_CATALOG = [g for g in catalog() if g.order <= 24]


def draw_matrix(data, g, n=2):
    coeffs = st.lists(st.integers(-3, 3), min_size=g.order, max_size=g.order)
    return GroupRingMatrix(
        g, [[GroupRingElem(g, data.draw(coeffs)) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("g", SMALL_CATALOG, ids=group_name)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_adjoint_identity_over_the_catalog(g, data):
    assert ast_identity_holds(draw_matrix(data, g))


@pytest.mark.parametrize("g", SMALL_CATALOG, ids=group_name)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_norm_is_multiplicative_over_the_catalog(g, data):
    a, b = draw_matrix(data, g), draw_matrix(data, g)
    assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


@pytest.mark.parametrize("g", SMALL_CATALOG, ids=group_name)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_norm_values_are_galois_equivariant(g, data):
    h = draw_matrix(data, g)
    nr = reduced_norm(h)
    assert is_galois_equivariant(nr)
    assert nr.is_rational()
    assert all(isinstance(v, CycloNum) for v in nr.values)
    for poly in reduced_char_polys(h):
        assert all(isinstance(c, CycloNum) for c in poly.coeffs)


def _triples(values) -> list:
    return [(v.m, v.num, v.den) for v in values]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", SMALL_CATALOG, ids=group_name)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_orbit_route_matches_the_per_character_reference(g, n, data):
    # Newton once per rational orbit and one int change of basis per layer
    # give what Newton in every block and CycloNum class sums give, down to
    # the conductor each norm value is written at
    h = draw_matrix(data, g, n)
    adj, nr = adjoint_and_norm(h)
    ref_adj, ref_nr, ref_polys = reference_adjoint_and_norm(h)
    assert adj == ref_adj
    assert _triples(nr.values) == _triples(ref_nr.values)
    polys = reduced_char_polys(h)
    assert polys == ref_polys
    assert [_triples(p.coeffs) for p in polys] == [_triples(p.coeffs) for p in ref_polys]
    assert nr.to_class_coords() == reference_class_coords(nr)
    assert is_galois_equivariant(nr)


# --------------------------------------------------------- adjoints


def test_adjoint_of_identity_is_identity():
    for g, n in ((S3, 1), (S4, 2), (Q8, 3)):
        eye = GroupRingMatrix.identity(g, n)
        assert matrices_equal(adjoint_and_norm(eye)[0], eye)


def test_adjoint_identity_on_random_matrices():
    rng = random.Random(29)
    for g in (S3, D10, Q8, S4, A4):
        for n in (1, 2, 3):
            for _ in range(2):
                assert ast_identity_holds(random_integral_matrix(g, n, rng))


@settings(max_examples=60, deadline=None)
@given(coeffs=small_coeffs)
def test_adjoint_identity_exhaustively_in_rank_one(coeffs):
    h = one_by_one(S3, GroupRingElem(S3, coeffs))
    assert ast_identity_holds(h)


@settings(max_examples=60, deadline=None)
@given(a=small_coeffs, b=small_coeffs)
def test_norm_multiplicativity_in_rank_one(a, b):
    x = one_by_one(S3, GroupRingElem(S3, a))
    y = one_by_one(S3, GroupRingElem(S3, b))
    assert reduced_norm(x * y) == reduced_norm(x) * reduced_norm(y)


def test_adjoint_denominators_divide_group_order():
    # entries live in the maximal order, so |G| clears every denominator
    rng = random.Random(31)
    for g in (S3, S4, Q8):
        h = random_integral_matrix(g, 2, rng)
        adj = adjoint_and_norm(h)[0]
        order = GroupRingElem(g, [g.order] + [0] * (g.order - 1))
        for row in adj.rows:
            for entry in row:
                assert (order * entry).den == 1


def test_adjoint_of_transposition_has_denominator_three():
    tau = transposition(S3)
    adj, _ = adjoint_and_norm(one_by_one(S3, GroupRingElem.basis(S3, tau)))
    entry = adj.rows[0][0]
    assert entry.coeffs[tau] == Fraction(-2, 3)
    assert sum(entry.coeffs) == 1  # augmentation equals nr at the trivial char


def test_adjoint_of_minus_one_over_s4():
    minus = one_by_one(S4, -GroupRingElem.one(S4))
    adj, nr = adjoint_and_norm(minus)
    t = character_table(S4)
    expected = CentralElement(
        S4, [(-1) ** (ch.degree + 1) for ch in t.characters]
    )
    assert CentralElement.from_group_ring(adj.rows[0][0]) == expected
    assert nr == CentralElement(S4, [(-1) ** ch.degree for ch in t.characters])


# ------------------------------------------- pinned norm identities


def s4_idempotents():
    """e1 trivial, e2 sign, e3 degree two, e4 standard, e5 twisted."""
    t = character_table(S4)
    cls = S4.classes()
    ct = cls.class_of[transposition(S4)]
    order = []
    for degree, tau_value in ((1, 1), (1, -1), (2, 0), (3, 1), (3, -1)):
        order.append(
            next(
                i
                for i, ch in enumerate(t.characters)
                if ch.degree == degree and ch.values[ct] == tau_value
            )
        )
    return t, [CentralElement.from_indicator(S4, [i]) for i in order]


def test_s4_norms_of_small_elements():
    t, (e1, e2, e3, e4, e5) = s4_idempotents()
    one = CentralElement.one(S4)
    tau = GroupRingElem.basis(S4, transposition(S4))
    sigma = GroupRingElem.basis(
        S4, next(x for x in range(S4.order) if S4.element_order(x) == 3)
    )
    cyc = GroupRingElem.one(S4) + sigma + sigma * sigma

    nr_tau = reduced_norm(one_by_one(S4, tau))
    assert nr_tau == e1 - e2 - e3 - e4 + e5
    nr_minus = reduced_norm(one_by_one(S4, -GroupRingElem.one(S4)))
    assert nr_minus == -(e1 + e2) + e3 - e4 - e5
    assert 2 * e3 == one + nr_minus
    assert 2 * (e1 + e5) == nr_tau + one
    assert reduced_norm(one_by_one(S4, cyc)) == 3 * (e1 + e2)
    assert reduced_norm(one_by_one(S4, tau * cyc)) == 3 * (e1 - e2)


def test_affine_norms_of_small_elements():
    # even q: 1 + (order-two translation) has norm twice the idempotent
    # cutting out the characters trivial on the kernel
    g8 = affine(8)
    t8 = character_table(g8)
    sigma = next(
        x for x in g8.meta["kernel"] if g8.element_order(x) == 2
    )
    nr = reduced_norm(
        one_by_one(g8, GroupRingElem.one(g8) + GroupRingElem.basis(g8, sigma))
    )
    linear = [i for i, ch in enumerate(t8.characters) if ch.degree == 1]
    assert nr == 2 * CentralElement.from_indicator(g8, linear)

    # odd q: the norm of -1 separates the linear block from the big one
    g5 = affine(5)
    t5 = character_table(g5)
    nr = reduced_norm(one_by_one(g5, -GroupRingElem.one(g5)))
    linear = [i for i, ch in enumerate(t5.characters) if ch.degree == 1]
    e_lin = CentralElement.from_indicator(g5, linear)
    assert nr == CentralElement.one(g5) - 2 * e_lin


# ------------------------------------------------- center lattices


def test_orbit_partition_covers_the_table():
    for g in (S4, C5, Q8, affine(5)):
        t = character_table(g)
        seen = []
        for rep, members in t.rational_orbits():
            assert members[1] == rep
            seen.extend(members.values())
        assert sorted(set(seen)) == list(range(len(t.characters)))


def test_center_lattices_agree_away_from_the_group_order():
    for g, p in ((C5, 2), (S3, 5), (Q8, 3)):
        assert center_lattice(character_table(g), p) == maximal_center_lattice(g, p)


def test_maximal_center_is_strictly_larger_at_bad_primes():
    for g, p in ((C5, 5), (S3, 3), (S4, 2)):
        center = center_lattice(character_table(g), p)
        maximal = maximal_center_lattice(g, p)
        assert maximal.contains(center)
        assert maximal != center
        assert maximal.index_valuation(center) > 0


def test_maximal_center_contains_central_idempotents():
    maximal = maximal_center_lattice(S4, 2)
    for i in range(len(character_table(S4).characters)):
        e = CentralElement.from_indicator(S4, [i])
        assert maximal.contains_vector(e.to_class_coords())


def test_maximal_center_of_d16_at_two_is_saturated():
    # Q(zeta_8)/Q(sqrt 2) is wildly ramified at 2, where the traces of
    # zeta_8^j span only (2, sqrt 2); the index of z(Z_(2)[D16]) is
    # (v_2 of the trace-form discriminant on class sums, 29, minus
    # v_2(disc Q(sqrt 2)) = 3) / 2
    d16 = dihedral(8)
    t = character_table(d16)
    maximal = maximal_center_lattice(d16, 2)
    assert maximal.contains(center_lattice(t, 2))
    assert maximal.index_valuation(center_lattice(t, 2)) == 13


def _central_values_mod_p(g, row, p, m):
    """The central values of the class-coordinate row, at conductor m,
    as one vector of power-basis coordinates mod p (None unless
    p-integral)."""
    out = []
    for v in CentralElement.from_class_coords(g, row).values:
        if v.den % p == 0:
            return None
        v = v.embedded(m)
        out += [x * pow(v.den, -1, p) % p for x in v.num]
    return out


def test_maximal_center_is_the_p_integral_center_over_the_catalog():
    # each basis row has p-integral central values, and no x in
    # (1/p) L outside L does: over the power basis, an integral basis,
    # (sum c_i b_i) / p is p-integral iff sum c_i b_i vanishes mod p
    brute_forced = 0
    for g in catalog():
        t = character_table(g)
        k, m = len(t.characters), g.exponent()
        for p in prime_divisors(g.order):
            lat = maximal_center_lattice(g, p)
            vecs = [_central_values_mod_p(g, row, p, m) for row in lat.rows]
            assert None not in vecs, (group_name(g), p)
            if p**k > 4096:
                continue
            brute_forced += 1
            for c in itertools.product(range(p), repeat=k):
                if any(c):
                    total = [sum(ci * v[j] for ci, v in zip(c, vecs)) % p for j in range(len(vecs[0]))]
                    assert any(total), (group_name(g), p, c)
    assert brute_forced == 45  # of the 61 catalog (group, p) pairs


# ------------------------------------------- membership certificates


def test_conductor_certificate_on_s3_at_three():
    v = denominator_membership(3 * CentralElement.one(S3), 3)
    assert v.kind == "certified_in"
    assert v.citations == ("conductor-in-denominator",)
    assert in_central_conductor(3 * CentralElement.one(S3), 3)
    assert not in_central_conductor(CentralElement.one(S3), 3)


def test_conductor_certificate_on_s4_blocks():
    t, (e1, e2, e3, e4, e5) = s4_idempotents()
    assert denominator_membership(8 * e1, 2).kind == "certified_in"
    assert denominator_membership(4 * e3, 2).kind == "certified_in"
    assert denominator_membership(8 * (e4 + e5), 2).kind == "certified_in"


def test_commutator_certificate_when_p_misses_it():
    for g, p in ((C4, 2), (D10, 2)):
        v = denominator_membership(CentralElement.one(g), p)
        assert v.kind == "certified_in"
        assert v.citations == ("best-denominators",)


def test_identity_fails_membership_when_p_divides_commutator():
    for g, p in ((S3, 3), (S4, 2)):
        v = denominator_membership(CentralElement.one(g), p)
        assert v.kind == "counterexample"
        assert v.counterexample is not None
        # the returned matrix really is a witness
        adj = adjoint_and_norm(v.counterexample)[0]
        bad = False
        for row in adj.rows:
            for entry in row:
                for c in entry.coeffs:
                    if not c:
                        continue
                    val = (
                        semilocal_valuation(c, p)
                        if isinstance(c, CycloNum)
                        else padic_valuation(c, p)
                    )
                    if val < 0:
                        bad = True
        assert bad


def test_membership_for_quotient_block_multiple():
    # 4(e1+e2) misses the conductor but no sampled matrix rejects it
    t, (e1, e2, e3, e4, e5) = s4_idempotents()
    x = 4 * (e1 + e2)
    assert not in_central_conductor(x, 2)
    coords = x.to_class_coords()
    assert all(Fraction(c).denominator % 2 for c in coords)
    v = denominator_membership(x, 2, budget=9)
    assert v.kind == "sampled_no_counterexample"
    assert v.samples > 100
    assert not v.certified

    # but half of it is rejected outright
    v = denominator_membership(2 * (e1 + e2), 2)
    assert v.kind == "counterexample"
    assert v.samples <= 3


def test_membership_rejects_nonintegral_values():
    with pytest.raises(ValueError):
        denominator_membership(
            Fraction(1, 2) * CentralElement.one(C4), 2
        )


def test_membership_verdict_serializes():
    v = denominator_membership(CentralElement.one(S4), 2)
    out = v.to_jsonable()
    assert out["verdict"] == "counterexample"
    assert out["samples"] == v.samples
    assert out["counterexample"]


# -------------------------------------------------- norm ideal probe


def test_probe_away_from_group_order_fills_the_center():
    probe = norm_ideal_probe(S3, 5, budget=8)
    assert probe.closed_form == "center"
    assert probe.closed_form_ok
    assert probe.equals_center and probe.equals_maximal
    assert probe.index_in_maximal == 0


def test_probe_on_affine_groups_at_their_own_prime():
    for g in (affine(5), D10):
        p = 5
        probe = norm_ideal_probe(g, p, budget=8)
        assert probe.closed_form == "maximal"
        assert probe.closed_form_ok
        assert probe.equals_maximal
        assert not probe.equals_center


def test_probe_on_even_affine_group_is_sandwiched():
    probe = norm_ideal_probe(affine(4), 2, budget=8)
    assert probe.closed_form == "sandwich-2"
    assert probe.closed_form_ok
    assert probe.within_maximal
    assert probe.lattice.contains(probe.maximal_center.scaled(2))


def test_probe_on_s4_at_two_reaches_doubled_idempotents():
    t, es = s4_idempotents()
    probe = norm_ideal_probe(S4, 2, budget=10)
    assert probe.closed_form == "sandwich-2"
    assert probe.closed_form_ok
    assert not probe.equals_maximal
    assert probe.index_in_maximal == 2
    for e in es:
        assert probe.lattice.contains_vector((2 * e).to_class_coords())


def test_probe_invariants_hold_without_a_closed_form():
    probe = norm_ideal_probe(Q8, 2, budget=8)
    assert probe.closed_form is None
    assert probe.closed_form_ok is None
    assert probe.all_values_integral
    assert probe.contains_center
    assert probe.within_maximal
    assert probe.index_in_maximal >= 0


def test_probe_lattice_matches_the_class_sum_route():
    # same matrices as the probe: structured witnesses, then the seeded draws
    budget = 2
    for g in catalog():
        if g.order > 24:
            continue
        rng = random.Random(SEED)
        matrices = _structured_matrices(g) + [
            random_integral_matrix(g, 1 + i % 3, rng, bound=2) for i in range(budget)
        ]
        # equal norms give equal generators, so each distinct norm once
        norms = {nr.values: nr for nr in map(reduced_norm, matrices)}
        gens = [v for nr in norms.values() for v in class_sum_generators(nr)]
        k = len(g.classes().classes)
        for p in prime_divisors(g.order):
            probe = norm_ideal_probe(g, p, budget=budget)
            assert probe.lattice == PLattice.from_generators(p, k, gens), (group_name(g), p)


def test_probe_converts_each_norm_to_class_coordinates_once(monkeypatch):
    calls = []
    convert = CentralElement.to_class_coords

    def counting(self):
        calls.append(self)
        return convert(self)

    monkeypatch.setattr(CentralElement, "to_class_coords", counting)
    probe = norm_ideal_probe(S4, 2, budget=4)
    maximal_gens = len(S4.classes().classes)
    assert len(calls) <= probe.structured + probe.sampled + maximal_gens


@pytest.mark.parametrize("g", [A4, D10], ids=group_name)
def test_adjoint_runs_newton_once_per_rational_orbit(monkeypatch, g):
    # A4 and D10 each have 4 characters in 3 rational orbits
    from holring import rednorm

    newton, converted = [], []
    body, convert = rednorm._newton_coeffs, CentralElement.to_class_coords

    def counting_newton(traces, d):
        newton.append(d)
        return body(traces, d)

    def counting_convert(self):
        converted.append(self)
        return convert(self)

    monkeypatch.setattr(rednorm, "_newton_coeffs", counting_newton)
    monkeypatch.setattr(CentralElement, "to_class_coords", counting_convert)
    h = random_integral_matrix(g, 2, random.Random(5))
    adjoint_and_norm(h)
    assert len(character_table(g).characters) == 4
    assert len(newton) == 3
    assert converted == []


def test_probe_serializes():
    probe = norm_ideal_probe(S3, 3, budget=6)
    out = probe.to_jsonable()
    assert out["p"] == 3
    assert out["group_order"] == 6
    assert isinstance(out["pivot_p_powers"], list)
    assert out["closed_form"] is None
