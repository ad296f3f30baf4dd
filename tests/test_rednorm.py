import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holring.chartable import character_table
from holring.cyclotomic import CycloNum, padic_valuation, semilocal_valuation
from holring.groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    is_integral_coeff,
    random_integral_element,
    random_integral_matrix,
)
from holring.groups import (
    affine,
    alternating,
    cyclic,
    dihedral,
    quaternion,
    symmetric,
)
from holring.rednorm import (
    MembershipVerdict,
    adjoint_and_norm,
    center_lattice,
    denominator_membership,
    generalized_adjoint,
    in_central_conductor,
    maximal_center_lattice,
    norm_ideal_probe,
    rational_character_orbits,
    reduced_char_poly,
    reduced_char_polys,
    reduced_norm,
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
        p.coeffs for p in reduced_char_polys(h) if p.character.degree == 1
    )
    assert linear == [(-1, 1), (1, 1)]


def test_norm_is_signed_constant_term():
    rng = random.Random(3)
    for n in (1, 2):
        h = random_integral_matrix(S3, n, rng)
        nr = reduced_norm(h)
        for ch, value in zip(character_table(S3).characters, nr.values):
            poly = reduced_char_poly(h, ch)
            assert value == poly.norm_value()
            assert poly.coeffs[-1] == 1


def test_char_poly_coefficients_of_integral_matrix_are_integral():
    rng = random.Random(5)
    for g in (S3, Q8, D10):
        h = random_integral_matrix(g, 2, rng)
        for poly in reduced_char_polys(h):
            assert all(is_integral_coeff(c) for c in poly.coeffs)


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


def test_norm_values_are_galois_equivariant():
    rng = random.Random(23)
    for g in (C5, Q8, affine(5)):
        h = random_integral_matrix(g, 2, rng)
        assert reduced_norm(h).is_galois_equivariant()


# --------------------------------------------------------- adjoints


def test_adjoint_of_identity_is_identity():
    for g, n in ((S3, 1), (S4, 2), (Q8, 3)):
        eye = GroupRingMatrix.identity(g, n)
        assert matrices_equal(generalized_adjoint(eye), eye)


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
        adj = generalized_adjoint(h)
        order = GroupRingElem(g, [g.order] + [0] * (g.order - 1))
        for row in adj.rows:
            for entry in row:
                assert (order * entry).has_integral_coeffs()


def test_adjoint_of_transposition_has_denominator_three():
    tau = transposition(S3)
    adj = generalized_adjoint(one_by_one(S3, GroupRingElem.basis(S3, tau)))
    entry = adj.rows[0][0]
    assert entry.coeffs[tau] == Fraction(-2, 3)
    assert sum(entry.coeffs) == 1  # augmentation equals nr at the trivial char


def test_adjoint_of_minus_one_over_s4():
    minus = one_by_one(S4, -GroupRingElem.one(S4))
    adj, nr = adjoint_and_norm(minus)
    t = character_table(S4)
    expected = CentralElement(
        t, [(-1) ** (ch.degree + 1) for ch in t.characters]
    )
    assert CentralElement.from_group_ring(t, adj.rows[0][0]) == expected
    assert nr == CentralElement(t, [(-1) ** ch.degree for ch in t.characters])


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
    return t, [CentralElement.from_indicator(t, [i]) for i in order]


def test_s4_norms_of_small_elements():
    t, (e1, e2, e3, e4, e5) = s4_idempotents()
    one = CentralElement.one(t)
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
    assert nr == 2 * CentralElement.from_indicator(t8, linear)

    # odd q: the norm of -1 separates the linear block from the big one
    g5 = affine(5)
    t5 = character_table(g5)
    nr = reduced_norm(one_by_one(g5, -GroupRingElem.one(g5)))
    linear = [i for i, ch in enumerate(t5.characters) if ch.degree == 1]
    e_lin = CentralElement.from_indicator(t5, linear)
    assert nr == CentralElement.one(t5) - 2 * e_lin


# ------------------------------------------------- center lattices


def test_orbit_partition_covers_the_table():
    for g in (S4, C5, Q8, affine(5)):
        t = character_table(g)
        seen = []
        for rep, members in rational_character_orbits(t):
            assert members[1] == rep
            seen.extend(members.values())
        assert sorted(set(seen)) == list(range(len(t.characters)))


def test_center_lattices_agree_away_from_the_group_order():
    for g, p in ((C5, 2), (S3, 5), (Q8, 3)):
        t = character_table(g)
        assert center_lattice(t, p) == maximal_center_lattice(t, p)


def test_maximal_center_is_strictly_larger_at_bad_primes():
    for g, p in ((C5, 5), (S3, 3), (S4, 2)):
        t = character_table(g)
        center = center_lattice(t, p)
        maximal = maximal_center_lattice(t, p)
        assert maximal.contains(center)
        assert maximal != center
        assert maximal.index_valuation(center) > 0


def test_maximal_center_contains_central_idempotents():
    t = character_table(S4)
    maximal = maximal_center_lattice(t, 2)
    for i in range(len(t.characters)):
        e = CentralElement.from_indicator(t, [i])
        assert maximal.contains_vector(e.to_class_coords())


# ------------------------------------------- membership certificates


def test_conductor_certificate_on_s3_at_three():
    t = character_table(S3)
    v = denominator_membership(3 * CentralElement.one(t), 3)
    assert v.kind == "certified_in"
    assert v.citations == ("conductor-in-denominator",)
    assert in_central_conductor(3 * CentralElement.one(t), 3)
    assert not in_central_conductor(CentralElement.one(t), 3)


def test_conductor_certificate_on_s4_blocks():
    t, (e1, e2, e3, e4, e5) = s4_idempotents()
    assert denominator_membership(8 * e1, 2).kind == "certified_in"
    assert denominator_membership(4 * e3, 2).kind == "certified_in"
    assert denominator_membership(8 * (e4 + e5), 2).kind == "certified_in"


def test_commutator_certificate_when_p_misses_it():
    for g, p in ((C4, 2), (D10, 2)):
        t = character_table(g)
        v = denominator_membership(CentralElement.one(t), p)
        assert v.kind == "certified_in"
        assert v.citations == ("best-denominators",)


def test_identity_fails_membership_when_p_divides_commutator():
    for g, p in ((S3, 3), (S4, 2)):
        t = character_table(g)
        v = denominator_membership(CentralElement.one(t), p)
        assert v.kind == "counterexample"
        assert v.counterexample is not None
        # the returned matrix really is a witness
        adj = generalized_adjoint(v.counterexample)
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
    t = character_table(C4)
    with pytest.raises(ValueError):
        denominator_membership(
            Fraction(1, 2) * CentralElement.one(t), 2
        )


def test_membership_verdict_serializes():
    t = character_table(S4)
    v = denominator_membership(CentralElement.one(t), 2)
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


def test_probe_serializes():
    probe = norm_ideal_probe(S3, 3, budget=6)
    out = probe.to_jsonable()
    assert out["p"] == 3
    assert out["group_order"] == 6
    assert isinstance(out["pivot_p_powers"], list)
    assert out["closed_form"] is None
