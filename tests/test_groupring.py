import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holring.chartable import character_table
from holring.cyclotomic import CycloNum
from holring.groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    random_integral_element,
    random_integral_matrix,
    regular_det,
)
from holring.groups import alternating, cyclic, dihedral, quaternion, symmetric
from holring.rednorm import adjoint_and_norm, reduced_norm
from holring.verify import catalog

from helpers import is_galois_equivariant, reference_class_coords

S3 = symmetric(3)
A4 = alternating(4)
KERNEL_GROUPS = {"S3": S3, "Q8": quaternion(), "A4": A4, "D10": dihedral(5)}

small_coeffs = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=6, max_size=6
)


@given(a=small_coeffs, b=small_coeffs, c=small_coeffs)
def test_ring_axioms(a, b, c):
    x = GroupRingElem(S3, a)
    y = GroupRingElem(S3, b)
    z = GroupRingElem(S3, c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    one = GroupRingElem.one(S3)
    assert x * one == x == one * x


def test_basis_multiplication_is_group_law():
    for i in range(S3.order):
        for j in range(S3.order):
            prod = GroupRingElem.basis(S3, i) * GroupRingElem.basis(S3, j)
            assert prod == GroupRingElem.basis(S3, S3.mul(i, j))


def test_class_sums_are_central():
    cls = S3.classes()
    sums = []
    for members in cls.classes:
        c = [0] * S3.order
        for x in members:
            c[x] = 1
        sums.append(GroupRingElem(S3, c))
    for s in sums:
        assert s.is_central()
    assert (sums[1] * sums[2]).is_central()
    assert not GroupRingElem.basis(S3, 1).is_central()


def test_central_element_round_trip():
    z = CentralElement.from_class_coords(S3, [Fraction(1, 2), -3, Fraction(2, 7)])
    assert z.to_class_coords() == [Fraction(1, 2), -3, Fraction(2, 7)]
    elem = z.to_group_ring()
    assert CentralElement.from_group_ring(elem) == z


def linear_extension(elem, ch):
    """chi extended linearly to elem: sum over classes of the class sum of
    elem's coefficients times chi's value there."""
    return sum((v * s for s, v in zip(elem.class_collapse(), ch.values)), CycloNum.rational(0))


def test_central_values_match_linear_extension():
    """The stored value on chi times chi(1) is chi applied to the element."""
    t = character_table(S3)
    z = CentralElement.from_class_coords(S3, [1, 2, -1])
    elem = z.to_group_ring()
    for v, ch in zip(z.values, t.characters):
        assert linear_extension(elem, ch) == v * ch.degree


def test_idempotent_coefficients_and_ring_law():
    # the rational idempotents of A4: one per Galois orbit of characters
    t = character_table(A4)
    n = A4.order
    cls = A4.classes()
    orbits = [set(members.values()) for _, members in t.rational_orbits()]
    assert sorted(map(len, orbits)) == [1, 1, 2]
    idempotents = []
    for orbit in orbits:
        e = CentralElement.from_indicator(A4, orbit).to_group_ring()
        # direct formula: coefficient at g is the sum over the orbit of
        # chi(1)/|G| times chi(g^{-1})
        for gid in range(n):
            want = sum(
                (t.characters[i].values[cls.class_of[A4.inv(gid)]]
                 * Fraction(t.characters[i].degree, n)
                 for i in orbit),
                CycloNum.rational(0),
            )
            assert want == e.coeffs[gid]
        assert e * e == e
        idempotents.append(e)
    for i, ei in enumerate(idempotents):
        for j, ej in enumerate(idempotents):
            if i != j:
                assert ei * ej == GroupRingElem.zero(A4)
    assert sum(idempotents, GroupRingElem.zero(A4)) == GroupRingElem.one(A4)


def test_equal_central_elements_hash_equal():
    c3 = cyclic(3)
    z = CycloNum.root_of_unity(3)
    a = CentralElement(c3, [1, z, z.conjugate()])
    b = CentralElement(c3, [1, z.embedded(6), z.conjugate().embedded(6)])
    assert a == b
    assert len({a, b}) == 1


def test_rationality_and_equivariance():
    t = character_table(A4)
    conductors = [ch.field_conductor for ch in t.characters]
    assert sorted(conductors) == [1, 1, 3, 3]
    single = conductors.index(3)
    pair = [i for i, c in enumerate(conductors) if c == 3]
    e_single = CentralElement.from_indicator(A4, [single])
    e_pair = CentralElement.from_indicator(A4, pair)
    assert not e_single.is_rational()
    assert not is_galois_equivariant(e_single)
    assert e_pair.is_rational()
    assert is_galois_equivariant(e_pair)
    with pytest.raises(ValueError, match="not rational"):
        e_single.to_group_ring()


def test_galois_equivariance_at_the_minimal_conductor():
    # one element of Z(Q[C3]), its values written at conductor 3 and at 6
    c3 = cyclic(3)
    z = CycloNum.root_of_unity(3)
    assert is_galois_equivariant(CentralElement(c3, [1, z, z.conjugate()]))
    assert is_galois_equivariant(
        CentralElement(c3, [1, z.embedded(6), z.conjugate().embedded(6)])
    )
    assert not is_galois_equivariant(CentralElement(c3, [1, z, z.embedded(6)]))


@pytest.mark.parametrize("which", ["sqrt2", "unequal"])
def test_elements_that_are_not_rational_are_refused(which):
    # sqrt 2 = zeta_8 + zeta_8^7 lies outside Q(zeta_3); (0, zeta_3, zeta_3)
    # is not fixed by zeta_3 -> zeta_3^2, which swaps the last two characters
    c3 = cyclic(3)
    z3 = CycloNum.root_of_unity(3)
    sqrt2 = CycloNum.root_of_unity(8, 1) + CycloNum.root_of_unity(8, 7)
    values = {"sqrt2": [sqrt2] * 3, "unequal": [0, z3, z3]}[which]
    z = CentralElement(c3, values)
    assert not is_galois_equivariant(z)
    assert not z.is_rational()
    for convert in (z.to_class_coords, z.to_group_ring):
        with pytest.raises(ValueError, match="not rational"):
            convert()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_class_coordinates_match_the_character_sums(data):
    # a rational central element of each catalog group of order <= 24, by
    # its class coordinates, read back through the orbit basis
    g = data.draw(st.sampled_from([g for g in catalog() if g.order <= 24]))
    k = len(g.classes().classes)
    coords = [Fraction(a, b) for a, b in data.draw(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6)), min_size=k, max_size=k)
    )]
    z = CentralElement.from_class_coords(g, coords)
    assert z.is_rational() and is_galois_equivariant(z)
    assert z.to_class_coords() == reference_class_coords(z) == coords
    class_of = g.classes().class_of
    assert z.to_group_ring() == GroupRingElem(g, [coords[c] for c in class_of])


def test_central_arithmetic_needs_one_table():
    # both tables have 3 characters, so the values would line up silently;
    # one table per group, so one group means one table
    a = CentralElement(S3, [1, 2, 3])
    b = CentralElement(cyclic(3), [1, 2, 3])
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different groups"):
            op(a, b)


def test_pointwise_products():
    a = CentralElement(S3, [1, 2, 3])
    b = CentralElement(S3, [5, -1, Fraction(1, 3)])
    assert (a * b).values == (5, -2, 1)
    assert (a + b).values == (6, 1, Fraction(10, 3))
    assert (a * b).to_group_ring() == a.to_group_ring() * b.to_group_ring()


def test_matrices():
    rng = random.Random(11)
    m = random_integral_matrix(S3, 2, rng)
    i2 = GroupRingMatrix.identity(S3, 2)
    assert m * i2 == m == i2 * m
    a = random_integral_matrix(S3, 2, rng)
    b = random_integral_matrix(S3, 2, rng)
    assert (m * a) * b == m * (a * b)
    assert (m + a) * b == m * b + a * b
    tr = (m * a).trace()
    assert tr == sum(
        ((m * a).rows[i][i] for i in range(2)), GroupRingElem.zero(S3)
    )
    assert all(e.den == 1 for row in m.rows for e in row)
    assert any(e.den > 1 for row in (m * Fraction(1, 5)).rows for e in row)


def test_sampling_is_seed_deterministic():
    m1 = random_integral_matrix(S3, 3, random.Random(1729))
    m2 = random_integral_matrix(S3, 3, random.Random(1729))
    m3 = random_integral_matrix(S3, 3, random.Random(42))
    assert m1 == m2
    assert m1 != m3


def test_char_value_on_noncentral():
    t = character_table(S3)
    x = GroupRingElem(S3, [2, 1, 0, 0, 0, 0])
    std = t.characters[2]
    got = linear_extension(x, std)
    class_of = S3.classes().class_of
    want = 2 * std.values[class_of[0]] + std.values[class_of[1]]
    assert got == want.as_rational()


# -- the integer kernel against plain Fractions ------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def reference_product(g, a, b):
    """a * b from composing the permutations of g, on plain Fractions."""
    out = {p: Fraction(0) for p in g.elements}
    for p, x in zip(g.elements, a):
        for q, y in zip(g.elements, b):
            out[tuple(p[i] for i in q)] += Fraction(x) * Fraction(y)
    return [out[p] for p in g.elements]


def draw_coeffs(data, g):
    return data.draw(st.lists(small_fractions, min_size=g.order, max_size=g.order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), label=st.sampled_from(sorted(KERNEL_GROUPS)))
def test_fraction_products_match_reference(data, label):
    g = KERNEL_GROUPS[label]
    a, b = draw_coeffs(data, g), draw_coeffs(data, g)
    got = GroupRingElem(g, a) * GroupRingElem(g, b)
    assert list(got.coeffs) == reference_product(g, a, b)


def reference_sum_of_products(g, pairs):
    """sum of a*b over pairs of coefficient lists, by ``reference_product``."""
    out = [Fraction(0)] * g.order
    for a, b in pairs:
        out = [x + y for x, y in zip(out, reference_product(g, a, b))]
    return out


def matrix(g, m):
    return GroupRingMatrix(g, [[GroupRingElem(g, c) for c in row] for row in m])


def assert_product_matches_reference(g, a, b):
    got = matrix(g, a) * matrix(g, b)
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            want = reference_sum_of_products(g, [(x, b[t][j]) for t, x in enumerate(row)])
            assert list(got.rows[i][j].coeffs) == want
    return got


def assert_combination_matches_reference(g, scalars, matrices):
    got = GroupRingMatrix.combination(
        [GroupRingElem(g, c) for c in scalars], [matrix(g, m) for m in matrices]
    )
    n = len(matrices[0])
    for i in range(n):
        for k in range(n):
            want = reference_sum_of_products(g, [(c, m[i][k]) for c, m in zip(scalars, matrices)])
            assert list(got.rows[i][k].coeffs) == want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), label=st.sampled_from(sorted(KERNEL_GROUPS)), n=st.integers(1, 3))
def test_fraction_matrix_products_match_reference(data, label, n):
    g = KERNEL_GROUPS[label]
    a = [[draw_coeffs(data, g) for _ in range(n)] for _ in range(n)]
    b = [[draw_coeffs(data, g) for _ in range(n)] for _ in range(n)]
    assert_product_matches_reference(g, a, b)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    data=st.data(),
    label=st.sampled_from(sorted(KERNEL_GROUPS)),
    n=st.integers(1, 3),
    terms=st.integers(1, 3),
)
def test_combination_matches_reference(data, label, n, terms):
    g = KERNEL_GROUPS[label]
    scalars = [draw_coeffs(data, g) for _ in range(terms)]
    matrices = [
        [[draw_coeffs(data, g) for _ in range(n)] for _ in range(n)] for _ in range(terms)
    ]
    assert_combination_matches_reference(g, scalars, matrices)


# Grids that push the bit-slot width of the packed product: huge numerators,
# an output coefficient equal to the slot bound, zero entries and rows, and
# denominators that share no factor.
BIG = 2**80


def _big_grid(rng, n):
    return [
        [[rng.choice((-1, 1)) * rng.randint(BIG // 2, BIG) for _ in range(6)] for _ in range(n)]
        for _ in range(n)
    ]


def _bound_reaching_pair(n):
    # row 0 of a has the largest l1 norm and no negative coefficient, row 1
    # is its negation, and every coefficient of b is the same BIG, so each
    # coefficient of row 0 (row 1) of the product is +bound (-bound)
    top = [[BIG, 0, 3, BIG - 1, 1, 7]] + [[k, BIG, 0, 0, 2, BIG] for k in range(n - 1)]
    a = [top, [[-x for x in c] for c in top]] + [[[0] * 6] * n for _ in range(n - 2)]
    b = [[[BIG] * 6 for _ in range(n)] for _ in range(n)]
    bound = sum(map(sum, top)) * BIG
    return a, b, bound


def _coprime_grid(n, shift):
    dens = (3, 5, 7, 11, 13, 17, 19, 23, 29)
    return [
        [[Fraction((-1) ** (k + i) * (BIG + k), dens[(i * n + j + shift) % 9]) for k in range(6)]
         for j in range(n)]
        for i in range(n)
    ]


def test_packed_products_at_the_slot_bound():
    rng = random.Random(80)
    zero = [0] * 6
    for n in (2, 3):
        a, b, bound = _bound_reaching_pair(n)
        got = assert_product_matches_reference(S3, a, b)
        assert max(x for row in got.rows for e in row for x in e.num) == bound
        assert min(x for row in got.rows for e in row for x in e.num) == -bound
        assert_combination_matches_reference(S3, a[0], [b] * n)
        cases = [
            (_big_grid(rng, n), _big_grid(rng, n)),
            (_coprime_grid(n, 0), _coprime_grid(n, 4)),
            (_bound_reaching_pair(n)[0], _coprime_grid(n, 1)),
        ]
        sparse = _big_grid(rng, n)
        sparse[0] = [zero] * n  # a zero row
        sparse[n - 1][0] = zero
        cases.append((sparse, _big_grid(rng, n)))
        cases.append((_big_grid(rng, n), sparse))
        cases.append(([[zero] * n] * n, _big_grid(rng, n)))
        for a, b in cases:
            assert_product_matches_reference(S3, a, b)
            assert_combination_matches_reference(S3, a[0][:2], [b, a])


def test_operands_from_different_groups_are_rejected():
    x = GroupRingElem(S3, range(6))
    y = GroupRingElem(cyclic(6), range(6))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different groups"):
            op(x, y)
    mx, my = GroupRingMatrix(S3, [[x]]), GroupRingMatrix(y.group, [[y]])
    with pytest.raises(ValueError, match="different groups"):
        mx * my
    with pytest.raises(ValueError, match="different groups"):
        GroupRingMatrix.combination([x], [my])


def test_matrix_products_need_rational_entries():
    # Q[G] holds rationals only, so a matrix entry cannot be non-rational
    c3 = cyclic(3)
    z = CycloNum.root_of_unity(3)
    with pytest.raises(TypeError, match="expected rational"):
        GroupRingElem(c3, [1, z, 0])
    with pytest.raises(TypeError, match="expected rational"):
        GroupRingElem.one(c3).scale(z)


def test_matrix_sizes_must_agree():
    rng = random.Random(7)
    a = random_integral_matrix(S3, 2, rng)
    b = random_integral_matrix(S3, 3, rng)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="2x2 and 3x3"):
            op(a, b)
        with pytest.raises(ValueError, match="3x3 and 2x2"):
            op(b, a)
    one = GroupRingElem.one(S3)
    with pytest.raises(ValueError, match="2x2 and 3x3"):
        GroupRingMatrix.combination([one, one], [a, b])
    with pytest.raises(ValueError, match="1 scalars for 2 matrices"):
        GroupRingMatrix.combination([one], [a, a])


def test_matrix_sum_with_a_non_matrix_is_a_type_error():
    m = GroupRingMatrix.identity(S3, 2)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(m, 1)
        with pytest.raises(TypeError, match="unsupported operand"):
            op(1, m)


def test_combination_scalars_must_be_group_ring_elements():
    m = GroupRingMatrix.identity(S3, 2)
    with pytest.raises(TypeError, match="scalar of type int"):
        GroupRingMatrix.combination([1], [m])


def test_combination_of_no_matrices_is_a_value_error():
    with pytest.raises(ValueError, match="no matrices"):
        GroupRingMatrix.combination([], [])


@settings(derandomize=True, max_examples=50)
@given(
    values=st.lists(st.integers(-6, 6), min_size=6, max_size=6),
    dens=st.lists(st.integers(1, 12), min_size=6, max_size=6),
)
def test_integral_values_are_stored_as_ints(values, dens):
    plain = GroupRingElem(S3, values)
    scaled = GroupRingElem(S3, [Fraction(v * d, d) for v, d in zip(values, dens)])
    parts = GroupRingElem(S3, [Fraction(v, d) for v, d in zip(values, dens)])
    rest = GroupRingElem(S3, [v - Fraction(v, d) for v, d in zip(values, dens)])
    for elem in (scaled, parts + rest):
        assert elem == plain
        assert hash(elem) == hash(plain)
        assert all(type(c) is int for c in elem.coeffs)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), label=st.sampled_from(["S3", "Q8"]))
def test_adjoint_identity_for_non_integral_matrix(seed, label):
    g = KERNEL_GROUPS[label]
    h = random_integral_matrix(g, 2, random.Random(seed))
    half = h * Fraction(1, 2)
    assert any(e.den > 1 for row in half.rows for e in row)
    adj, nr = adjoint_and_norm(half)
    scalar = GroupRingMatrix.scalar(g, 2, nr.to_group_ring())
    assert adj * half == scalar
    assert half * adj == scalar
    # nr(H/2) = nr(H) / 2^(n chi(1)) on each character, with n = 2
    t = character_table(g)
    full = reduced_norm(h)
    for ch, v, w in zip(t.characters, nr.values, full.values):
        assert v == w * Fraction(1, 2 ** (2 * ch.degree))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), label=st.sampled_from(sorted(KERNEL_GROUPS)))
def test_regular_det_of_non_integral_element(seed, label):
    # det(L_{h/d}) = det(L_h) / d^|G|, because L_h is a |G| x |G| matrix
    g = KERNEL_GROUPS[label]
    h = random_integral_element(g, random.Random(seed))
    for d in (2, 3):
        assert regular_det(h.scale(Fraction(1, d))) == regular_det(h) / d**g.order
    assert regular_det(GroupRingElem.one(g).scale(Fraction(1, 2))) == Fraction(1, 2**g.order)
