import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from holring.chartable import character_table
from holring.cyclotomic import CycloNum
from holring.groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    random_integral_matrix,
)
from holring.groups import alternating, cyclic, dihedral, quaternion, symmetric
from holring.rednorm import adjoint_and_norm, reduced_norm

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
    t = character_table(S3)
    z = CentralElement.from_class_coords(t, [Fraction(1, 2), -3, Fraction(2, 7)])
    assert z.to_class_coords() == [Fraction(1, 2), -3, Fraction(2, 7)]
    elem = z.to_group_ring()
    assert CentralElement.from_group_ring(t, elem) == z


def test_central_values_match_linear_extension():
    """The stored value on chi times chi(1) is chi applied to the element."""
    t = character_table(S3)
    z = CentralElement.from_class_coords(t, [1, 2, -1])
    elem = z.to_group_ring()
    for v, ch in zip(z.values, t.characters):
        assert elem.char_value(ch) == v * ch.degree


def test_idempotent_coefficients_and_ring_law():
    t = character_table(A4)
    n = A4.order
    for i, ch in enumerate(t.characters):
        e = CentralElement.from_indicator(t, [i]).to_group_ring()
        # direct formula: coefficient at g is chi(1)/|G| times chi(g^{-1})
        for gid in range(n):
            want = ch.value_on(A4.inv(gid)) * Fraction(ch.degree, n)
            got = e.coeffs[gid]
            assert (got - want if isinstance(got, CycloNum)
                    else want - got) == 0
        assert e * e == e
    chars = range(len(t.characters))
    for i in chars:
        for j in chars:
            ei = CentralElement.from_indicator(t, [i]).to_group_ring()
            ej = CentralElement.from_indicator(t, [j]).to_group_ring()
            if i != j:
                assert ei * ej == GroupRingElem.zero(A4)
    total = CentralElement.from_indicator(t, chars).to_group_ring()
    assert total == GroupRingElem.one(A4)


def test_rationality_and_equivariance():
    t = character_table(A4)
    conductors = [ch.field_conductor for ch in t.characters]
    assert sorted(conductors) == [1, 1, 3, 3]
    single = conductors.index(3)
    pair = [i for i, c in enumerate(conductors) if c == 3]
    e_single = CentralElement.from_indicator(t, [single])
    e_pair = CentralElement.from_indicator(t, pair)
    assert not e_single.is_rational()
    assert not e_single.is_galois_equivariant()
    assert e_pair.is_rational()
    assert e_pair.is_galois_equivariant()
    assert not e_single.to_group_ring().has_integral_coeffs()


def test_pointwise_products():
    t = character_table(S3)
    a = CentralElement(t, [1, 2, 3])
    b = CentralElement(t, [5, -1, Fraction(1, 3)])
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
    assert m.has_integral_coeffs()
    assert not m.scale(Fraction(1, 5)).has_integral_coeffs()


def test_sampling_is_seed_deterministic():
    m1 = random_integral_matrix(S3, 3, random.Random(1729))
    m2 = random_integral_matrix(S3, 3, random.Random(1729))
    m3 = random_integral_matrix(S3, 3, random.Random(42))
    assert m1 == m2
    assert m1 != m3


def test_char_value_on_noncentral():
    t = character_table(S3)
    x = GroupRingElem.from_dict(S3, {0: 2, 1: 1})
    std = t.characters[2]
    got = x.char_value(std)
    want = 2 * std.value_on(0) + std.value_on(1)
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


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data(), label=st.sampled_from(sorted(KERNEL_GROUPS)))
def test_fraction_matrix_products_match_reference(data, label):
    g = KERNEL_GROUPS[label]
    a = [[draw_coeffs(data, g) for _ in range(2)] for _ in range(2)]
    b = [[draw_coeffs(data, g) for _ in range(2)] for _ in range(2)]

    def matrix(m):
        return GroupRingMatrix(g, [[GroupRingElem(g, c) for c in row] for row in m])

    got = matrix(a) * matrix(b)
    for i in range(2):
        for j in range(2):
            want = [
                x + y for x, y in zip(
                    reference_product(g, a[i][0], b[0][j]),
                    reference_product(g, a[i][1], b[1][j]),
                )
            ]
            assert list(got.rows[i][j].coeffs) == want


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
    half = h.scale(Fraction(1, 2))
    assert not half.has_integral_coeffs()
    adj, nr = adjoint_and_norm(half)
    scalar = GroupRingMatrix.scalar(g, 2, nr.to_group_ring())
    assert adj * half == scalar
    assert half * adj == scalar
    # nr(H/2) = nr(H) / 2^(n chi(1)) on each character, with n = 2
    t = character_table(g)
    full = reduced_norm(h)
    for ch, v, w in zip(t.characters, nr.values, full.values):
        assert v == w * Fraction(1, 2 ** (2 * ch.degree))
