"""CycloNum's int arithmetic against Fraction coordinate arithmetic.

The reference below is the arithmetic CycloNum used when it stored one
Fraction per power-basis coordinate: dense reduction mod Phi_m over
Fractions, embedding by stride, schoolbook products, the extended Euclid
inverse, and the prime-by-prime descent of minimal().  Values are pairs
(m, coordinates) with coordinates a tuple of phi(m) Fractions.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from holring.chartable import _char_sort_key, _sort_coords, character_table
from holring.cyclotomic import CycloNum, cyclotomic_polynomial, euler_phi, prime_divisors
from holring.verify import catalog, group_name

from helpers import cyclo_from_text

# -- the Fraction reference ----------------------------------------------


def ref_reduce(coeffs, m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    c = list(coeffs) + [Fraction(0)] * max(0, deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for j in range(deg):
                c[i - deg + j] -= top * phi[j]
        c.pop()
    return tuple(c)


def ref_embedded(a, m2):
    m, c = a
    k = m2 // m
    out = [Fraction(0)] * (len(c) * k)
    for j, x in enumerate(c):
        out[j * k] = x
    return m2, ref_reduce(out, m2)


def ref_pair(a, b):
    m = math.lcm(a[0], b[0])
    return ref_embedded(a, m), ref_embedded(b, m)


def ref_add(a, b):
    (m, x), (_, y) = ref_pair(a, b)
    return m, tuple(s + t for s, t in zip(x, y))


def ref_neg(a):
    return a[0], tuple(-x for x in a[1])


def ref_mul(a, b):
    (m, x), (_, y) = ref_pair(a, b)
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            out[i + j] += s * t
    return m, ref_reduce(out, m)


def ref_scale(a, f):
    return a[0], tuple(x * f for x in a[1])


def _trim(p):
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / den[-1]
        if c:
            q[i - len(den) + 1] = c
            for j, dc in enumerate(den):
                num[i - len(den) + 1 + j] -= c * dc
    return q, num[: len(den) - 1] or [Fraction(0)]


def _poly_mul_sub(s0, q, s1):
    out = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1)
    out[: len(s0)] = s0
    for i, x in enumerate(q):
        for j, y in enumerate(s1):
            out[i + j] -= x * y
    return out


def ref_inverse(a):
    m, c = a
    r0, r1 = [Fraction(x) for x in cyclotomic_polynomial(m)], _trim(list(c))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, _trim(r)
        s0, s1 = s1, _trim(_poly_mul_sub(s0, q, s1))
    return m, ref_reduce([x / r1[0] for x in s1], m)


def ref_galois(a, k):
    m, c = a
    out = [Fraction(0)] * m
    for j, x in enumerate(c):
        out[j * k % m] += x
    return m, ref_reduce(out, m)


def ref_minimal(a):
    m, c = a[0], list(a[1])
    if m == 1:
        return a
    if not any(c[1:]):
        return 1, (c[0],)
    for p in prime_divisors(m):
        while m % p == 0:
            n = m // p
            if n % p == 0:
                if any(x for j, x in enumerate(c) if j % p):
                    break
                c = c[::p]
            else:
                s, t = pow(p, -1, n), pow(n, -1, p)
                ys = [[Fraction(0)] * n for _ in range(p)]
                for j, x in enumerate(c):
                    ys[j * t % p][j * s % n] += x
                ys = [ref_reduce(y, n) for y in ys]
                if any(y != ys[-1] for y in ys[1:-1]):
                    break
                c = [u - w for u, w in zip(ys[0], ys[-1])]
            m = n
    return m, tuple(c)


def ref_as_rational(a):
    return a[1][0] if not any(a[1][1:]) else None


def ref(v: CycloNum):
    """The reference pair of a CycloNum, checking its stored invariants."""
    assert isinstance(v.num, tuple) and all(type(x) is int for x in v.num)
    assert type(v.den) is int and v.den > 0
    assert math.gcd(v.den, *v.num) == 1
    assert len(v.num) == euler_phi(v.m)
    return v.m, tuple(Fraction(x, v.den) for x in v.num)


# -- strategies -------------------------------------------------------------

fractions = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)


@st.composite
def coordinates(draw, conductors=st.integers(min_value=1, max_value=60)):
    """(m, coordinate list) of any length up to 2m: the constructor reduces
    what is not exactly phi(m) long."""
    m = draw(conductors)
    n = draw(st.one_of(st.just(euler_phi(m)), st.integers(min_value=1, max_value=2 * m)))
    return m, draw(st.lists(fractions, min_size=n, max_size=n))


@st.composite
def operand_pairs(draw):
    """Two operands with conductors up to 60 whose lcm is at most 120, so
    the dense Fraction reference stays quick."""
    x = draw(coordinates())
    ms = [d for d in range(1, 61) if math.lcm(x[0], d) <= 120]
    return x, draw(coordinates(st.sampled_from(ms)))


def build(mc):
    m, coeffs = mc
    v = CycloNum(m, coeffs)
    assert ref(v) == (m, ref_reduce(coeffs, m))
    return v


@st.composite
def unit_mod(draw, m):
    k = draw(st.integers(min_value=1, max_value=max(1, m)))
    while math.gcd(k, m) != 1:
        k += 1
    return k


# -- differential tests -----------------------------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(operand_pairs(), fractions)
def test_ring_operations_match_reference(xy, f):
    xc, yc = xy
    x, y = build(xc), build(yc)
    rx, ry = ref(x), ref(y)
    assert ref(x + y) == ref_add(rx, ry)
    assert ref(x - y) == ref_add(rx, ref_neg(ry))
    assert ref(-x) == ref_neg(rx)
    assert ref(x * y) == ref_mul(rx, ry)
    assert ref(x * f) == ref_scale(rx, f) == ref(f * x)
    if f:
        assert ref(x / f) == ref_scale(rx, 1 / f)
    assert ref(x + f) == ref_add(rx, (1, (f,)))
    assert ref(x * 3) == ref_scale(rx, Fraction(3))
    assert (x == y) == (ref_pair(rx, ry)[0] == ref_pair(rx, ry)[1])
    assert bool(x) == any(rx[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(operand_pairs())
def test_division_matches_reference(xy):
    xc, yc = xy
    x, y = build(xc), build(yc)
    if y:
        assert ref(y.inverse()) == ref_inverse(ref(y))
        assert ref(x / y) == ref_mul(ref(x), ref_inverse(ref(y)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coordinates(), st.integers(min_value=1, max_value=4), st.data())
def test_embedded_galois_minimal_match_reference(xc, mult, data):
    x = build(xc)
    rx = ref(x)
    m2 = x.m * mult * data.draw(st.sampled_from([1, 2, 3, 5, 7]))
    assert ref(x.embedded(m2)) == ref_embedded(rx, m2)
    k = data.draw(unit_mod(x.m))
    assert ref(x.galois(k)) == ref_galois(rx, k)
    assert ref(x.minimal()) == ref_minimal(rx)
    assert ref(x.embedded(m2).minimal()) == ref_minimal(rx)
    r = x.as_rational()
    assert r == ref_as_rational(rx)
    assert r is None or type(r) is Fraction
    # equal values hash equal, whatever conductor they are written at
    assert x.embedded(m2) == x and hash(x.embedded(m2)) == hash(x)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(coordinates())
def test_text_round_trip_matches_reference(xc):
    x = build(xc)
    assert cyclo_from_text(x.m, x.to_text()) == x
    assert ref(cyclo_from_text(x.m, x.to_text())) == ref(x)


def test_hash_agrees_with_eq_on_rational_values():
    three = CycloNum.rational(3)
    assert three == 3 and hash(three) == hash(3)
    assert len({three, 3}) == 1
    z = CycloNum.root_of_unity(3)
    w = z + z * z
    assert w == -1 and hash(w) == hash(-1) == hash(CycloNum.rational(-1))
    half = CycloNum.rational(Fraction(1, 2)).embedded(12)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2), CycloNum.rational(Fraction(1, 2))}) == 1


def _reference_sort_key(ch, exponent):
    """The character order over Fraction coordinates embedded at exp(G)."""
    return (ch.degree, [tuple(-c for c in ref_embedded(ref(v), exponent)[1]) for v in ch.values])


def test_char_sort_key_orders_like_the_fraction_reference():
    for g in catalog():
        exponent = g.exponent()
        for method in ("auto", "generic"):
            chars = list(character_table(g, method).characters)
            by_ref = sorted(chars, key=lambda ch: _reference_sort_key(ch, exponent))
            assert by_ref == chars, (group_name(g), method)
            shuffled = chars[1::2] + chars[::2]
            coords = _sort_coords(exponent)
            assert sorted(shuffled, key=lambda ch: _char_sort_key(ch, coords)) == chars
