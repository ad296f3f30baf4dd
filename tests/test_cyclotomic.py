import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holring.cyclotomic import (
    INF,
    CycloNum,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    is_prime,
    multiplicative_order,
    padic_valuation,
    prime_divisors,
    semilocal_valuation,
)

from helpers import cyclo_from_text


def zeta(m, k=1):
    return CycloNum.root_of_unity(m, k)


def _form(v):
    """The canonical triple: equal triples mean equal values at one conductor."""
    return v.m, v.num, v.den


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is always phi(m)
    for m in (5, 8, 9, 15, 24, 60, 105):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_product_of_cyclotomics_is_x_m_minus_1():
    for m in (6, 12, 30):
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [Fraction(0)] * (m + 1)
        expected[0], expected[m] = Fraction(-1), Fraction(1)
        assert prod == expected


def test_root_of_unity_has_right_order():
    for m in (3, 4, 5, 8, 12):
        z = zeta(m)
        acc = z
        for k in range(1, m):
            assert acc != 1
            acc = acc * z
        assert acc == 1


def test_inverse_of_one_plus_zeta3_against_linear_solve():
    # oracle: solve (1 + z) * (a + b z) = 1 in Q(zeta_3) by hand.
    # z^2 = -1 - z, so (1+z)(a+bz) = a + (a+b)z + b z^2 = (a-b) + a z.
    # a - b = 1 and a = 0 give a = 0, b = -1: the inverse is -z (= 1 + z^2).
    oracle = CycloNum(3, [Fraction(0), Fraction(-1)])
    lib = (CycloNum.rational(1) + zeta(3)).inverse()
    assert lib == oracle
    assert lib == 1 + zeta(3, 2)
    assert lib * (1 + zeta(3)) == 1


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(small_fractions, min_size=1, max_size=6),
    st.lists(small_fractions, min_size=1, max_size=6),
)
def test_field_axioms(midx, ac, bc):
    m = [1, 3, 4, 5, 8, 12, 59, 120][midx]
    x = CycloNum(m, ac[: euler_phi(m)] + [Fraction(0)] * max(0, euler_phi(m) - len(ac)))
    y = CycloNum(m, bc[: euler_phi(m)] + [Fraction(0)] * max(0, euler_phi(m) - len(bc)))
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y:
        assert (x / y) * y == x
    if x:
        assert x * x.inverse() == 1


def test_mixed_conductor_arithmetic():
    # zeta_3 * zeta_4 = zeta_12^7
    assert zeta(3) * zeta(4) == zeta(12, 7)
    assert zeta(6) == -zeta(3, 2)
    assert zeta(3) + zeta(3, 2) == -1
    # embedding then shrinking is the identity
    v = zeta(5) + 2
    assert v.embedded(15).minimal() == v


def test_galois_action():
    z = zeta(5)
    v = z + z**4
    assert v.galois(2) == z**2 + z**3
    assert v.galois(4) == v  # complex conjugation fixes z + z^-1
    w = zeta(12, 1) + 3
    # sigma_k is a ring homomorphism
    for k in (5, 7, 11):
        assert (w * w).galois(k) == w.galois(k) * w.galois(k)
    with pytest.raises(ValueError):
        zeta(12).galois(4)


def test_minimal_conductor():
    assert (zeta(12, 4)).minimal().conductor == 3
    assert (zeta(12, 6)).minimal().conductor == 1  # -1
    assert (zeta(8) + zeta(8, 7)).minimal().conductor == 8  # sqrt 2
    v = zeta(5) + zeta(5, 4)
    assert v.minimal().conductor == 5
    assert CycloNum.rational(Fraction(7, 3)).minimal().conductor == 1


def _reference_conductor(v):
    """The least d | m whose field Q(zeta_d) is fixed pointwise by the value's
    stabiliser: the divisor-by-divisor Galois search minimal() used to run."""
    m = v.m
    for d in divisors(m):
        if all(v.galois(k) == v for k in range(1 + d, m, d) if math.gcd(k, m) == 1):
            return d


def _check_minimal(v, reference=None):
    r = v.minimal()
    assert r.m == (reference or _reference_conductor(v))
    assert r.m % 4 != 2
    assert _form(r.embedded(v.m)) == _form(v)  # same value: embedding is injective
    assert r.minimal() is r
    return r


def _random_in(d, rng):
    return CycloNum(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(d))])


def test_minimal_matches_galois_search_on_every_subfield():
    rng = random.Random(1729)
    for m in range(1, 121):
        for d in divisors(m):
            v = _random_in(d, rng)
            # the conductor does not depend on the field the value is
            # written in, and the search is far cheaper at d than at m
            _check_minimal(v.embedded(m), _reference_conductor(v))


def test_minimal_of_gauss_periods():
    # the cubic periods of Q(zeta_13): sums of zeta^h over h in the cubes mod 13
    cubes = sorted({pow(x, 3, 13) for x in range(1, 13)})
    assert cubes == [1, 5, 8, 12]
    for a in (1, 2, 4):
        eta = sum((zeta(13, a * h) for h in cubes), CycloNum.rational(0))
        assert _check_minimal(eta).m == 13
        assert eta.galois(2) != eta and eta.galois(5) == eta
    # periods over every cyclic subgroup <k> of (Z/m)^*
    for m in range(2, 61):
        orbits = {frozenset(pow(k, e, m) for e in range(m))
                  for k in range(1, m) if math.gcd(k, m) == 1}
        for orbit in orbits:
            _check_minimal(sum((zeta(m, h) for h in orbit), CycloNum.rational(0)))


def test_minimal_never_stops_at_2_mod_4():
    rng = random.Random(5)
    for m in range(2, 121, 4):
        v = _random_in(m, rng)
        r = _check_minimal(v)
        assert r.m == m // 2 or r.m < m // 2
    assert _form(zeta(6).minimal()) == _form(-zeta(3, 2))
    assert (zeta(10, 2) * 3).minimal().conductor == 5


def test_minimal_of_rationals_and_real_values():
    rng = random.Random(11)
    for m in (1, 2, 3, 4, 12, 30, 60, 105, 120):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        r = _check_minimal(CycloNum.rational(x).embedded(m))
        assert _form(r) == (1, (x.numerator,), x.denominator)
        z = _random_in(m, rng)
        real = _check_minimal(z + z.conjugate())
        assert real.conjugate() == real


def test_as_rational():
    assert (zeta(3) + zeta(3, 2)).as_rational() == Fraction(-1)
    assert zeta(4).as_rational() is None
    assert (zeta(8, 4)).as_rational() == Fraction(-1)


def test_text_round_trip():
    vals = [
        CycloNum(12, [1, -2, Fraction(1, 3), 0]),
        zeta(5) - 1,
        CycloNum.rational(0),
        CycloNum.rational(Fraction(-7, 2)),
    ]
    for v in vals:
        assert cyclo_from_text(v.conductor, v.to_text()) == v


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * (10**5 - 2)
    for n in range(2, math.isqrt(10**5) + 1):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, 10**5, n))
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(10**5) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7, 31 and 37
    # respectively: the last one needs base 41
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_above_its_proven_bound():
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)
    with pytest.raises(ValueError, match="too large"):
        is_prime(bound)
    with pytest.raises(ValueError, match="too large"):
        is_prime(10**25 + 13)


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(Fraction(9, 5), 3) == 2
    assert padic_valuation(0, 7) == INF
    # v(xy) = v(x) + v(y), v(x+y) >= min
    xs = [Fraction(3, 4), Fraction(-14, 9), Fraction(5)]
    for x in xs:
        for y in xs:
            assert padic_valuation(x * y, 2) == padic_valuation(x, 2) + padic_valuation(y, 2)
            assert padic_valuation(x + y, 2) >= min(padic_valuation(x, 2), padic_valuation(y, 2))


def test_semilocal_valuation_unramified():
    # 2 is inert in Q(zeta_3): v(2) = 1, v(zeta) = 0, v(1 - zeta) = 0
    assert semilocal_valuation(CycloNum.rational(2), 2) == 1
    assert semilocal_valuation(zeta(3), 2) == 0
    assert semilocal_valuation(1 - zeta(3), 2) == 0
    # 2 splits in Q(zeta_7): min over primes of v(zeta - 2) is still >= 0
    assert semilocal_valuation(zeta(7) - 2, 2) == 0


def test_semilocal_valuation_ramified():
    # in Q(zeta_p), (1 - zeta) is the unique prime over p with v(p) = p - 1
    # valuations are normalized in the value's own conductor field, so
    # rationals must be embedded before asking about a ramified prime
    for p in (3, 5):
        pi = 1 - zeta(p)
        assert semilocal_valuation(pi, p) == 1
        assert semilocal_valuation(CycloNum.rational(p).embedded(p), p) == p - 1
        assert semilocal_valuation(pi * pi, p) == 2
        assert semilocal_valuation(pi / p, p) == 1 - (p - 1)
    # Q(zeta_4): v(1 - i) = 1, v(2) = 2
    assert semilocal_valuation(1 - zeta(4), 2) == 1
    assert semilocal_valuation(CycloNum.rational(2).embedded(4), 2) == 2
    assert semilocal_valuation(CycloNum.rational(0), 2) == INF


def _reference_semilocal_valuation(a, p):
    """The valuation by repeated division by pi = 1 - zeta_(p^k) on Fraction
    coordinates, as semilocal_valuation computed it before it read the
    valuation off the numerators and the denominator."""
    if not a:
        return INF

    def coords(v):
        return [Fraction(x, v.den) for x in v.num if x]

    m = a.m
    ap = padic_valuation(m, p)
    if ap == 0:
        return min(padic_valuation(c, p) for c in coords(a))
    e_full = euler_phi(p**ap)
    pi = CycloNum.rational(1) - CycloNum.root_of_unity(p**ap).embedded(m)
    pi_inv = pi.inverse()
    shift = min(padic_valuation(c, p) for c in coords(a))
    y = a * Fraction(p) ** (-shift)
    count = 0
    while count < e_full:
        z = y * pi_inv
        if not all(padic_valuation(c, p) >= 0 for c in coords(z)):
            break
        y = z
        count += 1
    return count + shift * e_full


def test_semilocal_valuation_matches_division_by_pi():
    rng = random.Random(1296)
    for m in range(1, 61):
        for p in sorted(set(prime_divisors(m)) | {2, 3, 5, 7}):
            k = padic_valuation(m, p)
            pi = 1 - zeta(p**k).embedded(m) if k else CycloNum.rational(p)
            values = [CycloNum.rational(0).embedded(m)]
            for j in range(4):
                v = _random_in(m, rng) * pi**j
                values += [v, v / p]
            for a in values:
                v = semilocal_valuation(a, p)
                assert v == _reference_semilocal_valuation(a, p), (m, p, a)
                assert (v < 0) == (a.den % p == 0)


def test_multiplicative_order_matches_brute_force():
    for m in range(2, 200):
        for a in range(m):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError, match="not a unit"):
                    multiplicative_order(a, m)
                continue
            k, x = 1, a % m
            while x != 1:
                k, x = k + 1, x * a % m
            assert multiplicative_order(a, m) == k
            assert multiplicative_order(a + m, m) == k
    for m in (0, 1):
        with pytest.raises(ValueError):
            multiplicative_order(1, m)
