"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a coefficient vector on the power basis {1, z, ..., z^(phi(m)-1)}
of Q(zeta_m), fully reduced modulo the m-th cyclotomic polynomial, held as
arbitrary-precision int numerators over one positive common denominator.
All arithmetic runs on those ints; products are reduced by one routine
that walks only the nonzero terms of Phi_m (Washington, Introduction to
Cyclotomic Fields, ch. 2).  Inverses are Galois norms: x^-1 is the
product of the other conjugates of x over the rational N(x).

The power basis is an integral basis of Z[zeta_m] (Washington, Thm. 2.6),
so with gcd(den, *num) = 1 a value is integral at every prime above p
exactly when p does not divide den, and an algebraic integer exactly when
den = 1.  Fractions appear only at the edges: input checks, `as_rational`
and the hash of a rational value.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

INF = math.inf  # valuation of zero


def divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n, ascending; [] for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    result = m
    for p in prime_divisors(m):
        result -= result // p
    return result


def multiplicative_order(a: int, m: int) -> int:
    """The least k >= 1 with a^k = 1 mod m; ValueError unless a is a unit
    mod m > 1."""
    if m < 2 or math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    x, k = a % m, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic up to sign of lead
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            assert c % lead == 0
            q = c // lead
            quot[i - dd] = q
            for j, dc in enumerate(den):
                num[i - dd + j] -= q * dc
    assert all(c == 0 for c in num), "inexact polynomial division"
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, degree phi(m), monic."""
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[tuple[int, int], ...]:
    """(j, a) for the nonzero coefficients a of z^j in Phi_m, j < phi(m)."""
    phi = cyclotomic_polynomial(m)
    return tuple((j, a) for j, a in enumerate(phi[:-1]) if a)


def _reduce(c: list[int], m: int) -> list[int]:
    """c(z) mod Phi_m as phi(m) int coordinates; c is consumed.

    Folds c modulo z^m - 1 first (a multiple of Phi_m), then clears the
    terms of degree >= phi(m) walking only the nonzero terms of the monic
    Phi_m, so no coefficient ever leaves the integers.
    """
    deg = euler_phi(m)
    if len(c) > m:
        for i in range(m, len(c)):
            if c[i]:
                c[i % m] += c[i]
        del c[m:]
    if len(c) <= deg:
        c += [0] * (deg - len(c))
        return c
    terms = _phi_terms(m)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            base = i - deg
            for j, a in terms:
                c[base + j] -= top * a
    del c[deg:]
    return c


def _rational(x):
    """x itself if it is an int or a Fraction; both carry `numerator` and
    `denominator`, which is all the callers read."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected rational, got {type(x).__name__}")


def _cyclo(m: int, num: list[int], den: int = 1) -> "CycloNum":
    """The CycloNum num(z) / den in Q(zeta_m), for int numerators of any
    length and a nonzero int den: reduced mod Phi_m, den made positive and
    the content gcd(den, *num) divided out."""
    if len(num) != euler_phi(m):
        num = _reduce(num, m)
    if den < 0:
        den, num = -den, [-x for x in num]
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    out = object.__new__(CycloNum)
    out.m, out.num, out.den = m, tuple(num), den
    return out


class CycloNum:
    """An element of Q(zeta_m) in reduced power-basis form.

    Stored as int numerators `num`, phi(m) of them, over one positive
    denominator `den`, with gcd(den, *num) = 1, so the triple
    (m, num, den) is canonical at a given conductor.  The value is
    p-integral iff den % p != 0 and integral iff den == 1.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        if m < 1:
            raise ValueError("conductor must be >= 1")
        xs = [_rational(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in xs))
        made = _cyclo(m, [x.numerator * (den // x.denominator) for x in xs], den)
        self.m, self.num, self.den = m, made.num, made.den

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(x) -> "CycloNum":
        x = _rational(x)
        return _cyclo(1, [x.numerator], x.denominator)

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "CycloNum":
        k %= m
        num = [0] * (k + 1)
        num[k] = 1
        return _cyclo(m, num)

    # -- structure ---------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.m

    def embedded(self, m2: int) -> "CycloNum":
        """The same value viewed in Q(zeta_m2); requires m | m2."""
        if m2 == self.m:
            return self
        if m2 % self.m:
            raise ValueError(f"no embedding Q(zeta_{self.m}) -> Q(zeta_{m2})")
        k = m2 // self.m
        out = [0] * ((len(self.num) - 1) * k + 1)
        out[::k] = self.num
        return _cyclo(m2, out, self.den)

    def _pair(self, other):
        other = coerce(other)
        if self.m == other.m:
            return self, other
        m = self.m * other.m // math.gcd(self.m, other.m)
        return self.embedded(m), other.embedded(m)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return _cyclo(a.m, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.m, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        # an int, a Fraction or a value of conductor 1 is a scalar f/d: one
        # product per coordinate, at the other operand's conductor
        if not isinstance(other, CycloNum):
            other = _rational(other)
            a, f, d = self, other.numerator, other.denominator
        elif other.m == 1:
            a, f, d = self, other.num[0], other.den
        elif self.m == 1:
            a, f, d = other, self.num[0], self.den
        else:
            a, b = self._pair(other)
            xs = [(i, x) for i, x in enumerate(a.num) if x]
            out = [0] * (len(a.num) + len(b.num) - 1)
            for j, y in enumerate(b.num):
                if y:
                    for i, x in xs:
                        out[i + j] += x * y
            return _cyclo(a.m, out, a.den * b.den)
        return _cyclo(a.m, [x * f for x in a.num], a.den * d)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """1/x = (product of sigma(x), sigma != 1) / N(x), taken over the
        Galois group of x's own field and written back at self.m."""
        if not self:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        r = self.minimal()
        rest = _cyclo(r.m, [1])
        for k in range(2, r.m):
            if math.gcd(k, r.m) == 1:
                rest = rest * r.galois(k)
        norm = r * rest  # rational: num[1:] are all zero
        return _cyclo(r.m, [x * norm.den for x in rest.num],
                      rest.den * norm.num[0]).embedded(self.m)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic number by zero")
            f = other.denominator
            return _cyclo(self.m, [x * f for x in self.num], self.den * other.numerator)
        return self * coerce(other).inverse()

    def __rtruediv__(self, other):
        return coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNum.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons -------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # the minimal conductor is canonical; a rational value hashes as its
        # Fraction, so it agrees with __eq__ against int and Fraction
        r = self.minimal()
        if r.m == 1:
            return hash(Fraction(r.num[0], r.den))
        return hash((r.m, r.num, r.den))

    # -- Galois action -----------------------------------------------

    def galois(self, k: int) -> "CycloNum":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        k %= self.m
        if math.gcd(k, self.m) != 1:
            raise ValueError(f"{k} is not a unit mod {self.m}")
        out = [0] * self.m
        for j, x in enumerate(self.num):
            if x:
                out[(j * k) % self.m] += x
        return _cyclo(self.m, out, self.den)

    def conjugate(self) -> "CycloNum":
        return self.galois(self.m - 1) if self.m > 1 else self

    def minimal(self) -> "CycloNum":
        """The same value written at its minimal conductor.

        A descent on the coordinates, one prime p of m at a time, that
        tries to move the value from Q(zeta_m) down to Q(zeta_(m/p)):

        - p^2 | m: Phi_m(t) = Phi_(m/p)(t^p), so 1, z, ..., z^(p-1) is a
          basis of Q(zeta_m) over Q(zeta_(m/p)).  The value lies there iff
          every coordinate at an exponent j != 0 mod p is zero, and its
          coordinates there are c[::p].
        - p || m, n = m/p: Q(zeta_m) = Q(zeta_n)(zeta_p) with basis 1,
          zeta_p, ..., zeta_p^(p-2).  With s p + t n = 1 mod m, z^j is
          zeta_n^(js) zeta_p^(jt), so the value is sum_b y_b zeta_p^b with
          y_b in Q(zeta_n).  As 1 + zeta_p + ... + zeta_p^(p-1) = 0, it
          lies in Q(zeta_n) iff y_1 = ... = y_(p-1), and is then
          y_0 - y_(p-1).

        (Washington, Introduction to Cyclotomic Fields, ch. 2; the same
        basis idea as Zumbroich's, used by GAP's cyclotomics.)  Since
        Q(zeta_a) & Q(zeta_b) = Q(zeta_gcd(a,b)), a step that fails at p
        cannot succeed after other primes are removed, so one pass over
        the primes reaches the minimal conductor, which is never 2 mod 4.
        """
        if self.m == 1:
            return self
        if not any(self.num[1:]):
            return _cyclo(1, [self.num[0]], self.den)
        m, c = self.m, list(self.num)
        for p in prime_divisors(m):
            while m % p == 0:
                n = m // p
                if n % p == 0:
                    if any(x for j, x in enumerate(c) if j % p):
                        break
                    c = c[::p]
                else:
                    s, t = pow(p, -1, n), pow(n, -1, p)
                    ys = [[0] * n for _ in range(p)]
                    for j, x in enumerate(c):
                        if x:
                            ys[j * t % p][j * s % n] += x
                    ys = [_reduce(y, n) for y in ys]
                    if any(y != ys[-1] for y in ys[1:-1]):
                        break
                    c = [a - b for a, b in zip(ys[0], ys[-1])]
                m = n
        return self if m == self.m else _cyclo(m, c, self.den)

    def as_rational(self):
        """Fraction if the value is rational, else None."""
        if not any(self.num[1:]):
            return Fraction(self.num[0], self.den)
        return None

    # -- serialization -----------------------------------------------

    def to_text(self) -> str:
        if not self:
            return "0"
        parts = []
        for j, x in enumerate(self.num):
            if not x:
                continue
            g = math.gcd(x, self.den)
            cj = str(x // g) if g == self.den else f"{x // g}/{self.den // g}"
            mono = "1" if j == 0 else ("z" if j == 1 else f"z^{j}")
            if j == 0:
                term = cj
            elif cj == "1":
                term = mono
            elif cj == "-1":
                term = f"-{mono}"
            else:
                term = f"{cj}*{mono}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"CycloNum({self.m}, {self.to_text()!r})"


def coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.rational(x)


# -- valuations --------------------------------------------------------


def padic_valuation(x, p: int):
    """Exponent of p in the rational x; math.inf for x == 0.  ValueError
    for p < 2, where no exponent exists."""
    if p < 2:
        raise ValueError(f"no valuation at p = {p}")
    x = _rational(x)
    if not x:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def semilocal_valuation(a: CycloNum, p: int):
    """min over primes P | p in Q(zeta_m) of v_P(a), m = a.conductor.

    Normalized so a uniformizer of Q(zeta_m) above p has valuation 1;
    v(p) itself is e = phi(p^k) where p^k || m.  Returns INF for a = 0.
    """
    if not a:
        return INF
    shift = min(padic_valuation(x, p) for x in a.num if x) - padic_valuation(a.den, p)
    k = padic_valuation(a.m, p)
    if k == 0:
        return shift
    # y = a / p^shift is p-integral with a unit coordinate, so 0 <= v(y) < e;
    # pi = 1 - zeta_(p^k) has pi^e = p * unit, so y * pi^j lies in p Z_(p)[z]
    # (p divides every numerator) exactly when j >= e - v(y)
    e = euler_phi(p**k)
    pi = 1 - CycloNum.root_of_unity(a.m, a.m // p**k)
    y = a / p**shift if shift > 0 else a * p**-shift
    for j in range(1, e + 1):
        y = y * pi
        if all(x % p == 0 for x in y.num):
            return e - j + shift * e
