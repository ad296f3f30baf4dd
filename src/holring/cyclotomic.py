"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a coefficient vector on the power basis {1, z, ..., z^(phi(m)-1)}
of Q(zeta_m), fully reduced modulo the m-th cyclotomic polynomial, with
arbitrary-precision rational coefficients.  No floating point anywhere.
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


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    n, result, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def _reduce_mod_phi(coeffs: list[Fraction], m: int) -> list[Fraction]:
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    c = list(coeffs)
    if len(c) < deg:
        c += [Fraction(0)] * (deg - len(c))
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            # subtract top * x^(i-deg) * Phi_m; Phi is monic
            base = i - deg
            for j in range(deg):
                c[base + j] -= top * phi[j]
        c.pop()
    return c


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


class CycloNum:
    """An element of Q(zeta_m) in reduced power-basis form."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs):
        if m < 1:
            raise ValueError("conductor must be >= 1")
        self.m = m
        c = [_as_fraction(x) for x in coeffs]
        deg = euler_phi(m)
        if len(c) != deg:
            c = _reduce_mod_phi(c, m)
        self.c = tuple(c)

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(x) -> "CycloNum":
        return CycloNum(1, [_as_fraction(x)])

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "CycloNum":
        k %= m
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return CycloNum(m, coeffs)

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
        out = [Fraction(0)] * (len(self.c) * k)
        for j, cj in enumerate(self.c):
            if cj:
                out[j * k] = cj
        return CycloNum(m2, _reduce_mod_phi(out, m2))

    def _pair(self, other):
        other = coerce(other)
        if self.m == other.m:
            return self, other
        m = self.m * other.m // math.gcd(self.m, other.m)
        return self.embedded(m), other.embedded(m)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return CycloNum(a.m, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.m, [-x for x in self.c])

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return CycloNum(self.m, [x * f for x in self.c])
        a, b = self._pair(other)
        out = [Fraction(0)] * (len(a.c) + len(b.c) - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        out[i + j] += x * y
        return CycloNum(a.m, _reduce_mod_phi(out, a.m))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if not self:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        # extended Euclid against Phi_m in Q[x]
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.m)]
        a = list(self.c)
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
        g = r1[0]
        inv = [x / g for x in s1]
        return CycloNum(self.m, _reduce_mod_phi(inv, self.m))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return CycloNum(self.m, [x / f for x in self.c])
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
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.c == b.c

    def __hash__(self):
        r = self.minimal()
        return hash((r.m, r.c))

    # -- Galois action -----------------------------------------------

    def galois(self, k: int) -> "CycloNum":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        k %= self.m
        if math.gcd(k, self.m) != 1:
            raise ValueError(f"{k} is not a unit mod {self.m}")
        out = [Fraction(0)] * self.m
        for j, cj in enumerate(self.c):
            if cj:
                out[(j * k) % self.m] += cj
        return CycloNum(self.m, _reduce_mod_phi(out, self.m))

    def conjugate(self) -> "CycloNum":
        return self.galois(self.m - 1) if self.m > 1 else self

    def minimal(self) -> "CycloNum":
        """The same value written at its minimal conductor."""
        if self.m == 1:
            return self
        if not any(self.c[1:]):
            return CycloNum(1, [self.c[0]])
        for d in divisors(self.m):
            if d == self.m:
                return self
            if d == 2 and self.m % 2:
                continue
            # fixed by Gal(Q(zeta_m)/Q(zeta_d)) = {k = 1 mod d, gcd(k,m)=1}?
            fixed = True
            for k in range(1 + d, self.m, d):
                if math.gcd(k, self.m) == 1 and self.galois(k) != self:
                    fixed = False
                    break
            if fixed:
                return CycloNum(d, self._express_in(d))
        return self

    def _express_in(self, d: int) -> list[Fraction]:
        # solve for coordinates on the power basis of Q(zeta_d) inside Q(zeta_m)
        cols = [CycloNum.root_of_unity(d, j).embedded(self.m).c
                for j in range(euler_phi(d))]
        return _solve_exact(cols, list(self.c))

    def as_rational(self):
        """Fraction if the value is rational, else None."""
        if not any(self.c[1:]):
            return self.c[0]
        return None

    # -- serialization -----------------------------------------------

    def to_text(self) -> str:
        if not self:
            return "0"
        parts = []
        for j, cj in enumerate(self.c):
            if not cj:
                continue
            mono = "1" if j == 0 else ("z" if j == 1 else f"z^{j}")
            if j == 0:
                term = str(cj)
            elif cj == 1:
                term = mono
            elif cj == -1:
                term = f"-{mono}"
            else:
                term = f"{cj}*{mono}"
            parts.append(term)
        text = " + ".join(parts).replace("+ -", "- ")
        return text

    @staticmethod
    def from_text(m: int, text: str) -> "CycloNum":
        coeffs = [Fraction(0)] * euler_phi(m)
        s = text.strip().replace("- ", "+ -").replace(" ", "")
        if s in ("", "0"):
            return CycloNum(m, coeffs)
        for term in s.split("+"):
            if not term:
                continue
            if "z" in term:
                head, _, tail = term.partition("z")
                j = int(tail[1:]) if tail.startswith("^") else 1
                head = head.rstrip("*")
                if head in ("", "+"):
                    c = Fraction(1)
                elif head == "-":
                    c = Fraction(-1)
                else:
                    c = Fraction(head)
            else:
                j, c = 0, Fraction(term)
            coeffs[j] += c
        return CycloNum(m, coeffs)

    def __repr__(self):
        return f"CycloNum({self.m}, {self.to_text()!r})"


def coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.rational(_as_fraction(x))


# -- polynomial helpers over Fraction ---------------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / lead
        if c:
            q[i - len(den) + 1] = c
            for j, dc in enumerate(den):
                num[i - len(den) + 1 + j] -= c * dc
    return q, num[: len(den) - 1] or [Fraction(0)]


def _solve_exact(cols, target):
    """Solve sum_j x_j * cols[j] = target exactly; raises if inconsistent."""
    rows = len(target)
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for i, col in enumerate(piv_cols):
        x[col] = aug[i][ncols]
    return x


# -- valuations --------------------------------------------------------


def padic_valuation(x, p: int):
    """Exponent of p in the rational x; math.inf for x == 0."""
    x = _as_fraction(x)
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
    v(p) itself is phi(p^a) where p^a || m.  Returns INF for a = 0.
    """
    if not a:
        return INF
    m = a.m
    ap = 0
    mm = m
    while mm % p == 0:
        mm //= p
        ap += 1
    if ap == 0:
        return min(padic_valuation(c, p) for c in a.c if c)
    # ramified part present: divide out pi = 1 - zeta_{p^ap} repeatedly
    e_full = euler_phi(p**ap)
    pi = CycloNum.rational(1) - CycloNum.root_of_unity(p**ap).embedded(m)
    pi_inv = pi.inverse()
    shift = min(padic_valuation(c, p) for c in a.c if c)
    y = a * Fraction(p) ** (-shift)
    # y has p-integral coordinates, one of them a p-unit, so the count below
    # is strictly less than e_full
    count = 0
    while count < e_full:
        z = y * pi_inv
        if not all(padic_valuation(c, p) >= 0 for c in z.c if c):
            break
        y = z
        count += 1
    return count + shift * e_full
