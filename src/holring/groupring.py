"""Group rings K[G] with exact coefficients, and matrices over them.

A rational element is held as a tuple of int numerators over one
positive common denominator, in lowest terms: the gcd of the denominator
and all numerators is 1, so equal elements have equal (num, den).  The
one product loop, ``GroupRingElem.__mul__``, walks the Cayley-table row
of each nonzero left numerator and runs on ints alone; a matrix entry,
or any sum of products, adds the products' numerators over one common
denominator and reduces the sum once.  Fractions appear only at
the boundary: ``coeffs`` returns the canonical int/Fraction/CycloNum
values that printing and JSON use, and ``class_collapse`` divides each
class sum by the denominator.  Equality and hashing compare (num, den).

An element with a coefficient outside Q keeps its canonical coefficient
values as numerators over denominator 1, and goes through the same loops:
which arithmetic runs is decided by the type of the numerators.

Central elements carry a second representation by their scalar action
on each irreducible character, which turns products of central elements
into pointwise multiplications.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chartable import CharTable, Character
from .cyclotomic import CycloNum
from .groups import FiniteGroup


def canon_coeff(c):
    """Normal form: rational values as int or Fraction, never CycloNum."""
    if isinstance(c, CycloNum):
        r = c.as_rational()
        if r is None:
            return c
        c = r
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"unsupported coefficient {c!r}")


def is_integral_coeff(c) -> bool:
    """True when the coefficient has integer coordinates in the power basis."""
    c = canon_coeff(c)
    if isinstance(c, int):
        return True
    if isinstance(c, Fraction):
        return False
    return all(x.denominator == 1 for x in c.c)


def _sum_of_products(group: FiniteGroup, pairs) -> "GroupRingElem":
    """sum of a*b over pairs of elements, on one common denominator.

    Each product is a ``GroupRingElem.__mul__``; their numerator vectors
    are added over the lcm of their denominators and reduced once.
    """
    products = [a * b for a, b in pairs if a and b]
    if len(products) == 1:
        return products[0]
    den = math.lcm(*(p.den for p in products))
    vectors = [
        p.num if p.den == den else [x * (den // p.den) for x in p.num] for p in products
    ]
    out = list(map(sum, zip(*vectors))) if vectors else [0] * group.order
    return GroupRingElem._reduced(group, out, den)


class GroupRingElem:
    __slots__ = ("group", "num", "den")

    def __init__(self, group: FiniteGroup, coeffs):
        num, den = tuple(coeffs), 1
        assert len(num) == group.order
        if not set(map(type, num)) <= {int}:
            values = [canon_coeff(c) for c in num]
            if any(isinstance(v, CycloNum) for v in values):
                num = tuple(values)
            else:
                den = math.lcm(*(v.denominator for v in values))
                num = tuple(v.numerator * (den // v.denominator) for v in values)
        self.group, self.num, self.den = group, num, den

    @staticmethod
    def _reduced(group: FiniteGroup, num, den: int) -> "GroupRingElem":
        """The element num/den in canonical form: int numerators in lowest
        terms, any other numerators through the constructor."""
        if not set(map(type, num)) <= {int}:
            if den != 1:
                inv = Fraction(1, den)
                num = [x * inv for x in num]
            return GroupRingElem(group, num)
        d = math.gcd(den, *num) if den != 1 else 1
        if d != 1:
            num = [x // d for x in num]
            den //= d
        elem = object.__new__(GroupRingElem)
        elem.group, elem.num, elem.den = group, tuple(num), den
        return elem

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(group: FiniteGroup) -> "GroupRingElem":
        return GroupRingElem._reduced(group, [0] * group.order, 1)

    @staticmethod
    def one(group: FiniteGroup) -> "GroupRingElem":
        return GroupRingElem.basis(group, 0)

    @staticmethod
    def basis(group: FiniteGroup, element_id: int) -> "GroupRingElem":
        c = [0] * group.order
        c[element_id] = 1
        return GroupRingElem._reduced(group, c, 1)

    @staticmethod
    def from_dict(group: FiniteGroup, d: dict) -> "GroupRingElem":
        c = [0] * group.order
        for gid, v in d.items():
            c[gid] = v
        return GroupRingElem(group, c)

    # -- boundary ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Canonical coefficient values: int, Fraction or CycloNum."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(x // den if x % den == 0 else Fraction(x, den) for x in self.num)

    # -- arithmetic -------------------------------------------------------

    def _linear(self, other: "GroupRingElem", sign: int) -> "GroupRingElem":
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return GroupRingElem._reduced(
            self.group, [x * fa + y * fb for x, y in zip(self.num, other.num)], den
        )

    def __add__(self, other):
        if isinstance(other, GroupRingElem):
            return self._linear(other, 1)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GroupRingElem):
            return self._linear(other, -1)
        return NotImplemented

    def __neg__(self):
        return GroupRingElem._reduced(self.group, [-x for x in self.num], self.den)

    def __mul__(self, other):
        """The one product loop: for each nonzero left numerator, walk its
        Cayley-table row against the nonzero right numerators."""
        if not isinstance(other, GroupRingElem):
            return self.scale(other)
        group = self.group
        rows = group.cayley_table()
        out = [0] * group.order
        right = [(j, y) for j, y in enumerate(other.num) if y]
        for i, x in enumerate(self.num):
            if x:
                row = rows[i]
                for j, y in right:
                    out[row[j]] += x * y
        return GroupRingElem._reduced(group, out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "GroupRingElem":
        s = canon_coeff(s)
        if isinstance(s, CycloNum):
            return GroupRingElem._reduced(self.group, [s * x for x in self.num], self.den)
        s = Fraction(s)
        return GroupRingElem._reduced(
            self.group, [x * s.numerator for x in self.num], self.den * s.denominator
        )

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.group is other.group
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        n = sum(1 for c in self.num if c)
        return f"GroupRingElem(order={self.group.order}, support={n})"

    # -- structure --------------------------------------------------------

    def support(self) -> list:
        return [i for i, c in enumerate(self.num) if c]

    def has_integral_coeffs(self) -> bool:
        return self.den == 1 and all(is_integral_coeff(c) for c in self.num)

    def class_collapse(self) -> list:
        """Sum of coefficients over each conjugacy class."""
        cls = self.group.classes()
        out = [0] * len(cls.classes)
        for i, c in enumerate(self.num):
            if c:
                ci = cls.class_of[i]
                out[ci] = out[ci] + c
        den = self.den
        return [canon_coeff(x if den == 1 else Fraction(x, den)) for x in out]

    def is_central(self) -> bool:
        cls = self.group.classes()
        for members in cls.classes:
            first = self.num[members[0]]
            if any(self.num[x] != first for x in members[1:]):
                return False
        return True

    def char_value(self, ch: Character):
        """chi extended linearly: sum of a_g chi(g)."""
        collapsed = self.class_collapse()
        total = 0
        for s, v in zip(collapsed, ch.values):
            if s:
                total = total + s * v
        return canon_coeff(total)


class GroupRingMatrix:
    __slots__ = ("group", "n", "rows")

    def __init__(self, group: FiniteGroup, rows):
        self.group = group
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        assert all(len(r) == self.n for r in self.rows)

    @staticmethod
    def identity(group: FiniteGroup, n: int) -> "GroupRingMatrix":
        one, zero = GroupRingElem.one(group), GroupRingElem.zero(group)
        return GroupRingMatrix(
            group, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def scalar(group: FiniteGroup, n: int, elem: GroupRingElem) -> "GroupRingMatrix":
        zero = GroupRingElem.zero(group)
        return GroupRingMatrix(
            group, [[elem if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def combination(scalars, matrices) -> "GroupRingMatrix":
        """sum_j scalars[j] * matrices[j], entry by entry.

        Each scalar multiplies every entry of its matrix from the left, so
        this is the sum of scalar(scalars[j]) * matrices[j] at n^2 products
        per term instead of n^3; each entry's sum is reduced once.
        """
        group, n = matrices[0].group, matrices[0].n
        return GroupRingMatrix(group, [
            [
                _sum_of_products(group, [(c, m.rows[i][k]) for c, m in zip(scalars, matrices)])
                for k in range(n)
            ]
            for i in range(n)
        ])

    def __add__(self, other):
        return GroupRingMatrix(
            self.group,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return GroupRingMatrix(
            self.group,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other):
        if isinstance(other, GroupRingMatrix):
            g = self.group
            cols = list(zip(*other.rows))
            return GroupRingMatrix(
                g, [[_sum_of_products(g, zip(row, col)) for col in cols] for row in self.rows]
            )
        return GroupRingMatrix(
            self.group, [[e * other for e in row] for row in self.rows]
        )

    def __eq__(self, other):
        return isinstance(other, GroupRingMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def scale(self, s) -> "GroupRingMatrix":
        return GroupRingMatrix(
            self.group, [[e.scale(s) for e in row] for row in self.rows]
        )

    def trace(self) -> GroupRingElem:
        acc = GroupRingElem.zero(self.group)
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def product_trace(self, other: "GroupRingMatrix") -> GroupRingElem:
        """tr(self * other) from the n^2 products on its diagonal alone."""
        return _sum_of_products(self.group, [
            (a, other.rows[t][i])
            for i, row in enumerate(self.rows)
            for t, a in enumerate(row)
        ])

    def has_integral_coeffs(self) -> bool:
        return all(e.has_integral_coeffs() for row in self.rows for e in row)


class CentralElement:
    """Element of the center of C[G], stored by its value on each character.

    The value on chi is the scalar by which the element acts in the
    irreducible representation with character chi; products of central
    elements are pointwise products of values.
    """

    __slots__ = ("table", "values", "_coords")

    def __init__(self, table: CharTable, values):
        values = list(values)
        assert len(values) == len(table.characters)
        self.table = table
        self.values = tuple(canon_coeff(v) for v in values)
        self._coords = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: CharTable) -> "CentralElement":
        return CentralElement(table, [0] * len(table.characters))

    @staticmethod
    def one(table: CharTable) -> "CentralElement":
        return CentralElement(table, [1] * len(table.characters))

    @staticmethod
    def from_indicator(table: CharTable, char_indices) -> "CentralElement":
        s = set(char_indices)
        return CentralElement(
            table, [1 if i in s else 0 for i in range(len(table.characters))]
        )

    @staticmethod
    def from_class_coords(table: CharTable, coords) -> "CentralElement":
        """From coefficients a_c: the element sum_c a_c (class sum of c)."""
        g = table.group
        cls = g.classes()
        coords = list(coords)
        values = []
        for ch in table.characters:
            total = 0
            for c, a in enumerate(coords):
                if a:
                    total = total + a * cls.sizes[c] * ch.values[c]
            values.append(total * Fraction(1, ch.degree))
        return CentralElement(table, values)

    @staticmethod
    def from_group_ring(table: CharTable, elem: GroupRingElem) -> "CentralElement":
        assert elem.is_central(), "element is not central"
        cls = table.group.classes()
        coeffs = elem.coeffs
        coords = [coeffs[members[0]] for members in cls.classes]
        return CentralElement.from_class_coords(table, coords)

    # -- conversions ---------------------------------------------------------

    def to_class_coords(self) -> list:
        """Coefficient on (any element of) each conjugacy class; computed
        once per element, a fresh list on every call."""
        if self._coords is None:
            g = self.table.group
            cls = g.classes()
            coords = []
            for c in range(len(cls.classes)):
                cinv = cls.inverse_class(c, g)
                total = 0
                for v, ch in zip(self.values, self.table.characters):
                    if v:
                        total = total + v * ch.degree * ch.values[cinv]
                coords.append(canon_coeff(total * Fraction(1, g.order)))
            self._coords = tuple(coords)
        return list(self._coords)

    def to_group_ring(self) -> GroupRingElem:
        g = self.table.group
        cls = g.classes()
        coords = self.to_class_coords()
        return GroupRingElem(g, [coords[cls.class_of[i]] for i in range(g.order)])

    # -- predicates ------------------------------------------------------------

    def is_rational(self) -> bool:
        """True when the group ring coefficients are all rational."""
        return all(not isinstance(c, CycloNum) for c in self.to_class_coords())

    def is_galois_equivariant(self) -> bool:
        """Values commute with the Galois action permuting the characters."""
        table = self.table
        exponent = table.group.exponent()
        lookup = {ch.values: i for i, ch in enumerate(table.characters)}
        for k in range(1, exponent + 1):
            if math.gcd(k, exponent) != 1:
                continue
            for i, ch in enumerate(table.characters):
                moved = tuple(
                    (v.galois(k) if isinstance(v, CycloNum) else
                     CycloNum.rational(v)).minimal()
                    for v in ch.values
                )
                j = lookup[moved]
                vi = self.values[i]
                expect = vi.galois(k) if isinstance(vi, CycloNum) else vi
                if canon_coeff(expect) != self.values[j]:
                    return False
        return True

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CentralElement):
            return CentralElement(
                self.table, [a + b for a, b in zip(self.values, other.values)]
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CentralElement):
            return CentralElement(
                self.table, [a - b for a, b in zip(self.values, other.values)]
            )
        return NotImplemented

    def __neg__(self):
        return CentralElement(self.table, [-a for a in self.values])

    def __mul__(self, other):
        if isinstance(other, CentralElement):
            return CentralElement(
                self.table, [a * b for a, b in zip(self.values, other.values)]
            )
        return CentralElement(self.table, [other * a for a in self.values])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return (
            isinstance(other, CentralElement)
            and self.table is other.table
            and self.values == other.values
        )

    def __hash__(self):
        return hash(tuple(
            v.c if isinstance(v, CycloNum) else v for v in self.values
        ))

    def __repr__(self):
        return f"CentralElement(values={list(self.values)!r})"


def random_integral_element(group: FiniteGroup, rng, bound: int = 3) -> GroupRingElem:
    return GroupRingElem(
        group, [rng.randint(-bound, bound) for _ in range(group.order)]
    )


def random_integral_matrix(group: FiniteGroup, n: int, rng,
                           bound: int = 3) -> GroupRingMatrix:
    return GroupRingMatrix(
        group,
        [[random_integral_element(group, rng, bound) for _ in range(n)]
         for _ in range(n)],
    )
