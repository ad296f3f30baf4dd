"""The rational group ring Q[G], matrices over it, and central elements.

An element of Q[G] is held as a tuple of int numerators over one
positive common denominator, in lowest terms: the gcd of the denominator
and all numerators is 1, so equal elements have equal (num, den).  Its
coefficients are int or Fraction; anything else raises TypeError.  There
is one product loop, ``_walk``: it walks the Cayley-table row of each
nonzero left numerator against the nonzero right numerators, and
``GroupRingElem.__mul__`` runs it once per product.

Matrix products multiply Kronecker-packed elements.  With A (p x q) and
B (q x r) each on one common denominator, column t of A is packed over i
into int numerators with bit slots of width w, and row t of B over j at
stride w*p; the element product of the two packed elements adds entry
(i, j) of A*B into slot i + p*j of each output numerator, so q element
products replace p*q*r.  Each slot's value is at most
M = max_i sum_t |A_it|_1 * max_tj |B_tj|_inf on the numerators in
absolute value, and w = bitlength(M) + 1 leaves a sign bit, so each slot
is decoded as a signed (balanced) value: add 2^(w-1), mask w bits,
subtract 2^(w-1).  Each entry is then reduced once over the product of
the two denominators.

Fractions appear only at the boundary: ``coeffs`` returns the int or
Fraction values that printing and JSON use, and ``class_collapse``
returns each class sum as a Fraction.  Equality and hashing compare
(num, den).  Each type checks its own shape when it is built, and
raises ValueError: an element has one coefficient per group element, and
a matrix is square, at least 1 x 1, with every entry an element of the
matrix's own group.  So the matrix type guarantees one group per
matrix, and an operation between matrices checks only its operands'
group and size.  Operands of one element operation must belong to the
same group object, or ValueError is raised.

A central element of C[G] is built from its group and held by its
scalar action on each irreducible character of the group's table, a
CycloNum like the character values, which turns products of central
elements into pointwise multiplications between elements of the same
group object (ValueError otherwise).  Its class coordinates are the one
way back into Q[G], through one integer change of basis kept on each
table, ``orbit_basis``: from the values at one character per rational
orbit of Irr(G) to class coordinates, with no CycloNum sums.
``to_class_coords`` and ``to_group_ring`` raise ValueError for an element
that is not rational, one whose values are not Galois-equivariant.

``regular_det``, the reduced-norm oracle, reads no character table: it
splits the determinant of left multiplication along an elementary
abelian 2-subgroup A into |A| integer blocks of size [G:A], one per
+-1-valued character of A, and runs Bareiss on each.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .chartable import character_table
from .cyclotomic import CycloNum, _cyclo, _rational, coerce, euler_phi, prime_divisors
from .groups import FiniteGroup
from .linalg import det_bareiss, lincomb


def _same_group(group: FiniteGroup, operand) -> None:
    """ValueError unless the element or matrix operand belongs to group."""
    if operand.group is not group:
        raise ValueError("group-ring operands belong to different groups")


def _walk(group: FiniteGroup, left, right) -> list:
    """The one Cayley-row walk: out[g*h] = sum of left[g] * right[h] over
    the nonzero int numerators."""
    rows = group.cayley_table()
    right = [(j, y) for j, y in enumerate(right) if y]
    out = [0] * group.order
    for i, x in enumerate(left):
        if x:
            row = rows[i]
            for j, y in right:
                out[row[j]] += x * y
    return out


def _pack(group: FiniteGroup, entries, den: int, stride: int) -> "GroupRingElem":
    """The numerators of entries over den, entry s in the bit slot at
    stride * s, as one element with denominator 1."""
    packed = [0] * group.order
    for s, e in enumerate(entries):
        if e:
            f = (den // e.den) << (stride * s)
            packed = [x + y * f for x, y in zip(packed, e.num)]
    return GroupRingElem._reduced(group, packed, 1)


def _packed_product(group: FiniteGroup, a, b) -> list:
    """The p x r grid a*b of a p x q and a q x r grid of rational elements,
    by one product of packed elements per inner index (layout, width and
    decode as in the module docstring).  Every entry belongs to group."""
    da = math.lcm(*(e.den for row in a for e in row))
    db = math.lcm(*(e.den for row in b for e in row))
    row_l1 = max(sum(da // e.den * sum(map(abs, e.num)) for e in row) for row in a)
    top = max(db // e.den * max(map(abs, e.num)) for row in b for e in row)
    w = (row_l1 * top).bit_length() + 1
    p, r = len(a), len(b[0])
    products = [
        _pack(group, [arow[t] for arow in a], da, w) * _pack(group, brow, db, w * p)
        for t, brow in enumerate(b)
    ]
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = half * (((1 << (w * p * r)) - 1) // mask)
    out = [sum(xs) + bias for xs in zip(*(e.num for e in products))]
    entries = [[((x >> (w * s)) & mask) - half for x in out] for s in range(p * r)]
    den = da * db
    return [
        [GroupRingElem._reduced(group, entries[i + p * j], den) for j in range(r)]
        for i in range(p)
    ]


class GroupRingElem:
    __slots__ = ("group", "num", "den")

    def __init__(self, group: FiniteGroup, coeffs):
        num, den = tuple(coeffs), 1
        if len(num) != group.order:
            raise ValueError(f"{len(num)} coefficients for a group of order {group.order}")
        if not set(map(type, num)) <= {int}:
            num = tuple(map(_rational, num))
            den = math.lcm(*(c.denominator for c in num))
            num = tuple(c.numerator * (den // c.denominator) for c in num)
        self.group, self.num, self.den = group, num, den

    @staticmethod
    def _reduced(group: FiniteGroup, num, den: int) -> "GroupRingElem":
        """The element num/den, for int numerators, in lowest terms."""
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

    # -- boundary ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficient values: int where the denominator divides out,
        Fraction elsewhere."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(x // den if x % den == 0 else Fraction(x, den) for x in self.num)

    # -- arithmetic -------------------------------------------------------

    def _linear(self, other: "GroupRingElem", sign: int) -> "GroupRingElem":
        _same_group(self.group, other)
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
        """One Cayley-row walk, reduced once over the product of the
        denominators."""
        if not isinstance(other, GroupRingElem):
            return self.scale(other)
        group = self.group
        _same_group(group, other)
        out = _walk(group, self.num, other.num)
        return GroupRingElem._reduced(group, out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "GroupRingElem":
        s = _rational(s)
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

    def class_sums(self) -> list:
        """Sum of the int numerators over each conjugacy class."""
        cls = self.group.classes()
        out = [0] * len(cls.classes)
        for c, x in zip(cls.class_of, self.num):
            out[c] += x
        return out

    def class_collapse(self) -> list:
        """Sum of coefficients over each conjugacy class, as Fractions."""
        return [Fraction(x, self.den) for x in self.class_sums()]

    def is_central(self) -> bool:
        cls = self.group.classes()
        for members in cls.classes:
            first = self.num[members[0]]
            if any(self.num[x] != first for x in members[1:]):
                return False
        return True


class GroupRingMatrix:
    __slots__ = ("group", "n", "rows")

    def __init__(self, group: FiniteGroup, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if not n:
            raise ValueError("a group-ring matrix must be at least 1x1, got 0x0")
        if any(len(r) != n for r in rows):
            lengths = [len(r) for r in rows]
            raise ValueError(f"a group-ring matrix must be square, got {n} rows of lengths {lengths}")
        for row in rows:
            for e in row:
                if not (isinstance(e, GroupRingElem) and e.group is group):
                    raise ValueError("matrix entries must be elements of the matrix's group")
        self.group, self.rows, self.n = group, rows, n

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
        """sum_j scalars[j] * matrices[j], each scalar multiplying every
        entry of its matrix from the left.

        This is the 1 x J row of scalars times the J x n^2 grid whose row j
        holds the entries of matrices[j]: the n^2 entries of each matrix
        are packed into one element, one element product per scalar, and
        each entry is reduced once.  ValueError on no matrices, TypeError
        on a scalar that is not a group-ring element.
        """
        if not matrices:
            raise ValueError("a combination of no matrices")
        group, n = matrices[0].group, matrices[0].n
        if len(scalars) != len(matrices):
            raise ValueError(f"{len(scalars)} scalars for {len(matrices)} matrices")
        for m in matrices:
            matrices[0]._same_shape(m)
        for s in scalars:
            if not isinstance(s, GroupRingElem):
                raise TypeError(f"a scalar of type {type(s).__name__}, not a group-ring element")
            _same_group(group, s)
        flat = [[e for row in m.rows for e in row] for m in matrices]
        (entries,) = _packed_product(group, [scalars], flat)
        return GroupRingMatrix(group, [entries[i * n:(i + 1) * n] for i in range(n)])

    def _same_shape(self, other: "GroupRingMatrix") -> None:
        _same_group(self.group, other)
        if other.n != self.n:
            raise ValueError(
                f"matrix sizes differ: {self.n}x{self.n} and {other.n}x{other.n}"
            )

    def __add__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        self._same_shape(other)
        return GroupRingMatrix(
            self.group,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        self._same_shape(other)
        return GroupRingMatrix(
            self.group,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other):
        """The matrix product, or each entry times a scalar.

        A matrix product packs column t of self and row t of other into
        one element each and multiplies them, n element products in place
        of n^3; entry (i, j) is read from slot i + n*j, with the slot width
        and the signed decode of the module docstring.
        """
        if isinstance(other, GroupRingMatrix):
            self._same_shape(other)
            return GroupRingMatrix(self.group, _packed_product(self.group, self.rows, other.rows))
        return GroupRingMatrix(
            self.group, [[e * other for e in row] for row in self.rows]
        )

    def __eq__(self, other):
        return isinstance(other, GroupRingMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def trace(self) -> GroupRingElem:
        acc = GroupRingElem.zero(self.group)
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc


class _OrbitBasis:
    """Values at the representative chi_0 of each rational orbit O of
    Irr(G) <-> class coordinates, for a rational central element; m is the
    conductor of chi_0's field.  `chi[o][c]` is chi_0(c) at Q(zeta_m), ints
    as character values are algebraic integers.  The value sum_t w_t
    zeta_m^t at each chi_0 gives class coordinates sum_O sum_t w_t R_O[t][c],
    R_O[t][c] = chi_0(1) |O| Tr(zeta_m^t chi_0(c^-1)) / (|G| phi(m)), the
    orbit's share of sum_chi chi(1) z_chi chi(c^-1) / |G| (Isaacs, ch. 2).
    Tr(zeta_m^j) = mu(m/g) phi(m) / phi(m/g), g = gcd(j, m), so the stacked
    `rows` are ints over one `den`.
    """

    def __init__(self, table):
        cls, chars = table.classes, table.characters
        self.orbits = table.rational_orbits()
        self.conductors = [chars[rep].field_conductor for rep, _ in self.orbits]
        self.chi = [[v.embedded(m).num for v in chars[rep].values]
                    for (rep, _), m in zip(self.orbits, self.conductors)]
        phi_lcm = math.lcm(*map(euler_phi, self.conductors))
        self.den = table.order * phi_lcm
        self.rows = []
        for (rep, members), m, chi in zip(self.orbits, self.conductors, self.chi):
            tr = []
            for n in (m // math.gcd(j, m) for j in range(m)):
                primes = prime_divisors(n)
                tr.append((-1) ** len(primes) * euler_phi(m) // euler_phi(n) if math.prod(primes) == n else 0)
            scale = chars[rep].degree * len(set(members.values())) * phi_lcm // euler_phi(m)
            conj = [chi[cls.power_class(c, -1)] for c in range(len(chi))]
            self.rows += [
                [scale * sum(x * tr[(t + s) % m] for s, x in enumerate(xs) if x) for xs in conj]
                for t in range(euler_phi(m))
            ]
        self._values = [chars[rep].values for rep, _ in self.orbits]

    def rep_value(self, o: int, num, den: int) -> CycloNum:
        """sum_c num[c] chi_0(c) / den for orbit o, at the lcm M of the
        conductors of the chi_0(c) with num[c] != 0, as CycloNum sums are."""
        m = self.conductors[o]
        M = math.lcm(1, *(v.m for v, x in zip(self._values[o], num) if x))
        value = _cyclo(m, lincomb(num, self.chi[o]), den)
        return value if M == m else value.minimal().embedded(M)

    def class_coords(self, values) -> tuple:
        """(numerators, den) of the class coordinates of the element with
        values[o] (0 or at a conductor dividing m) at orbit o's chi_0."""
        vals = [coerce(v).embedded(m) for v, m in zip(values, self.conductors)]
        den = math.lcm(*(v.den for v in vals))
        coeffs = [x * (den // v.den) for v in vals for x in v.num]
        return lincomb(coeffs, self.rows), den * self.den


def orbit_basis(table) -> _OrbitBasis:
    """The table's `_OrbitBasis`, built on first use."""
    return table._basis.get("orbit") or table._basis.setdefault("orbit", _OrbitBasis(table))


def _central_value(v) -> CycloNum:
    """v as a CycloNum; a rational value at conductor 1, so that products
    with it take CycloNum's scalar path."""
    v = coerce(v)
    return v if any(v.num[1:]) else v.minimal()


class CentralElement:
    """Element of the center of C[G], stored by its value on each character.

    The value on chi is the scalar by which the element acts in the
    irreducible representation with character chi, a CycloNum like the
    values of chi; products of central elements are pointwise products of
    values.

    It keeps its group and the group's table, `character_table(group)`.
    Sums, differences and products of two central elements need the same
    group object.  The element is rational exactly when its values are
    Galois-equivariant, sigma_k(value at chi) = value at sigma_k(chi), and
    lie in Q(zeta_exp(G)); its class coordinates are then read from the
    values at the orbit representatives through the table's
    `orbit_basis`, as ints.  `is_rational` tests this; `to_class_coords`
    and `to_group_ring`, the way back into Q[G], raise ValueError for an
    element that is not rational.
    """

    __slots__ = ("group", "table", "values")

    def __init__(self, group: FiniteGroup, values):
        table = character_table(group)
        values = list(values)
        if len(values) != len(table.characters):
            raise ValueError(f"{len(values)} values for {len(table.characters)} characters")
        self.group, self.table = group, table
        self.values = tuple(map(_central_value, values))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(group: FiniteGroup) -> "CentralElement":
        return CentralElement(group, [0] * len(character_table(group).characters))

    @staticmethod
    def one(group: FiniteGroup) -> "CentralElement":
        return CentralElement(group, [1] * len(character_table(group).characters))

    @staticmethod
    def from_indicator(group: FiniteGroup, char_indices) -> "CentralElement":
        s = set(char_indices)
        k = len(character_table(group).characters)
        return CentralElement(group, [1 if i in s else 0 for i in range(k)])

    @staticmethod
    def from_class_coords(group: FiniteGroup, coords) -> "CentralElement":
        """From coefficients a_c: the element sum_c a_c (class sum of c)."""
        sizes = group.classes().sizes
        coords = list(coords)
        values = []
        for ch in character_table(group).characters:
            total = 0
            for c, a in enumerate(coords):
                if a:
                    total = total + a * sizes[c] * ch.values[c]
            values.append(total * Fraction(1, ch.degree))
        return CentralElement(group, values)

    @staticmethod
    def from_group_ring(elem: GroupRingElem) -> "CentralElement":
        if not elem.is_central():
            raise ValueError("element is not central")
        coeffs = elem.coeffs
        coords = [coeffs[members[0]] for members in elem.group.classes().classes]
        return CentralElement.from_class_coords(elem.group, coords)

    # -- conversions ---------------------------------------------------------

    def _class_coords(self) -> tuple:
        """(numerators, denominator) of the class coordinates; ValueError unless
        sigma_k(z_chi) = z_sigma_k(chi) for every chi and k (equivariance)."""
        basis = orbit_basis(self.table)
        reps = []
        for (rep, members), m in zip(basis.orbits, basis.conductors):
            v = self.values[rep]
            v = v if m % v.m == 0 else v.minimal()
            # a rational element's value at chi_0 lies in chi_0's field
            pairs = {(k % v.m, idx) for k, idx in members.items()}
            if m % v.m or any(self.values[idx] != v.galois(u) for u, idx in pairs):
                raise ValueError("central element is not rational")
            reps.append(v)
        return basis.class_coords(reps)

    def to_class_coords(self) -> list:
        """Coefficient on each conjugacy class, as Fractions; ValueError if
        the element is not rational."""
        num, den = self._class_coords()
        return [Fraction(x, den) for x in num]

    def to_group_ring(self) -> GroupRingElem:
        num, den = self._class_coords()
        return GroupRingElem._reduced(self.group, [num[c] for c in self.group.classes().class_of], den)

    # -- predicates ------------------------------------------------------------

    def is_rational(self) -> bool:
        """True when the group ring coefficients are all rational."""
        try:
            return bool(self._class_coords())
        except ValueError:
            return False

    # -- arithmetic ---------------------------------------------------------

    def _pointwise(self, op, other: "CentralElement") -> "CentralElement":
        if other.group is not self.group:
            raise ValueError("central elements belong to different groups")
        return CentralElement(self.group, list(map(op, self.values, other.values)))

    def __add__(self, other):
        if isinstance(other, CentralElement):
            return self._pointwise(operator.add, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CentralElement):
            return self._pointwise(operator.sub, other)
        return NotImplemented

    def __neg__(self):
        return CentralElement(self.group, [-a for a in self.values])

    def __mul__(self, other):
        if isinstance(other, CentralElement):
            return self._pointwise(operator.mul, other)
        return CentralElement(self.group, [other * a for a in self.values])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return (
            isinstance(other, CentralElement)
            and self.group is other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

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


def _elementary_abelian_2_subgroup(group: FiniteGroup) -> list:
    """Ids of an elementary abelian 2-subgroup A, at position m the product
    of the basis involutions marked by the bits of m.  The basis is greedy:
    the involutions in id order, each kept when it commutes with those kept
    and lies outside their span.  [0] for a group of odd order."""
    table = group.cayley_table()
    members = [0]
    for z in range(1, group.order):
        row = table[z]
        if row[z] == 0 and z not in members and all(row[b] == table[b][z] for b in members):
            members += [row[b] for b in members]
    return members


def regular_det(h: GroupRingElem) -> Fraction:
    """Determinant of left multiplication by h on the group basis.

    An oracle for reduced norms: it uses only the group law and the
    coefficients of h, never character theory.  Q[G] is a free right
    Q[A]-module on a left transversal T of an elementary abelian
    2-subgroup A, and left multiplication by h is Q[A]-linear, given by a
    T x T matrix M over Z[A] on the numerators.  So the determinant is
    the product over the characters psi of A of det psi(M) (Frobenius's
    factorisation of the group determinant; K. Conrad, "The origin of
    representation theory", Enseign. Math. 44, 1998).  Each psi is
    +-1-valued, so the |A| blocks psi(M) are integer matrices, read off
    by one Walsh-Hadamard transform over A, and Bareiss runs on each; the
    common denominator is divided out at the end.  With A = 1 the one
    block is the |G| x |G| matrix of left multiplication.
    """
    g = h.group
    table = g.cayley_table()
    a = _elementary_abelian_2_subgroup(g)
    # y = reps[coset[y]] * a[bits[y]] for every element y
    coset, bits, reps = [None] * g.order, [0] * g.order, []
    for t in range(g.order):
        if coset[t] is None:
            row = table[t]
            for m, x in enumerate(a):
                coset[row[x]], bits[row[x]] = len(reps), m
            reps.append(t)
    r = len(reps)
    # blocks[m][i*r + j]: the coefficient of a[m] in M[i][j], as x * t_j =
    # t_i * a[m] for each x in the support of h
    blocks = [[0] * (r * r) for _ in a]
    for x, cx in enumerate(h.num):
        if cx:
            row = table[x]
            for j, t in enumerate(reps):
                y = row[t]
                blocks[bits[y]][coset[y] * r + j] += cx
    # Walsh-Hadamard over the bits: blocks[s] becomes psi_s(M), where
    # psi_s(a[m]) = (-1)^popcount(s & m)
    step = 1
    while step < len(a):
        for lo in range(0, len(a), 2 * step):
            for m in range(lo, lo + step):
                u, v = blocks[m], blocks[m + step]
                blocks[m] = [p + q for p, q in zip(u, v)]
                blocks[m + step] = [p - q for p, q in zip(u, v)]
        step *= 2
    det = 1
    for block in blocks:
        det *= det_bareiss([block[i * r:(i + 1) * r] for i in range(r)])
        if not det:
            break
    return Fraction(det, h.den**g.order)
