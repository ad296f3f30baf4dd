"""Finite groups as permutation groups with dense element ids.

Elements are permutation tuples; ids are 0..|G|-1 with the identity always
id 0 and the remaining elements sorted lexicographically, so serialization
is deterministic.  Multiplication is composition: (g*h)(x) = g(h(x)).
A subgroup is the frozenset of its element ids, and its order is its len.
The class-sum structure constants live in `ConjClassData`, and only there.
"""

from __future__ import annotations

import itertools
import math
from array import array
from operator import itemgetter
from typing import NamedTuple

from .cyclotomic import multiplicative_order, padic_valuation, prime_divisors
from .linalg import is_prime

MAX_ORDER = 2000


def _compose(a: tuple, b: tuple) -> tuple:
    return tuple(map(a.__getitem__, b))


def _inverse_perm(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class ConjClassData(NamedTuple):
    classes: tuple          # tuple of tuples of element ids
    representatives: tuple  # min element id per class
    sizes: tuple
    class_of: tuple         # element id -> class index
    powers: tuple           # powers[c][t]: class of rep_c^t, t = 0..o(rep_c)-1

    def power_class(self, c: int, k: int) -> int:
        powers = self.powers[c]
        return powers[k % len(powers)]

    def p_singular_classes(self, p: int) -> frozenset:
        """The classes whose elements have order divisible by p."""
        return frozenset(c for c, powers in enumerate(self.powers) if len(powers) % p == 0)

    def class_matrix(self, group: "FiniteGroup", i: int) -> list:
        """a[j][k]: how many x in class i have x^-1 rep_k in class j, so
        z_i z_j = sum_k a[j][k] z_k for the class sums z (Isaacs,
        Character Theory of Finite Groups, ch. 2-3): the matrix of
        multiplication by z_i.  Built on each call, one class at a time,
        as a caller reads each matrix once per group."""
        k = len(self.classes)
        table, class_of = group.cayley_table(), self.class_of
        a = [[0] * k for _ in range(k)]
        rows = [table[group.inv(x)] for x in self.classes[i]]
        for kk, z in enumerate(self.representatives):
            for row in rows:
                a[class_of[row[z]]][kk] += 1
        return a


class FiniteGroup:
    def __init__(self, perms, family=None, meta=None):
        perms = set(map(tuple, perms))
        if not perms:
            raise ValueError("no permutations given")
        deg = len(next(iter(perms)))
        ident = tuple(range(deg))
        perms.add(ident)
        rest = sorted(perms - {ident})
        self.elements = (ident,) + tuple(rest)
        self.order = len(self.elements)
        self.degree = deg
        self.identity = 0
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.family = family
        self.meta = meta or {}
        self._table = None
        self._inv = None
        self._classes = None
        self._commutator = None
        self._frobenius = "unset"
        self._cache = {}

    # -- basic operations ---------------------------------------------

    def mul(self, a: int, b: int) -> int:
        table = self._table
        if table is None:
            table = self.cayley_table()
        return table[a][b]

    def cayley_table(self) -> list:
        """Rows of ids with cayley_table()[a][b] the id of a*b, built once.

        Rows are array('H'), so an order-2000 table takes about 8 MB.  Row
        a*s is row a composed with row s, since a*s*b = a*(s*b); so only
        the rows of a few generators come from permutations, where an
        element is keyed by its images of a base (points that only the
        identity fixes together), and every other row is one composition
        of two known rows, found by a search from the identity.
        """
        if self._table is None:
            base = self._base()
            images = [tuple(p[x] for x in base) for p in self.elements]
            key = {im: i for i, im in enumerate(images)}
            rows = [None] * self.order
            rows[0] = array("H", range(self.order))
            known, gens = [0], {}
            for s, p in enumerate(self.elements):
                if rows[s] is not None:
                    continue
                rows[s] = array("H", [key[tuple(map(p.__getitem__, im))] for im in images])
                known.append(s)
                gens[s] = itemgetter(*rows[s])
                for a in known:  # grows while it is walked
                    row = rows[a]
                    for t, compose in gens.items():
                        c = row[t]
                        if rows[c] is None:
                            rows[c] = array("H", compose(row))
                            known.append(c)
            self._table = rows
        return self._table

    def _base(self) -> list:
        base, moving = [], self.elements[1:]
        while moving:
            first = moving[0]
            x = next(pt for pt in range(self.degree) if first[pt] != pt)
            base.append(x)
            moving = [p for p in moving if p[x] == x]
        return base

    def inv(self, a: int) -> int:
        if self._inv is None:
            self._inv = tuple(self.index[_inverse_perm(p)] for p in self.elements)
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        result, base = 0, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        cls = self.classes()
        return len(cls.powers[cls.class_of[a]])

    def exponent(self) -> int:
        return math.lcm(*map(len, self.classes().powers))

    def is_abelian(self) -> bool:
        return len(self.classes().classes) == self.order

    # -- conjugacy ------------------------------------------------------

    def classes(self) -> ConjClassData:
        if self._classes is not None:
            return self._classes
        table, inv = self.cayley_table(), [self.inv(t) for t in range(self.order)]
        seen = [False] * self.order
        raw = []
        for g in range(self.order):
            if seen[g]:
                continue
            orbit = {table[row[g]][ti] for row, ti in zip(table, inv)}  # t g t^-1
            for x in orbit:
                seen[x] = True
            walk, x = [0], g  # 1, g, g^2, ... up to g^(o(g) - 1)
            while x:
                walk.append(x)
                x = table[x][g]
            raw.append((tuple(sorted(orbit)), walk))
        # identity class first, then by (representative order, min id)
        raw.sort(key=lambda c: (len(c[1]), c[0][0]))
        class_of = [0] * self.order
        for ci, (cls, _) in enumerate(raw):
            for x in cls:
                class_of[x] = ci
        powers = [tuple(class_of[x] for x in walk) for _, walk in raw]
        self._classes = ConjClassData(
            classes=tuple(c for c, _ in raw),
            representatives=tuple(c[0] for c, _ in raw),
            sizes=tuple(len(c) for c, _ in raw),
            class_of=tuple(class_of),
            powers=tuple(powers),
        )
        return self._classes

    # -- subgroups --------------------------------------------------------

    def subgroup_closure(self, gens) -> frozenset:
        table = self.cayley_table()
        current = {0}
        frontier = [0]
        gens = [g for g in gens if g != 0]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = table[x][g]
                    if y not in current:
                        current.add(y)
                        new.append(y)
            frontier = new
        return frozenset(current)

    def _require_normal(self, ids: frozenset) -> None:
        """ValueError unless ids is a normal subgroup: a union of classes
        that holds 1 and is closed under products.  As ids is closed under
        conjugation, products r*n with r one representative per class of
        ids suffice: x*n = g(r(g^-1 n g))g^-1 for x = g r g^-1."""
        cls = self.classes()
        if not (0 in ids and all(set(cls.classes[cls.class_of[x]]) <= ids for x in ids) and all(
            self.mul(r, n) in ids
            for r in {cls.representatives[cls.class_of[x]] for x in ids}
            for n in ids
        )):
            raise ValueError("subgroup must be normal")

    def normal_subgroups(self, d: int | None = None) -> list:
        """The normal subgroups whose order divides d (default |G|: all of
        them) as sets of ids, sorted by (order, ids), so {1} comes first.
        Every normal N is the join of the normal closures <C> of the classes
        C in N, and the join of normal A, B is the product set AB, of order
        |A||B|/|A n B|; so the atoms <C>, computed once per group, are closed
        under products with atoms.  If |N| divides d, so does the order of
        every atom in N and of every partial join, as each is a subgroup of
        N; so the atoms and joins whose order does not divide d are dropped.
        The list for each d is kept, and each call returns a copy."""
        d = self.order if d is None else d
        if ("normal", d) in self._cache:
            return list(self._cache["normal", d])
        if "atoms" not in self._cache:
            self._cache["atoms"] = {self.subgroup_closure(c) for c in self.classes().classes}
        atoms = [a for a in self._cache["atoms"] if d % len(a) == 0]
        found, work = set(atoms), list(atoms)
        while work:
            a = work.pop()
            for b in atoms:
                if a <= b or b <= a or d % (len(a) * len(b) // len(a & b)):
                    continue
                # AB is a union of cosets xB, so skip each x already in it
                join = set(b)
                for x in a:
                    if x not in join:
                        join.update(self.mul(x, y) for y in b)
                join = frozenset(join)
                if join not in found:
                    found.add(join)
                    work.append(join)
        self._cache["normal", d] = sorted(found, key=lambda s: (len(s), sorted(s)))
        return list(self._cache["normal", d])

    def commutator_subgroup(self) -> frozenset:
        """G' as the subgroup generated by the classes that meet
        {r^-1 y : r a class representative, y in its class}.  For x =
        h r h^-1 and k = h^-1 g h, x^-1 (g x g^-1) = h (r^-1 y) h^-1 with
        y = k r k^-1, so every commutator is conjugate into that set."""
        if self._commutator is None:
            cls = self.classes()
            hit = {
                cls.class_of[self.mul(self.inv(r), y)]
                for r, members in zip(cls.representatives, cls.classes)
                for y in members
            }
            self._commutator = self.subgroup_closure([x for c in hit for x in cls.classes[c]])
        return self._commutator

    def centralizer(self, g: int) -> frozenset:
        return frozenset(
            t for t in range(self.order) if self.mul(t, g) == self.mul(g, t)
        )

    # -- Frobenius structure ----------------------------------------------

    def frobenius_kernel(self):
        """The Frobenius kernel as a set of ids, or None if the group is not
        Frobenius: the unique proper nontrivial normal N with C_G(n) in N
        for every n != 1 in N (Isaacs, Character Theory of Finite Groups,
        ch. 7).  A complement is isomorphic to G/N, of order |G:N|.  A
        Frobenius group has trivial centre, so a group with a central
        element other than 1 is answered with no subgroup search."""
        if self._frobenius == "unset":
            central = 1 in self.classes().sizes[1:]
            found = [] if central else [
                sub for sub in self.normal_subgroups()[1:-1]
                if all(self.centralizer(n) <= sub for n in sub if n)
            ]
            assert len(found) <= 1, "Frobenius kernel must be unique"
            self._frobenius = found[0] if found else None
        return self._frobenius

    # -- derived groups -----------------------------------------------------

    def quotient(self, normal_ids: frozenset):
        """(quotient group, tuple mapping element id -> quotient element id).

        Built once per normal subgroup and kept, so the quotient's own
        classes, normal subgroups and table are shared by every caller.
        """
        key = ("quotient", frozenset(normal_ids))
        if key in self._cache:
            return self._cache[key]
        normal_ids = key[1]
        self._require_normal(normal_ids)
        coset_of = {}
        cosets = []
        for g in range(self.order):
            if g in coset_of:
                continue
            coset = frozenset(self.mul(g, n) for n in normal_ids)
            ci = len(cosets)
            cosets.append(min(coset))
            for x in coset:
                coset_of[x] = ci
        k = len(cosets)
        perms = []
        for a in range(k):
            perms.append(tuple(
                coset_of[self.mul(cosets[a], cosets[b])] for b in range(k)
            ))
        q = FiniteGroup(perms)
        self._cache[key] = q, tuple(q.index[perms[coset_of[g]]] for g in range(self.order))
        return self._cache[key]

    def subgroup_as_group(self, ids):
        """(subgroup as its own group, tuple mapping subgroup element id ->
        id in self), built once per subgroup and kept."""
        key = ("subgroup", frozenset(ids))
        if key in self._cache:
            return self._cache[key]
        members = sorted(key[1])
        pos = {g: i for i, g in enumerate(members)}
        perms = {}
        for a in members:
            perms[a] = tuple(pos[self.mul(a, b)] for b in members)
        h = FiniteGroup(perms.values())
        embed = [None] * h.order
        for a in members:
            embed[h.index[perms[a]]] = a
        self._cache[key] = h, tuple(embed)
        return self._cache[key]


# -- field arithmetic for affine groups ---------------------------------


def _poly_rem(num, den, p):
    """The element whose digits are num mod the monic den over F_p."""
    num, d = list(num), len(den) - 1
    for top in range(len(num) - 1, d - 1, -1):
        c = num[top]
        if c:
            for j, dc in enumerate(den):
                num[top - d + j] -= c * dc
    return sum(c % p * p**j for j, c in enumerate(num[:d]))


class _Field:
    """F_q, q = p^k: element i is the polynomial whose coefficients are the
    base-p digits of i, modulo the lexicographically least monic
    irreducible of degree k (one with no monic factor of degree 1..k//2).
    Sums go digit by digit, through the table `sums`; products read exp
    and log, with exp[j] = g^j for g the least unit of order q - 1."""

    def __init__(self, q):
        primes = prime_divisors(q)
        if len(primes) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = primes[0]
        k = padic_valuation(q, p)
        self.size = q
        # digit by digit: the lowest digit of a + b is entry b % p of 0..p-1
        # rotated by a % p, and the digits above it are (a // p) + (b // p)
        digits = list(range(p))
        low = self.sums = [digits[a:] + digits[:a] for a in range(p)]
        while len(self.sums) < q:
            self.sums = [[s + p * h for h in self.sums[a // p] for s in low[a % p]]
                         for a in range(len(self.sums) * p)]
        factors = [list(f) + [1] for d in range(1, k // 2 + 1)
                   for f in itertools.product(range(p), repeat=d)]
        for tail in itertools.product(range(p), repeat=k):
            modulus = list(tail) + [1]
            if all(_poly_rem(modulus, f, p) for f in factors):
                break
        self.modulus = tuple(modulus)

        # powers of each unit in turn, until one has order q - 1
        for a in range(1, q):
            powers, x = [1], a
            while x != 1:
                powers.append(x)
                prod = [0] * (2 * k - 1)
                for i in range(k):
                    for j in range(k):
                        prod[i + j] += x // p**i % p * (a // p**j % p)
                x = _poly_rem(prod, modulus, p)
            if len(powers) == q - 1:
                break
        self.exp = tuple(powers)
        self.log = {x: j for j, x in enumerate(powers)}

    def add(self, a, b):
        return self.sums[a][b]

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]


# -- family constructors -------------------------------------------------


def _check_order(n):
    if n > MAX_ORDER:
        raise ValueError(f"group order {n} exceeds the configured bound {MAX_ORDER}")


def _check_positive(family: str, name: str, value: int):
    if value < 1:
        raise ValueError(f"{family} groups need {name} >= 1, got {value}")


def cyclic(n: int) -> FiniteGroup:
    _check_positive("cyclic", "n", n)
    _check_order(n)
    return FiniteGroup(_closure([(*range(1, n), 0)]), family={"family": "cyclic", "n": n})


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n."""
    _check_positive("dihedral", "n", n)
    _check_order(2 * n)
    if n == 1:
        rot, gens = (0, 1), [(1, 0)]
    elif n == 2:
        rot, gens = (1, 0, 2, 3), [(1, 0, 2, 3), (0, 1, 3, 2)]
    else:
        rot = (*range(1, n), 0)
        gens = [rot, tuple((n - i) % n for i in range(n))]
    g = FiniteGroup(_closure(gens), family={"family": "dihedral", "n": n})
    g.meta["rotation"] = g.index[rot]
    return g


def symmetric(n: int) -> FiniteGroup:
    if n > 6:
        raise ValueError("symmetric groups supported for n <= 6")
    _check_positive("symmetric", "n", n)
    _check_order(math.factorial(n))
    if n == 1:
        return FiniteGroup([(0,)], family={"family": "symmetric", "n": 1})
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    g = FiniteGroup(_closure(gens), family={"family": "symmetric", "n": n})
    assert g.order == math.factorial(n)
    return g


def alternating(n: int) -> FiniteGroup:
    if n > 6:
        raise ValueError("alternating groups supported for n <= 6")
    _check_positive("alternating", "n", n)
    if n <= 2:
        return FiniteGroup([tuple(range(n))],
                           family={"family": "alternating", "n": n})
    gens = [tuple([1, 2, 0] + list(range(3, n)))]
    if n > 3:
        if n % 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    g = FiniteGroup(_closure(gens), family={"family": "alternating", "n": n})
    assert g.order == math.factorial(n) // 2
    return g


_Q8_MATS = [
    ((1, 0), (0, 1)), ((2, 0), (0, 2)),
    ((0, 2), (1, 0)), ((0, 1), (2, 0)),
    ((1, 1), (1, 2)), ((2, 2), (2, 1)),
    ((2, 1), (1, 1)), ((1, 2), (2, 2)),
]


def _mat2_f3_apply(mat, v):
    return ((mat[0][0] * v[0] + mat[0][1] * v[1]) % 3,
            (mat[1][0] * v[0] + mat[1][1] * v[1]) % 3)


def quaternion() -> FiniteGroup:
    """Q8, acting on the eight nonzero vectors of F_3^2."""
    points = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pidx = {v: i for i, v in enumerate(points)}
    perms = [tuple(pidx[_mat2_f3_apply(m, v)] for v in points) for m in _Q8_MATS]
    g = FiniteGroup(_closure(perms), family={"family": "quaternion"})
    assert g.order == 8
    return g


def affine(q: int) -> FiniteGroup:
    """Affine group of the line over F_q: all x -> ax + b with a != 0."""
    _check_order(q * (q - 1))
    field = _Field(q)
    perms = {}
    for a in range(1, q):
        scaled = tuple(field.mul(a, x) for x in range(q))
        for b in range(q):
            perms[(a, b)] = _compose(field.sums[b], scaled)
    g = FiniteGroup(perms.values(), family={"family": "affine", "q": q})
    assert g.order == q * (q - 1)
    g.meta["field"] = field
    g.meta["kernel"] = frozenset(g.index[perms[(1, b)]] for b in range(q))
    g.meta["decomp"] = {g.index[perm]: (field.log[a], b) for (a, b), perm in perms.items()}
    return g


def inversion(orders) -> FiniteGroup:
    """A x| C_2 with the C_2 acting by inversion, A = prod of cyclic factors.

    Acts on the elements of A plus two extra points swapped by the C_2 part,
    which keeps the action faithful even when A has exponent 2.  Generated
    by the inversion and the translations by the unit vectors, one per
    cyclic factor; the translations, the kernel, are the elements that fix
    the extra points.
    """
    orders = [int(x) for x in orders]
    for n in orders:
        _check_positive("inversion", "cyclic factor orders", n)
    size = math.prod(orders)
    _check_order(2 * size)
    tuples = list(itertools.product(*[range(n) for n in orders]))
    tidx = {t: i for i, t in enumerate(tuples)}
    npts = size + 2

    def translation(t):
        perm = [0] * npts
        for s in tuples:
            perm[tidx[s]] = tidx[tuple((a + b) % n for a, b, n in zip(s, t, orders))]
        perm[size], perm[size + 1] = size, size + 1
        return tuple(perm)

    inv_perm = [0] * npts
    for s in tuples:
        inv_perm[tidx[s]] = tidx[tuple((-a) % n for a, n in zip(s, orders))]
    inv_perm[size], inv_perm[size + 1] = size + 1, size
    units = [tuple(int(i == j) for i in range(len(orders))) for j in range(len(orders))]
    gens = [inv_perm] + [translation(t) for t in units]
    g = FiniteGroup(_closure([tuple(p) for p in gens]),
                    family={"family": "inversion", "orders": sorted(orders, reverse=True)})
    assert g.order == 2 * size
    g.meta["kernel"] = frozenset(i for i, p in enumerate(g.elements) if p[size] == size)
    return g


def metacyclic(l: int, p: int) -> FiniteGroup:
    """C_l x| C_p with l prime and p | l - 1, acting faithfully."""
    _check_order(l * p)
    if not is_prime(l) or p < 2 or (l - 1) % p:
        raise ValueError("metacyclic groups need l prime and p >= 2 dividing l - 1, "
                         f"got l = {l}, p = {p}")
    a = next(c for c in range(2, l) if multiplicative_order(c, l) == p)
    rot = tuple((x + 1) % l for x in range(l))
    act = tuple(a * x % l for x in range(l))
    g = FiniteGroup(_closure([rot, act]),
                    family={"family": "metacyclic", "l": l, "p": p})
    assert g.order == l * p
    g.meta["kernel"] = frozenset(
        g.index[tuple((x + b) % l for x in range(l))] for b in range(l)
    )
    return g


def frob72() -> FiniteGroup:
    """(C_3 x C_3) x| Q8, with Q8 acting via 2x2 matrices over F_3."""
    points = [(a, b) for a in range(3) for b in range(3)]
    pidx = {v: i for i, v in enumerate(points)}
    perms = []
    kernel_perms = []
    for mat in _Q8_MATS:
        for tv in points:
            perm = tuple(
                pidx[tuple((c + t) % 3 for c, t in
                           zip(_mat2_f3_apply(mat, v), tv))]
                for v in points
            )
            perms.append(perm)
            if mat == _Q8_MATS[0]:
                kernel_perms.append(perm)
    g = FiniteGroup(perms, family={"family": "frob72"})
    assert g.order == 72
    g.meta["kernel"] = frozenset(g.index[p] for p in kernel_perms)
    return g


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    _check_order(a.order * b.order)
    perms = {}
    for i, p in enumerate(a.elements):
        for j, q in enumerate(b.elements):
            perms[(i, j)] = p + tuple(x + a.degree for x in q)
    fams = []
    for grp in (a, b):
        fam = grp.family
        if fam and fam.get("family") == "product":
            fams.extend(fam["factors"])
        else:
            fams.append(fam)
    family = {"family": "product", "factors": fams} if all(fams) else None
    g = FiniteGroup(perms.values(), family=family)
    g.meta["factors"] = (a, b)
    g.meta["factor_embeddings"] = (
        {i: g.index[perms[(i, 0)]] for i in range(a.order)},
        {j: g.index[perms[(0, j)]] for j in range(b.order)},
    )
    g.meta["pair_of"] = {g.index[perm]: ij for ij, perm in perms.items()}
    return g


def from_generators(perms) -> FiniteGroup:
    perms = [tuple(p) for p in perms]
    if not perms:
        raise ValueError("at least one generator is needed")
    for p in perms:
        # bool is an int subclass, so test the exact type
        if any(type(x) is not int for x in p):
            raise ValueError(f"permutation entries must be integers: {p}")
        if sorted(p) != list(range(len(p))):
            raise ValueError(f"not a permutation: {p}")
    degrees = sorted({len(p) for p in perms})
    if len(degrees) > 1:
        raise ValueError(
            "generators must all permute the same 0..d-1, got degrees "
            + ", ".join(map(str, degrees))
        )
    return FiniteGroup(_closure(perms))


def _closure(gens):
    gens = [tuple(g) for g in gens]
    deg = len(gens[0])
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    if len(seen) >= MAX_ORDER:
                        raise ValueError(
                            f"group order exceeds the configured bound {MAX_ORDER}"
                        )
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def from_spec(spec: dict) -> FiniteGroup:
    """Build a group from a JSON-style description."""
    if "generators" in spec:
        return from_generators(spec["generators"])
    fam = spec.get("family")
    if fam == "cyclic":
        return cyclic(int(spec["n"]))
    if fam == "dihedral":
        return dihedral(int(spec["n"]))
    if fam == "symmetric":
        return symmetric(int(spec["n"]))
    if fam == "alternating":
        return alternating(int(spec["n"]))
    if fam == "quaternion":
        return quaternion()
    if fam == "affine":
        return affine(int(spec["q"]))
    if fam == "inversion":
        return inversion(spec["orders"])
    if fam == "metacyclic":
        return metacyclic(int(spec["l"]), int(spec["p"]))
    if fam == "frob72":
        return frob72()
    if fam == "product":
        factors = [from_spec(f) for f in spec["factors"]]
        if len(factors) < 2:
            raise ValueError("product needs at least two factors")
        g = factors[0]
        for h in factors[1:]:
            g = direct_product(g, h)
        return g
    raise ValueError(f"unknown group description: {spec!r}")


def group_name(g: FiniteGroup) -> str:
    """Short display name from the family description (C12, D10, Aff(8), ...)."""
    fam = g.family or {}
    kind = fam.get("family")
    if kind == "cyclic":
        return f"C{fam['n']}"
    if kind == "dihedral":
        return f"D{2 * fam['n']}"
    if kind == "symmetric":
        return f"S{fam['n']}"
    if kind == "alternating":
        return f"A{fam['n']}"
    if kind == "quaternion":
        return "Q8"
    if kind == "affine":
        return f"Aff({fam['q']})"
    if kind == "frob72":
        return "frob72"
    return f"group of order {g.order}"
