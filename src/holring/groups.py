"""Finite groups as permutation groups with dense element ids.

Elements are permutation tuples; ids are 0..|G|-1 with the identity always
id 0 and the remaining elements sorted lexicographically, so serialization
is deterministic.  Multiplication is composition: (g*h)(x) = g(h(x)).
The class-sum structure constants live in `ConjClassData`, and only there.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter

from .cyclotomic import is_prime, multiplicative_order, padic_valuation, prime_divisors

MAX_ORDER = 2000


def _compose(a: tuple, b: tuple) -> tuple:
    return tuple(map(a.__getitem__, b))


def _inverse_perm(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


@dataclass(frozen=True)
class Subgroup:
    element_ids: frozenset
    order: int
    is_normal: bool
    is_abelian: bool


@dataclass(frozen=True)
class ConjClassData:
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

    def structure_constants(self, group: "FiniteGroup") -> list:
        """a[i][j][k]: how many x in class i have x^-1 rep_k in class j, so
        z_i z_j = sum_k a[i][j][k] z_k for the class sums z (Isaacs,
        Character Theory of Finite Groups, ch. 2-3).  Not kept: each
        caller reads them once per group."""
        k = len(self.classes)
        table, class_of = group.cayley_table(), self.class_of
        out = [[[0] * k for _ in range(k)] for _ in range(k)]
        for members, a in zip(self.classes, out):
            rows = [table[group.inv(x)] for x in members]
            for kk, z in enumerate(self.representatives):
                for row in rows:
                    a[class_of[row[z]]][kk] += 1
        return out


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
        self._orders = None
        self._classes = None
        self._normals = None
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
        if self._orders is None:
            self._orders = [0] * self.order
        if self._orders[a] == 0:
            n, x = 1, a
            while x != 0:
                x = self.mul(x, a)
                n += 1
            self._orders[a] = n
        return self._orders[a]

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = math.lcm(
                *(self.element_order(a) for a in range(self.order)))
        return self._cache["exponent"]

    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            self._cache["abelian"] = all(
                self.mul(a, b) == self.mul(b, a)
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
        return self._cache["abelian"]

    # -- conjugacy ------------------------------------------------------

    def classes(self) -> ConjClassData:
        if self._classes is not None:
            return self._classes
        seen = [False] * self.order
        raw = []
        for g in range(self.order):
            if seen[g]:
                continue
            orbit = set()
            for t in range(self.order):
                orbit.add(self.mul(self.mul(t, g), self.inv(t)))
            for x in orbit:
                seen[x] = True
            raw.append(tuple(sorted(orbit)))
        # identity class first, then by (representative order, min id)
        raw.sort(key=lambda c: (self.element_order(c[0]) != 1,
                                self.element_order(c[0]), c[0]))
        class_of = [0] * self.order
        for ci, cls in enumerate(raw):
            for x in cls:
                class_of[x] = ci
        powers = []
        for cls in raw:
            x, out = 0, []
            while True:
                out.append(class_of[x])
                x = self.mul(x, cls[0])
                if x == 0:
                    break
            powers.append(tuple(out))
        self._classes = ConjClassData(
            classes=tuple(raw),
            representatives=tuple(c[0] for c in raw),
            sizes=tuple(len(c) for c in raw),
            class_of=tuple(class_of),
            powers=tuple(powers),
        )
        return self._classes

    # -- subgroups --------------------------------------------------------

    def subgroup_closure(self, gens) -> frozenset:
        current = {0}
        frontier = [0]
        gens = [g for g in gens if g != 0]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in current:
                        current.add(y)
                        new.append(y)
            frontier = new
        return frozenset(current)

    def _is_normal_set(self, ids: frozenset) -> bool:
        cls = self.classes()
        return all(set(cls.classes[cls.class_of[x]]) <= ids for x in ids)

    def _require_normal(self, ids: frozenset) -> None:
        """ValueError unless ids is a normal subgroup: a union of classes
        that holds 1 and is closed under products.  As ids is closed under
        conjugation, products r*n with r one representative per class of
        ids suffice: x*n = g(r(g^-1 n g))g^-1 for x = g r g^-1."""
        cls = self.classes()
        if not (0 in ids and self._is_normal_set(ids) and all(
            self.mul(r, n) in ids
            for r in {cls.representatives[cls.class_of[x]] for x in ids}
            for n in ids
        )):
            raise ValueError("subgroup must be normal")

    def _make_subgroup(self, ids: frozenset) -> Subgroup:
        abelian = all(
            self.mul(a, b) == self.mul(b, a)
            for a in ids for b in ids if a < b
        )
        return Subgroup(ids, len(ids), self._is_normal_set(ids), abelian)

    def normal_subgroups(self) -> list:
        """All normal subgroups, as joins of normal closures of single classes."""
        if self._normals is not None:
            return self._normals
        cls = self.classes()
        found = {frozenset([0])}
        atoms = []
        for c in cls.classes:
            n = self.subgroup_closure(c)
            if n not in found:
                found.add(n)
                atoms.append(n)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(sorted(found, key=sorted), 2):
                if a <= b or b <= a:
                    continue
                join = self.subgroup_closure(a | b)
                if join not in found:
                    found.add(join)
                    changed = True
        subs = [self._make_subgroup(ids) for ids in found]
        subs.sort(key=lambda s: (s.order, sorted(s.element_ids)))
        self._normals = subs
        return subs

    def commutator_subgroup(self) -> Subgroup:
        if self._commutator is None:
            comms = set()
            for a in range(self.order):
                ia = self.inv(a)
                for b in range(self.order):
                    comms.add(self.mul(self.mul(ia, self.inv(b)), self.mul(a, b)))
            self._commutator = self._make_subgroup(self.subgroup_closure(comms))
        return self._commutator

    def centralizer(self, g: int) -> frozenset:
        return frozenset(
            t for t in range(self.order) if self.mul(t, g) == self.mul(g, t)
        )

    # -- Frobenius structure ----------------------------------------------

    def frobenius_kernel_complement(self):
        """(kernel, complement) if the group is Frobenius, else None.

        Detection: a proper nontrivial normal subgroup N such that the
        centralizer of every nontrivial element of N lies inside N.  The
        complement is found by search (one exists whenever the criterion
        holds); it is unique up to conjugacy, and the search is
        deterministic so repeated calls agree.
        """
        if self._frobenius != "unset":
            return self._frobenius
        result = None
        for sub in self.normal_subgroups():
            if sub.order in (1, self.order):
                continue
            ids = sub.element_ids
            if all(self.centralizer(n) <= ids for n in ids if n != 0):
                assert result is None, "Frobenius kernel must be unique"
                result = sub
        if result is None:
            self._frobenius = None
            return None
        m = self.order // result.order
        comp = self._find_complement(result.element_ids, m)
        assert comp is not None, "Frobenius complement must exist"
        assert math.gcd(result.order, m) == 1
        self._frobenius = (result, self._make_subgroup(comp))
        return self._frobenius

    def _find_complement(self, kernel: frozenset, m: int):
        candidates = [
            x for x in range(1, self.order)
            if x not in kernel and m % self.element_order(x) == 0
        ]
        # cyclic complements first: covers all affine-type groups cheaply
        for x in candidates:
            if self.element_order(x) == m:
                h = self.subgroup_closure([x])
                if len(h & kernel) == 1:
                    return h
        dead = set()

        def extend(current: frozenset):
            if len(current) == m:
                return current
            if current in dead:
                return None
            for x in candidates:
                if x in current:
                    continue
                h = self.subgroup_closure(current | {x})
                if m % len(h) == 0 and len(h & kernel) == 1:
                    got = extend(h)
                    if got is not None:
                        return got
            dead.add(current)
            return None

        return extend(frozenset([0]))

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


def abelian_invariants(g: FiniteGroup) -> list:
    """Invariant factors [d1, d2, ...] with d_{i+1} | d_i, for abelian g;
    ValueError for a non-abelian g."""
    if not g.is_abelian():
        raise ValueError("invariant factors of a non-abelian group")
    n = g.order
    if n == 1:
        return []
    columns = []
    for p in prime_divisors(n):
        # lambda-partition of the p-part from counts of p^k-torsion
        counts = [1]
        k = 1
        while True:
            c = sum(1 for x in range(n) if g.power(x, p**k) == 0)
            counts.append(c)
            if c == counts[-2]:
                counts.pop()
                break
            k += 1
        mults = []
        for i in range(1, len(counts)):
            ratio = counts[i] // counts[i - 1]
            mults.append(round(math.log(ratio, p)))
        lam = []
        for depth, cnt in enumerate(mults, start=1):
            while len(lam) < cnt:
                lam.append(0)
            for i in range(cnt):
                lam[i] = depth
        columns.append([p**e for e in lam])
    width = max(len(c) for c in columns)
    factors = []
    for i in range(width):
        d = 1
        for c in columns:
            if i < len(c):
                d *= c[i]
        factors.append(d)
    return factors


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
    if n == 1:
        return FiniteGroup([(0,)], family={"family": "cyclic", "n": 1})
    gen = tuple(list(range(1, n)) + [0])
    g = FiniteGroup(_closure([gen]), family={"family": "cyclic", "n": n})
    g.meta["rotation"] = g.index[gen]
    return g


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n."""
    _check_positive("dihedral", "n", n)
    _check_order(2 * n)
    if n == 1:
        g = FiniteGroup([(1, 0)], family={"family": "dihedral", "n": 1})
        g.meta["rotation"], g.meta["reflection"] = 0, 1
        return g
    if n == 2:
        perms = [(1, 0, 2, 3), (0, 1, 3, 2)]
        g = FiniteGroup(_closure(perms), family={"family": "dihedral", "n": 2})
        g.meta["rotation"] = g.index[(1, 0, 2, 3)]
        g.meta["reflection"] = g.index[(0, 1, 3, 2)]
        return g
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    g = FiniteGroup(_closure([rot, ref]), family={"family": "dihedral", "n": n})
    g.meta["rotation"], g.meta["reflection"] = g.index[rot], g.index[ref]
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
    which keeps the action faithful even when A has exponent 2.
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
    gens = [inv_perm] + [translation(t) for t in tuples]
    g = FiniteGroup(_closure([tuple(p) for p in gens]),
                    family={"family": "inversion", "orders": sorted(orders, reverse=True)})
    assert g.order == 2 * size
    g.meta["kernel"] = frozenset(g.index[translation(t)] for t in tuples)
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
