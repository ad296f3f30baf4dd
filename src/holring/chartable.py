"""Exact complex character tables of finite groups.

Character values are cyclotomic numbers, never floats.  The generic
engine (Dixon, Numer. Math. 10, 1967) finds central characters as joint
eigenvectors of the class multiplication matrices over a prime field
F_q with q = 1 mod exp(G), with the F_q linear algebra of `linalg`.  It
asks `ConjClassData.class_matrix` for a class matrix only when the split
reaches it, and stops once every eigenspace is a line; it keeps the
nonzero entries of each matrix row.  As q does not divide |G|, each
class matrix is diagonalizable over F_q, so its eigenvalues on a space
are the distinct roots of its characteristic polynomial, found by
evaluating it at every element of F_q.  One Fourier inversion per cyclic
subgroup <g> not inside a larger one lifts chi(g) exactly, and
re-indexing its root-of-unity multiplicities gives chi(g^t) for every t.
Closed forms cover affine and direct product groups, and read abelian
groups (`abelian_table`: the cyclic family, and under "auto" every
abelian group with no closed form) and A x| <t> with t inverting an
abelian A (`inversion_table`: the dihedral and inversion families) off
the group law.  "generic" is Dixon on every group, the reference for the
other routes and for kernel induction on Frobenius groups in the tests.
Every builder returns one row of values per character, and `_finish`
minimises each distinct value once over the build, through one memo
(`_memo`).

The table of a quotient G/N, or of a direct factor M of G = M x H, is
derived from the table of G rather than computed afresh: Irr(G/N) is the
set of characters of G with N in their kernel (inflation), and Irr(M) is
Irr(G) trivial on H, restricted to M (Isaacs, Character Theory of Finite
Groups, Lemma 2.22).  See `derived_table`.

A group keeps its tables, one per method, and a table holds no group:
it and its characters keep the group's `ConjClassData` (classes, sizes,
power maps), so a dropped group is freed by reference counting alone.
A function that reads only character data takes a table; one that needs
products, normality or Q[G] elements takes the group and asks
`character_table` for the table.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .cyclotomic import CycloNum, _cyclo, coerce, multiplicative_order
from .linalg import fq_charpoly, fq_kernel, fq_matvec, fq_roots, fq_rref, is_prime, lincomb

if TYPE_CHECKING:
    from .groups import ConjClassData, FiniteGroup


def _memo(fn):
    """fn memoised on a value's (conductor, numerators, denominator) triple,
    for one table build: a table has k^2 values but few distinct ones."""
    seen = {}

    def call(v):
        key = (v.m, v.num, v.den)
        out = seen.get(key)
        if out is None:
            out = seen[key] = fn(v)
        return out
    return call


class Character:
    """An irreducible character: one cyclotomic value per conjugacy class.

    Each value is stored at its minimal conductor, so `key`, its (conductor,
    numerators, denominator) triples, is canonical: `kernel` and
    `CharTable.galois_orbit` rely on it.  ValueError unless there is one
    value per class and the value at the identity is a positive integer.
    It keeps the group's class data, not the group.  `_finish` passes one
    `_memo` of `minimal` for all the characters of a table build.
    """

    __slots__ = ("classes", "values", "key", "degree", "_kernel")

    def __init__(self, group: FiniteGroup, values, minimal=CycloNum.minimal):
        self.classes = group.classes()
        self.values = tuple(minimal(coerce(v)) for v in values)
        self.key = tuple((v.m, v.num, v.den) for v in self.values)
        k = len(self.classes.classes)
        if len(self.values) != k:
            raise ValueError(f"{len(self.values)} character values for {k} classes")
        d = self.values[0].as_rational()
        if d is None or d.denominator != 1 or d <= 0:
            raise ValueError(
                f"a character's value at the identity must be a positive integer, "
                f"got {self.values[0].to_text()}"
            )
        self.degree = int(d)
        self._kernel = None

    @property
    def kernel(self) -> frozenset:
        if self._kernel is None:
            ker = set()
            for v, members in zip(self.values, self.classes.classes):
                if v.m == 1 and v.den == 1 and v.num[0] == self.degree:
                    ker.update(members)
            self._kernel = frozenset(ker)
        return self._kernel

    @property
    def field_conductor(self) -> int:
        """Conductor of the field generated by all values."""
        return math.lcm(*(v.conductor for v in self.values))

    def inner(self, other: "Character") -> CycloNum:
        cls = self.classes
        total = CycloNum.rational(0)
        for ci, size in enumerate(cls.sizes):
            total = total + self.values[ci] * other.values[ci].conjugate() * size
        return (total * Fraction(1, len(cls.class_of))).minimal()

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Character(degree={self.degree}, conductor={self.field_conductor})"


class CharTable:
    """The irreducible characters of a group, over its class data.

    `_orbits`, `_blocks` and `_basis` keep what is derived from the table
    on first use.  Tables compare by identity."""

    def __init__(self, classes: ConjClassData, characters: tuple):
        self.classes = classes
        self.characters = characters
        self._orbits = {}
        self._blocks = {}
        self._basis = {}

    @property
    def order(self) -> int:
        """|G|."""
        return len(self.classes.class_of)

    @cached_property
    def _index(self) -> tuple:
        """(rows of value ids, one small int per distinct value; {row: index})."""
        ids = {}
        rows = [tuple(ids.setdefault(v, len(ids)) for v in ch.key) for ch in self.characters]
        return rows, {row: j for j, row in enumerate(rows)}

    @cached_property
    def _unit_perms(self) -> dict:
        """{k: (class of rep_c^k for each class c)} for each unit k mod exp(G)."""
        cls = self.classes
        exponent = math.lcm(*map(len, cls.powers))
        return {k: tuple(cls.power_class(c, k) for c in range(len(cls.powers)))
                for k in range(1, exponent + 1) if math.gcd(k, exponent) == 1}

    def galois_orbit(self, i: int) -> dict:
        """{k: j} for each unit k in 1..exp(G), where chi_j is chi_i under
        zeta -> zeta^k.  As chi_j(g) = chi_i(g^k), the image is read off the
        class power map, on rows of value ids, with no field arithmetic.
        Computed once per character and kept; each call returns a new dict."""
        if i not in self._orbits:
            rows, index = self._index
            self._orbits[i] = {k: index[tuple(map(rows[i].__getitem__, perm))]
                               for k, perm in self._unit_perms.items()}
        return dict(self._orbits[i])

    def rational_orbits(self) -> list:
        """(first index, `galois_orbit`) of each Galois orbit of Irr(G) over Q."""
        orbits = []
        for i in range(len(self.characters)):
            if all(i not in members.values() for _, members in orbits):
                orbits.append((i, self.galois_orbit(i)))
        return orbits

    def to_jsonable(self, group: FiniteGroup) -> dict:
        """The table of `group`, whose element permutations name the class
        representatives."""
        cls = self.classes
        text = _memo(CycloNum.to_text)
        return {
            "group": {"order": group.order, "family": group.family},
            "classes": [
                {
                    "representative": list(group.elements[rep]),
                    "size": cls.sizes[ci],
                    "element_order": len(cls.powers[ci]),
                }
                for ci, rep in enumerate(cls.representatives)
            ],
            "characters": [
                {
                    "degree": ch.degree,
                    "field_conductor": ch.field_conductor,
                    "values": [{"conductor": v.conductor, "text": text(v)} for v in ch.values],
                }
                for ch in self.characters
            ],
        }


def _sort_coords(exponent: int):
    """Minus a value's numerators at the exponent (ints, as character values
    are algebraic integers), memoised for one table build."""
    return _memo(lambda v: tuple(-x for x in v.embedded(exponent).num))


def _char_sort_key(ch: Character, coords):
    """A character's place in its table; `coords` is `_sort_coords(exp(G))`."""
    return (ch.degree, [coords(v) for v in ch.values])


def _finish(group: FiniteGroup, rows: list) -> CharTable:
    """The table of `group` from one row of values per character, with one
    `minimal` per distinct value over the whole build."""
    minimal = _memo(CycloNum.minimal)
    chars = [Character(group, values, minimal) for values in rows]
    k = len(group.classes().classes)
    assert len(chars) == k, f"expected {k} characters, built {len(chars)}"
    assert sum(ch.degree**2 for ch in chars) == group.order
    # chi(1) divides |G| (Isaacs, Character Theory of Finite Groups, 3.11)
    assert all(group.order % ch.degree == 0 for ch in chars), "a degree must divide |G|"
    assert len(set(chars)) == k, "characters must be pairwise distinct"
    coords = _sort_coords(group.exponent())
    chars = sorted(chars, key=lambda ch: _char_sort_key(ch, coords))
    return CharTable(group.classes(), tuple(chars))


# -- the generic engine ---------------------------------------------------


def _find_modulus(exponent: int, order: int) -> int:
    q = exponent + 1
    while q <= 10**6:
        if q * q > 4 * order and is_prime(q):
            return q
        q += exponent
    raise RuntimeError("no usable prime q = 1 mod exp(G) below 10^6")


def dixon_table(group: FiniteGroup) -> CharTable:
    cls = group.classes()
    k = len(cls.classes)
    if k == 1:
        return _finish(group, [[CycloNum.rational(1)]])
    exponent = group.exponent()
    q = _find_modulus(exponent, group.order)

    # split F_q^k into the joint eigenspaces of the class matrices, each
    # kept as (reduced echelon basis, pivots): a vector's coordinates in it
    # are its entries at the pivots; a class matrix is built only when the
    # split reaches it, and its rows are kept sparse
    spaces = [([[1 if t == s else 0 for t in range(k)] for s in range(k)], list(range(k)))]
    for i in range(1, k):
        if all(len(w) == 1 for w, _ in spaces):
            break
        mat = [[(t, x) for t, x in enumerate(row) if x]
               for row in cls.class_matrix(group, i)]
        next_spaces = []
        for basis, piv in spaces:
            d = len(basis)
            if d == 1:
                next_spaces.append((basis, piv))
                continue
            restricted = []
            for b in basis:
                img = fq_matvec(mat, b, q)
                coords = [img[p] for p in piv]
                assert [x % q for x in lincomb(coords, basis)] == img
                restricted.append(coords)
            # q does not divide |G|, so the class matrix is diagonalizable:
            # its eigenvalues are the distinct roots of its char poly, and
            # a single one means it is scalar on this space
            roots = fq_roots(fq_charpoly(restricted, q), q)
            if len(roots) == 1:
                next_spaces.append((basis, piv))
                continue
            covered = 0
            for lam in roots:
                transposed = [
                    [(restricted[s][t] - (lam if s == t else 0)) % q
                     for s in range(d)]
                    for t in range(d)
                ]
                eig = fq_kernel(transposed, q)
                assert eig
                next_spaces.append(fq_rref([lincomb(x, basis) for x in eig], q))
                covered += len(eig)
            assert covered == d
        spaces = next_spaces
    if any(len(w) != 1 for w, _ in spaces):
        raise RuntimeError("class matrices failed to separate the characters")

    inv_size = [pow(sz, q - 2, q) for sz in cls.sizes]
    jstar = [powers[-1] for powers in cls.powers]  # class of rep^-1
    omegas = []
    for (vec,), _ in spaces:
        assert vec[0] % q, "central character vanishes at the identity"
        scale = pow(vec[0], q - 2, q)
        omegas.append([x * scale % q for x in vec])

    # Fourier inversion once per cyclic subgroup <rep> that lies in no
    # larger one taken before (classes by decreasing element order): the
    # multiplicities m_l of the o-th roots of unity in chi(rep) give every
    # class c = [rep^t] too, as zeta_o^(lt) = zeta_(o/g)^(lt/g), g = gcd(t, o)
    root = next(g for g in range(2, q) if multiplicative_order(g, q) == q - 1)
    plan, done = [], set()
    for j in reversed(range(k)):
        if j in done:
            continue
        powers = cls.powers[j]
        o = len(powers)
        zinv = pow(pow(root, (q - 1) // o, q), q - 2, q)
        zpow = [pow(zinv, t, q) for t in range(o)]
        dft = [[zpow[l * t % o] for t in range(o)] for l in range(o)]
        targets = [(c, o // math.gcd(t, o), t // math.gcd(t, o)) for t, c in enumerate(powers)
                   if c not in done and powers.index(c) == t]
        done.update(powers)
        plan.append((powers, dft, pow(o, q - 2, q), targets))
    rows = []
    for om in omegas:
        s = sum(om[j] * om[jstar[j]] * inv_size[j] for j in range(k)) % q
        deg_sq = group.order * pow(s, q - 2, q) % q
        cands = [d for d in range(1, math.isqrt(group.order) + 1)
                 if d * d % q == deg_sq]
        assert len(cands) == 1, f"degree not uniquely determined: {cands}"
        deg = cands[0]
        class_vals = [deg * om[j] * inv_size[j] % q for j in range(k)]
        values = [None] * k
        for powers, dft, o_inv, targets in plan:
            series = [class_vals[c] for c in powers]
            mults = [o_inv * sum(map(mul, series, row)) % q for row in dft]
            assert max(mults) <= deg, "root-of-unity multiplicity out of range"
            assert sum(mults) == deg
            nonzero = [(l, x) for l, x in enumerate(mults) if x]
            for c, oc, step in targets:
                num = [0] * oc
                for l, x in nonzero:
                    num[l * step % oc] += x
                values[c] = _cyclo(oc, num)
        rows.append(values)
    return _finish(group, rows)


# -- closed forms ---------------------------------------------------------


def _linear_exponents(group: FiniteGroup, members) -> tuple:
    """(e, column, rows) for the abelian subgroup A with element ids
    `members`, e = exp(A): a row of ints per character lambda of A, with
    lambda(a) = zeta_e^row[column[a]].  A grows from {1} by one element g
    at a time, largest order first.  For the least m > 0 with g^m in the
    part H so far, lambda on H has m extensions lambda(h g^j) = lambda(h)
    zeta_e^(j w), with m w = v mod e for lambda(g^m) = zeta_e^v: as o(g)
    divides e, m divides v, and w = v/m + t e/m for t < m."""
    cls, table = group.classes(), group.cayley_table()
    order = {x: len(cls.powers[cls.class_of[x]]) for x in members}
    e = math.lcm(*order.values())
    elems, pos, rows = [0], {0: 0}, [[0]]
    for g in sorted(members, key=order.__getitem__, reverse=True):
        if g in pos:
            continue
        powers, power = [0], g  # g^j for j < m
        while power not in pos:
            powers.append(power)
            power = table[power][g]
        m, at = len(powers), pos[power]
        elems = [table[x][h] for x in powers for h in elems]
        pos = {x: i for i, x in enumerate(elems)}
        rows = [[(x + j * w) % e for j in range(m) for x in lam]
                for lam in rows for w in range(lam[at] // m, e, e // m)]
    return e, pos, rows


def abelian_table(group: FiniteGroup) -> CharTable:
    """The table of an abelian group, one linear character per row."""
    reps = group.classes().representatives
    e, column, rows = _linear_exponents(group, reps)
    at = [column[r] for r in reps]
    roots = [CycloNum.root_of_unity(e, x) for x in range(e)]
    return _finish(group, [[roots[row[i]] for i in at] for row in rows])


def inversion_table(group: FiniteGroup) -> CharTable:
    """The table of A x| <t> with t inverting the abelian A (the kernel of an
    inversion group, the rotations of a dihedral group); each a t is an
    involution.  A real lambda in Irr(A) gives a t^i -> (+-1)^i lambda(a),
    and each other pair {lambda, lambda^-1} lambda + lambda^-1 on A and 0
    off A (Serre, Linear Representations of Finite Groups, 5.3)."""
    kernel = group.meta.get("kernel") or group.subgroup_closure([group.meta["rotation"]])
    t = next(x for x in range(group.order) if x not in kernel)
    e, column, lams = _linear_exponents(group, kernel)
    # (column of a, whether the class is off A) for the class of a or a t
    at = [(column[r], False) if r in kernel else (column[group.mul(r, t)], True)
          for r in group.classes().representatives]
    roots = [CycloNum.root_of_unity(e, x) for x in range(e)]
    cosines = [root + roots[-x] for x, root in enumerate(roots)]  # zeta^x + zeta^-x
    rows, zero = [], CycloNum.rational(0)
    for lam in lams:
        inverse = [-x % e for x in lam]
        if inverse == lam:
            rows.append([roots[lam[i]] for i, _ in at])
            rows.append([-roots[lam[i]] if off else roots[lam[i]] for i, off in at])
        elif lam < inverse:  # one of each pair
            rows.append([zero if off else cosines[lam[i]] for i, off in at])
    return _finish(group, rows)


def affine_table(group: FiniteGroup) -> CharTable:
    q = group.family["q"]
    cls = group.classes()
    assert len(cls.classes) == q
    decomp = group.meta["decomp"]
    kernel = group.meta["kernel"]
    rows = [
        [CycloNum.root_of_unity(q - 1, j * decomp[rep][0]) for rep in cls.representatives]
        for j in range(q - 1)
    ]
    big = []
    for rep in cls.representatives:
        if rep == 0:
            big.append(CycloNum.rational(q - 1))
        elif rep in kernel:
            big.append(CycloNum.rational(-1))
        else:
            big.append(CycloNum.rational(0))
    rows.append(big)
    return _finish(group, rows)


def product_table(group: FiniteGroup) -> CharTable:
    left, right = group.meta["factors"]
    tl, tr = character_table(left), character_table(right)
    pair_of = group.meta["pair_of"]
    lcls, rcls = left.classes(), right.classes()
    pairs = []
    for rep in group.classes().representatives:
        i, j = pair_of[rep]
        pairs.append((lcls.class_of[i], rcls.class_of[j]))
    rows = [[x.values[i] * y.values[j] for i, j in pairs]
            for x in tl.characters for y in tr.characters]
    return _finish(group, rows)


def induce_character(group: FiniteGroup, sub_group: FiniteGroup,
                     embed: list, psi: Character) -> Character:
    """Character of `group` induced from `psi` on a subgroup.

    `sub_group` and `embed` are as returned by subgroup_as_group.  The
    value at x is the average of psi over the conjugates of x landing in
    the subgroup.
    """
    inv_embed = {gid: hid for hid, gid in enumerate(embed)}
    hcls = sub_group.classes()
    values = []
    for rep in group.classes().representatives:
        total = CycloNum.rational(0)
        for t in range(group.order):
            y = group.mul(group.mul(group.inv(t), rep), t)
            hid = inv_embed.get(y)
            if hid is not None:
                total = total + psi.values[hcls.class_of[hid]]
        values.append(total * Fraction(1, sub_group.order))
    return Character(group, values)


def frobenius_table(group: FiniteGroup) -> CharTable:
    """Table of a Frobenius group from its kernel and quotient.

    Characters are the inflations from G/N plus one induced character
    per orbit of nontrivial kernel characters under conjugation.
    """
    kernel = group.frobenius_kernel()
    if kernel is None:
        raise ValueError("group has no Frobenius kernel")
    cls = group.classes()

    qgroup, to_q = group.quotient(kernel)
    qcls = qgroup.classes()
    rows = [[ch.values[qcls.class_of[to_q[rep]]] for rep in cls.representatives]
            for ch in character_table(qgroup).characters]

    ngroup, embed = group.subgroup_as_group(kernel)
    inv_embed = {gid: hid for hid, gid in enumerate(embed)}
    ncls = ngroup.classes()
    seen = set()
    for psi in character_table(ngroup).characters:
        if all(v.as_rational() == 1 for v in psi.values):
            continue
        sig = tuple(psi.values[ncls.class_of[h]] for h in range(ngroup.order))
        if sig in seen:
            continue
        for t in range(group.order):
            ti = group.inv(t)
            conj = tuple(
                sig[inv_embed[group.mul(group.mul(t, embed[h]), ti)]]
                for h in range(ngroup.order)
            )
            seen.add(conj)
        ind = induce_character(group, ngroup, embed, psi)
        assert ind.inner(ind).as_rational() == 1, "induced character not irreducible"
        rows.append(ind.values)
    return _finish(group, rows)


_CLOSED_FORMS = {
    "cyclic": abelian_table,
    "dihedral": inversion_table,
    "inversion": inversion_table,
    "affine": affine_table,
    "product": product_table,
}


def derived_table(parent: CharTable, group: FiniteGroup, lift, kernel) -> CharTable:
    """The table of `group`, read off the table of a group G it is a
    quotient or a direct factor of, with no character computed afresh.

    `kernel` is a normal subgroup K of G, and `lift[x]` is an element of G
    for each element x of `group`, such that x -> lift[x] K is an
    isomorphism onto G/K: coset representatives for G/K, or the embedding
    of M for K = H when G = M x H.  Irr(G/K) is the set of characters of
    G with K in their kernel (Isaacs, Lemma 2.22), each read through the
    lift.  The result is kept as the group's "auto" table.
    """
    key = ("chartable", "auto")
    if key not in group._cache:
        kernel = frozenset(kernel)
        parent_class = parent.classes.class_of
        at = [parent_class[lift[rep]] for rep in group.classes().representatives]
        rows = [[ch.values[c] for c in at] for ch in parent.characters if kernel <= ch.kernel]
        group._cache[key] = _finish(group, rows)
    return group._cache[key]


def character_table(group: FiniteGroup, method: str = "auto") -> CharTable:
    key = ("chartable", method)
    if key in group._cache:
        return group._cache[key]
    fam = (group.family or {}).get("family")
    closed = _CLOSED_FORMS.get(fam)
    if fam == "product" and "factors" not in group.meta:
        closed = None
    if method == "auto" and closed is not None:
        table = closed(group)
    elif method == "auto" and group.is_abelian():
        table = abelian_table(group)
    elif method in ("auto", "generic"):
        # with no closed form, "auto" is Dixon's table too: one run for both
        shared = ("chartable", "generic")
        table = group._cache.get(shared) or dixon_table(group)
        group._cache[shared] = table
    elif method == "frobenius":
        table = frobenius_table(group)
    elif method == "closed":
        if closed is None:
            raise ValueError(f"no closed form for family {fam!r}")
        table = closed(group)
    else:
        raise ValueError(f"unknown method {method!r}")
    group._cache[key] = table
    return table
