"""Reference checks shared by the tests, kept out of the library API."""

import itertools
import math
from fractions import Fraction

from holring.chartable import character_table
from holring.cyclotomic import CycloNum, prime_divisors
from holring.groupring import CentralElement, GroupRingElem, GroupRingMatrix
from holring.groups import FiniteGroup, _closure
from holring.rednorm import ReducedCharPoly, _newton_coeffs


def cyclo_from_text(m: int, text: str) -> CycloNum:
    """Parse `CycloNum.to_text` output at conductor m: a sum of terms
    c, z, -z, c*z^j with rational c, where z is zeta_m."""
    out = CycloNum(m, [0])
    for term in text.strip().replace("- ", "+ -").replace(" ", "").split("+"):
        if not term:
            continue
        if "z" in term:
            head, _, tail = term.partition("z")
            j = int(tail[1:]) if tail.startswith("^") else 1
            head = head.rstrip("*")
            c = Fraction(head + "1" if head in ("", "-") else head)
        else:
            j, c = 0, Fraction(term)
        out = out + CycloNum(m, [0] * j + [c])
    return out


def is_galois_equivariant(z) -> bool:
    """The values of the central element z lie in Q(zeta_exp(G)) and
    commute with the Galois action that permutes the characters:
    sigma_k(z_i) = z_j whenever sigma_k(chi_i) = chi_j.  Each value is
    compared at its minimal conductor, which divides exp(G) exactly when
    the value lies in Q(zeta_exp(G))."""
    values = [v.minimal() for v in z.values]
    exponent = math.lcm(*map(len, z.table.classes.powers))
    if any(exponent % v.m for v in values):
        return False
    return all(
        values[i].galois(k) == values[j]
        for i in range(len(values))
        for k, j in z.table.galois_orbit(i).items()
    )


def class_sum_generators(nr) -> list:
    """The generators nr z_c of the norm ideal, one per class sum z_c, by the
    route through character values: each class sum as a central element, one
    central product with nr, and one conversion back to class coordinates
    per product.  The reference for the structure-constant route."""
    k = len(nr.table.characters)
    class_sums = [
        CentralElement.from_class_coords(nr.group, [1 if c == j else 0 for j in range(k)])
        for c in range(k)
    ]
    return [(nr * z).to_class_coords() for z in class_sums]


# -- the per-character route: the reference for the orbit route ------------


def reference_class_coords(z) -> list:
    """Class coordinates of the central element z as Fractions, each a
    CycloNum sum over every character, chi(1) z_chi chi(c^-1) / |G|;
    ValueError if one is not rational."""
    g = z.group
    cls = g.classes()
    coords = []
    for c in range(len(cls.classes)):
        cinv = cls.power_class(c, -1)
        total = CycloNum.rational(0)
        for v, ch in zip(z.values, z.table.characters):
            if v:
                total = total + v * ch.degree * ch.values[cinv]
        coords.append((total * Fraction(1, g.order)).as_rational())
    if None in coords:
        raise ValueError("central element is not rational")
    return coords


def reference_char_polys(H):
    """(reduced char polys, powers H^1..H^(d-1)): power traces and Newton
    in every character block, each trace a CycloNum sum over the classes."""
    table = character_table(H.group)
    dmax = max(ch.degree for ch in table.characters) * H.n
    powers, collapsed = [], []
    power = H
    for k in range(1, dmax + 1):
        collapsed.append(power.trace().class_collapse())
        if k < dmax:
            powers.append(power)
            power = power * H
    polys = []
    for ch in table.characters:
        d = ch.degree * H.n
        traces = []
        for row in collapsed[:d]:
            total = CycloNum.rational(0)
            for s, v in zip(row, ch.values):
                if s:
                    total = total + v * s
            traces.append(total)
        polys.append(ReducedCharPoly(ch, H.n, _newton_coeffs(traces, d)))
    return polys, powers


def reference_adjoint_layers(group, polys) -> list:
    """Central coefficient C_j of H^(j-1) in adj(H) = sum_j C_j H^(j-1),
    from the polynomials of every character, read into Q[G] by
    `reference_class_coords`."""
    dmax = max(p.degree for p in polys)
    class_of = group.classes().class_of
    layers = []
    for j in range(1, dmax + 1):
        values = [p.coeffs[j] * (-1) ** (p.degree + 1) if j <= p.degree else 0 for p in polys]
        coords = reference_class_coords(CentralElement(group, values))
        layers.append(GroupRingElem(group, [coords[c] for c in class_of]))
    return layers


def reference_adjoint_and_norm(H):
    """(adj(H), nr(H), reduced char polys) by the per-character route."""
    polys, powers = reference_char_polys(H)
    nr = CentralElement(H.group, [p.norm_value() for p in polys])
    layers = reference_adjoint_layers(H.group, polys)
    adj = GroupRingMatrix.identity(H.group, H.n) * layers[0]
    for layer, power in zip(layers[1:], powers):
        adj = adj + power * layer
    return adj, nr, polys


# -- left multiplication as one whole matrix: the reference for regular_det --


def regular_matrix(h):
    """Left multiplication by h on Q[G]^n in the element basis."""
    g, n = h.group, h.n
    dim = g.order * n
    m = [[0] * dim for _ in range(dim)]
    for b in range(n):
        for a in range(n):
            coeffs = h.rows[a][b].coeffs
            for x in range(g.order):
                col = b * g.order + x
                for k, c in enumerate(coeffs):
                    if c:
                        m[a * g.order + g.mul(k, x)][col] += c
    return m


def reference_det(m):
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reference_regular_det(h) -> Fraction:
    """`regular_det(h)` from the whole |G| x |G| matrix of left
    multiplication by h's integer numerators, over den^|G|."""
    g = h.group
    num = GroupRingMatrix(g, [[GroupRingElem(g, list(h.num))]])
    return Fraction(reference_det(regular_matrix(num)), h.den**g.order)


# -- the subgroup lattice by brute force: the reference for groups ---------


def reference_normal_subgroups(g) -> list:
    """Element-id sets of all normal subgroups, sorted by (order, ids): the
    normal closures of single classes, joined by all-pairs closure passes
    until no new subgroup appears."""
    found = {g.subgroup_closure(c) for c in g.classes().classes}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(found, key=sorted), 2):
            if a <= b or b <= a:
                continue
            join = g.subgroup_closure(a | b)
            if join not in found:
                found.add(join)
                changed = True
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def cyclic_product_generators(orders, rng=None) -> list:
    """Generators of C_n1 x C_n2 x ..., one cycle per factor on points of
    its own, with the points shuffled by `rng` if given."""
    degree = sum(orders)
    points = list(range(degree))
    if rng is not None:
        rng.shuffle(points)
    gens, start = [], 0
    for n in orders:
        perm = list(range(degree))
        for j in range(n):
            perm[points[start + j]] = points[start + (j + 1) % n]
        gens.append(perm)
        start += n
    return gens


def reference_odd_part_inverted(g):
    """The odd-order elements A when G = A extended by an inverting
    involution, else None: A checked for closure with |G|^2 / 4 products,
    and a t outside A checked to invert each a by the group law."""
    if g.order % 2 != 0:
        return None
    m = g.order // 2
    if m % 2 == 0:
        return None
    odd = [x for x in range(g.order) if g.element_order(x) % 2 == 1]
    if len(odd) != m:
        return None
    odd_set = set(odd)
    outside = [t for t in range(g.order) if t not in odd_set]
    if any(g.element_order(t) != 2 for t in outside):
        return None
    for x in odd:
        for y in odd:
            if g.mul(x, y) not in odd_set:
                return None
    t = outside[0]
    for x in odd:
        if g.mul(g.mul(t, x), t) != g.inv(x):
            return None
    return odd_set


def reference_frobenius_kernel(g):
    """Element ids of the Frobenius kernel, or None: the proper nontrivial
    normal subgroups N with C_G(n) in N for every n != 1 in N, searched
    with no shortcut on the centre."""
    found = [
        n for n in reference_normal_subgroups(g)[1:-1]
        if all(g.centralizer(x) <= n for x in n if x)
    ]
    assert len(found) <= 1
    return found[0] if found else None


def reference_commutator_subgroup(g) -> frozenset:
    """Element ids of G', the closure of all |G|^2 commutators a^-1 b^-1 a b."""
    comms = {
        g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
        for a in range(g.order) for b in range(g.order)
    }
    return g.subgroup_closure(comms)


def abelian_invariants(g) -> list:
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
            ratio, e = counts[i] // counts[i - 1], 0
            while ratio > 1:  # ratio is a power of p
                ratio //= p
                e += 1
            mults.append(e)
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


def reference_inversion(orders):
    """A x| C_2 with the C_2 acting by inversion, built as the closure of the
    inversion and all |A| translations, with the translations' ids as
    meta["kernel"]: the construction that `groups.inversion` replaces with
    one translation per cyclic factor."""
    size = math.prod(orders)
    tuples = list(itertools.product(*[range(n) for n in orders]))
    tidx = {t: i for i, t in enumerate(tuples)}

    def translation(t):
        perm = [tidx[tuple((a + b) % n for a, b, n in zip(s, t, orders))] for s in tuples]
        return tuple(perm + [size, size + 1])

    inv_perm = tuple([tidx[tuple(-a % n for a, n in zip(s, orders))] for s in tuples]
                     + [size + 1, size])
    g = FiniteGroup(_closure([inv_perm] + [translation(t) for t in tuples]))
    g.meta["kernel"] = frozenset(g.index[translation(t)] for t in tuples)
    return g


def _structured_matrices(g: FiniteGroup) -> list:
    """1x1 witnesses: +-g, 1+g, cyclic sums, element times cyclic sum."""
    out = []
    one = GroupRingElem.one(g)
    for x in range(g.order):
        b = GroupRingElem.basis(g, x)
        out.append(b)
        out.append(-b)
        out.append(one + b)
    sums = {}
    for x in range(g.order):
        ordx = g.element_order(x)
        if ordx == 1:
            continue
        acc = GroupRingElem.zero(g)
        y = 0
        for _ in range(ordx):
            acc = acc + GroupRingElem.basis(g, y)
            y = g.mul(y, x)
        if acc not in sums:
            sums[acc] = x
            out.append(acc)
    if g.order <= 32:
        for x in range(g.order):
            b = GroupRingElem.basis(g, x)
            for acc in sums:
                out.append(b * acc)
    return [GroupRingMatrix(g, [[e]]) for e in out]
