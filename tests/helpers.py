"""Reference checks shared by the tests, kept out of the library API."""

import math
from fractions import Fraction

from holring.chartable import character_table
from holring.cyclotomic import CycloNum
from holring.groupring import CentralElement, GroupRingElem, GroupRingMatrix
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
