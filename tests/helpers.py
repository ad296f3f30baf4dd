"""Reference checks shared by the tests, kept out of the library API."""

from fractions import Fraction

from holring.cyclotomic import CycloNum
from holring.groupring import CentralElement


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
    """The values of the central element z commute with the Galois action
    that permutes the characters: sigma_k(z_i) = z_j whenever
    sigma_k(chi_i) = chi_j.  Each value is compared at its minimal
    conductor, which divides exp(G) for a value in Q(zeta_exp(G))."""
    values = [v.minimal() for v in z.values]
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
