"""Block structure of the p-adic group algebra.

Splits the complex characters of a finite group into orbits under the
decomposition group at p and attaches to each orbit the local invariants
of its center field: residue degree, ramification index and the
valuation of the different.  Everything is subgroup arithmetic inside
(Z/mZ)^x; no p-adic approximations are involved.

On top of the block data the module decides integrality of the central
idempotents, computes central conductor exponents, and classifies
(group, normal subgroup, prime) triples as hybrid; `dt` adds weakly hybrid.
Blocks, certificates and conductors read only character data and take a
table; the hybrid test checks normality, so it takes the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .chartable import CharTable, character_table
from .citations import register
from .cyclotomic import is_prime, multiplicative_order, padic_valuation
from .groups import FiniteGroup

HYBRID_CRITERION = register(
    "hybrid-criterion",
    "Z_p[G] is N-hybrid if and only if every irreducible character whose "
    "kernel does not contain N satisfies v_p(chi(1)) = v_p(|G|).",
)


def decomposition_group(p: int, m: int):
    """Decomposition subgroup of (Z/mZ)^x for the prime p.

    Returns (members, inertia, frobenius): the subgroup fixing the
    p-adic place, its inertia subgroup {u : u = 1 mod m/p^a}, and a
    Frobenius lift w with w = p mod m/p^a and w = 1 mod p^a.
    """
    if m == 1:
        return (1,), frozenset([1]), 1
    a = padic_valuation(m, p)
    pa = p**a
    mprime = m // pa
    inertia = frozenset(
        u % m for u in range(1, m + 1, mprime) if math.gcd(u, m) == 1
    )
    assert len(inertia) == pa - pa // p if a else len(inertia) == 1
    if mprime == 1:
        w, order = 1, 1
    else:
        order = multiplicative_order(p, mprime)
        if pa == 1:
            w = p % m
        else:
            # CRT: w = p mod mprime, w = 1 mod pa
            w = (p + mprime * ((1 - p) * pow(mprime, -1, pa) % pa)) % m
        assert w % mprime == p % mprime and w % pa == 1 % pa
    members = {u * pow(w, j, m) % m for u in inertia for j in range(order)}
    assert len(members) == len(inertia) * order
    return tuple(sorted(members)), inertia, w


def different_valuation(p: int, conductor: int, stabilizer: frozenset) -> int:
    """Valuation of the different of the stabilizer's fixed field.

    The field is the subfield of the p-adic cyclotomic field of the
    given conductor fixed by `stabilizer`, a subgroup of the
    decomposition group.  The valuation is normalized to the fixed
    field's own prime and computed from the unit filtration
    {u = 1 mod p^c} of the inertia image in D/S.
    """
    members, inertia, _ = decomposition_group(p, conductor)
    stab = set(stabilizer)
    assert stab <= set(members) and 1 in stab
    e_ram = len(inertia) // len(inertia & stab)
    a = padic_valuation(conductor, p)
    total = 0
    for c in range(a):
        layer = [u for u in inertia if (u - 1) % p**c == 0]
        image = len(layer) // sum(1 for u in layer if u in stab)
        total += e_ram - e_ram // image
    return total


@dataclass(frozen=True)
class PadicBlock:
    """One simple factor of the p-adic group algebra.

    char_indices lists the member characters (an orbit under the
    decomposition group), degree is the common character degree,
    and the three local invariants describe the center field.
    schur_index and matrix_size are None when not certified.
    """

    p: int
    char_indices: tuple
    degree: int
    residue_degree: int
    ram_index: int
    different_val: int
    idempotent_integral: bool
    schur_index: Optional[int]
    matrix_size: Optional[int]

    def to_jsonable(self):
        return {
            "p": self.p,
            "characters": list(self.char_indices),
            "degree": self.degree,
            "residue_degree": self.residue_degree,
            "ramification_index": self.ram_index,
            "different_valuation": self.different_val,
            "idempotent_integral": self.idempotent_integral,
            "schur_index": self.schur_index if self.schur_index else "unknown",
            "matrix_size": self.matrix_size
            if self.matrix_size
            else "unknown",
        }


def padic_blocks(table: CharTable, p: int):
    """Galois orbits of characters over the p-adic rationals.

    Blocks are listed by their smallest character index, so the order
    is determined by the canonical character order of the table.  They
    are computed once per (table, p) and kept on the table; each call
    returns a new list.  ValueError if p is not a prime.
    """
    if p not in table._blocks:
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        table._blocks[p] = tuple(_padic_blocks(table, p))
    return list(table._blocks[p])


def _padic_blocks(table: CharTable, p: int):
    chars = table.characters
    v_group = padic_valuation(table.order, p)
    assigned = [False] * len(chars)
    blocks = []
    for start, ch in enumerate(chars):
        if assigned[start]:
            continue
        m = ch.field_conductor
        members, inertia, _ = decomposition_group(p, m)
        moved = {k % m: j for k, j in table.galois_orbit(start).items()}
        orbit = {moved[u % m] for u in members}
        stab = {u for u in members if moved[u % m] == start}
        assert len(orbit) * len(stab) == len(members)
        orbit_ids = tuple(sorted(orbit))
        e_ram = len(inertia) // len(inertia & stab)
        f = len(orbit) // e_ram
        d = different_valuation(p, m, frozenset(stab))
        assert all(chars[j].degree == ch.degree for j in orbit_ids)
        assert all(chars[j].kernel == ch.kernel for j in orbit_ids)
        integral = padic_valuation(ch.degree, p) == v_group
        if integral:
            # integral central idempotent forces an unramified Q_p center
            assert e_ram == 1 and d == 0
        blocks.append(
            PadicBlock(
                p=p,
                char_indices=orbit_ids,
                degree=ch.degree,
                residue_degree=f,
                ram_index=e_ram,
                different_val=d,
                idempotent_integral=integral,
                schur_index=1 if integral else None,
                matrix_size=ch.degree if integral else None,
            )
        )
        for j in orbit_ids:
            assigned[j] = True
    assert sum(len(b.char_indices) for b in blocks) == len(chars)
    return blocks


def idempotent_certificate(table: CharTable, block: PadicBlock) -> dict:
    """Certificate for integrality of a block's central idempotent.

    The valuation criterion v_p(chi(1)) = v_p(|G|) is cross-checked
    against vanishing of the block characters on all p-singular
    classes; the two must agree.
    """
    singular = sorted(table.classes.p_singular_classes(block.p))
    vanishes = all(
        not table.characters[i].values[c]
        for i in block.char_indices
        for c in singular
    )
    assert vanishes == block.idempotent_integral
    return {
        "integral": block.idempotent_integral,
        "degree_valuation": padic_valuation(block.degree, block.p),
        "group_valuation": padic_valuation(table.order, block.p),
        "p_singular_classes": singular,
        "vanishes_on_p_singular": vanishes,
    }


def central_conductor(table: CharTable, p: int):
    """Exponents of the central conductor, one per block.

    Returns [(block, exponent)] where p^exponent scales the block
    component of the center of the maximal order into the center of
    the group ring, and conversely.  Exponent 0 happens exactly for
    the blocks with integral idempotent.
    """
    blocks = padic_blocks(table, p)
    v_group = padic_valuation(table.order, p)
    out = []
    for b in blocks:
        expn = b.ram_index * (v_group - padic_valuation(b.degree, p)) - b.different_val
        assert expn >= 0
        assert (expn == 0) == b.idempotent_integral
        out.append((b, expn))
    return out


@dataclass(frozen=True)
class HybridReport:
    p: int
    normal_ids: frozenset
    is_hybrid: bool
    witness: Optional[int]
    block_split: tuple
    blocks: tuple
    quotient_order_desc: Optional[str]

    def to_jsonable(self):
        return {
            "p": self.p,
            "normal_order": len(self.normal_ids),
            "is_hybrid": self.is_hybrid,
            "witness_character": self.witness,
            "blocks_killed_by_quotient": list(self.block_split),
            "blocks": [b.to_jsonable() for b in self.blocks],
            "decomposition": self.quotient_order_desc,
        }


def hybrid_report(group: FiniteGroup, normal_ids, p: int) -> HybridReport:
    """Decide whether the p-adic group ring is hybrid for the subgroup.

    The ring is N-hybrid when every character not trivial on N lies in
    a block with integral idempotent; the group ring then splits as
    the quotient group ring plus those matrix-ring blocks.  On failure
    `witness` is the first character violating the criterion.
    """
    normal_ids = frozenset(normal_ids)
    group._require_normal(normal_ids)
    table = character_table(group)
    blocks = padic_blocks(table, p)
    split = []
    hybrid = True
    witness = None
    for bi, b in enumerate(blocks):
        ch = table.characters[b.char_indices[0]]
        if normal_ids <= ch.kernel:
            continue
        split.append(bi)
        if not b.idempotent_integral:
            hybrid = False
            if witness is None:
                witness = b.char_indices[0]
    desc = None
    if hybrid:
        assert len(normal_ids) % p != 0 or len(normal_ids) == 1
        parts = [f"Z_{p}[G/N]"]
        for bi in split:
            b = blocks[bi]
            ring = f"Z_{p}" if b.residue_degree == 1 else f"W_{b.residue_degree}(Z_{p})"
            parts.append(f"M_{b.degree}x{b.degree}({ring})")
        desc = " (+) ".join(parts)
    return HybridReport(
        p=p,
        normal_ids=normal_ids,
        is_hybrid=hybrid,
        witness=witness,
        block_split=tuple(split),
        blocks=tuple(blocks),
        quotient_order_desc=desc,
    )
