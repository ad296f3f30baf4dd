"""Deduction engine for the torsion group DT of p-adic group rings.

DT here is the torsion subgroup of the relative K-group attached to a
p-adic group ring inside its maximal order.  The engine combines a
small base of known structure facts with functorial rules: quotient
maps are surjective on DT, restriction to an order-p subgroup is
surjective, and a weakly hybrid quotient induces an isomorphism.
Answers carry the labels of every statement used; "unknown" is a
legitimate verdict and is never silently strengthened.  The weak-hybrid
test lives here too, as it asks the engine for DT of a direct factor.

Every query and test takes the group, as the rules need its normal
subgroups, quotients and direct factors.  The two quotient walks read only
the normal p'-subgroups, built without the rest of the lattice.  A
quotient G/N that a rule recurses into is built once per G and N and kept
by G, and its character table is derived from G's by inflation, not
recomputed, and kept by the quotient; the direct factors that the
weak-hybrid test hands to the engine get theirs by restriction the same
way (`chartable.derived_table`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .blocks import HYBRID_CRITERION, hybrid_report
from .chartable import character_table, derived_table
from .citations import register
from .cyclotomic import padic_valuation
from .groups import FiniteGroup
from .linalg import is_prime

DT_MAXIMAL = register(
    "dt-maximal-trivial",
    "If p does not divide |G| then Z_p[G] is a maximal order and its "
    "DT group is trivial.",
)
DT_CYCLIC_PRIME = register(
    "dt-cyclic-prime",
    "DT(Z_p[C_p]) is isomorphic to the multiplicative group of the "
    "field with p elements, a cyclic group of order p - 1.",
)
DT_CYCLIC_FOUR = register(
    "dt-cyclic-four",
    "DT(Z_2[C_4]) has order 2.",
)
DT_KLEIN_FOUR = register(
    "dt-klein-four",
    "DT(Z_2[C_2 x C_2]) has order 2.",
)
DT_INVERSION = register(
    "dt-inversion-trivial",
    "If A is abelian of odd order and an involution acts on A by "
    "inversion then DT(Z_2[A x| C_2]) is trivial; this covers C_2 "
    "and the dihedral groups of twice-odd order.",
)
DT_LOWER_BOUND = register(
    "dt-nonmaximal-lower-bound",
    "If DT(Z_p[G]) is trivial then either Z_p[G] is maximal or p = 2 "
    "and v_2(|G|) = 1.",
)
DT_QUOT_SURJECTIVE = register(
    "dt-quotient-surjective",
    "For every normal subgroup N the induced map DT(Z_p[G]) -> "
    "DT(Z_p[G/N]) is surjective.",
)
DT_WH_QUOT_ISO = register(
    "dt-weak-hybrid-quotient-iso",
    "If Z_p[G] is weakly N-hybrid then DT(Z_p[G]) is isomorphic to "
    "DT(Z_p[G/N]).",
)
DT_MAXIMALITY = register(
    "dt-maximality-consequence",
    "If DT(Z_p[G]) is a p-group then Z_p[G] is maximal or p = 2; if "
    "it is trivial then Z_p[G] is maximal or p = 2 and v_2(|G|) = 1.",
)

HYBRID_IMPLIES_WEAKLY = register(
    "hybrid-implies-weakly",
    "An N-hybrid p-adic group ring is in particular weakly N-hybrid.",
)
WEAK_HYBRID_COPRIME = register(
    "weak-hybrid-coprime",
    "If Z_p[G] is weakly N-hybrid then p does not divide |N|.",
)
WEAK_HYBRID_PRODUCT = register(
    "weak-hybrid-product",
    "If G = M x H where Z_p[M] is N-hybrid, every irreducible character "
    "of M not trivial on N spans a matrix-ring block over Z_p, and "
    "DT(Z_p[H]) is trivial, then Z_p[G] is weakly (N x 1)-hybrid.",
)
WEAK_HYBRID_OBSTRUCTION = register(
    "weak-hybrid-product-obstruction",
    "In the product situation above the non-N part of Z_p[M x H] is a "
    "direct sum of matrix rings over Z_p[H], so a nontrivial DT(Z_p[H]) "
    "forces DT of that part to be nontrivial and Z_p[M x H] is not "
    "weakly (N x 1)-hybrid.",
)


class DTAssertion(NamedTuple):
    """Engine verdict about DT(Z_p[G]).

    kind is one of trivial / cyclic / order / nontrivial /
    p-part-nontrivial / unknown, with `size` carrying the parameter
    of cyclic(k) and order(k).
    """

    kind: str
    size: Optional[int]
    citations: tuple
    derivation: tuple

    def triviality(self) -> str:
        # collapse to a three-valued answer
        if self.kind == "trivial":
            return "trivial"
        if self.kind in ("cyclic", "order"):
            return "trivial" if self.size == 1 else "nontrivial"
        if self.kind in ("nontrivial", "p-part-nontrivial"):
            return "nontrivial"
        return "unknown"

    def to_jsonable(self):
        out = {
            "assertion": self.kind,
            "citations": list(self.citations),
            "derivation": list(self.derivation),
        }
        if self.size is not None:
            out["size"] = self.size
        return out


def _is_cyclic(g: FiniteGroup) -> bool:
    return g.exponent() == g.order


def _odd_part_inverted(g: FiniteGroup):
    """The odd-order elements A when G = A extended by an inverting
    involution, else None, from element orders alone.  For |G| = 2m, m
    odd, an involution is m transpositions of the regular representation,
    whose sign has a kernel of order m holding each odd-order element (a
    square): that kernel is A.  For t and ta outside A, t a t = a^-1 says
    (ta)^2 = 1, so an involution t inverts A iff all else has order 2."""
    if g.order % 4 != 2:
        return None
    orders = [g.element_order(x) for x in range(g.order)]
    if any(o % 2 == 0 and o != 2 for o in orders):
        return None
    return {x for x, o in enumerate(orders) if o % 2}


# (name, the prime it holds at or None for every p, test on (G, p), kind,
# size at p, citation, source)
_FACTS = (
    ("cyclic-of-order-p", None, lambda g, p: g.order == p and _is_cyclic(g),
     "cyclic", lambda p: p - 1, DT_CYCLIC_PRIME,
     "torsion classification for the cyclic group of prime order"),
    ("cyclic-4", 2, lambda g, p: g.order == 4 and _is_cyclic(g),
     "order", lambda p: 2, DT_CYCLIC_FOUR,
     "computation for the cyclic group of order 4 at p = 2"),
    ("klein-four", 2, lambda g, p: g.order == 4 and g.exponent() == 2,
     "order", lambda p: 2, DT_KLEIN_FOUR,
     "computation for the Klein four-group at p = 2"),
    ("odd-abelian-by-inversion", 2, lambda g, p: _odd_part_inverted(g) is not None,
     "trivial", lambda p: None, DT_INVERSION,
     "odd abelian group extended by an inverting involution"),
)


def _match_fact(group: FiniteGroup, p: int):
    for name, prime, holds, kind, size, citation, source in _FACTS:
        if prime not in (None, p) or not holds(group, p):
            continue
        return DTAssertion(kind, size(p), (citation,), (f"fact[{name}]: {source}",))
    return None


def _describe(group: FiniteGroup) -> str:
    fam = group.family["family"] if group.family else "group"
    return f"{fam}|{group.order}"


def dt_query(group: FiniteGroup, p: int, depth: int = 16) -> DTAssertion:
    """Strongest derivable assertion about DT(Z_p[G]).

    Resolution order: maximality, explicit facts, transfer along a
    weakly hybrid quotient, the non-maximality lower bound, quotient
    surjectivity.  depth caps the recursion through quotients.  ValueError
    if p is not a prime.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    name = _describe(group)
    if group.order % p != 0:
        return DTAssertion(
            "trivial",
            None,
            (DT_MAXIMAL,),
            (f"{name}: p = {p} does not divide |G| = {group.order}",),
        )
    fact = _match_fact(group, p)
    if fact is not None:
        return fact
    v = padic_valuation(group.order, p)
    if depth > 0:
        found = _via_weak_hybrid_quotient(group, p, depth, name)
        if found is not None:
            return found
    if p > 2 or v >= 2:
        return DTAssertion(
            "nontrivial",
            None,
            (DT_LOWER_BOUND,),
            (
                f"{name}: p = {p} divides |G| = {group.order} and "
                f"(p, v_p(|G|)) = ({p}, {v}) is not (2, 1)",
            ),
        )
    if depth > 0:
        found = _via_quotient_surjectivity(group, p, depth, name)
        if found is not None:
            return found
    return DTAssertion(
        "unknown", None, (), (f"{name}: no rule applies",)
    )


def _quotient(group: FiniteGroup, sub) -> FiniteGroup:
    """G/N, with its table derived from G's table."""
    quot, to_q = group.quotient(sub)
    lift = dict(zip(to_q, range(len(to_q))))
    derived_table(character_table(group), quot, lift, sub)
    return quot


class WeaklyHybridReport(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown"
    citations: tuple
    detail: str

    def to_jsonable(self):
        return {
            "verdict": self.verdict,
            "citations": list(self.citations),
            "detail": self.detail,
        }


def _product_decompositions(group, normal_ids):
    # internal direct products G = M x H with N <= M, both factors normal,
    # in the lattice's (|M|, ids) order; the trivial split retries G itself
    subs = group.normal_subgroups()
    return (
        (m_sub, h_sub) for m_sub in subs if normal_ids <= m_sub for h_sub in subs
        if len(h_sub) > 1 and len(m_sub) * len(h_sub) == group.order and len(m_sub & h_sub) == 1
    )


def weakly_hybrid(group: FiniteGroup, normal_ids, p: int) -> WeaklyHybridReport:
    """Three-valued weak-hybrid test with a citation trail.

    "yes" and "no" are certified by the cited statements; "unknown"
    means no decomposition matched, not a negative result.
    """
    normal_ids = frozenset(normal_ids)
    rep = hybrid_report(group, normal_ids, p)
    if rep.is_hybrid:
        return WeaklyHybridReport(
            "yes",
            (HYBRID_CRITERION, HYBRID_IMPLIES_WEAKLY),
            "the ring is N-hybrid outright",
        )
    if len(normal_ids) % p == 0:
        return WeaklyHybridReport(
            "no",
            (WEAK_HYBRID_COPRIME,),
            f"p = {p} divides |N| = {len(normal_ids)}",
        )
    table = character_table(group)
    for m_sub, h_sub in _product_decompositions(group, normal_ids):
        mg, membed = group.subgroup_as_group(m_sub)
        back = {gid: hid for hid, gid in enumerate(membed)}
        inner = frozenset(back[x] for x in normal_ids)
        derived_table(table, mg, membed, h_sub)
        mrep = hybrid_report(mg, inner, p)
        if not mrep.is_hybrid:
            continue
        rational = all(
            mrep.blocks[bi].residue_degree == 1
            and mrep.blocks[bi].ram_index == 1
            for bi in mrep.block_split
        )
        if not rational:
            continue
        hg, hembed = group.subgroup_as_group(h_sub)
        derived_table(table, hg, hembed, m_sub)
        h_dt = dt_query(hg, p)
        if h_dt.triviality() == "trivial":
            return WeaklyHybridReport(
                "yes",
                (WEAK_HYBRID_PRODUCT,) + h_dt.citations,
                f"G = M x H, |M| = {len(m_sub)} is N-hybrid with "
                f"matrix-ring blocks over Z_{p}, |H| = {len(h_sub)} "
                "has trivial DT",
            )
        if h_dt.triviality() == "nontrivial":
            return WeaklyHybridReport(
                "no",
                (WEAK_HYBRID_OBSTRUCTION,) + h_dt.citations,
                f"G = M x H, |M| = {len(m_sub)} is N-hybrid with "
                f"matrix-ring blocks over Z_{p}, but DT of the "
                f"order-{len(h_sub)} factor is nontrivial",
            )
    return WeaklyHybridReport(
        "unknown", (), "no applicable product decomposition found"
    )


def normal_p_prime_subgroups(group: FiniteGroup, p: int) -> list:
    """The normal N != 1 with p not dividing |N|, in (|N|, ids) order: the
    only N for which Z_p[G] can be weakly N-hybrid (weak-hybrid-coprime)."""
    return group.normal_subgroups(group.order // p ** padic_valuation(group.order, p))[1:]


def _via_weak_hybrid_quotient(group, p, depth, name):
    for sub in normal_p_prime_subgroups(group, p):
        wh = weakly_hybrid(group, sub, p)
        if wh.verdict != "yes":
            continue
        inner = dt_query(_quotient(group, sub), p, depth - 1)
        if inner.kind == "unknown":
            continue
        return DTAssertion(
            inner.kind,
            inner.size,
            (DT_WH_QUOT_ISO,) + wh.citations + inner.citations,
            (
                f"{name}: weakly hybrid for a normal subgroup of "
                f"order {len(sub)}, so DT agrees with the quotient",
            )
            + inner.derivation,
        )
    return None


def _via_quotient_surjectivity(group, p, depth, name):
    # reached only at p = 2 with v_2(|G|) = 1, where p divides [G:N]
    # exactly when p does not divide |N|
    for sub in normal_p_prime_subgroups(group, p):
        inner = dt_query(_quotient(group, sub), p, depth - 1)
        if inner.triviality() == "nontrivial":
            return DTAssertion(
                "nontrivial",
                None,
                (DT_QUOT_SURJECTIVE,) + inner.citations,
                (
                    f"{name}: DT surjects onto the quotient by a "
                    f"normal subgroup of order {len(sub)}",
                )
                + inner.derivation,
            )
    return None


def maximality_consequence(
    group: FiniteGroup, p: int, assertion: DTAssertion
) -> dict:
    """Structural consequences of a DT assertion, consistency-checked.

    A trivial DT forces the group ring to be maximal unless p = 2 and
    v_2(|G|) = 1; a DT that is a p-group forces maximality for odd p.
    An assertion contradicting that is flagged.  The ring is maximal
    exactly when p does not divide |G|, and exactly when every block
    idempotent is integral, so the two fields agree and no table is
    built: an idempotent is integral iff v_p(chi(1)) = v_p(|G|), which
    the trivial character fails when p divides |G| and every chi meets
    otherwise, as chi(1) divides |G| (asserted by `chartable._finish`).
    """
    v = padic_valuation(group.order, p)
    maximal = v == 0
    is_p_group_dt = None
    if assertion.kind == "trivial":
        is_p_group_dt = True
    elif assertion.kind in ("cyclic", "order"):
        size = assertion.size
        is_p_group_dt = size == p ** padic_valuation(size, p)
    notes = []
    consistent = True
    if assertion.triviality() == "trivial":
        if not (maximal or (p == 2 and v == 1)):
            consistent = False
            notes.append(
                "trivial DT requires a maximal ring or p = 2 with "
                f"v_2(|G|) = 1, but (p, v_p(|G|)) = ({p}, {v})"
            )
        else:
            notes.append(
                "consistent: "
                + (
                    "the ring is maximal"
                    if maximal
                    else "p = 2 and v_2(|G|) = 1"
                )
            )
    elif is_p_group_dt and p > 2:
        if not maximal:
            consistent = False
            notes.append(
                "a p-group DT at an odd prime requires a maximal ring"
            )
        else:
            notes.append("consistent: p-group DT and the ring is maximal")
    else:
        notes.append("no maximality constraint derivable")
    return {
        "p": p,
        "group_order": group.order,
        "valuation": v,
        "ring_is_maximal": maximal,
        "all_idempotents_integral": maximal,
        "dt_is_p_group": is_p_group_dt,
        "consistent": consistent,
        "notes": notes,
        "citations": [DT_MAXIMALITY],
    }
