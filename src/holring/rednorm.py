"""Reduced norms, characteristic polynomials and generalized adjoints.

Everything runs on character data: the reduced characteristic polynomial
of a matrix over Q[G] in one irreducible block comes from power traces
and Newton's identities, never from an explicit representation.  On top
of that sit the denominator-ideal certificates: conductor membership,
the commutator-order criterion, and seeded sampling of x * adj(H) when
no certificate applies.  Norm-ideal probes collect reduced norms of
structured and random matrices into an exact lattice over the rationals
with denominators prime to p, so there is no p-adic rounding anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import central_conductor
from .chartable import Character, CharTable, character_table
from .citations import register
from .cyclotomic import (
    INF,
    CycloNum,
    coerce,
    euler_phi,
    padic_valuation,
    semilocal_valuation,
)
from .groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    canon_coeff,
    is_integral_coeff,
    random_integral_matrix,
)
from .groups import FiniteGroup
from .lattice import PLattice

ADJOINT_IDENTITY = register(
    "adjoint-identity",
    "For a matrix H over Q[G] the generalized adjoint has entries in "
    "the maximal order and satisfies adj(H) H = H adj(H) = nr(H) 1.",
)
DENOM_PRODUCT = register(
    "denominator-product",
    "The denominator ideal multiplies the norm ideal into itself: "
    "H_p(G) I_p(G) = H_p(G) inside z(Z_p[G]).",
)
BEST_DENOMINATORS = register(
    "best-denominators",
    "H_p(G) = z(Z_p[G]) exactly when p does not divide the order of "
    "the commutator subgroup, and then I_p(G) = z(Z_p[G]) as well.",
)
CONDUCTOR_IN_DENOM = register(
    "conductor-in-denominator",
    "The central conductor of the maximal order is contained in the "
    "denominator ideal H_p(G).",
)
MAXIMAL_NORM_IDEAL = register(
    "maximal-norm-ideal",
    "When p does not divide |G| the group ring is a maximal order and "
    "the norm ideal is the whole center z(Z_p[G]) = z(M_p(G)).",
)
AFFINE_NORM_IDEAL = register(
    "affine-norm-ideal",
    "For Aff(q), q a power of an odd prime l, the norm ideal at p = l "
    "is the full center of the maximal order; for q even and p = 2 it "
    "is pinned between 2 z(M_2) and z(M_2).",
)
S4_NORM_IDEAL = register(
    "s4-norm-ideal",
    "The norm ideal of S4 at p = 2 satisfies "
    "2 z(M_2) <= I_2(S4) <= z(M_2).",
)
DIHEDRAL_NORM_IDEAL = register(
    "dihedral-norm-ideal",
    "For D_2l with l an odd prime the norm ideal at p = l is the full "
    "center of the maximal order.",
)


# ------------------------------------------------------------------ norms


@dataclass(frozen=True)
class ReducedCharPoly:
    """Monic reduced characteristic polynomial in one character block."""

    character: Character
    size: int
    coeffs: tuple  # alpha_0 .. alpha_d with alpha_d = 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0]

    def norm_value(self):
        return canon_coeff(coerce(self.constant_term) * (-1) ** self.degree)


def _powers_and_traces(H: GroupRingMatrix, kmax: int):
    """(H^1..H^(kmax-1), class-collapsed coefficients of tr(H^k), k = 1..kmax).

    The last trace comes from the diagonal of H^(kmax-1) H alone, so
    H^kmax itself is never formed.
    """
    powers, traces = [], []
    for _ in range(1, kmax):
        powers.append(powers[-1] * H if powers else H)
        traces.append(powers[-1].trace().class_collapse())
    last = powers[-1].product_trace(H) if powers else H.trace()
    traces.append(last.class_collapse())
    return powers, traces


def _traces_for(ch: Character, collapsed: list) -> list:
    traces = []
    for row in collapsed:
        total = CycloNum.rational(0)
        for s, v in zip(row, ch.values):
            if s:
                total = total + coerce(s * v)
        traces.append(total)
    return traces


def _newton_coeffs(traces: list, d: int) -> tuple:
    # e_k = (1/k) sum_{i<=k} (-1)^(i-1) e_{k-i} p_i, exact over Q(zeta)
    elem = [CycloNum.rational(1)]
    for k in range(1, d + 1):
        acc = CycloNum.rational(0)
        for i in range(1, k + 1):
            term = elem[k - i] * traces[i - 1]
            if i % 2 == 0:
                term = -term
            acc = acc + term
        elem.append(acc * Fraction(1, k))
    coeffs = [
        canon_coeff(elem[d - j] * (-1) ** (d - j)) for j in range(d + 1)
    ]
    assert coeffs[d] == 1
    return tuple(coeffs)


def reduced_char_poly(H: GroupRingMatrix, ch: Character) -> ReducedCharPoly:
    """Char poly of H in the block of ch, via traces of matrix powers."""
    d = ch.degree * H.n
    _, collapsed = _powers_and_traces(H, d)
    traces = _traces_for(ch, collapsed)
    return ReducedCharPoly(ch, H.n, _newton_coeffs(traces, d))


def _polys_and_powers(H: GroupRingMatrix):
    """Reduced char polys of every block, and the powers H^1..H^(d-1)
    whose traces gave them, d the largest block degree."""
    table = character_table(H.group)
    dmax = max(ch.degree for ch in table.characters) * H.n
    powers, collapsed = _powers_and_traces(H, dmax)
    polys = []
    for ch in table.characters:
        d = ch.degree * H.n
        traces = _traces_for(ch, collapsed[:d])
        polys.append(ReducedCharPoly(ch, H.n, _newton_coeffs(traces, d)))
    return polys, powers


def reduced_char_polys(H: GroupRingMatrix) -> list:
    """All blocks at once; matrix powers are shared across characters."""
    return _polys_and_powers(H)[0]


def reduced_norm(H: GroupRingMatrix) -> CentralElement:
    """nr(H) as a central element, one value per irreducible character."""
    table = character_table(H.group)
    return CentralElement(table, [p.norm_value() for p in reduced_char_polys(H)])


def _adjoint_layers(table: CharTable, polys: list, n: int) -> list:
    """Central coefficient C_j of H^(j-1) in adj(H) = sum_j C_j H^(j-1).

    C_j collects (-1)^(d+1) alpha_j over every character; each layer
    must have rational class coordinates, which is exactly the
    statement that the assembled adjoint is fixed by the Galois action.
    """
    dmax = max(p.degree for p in polys)
    layers = []
    for j in range(1, dmax + 1):
        values = []
        for poly in polys:
            d = poly.degree
            if j > d:
                values.append(0)
                continue
            sign = -1 if (d + 1) % 2 else 1
            values.append(canon_coeff(coerce(poly.coeffs[j]) * sign))
        layer = CentralElement(table, values)
        assert layer.is_rational(), "adjoint layer is not Galois fixed"
        layers.append(layer)
    return layers


def adjoint_and_norm(H: GroupRingMatrix):
    """(adj(H), nr(H)) from one set of matrix powers.

    adj(H) = sum_j C_j H^(j-1) reuses the powers H^1..H^(d-1) that the
    power traces formed; each power is scaled by its central layer entry
    by entry, and each entry is summed over the layers' common
    denominator and reduced once.
    """
    table = character_table(H.group)
    polys, powers = _polys_and_powers(H)
    nr = CentralElement(table, [p.norm_value() for p in polys])
    layers = [layer.to_group_ring() for layer in _adjoint_layers(table, polys, H.n)]
    eye = GroupRingMatrix.identity(H.group, H.n)
    return GroupRingMatrix.combination(layers, [eye] + powers), nr


def generalized_adjoint(H: GroupRingMatrix) -> GroupRingMatrix:
    return adjoint_and_norm(H)[0]


# --------------------------------------------------- center as a lattice


def rational_character_orbits(table: CharTable) -> list:
    """Galois orbits of Irr(G) over Q, as (representative, {k: index}).

    The dict sends each unit k mod the group exponent to the index of
    the character obtained by applying the k-th power Galois map to the
    values of the representative.
    """
    exponent = table.group.exponent()
    lookup = {ch.values: i for i, ch in enumerate(table.characters)}
    seen = set()
    orbits = []
    for i, ch in enumerate(table.characters):
        if i in seen:
            continue
        members = {}
        for k in range(1, exponent + 1):
            if math.gcd(k, exponent) != 1:
                continue
            moved = tuple(v.galois(k) for v in ch.values)
            members[k] = lookup[moved]
        seen.update(members.values())
        orbits.append((i, members))
    return orbits


def center_lattice(table: CharTable, p: int) -> PLattice:
    """z(Z_(p)[G]) in class-sum coordinates: the standard lattice."""
    k = len(table.characters)
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    return PLattice.from_generators(p, k, rows)


def maximal_center_lattice(table: CharTable, p: int) -> PLattice:
    """z(M_(p)(G)) in class-sum coordinates.

    Per rational block the integers of the character field are spanned
    by the traces of all powers of a root of unity of the field's exact
    conductor down to the field, spread over the Galois orbit.
    """
    k = len(table.characters)
    gens = []
    for rep, members in rational_character_orbits(table):
        ch = table.characters[rep]
        m = ch.field_conductor
        stab = [
            u
            for u in range(1, m + 1)
            if math.gcd(u, m) == 1
            and tuple(v.galois(u) for v in ch.values) == ch.values
        ]
        for j in range(m):
            t = CycloNum.rational(0)
            for u in stab:
                t = t + CycloNum.root_of_unity(m, j * u % m)
            values = [0] * k
            for kk, idx in members.items():
                values[idx] = t.galois(kk % m)
            coords = CentralElement(table, values).to_class_coords()
            assert not any(isinstance(c, CycloNum) for c in coords)
            gens.append(coords)
    lat = PLattice.from_generators(p, k, gens)
    assert lat.rank == k
    return lat


# --------------------------------------------------- membership verdicts


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # certified_in | sampled_no_counterexample | counterexample
    reason: str
    citations: tuple
    samples: int = 0
    counterexample: Optional[GroupRingMatrix] = None

    @property
    def certified(self) -> bool:
        return self.kind == "certified_in"

    def to_jsonable(self) -> dict:
        out = {
            "verdict": self.kind,
            "reason": self.reason,
            "citations": list(self.citations),
            "samples": self.samples,
        }
        if self.counterexample is not None:
            h = self.counterexample
            out["counterexample"] = [
                [list(e.coeffs) for e in row] for row in h.rows
            ]
        return out


def _value_block_valuation(value, p: int, ram_index: int):
    """Valuation of one central value in the block field's own prime."""
    cv = coerce(value)
    if not cv:
        return INF
    sv = semilocal_valuation(cv, p)
    m = cv.conductor
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return Fraction(sv * ram_index, euler_phi(p**a))


def in_central_conductor(x: CentralElement, p: int) -> bool:
    """Does x lie in the central conductor of the maximal order?"""
    for block, expn in central_conductor(x.table, p):
        for idx in block.char_indices:
            if _value_block_valuation(x.values[idx], p, block.ram_index) < expn:
                return False
    return True


def _elem_p_integral(elem: GroupRingElem, p: int) -> bool:
    for c in elem.coeffs:
        if isinstance(c, CycloNum):
            if semilocal_valuation(c, p) < 0:
                return False
        elif padic_valuation(c, p) < 0:
            return False
    return True


def denominator_membership(
    x: CentralElement, p: int, budget: int = 36, seed: int = 1729
) -> MembershipVerdict:
    """Is x in the denominator ideal of Z_p[G]?

    Two certificates are tried first: membership in the central
    conductor, and the commutator-order criterion together with
    x in z(Z_p[G]).  Otherwise x * adj(H) is tested for structured
    witnesses and then `budget` seeded random integral H of sizes
    1..3; a failure is returned as a concrete counterexample, success
    only corroborates.  Integrality of cyclotomic coordinates means
    integrality at every prime above p.
    """
    table = x.table
    g = table.group
    for v in x.values:
        cv = coerce(v)
        if cv and semilocal_valuation(cv, p) < 0:
            raise ValueError("central values are not p-integral")
    if in_central_conductor(x, p):
        return MembershipVerdict(
            "certified_in",
            "x lies in the central conductor of the maximal order",
            (CONDUCTOR_IN_DENOM,),
        )
    commutator = g.commutator_subgroup()
    if commutator.order % p != 0 and _elem_p_integral(x.to_group_ring(), p):
        return MembershipVerdict(
            "certified_in",
            f"p = {p} does not divide |G'| = {commutator.order} and "
            "x has p-integral group coefficients",
            (BEST_DENOMINATORS,),
        )
    rng = random.Random(seed)
    xelem = x.to_group_ring()
    trials = _structured_matrices(g)
    trials += [
        random_integral_matrix(g, 1 + k % 3, rng, bound=2)
        for k in range(budget)
    ]
    for k, h in enumerate(trials):
        adj, _ = adjoint_and_norm(h)
        for row in adj.rows:
            for entry in row:
                if not _elem_p_integral(xelem * entry, p):
                    return MembershipVerdict(
                        "counterexample",
                        f"x adj(H) leaves M_{h.n}(Z_{p}[G]) for a "
                        "sampled H",
                        (ADJOINT_IDENTITY,),
                        samples=k + 1,
                        counterexample=h,
                    )
    return MembershipVerdict(
        "sampled_no_counterexample",
        f"x adj(H) stayed integral for {len(trials)} sampled matrices; "
        "sampling corroborates membership but cannot certify it",
        (ADJOINT_IDENTITY,),
        samples=len(trials),
    )


# ------------------------------------------------------ norm ideal probe


@dataclass(frozen=True)
class NormIdealProbe:
    p: int
    group_order: int
    lattice: PLattice
    center: PLattice
    maximal_center: PLattice
    structured: int
    sampled: int
    all_values_integral: bool
    contains_center: bool
    within_maximal: bool
    equals_center: bool
    equals_maximal: bool
    index_in_maximal: object  # valuation of the index, or INF
    closed_form: Optional[str]
    closed_form_ok: Optional[bool]
    citations: tuple

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "group_order": self.group_order,
            "structured_samples": self.structured,
            "random_samples": self.sampled,
            "all_values_integral": self.all_values_integral,
            "contains_center": self.contains_center,
            "within_maximal_center": self.within_maximal,
            "equals_center": self.equals_center,
            "equals_maximal_center": self.equals_maximal,
            "index_in_maximal": (
                "infinite"
                if self.index_in_maximal == INF
                else self.index_in_maximal
            ),
            "pivot_p_powers": self.lattice.pivot_valuations(),
            "closed_form": self.closed_form,
            "closed_form_consistent": self.closed_form_ok,
            "citations": list(self.citations),
        }


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


def _closed_form(g: FiniteGroup, p: int):
    if g.order % p != 0:
        return "center", (MAXIMAL_NORM_IDEAL,)
    fam = (g.family or {}).get("family")
    if fam == "affine":
        q = g.family["q"]
        ell = min(d for d in range(2, q + 1) if q % d == 0)
        if p == ell:
            if ell == 2:
                return "sandwich-2", (AFFINE_NORM_IDEAL,)
            return "maximal", (AFFINE_NORM_IDEAL,)
    if fam == "symmetric" and g.family.get("n") == 4 and p == 2:
        return "sandwich-2", (S4_NORM_IDEAL,)
    if fam == "dihedral":
        n = g.family["n"]
        if n == p and n % 2 == 1:
            return "maximal", (DIHEDRAL_NORM_IDEAL,)
    return None, ()


def norm_ideal_probe(
    group: FiniteGroup, p: int, budget: int = 24, seed: int = 1729
) -> NormIdealProbe:
    """Lattice generated by sampled reduced norms over z(Z_(p)[G]).

    Structured witnesses always come first, then `budget` seeded random
    integral matrices of sizes 1..3.  The result compares the generated
    lattice against z(Z_(p)[G]) and the center of the maximal order,
    and against the closed form when the group is in the catalog.
    """
    table = character_table(group)
    k = len(table.characters)
    witnesses = _structured_matrices(group)
    rng = random.Random(seed)
    matrices = witnesses + [
        random_integral_matrix(group, 1 + i % 3, rng, bound=2)
        for i in range(budget)
    ]
    class_sums = [
        CentralElement.from_class_coords(
            table, [1 if c == j else 0 for j in range(k)]
        )
        for c in range(k)
    ]
    gens = []
    all_integral = True
    for h in matrices:
        nr = reduced_norm(h)
        for v in nr.values:
            cv = coerce(v)
            if cv and semilocal_valuation(cv, p) < 0:
                all_integral = False
        for z in class_sums:
            coords = (nr * z).to_class_coords()
            assert not any(isinstance(c, CycloNum) for c in coords)
            gens.append(coords)
    lattice = PLattice.from_generators(p, k, gens)
    center = center_lattice(table, p)
    maximal = maximal_center_lattice(table, p)
    form, citations = _closed_form(group, p)
    ok = None
    if form == "center":
        ok = lattice == center
    elif form == "maximal":
        ok = lattice == maximal
    elif form == "sandwich-2":
        ok = maximal.contains(lattice) and lattice.contains(maximal.scaled(2))
    return NormIdealProbe(
        p=p,
        group_order=group.order,
        lattice=lattice,
        center=center,
        maximal_center=maximal,
        structured=len(witnesses),
        sampled=budget,
        all_values_integral=all_integral,
        contains_center=lattice.contains(center),
        within_maximal=maximal.contains(lattice),
        equals_center=lattice == center,
        equals_maximal=lattice == maximal,
        index_in_maximal=maximal.index_valuation(lattice),
        closed_form=form,
        closed_form_ok=ok,
        citations=citations,
    )
