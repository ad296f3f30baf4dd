"""Reduced norms, characteristic polynomials and generalized adjoints.

Everything runs on character data: the reduced characteristic polynomial
of a matrix over Q[G] in one irreducible block comes from power traces
and Newton's identities, never from an explicit representation.  Newton
runs once per rational orbit of Irr(G), and the Galois action gives the
orbit's other blocks; the adjoint's central layers enter Q[G] through
the table's integer change of basis, `groupring.orbit_basis`.  On top
of that sit the denominator-ideal certificates: conductor membership,
the commutator-order criterion, and seeded sampling of x * adj(H) when
no certificate applies.  Norm-ideal probes collect reduced norms of
structured and random matrices into an exact lattice over the rationals
with denominators prime to p, so there is no p-adic rounding anywhere,
and compare it with the center of the maximal order, whose lattice is
saturated at p so that it is right under wild ramification too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import central_conductor
from .chartable import Character, CharTable, _fq_kernel, character_table
from .citations import register
from .cyclotomic import (
    INF,
    CycloNum,
    euler_phi,
    padic_valuation,
    prime_divisors,
    semilocal_valuation,
)
from .groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    orbit_basis,
    random_integral_matrix,
)
from .groups import FiniteGroup
from .lattice import PLattice

# seed of every sampled analysis that is not given one
SEED = 1729

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
    coeffs: tuple  # CycloNums alpha_0 .. alpha_d with alpha_d = 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0]

    def norm_value(self) -> CycloNum:
        return self.constant_term * (-1) ** self.degree


def _powers_and_traces(H: GroupRingMatrix, kmax: int):
    """(H^1..H^(kmax-1), (class sums, den) of tr(H^k) for k = 1..kmax);
    H^kmax is formed for its trace alone and not kept."""
    powers = [H]
    while len(powers) < kmax:
        powers.append(powers[-1] * H)
    traces = [power.trace() for power in powers]
    return powers[:-1], [(t.class_sums(), t.den) for t in traces]


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
    coeffs = tuple(elem[d - j] * (-1) ** (d - j) for j in range(d + 1))
    assert coeffs[d] == 1
    return coeffs


def _polys_and_powers(H: GroupRingMatrix):
    """Reduced char polys of every block, and the powers H^1..H^(d-1)
    whose traces gave them, d the largest block degree.  Newton runs once
    per rational orbit, at its representative chi_0, and sigma_k(chi_0)
    takes the images under sigma_k.  ValueError if a coefficient is not
    fixed by chi_0's stabilizer: then some adjoint layer is not rational.
    """
    table = character_table(H.group)
    basis = orbit_basis(table)
    dmax = max(ch.degree for ch in table.characters) * H.n
    powers, traces = _powers_and_traces(H, dmax)
    polys = [None] * len(table.characters)
    for o, (rep, members) in enumerate(basis.orbits):
        d = table.characters[rep].degree * H.n
        coeffs = _newton_coeffs([basis.rep_value(o, *t) for t in traces[:d]], d)
        m = math.lcm(*(c.m for c in coeffs))
        for u, idx in {(k % m, idx) for k, idx in members.items()}:
            image = tuple(c.galois(u) for c in coeffs)
            if idx == rep and image != coeffs:
                raise ValueError("a reduced char poly coefficient is not fixed by its stabilizer")
            polys[idx] = ReducedCharPoly(table.characters[idx], H.n, image)
    return polys, powers


def reduced_char_polys(H: GroupRingMatrix) -> list:
    """All blocks at once; matrix powers are shared across characters."""
    return _polys_and_powers(H)[0]


def reduced_norm(H: GroupRingMatrix) -> CentralElement:
    """nr(H) as a central element, one value per irreducible character."""
    return CentralElement(H.group, [p.norm_value() for p in reduced_char_polys(H)])


def adjoint_and_norm(H: GroupRingMatrix):
    """(adj(H), nr(H)) from one set of matrix powers."""
    return adjoint_norm_and_polys(H)[:2]


def adjoint_norm_and_polys(H: GroupRingMatrix):
    """(adj(H), nr(H), reduced char polys) from one set of matrix powers.

    adj(H) = sum_j C_j H^(j-1): the central layer C_j is (-1)^(d+1) alpha_j
    at a block of degree d >= j, 0 elsewhere, and enters Q[G] from its
    values at the orbit representatives by one int product with the
    table's `orbit_basis`.  Each power, formed once for the traces, is
    scaled by its layer entry by entry; each entry is reduced once.
    """
    polys, powers = _polys_and_powers(H)
    group = H.group
    nr = CentralElement(group, [p.norm_value() for p in polys])
    basis = orbit_basis(nr.table)
    reps = [polys[rep] for rep, _ in basis.orbits]
    class_of = group.classes().class_of
    layers = []
    for j in range(1, len(powers) + 2):
        num, den = basis.class_coords(
            [p.coeffs[j] * (-1) ** (p.degree + 1) if j <= p.degree else 0 for p in reps]
        )
        layers.append(GroupRingElem._reduced(group, [num[c] for c in class_of], den))
    adj = GroupRingMatrix.combination(layers, [GroupRingMatrix.identity(group, H.n)] + powers)
    return adj, nr, polys


# --------------------------------------------------- center as a lattice


def center_lattice(table: CharTable, p: int) -> PLattice:
    """z(Z_(p)[G]) in class-sum coordinates: the standard lattice."""
    k = len(table.characters)
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    return PLattice.from_generators(p, k, rows)


def _saturated(lat: PLattice) -> PLattice:
    """The p-integral vectors of the rational span of a lattice of
    p-integral rows: while a combination of the rows with coefficients
    not all divisible by p is divisible by p, add it divided by p."""
    p = lat.p
    while True:
        rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in lat.rows]
        relations = _fq_kernel([list(col) for col in zip(*rows)], p)
        if not relations:
            return lat
        new = [sum(c * r[t] for c, r in zip(relations[0], lat.rows)) / p for t in range(lat.dim)]
        lat = PLattice.from_generators(p, lat.dim, lat.rows + (new,))


def maximal_center_lattice(group: FiniteGroup, p: int) -> PLattice:
    """z(M_(p)(G)) in class-sum coordinates.

    Per rational block the center is the ring of integers of the
    character field K, spread over the Galois orbit.  The traces of the
    powers of zeta_m down to K, m the field's conductor, span K but reach
    its integers at p only when Q(zeta_m)/K is tamely ramified at p (not
    so for Q(sqrt 2) in D16 at p = 2).  So their lattice is saturated at p
    in the power-basis coordinates of Q(zeta_m), an integral basis
    (Washington, Thm. 2.6).  Each of its rows is the value at the orbit's
    representative of one generator, read into class coordinates through
    the table's `orbit_basis`.
    """
    table = character_table(group)
    k = len(table.characters)
    basis = orbit_basis(table)
    gens = []
    for o, ((rep, members), m) in enumerate(zip(basis.orbits, basis.conductors)):
        stab = {u % m for u, idx in members.items() if idx == rep}
        zero = CycloNum(m, [0])
        traces = [sum((CycloNum.root_of_unity(m, j * u) for u in stab), zero).num for j in range(m)]
        integers = _saturated(PLattice.from_generators(p, euler_phi(m), traces))
        for row in integers.rows:
            num, den = basis.class_coords([CycloNum(m, row) if i == o else 0 for i in range(len(basis.orbits))])
            gens.append([Fraction(x, den) for x in num])
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
    if not value:
        return INF
    sv = semilocal_valuation(value, p)
    a = padic_valuation(value.conductor, p)
    return Fraction(sv * ram_index, euler_phi(p**a))


def in_central_conductor(x: CentralElement, p: int) -> bool:
    """Does x lie in the central conductor of the maximal order?"""
    for block, expn in central_conductor(x.table, p):
        for idx in block.char_indices:
            if _value_block_valuation(x.values[idx], p, block.ram_index) < expn:
                return False
    return True


def _elem_p_integral(elem: GroupRingElem, p: int) -> bool:
    # gcd(den, *num) = 1, so every coefficient is p-integral iff p does not
    # divide den
    return elem.den % p != 0


def denominator_membership(
    x: CentralElement, p: int, budget: int = 36, seed: int = SEED
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
    g = x.group
    if any(v.den % p == 0 for v in x.values):
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
        ell = prime_divisors(q)[0]
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
    group: FiniteGroup, p: int, budget: int = 24, seed: int = SEED
) -> NormIdealProbe:
    """Lattice generated by sampled reduced norms over z(Z_(p)[G]).

    Structured witnesses always come first, then `budget` seeded random
    integral matrices of sizes 1..3.  The result compares the generated
    lattice against z(Z_(p)[G]) and the center of the maximal order,
    and against the closed form when the group is in the catalog.  Each
    distinct norm is converted to class coordinates once; its generators
    nr z_c are the rows of its matrix on the class sums, from the
    class-sum structure constants.
    """
    table = character_table(group)
    k = len(table.characters)
    witnesses = _structured_matrices(group)
    rng = random.Random(seed)
    matrices = witnesses + [
        random_integral_matrix(group, 1 + i % 3, rng, bound=2)
        for i in range(budget)
    ]
    # keyed by value, as an equal norm adds the same generators
    norms = {nr.values: nr for nr in map(reduced_norm, matrices)}
    consts = group.classes().structure_constants(group)
    gens = []
    for nr in norms.values():
        # nr = sum_i (num_i / den) z_i, so nr z_c = sum_i num_i/den a[i][c][.]
        coords = nr.to_class_coords()
        den = math.lcm(*(a.denominator for a in coords))
        num = [(a.numerator * (den // a.denominator), consts[i]) for i, a in enumerate(coords) if a]
        for c in range(k):
            gens.append([Fraction(sum(n * a[c][kk] for n, a in num), den) for kk in range(k)])
    lattice = PLattice.from_generators(p, k, gens)
    center = center_lattice(table, p)
    maximal = maximal_center_lattice(group, p)
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
        all_values_integral=all(v.den % p for values in norms for v in values),
        contains_center=lattice.contains(center),
        within_maximal=maximal.contains(lattice),
        equals_center=lattice == center,
        equals_maximal=lattice == maximal,
        index_in_maximal=maximal.index_valuation(lattice),
        closed_form=form,
        closed_form_ok=ok,
        citations=citations,
    )
