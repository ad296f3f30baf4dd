"""Reduced norms, characteristic polynomials and generalized adjoints.

The reduced char polynomial of a matrix H over Q[G] in one irreducible
block, and the block's part of adj(H), come from one integer matrix
rho(H) when the block takes a representation (`_modules`), and otherwise
from power traces and Newton's identities, run once per rational orbit
of Irr(G) with the Galois action giving the orbit's other blocks; the
adjoint's central layers enter Q[G] through the table's integer change
of basis, `groupring.orbit_basis`.  On top of that sit the
denominator-ideal certificates: conductor membership, the
commutator-order criterion, and seeded sampling of x * adj(H) when no
certificate applies.  Norm-ideal probes collect reduced norms into an
exact lattice over the rationals with denominators prime to p, so there
is no p-adic rounding anywhere, and compare it with the center of the
maximal order, whose lattice is saturated at p so that it is right under
wild ramification too.  Both sample one trial list, `_trials`: one
structured witness per conjugacy class, then seeded random matrices.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Optional

from .blocks import central_conductor
from .chartable import Character, CharTable, character_table
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
from .linalg import adjugate_int, charpoly_int, fq_kernel, lincomb

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


class ReducedCharPoly(NamedTuple):
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


def _modules(group: FiniteGroup) -> tuple:
    """(ceiling, {character index: rho}), built once per group, with rho[g]
    the nonzero (row, column, value) entries of rho(g).  At hand, when
    pi - 1 is irreducible of degree above 1 (pi(c) the points fixed by
    class c), are the augmentation module on e_x - e_0 and its twists by
    the +-1-valued linear characters.  Only the blocks above the largest
    degree with none (the ceiling, at least 1) take theirs."""
    if "modules" not in group._cache:
        table = character_table(group)
        cls, chars = table.classes, table.characters
        index = {tuple(v.as_rational() for v in ch.values): i for i, ch in enumerate(chars)}
        chi = tuple(sum(x == y for x, y in enumerate(group.elements[r])) - 1
                    for r in cls.representatives)
        reps = {}
        if chi[0] > 1 and chi in index:
            for row, i in index.items():
                if chars[i].degree == 1 and set(row) <= {1, -1}:
                    reps.setdefault(index[tuple(map(operator.mul, chi, row))], tuple(map(int, row)))
        ceiling = max(ch.degree for i, ch in enumerate(chars) if i not in reps)

        def rho(perm):  # g (e_x - e_0) = (e_g(x) - e_0) - (e_g(0) - e_0), at index x - 1
            return ([(y - 1, x - 1, 1) for x, y in enumerate(perm) if x and y]
                    + [(perm[0] - 1, x - 1, -1) for x in range(1, group.degree) if perm[0]])

        group._cache["modules"] = ceiling, {
            i: [[(r, c, v * lam[k]) for r, c, v in rho(perm)] for perm, k in zip(group.elements, cls.class_of)]
            for i, lam in reps.items() if chars[i].degree > ceiling}
    return group._cache["modules"]


def _polys_and_powers(H: GroupRingMatrix):
    """(reduced char polys, the powers H^1..H^(D-1) of the blocks with no
    representation, D = n ceiling, {index: (rho(den H), rho)} for the
    others, den), den the lcm of H's denominators, so that det(xI - rho(H))
    has coefficient k that of rho(den H) over den^(n chi(1) - k).  Newton
    runs at each orbit's representative chi_0, and sigma_k(chi_0) takes the
    images under sigma_k; ValueError if a coefficient is not fixed by
    chi_0's stabilizer: then some adjoint layer is not rational."""
    table = character_table(H.group)
    basis = orbit_basis(table)
    ceiling, modules = _modules(H.group)
    powers, traces = _powers_and_traces(H, ceiling * H.n)
    polys = [None] * len(table.characters)
    for o, (rep, members) in enumerate(basis.orbits):
        if rep in modules:
            continue
        d = table.characters[rep].degree * H.n
        coeffs = _newton_coeffs([basis.rep_value(o, *t) for t in traces[:d]], d)
        m = math.lcm(*(c.m for c in coeffs))
        for u, idx in {(k % m, idx) for k, idx in members.items()}:
            image = tuple(c.galois(u) for c in coeffs)
            if idx == rep and image != coeffs:
                raise ValueError("a reduced char poly coefficient is not fixed by its stabilizer")
            polys[idx] = ReducedCharPoly(table.characters[idx], H.n, image)
    den = math.lcm(*(e.den for row in H.rows for e in row))
    images = {}
    for idx, rho in modules.items():
        d = table.characters[idx].degree
        m = [[0] * (H.n * d) for _ in range(H.n * d)]
        for i, j in itertools.product(range(H.n), repeat=2):
            e = H.rows[i][j]
            for g in filter(e.num.__getitem__, range(len(e.num))):
                for r, c, v in rho[g]:
                    m[i * d + r][j * d + c] += den // e.den * e.num[g] * v
        images[idx] = m, rho
        coeffs = charpoly_int(m)
        polys[idx] = ReducedCharPoly(table.characters[idx], H.n, tuple(
            CycloNum.rational(Fraction(c, den ** (len(m) - k))) for k, c in enumerate(coeffs)))
    return polys, powers, images, den


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

    In the blocks with no representation adj(H) = sum_j C_j H^(j-1): the
    central layer C_j is (-1)^(d+1) alpha_j at a block of degree d >= j,
    0 elsewhere, and enters Q[G] from its values at the orbit
    representatives by one int product with the table's `orbit_basis`.
    Each power, formed once for the traces, is scaled by its layer entry
    by entry; each entry is reduced once.  A block with a representation
    adds sum_g (chi(1)/|G|) tr(rho(g^-1) A_ij) g at (i, j), acting as A_ij
    there and as 0 elsewhere (Schur orthogonality; Isaacs, ch. 2), for A =
    adj(rho(H)) = adjugate_int(rho(den H)) / den^(n chi(1) - 1)."""
    polys, powers, images, den = _polys_and_powers(H)
    group, n = H.group, H.n
    nr = CentralElement(group, [p.norm_value() for p in polys])
    basis = orbit_basis(nr.table)
    reps = [None if rep in images else polys[rep] for rep, _ in basis.orbits]
    class_of = group.classes().class_of
    coords = [basis.class_coords([p.coeffs[j] * (-1) ** (p.degree + 1) if p is not None and j <= p.degree
                                  else 0 for p in reps]) for j in range(1, len(powers) + 2)]
    layers = [GroupRingElem._reduced(group, [num[c] for c in class_of], d) for num, d in coords]
    adj = GroupRingMatrix.combination(layers, [GroupRingMatrix.identity(group, n)] + powers)
    if images:
        top = max(len(m) for m, _ in images.values())
        nums = [[[0] * group.order for _ in range(n)] for _ in range(n)]
        for m, rho in images.values():
            a, d = adjugate_int(m), len(m) // n
            scale = d * den ** (top - len(m))
            for i, j in itertools.product(range(n), repeat=2):
                nums[i][j] = [x + scale * sum(v * a[i * d + c][j * d + r] for r, c, v in rho[group.inv(g)])
                              for g, x in enumerate(nums[i][j])]
        common = group.order * den ** (top - 1)
        adj = adj + GroupRingMatrix(group, [[GroupRingElem._reduced(group, x, common) for x in r] for r in nums])
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
        relations = fq_kernel([list(col) for col in zip(*rows)], p)
        if not relations:
            return lat
        new = [x / p for x in lincomb(relations[0], lat.rows)]
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


class MembershipVerdict(NamedTuple):
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


def _trials(g: FiniteGroup, budget: int, seed: int):
    """(N, [(index, H)]): one structured 1x1 witness per conjugacy class,
    at its index among the N element-level ones (+-x and 1 + x for each x,
    the sum S_K of each cyclic K = <x> != 1 by least generator x, and for
    |G| <= 32 each y S_K), then `budget` seeded random integral matrices of
    sizes 1..3 at N, N + 1, ....  Conjugates share nr(H) and conjugate
    x adj(H); so do y S_K over the classes of y and K, as nr(yS) = nr(y)
    nr(S) and adj(yS) = adj(S) nr(y) y^-1 (Reiner, Maximal Orders, sec. 9).
    Cyclic subgroups that meet the same classes are conjugate: a generator
    of one is conjugate to an element of the other of the same order."""
    cls, n = g.classes(), g.order
    subgroups, first, seen = [], {}, set()
    for x in range(1, n):
        if x not in seen:
            walk = [g.power(x, k) for k in range(g.element_order(x))]
            seen.update(y for k, y in enumerate(walk) if math.gcd(k, len(walk)) == 1)
            first.setdefault(frozenset(cls.class_of[y] for y in walk), len(subgroups))
            subgroups.append(walk)
    c, reps, firsts = len(subgroups), sorted(cls.representatives), sorted(first.values())

    def one_by_one(ids):
        return GroupRingMatrix(g, [[GroupRingElem(g, [int(y in ids) for y in range(n)])]])

    one, out = GroupRingElem.one(g), []
    for r in reps:
        b = GroupRingElem.basis(g, r)
        out += [(3 * r + t, GroupRingMatrix(g, [[h]])) for t, h in enumerate((b, -b, one + b))]
    out += [(3 * n + s, one_by_one(set(subgroups[s]))) for s in firsts]
    if n <= 32:
        out += [(3 * n + c + r * c + s, one_by_one({g.mul(r, y) for y in subgroups[s]}))
                for r in reps for s in firsts]
    count, rng = 3 * n + c + (n * c if n <= 32 else 0), random.Random(seed)
    out += [(count + i, random_integral_matrix(g, 1 + i % 3, rng, bound=2)) for i in range(budget)]
    return count, out


def denominator_membership(
    x: CentralElement, p: int, budget: int = 36, seed: int = SEED
) -> MembershipVerdict:
    """Is x in the denominator ideal of Z_p[G]?

    Two certificates are tried first: membership in the central
    conductor, and the commutator-order criterion together with
    x in z(Z_p[G]).  Otherwise x * adj(H) is tested on `_trials`, one
    structured witness per conjugacy class and then `budget` seeded random
    matrices; a failure is returned as a concrete counterexample, counted
    at its element-level index, success only corroborates.  Integrality of
    cyclotomic coordinates means integrality at every prime above p.
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
    xelem = x.to_group_ring()
    commutator = g.commutator_subgroup()
    if len(commutator) % p != 0 and _elem_p_integral(xelem, p):
        return MembershipVerdict(
            "certified_in",
            f"p = {p} does not divide |G'| = {len(commutator)} and "
            "x has p-integral group coefficients",
            (BEST_DENOMINATORS,),
        )
    count, trials = _trials(g, budget, seed)
    for k, h in trials:
        adj, _ = adjoint_and_norm(h)
        if not all(_elem_p_integral(xelem * entry, p) for row in adj.rows for entry in row):
            return MembershipVerdict(
                "counterexample",
                f"x adj(H) leaves M_{h.n}(Z_{p}[G]) for a sampled H",
                (ADJOINT_IDENTITY,),
                samples=k + 1,
                counterexample=h,
            )
    return MembershipVerdict(
        "sampled_no_counterexample",
        f"x adj(H) stayed integral for {count + budget} sampled matrices; "
        "sampling corroborates membership but cannot certify it",
        (ADJOINT_IDENTITY,),
        samples=count + budget,
    )


# ------------------------------------------------------ norm ideal probe


class NormIdealProbe(NamedTuple):
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

    The norms are those of `_trials`: one structured witness per conjugacy
    class, as conjugates share a norm, then `budget` seeded random integral
    matrices of sizes 1..3.  The result compares the generated lattice
    against z(Z_(p)[G]) and the center of the maximal order, and against
    the closed form when the group is in the catalog.  Each distinct norm
    is converted to class coordinates once; its generators nr z_c are the
    rows of its matrix on the class sums, from the class-sum structure
    constants.
    """
    table = character_table(group)
    k = len(table.characters)
    structured, trials = _trials(group, budget, seed)
    # keyed by value, as an equal norm adds the same generators
    norms = {nr.values: nr for nr in (reduced_norm(h) for _, h in trials)}
    consts = [group.classes().class_matrix(group, i) for i in range(k)]
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
        structured=structured,
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
