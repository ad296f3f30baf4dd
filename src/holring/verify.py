"""Named self-checks behind the verify-paper command.

Every identity and verdict the library is expected to reproduce is
coded here as a named check over the built-in group catalog: character
table orthogonality, closed forms against the generic algorithm,
hybrid and weakly-hybrid verdicts, pinned reduced-norm identities,
conductor exponents against a brute-force lattice oracle, torsion
facts with their consistency sweep, and the frozen scenario reports.
Checks use exact arithmetic and fixed seeds throughout, so a run is
deterministic; each check either returns a summary line or raises,
and the runner turns both into CheckResult rows.
"""

import json
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .blocks import (
    HYBRID_CRITERION,
    central_conductor,
    hybrid_report,
    idempotent_certificate,
    padic_blocks,
)
from .chartable import CharTable, character_table
from .cyclotomic import CycloNum, euler_phi, padic_valuation, prime_divisors
from .dt import (
    DT_CYCLIC_FOUR,
    DT_CYCLIC_PRIME,
    DT_INVERSION,
    DT_KLEIN_FOUR,
    DT_MAXIMALITY,
    HYBRID_IMPLIES_WEAKLY,
    WEAK_HYBRID_PRODUCT,
    DTAssertion,
    dt_query,
    maximality_consequence,
    weakly_hybrid,
)
from .groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    random_integral_element,
    random_integral_matrix,
    regular_det,
)
from .groups import (
    FiniteGroup,
    affine,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frob72,
    group_name,
    inversion,
    metacyclic,
    quaternion,
    symmetric,
)
from .rednorm import (
    ADJOINT_IDENTITY,
    AFFINE_NORM_IDEAL,
    BEST_DENOMINATORS,
    CONDUCTOR_IN_DENOM,
    MAXIMAL_NORM_IDEAL,
    S4_NORM_IDEAL,
    SEED,
    adjoint_norm_and_polys,
    center_lattice,
    denominator_membership,
    in_central_conductor,
    norm_ideal_probe,
    reduced_char_polys,
    reduced_norm,
)
from .reports import Scenario, conjecture_report

AFFINE_SIZES = (3, 4, 5, 7, 8, 9)


class VerifyFailure(AssertionError):
    pass


def _require(cond, msg: str):
    if not cond:
        raise VerifyFailure(msg)


@dataclass(frozen=True)
class CheckResult:
    name: str
    criterion: int
    passed: bool
    detail: str
    citations: tuple

    def to_jsonable(self):
        return {
            "name": self.name,
            "criterion": self.criterion,
            "passed": self.passed,
            "detail": self.detail,
            "citations": list(self.citations),
        }


_CHECKS: list = []


def _check(name: str, criterion: int, *citations: str):
    def wrap(fn):
        _CHECKS.append((name, criterion, citations, fn))
        return fn

    return wrap


def check_names() -> list:
    return [name for name, _, _, _ in _CHECKS]


def run_checks(names=None, criteria=None) -> list:
    """Run checks filtered by name or criterion number, in fixed order."""
    wanted = set(names) if names is not None else None
    if wanted is not None:
        unknown = wanted - set(check_names())
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    crits = set(criteria) if criteria is not None else None
    out = []
    for name, crit, cites, fn in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        if crits is not None and crit not in crits:
            continue
        try:
            detail = fn()
            out.append(CheckResult(name, crit, True, detail or "ok", cites))
        except Exception as exc:  # one failure must not stop the rest
            out.append(
                CheckResult(name, crit, False, f"{type(exc).__name__}: {exc}", cites)
            )
    return out


# ----------------------------------------------------------- shared helpers

_CATALOG: Optional[list] = None


def catalog() -> list:
    """C2..C12, D6..D30, S3, S4, A4, Q8, Aff(q), frob72: 35 groups."""
    global _CATALOG
    if _CATALOG is None:
        groups = [cyclic(n) for n in range(2, 13)]
        groups += [dihedral(n) for n in range(3, 16)]
        groups += [symmetric(3), symmetric(4), alternating(4), quaternion()]
        groups += [affine(q) for q in AFFINE_SIZES]
        groups.append(frob72())
        _CATALOG = groups
    return _CATALOG


def _norm_suite() -> list:
    """The five groups of the seeded reduced-norm suites, with labels."""
    return [
        (symmetric(3), "S3"),
        (dihedral(5), "D10"),
        (quaternion(), "Q8"),
        (symmetric(4), "S4"),
        (alternating(4), "A4"),
    ]


def _table_shape(t: CharTable, g: FiniteGroup) -> Counter:
    """Row multiset invariant under class and character reordering."""
    sizes = g.classes().sizes
    return Counter(
        (
            ch.degree,
            tuple(
                sorted((sizes[c], repr(v)) for c, v in enumerate(ch.values))
            ),
        )
        for ch in t.characters
    )


def _row_multiset(t: CharTable) -> Counter:
    return Counter(ch.values for ch in t.characters)


def _s4_pinned():
    """S4 table with characters pinned by (degree, value on a transposition).

    Order: trivial, sign, degree two, degree three with value 1 on
    transpositions, degree three with value -1.
    """
    g = symmetric(4)
    t = character_table(g)
    cls = g.classes()
    tc = next(
        c
        for c in range(len(cls.sizes))
        if cls.sizes[c] == 6 and g.element_order(cls.representatives[c]) == 2
    )
    order = []
    for degree, tau in ((1, 1), (1, -1), (2, 0), (3, 1), (3, -1)):
        order.append(
            next(
                i
                for i, ch in enumerate(t.characters)
                if ch.degree == degree and ch.values[tc] == tau
            )
        )
    return g, t, cls, tc, order


# -------------------------------------------------------- character tables


@_check("table-orthogonality", 1)
def _check_orthogonality():
    for g in catalog():
        t = character_table(g)
        cls = g.classes()
        k = len(cls.sizes)
        _require(
            len(t.characters) == k,
            f"{group_name(g)}: {len(t.characters)} characters for {k} classes",
        )
        inv = [cls.power_class(c, -1) for c in range(k)]
        for i, ch1 in enumerate(t.characters):
            for j in range(i, k):
                ch2 = t.characters[j]
                s = CycloNum.rational(0)
                for c in range(k):
                    s = s + ch1.values[c] * ch2.values[inv[c]] * cls.sizes[c]
                want = g.order if i == j else 0
                _require(
                    s == want,
                    f"{group_name(g)}: row orthogonality fails at characters ({i}, {j})",
                )
        for c in range(k):
            for d in range(k):
                s = CycloNum.rational(0)
                for ch in t.characters:
                    s = s + ch.values[c] * ch.values[inv[d]]
                want = g.order // cls.sizes[c] if c == d else 0
                _require(
                    s == want,
                    f"{group_name(g)}: column orthogonality fails at classes ({c}, {d})",
                )
    return f"{len(catalog())} groups, both orthogonality relations exact"


@_check("table-closed-forms", 1)
def _check_closed_forms():
    closed = induced = 0
    for g in catalog():
        fam = (g.family or {}).get("family")
        generic = character_table(g, "generic")
        if fam in ("cyclic", "dihedral", "affine"):
            _require(
                _row_multiset(character_table(g, "closed")) == _row_multiset(generic),
                f"{group_name(g)}: closed form differs from the generic table",
            )
            closed += 1
        if g.frobenius_kernel_complement() is not None:
            _require(
                _row_multiset(character_table(g, "frobenius")) == _row_multiset(generic),
                f"{group_name(g)}: induced table differs from the generic table",
            )
            induced += 1
    return (
        f"{closed} closed-form and {induced} induced tables match the "
        "generic algorithm row for row"
    )


@_check("group-structure", 0)
def _check_group_structure():
    for q in AFFINE_SIZES:
        g = affine(q)
        _require(g.order == q * (q - 1), f"Aff({q}) has order {g.order}")
        kernel = frozenset(g.meta["kernel"])
        _require(len(kernel) == q, f"Aff({q}) kernel has order {len(kernel)}")
        _require(
            kernel == g.commutator_subgroup().element_ids,
            f"Aff({q}): kernel differs from the commutator subgroup",
        )
        ker, comp = g.frobenius_kernel_complement()
        _require(
            ker.element_ids == kernel and comp.order == q - 1,
            f"Aff({q}): kernel/complement orders are not (q, q-1)",
        )
    a3 = affine(3)
    _require(a3.order == 6 and not a3.is_abelian(), "Aff(3) is not the order-6 nonabelian group")
    _require(
        _table_shape(character_table(a3), a3)
        == _table_shape(character_table(symmetric(3)), symmetric(3)),
        "Aff(3) table differs from the S3 table",
    )
    f = frob72()
    _require(f.order == 72, f"frob72 has order {f.order}")
    ker, comp = f.frobenius_kernel_complement()
    _require(
        (ker.order, comp.order) == (9, 8),
        f"frob72 kernel/complement orders are ({ker.order}, {comp.order})",
    )
    s4 = symmetric(4)
    norders = sorted(s.order for s in s4.normal_subgroups())
    _require(norders == [1, 4, 12, 24], f"S4 normal subgroup orders are {norders}")
    _require(s4.frobenius_kernel_complement() is None, "S4 detected as a Frobenius group")
    ker, comp = dihedral(5).frobenius_kernel_complement()
    _require((ker.order, comp.order) == (5, 2), "D10 kernel/complement orders differ from (5, 2)")
    ker, comp = affine(7).frobenius_kernel_complement()
    _require((ker.order, comp.order) == (7, 6), "Aff(7) kernel/complement orders differ from (7, 6)")
    return "affine and frob72 shapes, S4 normal lattice, Frobenius detection"


@_check("affine-nonlinear-character", 0)
def _check_affine_nonlinear():
    for q in AFFINE_SIZES:
        t = character_table(affine(q))
        nonlinear = [ch for ch in t.characters if ch.degree > 1]
        _require(
            len(nonlinear) == 1,
            f"Aff({q}): {len(nonlinear)} nonlinear characters instead of one",
        )
        ch = nonlinear[0]
        _require(ch.degree == q - 1, f"Aff({q}): nonlinear degree {ch.degree} != {q - 1}")
        _require(ch.field_conductor == 1, f"Aff({q}): nonlinear character is not rational")
    return "each Aff(q) has exactly one nonlinear character, rational of degree q-1"


@_check("frobenius-kernel-induction", 0)
def _check_kernel_induction():
    g = affine(5)
    t = character_table(g)
    target = next(ch for ch in t.characters if ch.degree == 4)
    kernel = sorted(g.meta["kernel"])
    gen = next(x for x in kernel if x)
    log = {}
    y = 0
    for j in range(5):
        log[y] = j
        y = g.mul(y, gen)
    _require(len(log) == 5, "kernel of Aff(5) is not cyclic of order 5")
    cls = g.classes()
    zeta = CycloNum.root_of_unity(5)
    for c in range(1, 5):
        for rep, want in zip(cls.representatives, target.values):
            total = CycloNum.rational(0)
            for x in range(g.order):
                y = g.mul(g.mul(x, rep), g.inv(x))
                if y in log:
                    total = total + zeta ** (c * log[y])
            _require(
                total / 5 == want,
                "induced kernel character differs from the degree-4 irreducible",
            )
    return "all four nontrivial kernel characters of Aff(5) induce the degree-4 irreducible"


# ------------------------------------------------------------------ blocks


@_check("affine-singleton-blocks", 0)
def _check_affine_singleton_blocks():
    pairs = 0
    for q in AFFINE_SIZES:
        g = affine(q)
        t = character_table(g)
        nl = next(i for i, ch in enumerate(t.characters) if ch.degree > 1)
        for p in prime_divisors(g.order):
            if q % p == 0:
                continue
            block = next(b for b in padic_blocks(t, p) if nl in b.char_indices)
            _require(
                block.char_indices == (nl,),
                f"Aff({q}) at p={p}: nonlinear character shares its block",
            )
            _require(
                block.residue_degree == 1 and block.ram_index == 1,
                f"Aff({q}) at p={p}: nonlinear block center is not the p-adic rationals",
            )
            pairs += 1
    return f"{pairs} (q, p) pairs: the nonlinear character is a singleton block over Q_p"


@_check("integral-idempotent-blocks", 0)
def _check_integral_idempotent_blocks():
    t = character_table(symmetric(3))
    deg2 = next(b for b in padic_blocks(t, 2) if b.degree == 2)
    _require(deg2.idempotent_integral, "S3 at p=2: degree-2 idempotent is not integral")
    _require(
        idempotent_certificate(t, deg2)["vanishes_on_p_singular"],
        "S3 at p=2: defect-zero certificate missing",
    )
    t = character_table(alternating(4))
    deg3 = next(b for b in padic_blocks(t, 3) if b.degree == 3)
    _require(deg3.idempotent_integral, "A4 at p=3: degree-3 idempotent is not integral")
    for p in (2, 3, 5):
        t = character_table(cyclic(p))
        triv = next(
            b
            for b in padic_blocks(t, p)
            if all(v == 1 for v in t.characters[b.char_indices[0]].values)
        )
        _require(
            not triv.idempotent_integral,
            f"C{p} at p={p}: trivial-character idempotent cannot be integral",
        )
    return "degree-2 block of S3 at 2 and degree-3 block of A4 at 3 are integral; C_p trivial blocks are not"


@_check("hybrid-verdicts", 2, HYBRID_CRITERION)
def _check_hybrid_verdicts():
    cases = 0

    def expect(g, nids, p, want, label):
        nonlocal cases
        rep = hybrid_report(g, nids, p)
        _require(
            rep.is_hybrid == want,
            f"{label}: expected {'hybrid' if want else 'not hybrid'} at p={p}",
        )
        cases += 1
        return rep

    s3 = symmetric(3)
    expect(s3, s3.commutator_subgroup().element_ids, 2, True, "(S3, A3)")
    a4 = alternating(4)
    expect(a4, a4.commutator_subgroup().element_ids, 3, True, "(A4, V4)")
    for q in AFFINE_SIZES:
        g = affine(q)
        kernel = frozenset(g.meta["kernel"])
        for p in prime_divisors(g.order):
            if q % p == 0:
                continue
            expect(g, kernel, p, True, f"(Aff({q}), kernel)")
    s4 = symmetric(4)
    v4 = next(s.element_ids for s in s4.normal_subgroups() if s.order == 4)
    rep = expect(s4, v4, 3, True, "(S4, V4)")
    degrees = [rep.blocks[i].degree for i in rep.block_split]
    _require(
        sorted(degrees) == [3, 3],
        f"(S4, V4) at 3: split blocks have degrees {degrees}, not two 3s",
    )
    f = frob72()
    expect(f, frozenset(f.meta["kernel"]), 2, True, "(frob72, kernel)")
    for n in range(3, 16, 2):
        g = dihedral(n)
        expect(g, g.commutator_subgroup().element_ids, 2, True, f"(D{2 * n}, C{n})")
    big = direct_product(cyclic(3), alternating(4))
    fours = [s for s in big.normal_subgroups() if s.order == 4]
    _require(len(fours) == 1, "C3 x A4 should have one normal subgroup of order 4")
    rep = hybrid_report(big, fours[0].element_ids, 3)
    _require(not rep.is_hybrid, "(C3 x A4, 1 x V4) must not be hybrid at 3")
    _require(rep.witness is not None, "negative verdict carries no witness")
    ch = character_table(big).characters[rep.witness]
    _require(
        not fours[0].element_ids <= ch.kernel,
        "witness character is trivial on the normal subgroup",
    )
    _require(
        ch.degree == 3 and padic_valuation(ch.degree, 3) < padic_valuation(big.order, 3),
        f"witness should be a degree-3 character of deficient valuation, got degree {ch.degree}",
    )
    cases += 1
    return f"{cases} verdicts match, including the negative witness on C3 x A4"


@_check("weakly-hybrid-verdicts", 2, WEAK_HYBRID_PRODUCT, HYBRID_IMPLIES_WEAKLY)
def _check_weakly_hybrid_verdicts():
    s3 = symmetric(3)
    wh = weakly_hybrid(s3, s3.commutator_subgroup().element_ids, 2)
    _require(
        wh.verdict == "yes" and HYBRID_IMPLIES_WEAKLY in wh.citations,
        "(S3, A3, 2): hybrid input should be weakly hybrid by implication",
    )
    d12 = dihedral(6)
    comm = d12.commutator_subgroup()
    _require(comm.order == 3, f"commutator of D12 has order {comm.order}")
    _require(
        not hybrid_report(d12, comm.element_ids, 2).is_hybrid,
        "(D12, C3, 2) must not be hybrid outright",
    )
    wh = weakly_hybrid(d12, comm.element_ids, 2)
    _require(wh.verdict == "yes", f"(D12, C3, 2): weakly-hybrid verdict {wh.verdict}")
    _require(
        WEAK_HYBRID_PRODUCT in wh.citations,
        "(D12, C3, 2): product decomposition not cited",
    )
    d10 = dihedral(5)
    g = direct_product(s3, d10)
    embed, _ = g.meta["factor_embeddings"]
    nids = frozenset(embed[i] for i in s3.commutator_subgroup().element_ids)
    _require(
        not hybrid_report(g, nids, 2).is_hybrid,
        "(S3 x D10, A3 x 1, 2) must not be hybrid outright",
    )
    wh = weakly_hybrid(g, nids, 2)
    _require(
        wh.verdict == "yes"
        and WEAK_HYBRID_PRODUCT in wh.citations
        and DT_INVERSION in wh.citations,
        "(S3 x D10, A3 x 1, 2): expected yes via the matrix-factor collapse onto D10",
    )
    c4 = cyclic(4)
    c2 = next(s for s in c4.normal_subgroups() if s.order == 2)
    wh = weakly_hybrid(c4, c2.element_ids, 2)
    _require(wh.verdict == "no", f"(C4, C2, 2): verdict {wh.verdict}, expected no")
    return "D12 and S3 x D10 weakly hybrid via products; C4 refused; hybrid implies weakly"


# ------------------------------------------------------------ reduced norm


@_check("adjoint-ast-identity", 3, ADJOINT_IDENTITY)
def _check_adjoint_ast_identity():
    per_group, suite = 100, _norm_suite()
    for g, label in suite:
        character_table(g)
        rng = random.Random(SEED)
        for i in range(per_group):
            n = 1 + i % 3
            h = random_integral_matrix(g, n, rng)
            adj, nr, polys = adjoint_norm_and_polys(h)
            scalar = GroupRingMatrix.scalar(g, n, nr.to_group_ring())
            _require(adj * h == scalar, f"{label}: H*H != nr(H) on sample {i}")
            _require(h * adj == scalar, f"{label}: HH* != nr(H) on sample {i}")
            for poly in polys:
                _require(
                    all(c.den == 1 for c in poly.coeffs),
                    f"{label}: reduced char poly coefficient not an algebraic integer on sample {i}",
                )
    total = per_group * len(suite)
    return f"{total} seeded matrices: H*H = HH* = nr(H) with algebraically integral coefficients"


@_check("regular-det-oracle", 4)
def _check_regular_det_oracle():
    per_group, suite = 50, _norm_suite()
    for g, label in suite:
        t = character_table(g)
        rng = random.Random(SEED)
        for i in range(per_group):
            h = random_integral_element(g, rng)
            nr = reduced_norm(GroupRingMatrix(g, [[h]]))
            prod = CycloNum.rational(1)
            for ch, v in zip(t.characters, nr.values):
                prod = prod * v**ch.degree
            _require(
                prod == regular_det(h),
                f"{label}: regular determinant differs from the norm product on sample {i}",
            )
    return f"{per_group * len(suite)} seeded elements: det of the regular action equals the norm product"


@_check("char-poly-constant-term", 4)
def _check_char_poly_constant_term():
    g = symmetric(3)
    rng = random.Random(SEED)
    for i in range(12):
        h = random_integral_matrix(g, 1 + i % 3, rng)
        for poly in reduced_char_polys(h):
            d = poly.degree
            _require(poly.coeffs[d] == 1, "reduced char poly is not monic")
            sign = -1 if d % 2 else 1
            _require(
                poly.coeffs[0] * sign == poly.norm_value(),
                "constant term does not carry the reduced norm with its parity sign",
            )
    return "36 reduced char polys over S3: monic, constant term = parity sign times the norm"


@_check("s4-norm-identities", 5)
def _check_s4_norm_identities():
    g, t, cls, tc, order = _s4_pinned()
    tau = GroupRingElem.basis(g, cls.representatives[tc])
    three_cycle = next(
        cls.representatives[c] for c in range(len(cls.sizes)) if cls.sizes[c] == 8
    )
    one = GroupRingElem.one(g)
    cyc = (
        one
        + GroupRingElem.basis(g, three_cycle)
        + GroupRingElem.basis(g, g.mul(three_cycle, three_cycle))
    )

    def pinned_norm(elem):
        nr = reduced_norm(GroupRingMatrix(g, [[elem]]))
        return [nr.values[i] for i in order]

    for elem, want, label in (
        (tau, (1, -1, -1, -1, 1), "nr(tau)"),
        (-one, (-1, -1, 1, -1, -1), "nr(-1)"),
        (cyc, (3, 3, 0, 0, 0), "nr(1+s+s^2)"),
        (tau * cyc, (3, -3, 0, 0, 0), "nr(tau(1+s+s^2))"),
    ):
        got = pinned_norm(elem)
        _require(
            all(a == b for a, b in zip(got, want)),
            f"S4: {label} differs from the pinned identity",
        )
    return "four pinned S4 identities hold on (e1..e5)"


@_check("affine-norm-identities", 5)
def _check_affine_norm_identities():
    for q in (4, 8):
        g = affine(q)
        t = character_table(g)
        kernel = frozenset(g.meta["kernel"])
        sigma = next(x for x in sorted(kernel) if x)
        _require(g.element_order(sigma) == 2, f"Aff({q}): kernel element is not an involution")
        elem = GroupRingElem.one(g) + GroupRingElem.basis(g, sigma)
        nr = reduced_norm(GroupRingMatrix(g, [[elem]]))
        for ch, v in zip(t.characters, nr.values):
            want = 2 if kernel <= ch.kernel else 0
            _require(v == want, f"Aff({q}): nr(1+sigma) is not twice the kernel idempotent")
    for q in (3, 5, 9):
        g = affine(q)
        t = character_table(g)
        kernel = frozenset(g.meta["kernel"])
        nr = reduced_norm(GroupRingMatrix(g, [[-GroupRingElem.one(g)]]))
        for ch, v in zip(t.characters, nr.values):
            want = -1 if kernel <= ch.kernel else 1
            _require(
                v == want,
                f"Aff({q}): nr(-1) differs from the signed idempotent combination",
            )
    return "even q: nr(1+sigma) = 2e; odd q: nr(-1) = -e + e_nl"


# --------------------------------------------------------- central conductor


@_check("conductor-lattice-oracle", 6)
def _check_conductor_lattice_oracle():
    pairs = (
        (cyclic(2), 2),
        (cyclic(3), 3),
        (cyclic(4), 2),
        (cyclic(5), 5),
        (symmetric(3), 2),
        (symmetric(3), 3),
    )

    def spread(g, members, value):
        values = [CycloNum.rational(0)] * len(g.classes().sizes)
        for k, idx in members.items():
            values[idx] = value.galois(k)
        return CentralElement(g, values)

    blocks_checked = 0
    for g, p in pairs:
        t = character_table(g)
        center = center_lattice(t, p)
        orbits = {
            frozenset(members.values()): members
            for _, members in t.rational_orbits()
        }
        for block, expn in central_conductor(t, p):
            members = orbits.get(frozenset(block.char_indices))
            _require(
                members is not None,
                f"{group_name(g)} at p={p}: block is not a full rational orbit",
            )
            ch = t.characters[block.char_indices[0]]
            m = ch.field_conductor
            _require(
                len(set(members.values())) == euler_phi(m),
                f"{group_name(g)} at p={p}: oracle needs the block center to be the full cyclotomic field",
            )
            if m % p == 0:
                _require(
                    m == p ** padic_valuation(m, p),
                    f"{group_name(g)} at p={p}: oracle needs a pure prime-power conductor",
                )
                uniformizer = 1 - CycloNum.root_of_unity(m)
            else:
                uniformizer = CycloNum.rational(p)
            basis = [
                spread(g, members, CycloNum.root_of_unity(m) ** j)
                for j in range(euler_phi(m))
            ]
            found = None
            for k in range(expn + 3):
                x = spread(g, members, uniformizer**k)
                if all(
                    center.contains_vector((x * w).to_class_coords()) for w in basis
                ):
                    found = k
                    break
            _require(
                found == expn,
                f"{group_name(g)} at p={p}: oracle exponent {found} != formula exponent {expn}",
            )
            blocks_checked += 1
    return f"{blocks_checked} blocks: formula exponents equal the brute-force lattice oracle"


@_check("conductor-integral-blocks", 6)
def _check_conductor_integral_blocks():
    checked = 0
    for g in catalog():
        t = character_table(g)
        for p in prime_divisors(g.order):
            for block, expn in central_conductor(t, p):
                _require(
                    (expn == 0) == block.idempotent_integral,
                    f"{group_name(g)} at p={p}: exponent {expn} with integral={block.idempotent_integral}",
                )
                checked += 1
    return f"{checked} blocks: conductor exponent 0 exactly on integral-idempotent blocks"


@_check("defect-zero-vanishing", 7)
def _check_defect_zero_vanishing():
    blocks_checked = 0
    for g in catalog():
        t = character_table(g)
        for p in prime_divisors(g.order):
            singular = g.classes().p_singular_classes(p)
            vg = padic_valuation(g.order, p)
            for block in padic_blocks(t, p):
                if padic_valuation(block.degree, p) != vg:
                    continue
                _require(
                    idempotent_certificate(t, block)["vanishes_on_p_singular"],
                    f"{group_name(g)} at p={p}: defect-zero certificate missing",
                )
                for i in block.char_indices:
                    ch = t.characters[i]
                    for c in singular:
                        _require(
                            not ch.values[c],
                            f"{group_name(g)} at p={p}: defect-zero character "
                            f"nonzero on a p-singular class",
                        )
                blocks_checked += 1
    return f"{blocks_checked} defect-zero blocks vanish on every p-singular class"


# ------------------------------------------------------------ torsion facts


@_check("dt-facts", 8, DT_CYCLIC_PRIME, DT_CYCLIC_FOUR, DT_KLEIN_FOUR, DT_INVERSION)
def _check_dt_facts():
    for p in (2, 3, 5, 7, 11):
        a = dt_query(cyclic(p), p)
        _require(
            a.kind == "cyclic" and a.size == p - 1 and DT_CYCLIC_PRIME in a.citations,
            f"C{p} at p={p}: expected a cyclic torsion group of order {p - 1}",
        )
    a = dt_query(cyclic(4), 2)
    _require(
        (a.kind, a.size) == ("order", 2) and DT_CYCLIC_FOUR in a.citations,
        "C4 at 2: expected torsion of order 2",
    )
    a = dt_query(direct_product(cyclic(2), cyclic(2)), 2)
    _require(
        (a.kind, a.size) == ("order", 2) and DT_KLEIN_FOUR in a.citations,
        "C2 x C2 at 2: expected torsion of order 2",
    )
    for n in (3, 5, 7, 9, 11, 13, 15):
        a = dt_query(dihedral(n), 2)
        _require(
            a.triviality() == "trivial" and DT_INVERSION in a.citations,
            f"D{2 * n} at 2: expected trivial torsion with the inversion citation",
        )
    for orders in ([3, 3], [5], [15]):
        a = dt_query(inversion(orders), 2)
        _require(
            a.triviality() == "trivial" and DT_INVERSION in a.citations,
            f"inversion({orders}) at 2: expected trivial torsion",
        )
    return "cyclic, Klein-four, and inversion torsion facts reproduced with citations"


@_check("dt-consistency-sweep", 8, DT_MAXIMALITY)
def _check_dt_consistency_sweep():
    pairs = 0
    for g in catalog():
        for p in prime_divisors(g.order):
            c = maximality_consequence(g, p, dt_query(g, p))
            _require(c["consistent"], f"{group_name(g)} at p={p}: {'; '.join(c['notes'])}")
            pairs += 1
    _require(
        dt_query(cyclic(3), 3).triviality() != "trivial",
        "C3 at 3 must not report trivial torsion",
    )
    fake = DTAssertion("trivial", None, (), ())
    c = maximality_consequence(cyclic(3), 3, fake)
    _require(not c["consistent"], "fabricated trivial torsion for C3 at 3 was not flagged")
    a = dt_query(cyclic(5), 3)
    c = maximality_consequence(cyclic(5), 3, a)
    _require(
        a.triviality() == "trivial" and c["ring_is_maximal"],
        "C5 at 3: prime away from the order should give trivial torsion over a maximal ring",
    )
    return f"{pairs} (group, prime) pairs consistent; fabricated claim flagged"


# ------------------------------------------------- denominators and norms


@_check(
    "denominator-certificates", 0, BEST_DENOMINATORS, CONDUCTOR_IN_DENOM, ADJOINT_IDENTITY
)
def _check_denominator_certificates():
    v = denominator_membership(CentralElement.one(symmetric(3)), 2)
    _require(
        v.kind == "certified_in" and BEST_DENOMINATORS in v.citations,
        "S3 at 2: identity should certify via the coprime commutator order",
    )
    g, t, cls, tc, order = _s4_pinned()
    vec = CentralElement.zero(g)
    for block, expn in central_conductor(t, 2):
        vec = vec + (2**expn) * CentralElement.from_indicator(g, block.char_indices)
    _require(in_central_conductor(vec, 2), "assembled conductor generator rejected")
    v = denominator_membership(vec, 2)
    _require(
        v.kind == "certified_in" and CONDUCTOR_IN_DENOM in v.citations,
        "S4 at 2: conductor element should certify outright",
    )
    e1 = CentralElement.from_indicator(g, [order[0]])
    e2 = CentralElement.from_indicator(g, [order[1]])
    v = denominator_membership(4 * (e1 + e2), 2, budget=9)
    _require(
        v.kind == "sampled_no_counterexample" and v.samples > 0 and not v.certified,
        "S4 at 2: 4(e1+e2) should survive sampling without a certificate",
    )
    v = denominator_membership(2 * (e1 + e2), 2)
    _require(
        v.kind == "counterexample" and ADJOINT_IDENTITY in v.citations,
        "S4 at 2: 2(e1+e2) should be rejected by a sampled adjoint",
    )
    return "certificates: coprime commutator, conductor membership, sampling, counterexample"


@_check("norm-ideal-probes", 0, MAXIMAL_NORM_IDEAL, AFFINE_NORM_IDEAL, S4_NORM_IDEAL)
def _check_norm_ideal_probes():
    probe = norm_ideal_probe(symmetric(3), 5, budget=8)
    _require(
        probe.closed_form == "center" and probe.closed_form_ok and probe.equals_maximal,
        "S3 at 5: norm ideal should fill the whole center",
    )
    for q, p in ((3, 3), (5, 5), (9, 3)):
        g = affine(q)
        t = character_table(g)
        probe = norm_ideal_probe(g, p, budget=8)
        _require(
            probe.closed_form == "maximal" and probe.closed_form_ok,
            f"Aff({q}) at p={p}: norm ideal should reach the maximal-order center",
        )
        kernel = frozenset(g.meta["kernel"])
        twice = CentralElement(
            g, [2 if kernel <= ch.kernel else 0 for ch in t.characters]
        )
        nr_minus = reduced_norm(GroupRingMatrix(g, [[-GroupRingElem.one(g)]]))
        _require(
            CentralElement.one(g) - nr_minus == twice,
            f"Aff({q}): 1 - nr(-1) is not twice the kernel idempotent",
        )
        _require(
            probe.lattice.contains_vector(twice.to_class_coords()),
            f"Aff({q}) at p={p}: sampled norms miss 1 - nr(-1)",
        )
    g, t, cls, tc, order = _s4_pinned()
    probe = norm_ideal_probe(g, 2, budget=10)
    _require(
        probe.closed_form == "sandwich-2" and probe.closed_form_ok,
        "S4 at 2: norm ideal should sit between the center and half of it",
    )
    _require(
        probe.within_maximal and not probe.equals_maximal and probe.index_in_maximal == 2,
        "S4 at 2: norm ideal index in the maximal-order center should be 2^2",
    )
    for i in order:
        e = CentralElement.from_indicator(g, [i])
        _require(
            probe.lattice.contains_vector((2 * e).to_class_coords()),
            "S4 at 2: sampled norms miss a doubled block idempotent",
        )
    return "norm ideal: full center away from |G|, maximal for odd affine, sandwiched for S4 at 2"


# ------------------------------------------------------------------ reports


@_check("report-goldens", 9)
def _check_report_goldens():
    cases = {
        "affine8_r0": Scenario(group=affine(8), base_field="rationals"),
        "s4_r0": Scenario(group=symmetric(4)),
        "d10_p5_r0": Scenario(
            group=dihedral(5),
            p=5,
            base_field="rationals",
            quadratic_subfield_imaginary=True,
            p_splits_in_quadratic_subfield=True,
            p_coprime_to_class_number=True,
        ),
        "metacyclic73_neg": Scenario(
            group=metacyclic(7, 3), r=-1, totally_real=True, base_field="rationals"
        ),
        "affine8_neg": Scenario(
            group=affine(8), r=-1, totally_real=True, base_field="rationals"
        ),
    }
    golden = resources.files("holring").joinpath("data/golden_reports")
    for name, scn in cases.items():
        want = json.loads(golden.joinpath(f"{name}.json").read_text())
        got = [s.to_jsonable() for s in conjecture_report(scn).statements]
        _require(got == want, f"scenario {name}: statements differ from the frozen report")
    return "5 frozen scenario reports reproduced statement for statement"
