"""Scenario reports for equivariant conjectures.

Turns a scenario (a Galois group, base-field flags, user-asserted
arithmetic hypotheses, an integer r) into the list of statements the
deduction engine can certify.  Every statement carries the hypothesis
set it depends on and a citation chain into the registry, so a report
can be replayed fact by fact.

Each rule is a function of the scenario that returns its derivations,
(rule name, conditions, statements) triples; `conjecture_report` joins
them in a fixed order and keeps each statement text once.

Arithmetic side conditions (class numbers, splitting behaviour, total
reality, imaginary quadratic subfields) are never computed here; they
enter as asserted booleans on the scenario and reappear, marked
"user-asserted", in the hypothesis list of each statement that uses
them.  No statement is emitted without a complete hypothesis match.
"""

from typing import NamedTuple, Optional

from .blocks import HYBRID_CRITERION, hybrid_report
from .chartable import CharTable, character_table
from .citations import register
from .cyclotomic import prime_divisors
from .dt import DT_INVERSION, dt_query, normal_p_prime_subgroups, weakly_hybrid
from .groups import FiniteGroup
from .linalg import is_prime

SSC_RATIONAL = register(
    "ssc-rational-character",
    "The strong Stark conjecture holds at every rational-valued "
    "irreducible character.",
)
SSC_ABELIAN_KERNEL = register(
    "ssc-abelian-kernel",
    "The strong Stark conjecture holds at a character whose kernel "
    "fixes a subfield of L abelian over Q.",
)
SSC_IMAG_QUAD = register(
    "ssc-imaginary-quadratic",
    "For L abelian over an imaginary quadratic field K with p not "
    "dividing the class number of K (or [L:K] a p-power), the p-part "
    "of the strong Stark conjecture holds for L/K, and it is "
    "inherited by characters induced from Gal(L/K).",
)
GOOD_PRIMES = register(
    "etnc-good-primes",
    "For p not dividing |G| the p-adic group ring is a maximal order, "
    "so the strong Stark conjecture for L/K settles ETNC_p(L/K, 0).",
)
BREAKDOWN = register(
    "etnc-weak-hybrid-split",
    "If Z_p[G] is weakly N-hybrid then ETNC_p(L/K, r) holds if and "
    "only if ETNC_p for the N-fixed subextension and the maximal-order "
    "p-part for L/K both hold.",
)
BREAKDOWN_ABELIANIZED = register(
    "etnc-abelianized-reduction",
    "If N is the commutator subgroup, Z_p[G] is weakly N-hybrid and "
    "the N-fixed field is abelian over Q, the N-fixed layer of "
    "ETNC_p is known, so ETNC_p(L/K, r) holds if and only if its "
    "maximal-order p-part holds.",
)
FROB_KERNEL_HYBRID = register(
    "frobenius-kernel-hybrid",
    "For a Frobenius group with kernel N, the p-adic group ring is "
    "N-hybrid for every prime p not dividing |N|.",
)
AFFINE_FAMILY = register(
    "etnc-affine-family",
    "For Gal(L/K) = Aff(q) with Frobenius kernel N and the N-fixed "
    "field abelian over Q: SSC(L/K) holds and ETNC_p(L/K, 0) holds "
    "for every prime p not dividing q.",
)
S3_FAMILY = register(
    "etnc-order-six",
    "For Gal(L/K) = S_3: SSC(L/K) holds and ETNC_p(L/K, 0) holds for "
    "every prime p other than 3.",
)
D12_FAMILY = register(
    "etnc-order-twelve-dihedral",
    "For Gal(L/K) = D_12 with the field fixed by the order-3 "
    "commutator subgroup abelian over Q: SSC(L/K) holds and "
    "ETNC_p(L/K, 0) holds for every prime p other than 3.",
)
S4_FAMILY = register(
    "etnc-order-24-symmetric",
    "For Gal(L/K) = S_4: SSC(L/K) holds, and ETNC_3(L/K, 0) holds if "
    "and only if ETNC_3 holds for the subextension fixed by the "
    "Klein four-subgroup.",
)
DIHEDRAL_FAMILY = register(
    "etnc-dihedral-imaginary",
    "For Gal(L/Q) dihedral of order 2n with n odd and imaginary "
    "quadratic subfield K: if p does not divide the class number of "
    "K, and p is odd and split in K whenever p divides n, then "
    "ETNC_p(L/Q, 0) holds.",
)
ABELIAN_IMAG_QUAD = register(
    "etnc-abelian-imaginary-quadratic",
    "ETNC_p(L/K, 0) holds for L abelian over an imaginary quadratic "
    "field K when p does not divide the class number of K or [L:K] "
    "is a p-power.",
)
RES_DIHEDRAL = register(
    "dihedral-to-cyclic-restriction",
    "For odd n and odd p the restriction map on DT from the p-adic "
    "group ring of the dihedral group of order 2n to that of its "
    "rotation subgroup is injective.",
)
RESTRICTION_LIFT = register(
    "etnc-restriction-injective-lift",
    "If the p-part of the ETNC obstruction for L/K lies in DT, the "
    "conjecture holds for L over an intermediate field K', and "
    "restriction of DT to Gal(L/K') is injective, then "
    "ETNC_p(L/K, 0) holds.",
)
TOT_REAL_MAX = register(
    "etnc-max-totally-real-negative",
    "For totally real L/K, odd p and odd r < 0, the maximal-order "
    "p-part of ETNC(L/K, r) holds.",
)
HYBRID_NEGATIVE = register(
    "etnc-weak-hybrid-totally-real-negative",
    "For totally real L/K with Z_p[G] weakly hybrid at the commutator "
    "subgroup, p odd, and the commutator-fixed field abelian over Q: "
    "ETNC_p(L/K, r) holds for every odd r < 0.",
)
FROBENIUS_NEGATIVE = register(
    "etnc-frobenius-negative",
    "For a Frobenius group with kernel N and totally real L/K with "
    "the N-fixed field abelian over Q: ETNC_p(L/K, r) holds for "
    "every odd r < 0 and every prime p not dividing 2|N|.",
)
MU_VANISHES = register(
    "iwasawa-l-part-negative",
    "If L/K is totally real, the N-fixed field is abelian over Q and "
    "[L : L^N] is an l-power, then ETNC_l(L/K, r) holds for odd "
    "r < 0 by the relevant main conjecture, the mu-invariant "
    "vanishing.",
)
LOCAL_EPS_DT = register(
    "local-epsilon-element-in-dt",
    "The local epsilon constant element of L/K lies in DT(Z_p[G]); "
    "when that group is trivial the conjecture holds.",
)
GLOBAL_EPS_DT = register(
    "global-epsilon-element-in-dt",
    "The p-part of the global epsilon constant element of L/K lies "
    "in DT(Z_p[G]); when that group is trivial the p-part of the "
    "conjecture holds.",
)
LOCAL_EPS_HYBRID = register(
    "local-epsilon-weak-hybrid",
    "If Z_p[G] is weakly N-hybrid, the local epsilon constant "
    "conjecture holds for L/K if and only if it holds for the "
    "N-fixed subextension.",
)
GLOBAL_EPS_HYBRID = register(
    "global-epsilon-weak-hybrid",
    "If Z_p[G] is weakly N-hybrid, the p-part of the global epsilon "
    "constant conjecture holds for L/K if and only if it holds for "
    "the N-fixed subextension.",
)

CONJECTURES = ("etnc", "local-epsilon", "global-epsilon")
BASE_FIELDS = ("rationals", "any")


class Scenario(NamedTuple):
    """Input grammar for a conjecture report.

    `base_field` is "rationals" for K = Q and "any" otherwise.  The
    boolean flags are arithmetic facts about the extension that the
    caller asserts; they are never verified.
    """

    group: FiniteGroup
    conjecture: str = "etnc"
    r: int = 0
    p: Optional[int] = None
    base_field: str = "any"
    totally_real: bool = False
    quadratic_subfield_imaginary: bool = False
    p_splits_in_quadratic_subfield: bool = False
    p_coprime_to_class_number: bool = False
    fixed_field_abelian: bool = False

    def to_jsonable(self):
        desc = dict(self.group.family or {})
        desc["order"] = self.group.order
        return {
            "group": desc,
            "conjecture": self.conjecture,
            "r": self.r,
            "p": self.p,
            "base_field": self.base_field,
            "totally_real": self.totally_real,
            "quadratic_subfield_imaginary": self.quadratic_subfield_imaginary,
            "p_splits_in_quadratic_subfield": self.p_splits_in_quadratic_subfield,
            "p_coprime_to_class_number": self.p_coprime_to_class_number,
            "fixed_field_abelian": self.fixed_field_abelian,
        }


class Statement(NamedTuple):
    text: str
    hypotheses: tuple
    citations: tuple

    def to_jsonable(self):
        return {
            "statement": self.text,
            "hypotheses": list(self.hypotheses),
            "citations": list(self.citations),
        }


class RuleApplication(NamedTuple):
    rule: str
    conditions: tuple
    produced: tuple

    def to_jsonable(self):
        return {
            "rule": self.rule,
            "conditions": list(self.conditions),
            "produced": list(self.produced),
        }


class ConjectureReport(NamedTuple):
    scenario: Scenario
    statements: tuple
    derivation: tuple

    def to_jsonable(self):
        return {
            "scenario": self.scenario.to_jsonable(),
            "statements": [s.to_jsonable() for s in self.statements],
            "derivation": [d.to_jsonable() for d in self.derivation],
        }


HYP_TOTALLY_REAL = "user-asserted: L and K are totally real"
HYP_IMAGINARY = "user-asserted: the quadratic subfield K of L is imaginary"


def _hyp_class_number(p: int) -> str:
    return f"user-asserted: {p} does not divide the class number of K"


def _hyp_splits(p: int) -> str:
    return f"user-asserted: {p} splits in K"


def _abelian_over_q(scn: Scenario, fixed_by: str, quotient_abelian: bool):
    """Hypothesis line making the field fixed by N abelian over Q.

    Derived for free when K = Q and G/N is abelian, user-asserted
    otherwise; None when neither applies and the rule must not fire.
    """
    if scn.base_field == "rationals" and quotient_abelian:
        return (
            f"K = Q and the quotient by the {fixed_by} is abelian, so "
            f"the field fixed by the {fixed_by} is abelian over Q"
        )
    if scn.fixed_field_abelian:
        return (
            f"user-asserted: the field fixed by the {fixed_by} is "
            "abelian over Q"
        )
    return None


def _validate(scn: Scenario):
    if scn.conjecture not in CONJECTURES:
        raise ValueError(
            f"unsupported scenario grammar: conjecture {scn.conjecture!r}"
        )
    if scn.base_field not in BASE_FIELDS:
        raise ValueError(
            f"unsupported scenario grammar: base field {scn.base_field!r}"
        )
    if scn.r > 0:
        raise ValueError(
            "unsupported scenario grammar: only r = 0 and r < 0"
        )
    if scn.p is not None and not is_prime(scn.p):
        raise ValueError(f"unsupported scenario grammar: p = {scn.p}")
    if scn.conjecture != "etnc":
        if scn.p is None:
            raise ValueError(
                "unsupported scenario grammar: epsilon conjectures need p"
            )
        if scn.r != 0:
            raise ValueError(
                "unsupported scenario grammar: epsilon conjectures have no r"
            )


# -- structural classifiers ----------------------------------------------


def _family(g: FiniteGroup) -> dict:
    return g.family or {}


def _is_s3(g: FiniteGroup) -> bool:
    return g.order == 6 and not g.is_abelian()


def _is_s4(g: FiniteGroup) -> bool:
    fam = _family(g)
    if fam.get("family") == "symmetric" and fam.get("n") == 4:
        return True
    if g.order != 24:
        return False
    # the symmetric group on 4 letters is the unique group of order
    # 24 with trivial centre: no class but {1} has size 1
    return 1 not in g.classes().sizes[1:]


def _is_d12(g: FiniteGroup) -> bool:
    fam = _family(g)
    if fam.get("family") == "dihedral" and fam.get("n") == 6:
        return True
    if g.order != 12 or g.is_abelian():
        return False
    comm = g.commutator_subgroup()
    if len(comm) != 3:
        return False
    quot, _ = g.quotient(comm)
    return all(quot.mul(a, a) == 0 for a in range(quot.order))


def _dihedral_odd_n(g: FiniteGroup) -> Optional[int]:
    fam = _family(g)
    if fam.get("family") == "dihedral":
        n = fam.get("n")
        if n is not None and n % 2 == 1 and n > 1:
            return n
    return None


def _affine_q(g: FiniteGroup) -> Optional[int]:
    fam = _family(g)
    if fam.get("family") == "affine":
        return fam.get("q")
    return None


def _rational_characters(table: CharTable):
    """(all characters rational, all non-linear characters rational)."""
    all_rat = True
    nonlinear_rat = True
    for ch in table.characters:
        if ch.field_conductor == 1:
            continue
        all_rat = False
        if ch.degree > 1:
            nonlinear_rat = False
    return all_rat, nonlinear_rat


# -- rules at r = 0 --------------------------------------------------------
#
# Each rule returns its derivations, a list of (rule name, conditions,
# statements), and an empty list when it does not fire.


def _rule_s3(scn):
    if not _is_s3(scn.group):
        return []
    chain = (S3_FAMILY, SSC_RATIONAL, GOOD_PRIMES, DT_INVERSION)
    return [("order-six", ("Gal(L/K) is the non-abelian group of order 6",), (
        Statement("SSC(L/K) holds.", (), chain),
        Statement("ETNC_p(L/K, 0) holds for every prime p other than 3.", (), chain),
    ))]


def _rule_d12(scn):
    if not _is_d12(scn.group):
        return []
    hyp = _abelian_over_q(scn, "commutator subgroup", True)
    if hyp is None:
        return []
    wh = weakly_hybrid(scn.group, scn.group.commutator_subgroup(), 2)
    assert wh.verdict == "yes", "expected a weak hybrid split at 2"
    chain = (D12_FAMILY, SSC_RATIONAL, GOOD_PRIMES,
             BREAKDOWN_ABELIANIZED) + wh.citations
    return [("order-twelve-dihedral", (
        "Gal(L/K) is dihedral of order 12",
        "the 2-adic group ring splits weakly at the commutator "
        "subgroup: " + wh.detail,
    ), (
        Statement("SSC(L/K) holds.", (hyp,), chain),
        Statement("ETNC_p(L/K, 0) holds for every prime p other than 3.",
                  (hyp,), chain),
    ))]


def _rule_s4(scn):
    if not _is_s4(scn.group):
        return []
    klein = [s for s in scn.group.normal_subgroups(4) if len(s) == 4]
    assert len(klein) == 1
    rep = hybrid_report(scn.group, klein[0], 3)
    assert rep.is_hybrid, "expected a Klein-four hybrid split at 3"
    return [("order-24-symmetric", (
        "Gal(L/K) is the symmetric group on 4 letters",
        "the 3-adic group ring is hybrid for the Klein four-subgroup",
    ), (
        Statement("SSC(L/K) holds.", (), (S4_FAMILY, SSC_RATIONAL)),
        Statement(
            "ETNC_3(L/K, 0) holds if and only if ETNC_3 holds for the "
            "degree-6 subextension fixed by the Klein four-subgroup.",
            (), (S4_FAMILY, HYBRID_CRITERION, BREAKDOWN),
        ),
    ))]


def _rule_affine(scn):
    q = _affine_q(scn.group)
    if q is None:
        return []
    hyp = _abelian_over_q(scn, "Frobenius kernel", True)
    if hyp is None:
        return []
    return [("affine-family", (
        f"Gal(L/K) is the affine group of the field with {q} elements",
    ), (
        Statement("SSC(L/K) holds.",
                  (hyp,), (AFFINE_FAMILY, SSC_RATIONAL, SSC_ABELIAN_KERNEL)),
        Statement(f"ETNC_p(L/K, 0) holds for every prime p not dividing {q}.",
                  (hyp,), (AFFINE_FAMILY, FROB_KERNEL_HYBRID, BREAKDOWN_ABELIANIZED)),
    ))]


def _rule_dihedral(scn):
    n = _dihedral_odd_n(scn.group)
    if n is None or scn.p is None:
        return []
    if scn.base_field != "rationals":
        return []
    if not (scn.quadratic_subfield_imaginary and scn.p_coprime_to_class_number):
        return []
    hyps = (HYP_IMAGINARY, _hyp_class_number(scn.p))
    conditions = (f"Gal(L/Q) is dihedral of order {2 * n} with n = {n} odd",)
    if n % scn.p == 0:
        if scn.p == 2 or not scn.p_splits_in_quadratic_subfield:
            return []
        hyps += (_hyp_splits(scn.p),)
        conditions += (f"p = {scn.p} divides n and is odd",)
    return [("dihedral-imaginary-quadratic", conditions, (Statement(
        f"ETNC_{scn.p}(L/Q, 0) holds.", hyps,
        (DIHEDRAL_FAMILY, SSC_RATIONAL, SSC_IMAG_QUAD, ABELIAN_IMAG_QUAD,
         RES_DIHEDRAL, RESTRICTION_LIFT, DT_INVERSION),
    ),))]


def _rule_generic_zero(scn, table):
    """SSC from character rationality, then the good primes."""
    all_rat, nonlinear_rat = _rational_characters(table)
    hyps = ()
    chain = (SSC_RATIONAL,)
    conditions = ("every irreducible character is rational-valued",)
    if not all_rat:
        if not nonlinear_rat:
            return []
        hyp = _abelian_over_q(scn, "commutator subgroup", True)
        if hyp is None:
            return []
        hyps = (hyp,)
        chain = (SSC_RATIONAL, SSC_ABELIAN_KERNEL)
        conditions = (
            "every non-linear irreducible character is rational-valued",
            "linear characters factor through an extension abelian over Q",
        )
    order = scn.group.order
    out = [("rational-characters", conditions, (
        Statement("SSC(L/K) holds.", hyps, chain),
        Statement(f"ETNC_p(L/K, 0) holds for every prime p not dividing {order}.",
                  hyps, chain + (GOOD_PRIMES,)),
    ))]
    if scn.p is None or order % scn.p:
        return out
    # the reduction to the maximal-order part also needs the layer
    # fixed by the commutator subgroup to be known
    layer = _abelian_over_q(scn, "commutator subgroup", True)
    if layer is None:
        return out
    wh = weakly_hybrid(scn.group, scn.group.commutator_subgroup(), scn.p)
    if wh.verdict != "yes":
        return out
    if layer not in hyps:
        hyps = hyps + (layer,)
    out.append(("weak-hybrid-at-p", (
        f"the {scn.p}-adic group ring splits weakly at the commutator "
        "subgroup: " + wh.detail,
    ), (Statement(
        f"ETNC_{scn.p}(L/K, 0) holds.",
        hyps, chain + (BREAKDOWN_ABELIANIZED,) + wh.citations,
    ),)))
    return out


# -- rules at r < 0 --------------------------------------------------------


def _rule_frobenius_negative(scn):
    kernel = scn.group.frobenius_kernel()
    if kernel is None or not scn.totally_real or scn.r % 2 == 0:
        return []
    # G/N is a complement's isomorphic image, abelian exactly when G' <= N
    quotient_abelian = scn.group.commutator_subgroup() <= kernel
    hyp = _abelian_over_q(scn, "Frobenius kernel", quotient_abelian)
    if hyp is None:
        return []
    hyps = (HYP_TOTALLY_REAL, hyp)
    chain = (FROBENIUS_NEGATIVE, FROB_KERNEL_HYBRID, HYBRID_NEGATIVE,
             TOT_REAL_MAX)
    statements = (Statement(
        "ETNC_p(L/K, r) holds for every odd r < 0 and every prime p "
        f"not dividing {2 * len(kernel)}.",
        hyps, chain,
    ),)
    conditions = (
        f"Gal(L/K) is a Frobenius group with kernel of order {len(kernel)}",
        f"r = {scn.r} is odd and negative",
    )
    factors = prime_divisors(len(kernel))
    if len(factors) == 1:
        statements += (Statement(
            "ETNC(L/K, r) holds outside its 2-part for every odd r < 0.",
            hyps, chain + (MU_VANISHES,),
        ),)
        conditions += (f"the kernel is a {factors[0]}-group",)
    return [("frobenius-negative", conditions, statements)]


def _rule_hybrid_negative(scn):
    if scn.p is None or scn.p == 2 or not scn.totally_real:
        return []
    if scn.r % 2 == 0:
        return []
    hyp = _abelian_over_q(scn, "commutator subgroup", True)
    if hyp is None:
        return []
    wh = weakly_hybrid(scn.group, scn.group.commutator_subgroup(), scn.p)
    if wh.verdict != "yes":
        return []
    return [("weak-hybrid-totally-real-negative", (
        f"p = {scn.p} is odd",
        f"r = {scn.r} is odd and negative",
        f"the {scn.p}-adic group ring splits weakly at the commutator "
        "subgroup: " + wh.detail,
    ), (Statement(
        f"ETNC_{scn.p}(L/K, r) holds for every odd r < 0.",
        (HYP_TOTALLY_REAL, hyp),
        (HYBRID_NEGATIVE, TOT_REAL_MAX, BREAKDOWN_ABELIANIZED) + wh.citations,
    ),))]


# -- epsilon constant conjectures ------------------------------------------


def _epsilon_names(scn):
    if scn.conjecture == "local-epsilon":
        return ("The local epsilon constant conjecture",
                LOCAL_EPS_DT, LOCAL_EPS_HYBRID)
    return (f"The {scn.p}-part of the global epsilon constant conjecture",
            GLOBAL_EPS_DT, GLOBAL_EPS_HYBRID)


def _rule_epsilon(scn):
    name, dt_label, hybrid_label = _epsilon_names(scn)
    verdict = dt_query(scn.group, scn.p)
    if verdict.triviality() == "trivial":
        return [("epsilon-trivial-denominator", (
            f"DT of the {scn.p}-adic group ring is trivial",
        ), (Statement(
            f"{name} holds for L/K.", (), (dt_label,) + verdict.citations,
        ),))]
    for sub in sorted(normal_p_prime_subgroups(scn.group, scn.p), key=lambda s: (-len(s), sorted(s))):
        wh = weakly_hybrid(scn.group, sub, scn.p)
        if wh.verdict != "yes":
            continue
        quot, _ = scn.group.quotient(sub)
        return [("epsilon-weak-hybrid", (
            f"the {scn.p}-adic group ring splits weakly at a normal "
            f"subgroup of order {len(sub)}: " + wh.detail,
        ), (Statement(
            f"{name} holds for L/K if and only if it holds for the "
            f"degree-{quot.order} subextension fixed by a normal "
            f"subgroup of order {len(sub)}.",
            (), (hybrid_label,) + wh.citations,
        ),))]
    return []


def conjecture_report(scn: Scenario) -> ConjectureReport:
    """Derive every certifiable statement for the scenario.

    One pass over a fixed rule list; family rules that encode a full
    published conclusion suppress the generic fallbacks so a report
    never pads a sharp statement with weaker ones: the generic rule at
    r = 0 runs only when no family rule derives anything, and the weak
    hybrid rule at r < 0 only when the Frobenius rule derives nothing.
    A statement two rules derive is kept once, at its first derivation.
    Raises ValueError on scenarios outside the supported grammar.
    """
    _validate(scn)
    if scn.conjecture != "etnc":
        derivations = _rule_epsilon(scn)
    elif scn.r == 0:
        derivations = [d for rule in (_rule_s3, _rule_d12, _rule_s4, _rule_affine,
                                      _rule_dihedral) for d in rule(scn)]
        derivations = derivations or _rule_generic_zero(scn, character_table(scn.group))
    else:
        derivations = _rule_frobenius_negative(scn) or _rule_hybrid_negative(scn)
    unique = {}
    for _, _, statements in derivations:
        for s in statements:
            unique.setdefault(s.text, s)
    return ConjectureReport(scn, tuple(unique.values()), tuple(
        RuleApplication(rule, conditions, tuple(s.text for s in statements))
        for rule, conditions, statements in derivations
    ))
