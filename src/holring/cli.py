"""Command-line front end wiring the modules into reproducible analyses.

Every subcommand resolves one analysis request: a group (from
--family plus its size parameter, or --generators), usually a prime,
and for some commands a normal-subgroup selector, a sampling seed,
and a sampling budget.  All sampling derives from --seed (default
1729), output is emitted in canonical order with sorted JSON keys,
and no timestamps or machine state leak in, so identical (argv, seed)
pairs produce byte-identical output.

Exit codes: 0 on success, 1 when a verification-style command finds a
failure (verify-paper check failures, a broken self-check in nr or
adjoint, a norm-ideal probe contradicting its closed form) or when the
reader closes stdout before the output is written, 2 on usage errors,
bad family parameters included (--n below 1, a metacyclic --n that is
not a prime, a metacyclic --q below 2 or not dividing --n - 1) and
--generators that permute different 0..d-1 or come with --n or --q.
"""

import argparse
import json
import math
import os
import random
import sys

from .blocks import (
    HYBRID_CRITERION,
    central_conductor,
    hybrid_report,
    padic_blocks,
)
from .chartable import character_table
from .citations import statement
from .cyclotomic import is_prime
from .dt import dt_query, maximality_consequence, weakly_hybrid
from .groupring import (
    CentralElement,
    GroupRingElem,
    GroupRingMatrix,
    random_integral_element,
    random_integral_matrix,
    regular_det,
)
from .groups import FiniteGroup, from_spec, group_name
from .rednorm import (
    ADJOINT_IDENTITY,
    SEED,
    adjoint_norm_and_polys,
    denominator_membership,
    norm_ideal_probe,
    reduced_norm,
)
from .reports import Scenario, conjecture_report
from .verify import run_checks

SCHEMA = "holring/1"

# which of --n / --q each family consumes
FAMILY_PARAMS = {
    "cyclic": ("n",),
    "dihedral": ("n",),
    "symmetric": ("n",),
    "alternating": ("n",),
    "quaternion": (),
    "affine": ("q",),
    "inversion": ("n",),
    "metacyclic": ("n", "q"),
    "frob72": (),
}
FAMILIES = tuple(FAMILY_PARAMS)


class UsageError(Exception):
    pass


def _build_group(args) -> FiniteGroup:
    gens = getattr(args, "generators", None)
    family = getattr(args, "family", None)
    if gens:
        if family:
            raise UsageError("give either --family or --generators, not both")
        for key in ("n", "q"):
            if getattr(args, key, None) is not None:
                raise UsageError(f"--generators does not take --{key}")
        try:
            perms = json.loads(gens)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--generators is not valid JSON: {exc}")
        if (
            not isinstance(perms, list)
            or not perms
            or not all(isinstance(p, list) for p in perms)
        ):
            raise UsageError("--generators must be a JSON list of permutations")
        try:
            return from_spec({"generators": perms})
        except ValueError as exc:
            raise UsageError(str(exc))
    if not family:
        raise UsageError("select a group with --family or --generators")
    needed = FAMILY_PARAMS[family]
    for key in ("n", "q"):
        if getattr(args, key, None) is not None and key not in needed:
            raise UsageError(f"--family {family} does not take --{key}")
    spec = {"family": family}
    for key in needed:
        value = getattr(args, key, None)
        if value is None:
            raise UsageError(f"--family {family} needs --{key}")
        spec[key] = value
    if family == "inversion":
        spec = {"family": "inversion", "orders": [args.n]}
    elif family == "metacyclic":
        spec = {"family": "metacyclic", "l": args.n, "p": args.q}
    try:
        return from_spec(spec)
    except (ValueError, AssertionError) as exc:
        raise UsageError(str(exc))


def _prime_arg(args) -> int:
    p = args.p
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise UsageError(f"--p: {exc}")
    if not prime:
        raise UsageError(f"--p must be a prime, got {p}")
    return p


def _budget_arg(args, default: int) -> int:
    if args.budget is None:
        return default
    if args.budget < 0:
        raise UsageError(f"--budget must be a non-negative integer, got {args.budget}")
    return args.budget


def _normal_ids(g: FiniteGroup, selector: str) -> frozenset:
    """Resolve --normal: 'commutator', 'kernel', or a subgroup order."""
    if selector == "commutator":
        return g.commutator_subgroup().element_ids
    if selector == "kernel":
        kernel = g.meta.get("kernel")
        if kernel is None:
            raise UsageError("this group carries no distinguished kernel; use an order or 'commutator'")
        return frozenset(kernel)
    try:
        order = int(selector)
    except ValueError:
        raise UsageError(f"--normal must be 'commutator', 'kernel', or a subgroup order, got {selector!r}")
    matches = [s for s in g.normal_subgroups() if s.order == order]
    if not matches:
        raise UsageError(f"no normal subgroup of order {order}")
    if len(matches) > 1:
        raise UsageError(
            f"{len(matches)} normal subgroups of order {order}; "
            "select by 'commutator' or 'kernel' instead"
        )
    return matches[0].element_ids


def _citation_lines(labels) -> list:
    seen = []
    for label in labels:
        if label not in seen:
            seen.append(label)
    if not seen:
        return []
    lines = ["citations:"]
    for label in seen:
        lines.append(f"  {label}: {statement(label)}")
    return lines


def _bool(x) -> str:
    return "true" if x else "false"


# ----------------------------------------------------------- subcommands


def _cmd_chartab(args):
    g = _build_group(args)
    t = character_table(g)
    payload = {"command": "chartab", "name": group_name(g), "table": t.to_jsonable(g)}
    cls = g.classes()
    lines = [
        f"group: {group_name(g)}",
        f"order: {g.order}",
        "class sizes: " + ", ".join(str(s) for s in cls.sizes),
        "class element orders: "
        + ", ".join(str(g.element_order(r)) for r in cls.representatives),
    ]
    for i, ch in enumerate(t.characters):
        values = ", ".join(v.to_text() for v in ch.values)
        lines.append(f"chi{i} (degree {ch.degree}): {values}")
    return payload, lines, 0


def _cmd_blocks(args):
    g = _build_group(args)
    p = _prime_arg(args)
    blocks = padic_blocks(character_table(g), p)
    payload = {
        "command": "blocks",
        "name": group_name(g),
        "order": g.order,
        "p": p,
        "blocks": [b.to_jsonable() for b in blocks],
    }
    lines = [f"group: {group_name(g)}", f"order: {g.order}", f"p: {p}"]
    for i, b in enumerate(blocks):
        chars = ", ".join(str(c) for c in b.char_indices)
        lines.append(
            f"block {i}: characters [{chars}], degree {b.degree}, "
            f"residue degree {b.residue_degree}, ramification {b.ram_index}, "
            f"integral idempotent: {_bool(b.idempotent_integral)}"
        )
    return payload, lines, 0


def _cmd_hybrid(args):
    g = _build_group(args)
    p = _prime_arg(args)
    nids = _normal_ids(g, args.normal)
    rep = hybrid_report(g, nids, p)
    wh = weakly_hybrid(g, nids, p)
    payload = {
        "command": "hybrid",
        "name": group_name(g),
        "order": g.order,
        "p": p,
        "normal_order": len(nids),
        "report": rep.to_jsonable(),
        "weakly": wh.to_jsonable(),
    }
    lines = [
        f"group: {group_name(g)}",
        f"order: {g.order}",
        f"p: {p}",
        f"normal subgroup: order {len(nids)} ({args.normal})",
        f"hybrid: {_bool(rep.is_hybrid)}",
    ]
    if rep.is_hybrid:
        lines.append(f"decomposition: {rep.quotient_order_desc}")
    elif rep.witness is not None:
        ch = character_table(g).characters[rep.witness]
        lines.append(f"witness character: index {rep.witness}, degree {ch.degree}")
    lines.append(f"weakly hybrid: {wh.verdict}")
    lines += _citation_lines((HYBRID_CRITERION,) + tuple(wh.citations))
    return payload, lines, 0


def _cmd_conductor(args):
    g = _build_group(args)
    p = _prime_arg(args)
    pairs = central_conductor(character_table(g), p)
    nonzero = [(b, e) for b, e in pairs if e]
    payload = {
        "command": "conductor",
        "name": group_name(g),
        "order": g.order,
        "p": p,
        "maximal": not nonzero,
        "exponent_unit": "valuation in each block's local uniformizer",
        "blocks": [dict(b.to_jsonable(), exponent=e) for b, e in nonzero],
    }
    lines = [f"group: {group_name(g)}", f"order: {g.order}", f"p: {p}"]
    if not nonzero:
        lines.append("maximal: true")
    else:
        lines.append("maximal: false")
        lines.append("exponents count powers of each block's local uniformizer")
        for b, e in nonzero:
            chars = ", ".join(str(c) for c in b.char_indices)
            lines.append(
                f"block (characters [{chars}], degree {b.degree}): exponent {e}"
            )
    return payload, lines, 0


def _cmd_nr(args):
    g = _build_group(args)
    t = character_table(g)
    rng = random.Random(args.seed)
    h = random_integral_element(g, rng)
    nr = reduced_norm(GroupRingMatrix(g, [[h]]))
    prod = math.prod(v**ch.degree for ch, v in zip(t.characters, nr.values))
    det = regular_det(h)
    ok = prod == det
    payload = {
        "command": "nr",
        "name": group_name(g),
        "seed": args.seed,
        "element": list(h.coeffs),
        "norm_values": [v.to_text() for v in nr.values],
        "regular_det": str(det),
        "consistent": ok,
    }
    lines = [
        f"group: {group_name(g)}",
        f"seed: {args.seed}",
        "element coefficients: " + ", ".join(str(c) for c in h.coeffs),
    ]
    for i, v in enumerate(nr.values):
        lines.append(f"nr chi{i}: {v.to_text()}")
    lines.append(f"regular determinant: {det}")
    lines.append(f"consistent: {_bool(ok)}")
    return payload, lines, 0 if ok else 1


def _cmd_adjoint(args):
    g = _build_group(args)
    rng = random.Random(args.seed)
    n = 2
    h = random_integral_matrix(g, n, rng)
    adj, nr, polys = adjoint_norm_and_polys(h)
    scalar = GroupRingMatrix.scalar(g, n, nr.to_group_ring())
    identity = adj * h == scalar and h * adj == scalar
    # maximal-order membership certificate: every reduced characteristic
    # polynomial of an integral matrix has algebraic-integer coefficients
    integral = all(v.den == 1 for poly in polys for v in poly.coeffs)
    ok = identity and integral
    payload = {
        "command": "adjoint",
        "name": group_name(g),
        "seed": args.seed,
        "size": n,
        "identity_holds": identity,
        "char_poly_coeffs_integral": integral,
        "norm_values": [v.to_text() for v in nr.values],
    }
    lines = [
        f"group: {group_name(g)}",
        f"seed: {args.seed}",
        f"matrix size: {n}",
        f"adjoint identity adj(H) H = H adj(H) = nr(H): {_bool(identity)}",
        f"characteristic polynomial coefficients are algebraic integers: {_bool(integral)}",
    ]
    lines += _citation_lines((ADJOINT_IDENTITY,))
    return payload, lines, 0 if ok else 1


def _cmd_denom_cert(args):
    g = _build_group(args)
    p = _prime_arg(args)
    budget = _budget_arg(args, 36)
    if args.normal:
        nids = _normal_ids(g, args.normal)
        elem = GroupRingElem.zero(g)
        for x in sorted(nids):
            elem = elem + GroupRingElem.basis(g, x)
        x = CentralElement.from_group_ring(elem)
        described = f"sum of the {len(nids)} elements of the selected normal subgroup"
    else:
        x = CentralElement.one(g)
        described = "the identity"
    verdict = denominator_membership(x, p, budget=budget, seed=args.seed)
    payload = {
        "command": "denom-cert",
        "name": group_name(g),
        "p": p,
        "x": described,
        "budget": budget,
        "result": verdict.to_jsonable(),
    }
    lines = [
        f"group: {group_name(g)}",
        f"p: {p}",
        f"x: {described}",
        f"verdict: {verdict.kind}",
        f"reason: {verdict.reason}",
    ]
    if verdict.samples:
        lines.append(f"samples: {verdict.samples}")
    lines += _citation_lines(verdict.citations)
    return payload, lines, 0


def _cmd_norm_ideal(args):
    g = _build_group(args)
    p = _prime_arg(args)
    budget = _budget_arg(args, 24)
    probe = norm_ideal_probe(g, p, budget=budget, seed=args.seed)
    payload = {
        "command": "norm-ideal",
        "name": group_name(g),
        "probe": probe.to_jsonable(),
    }
    lines = [
        f"group: {group_name(g)}",
        f"order: {g.order}",
        f"p: {p}",
        f"sampled norms: {probe.structured} structured + {probe.sampled} random",
        f"all norm values integral: {_bool(probe.all_values_integral)}",
        f"contains the center: {_bool(probe.contains_center)}",
        f"within the maximal-order center: {_bool(probe.within_maximal)}",
        f"equals the maximal-order center: {_bool(probe.equals_maximal)}",
        f"index in the maximal-order center: p^{probe.index_in_maximal}"
        if probe.within_maximal
        else "index in the maximal-order center: infinite",
    ]
    if probe.closed_form is not None:
        lines.append(f"closed form: {probe.closed_form}")
        lines.append(f"consistent with closed form: {_bool(probe.closed_form_ok)}")
    lines += _citation_lines(probe.citations)
    failed = probe.closed_form_ok is False
    return payload, lines, 1 if failed else 0


def _cmd_dt(args):
    g = _build_group(args)
    p = _prime_arg(args)
    assertion = dt_query(g, p)
    consequence = maximality_consequence(g, p, assertion)
    payload = {
        "command": "dt",
        "name": group_name(g),
        "order": g.order,
        "p": p,
        "assertion": assertion.to_jsonable(),
        "consequence": consequence,
    }
    if assertion.kind == "cyclic":
        shown = "trivial" if assertion.size == 1 else f"cyclic of order {assertion.size}"
    elif assertion.kind == "order":
        shown = f"order {assertion.size}"
    else:
        shown = assertion.kind
    lines = [
        f"group: {group_name(g)}",
        f"order: {g.order}",
        f"p: {p}",
        f"dt: {shown}",
        f"ring is maximal: {_bool(consequence['ring_is_maximal'])}",
        f"consistent with block data: {_bool(consequence['consistent'])}",
    ]
    for note in assertion.derivation:
        lines.append(f"  via {note}")
    lines += _citation_lines(assertion.citations)
    return payload, lines, 0


def _cmd_report(args):
    g = _build_group(args)
    p = None
    if args.p is not None:
        p = _prime_arg(args)
    try:
        scenario = Scenario(
            group=g,
            conjecture=args.conjecture,
            r=args.r,
            p=p,
            base_field=args.base,
            totally_real=args.totally_real,
            quadratic_subfield_imaginary=args.imaginary_quadratic,
            p_splits_in_quadratic_subfield=args.p_splits,
            p_coprime_to_class_number=args.p_coprime_class_number,
            fixed_field_abelian=args.abelian_fixed_field,
        )
        rep = conjecture_report(scenario)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"command": "report", "name": group_name(g), "report": rep.to_jsonable()}
    lines = [
        f"group: {group_name(g)}",
        f"conjecture: {args.conjecture}, r = {args.r}, base field: {args.base}"
        + (f", p = {p}" if p is not None else ""),
    ]
    if not rep.statements:
        lines.append("no statements derivable for this scenario")
    labels: list = []
    for s in rep.statements:
        lines.append(f"statement: {s.text}")
        for hyp in s.hypotheses:
            lines.append(f"  assuming {hyp}")
        lines.append("  cites: " + ", ".join(s.citations))
        labels += list(s.citations)
    for step in rep.derivation:
        lines.append(f"rule {step.rule}: {len(step.produced)} statement(s)")
    lines += _citation_lines(labels)
    return payload, lines, 0


def _cmd_verify_paper(args):
    try:
        results = run_checks(names=args.only or None)
    except ValueError as exc:
        raise UsageError(str(exc))
    ok = all(r.passed for r in results)
    payload = {
        "command": "verify-paper",
        "passed": ok,
        "checks": [r.to_jsonable() for r in results],
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        cites = f" [cites: {', '.join(r.citations)}]" if r.citations else ""
        lines.append(f"{mark} {r.name}: {r.detail}{cites}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return payload, lines, 0 if ok else 1


_HANDLERS = {
    "chartab": _cmd_chartab,
    "blocks": _cmd_blocks,
    "hybrid": _cmd_hybrid,
    "conductor": _cmd_conductor,
    "nr": _cmd_nr,
    "adjoint": _cmd_adjoint,
    "denom-cert": _cmd_denom_cert,
    "norm-ideal": _cmd_norm_ideal,
    "dt": _cmd_dt,
    "report": _cmd_report,
    "verify-paper": _cmd_verify_paper,
}


# ---------------------------------------------------------------- parsing


def _add_group_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=FAMILIES, help="catalog family of the group")
    p.add_argument(
        "--n",
        type=int,
        help="size parameter: order for cyclic and inversion, half-order index for "
        "dihedral, letters for symmetric/alternating, first metacyclic parameter",
    )
    p.add_argument(
        "--q",
        type=int,
        help="prime power for affine, second metacyclic parameter",
    )
    p.add_argument(
        "--generators",
        help="JSON list of permutations of 0..d-1 generating the group",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holring",
        description="Exact p-adic block, norm, and conductor analysis of "
        "integral group rings of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_, group=True, prime=False, normal=None, seed=False, budget=False):
        p = sub.add_parser(name, help=help_, description=help_)
        if group:
            _add_group_flags(p)
        if prime:
            p.add_argument("--p", type=int, required=True, help="the prime to localize at")
        if normal is not None:
            p.add_argument(
                "--normal",
                required=normal,
                help="normal subgroup: 'commutator', 'kernel', or a subgroup order",
            )
        if seed:
            p.add_argument(
                "--seed",
                type=int,
                default=SEED,
                help="seed for sampled analyses (default 1729)",
            )
        if budget:
            p.add_argument("--budget", type=int, help="number of sampled matrices")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )
        return p

    add("chartab", "print the character table")
    add("blocks", "decompose the p-adic group algebra into blocks", prime=True)
    add("hybrid", "test the hybrid splitting for a normal subgroup", prime=True, normal=True)
    add("conductor", "central conductor exponents of the maximal order", prime=True)
    add("nr", "reduced norm of a seeded element, checked against the regular determinant", seed=True)
    add("adjoint", "generalized adjoint of a seeded matrix and its norm identity", seed=True)
    add(
        "denom-cert",
        "denominator-ideal membership certificate for a central element",
        prime=True,
        normal=False,
        seed=True,
        budget=True,
    )
    add("norm-ideal", "lattice generated by sampled reduced norms", prime=True, seed=True, budget=True)
    add("dt", "strongest derivable torsion assertion for the group ring", prime=True)
    rep = add("report", "derive conjecture statements for a scenario")
    rep.add_argument("--p", type=int, help="pin a prime for the scenario")
    rep.add_argument(
        "--conjecture",
        choices=("etnc", "local-epsilon", "global-epsilon"),
        default="etnc",
    )
    rep.add_argument("--r", type=int, default=0, help="integer argument (0 or negative)")
    rep.add_argument(
        "--base",
        choices=("any", "rationals"),
        default="any",
        help="base field K of the scenario",
    )
    rep.add_argument(
        "--totally-real",
        action="store_true",
        help="assert that L and K are totally real",
    )
    rep.add_argument(
        "--imaginary-quadratic",
        action="store_true",
        help="assert that the quadratic subfield is imaginary",
    )
    rep.add_argument(
        "--p-splits",
        action="store_true",
        help="assert that p splits in the quadratic subfield",
    )
    rep.add_argument(
        "--p-coprime-class-number",
        action="store_true",
        help="assert that p does not divide the relevant class number",
    )
    rep.add_argument(
        "--abelian-fixed-field",
        action="store_true",
        help="assert that the fixed field of the named normal subgroup is abelian over the rationals",
    )
    vp = add("verify-paper", "run the built-in reproduction suite", group=False)
    vp.add_argument(
        "--only",
        action="append",
        metavar="CHECK",
        help="run only the named check (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"holring: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say `holring ... | head -1`); point the
        # descriptor at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
