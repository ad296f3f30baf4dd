"""Record or check the CLI output corpus in tests/data/cli_corpus.json.

The corpus maps each argv, joined with shlex, to the sha256 of its exit
code, stdout and stderr when `holring.cli.main` runs it in-process.  It
covers every subcommand in text and JSON, every family, three
--generators groups, `dt`, `hybrid` and `report` at 2, 3, 5, 7 and at
every prime dividing each order, `hybrid --normal` by commutator, by
kernel and by every divisor of the order, `report` flag combinations and
both epsilon conjectures, --budget 0 probes, and usage errors.  C2^7
given by --generators (29,212 normal subgroups) runs `dt` and both
epsilon reports at p = 2, and two --normal usage errors.  `chartab` on
abelian groups given by --generators, up to C3 x C4 x C5 x C7, `dt` on
that group, and `chartab` on inversion(45).  Each argv runs in 0.2 s or
less, but for those on C3 x C4 x C5 x C7; --write names any that does not.

    PYTHONPATH=src python tests/record_corpus.py          # list argv that differ
    PYTHONPATH=src python tests/record_corpus.py --write  # rewrite the file

A change that alters output on purpose reruns this with --write and
names each argv whose digest changed and why.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
import time
from pathlib import Path

from holring.cli import main as cli_main
from holring.cyclotomic import prime_divisors

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
SLOW_S = 0.2

# (group flags, order); the order only picks primes and divisors
GROUPS = [
    (["--family", "cyclic", "--n", "1"], 1),
    (["--family", "cyclic", "--n", "5"], 5),
    (["--family", "cyclic", "--n", "12"], 12),
    (["--family", "dihedral", "--n", "4"], 8),
    (["--family", "dihedral", "--n", "5"], 10),
    (["--family", "dihedral", "--n", "6"], 12),
    (["--family", "symmetric", "--n", "3"], 6),
    (["--family", "symmetric", "--n", "4"], 24),
    (["--family", "alternating", "--n", "4"], 12),
    (["--family", "alternating", "--n", "5"], 60),
    (["--family", "quaternion"], 8),
    (["--family", "affine", "--q", "3"], 6),
    (["--family", "affine", "--q", "4"], 12),
    (["--family", "affine", "--q", "5"], 20),
    (["--family", "affine", "--q", "7"], 42),
    (["--family", "affine", "--q", "8"], 56),
    (["--family", "affine", "--q", "9"], 72),
    (["--family", "inversion", "--n", "3"], 6),
    (["--family", "inversion", "--n", "4"], 8),
    (["--family", "inversion", "--n", "6"], 12),
    (["--family", "inversion", "--n", "15"], 30),
    (["--family", "metacyclic", "--n", "7", "--q", "3"], 21),
    (["--family", "metacyclic", "--n", "11", "--q", "5"], 55),
    (["--family", "frob72"], 72),
    (["--generators", "[[1,0,2,3],[0,1,3,2]]"], 4),
    (["--generators", "[[1,2,3,0],[0,3,2,1]]"], 8),
    (["--generators", "[[1,0,2,3],[1,2,3,0]]"], 24),
]

# `report` flags after the group: REPORT_AT_P with --p at 2, 3, 5, 7 and
# at every prime dividing the order, REPORT_AT_DIVIDING_P at the dividing
# primes only, and REPORT_NO_P without --p
REPORT_AT_P = [
    [],
    ["--conjecture", "local-epsilon"],
]
REPORT_AT_DIVIDING_P = [
    ["--r", "-1", "--totally-real", "--base", "rationals"],
    ["--conjecture", "global-epsilon"],
    ["--base", "rationals"],
]
REPORT_NO_P = [
    [],
    ["--format", "json"],
    ["--base", "rationals"],
    ["--abelian-fixed-field"],
    ["--r", "-1", "--totally-real"],
    ["--r", "-1", "--totally-real", "--abelian-fixed-field", "--format", "json"],
]
# the dihedral rule reads these flags, at p dividing n and not
REPORT_DIHEDRAL = [
    [*flags, "--p", p, "--base", "rationals", "--imaginary-quadratic",
     "--p-coprime-class-number", *splits]
    for flags in (["--family", "dihedral", "--n", "3"], ["--family", "dihedral", "--n", "5"])
    for p in ("2", "3", "5")
    for splits in ([], ["--p-splits"])
]

# C2^7 as seven disjoint transpositions on 14 points: an abelian 2-group,
# so every subgroup is normal, and at p = 2 only {1} is a normal p'-subgroup
C2_7 = ["--generators", json.dumps(
    [[j ^ 1 if j // 2 == i else j for j in range(14)] for i in range(7)],
    separators=(",", ":"),
)]
C2_7_ARGV = [
    [command, *C2_7, "--p", "2", *extra, *fmt]
    for command, extra in [
        ("dt", []),
        ("report", ["--conjecture", "local-epsilon"]),
        ("report", ["--conjecture", "global-epsilon"]),
    ]
    for fmt in ([], ["--format", "json"])
]


def _cyclic_factors(*orders) -> list:
    """--generators for C_n1 x C_n2 x ..., one cycle on points of its own
    per factor."""
    gens, start, total = [], 0, sum(orders)
    for n in orders:
        gens.append([start + (j - start + 1) % n if start <= j < start + n else j
                     for j in range(total)])
        start += n
    return ["--generators", json.dumps(gens, separators=(",", ":"))]


# abelian groups given by generators, up to order 420, and the inversion
# group of order 90
ABELIAN_ARGV = [
    *(["chartab", *_cyclic_factors(*orders), *fmt]
      for orders in ((3, 4, 5), (2, 4, 8)) for fmt in ([], ["--format", "json"])),
    ["chartab", *_cyclic_factors(3, 4, 5, 7)],
    ["dt", *_cyclic_factors(3, 4, 5, 7), "--p", "2"],
    ["chartab", "--family", "inversion", "--n", "45"],
    ["chartab", "--family", "inversion", "--n", "45", "--format", "json"],
]

SMALL = [
    ["--family", "cyclic", "--n", "4"],
    ["--family", "symmetric", "--n", "3"],
    ["--family", "quaternion"],
    ["--family", "dihedral", "--n", "5"],
    ["--family", "alternating", "--n", "4"],
    ["--family", "affine", "--q", "4"],
    ["--family", "inversion", "--n", "6"],
    ["--generators", "[[1,0,2,3],[0,1,3,2]]"],
]

# groups whose permutation character is 1 + chi: the large blocks of nr
# and adjoint read their polynomials off the augmentation module
MODULE_GROUPS = [
    ["--family", "symmetric", "--n", "4"],
    ["--generators", "[[1,0,2,3],[1,2,3,0]]"],
    ["--family", "affine", "--q", "5"],
    ["--family", "affine", "--q", "7"],
    ["--family", "affine", "--q", "8"],
    ["--family", "affine", "--q", "9"],
    ["--family", "metacyclic", "--n", "7", "--q", "6"],
    ["--family", "frob72"],
]

VERIFY_ONLY = [
    "group-structure",
    "affine-nonlinear-character",
    "frobenius-kernel-induction",
    "affine-singleton-blocks",
    "integral-idempotent-blocks",
    "hybrid-verdicts",
    "weakly-hybrid-verdicts",
    "regular-det-oracle",
    "char-poly-constant-term",
    "s4-norm-identities",
    "conductor-integral-blocks",
    "defect-zero-vanishing",
    "dt-facts",
    "report-goldens",
]

USAGE_ERRORS = [
    ["chartab"],
    ["chartab", "--family", "affine"],
    ["chartab", "--family", "quaternion", "--n", "8"],
    ["chartab", "--family", "affine", "--q", "6"],
    ["chartab", "--family", "cyclic", "--n", "3", "--generators", "[[1,0]]"],
    ["chartab", "--generators", "[[1,0],[0,1,2]]"],
    ["chartab", "--generators", "[[1,0]]", "--n", "3"],
    ["chartab", "--generators", "not json"],
    ["chartab", "--generators", "[[1.5,0]]"],
    ["chartab", "--generators", "[]"],
    ["chartab", "--generators", "[[1,1]]"],
    ["chartab", "--generators", "[[1,0,2,3,4,5,6],[1,2,3,4,5,6,0]]"],
    ["chartab", "--family", "cyclic", "--n", "2001"],
    ["chartab", "--family", "dihedral", "--n", "1001"],
    ["chartab", "--family", "inversion", "--n", "1001"],
    ["chartab", "--family", "affine", "--q", "47"],
    ["chartab", "--family", "symmetric", "--n", "7"],
    ["chartab", "--family", "cyclic", "--n", "0"],
    ["chartab", "--family", "metacyclic", "--n", "9", "--q", "2"],
    ["chartab", "--family", "metacyclic", "--n", "7", "--q", "4"],
    ["chartab", "--family", "metacyclic", "--n", "7", "--q", "1"],
    ["conductor", "--family", "cyclic", "--n", "3", "--p", "6"],
    ["blocks", "--family", "cyclic", "--n", "3", "--p", "1"],
    ["blocks", "--family", "cyclic", "--n", "3", "--p", "-3"],
    ["dt", "--family", "cyclic", "--n", "3", "--p", "0"],
    ["hybrid", "--family", "symmetric", "--n", "3", "--p", "2", "--normal", "foo"],
    ["hybrid", "--family", "symmetric", "--n", "4", "--p", "2", "--normal", "kernel"],
    ["denom-cert", "--family", "symmetric", "--n", "3", "--p", "3", "--normal", "2"],
    ["norm-ideal", "--family", "cyclic", "--n", "3", "--p", "3", "--budget", "-1"],
    ["denom-cert", "--family", "cyclic", "--n", "3", "--p", "3", "--budget", "-2"],
    ["report", "--family", "symmetric", "--n", "3", "--r", "1"],
    ["report", "--family", "symmetric", "--n", "3", "--conjecture", "local-epsilon"],
    ["report", "--family", "symmetric", "--n", "3", "--conjecture", "global-epsilon",
     "--p", "2", "--r", "-1"],
    ["report", "--family", "cyclic", "--n", "3", "--p", "4"],
    ["verify-paper", "--only", "no-such-check"],
    ["no-such-command"],
    ["chartab", "--family", "nonsense"],
    ["hybrid", "--family", "symmetric", "--n", "3", "--p", "2"],
    ["hybrid", *C2_7, "--p", "3", "--normal", "2"],
    ["denom-cert", *C2_7, "--p", "2", "--normal", "2"],
    *(["hybrid", "--family", "symmetric", "--n", "4", "--p", "3", "--normal", order]
      for order in ("0", "-4", "5")),
]


def corpus_argv() -> list:
    """Every argv of the corpus, in a fixed order."""
    out = []
    for flags, order in GROUPS:
        primes = prime_divisors(order)
        out.append(["chartab", *flags])
        out.append(["chartab", *flags, "--format", "json"])
        for i, p in enumerate(primes):
            fmt = ["--format", "json"] if i == 0 else []
            out.append(["blocks", *flags, "--p", str(p), *fmt])
            out.append(["conductor", *flags, "--p", str(p), *fmt])
        for p in sorted({2, 3, 5, 7} | set(primes)):
            fmt = ["--format", "json"] if p == 2 else []
            out.append(["dt", *flags, "--p", str(p), *fmt])
            normals = ["commutator", "kernel"]
            if p == (primes + [2])[0]:
                normals += [str(d) for d in range(1, order + 1) if order % d == 0]
            for normal in normals:
                out.append(["hybrid", *flags, "--p", str(p), "--normal", normal, *fmt])
            for extra in REPORT_AT_P + (REPORT_AT_DIVIDING_P if p in primes else []):
                out.append(["report", *flags, "--p", str(p), *extra, *fmt])
        for extra in REPORT_NO_P:
            out.append(["report", *flags, *extra])
    out.extend(["report", *flags] for flags in REPORT_DIHEDRAL)
    out.extend(C2_7_ARGV)
    out.extend(ABELIAN_ARGV)
    for flags in SMALL:
        for fmt in ([], ["--format", "json"]):
            out.append(["nr", *flags, *fmt])
            out.append(["nr", *flags, "--seed", "7", *fmt])
            out.append(["adjoint", *flags, *fmt])
            out.append(["denom-cert", *flags, "--p", "2", *fmt])
            out.append(["denom-cert", *flags, "--p", "2", "--normal", "commutator", *fmt])
            out.append(["norm-ideal", *flags, "--p", "2", "--budget", "0", *fmt])
            out.append(["norm-ideal", *flags, "--p", "3", "--budget", "4", *fmt])
    for flags in MODULE_GROUPS:
        for fmt in ([], ["--format", "json"]):
            out.append(["nr", *flags, *fmt])
            out.append(["nr", *flags, "--seed", "7", *fmt])
            out.append(["adjoint", *flags, *fmt])
    # the structured witnesses alone, on groups with a block of degree 3
    for flags, p in [
        (["--family", "symmetric", "--n", "4"], 2),
        (["--family", "symmetric", "--n", "4"], 3),
        (["--family", "affine", "--q", "8"], 2),
        (["--family", "affine", "--q", "8"], 7),
    ]:
        for fmt in ([], ["--format", "json"]):
            out.append(["denom-cert", *flags, "--p", str(p), "--budget", "0", *fmt])
            out.append(["norm-ideal", *flags, "--p", str(p), "--budget", "0", *fmt])
    for name in VERIFY_ONLY:
        out.append(["verify-paper", "--only", name])
        out.append(["verify-paper", "--only", name, "--format", "json"])
    out.extend(USAGE_ERRORS)
    return out


def run_argv(argv: list) -> tuple:
    """(exit code, stdout, stderr) of `holring.cli.main(argv)` in-process;
    argparse's own usage errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argv: list) -> str:
    code, out, err = run_argv(argv)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def load() -> dict:
    return json.loads(CORPUS.read_text())


def main(args) -> int:
    if args not in ([], ["--write"]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if args == ["--write"]:
        corpus, slow = {}, []
        for argv in corpus_argv():
            start = time.perf_counter()
            corpus[shlex.join(argv)] = digest(argv)
            seconds = time.perf_counter() - start
            if seconds > SLOW_S:
                slow.append(f"{seconds:.2f} s  {shlex.join(argv)}")
        CORPUS.parent.mkdir(exist_ok=True)
        CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(corpus)} argv to {CORPUS}")
        for line in slow:
            print(f"slower than {SLOW_S} s: {line}")
        return 0
    differ = [key for key, want in load().items() if digest(shlex.split(key)) != want]
    for key in differ:
        print(key)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
