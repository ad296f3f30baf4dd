"""The three seeded workloads: inputs, timed operations and output checks.

Operations call holring through module attributes (``rednorm.f``, not a
name imported once), so the traced run's wrappers see every call.

Each workload turns (seed, seconds) into plain-data inputs, then into a
list of operations.  An operation is a ``(run, check)`` pair: ``run`` is
the timed call into holring, ``check(result)`` is the untimed output
check and returns an error string or None.  Inputs follow a stratified
schedule: every cycle holds the same mix of cases, only the order and the
sampled data within a case change with the seed, so run time is steady
across seeds.  The number of cycles grows with ``seconds``, from a floor
that keeps at least 100 operations per run.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 1729
HERE = Path(__file__).resolve().parent
MIN_OPS = 100


def prime_divisors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def input_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _cycles(seconds: int, cycle_s: float, cycle_len: int, period: int = 1) -> int:
    """Cycles for about ``seconds`` of work: a multiple of ``period``, at
    least MIN_OPS operations."""
    floor = -(-MIN_OPS // (cycle_len * period))
    return period * max(floor, round(seconds / cycle_s / period))


def _spec(family, **params):
    return {"family": family, **params}


def _product(*factors):
    return {"family": "product", "factors": list(factors)}


# ------------------------------------------------------------ adjoint-small

# verify's norm suite, with the order of each group
NORM_SUITE = {
    "S3": (_spec("symmetric", n=3), 6),
    "D10": (_spec("dihedral", n=5), 10),
    "Q8": (_spec("quaternion"), 8),
    "S4": (_spec("symmetric", n=4), 24),
    "A4": (_spec("alternating", n=4), 12),
}


class AdjointSmall:
    name = "adjoint-small"
    # sizes 2 and 3 twice per cycle, so that the median and p90 fall inside
    # clusters of similar-cost operations rather than on a cost step
    cells = [(label, n) for label in NORM_SUITE for n in (1, 2, 2, 3, 3)]
    cycle_s = 1.2  # nominal seconds per cycle, checks included

    def make_inputs(self, seed, seconds):
        rng = random.Random(seed)
        out = []
        for _ in range(_cycles(seconds, self.cycle_s, len(self.cells))):
            for label, n in rng.sample(self.cells, len(self.cells)):
                order = NORM_SUITE[label][1]
                matrix = [
                    [[rng.randint(-3, 3) for _ in range(order)] for _ in range(n)]
                    for _ in range(n)
                ]
                out.append({"group": label, "matrix": matrix})
        return out

    def operations(self, inputs):
        from holring import chartable, groups as groups_mod, rednorm
        from holring.groupring import GroupRingElem, GroupRingMatrix

        groups = {label: groups_mod.from_spec(spec) for label, (spec, _) in NORM_SUITE.items()}
        for g in groups.values():
            chartable.character_table(g)

        def op(item):
            g = groups[item["group"]]
            h = GroupRingMatrix(g, [[GroupRingElem(g, c) for c in row] for row in item["matrix"]])

            def check(result):
                adj, nr = result
                scalar = GroupRingMatrix.scalar(g, h.n, nr.to_group_ring())
                if adj * h != scalar or h * adj != scalar:
                    return f"{item['group']} {h.n}x{h.n}: adj(H) H = H adj(H) = nr(H) fails"
                return None

            return (lambda: rednorm.adjoint_and_norm(h)), check

        return [op(item) for item in inputs]


# --------------------------------------------------------------- tables-cold

# strata of two groups of similar cost, from exponent-heavy cyclic and
# dihedral groups down to groups of order 6
STRATA = [
    [_spec("cyclic", n=18), _spec("cyclic", n=20)],
    [_spec("dihedral", n=15), _spec("dihedral", n=20)],
    [_spec("cyclic", n=12), _spec("cyclic", n=16)],
    [_spec("cyclic", n=10), _product(_spec("cyclic", n=2), _spec("cyclic", n=6))],
    [_spec("dihedral", n=14), _spec("dihedral", n=16)],
    [_spec("affine", q=7), _spec("affine", q=9)],
    [_spec("cyclic", n=11), _spec("dihedral", n=10)],
    [_spec("cyclic", n=9), _spec("metacyclic", l=13, p=3)],
    [_spec("symmetric", n=5), _product(_spec("cyclic", n=3), _spec("symmetric", n=3))],
    [_spec("alternating", n=5), _spec("frob72")],
    [_spec("dihedral", n=9), _spec("metacyclic", l=7, p=3)],
    [_spec("cyclic", n=7), _spec("inversion", orders=[7])],
    [_spec("symmetric", n=4), _spec("alternating", n=4)],
    [_spec("quaternion"), _spec("dihedral", n=5)],
    [_spec("affine", q=4), _spec("affine", q=5)],
    [_spec("symmetric", n=3), _spec("affine", q=3)],
]
CLOSED_FAMILIES = {"cyclic", "dihedral", "affine", "product"}
METHODS = ("auto", "auto", "generic")  # the generic method on one draw in three


class TablesCold:
    """Every cycle draws one (group, method) from each stratum without
    replacement, so each run holds every pair equally often and the seed
    sets which pairs share a cycle and the order of the operations."""

    name = "tables-cold"
    cycle_s = 1.6

    def make_inputs(self, seed, seconds):
        rng = random.Random(seed)
        period = 2 * len(METHODS)
        cycles = _cycles(seconds, self.cycle_s, len(STRATA), period)
        draws = []
        for members in STRATA:
            pool = [(spec, m) for spec in members for m in METHODS] * (cycles // period)
            rng.shuffle(pool)
            draws.append(pool)
        out = []
        for c in range(cycles):
            for s in rng.sample(range(len(STRATA)), len(STRATA)):
                spec, method = draws[s][c]
                out.append({"spec": spec, "method": method})
        return out

    def operations(self, inputs):
        from holring import blocks, chartable, dt, groups

        def op(item):
            spec, method = item["spec"], item["method"]

            def run():
                g = groups.from_spec(spec)
                t = chartable.character_table(g, method)
                per_prime = [
                    (blocks.padic_blocks(t, p), blocks.central_conductor(t, p), dt.dt_query(g, p))
                    for p in prime_divisors(g.order)
                ]
                return g, t, per_prime

            def check(result):
                g, t, _ = result
                degrees = [ch.degree for ch in t.characters]
                if len(degrees) != len(g.classes().sizes):
                    return f"{spec}: {len(degrees)} characters, {len(g.classes().sizes)} classes"
                if sum(d * d for d in degrees) != g.order:
                    return f"{spec}: sum of squared degrees is not |G| = {g.order}"
                if method == "generic" and spec["family"] in CLOSED_FAMILIES:
                    closed = chartable.character_table(g)
                    if Counter(ch.values for ch in closed.characters) != Counter(
                        ch.values for ch in t.characters
                    ):
                        return f"{spec}: closed and generic tables differ"
                return None

            return run, check

        return [op(item) for item in inputs]


# ---------------------------------------------------------------- cli-matrix

# (argv, takes --seed, what a run with another seed must still print):
# text outputs list required lines, JSON outputs map dotted keys to values
CLI_MATRIX = [
    (["chartab", "--family", "symmetric", "--n", "4"], False, None),
    (["chartab", "--family", "cyclic", "--n", "12", "--format", "json"], False, None),
    (["blocks", "--family", "alternating", "--n", "4", "--p", "3"], False, None),
    (["blocks", "--family", "affine", "--q", "5", "--p", "5", "--format", "json"], False, None),
    (["hybrid", "--family", "affine", "--q", "4", "--p", "3", "--normal", "commutator"], False, None),
    (["hybrid", "--family", "dihedral", "--n", "5", "--p", "2", "--normal", "5", "--format", "json"], False, None),
    (["conductor", "--family", "cyclic", "--n", "3", "--p", "3"], False, None),
    (["conductor", "--family", "symmetric", "--n", "4", "--p", "2", "--format", "json"], False, None),
    (["nr", "--family", "symmetric", "--n", "5"], True, ["consistent: true"]),
    (["nr", "--family", "alternating", "--n", "5", "--format", "json"], True, {"consistent": True}),
    (
        ["adjoint", "--family", "quaternion"],
        True,
        [
            "adjoint identity adj(H) H = H adj(H) = nr(H): true",
            "characteristic polynomial coefficients are algebraic integers: true",
        ],
    ),
    (
        ["adjoint", "--family", "symmetric", "--n", "3", "--format", "json"],
        True,
        {"identity_holds": True, "char_poly_coeffs_integral": True},
    ),
    (
        ["denom-cert", "--family", "symmetric", "--n", "3", "--p", "3", "--normal", "3"],
        True,
        ["verdict: certified_in"],
    ),
    (
        ["denom-cert", "--family", "dihedral", "--n", "5", "--p", "5", "--normal", "5", "--format", "json"],
        True,
        {"result.verdict": "certified_in"},
    ),
    (
        ["norm-ideal", "--family", "symmetric", "--n", "3", "--p", "2"],
        True,
        ["all norm values integral: true", "within the maximal-order center: true"],
    ),
    (
        ["norm-ideal", "--family", "affine", "--q", "3", "--p", "3", "--format", "json"],
        True,
        {
            "probe.all_values_integral": True,
            "probe.within_maximal_center": True,
            "probe.closed_form_consistent": True,
        },
    ),
    (["dt", "--family", "dihedral", "--n", "5", "--p", "2"], False, None),
    (["dt", "--family", "symmetric", "--n", "4", "--p", "2", "--format", "json"], False, None),
    (["report", "--family", "symmetric", "--n", "4", "--base", "rationals"], False, None),
    (["report", "--family", "affine", "--q", "8", "--format", "json"], False, None),
    (["verify-paper", "--only", "s4-norm-identities"], False, None),
    (
        ["verify-paper", "--only", "frobenius-kernel-induction", "--only", "char-poly-constant-term", "--format", "json"],
        False,
        None,
    ),
]
CLI_DIGESTS = HERE / "cli_digests.json"


def cli_argv_list(seed: int) -> list:
    """Every matrix entry once; sampled commands get --seed, 1729 by default."""
    rng = random.Random(seed)
    out = []
    for argv, seeded, _ in CLI_MATRIX:
        if seeded:
            cmd_seed = DEFAULT_SEED if seed == DEFAULT_SEED else rng.randrange(1, 2**31)
            argv = argv + ["--seed", str(cmd_seed)]
        out.append(argv)
    return out


def output_problems(stdout: str, expect) -> list:
    """Required lines or JSON values from ``expect`` that stdout lacks."""
    if isinstance(expect, dict):
        data = json.loads(stdout)
        missing = []
        for path, want in expect.items():
            node = data
            for key in path.split("."):
                node = node.get(key) if isinstance(node, dict) else None
            if node != want:
                missing.append(f"{path} = {node!r}, expected {want!r}")
        return missing
    lines = set(stdout.splitlines())
    return [f"missing line {line!r}" for line in expect if line not in lines]


class CliMatrix:
    name = "cli-matrix"
    cycle_s = 5.2
    timeout_s = 120

    def make_inputs(self, seed, seconds):
        rng = random.Random(seed)
        out = []
        for _ in range(_cycles(seconds, self.cycle_s, len(CLI_MATRIX))):
            rendered = cli_argv_list(seed if seed == DEFAULT_SEED else rng.randrange(2**31))
            out += [{"argv": argv} for argv in rng.sample(rendered, len(rendered))]
        return out

    def operations(self, inputs, trace_dir=None):
        digests = json.loads(CLI_DIGESTS.read_text())
        expects = {tuple(argv): expect for argv, _, expect in CLI_MATRIX}

        def op(i, item):
            argv = item["argv"]
            expect = expects[tuple(argv[:-2] if "--seed" in argv else argv)]
            cmd = [sys.executable, str(HERE / "cli_stub.py")]
            trace_file = None
            if trace_dir is not None:
                trace_file = Path(trace_dir) / f"cli-{i}.jsonl"
                cmd += ["--trace-out", str(trace_file)]

            def run():
                proc = subprocess.run(
                    cmd + argv, capture_output=True, text=True, timeout=self.timeout_s
                )
                return proc, trace_file

            def check(result):
                proc, _ = result
                key = " ".join(argv)
                if proc.returncode != 0:
                    return f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                if key in digests:
                    got = hashlib.sha256(proc.stdout.encode()).hexdigest()
                    return None if got == digests[key] else f"{key}: stdout digest changed"
                if expect is None:
                    return f"{key}: no recorded digest"
                problems = output_problems(proc.stdout, expect)
                return f"{key}: {'; '.join(problems)}" if problems else None

            return run, check

        return [op(i, item) for i, item in enumerate(inputs)]


WORKLOADS = {w.name: w for w in (AdjointSmall(), TablesCold(), CliMatrix())}
