"""End-to-end command-line behavior: output lines, JSON schema, exit codes."""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holring import rednorm
from holring.cli import SCHEMA, build_parser, main
from record_corpus import load as load_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    return code, payload


# -- group selection -------------------------------------------------------


def test_family_with_missing_parameter_is_usage_error(capsys):
    code, out, err = run(capsys, "chartab", "--family", "affine")
    assert code == 2
    assert "needs --q" in err


def test_family_with_extra_parameter_is_usage_error(capsys):
    code, out, err = run(capsys, "chartab", "--family", "quaternion", "--n", "8")
    assert code == 2
    assert "does not take --n" in err


@pytest.mark.parametrize("q", ["0", "1", "6", "12"])
def test_affine_order_not_a_prime_power_is_usage_error(capsys, q):
    code, out, err = run(capsys, "chartab", "--family", "affine", "--q", q)
    assert code == 2
    assert out == ""
    assert f"{q} is not a prime power" in err


def test_family_and_generators_conflict(capsys):
    code, out, err = run(
        capsys, "chartab", "--family", "cyclic", "--n", "3",
        "--generators", "[[1,0]]",
    )
    assert code == 2


def test_generators_build_a_group(capsys):
    # [1,0,2] and [1,2,0] generate all of Sym(3)
    code, out, err = run(capsys, "chartab", "--generators", "[[1,0,2],[1,2,0]]")
    assert code == 0
    assert "order: 6" in out
    assert "chi2 (degree 2)" in out


@pytest.mark.parametrize("perms", ["[[1,0],[0,2,1]]", "[[0,2,1],[1,0]]"])
def test_generators_of_mixed_degrees_are_usage_error(capsys, perms):
    code, out, err = run(capsys, "chartab", "--generators", perms)
    assert code == 2
    assert out == ""
    assert "got degrees 2, 3" in err


@pytest.mark.parametrize("flag", ["--n", "--q"])
def test_generators_with_size_parameter_are_usage_error(capsys, flag):
    code, out, err = run(capsys, "chartab", "--generators", "[[1,0]]", flag, "3")
    assert code == 2
    assert out == ""
    assert f"--generators does not take {flag}" in err


@pytest.mark.parametrize("perms", ["[[1.0,0]]", '[[1,0,"x"]]', "[[1,0],[true,false]]"])
def test_generators_with_non_integer_entries_are_usage_error(capsys, perms):
    code, out, err = run(capsys, "chartab", "--generators", perms)
    assert code == 2
    assert out == ""
    assert "permutation entries must be integers" in err


def test_generators_reject_bad_json(capsys):
    code, out, err = run(capsys, "chartab", "--generators", "not json")
    assert code == 2


def test_missing_group_is_usage_error(capsys):
    code, out, err = run(capsys, "chartab")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- chartab ---------------------------------------------------------------


def test_chartab_s3_text(capsys):
    code, out, err = run(capsys, "chartab", "--family", "symmetric", "--n", "3")
    assert code == 0
    assert "class sizes: 1, 3, 2" in out
    assert "chi0 (degree 1): 1, 1, 1" in out
    assert "chi2 (degree 2): 2, 0, -1" in out


def test_chartab_json_shape(capsys):
    code, payload = run_json(capsys, "chartab", "--family", "cyclic", "--n", "4")
    assert code == 0
    table = payload["table"]
    assert len(table["characters"]) == 4
    assert [ch["degree"] for ch in table["characters"]] == [1, 1, 1, 1]


# -- blocks and conductor --------------------------------------------------


def test_blocks_a4_at_three(capsys):
    code, out, err = run(
        capsys, "blocks", "--family", "alternating", "--n", "4", "--p", "3"
    )
    assert code == 0
    assert "integral idempotent: true" in out
    assert out.count("block ") == 3


def test_conductor_c3_at_3_json_lists_two_blocks(capsys):
    code, payload = run_json(
        capsys, "conductor", "--family", "cyclic", "--n", "3", "--p", "3"
    )
    assert code == 0
    assert payload["maximal"] is False
    assert len(payload["blocks"]) == 2
    assert [b["exponent"] for b in payload["blocks"]] == [1, 1]


def test_conductor_prime_coprime_to_order_is_maximal(capsys):
    code, out, err = run(
        capsys, "conductor", "--family", "cyclic", "--n", "3", "--p", "5"
    )
    assert code == 0
    assert "maximal: true" in out


def test_nonprime_p_is_usage_error(capsys):
    code, out, err = run(
        capsys, "conductor", "--family", "cyclic", "--n", "3", "--p", "6"
    )
    assert code == 2
    assert "prime" in err


# -- hybrid ----------------------------------------------------------------


def test_hybrid_affine_four_at_three(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "affine", "--q", "4",
        "--p", "3", "--normal", "commutator",
    )
    assert code == 0
    assert "hybrid: true" in out
    assert "citations:" in out


def test_hybrid_affine_four_at_two(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "affine", "--q", "4",
        "--p", "2", "--normal", "commutator",
    )
    assert code == 0
    assert "hybrid: false" in out
    assert "witness character" in out


def test_hybrid_normal_by_order(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "symmetric", "--n", "4",
        "--p", "3", "--normal", "4",
    )
    assert code == 0
    assert "hybrid: true" in out


def test_hybrid_normal_by_kernel(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "affine", "--q", "5",
        "--p", "2", "--normal", "kernel",
    )
    assert code == 0
    assert "hybrid: true" in out


def test_normal_selector_without_match_is_usage_error(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "symmetric", "--n", "3",
        "--p", "2", "--normal", "5",
    )
    assert code == 2
    assert "no normal subgroup of order 5" in err


def test_kernel_selector_without_kernel_is_usage_error(capsys):
    code, out, err = run(
        capsys, "hybrid", "--family", "symmetric", "--n", "3",
        "--p", "2", "--normal", "kernel",
    )
    assert code == 2


# -- sampled commands ------------------------------------------------------


def test_nr_self_check_passes(capsys):
    code, out, err = run(capsys, "nr", "--family", "symmetric", "--n", "3")
    assert code == 0
    assert "consistent: true" in out
    assert "seed: 1729" in out


def test_adjoint_self_check_passes(capsys):
    code, out, err = run(capsys, "adjoint", "--family", "quaternion")
    assert code == 0
    assert "adjoint identity" in out and ": true" in out


def test_adjoint_forms_the_powers_of_h_once(capsys, monkeypatch):
    calls = []
    inner = rednorm._polys_and_powers

    def counted(h):
        calls.append(h)
        return inner(h)

    monkeypatch.setattr(rednorm, "_polys_and_powers", counted)
    code, out, err = run(capsys, "adjoint", "--family", "quaternion")
    assert code == 0 and "identity" in out
    assert len(calls) == 1


def test_denom_cert_identity_certifies(capsys):
    code, payload = run_json(
        capsys, "denom-cert", "--family", "symmetric", "--n", "3", "--p", "2"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "certified_in"


def test_denom_cert_with_normal_subgroup_samples(capsys):
    code, out, err = run(
        capsys, "denom-cert", "--family", "symmetric", "--n", "4",
        "--p", "2", "--normal", "4", "--budget", "6",
    )
    assert code == 0
    assert "verdict: sampled_no_counterexample" in out


def test_norm_ideal_s4_at_two(capsys):
    code, payload = run_json(
        capsys, "norm-ideal", "--family", "symmetric", "--n", "4",
        "--p", "2", "--budget", "8",
    )
    assert code == 0
    probe = payload["probe"]
    assert probe["closed_form"] == "sandwich-2"
    assert probe["closed_form_consistent"] is True


def test_norm_ideal_d16_at_two_with_wild_ramification(capsys):
    # Q(sqrt 2) is wildly ramified at 2; the maximal center still
    # contains the group ring's center, so the index is finite
    code, out, err = run(capsys, "norm-ideal", "--family", "dihedral", "--n", "8", "--p", "2")
    assert (code, err) == (0, "")
    assert "contains the center: true" in out
    assert "within the maximal-order center: true" in out


@pytest.mark.parametrize("command", ["norm-ideal", "denom-cert"])
def test_negative_budget_is_usage_error(capsys, command):
    code, out, err = run(
        capsys, command, "--family", "symmetric", "--n", "3",
        "--p", "3", "--budget", "-1",
    )
    assert code == 2
    assert out == ""
    assert "--budget must be a non-negative integer" in err


def test_closed_stdout_exits_quietly():
    # the reading end is closed before the command writes a byte, so
    # every write to stdout fails with a broken pipe
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "holring.cli", "chartab", "--family", "symmetric", "--n", "5"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.stderr == ""
    assert proc.returncode == 1


# -- dt --------------------------------------------------------------------


def test_dt_d10_at_two_is_trivial_with_citation(capsys):
    code, out, err = run(capsys, "dt", "--family", "dihedral", "--n", "5", "--p", "2")
    assert code == 0
    assert "dt: trivial" in out
    assert "dt-inversion-trivial" in out


def test_dt_cyclic_prime(capsys):
    code, out, err = run(capsys, "dt", "--family", "cyclic", "--n", "5", "--p", "5")
    assert code == 0
    assert "dt: cyclic of order 4" in out


def test_dt_json_carries_consequence(capsys):
    code, payload = run_json(capsys, "dt", "--family", "cyclic", "--n", "4", "--p", "2")
    assert code == 0
    assert payload["assertion"]["assertion"] == "order"
    assert payload["consequence"]["consistent"] is True


# -- report ----------------------------------------------------------------


def test_report_s4_over_rationals(capsys):
    code, out, err = run(
        capsys, "report", "--family", "symmetric", "--n", "4", "--base", "rationals"
    )
    assert code == 0
    assert "SSC(L/K) holds." in out
    assert "Klein four-subgroup" in out


def test_report_frobenius_negative_reads_whether_the_quotient_is_abelian(capsys):
    # frob72 / kernel is Q8, so over Q the abelian layer must be asserted
    argv = ("report", "--family", "frob72", "--r", "-1", "--totally-real", "--base", "rationals")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (
        "group: frob72\n"
        "conjecture: etnc, r = -1, base field: rationals\n"
        "no statements derivable for this scenario\n"
    )
    code, out, err = run(capsys, *argv, "--abelian-fixed-field")
    assert (code, err) == (0, "")
    assert out.count("statement: ") == 2
    assert "rule frobenius-negative: 2 statement(s)\n" in out
    assert out.count(
        "  assuming user-asserted: the field fixed by the Frobenius kernel is abelian over Q\n"
    ) == 2
    # metacyclic(7, 3) / kernel is C3: the abelian layer is derived
    code, out, err = run(capsys, "report", "--family", "metacyclic", "--n", "7", "--q", "3",
                         "--r", "-1", "--totally-real", "--base", "rationals")
    assert (code, err) == (0, "")
    assert out.count(
        "  assuming K = Q and the quotient by the Frobenius kernel is abelian, so the field "
        "fixed by the Frobenius kernel is abelian over Q\n"
    ) == 2
    assert "rule frobenius-negative: 2 statement(s)\n" in out


def test_report_rejects_positive_r(capsys):
    code, out, err = run(
        capsys, "report", "--family", "symmetric", "--n", "3", "--r", "2"
    )
    assert code == 2
    assert "unsupported scenario grammar" in err


def test_report_epsilon_needs_p(capsys):
    code, out, err = run(
        capsys, "report", "--family", "dihedral", "--n", "6",
        "--conjecture", "local-epsilon",
    )
    assert code == 2


# -- verify-paper ----------------------------------------------------------


def test_verify_paper_subset_passes(capsys):
    code, out, err = run(
        capsys, "verify-paper",
        "--only", "s4-norm-identities", "--only", "dt-facts",
    )
    assert code == 0
    assert "2/2 checks passed" in out
    assert out.count("PASS") == 2


def test_verify_paper_unknown_check_is_usage_error(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "nope")
    assert code == 2


# -- invariants ------------------------------------------------------------


def test_identical_argv_and_seed_give_identical_output(capsys):
    argv = ("norm-ideal", "--family", "symmetric", "--n", "3",
            "--p", "3", "--budget", "10", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_seed_changes_sampled_element(capsys):
    _, out1, _ = run(capsys, "nr", "--family", "symmetric", "--n", "3")
    _, out2, _ = run(capsys, "nr", "--family", "symmetric", "--n", "3",
                     "--seed", "7")
    assert out1 != out2


def test_metacyclic_family_flags(capsys):
    # order 21 group with l = 7, p = 3
    code, out, err = run(
        capsys, "chartab", "--family", "metacyclic", "--n", "7", "--q", "3"
    )
    assert code == 0
    assert "order: 21" in out


@pytest.mark.parametrize("group", [
    "metacyclic --n 4 --q 3",
    "metacyclic --n 10 --q 3",
    "metacyclic --n 7 --q 1",
    "metacyclic --n 7 --q 0",
    "symmetric --n 0",
    "inversion --n 0",
    "inversion --n=-4",
    "dihedral --n 0",
    "cyclic --n 0",
    "cyclic --n=-3",
    "alternating --n 0",
    "alternating --n=-2",
    "affine --q 1000000000000000003",
    "metacyclic --n 1000000000000000003 --q 2",
])
def test_bad_family_parameters_are_usage_errors(group):
    # a subprocess with a timeout, so a constructor that loops forever
    # fails the test instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "holring.cli", "chartab", "--family", *group.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("holring: error: ")
    assert proc.stderr.strip() != "holring: error:"


@pytest.mark.parametrize("argv", [
    "blocks --family symmetric --n 3",
    "conductor --family symmetric --n 4",
    "hybrid --family symmetric --n 4 --normal commutator",
    "dt --family symmetric --n 3",
    "report --family symmetric --n 3",
    "denom-cert --family symmetric --n 3",
    "norm-ideal --family symmetric --n 3",
])
def test_huge_prime_answers_at_once(argv):
    # p = 10^18 + 3 is prime and divides no group order: the answer is
    # the coprime case, with no search up to sqrt(p)
    proc = subprocess.run(
        [sys.executable, "-m", "holring.cli", *argv.split(), "--p", str(10**18 + 3)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_prime_beyond_the_exact_test_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "holring.cli", "blocks", "--family", "symmetric",
         "--n", "3", "--p", str(10**25 + 13)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("holring: error: --p: ")


# -- byte-identical output -------------------------------------------------

# sha256 of the stdout of each benchmark CLI argv, as committed with the
# benchmark; read only
CLI_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json").read_text()
)


@pytest.mark.parametrize("key", sorted(CLI_DIGESTS))
def test_cli_output_matches_the_committed_digest(capsys, key):
    code, out, err = run(capsys, *key.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[key]


# -- what a call loads -----------------------------------------------------

SRC = Path(rednorm.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
# LOADS[argv]: the holring modules a fresh interpreter holds after the
# call; each argv's (exit code, stdout, stderr) is in the CLI corpus
CLI = {"holring", "holring.chartable", "holring.citations", "holring.cli",
       "holring.cyclotomic", "holring.linalg"}
TABLES = CLI | {"holring.groups", "holring.blocks"}
SAMPLED = TABLES | {"holring.groupring", "holring.lattice", "holring.rednorm"}
ALL = SAMPLED | {"holring.dt", "holring.reports", "holring.verify"}
LOADS = {
    "chartab --family symmetric --n 4": CLI | {"holring.groups"},
    "blocks --family alternating --n 4 --p 3": TABLES,
    "hybrid --family affine --q 4 --p 3 --normal commutator": TABLES | {"holring.dt"},
    "conductor --family symmetric --n 4 --p 3": TABLES,
    "nr --family symmetric --n 3": SAMPLED,
    "adjoint --family quaternion": SAMPLED,
    "denom-cert --family symmetric --n 3 --p 2 --normal commutator": SAMPLED,
    "norm-ideal --family symmetric --n 3 --p 3 --budget 4": SAMPLED,
    "dt --family dihedral --n 5 --p 5": TABLES | {"holring.dt"},
    "report --family symmetric --n 4 --base rationals": TABLES | {"holring.dt", "holring.reports"},
    "verify-paper --only hybrid-verdicts": ALL,
}


def _fresh(code: str, *argv) -> list:
    """stdout lines of `python -c code argv` in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('holring')))"


@functools.lru_cache(maxsize=None)
def _fresh_call(key: str) -> tuple:
    """(loaded holring modules, corpus digest) of one CLI call in a new interpreter."""
    digest, modules = _fresh("import sys; from record_corpus import digest; "
                             f"print(digest(sys.argv[1:])); {LOADED}", *key.split())
    return set(modules.split()), digest


def test_importing_the_cli_loads_only_the_table_layer():
    (cli,) = _fresh(f"import sys, holring.cli; {LOADED}")
    assert set(cli.split()) == CLI
    # chartable names the group types only in annotations
    (chartable,) = _fresh(f"import sys, holring.chartable; {LOADED}")
    assert "holring.groups" not in chartable.split()


@pytest.mark.parametrize("key", sorted(LOADS))
def test_a_call_loads_only_what_its_subcommand_runs(key):
    assert _fresh_call(key)[0] == LOADS[key]


@pytest.mark.parametrize("key", sorted(LOADS))
def test_a_fresh_call_matches_the_corpus(key):
    # a handler that prints a citation label its own imports did not
    # register ends in KeyError; the in-process corpus has every module
    # loaded by then and cannot see it
    assert _fresh_call(key)[1] == load_corpus()[key]


def test_every_seed_default_is_the_sampling_seed():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {
        name: action.default
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.dest == "seed"
    }
    assert sorted(defaults) == ["adjoint", "denom-cert", "norm-ideal", "nr"]
    assert set(defaults.values()) == {rednorm.SEED}
