"""End-to-end command-line behavior: output lines, JSON schema, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from holring.cli import SCHEMA, main


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


def test_hol_threads_must_be_positive_integer(capsys, monkeypatch):
    monkeypatch.setenv("HOL_THREADS", "zero")
    with pytest.raises(SystemExit) as info:
        main(["chartab", "--family", "cyclic", "--n", "2"])
    assert info.value.code == 2


def test_hol_threads_accepts_positive_integer(capsys, monkeypatch):
    monkeypatch.setenv("HOL_THREADS", "4")
    code, out, err = run(capsys, "chartab", "--family", "cyclic", "--n", "2")
    assert code == 0


def test_metacyclic_family_flags(capsys):
    # order 21 group with l = 7, p = 3
    code, out, err = run(
        capsys, "chartab", "--family", "metacyclic", "--n", "7", "--q", "3"
    )
    assert code == 0
    assert "order: 21" in out
