"""The self-check suite itself: every check passes and the runner behaves."""

import pytest

from holring import verify
from holring.citations import REGISTRY
from holring.groups import symmetric


@pytest.fixture(scope="module")
def all_results(criterion_results):
    """Every check, taken from the per-criterion runs in declaration order;
    a criterion whose run comes back out of order shows up as a name
    mismatch below."""
    runs = {}
    out = []
    for _, crit, _, _ in verify._CHECKS:
        if crit not in runs:
            runs[crit] = iter(criterion_results(crit)[0])
        out.append(next(runs[crit]))
    assert all(next(run, None) is None for run in runs.values())
    return out


def test_every_check_passes(all_results):
    failed = [r for r in all_results if not r.passed]
    details = "; ".join(f"{r.name}: {r.detail}" for r in failed)
    assert not failed, details


def test_runs_in_declaration_order(all_results):
    assert [r.name for r in all_results] == verify.check_names()


def test_every_numbered_criterion_is_covered(all_results):
    covered = {r.criterion for r in all_results}
    assert set(range(1, 10)) <= covered


def test_criterion_filter():
    results = verify.run_checks(criteria=[8])
    assert [r.name for r in results] == ["dt-facts", "dt-consistency-sweep"]
    assert all(r.passed for r in results)


def test_name_filter_keeps_declaration_order():
    names = ["dt-facts", "s4-norm-identities"]
    results = verify.run_checks(names=names)
    assert [r.name for r in results] == ["s4-norm-identities", "dt-facts"]


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        verify.run_checks(names=["no-such-check"])


def test_result_jsonable_shape(all_results):
    for r in all_results:
        d = r.to_jsonable()
        assert d["name"] == r.name
        assert d["passed"] is True
        assert isinstance(d["detail"], str) and d["detail"]
        assert isinstance(d["citations"], list)


def test_cited_labels_are_registered(all_results):
    for r in all_results:
        for label in r.citations:
            assert label in REGISTRY


def test_failures_are_reported_not_raised():
    # a deliberately broken check must come back as a failed result
    def boom():
        raise verify.VerifyFailure("synthetic")

    entry = ("zz-synthetic", 0, (), boom)
    verify._CHECKS.append(entry)
    try:
        results = verify.run_checks(names=["zz-synthetic"])
    finally:
        verify._CHECKS.remove(entry)
    assert len(results) == 1
    assert not results[0].passed
    assert "synthetic" in results[0].detail


def test_catalog_has_thirty_five_groups():
    groups = verify.catalog()
    assert len(groups) == 35
    orders = sorted(g.order for g in groups)
    assert orders[0] == 2 and orders[-1] == 72


def test_group_name_helper():
    assert verify.group_name(symmetric(4)) == "S4"


def test_regular_det_matches_order_on_group_sum():
    # the regular representation of sum(g) has det 0 for |G| > 1
    from holring.groupring import GroupRingElem

    g = symmetric(3)
    total = GroupRingElem.zero(g)
    for x in range(g.order):
        total = total + GroupRingElem.basis(g, x)
    assert verify.regular_det(total) == 0
