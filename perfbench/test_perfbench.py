"""Tests for the benchmark's own code: python3 -m pytest perfbench -q"""

import pytest

from checkout import use_checkout_sources
from run import percentile
from tracer import TARGETS, Tracer, span_totals
from workloads import DEFAULT_SEED, WORKLOADS, input_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = WORKLOADS[name]
    first = input_digest(w.make_inputs(DEFAULT_SEED, 1))
    assert first == input_digest(w.make_inputs(DEFAULT_SEED, 1))
    assert first != input_digest(w.make_inputs(DEFAULT_SEED + 1, 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_batch_has_at_least_100_operations(name):
    assert len(WORKLOADS[name].make_inputs(5, 1)) >= 100


def test_percentiles_on_known_lists():
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile(range(11), 0.9) == 9
    assert percentile([1, 2, 3, 4], 0.9) == pytest.approx(3.7)
    assert percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] (which holds a recursive a [2, 3]) and c [5, 9]
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["a", 1, 2.0, 3.0],
        ["c", 0, 5.0, 9.0],
    ]
    t = span_totals(spans, {"hits": 2})
    assert t["self:a"] == (10 - 3 - 4) + 1
    assert t["self:b"] == 3 - 1
    assert t["self:c"] == 4
    assert t["incl:a"] == 10  # the nested call is not counted twice
    assert t["incl:b"] == 3
    assert t["calls:a"] == 2
    assert t["count:hits"] == 2


def test_wrappers_cover_every_namespace_and_are_restored():
    use_checkout_sources()
    import sys

    from holring import cli

    tracer = Tracer()
    tracer.install()
    try:
        replaced = list(tracer._saved)
        originals = {id(original) for _, _, original in replaced}
        holring_modules = [m for n, m in sys.modules.items() if n.startswith("holring.")]
        assert not any(id(v) in originals for m in holring_modules for v in vars(m).values())
        assert any(owner is cli and attr == "character_table" for owner, attr, _ in replaced)
        assert len(replaced) > len(TARGETS)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in replaced)


def test_traced_call_records_spans_and_keeps_the_result():
    use_checkout_sources()
    import random

    from holring import rednorm
    from holring.groupring import random_integral_matrix
    from holring.groups import symmetric

    g = symmetric(3)
    h = random_integral_matrix(g, 2, random.Random(1))
    plain = rednorm.adjoint_and_norm(h)
    tracer = Tracer()
    tracer.install()
    try:
        traced = rednorm.adjoint_and_norm(h)
    finally:
        tracer.restore()
    assert traced[0] == plain[0] and traced[1] == plain[1]
    totals = tracer.totals()
    assert totals["calls:rednorm.adjoint_and_norm"] == 1
    assert totals["calls:groupring.elem_mul"] > 0
    assert 0 <= totals["self:rednorm.adjoint_and_norm"] <= totals["incl:rednorm.adjoint_and_norm"]
