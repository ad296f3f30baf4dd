"""Ownership runs one way: a group keeps its tables, and nothing a table,
a character or a central element holds leads back to the group.  So a
dropped group and everything built from it are freed by reference
counting alone, with nothing left for the cyclic garbage collector."""

import gc
import inspect
import random
import weakref

import pytest

from holring import groups as G
from holring.blocks import central_conductor, padic_blocks
from holring.chartable import Character, CharTable, character_table
from holring.cyclotomic import prime_divisors
from holring.dt import dt_query
from holring.groupring import random_integral_matrix
from holring.groups import ConjClassData
from holring.rednorm import adjoint_and_norm, norm_ideal_probe


def _aff5_table():
    g = G.affine(5)
    character_table(g)
    return g


def _s4_blocks_and_conductors():
    g = G.symmetric(4)
    for p in prime_divisors(g.order):
        padic_blocks(character_table(g), p)
        central_conductor(character_table(g), p)
    return g


def _dt_query_c6_s3():
    g = G.direct_product(G.cyclic(6), G.symmetric(3))
    dt_query(g, 2)
    return g


def _norm_ideal_probe_s3():
    g = G.symmetric(3)
    norm_ideal_probe(g, 3, budget=2)
    return g


def _adjoint_over_s3():
    g = G.symmetric(3)
    adjoint_and_norm(random_integral_matrix(g, 2, random.Random(1729)))
    return g


@pytest.mark.parametrize(
    "build",
    [_aff5_table, _s4_blocks_and_conductors, _dt_query_c6_s3, _norm_ideal_probe_s3, _adjoint_over_s3],
    ids=["aff5-table", "s4-blocks-conductors", "dt-c6xs3", "norm-ideal-s3", "adjoint-s3"],
)
def test_a_dropped_group_leaves_no_cycles(build):
    gc.collect()
    gc.disable()
    try:
        group = weakref.ref(build())
        freed = group() is None
        found = gc.collect()
    finally:
        gc.enable()
    assert freed, "the group outlived its last reference"
    assert found == 0, f"{found} objects were left for the cyclic collector"


def test_tables_and_characters_hold_no_group():
    assert list(inspect.signature(CharTable.__init__).parameters)[1:] == [
        "classes", "characters",
    ]
    assert "group" not in Character.__slots__
    assert "group" not in ConjClassData._fields
    assert list(inspect.signature(ConjClassData.power_class).parameters) == ["self", "c", "k"]
    assert "powers" in ConjClassData._fields
