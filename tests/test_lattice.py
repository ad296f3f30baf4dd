from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holring.cyclotomic import INF
from holring.lattice import PLattice, canonical_residue


def test_canonical_residue():
    p = 3
    assert canonical_residue(Fraction(9), p, 2) == 0
    assert canonical_residue(Fraction(10), p, 2) == 1
    assert canonical_residue(Fraction(1, 2), p, 1) == 2  # 1/2 = 2 mod 3
    assert canonical_residue(Fraction(1, 3), p, 1) == Fraction(1, 3)
    assert canonical_residue(Fraction(5, 3), p, 1) == Fraction(5, 3)
    assert canonical_residue(Fraction(5, 3), p, 2) == Fraction(5, 3)
    # v(x) = b means representative is m * p^b with m < p^(a-b)
    assert canonical_residue(Fraction(6), p, 2) == 6
    assert canonical_residue(Fraction(12), p, 2) == 3


def test_canonical_form_is_unique():
    p = 2
    a = PLattice.from_generators(p, 2, [[2, 0], [0, 4]])
    b = PLattice.from_generators(p, 2, [[2, 4], [2, -4], [2, 0]])
    assert a == b
    narrower = PLattice.from_generators(p, 2, [[2, 4], [2, -4], [2, 12]])
    assert narrower != b  # spans only [2,4] and [0,8]
    assert narrower.pivot_valuations() == [1, 3]
    assert b.contains(narrower)
    # generator order and redundant generators do not matter
    c = PLattice.from_generators(p, 2, [[0, 4], [2, 8], [2, 0]])
    assert a == c


def test_unit_denominators_are_units():
    # 3 is invertible in Z_(2), so [3, 0] spans the same as [1, 0]
    a = PLattice.from_generators(2, 2, [[3, 0], [0, Fraction(5, 7)]])
    b = PLattice.from_generators(2, 2, [[1, 0], [0, 1]])
    assert a == b


def test_membership():
    p = 2
    lat = PLattice.from_generators(p, 2, [[2, 1], [0, 4]])
    assert lat.contains_vector([2, 1])
    assert lat.contains_vector([2, 5])
    assert lat.contains_vector([6, 3])  # 3 * [2,1] has unit coefficient 3
    assert not lat.contains_vector([1, 0])
    assert not lat.contains_vector([2, 0])  # would need [0,1]
    assert lat.contains_vector([2, -3])
    assert lat.contains_vector([0, 0])


def test_rank_deficient():
    lat = PLattice.from_generators(3, 3, [[1, 2, 3], [2, 4, 6]])
    assert lat.rank == 1
    assert lat.contains_vector([5, 10, 15])
    assert not lat.contains_vector([1, 2, 4])


def test_sum_and_scale_and_index():
    p = 5
    a = PLattice.from_generators(p, 2, [[5, 0], [0, 5]])
    b = PLattice.from_generators(p, 2, [[1, 1]])
    s = PLattice.from_generators(p, 2, a.rows + b.rows)
    assert s.contains(a) and s.contains(b)
    assert s.pivot_valuations() == [0, 1]
    assert a.scaled(Fraction(1, 5)) == PLattice.from_generators(p, 2, [[1, 0], [0, 1]])
    full = PLattice.from_generators(p, 2, [[1, 0], [0, 1]])
    assert full.index_valuation(a) == 2
    assert full.index_valuation(s) == 1
    assert full.index_valuation(b) == INF


def test_lattices_of_another_space_are_rejected():
    a = PLattice.from_generators(5, 2, [[1, 0]])
    for other in (PLattice.from_generators(3, 2, [[1, 0]]), PLattice.from_generators(5, 3, [])):
        with pytest.raises(ValueError, match="dimension"):
            a.contains(other)
        with pytest.raises(ValueError, match="dimension"):
            a.index_valuation(other)
    with pytest.raises(ValueError, match="not a sublattice"):
        a.index_valuation(PLattice.from_generators(5, 2, [[0, 1]]))
    with pytest.raises(ValueError, match="length 3"):
        a.contains_vector([1, 0, 0])


def test_pivot_normalization():
    lat = PLattice.from_generators(3, 2, [[Fraction(2, 5), 1]])
    # pivot scaled to the exact power 3^0 = 1
    assert lat.rows[0][0] == 1
    assert lat.rows[0][1] == Fraction(5, 2)


coord = st.integers(min_value=-20, max_value=20)
vec3 = st.lists(coord, min_size=3, max_size=3)


@settings(max_examples=60)
@given(gens=st.lists(vec3, min_size=1, max_size=4), extra=vec3, scale=coord)
def test_lattice_properties(gens, extra, scale):
    p = 3
    lat = PLattice.from_generators(p, 3, gens)
    # every generator is a member, as is any Z_(p)-combination
    for gv in gens:
        assert lat.contains_vector(gv)
    if gens:
        combo = [scale * x + 7 * y for x, y in zip(gens[0], gens[-1])]
        assert lat.contains_vector(combo)
    bigger = PLattice.from_generators(p, 3, gens + [extra])
    assert bigger.contains(lat)
    # canonical form is stable under re-normalization
    again = PLattice.from_generators(p, 3, lat.rows)
    assert again == lat
