from collections import Counter

import pytest

from origamikz import (
    canonical_form,
    h2_origamis,
    is_primitive,
    make_l_origami,
    orbit_partition,
    singularity_data,
)
from origamikz.origami import holonomy_lattice_index


def test_counts_small_degrees():
    # primitive H(2) origamis up to equivalence: 3, 9, 27, 36 at degrees 3..6
    assert len(h2_origamis(3)) == 3
    assert len(h2_origamis(4)) == 9
    assert len(h2_origamis(5)) == 27
    assert len(h2_origamis(6)) == 36


def test_members_are_h2_primitive_canonical():
    for o in h2_origamis(5):
        assert singularity_data(o).is_h2
        assert is_primitive(o)
        assert canonical_form(o) == o


def test_degree4_single_orbit():
    parts = orbit_partition(h2_origamis(4))
    assert len(parts) == 1


def test_degree5_two_orbits_with_l_representatives():
    census = h2_origamis(5)
    parts = orbit_partition(census)
    assert len(parts) == 2
    c24 = canonical_form(make_l_origami(2, 4))
    c33 = canonical_form(make_l_origami(3, 3))
    part_of_24 = next(p for p in parts if c24 in p)
    part_of_33 = next(p for p in parts if c33 in p)
    assert part_of_24 is not part_of_33
    assert sorted(len(p) for p in parts) == [9, 18]


def test_degree6_single_orbit():
    parts = orbit_partition(h2_origamis(6))
    assert len(parts) == 1


def test_degree7_two_orbits():
    census = h2_origamis(7)
    assert len(census) == 90
    parts = orbit_partition(census)
    assert len(parts) == 2
    c26 = canonical_form(make_l_origami(2, 6))
    c35 = canonical_form(make_l_origami(3, 5))
    assert any(c26 in p and c35 not in p for p in parts)


def test_exhaustive_cross_check_degree4():
    # independent oracle: raw loop over all degree-4 pairs; every degree-4
    # H(2) origami turns out primitive, so the census is the full stratum
    import itertools

    from origamikz import Origami, Perm

    forms = set()
    for him in itertools.permutations(range(4)):
        for vim in itertools.permutations(range(4)):
            try:
                o = Origami(Perm(him), Perm(vim))
            except ValueError:
                continue
            if singularity_data(o).is_h2:
                assert is_primitive(o)
                forms.add(canonical_form(o))
    assert forms == set(h2_origamis(4))


def _primitive_count(n):
    # Eskin-Masur-Schmoll: (3/8)(n-2) n^2 prod_{p | n} (1 - p^-2)
    if n < 3:
        return 0
    num, den = 3 * (n - 2) * n * n, 8
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            num, den = num * (p * p - 1), den * p * p
    assert num % den == 0
    return num // den


def _sublattice_count(k):
    # index-k sublattices of Z^2, one per Hermite normal form
    # [[a, b], [0, k / a]] with 0 <= b < a
    return sum(1 for a in range(1, k + 1) if k % a == 0 for b in range(a))


def test_non_primitive_census_counts():
    # a degree-d H(2) origami whose period lattice has index k is a
    # primitive origami of degree d/k over that lattice's torus
    expected = {}
    for d in range(3, 9):
        expected[d] = {
            k: _sublattice_count(k) * _primitive_count(d // k)
            for k in range(1, d + 1)
            if d % k == 0 and _primitive_count(d // k)
        }
    assert [sum(expected[d].values()) for d in range(3, 9)] == [3, 9, 27, 45, 90, 135]
    for d in range(3, 9):
        census = h2_origamis(d, primitive_only=False)
        assert len(set(census)) == len(census)
        assert all(canonical_form(o) == o and singularity_data(o).is_h2 for o in census)
        assert Counter(holonomy_lattice_index(o) for o in census) == expected[d]


def test_primitivity_tested_once_per_form(monkeypatch):
    import origamikz.census as census_mod

    calls = []

    def counting(o):
        calls.append(o)
        return is_primitive(o)

    monkeypatch.setattr(census_mod, "is_primitive", counting)
    assert len(h2_origamis(6)) == 36
    # every class of the non-primitive census, each tested once
    assert len(calls) == len(set(calls)) == 45


def test_degree9_two_orbits():
    census = h2_origamis(9)
    assert len(census) == 189
    parts = orbit_partition(census)
    assert len(parts) == 2
    assert sorted(len(p) for p in parts) == [81, 108]


@pytest.mark.slow
def test_degree10_single_orbit():
    census = h2_origamis(10)
    assert len(census) == 216
    assert len(orbit_partition(census)) == 1
