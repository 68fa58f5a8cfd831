import json
import random
from collections import Counter
from itertools import permutations

import pytest

from origamikz import (
    canonical_form,
    h2_origamis,
    is_primitive,
    make_l_origami,
    orbit_partition,
    singularity_data,
)
from origamikz import census as census_mod
from origamikz.cli import main
from origamikz.origami import Perm, _transitive, holonomy_lattice_index

from util import (census_cosets, centralizer, reference_fixed_point_key, reference_h2_forms,
                  type_keeping_three_cycles)


def test_counts_small_degrees():
    # primitive H(2) origamis up to equivalence: 3, 9, 27, 36 at degrees 3..6
    assert len(h2_origamis(3)) == 3
    assert len(h2_origamis(4)) == 9
    assert len(h2_origamis(5)) == 27
    assert len(h2_origamis(6)) == 36


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_no_h2_origami_below_degree_3(degree):
    # H(2) has genus 2, and a cone angle of 6 pi needs three squares
    assert h2_origamis(degree) == [] == h2_origamis(degree, primitive_only=False)


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
    # independent oracle: raw loop over all pairs of degree 4 and 5; every
    # H(2) origami of these degrees turns out primitive, so the census is
    # the full stratum
    import itertools

    from origamikz import Origami

    for d, count in ((4, 9), (5, 27)):
        forms = set()
        for him in itertools.permutations(range(d)):
            for vim in itertools.permutations(range(d)):
                try:
                    o = Origami(Perm(him), Perm(vim))
                except ValueError:
                    continue
                if singularity_data(o).is_h2:
                    assert is_primitive(o)
                    forms.add(canonical_form(o))
        assert len(forms) == count
        assert forms == set(h2_origamis(d))


def _smallest_first(cyc):
    i = cyc.index(min(cyc))
    return tuple(cyc[i:] + cyc[:i])


def _census_hs(d):
    for ptype in census_mod._partitions(d):
        yield Perm._trusted(census_mod._canonical_of_type(ptype))


def test_type_keeping_cycles_are_the_trial_filter_without_repeats():
    # for every cycle type of degree 3..11, the two shapes give each
    # 3-cycle that keeps the type once, up to rotation
    types = 0
    for d in range(3, 12):
        for h in _census_hs(d):
            types += 1
            cycles = census_mod._type_keeping_cycles(h.cycles(include_fixed=True))
            got = [_smallest_first(c) for c in cycles]
            assert len(set(got)) == len(got)
            assert set(got) == set(type_keeping_three_cycles(h))
    assert types == 191  # the partitions of 3..11


def test_type_keeping_cycles_count_the_census_cosets():
    for d, cosets in ((7, 231), (8, 462), (9, 882)):
        assert sum(len(list(census_mod._type_keeping_cycles(h.cycles(include_fixed=True))))
                   for h in _census_hs(d)) == cosets


def test_every_census_coset_has_at_most_one_entry():
    # c moves at most one fixed point of h, so v0 feeds at most one fixed
    # point of h from a square h moves; read straight from h and v0
    cosets = Counter()
    for d in range(3, 12):
        for h, v0 in census_cosets(d):
            fed = sorted(range(d), key=v0.__getitem__)  # v0^-1
            entries = [x for x in range(d) if h(x) == x and h(fed[x]) != fed[x]]
            cosets[len(entries)] += 1
    assert max(cosets) == 1 and sum(cosets.values()) == 6099


def _brute_force(h, v0):
    # the full centralizer, each element tested for transitivity one at a time
    return sorted(z for z in centralizer(h) if _transitive(h.images, tuple(v0[x] for x in z)))


def _assert_sweeps_match_brute_force(degrees):
    inputs = 0
    for d in degrees:
        for h, v0 in census_cosets(d):
            inputs += 1
            assert sorted(census_mod._centralizer(h, v0)) == _brute_force(h, v0)
    return inputs


def test_sweep_returns_exactly_the_transitive_coset_elements():
    assert _assert_sweeps_match_brute_force(range(3, 9)) == 387 + 462


@pytest.mark.slow
def test_sweep_returns_exactly_the_transitive_coset_elements_at_degree9():
    assert _assert_sweeps_match_brute_force([9]) == 882


def _perm(*cycles, degree):
    return Perm.from_cycles([[x + 1 for x in c] for c in cycles], degree=degree)


def test_sweep_of_fixed_points_on_closed_loops_is_empty():
    # v0 sends h's fixed points 3, 4, 5 among themselves: no entry, so
    # each fixed point stays on a loop and no element is transitive
    h, v0 = _perm((0, 1, 2), degree=6), _perm((0, 1), (3, 4, 5), degree=6).images
    assert census_mod._centralizer(h, v0) == [] == _brute_force(h, v0)


def test_sweep_rejects_a_coset_with_two_entries():
    # h = (0 1)(2 3) fixes 4 and 5; v0 = (0 4 1)(2 5 3) feeds both fixed
    # points from moved squares, which no census coset does
    h, v0 = _perm((0, 1), (2, 3), degree=6), _perm((0, 4, 1), (2, 5, 3), degree=6).images
    with pytest.raises(ValueError, match="at most one fixed point"):
        census_mod._centralizer(h, v0)


def test_sweep_of_one_entry_threads_every_fixed_point_on_its_chain():
    # v0 = (0 4 5 2) feeds 4 from 0 and leaves 5 for 2: the chain 4 -> 5 is
    # the only one, and z swapping 4 and 5 would close 5 on a loop
    h, v0 = _perm((0, 1), (2, 3), degree=6), _perm((0, 4, 5, 2), degree=6).images
    swept = census_mod._centralizer(h, v0)
    assert sorted(swept) == _brute_force(h, v0)
    assert swept and all(z[4:] == (4, 5) for z in swept)


def test_sweep_without_fixed_points_tests_the_moved_cycles_alone():
    h, v0 = _perm((0, 1), (2, 3), degree=4), _perm((1, 2), degree=4).images
    swept = census_mod._centralizer(h, v0)
    assert sorted(swept) == _brute_force(h, v0)
    assert len(swept) == 8


def test_sweep_rejects_the_identity():
    # with no moved cycle every fixed point would be on one loop
    with pytest.raises(ValueError, match="moves some square"):
        census_mod._centralizer(_perm(degree=3), (1, 2, 0))


def _sweep_counts(monkeypatch, d):
    # coset elements the sweep builds and canonical forms it computes
    counts = {"built": 0, "forms": 0}
    real_sweep, real_form = census_mod._centralizer, census_mod.canonical_form

    def sweep(*args):
        for z in real_sweep(*args):
            counts["built"] += 1
            yield z

    def form(o):
        counts["forms"] += 1
        return real_form(o)

    monkeypatch.setattr(census_mod, "_centralizer", sweep)
    monkeypatch.setattr(census_mod, "canonical_form", form)
    h2_origamis(d)
    monkeypatch.undo()
    return counts


def test_sweep_builds_every_element_and_forms_one_per_key(monkeypatch):
    # the sweep still builds every transitive coset element: at degrees 7
    # and 8 the full cosets hold 6,393 and 35,952, of which 1,757 and
    # 6,716 are transitive; only an element whose key, v on h's moved
    # squares, is new in its coset is reduced to a canonical form
    for d, built, forms in ((7, 1757, 1021), (8, 6716, 2110)):
        assert _sweep_counts(monkeypatch, d) == {"built": built, "forms": forms}


@pytest.mark.slow
def test_sweep_builds_every_element_and_forms_one_per_key_at_degree9(monkeypatch):
    assert _sweep_counts(monkeypatch, 9) == {"built": 36356, "forms": 5060}


@pytest.mark.parametrize("primitive_only", [True, False])
@pytest.mark.parametrize("d", range(3, 9))
def test_census_matches_reference_without_keys(d, primitive_only):
    assert h2_origamis(d, primitive_only) == reference_h2_forms(d, primitive_only)


def _fixed_points(h):
    # h's fixed points are its last squares; returns them and the first
    fixed = [x for x in range(h.degree) if h(x) == x]
    m = h.degree - len(fixed)
    assert fixed == list(range(m, h.degree))
    return fixed, m


def _conjugate(v, k):
    # k v k^-1, with k a dict on the squares it moves
    out = [None] * len(v)
    for x, y in enumerate(v):
        out[k.get(x, x)] = k.get(y, y)
    return tuple(out)


def test_fixed_point_key_is_invariant_under_relabelling_fixed_points():
    rng = random.Random(20)
    checked = 0
    for d in range(7, 10):
        for h, v0 in census_cosets(d):
            fixed, m = _fixed_points(h)
            if len(fixed) < 2:
                continue
            swept = census_mod._centralizer(h, v0)
            for z in rng.sample(swept, min(len(swept), 12)):
                v = tuple(v0[x] for x in z)
                key = reference_fixed_point_key(v, m)
                for _ in range(3):
                    k = dict(zip(fixed, rng.sample(fixed, len(fixed))))
                    assert reference_fixed_point_key(_conjugate(v, k), m) == key
                    checked += 1
    assert checked > 1000


def _classes(vs, key):
    by_key = {}
    for v in vs:
        by_key.setdefault(key(v), set()).add(v)
    return {frozenset(c) for c in by_key.values()}


def test_fixed_point_key_classes_are_the_conjugacy_classes():
    # on each coset at degree 7, elements share the census key v[:m] iff a
    # permutation of h's fixed points conjugates one into the other; the
    # fixed-point key gives the same classes
    cosets = 0
    for h, v0 in census_cosets(7):
        fixed, m = _fixed_points(h)
        if len(fixed) < 2:
            continue
        cosets += 1
        coset = {tuple(v0[x] for x in z) for z in census_mod._centralizer(h, v0)}
        ks = [dict(zip(fixed, p)) for p in permutations(fixed)]
        classes = {frozenset(_conjugate(v, k) for k in ks) & coset for v in coset}
        assert _classes(coset, lambda v: v[:m]) == classes
        assert _classes(coset, lambda v: reference_fixed_point_key(v, m)) == classes
    assert cosets > 0


def test_fixed_point_key_classes_are_the_parts_on_the_moved_squares():
    # the lemma the census key rests on: on every census coset of degree 3
    # to 9, two swept elements share a fixed-point key exactly when v
    # agrees on h's moved squares 0..m-1.  z permutes the moved squares, so
    # any m - 1 of v's values there fix the part; m - 2 of them need not
    cosets = elements = classes = 0
    for d in range(3, 10):
        for h, v0 in census_cosets(d):
            _, m = _fixed_points(h)
            swept = census_mod._centralizer(h, v0)
            assert all(sorted(z[:m]) == list(range(m)) for z in swept)
            vs = [tuple(v0[x] for x in z) for z in swept]
            parts = _classes(vs, lambda v: v[:m])
            assert parts == _classes(vs, lambda v: reference_fixed_point_key(v, m))
            cosets += 1
            elements += len(swept)
            classes += len(parts)
    assert (cosets, elements, classes) == (1731, 45470, 8713)


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


@pytest.mark.slow
def test_degree11_census_command(capsys):
    # the whole command at the largest degree it runs in seconds: two
    # orbits, family A holding L(2,10) and family B holding L(3,9)
    assert main(["census", "--degree", "11"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == _primitive_count(11) == 405
    orbits = {(orb["size"], orb["family"], "L(2,10)" in orb["l_shapes"],
               "L(3,9)" in orb["l_shapes"]) for orb in rep["orbits"]}
    assert orbits == {(225, "A", True, False), (180, "B", False, True)}
