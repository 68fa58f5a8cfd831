import random
import tracemalloc
from os.path import commonprefix

import pytest

from origamikz import (
    Direction,
    Origami,
    OrigamiError,
    Perm,
    class_pushforward,
    decompose,
    default_basis,
    dehn_twist_action,
    index_in_sl2,
    kz_generators,
    make_l_origami,
    nontaut_basis,
    primitive_directions,
    standard_basis,
    twist_multiplicities,
)
from origamikz.geometry import _shared_letters, _shear_word
from origamikz.homology import basis_from_directions
from origamikz.monodromy import _shear_letters
from origamikz.sl2 import Mat2
from util import random_direction, random_h2_origami

D_THETA_ODD = Mat2(2, 1, -1, 0)
D_VERTICAL = Mat2(1, 0, -1, 1)
D_PSI_EVEN = Mat2(3, 2, -2, -1)


def test_twist_multiplicities_two_cylinders():
    dec = decompose(make_l_origami(2, 4), Direction(2, 3))
    by_f = dict(zip(dec.f_values(), twist_multiplicities(dec)))
    assert by_f == {3: 2, 2: 3}
    dec = decompose(make_l_origami(2, 3), Direction(3, 5))
    by_f = dict(zip(dec.f_values(), twist_multiplicities(dec)))
    assert by_f == {2: 1, 1: 4}


def test_twist_multiplicities_single_cylinder():
    torus = Origami(Perm.identity(1), Perm.identity(1))
    assert twist_multiplicities(decompose(torus, Direction(1, 0))) == (1,)


def test_twist_multiplicities_common_shear():
    # n_i * f_i / c_i constant across the decomposition, gcd of the n_i is 1
    from fractions import Fraction
    from math import gcd

    rng = random.Random(41)
    for _ in range(15):
        o = random_h2_origami(rng, dmax=9)
        d = random_direction(rng, 5)
        dec = decompose(o, d)
        multiplicities = twist_multiplicities(dec)
        shears = {
            Fraction(n * cyl.f, cyl.c)
            for n, cyl in zip(multiplicities, dec.cylinders)
        }
        assert len(shears) == 1
        g = 0
        for n in multiplicities:
            g = gcd(g, n)
        assert g == 1


def test_twist_matrices_odd_family():
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    assert dehn_twist_action(decompose(o, Direction(2, 3)), basis) == D_THETA_ODD
    assert dehn_twist_action(decompose(o, Direction(0, 1)), basis) == D_VERTICAL


def test_twist_matrices_even_family():
    o = make_l_origami(2, 3)
    basis = standard_basis(o)
    assert dehn_twist_action(decompose(o, Direction(3, 5)), basis) == D_PSI_EVEN
    assert dehn_twist_action(decompose(o, Direction(4, 3)), basis) == D_VERTICAL


def test_kz_generators_families_are_n_independent():
    for n in (1, 2, 3):
        gens = kz_generators(
            make_l_origami(2, 2 * n), [Direction(n, n + 1), Direction(0, 1)]
        )
        assert gens == [D_THETA_ODD, D_VERTICAL]
        gens = kz_generators(
            make_l_origami(2, 2 * n + 1),
            [Direction(2 * n + 1, 2 * n + 3), Direction(2 * n + 2, 2 * n + 1)],
        )
        assert gens == [D_PSI_EVEN, D_VERTICAL]


def test_kz_generators_empty():
    assert kz_generators(make_l_origami(2, 4), []) == []


def test_multitwist_matrices_are_parabolic():
    rng = random.Random(43)
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    for _ in range(20):
        d = random_direction(rng, 6)
        m = dehn_twist_action(decompose(o, d), basis)
        assert m.det() == 1
        assert m.trace() == 2


def test_kernel_preservation():
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    nt = nontaut_basis(basis)
    for d in (Direction(2, 3), Direction(0, 1), Direction(1, 0), Direction(-1, 2)):
        m = dehn_twist_action(decompose(o, d), basis)
        for col in ((m.a, m.c), (m.b, m.d)):
            img = [col[0] * xi + col[1] * yi for xi, yi in zip(nt.x, nt.y)]
            assert class_pushforward(basis, img) == (0, 0)


def test_group_level_basis_independence():
    # two different valid bases give conjugate subgroups, hence equal index
    o = make_l_origami(2, 4)
    dirs = [Direction(2, 3), Direction(0, 1)]
    b1 = standard_basis(o)
    b2 = basis_from_directions(o, Direction(0, 1), Direction(1, 0))
    idx1 = index_in_sl2([dehn_twist_action(decompose(o, d), b1) for d in dirs])
    idx2 = index_in_sl2([dehn_twist_action(decompose(o, d), b2) for d in dirs])
    assert idx1 == idx2 == 1

    o = make_l_origami(2, 3)
    dirs = [Direction(3, 5), Direction(4, 3)]
    b1 = standard_basis(o)
    idx1 = index_in_sl2([dehn_twist_action(decompose(o, d), b1) for d in dirs])
    b2 = basis_from_directions(o, Direction(0, 1), Direction(1, 0))
    idx2 = index_in_sl2([dehn_twist_action(decompose(o, d), b2) for d in dirs])
    assert idx1 == idx2 == 3


# the degree-3 one-cylinder surface: its axes have one cylinder each, so
# its default basis is searched
ONE_CYLINDER = Origami(Perm.from_cycles([(1, 2, 3)]), Perm.from_cycles([(2, 3)], 3))


def _walk_surfaces():
    # the second and third random surfaces fail 87 and 58 of the 128
    # twists with |p| + |q| <= 14 (non-integral core coordinates)
    rng = random.Random(1)
    return ([make_l_origami(3, 3), make_l_origami(3, 5), make_l_origami(5, 5),
             ONE_CYLINDER] + [random_h2_origami(rng) for _ in range(3)])


def _one_at_a_time(o, dirs, basis):
    """Each direction's matrix from a fresh decomposition, or its error."""
    out = []
    for d in dirs:
        try:
            out.append(dehn_twist_action(decompose(o, d), basis))
        except OrigamiError as exc:
            out.append(exc)
    return out


def test_kz_generators_walk_matches_one_direction_at_a_time():
    # the shared-prefix walk, in input, word and shuffled order, against a
    # fresh decomposition and a fresh push per direction; where twists
    # fail, the first failure in input order is the one raised
    rng = random.Random(59)
    errors = 0
    for o in _walk_surfaces():
        basis = default_basis(o)
        dirs = primitive_directions(14)
        shuffled = rng.sample(dirs, len(dirs))
        for order in (dirs, sorted(dirs, key=_shear_letters), shuffled):
            expected = _one_at_a_time(o, order, basis)
            failures = [m for m in expected if isinstance(m, OrigamiError)]
            if not failures:
                assert kz_generators(o, order, basis) == expected
                continue
            errors += 1
            with pytest.raises(type(failures[0])) as info:
                kz_generators(o, order, basis)
            assert str(info.value) == str(failures[0])
    assert errors > 0


def test_reused_decomposition_equals_a_fresh_one():
    # each direction decomposed with its predecessor in word order, and
    # with an unrelated one, lent as prev
    rng = random.Random(61)
    for o in _walk_surfaces():
        dirs = sorted(primitive_directions(10), key=_shear_letters)
        prevs = [None] + dirs[:-1]
        for d, before in zip(dirs, prevs):
            for lent in (before, rng.choice(dirs)):
                fresh = decompose(o, d)
                reused = decompose(o, d, None if lent is None else decompose(o, lent))
                assert ([cyl.rows for cyl in reused.cylinders]
                        == [cyl.rows for cyl in fresh.cylinders])
                assert reused.f_values() == fresh.f_values()
                assert reused.c_values() == fresh.c_values()
                assert ([s[:2] for s in reused._stages]
                        == [s[:2] for s in fresh._stages])
                sheared = [x._stages[-1][2] if x._stages else o for x in (reused, fresh)]
                assert sheared[0] == sheared[1]
                assert reused.core_cycles() == fresh.core_cycles()


def test_shared_letters_of_shear_words_match_their_letters():
    # counted run by run, the shared start of two shear words is their
    # common prefix letter by letter: for neighbours in walk order and
    # for random pairs
    rng = random.Random(5)
    dirs = sorted(primitive_directions(20), key=_shear_letters)
    pairs = list(zip(dirs, dirs[1:])) + [(rng.choice(dirs), rng.choice(dirs)) for _ in range(500)]
    for a, b in pairs:
        shared = commonprefix((_shear_letters(a), _shear_letters(b)))
        assert _shared_letters(_shear_word(a), _shear_word(b)) == len(shared)


def test_decompose_refuses_a_foreign_prev():
    prev = decompose(make_l_origami(2, 4), Direction(1, 1))
    with pytest.raises(ValueError):
        decompose(make_l_origami(4, 2), Direction(1, 2), prev)


def test_kz_generators_rejects_a_foreign_basis():
    basis = standard_basis(make_l_origami(2, 4))
    with pytest.raises(OrigamiError):
        kz_generators(make_l_origami(4, 2), [Direction(1, 1)], basis)


def test_kz_generators_keeps_no_pushed_copy_per_letter():
    # one long direction shares a single letter with the other: the walk
    # holds the long word's stages, as one fresh decomposition does, and
    # no pushed cycles along it (a copy per letter would hold about four
    # times what the stages hold)
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    long_dir = Direction(5000, 1)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(lambda: dehn_twist_action(decompose(o, long_dir), basis))
    walked = peak(lambda: kz_generators(o, [long_dir, Direction(1, 1)], basis))
    assert walked < 1.1 * alone
