import random

from origamikz import (
    Direction,
    Origami,
    Perm,
    class_pushforward,
    decompose,
    dehn_twist_action,
    index_in_sl2,
    kz_generators,
    make_l_origami,
    nontaut_basis,
    standard_basis,
    twist_multiplicities,
)
from origamikz.homology import basis_from_directions
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
