import random
from fractions import Fraction

import pytest

from origamikz import (
    BasisUnavailableError,
    DegenerateConfigurationError,
    Direction,
    GeodesicLoop,
    HomologyBasis,
    IntegralityError,
    NoBasisFoundError,
    Origami,
    OrigamiError,
    Perm,
    RankError,
    TracingError,
    class_pushforward,
    decompose,
    default_basis,
    express_in_basis,
    intersection_number,
    make_l_origami,
    nontaut_basis,
    omega_class_loop,
    primitive_directions,
    standard_basis,
)
from origamikz import geometry
from origamikz.geometry import _Corners, _trace_closed
from origamikz.homology import _pfaffian, _search_basis, _solve_gram
from util import (
    curve_from_segments,
    random_direction,
    random_h2_origami,
    reference_det4,
    reference_intersection_number,
    reference_solve4,
    row_boundary_starts,
)

A_REFERENCE = (
    (0, 0, 0, 1),
    (0, 0, 1, 1),
    (0, -1, 0, 0),
    (-1, -1, 0, 0),
)


def diagonal_cores(o, direction):
    """Cores keyed by combinatorial length."""
    dec = decompose(o, direction)
    return {c.f: c.core for c in dec.cylinders}


def test_gram_matrix_l24():
    basis = standard_basis(make_l_origami(2, 4))
    assert basis.f_values == (1, 2, 1, 4)
    assert basis.gram == A_REFERENCE


def test_gram_matrix_is_degree_independent():
    assert standard_basis(make_l_origami(2, 6)).gram == A_REFERENCE
    assert standard_basis(make_l_origami(2, 10)).gram == A_REFERENCE


def test_gram_skew_symmetry_random():
    rng = random.Random(5)
    for _ in range(10):
        o = random_h2_origami(rng, dmax=8)
        try:
            basis = standard_basis(o)
        except BasisUnavailableError:
            continue
        g = basis.gram
        for i in range(4):
            for j in range(4):
                assert g[i][j] == -g[j][i]


def test_one_cylinder_direction_has_no_standard_basis():
    o = Origami(
        Perm.from_cycles([(1, 2, 3, 4)], degree=4),
        Perm.from_cycles([(1, 2)], degree=4),
    )
    from origamikz import singularity_data

    assert singularity_data(o).is_h2
    with pytest.raises(BasisUnavailableError):
        standard_basis(o)
    assert [d.vector for d in default_basis(o).directions] == [(0, 1), (-1, 1)]


def test_express_in_basis_diagonal_cores():
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    cores = diagonal_cores(o, Direction(2, 3))
    assert express_in_basis(basis.omega_against(cores[3]), basis) == (4, 1, 1, 2)
    assert express_in_basis(basis.omega_against(cores[2]), basis) == (2, 1, 2, 1)


def test_express_basis_vector_is_unit():
    basis = standard_basis(make_l_origami(2, 4))
    assert express_in_basis(basis.omega_against(basis.loops[0]), basis) == (1, 0, 0, 0)
    assert express_in_basis(basis.omega_against(basis.loops[3]), basis) == (0, 0, 0, 1)


def test_intersection_examples():
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    cores = diagonal_cores(o, Direction(2, 3))
    assert intersection_number(basis.loops[1], cores[3]) == 3
    assert intersection_number(basis.loops[3], cores[2]) == -3
    assert intersection_number(basis.loops[2], basis.loops[3]) == 0
    assert intersection_number(cores[3], cores[3]) == 0


def row_boundary_loops(o, direction):
    """Closed geodesics on the line between the two lowest rows of a cylinder.

    They meet only regular vertices, and at least one (see
    :func:`util.row_boundary_starts`); core curves meet none.
    """
    corners = _Corners(o)
    return [GeodesicLoop(o, direction, *_trace_closed(o, corners, pt, direction))
            for pt in row_boundary_starts(o, direction)]


def test_intersection_matches_reference_pairing():
    # the integer pairing against the Fraction one it replaced, on every
    # pair (parallel pairs and self-pairs included) of cores with
    # |p| + |q| <= 6 and of loops through regular vertices
    rng = random.Random(6)
    parallel = through_vertex = 0
    for _ in range(2):
        o = random_h2_origami(rng, dmax=8)
        loops = []
        for d in primitive_directions(6):
            loops.extend(c.core for c in decompose(o, d).cylinders)
            if abs(d.p) + abs(d.q) <= 4:
                loops.extend(row_boundary_loops(o, d))
        through_vertex += sum(
            any(x in (0, 1) and y in (0, 1) for _, _, (x, y) in loop.segments)
            for loop in loops
        )
        for i, alpha in enumerate(loops):
            for beta in loops[i:]:
                parallel += alpha.direction == beta.direction
                assert intersection_number(alpha, beta) == (
                    reference_intersection_number(alpha, beta)
                )
    assert parallel > 0 and through_vertex > 0


def test_intersection_at_cone_point_raises():
    # on L(2,2) every vertex is the cone point; a horizontal loop along
    # the bottom edges of squares 1, 2 and a vertical loop along the left
    # edges of squares 1, 3 cross there
    o = make_l_origami(2, 2)
    z, one = Fraction(0), Fraction(1)
    horizontal = curve_from_segments(GeodesicLoop, o, Direction(1, 0), [
        (0, (z, z), (one, z)), (1, (z, z), (one, z)),
    ])
    vertical = curve_from_segments(GeodesicLoop, o, Direction(0, 1), [
        (0, (z, z), (z, one)), (2, (z, z), (z, one)),
    ])
    with pytest.raises(DegenerateConfigurationError):
        intersection_number(horizontal, vertical)
    with pytest.raises(DegenerateConfigurationError):
        reference_intersection_number(horizontal, vertical)


def test_intersection_skew_symmetry_random():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        o = random_h2_origami(rng, dmax=8)
        d1, d2 = random_direction(rng, 4), random_direction(rng, 4)
        dec1, dec2 = decompose(o, d1), decompose(o, d2)
        for c1 in dec1.cylinders:
            for c2 in dec2.cylinders:
                assert intersection_number(c1.core, c2.core) == -intersection_number(
                    c2.core, c1.core
                )
                checked += 1


def test_bilinearity_through_gram():
    # omega(class, loop) computed two ways: geometrically on the loops of
    # the expansion, and through the Gram matrix on coordinates
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    cores = diagonal_cores(o, Direction(2, 3))
    for core in cores.values():
        coeffs = express_in_basis(basis.omega_against(core), basis)
        for j, bloop in enumerate(basis.loops):
            via_gram = sum(
                coeffs[k] * basis.gram[j][k] * -1 for k in range(4)
            )  # omega(loop, basis_j) = -omega(basis_j, loop)
            assert intersection_number(core, bloop) == -intersection_number(
                bloop, core
            )
            assert intersection_number(bloop, core) == -via_gram


def test_pushforward_examples():
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    assert basis.loops[1].holonomy() == (2, 0)
    cores = diagonal_cores(o, Direction(2, 3))
    # oracle: sum the segment displacements by hand
    seg_sum = [Fraction(0), Fraction(0)]
    for _, (x0, y0), (x1, y1) in cores[2].segments:
        seg_sum[0] += x1 - x0
        seg_sum[1] += y1 - y0
    assert (int(seg_sum[0]), int(seg_sum[1])) == (4, 6)
    assert cores[2].holonomy() == (4, 6)


def test_pushforward_is_f_times_direction():
    rng = random.Random(31)
    for _ in range(10):
        o = random_h2_origami(rng, dmax=8)
        d = random_direction(rng, 4)
        for cyl in decompose(o, d).cylinders:
            assert cyl.core.holonomy() == (cyl.f * d.p, cyl.f * d.q)


def test_nontaut_basis():
    b24 = standard_basis(make_l_origami(2, 4))
    nt = nontaut_basis(b24)
    assert nt.x == (-2, 1, 0, 0)
    assert nt.y == (0, 0, -4, 1)
    b23 = standard_basis(make_l_origami(2, 3))
    nt3 = nontaut_basis(b23)
    assert nt3.x == (-2, 1, 0, 0)
    assert nt3.y == (0, 0, -3, 1)


def test_nontaut_equal_lengths():
    # equal f-values give X = X2 - X1 (genus-2 origami in H(1,1) with two
    # horizontal cylinders of combinatorial length 2 each)
    o = Origami(
        Perm.from_cycles([(1, 2), (3, 4)], degree=4),
        Perm.from_cycles([(2, 3, 4)], degree=4),
    )
    basis = standard_basis(o)
    assert basis.f_values[:2] == (2, 2)
    assert nontaut_basis(basis).x == (-1, 1, 0, 0)


def test_nontaut_kills_pushforward():
    for o in (make_l_origami(2, 4), make_l_origami(3, 3), make_l_origami(2, 5)):
        basis = standard_basis(o)
        nt = nontaut_basis(basis)
        assert class_pushforward(basis, nt.x) == (0, 0)
        assert class_pushforward(basis, nt.y) == (0, 0)


def test_class_pushforward_reads_the_traced_holonomy(monkeypatch):
    # f times the direction, read from the basis, against the traced
    # cores' holonomies; reading it traces nothing
    rng = random.Random(4)
    real = geometry._trace_closed
    traced = []

    def counting(*args):
        traced.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_trace_closed", counting)
    for _ in range(6):
        basis = default_basis(random_h2_origami(rng, dmax=9))
        coeffs = [tuple(rng.randrange(-5, 6) for _ in range(4)) for _ in range(3)]
        got = [class_pushforward(basis, c) for c in coeffs]
        assert not traced
        holonomies = [loop.holonomy() for loop in basis.loops]
        assert got == [tuple(sum(ci * h[k] for ci, h in zip(c, holonomies)) for k in (0, 1))
                       for c in coeffs]
        traced.clear()


def test_basis_search_starts_with_the_axes():
    # the search from scratch, with no axis decomposition held
    basis = _search_basis(make_l_origami(2, 4), {})
    assert tuple(d.vector for d in basis.directions) == ((1, 0), (0, 1))
    # oracle for L(3,3): both axis decompositions really have 2 cylinders
    o = make_l_origami(3, 3)
    assert len(decompose(o, Direction(1, 0)).cylinders) == 2
    assert len(decompose(o, Direction(0, 1)).cylinders) == 2
    assert tuple(d.vector for d in _search_basis(o, {}).directions) == ((1, 0), (0, 1))


def test_basis_search_exhausted(monkeypatch):
    # the horizontal axis has one cylinder, and the vertical one is the
    # only 2-cylinder direction left in the search
    from origamikz import homology

    o = Origami(
        Perm.from_cycles([(1, 2, 3, 4)], degree=4),
        Perm.from_cycles([(1, 2)], degree=4),
    )
    monkeypatch.setattr(homology, "primitive_directions",
                        lambda max_sum: [Direction(1, 0), Direction(0, 1)])
    with pytest.raises(NoBasisFoundError):
        default_basis(o)


def test_basis_search_propagates_bugs(monkeypatch):
    # decompose traces nothing, so a TracingError from it is a failed
    # internal check, not a direction to skip
    from origamikz import homology

    for error in (ZeroDivisionError, TracingError):
        def broken(o, d, error=error):
            raise error("bug inside decompose")

        monkeypatch.setattr(homology, "decompose", broken)
        with pytest.raises(error):
            _search_basis(make_l_origami(2, 4), {})


def test_class_table_rows_via_combination():
    # the kernel-combination rows of the reference tables for n = 2
    o = make_l_origami(2, 4)
    basis = standard_basis(o)
    nt = nontaut_basis(basis)
    cores = diagonal_cores(o, Direction(2, 3))
    assert omega_class_loop(basis, nt.x, cores[3]) == -1
    assert omega_class_loop(basis, nt.x, cores[2]) == 1
    assert omega_class_loop(basis, nt.y, cores[3]) == -1
    assert omega_class_loop(basis, nt.y, cores[2]) == 1


def test_basis_rejects_decompositions_of_two_origamis():
    # checked before anything else: L(3,3) has the degree of L(2,4), and
    # its decomposition shares the first one's direction
    l24 = make_l_origami(2, 4)
    for other, d2 in ((make_l_origami(3, 3), Direction(1, 0)),
                      (make_l_origami(2, 5), Direction(0, 1))):
        with pytest.raises(OrigamiError, match="different origamis"):
            HomologyBasis(decompose(l24, Direction(1, 0)), decompose(other, d2))


def test_basis_from_directions_rejects_equal_directions():
    from origamikz import basis_from_directions

    with pytest.raises(BasisUnavailableError):
        basis_from_directions(make_l_origami(2, 4), Direction(1, 0), Direction(2, 0))


def test_gram_solve_matches_fraction_elimination():
    # the closed forms det = Pf^2 and x = adj(A) b / Pf against Fraction
    # elimination on random skew-symmetric integer matrices: singular
    # ones raise RankError, fractional solutions IntegralityError
    rng = random.Random(47)
    outcomes = {"integral": 0, "singular": 0, "fractional": 0}
    for _ in range(1000):
        upper = {(i, j): rng.randint(-3, 3) for i in range(4) for j in range(i + 1, 4)}
        g = tuple(
            tuple(0 if i == j else upper[i, j] if i < j else -upper[j, i]
                  for j in range(4))
            for i in range(4)
        )
        b = tuple(rng.randint(-6, 6) for _ in range(4))
        assert _pfaffian(g) ** 2 == reference_det4(g)
        if reference_det4(g) == 0:
            outcomes["singular"] += 1
            with pytest.raises(RankError):
                reference_solve4(g, b)
            with pytest.raises(RankError):
                _solve_gram(g, b)
            continue
        x = reference_solve4(g, b)
        if all(v.denominator == 1 for v in x):
            outcomes["integral"] += 1
            assert _solve_gram(g, b) == x
        else:
            outcomes["fractional"] += 1
            with pytest.raises(IntegralityError):
                _solve_gram(g, b)
    assert min(outcomes.values()) >= 40, outcomes
