import random
from fractions import Fraction

import pytest

from origamikz import (
    Direction,
    Origami,
    Perm,
    SeparatrixDiagram,
    TracingError,
    act_matrix,
    canonical_form,
    contains_point,
    decompose,
    dehn_twist_action,
    lattice_points,
    make_l_origami,
    nontaut_basis,
    primitive_directions,
    separatrix_diagram,
    shear_matrix,
    singularity_data,
    standard_basis,
    trace_boundaries,
)
from origamikz import geometry
from origamikz.geometry import _trace_closed, _vertex_of
from origamikz.origami import _inverse
from origamikz.sl2 import Mat2
from util import (
    curve_from_segments,
    over_denominator,
    pair_of,
    random_direction,
    random_h2_origami,
    random_transitive_pair,
    reference_core,
    reference_saddles,
    reference_trace_closed,
    row_boundary_starts,
)

TORUS = Origami(Perm.identity(1), Perm.identity(1))
# the degree-3 one-cylinder surface
ONE_CYLINDER = Origami(Perm.from_cycles([(1, 2, 3)]), Perm.from_cycles([(2, 3)], 3))


def test_shear_matrix_axes():
    assert shear_matrix(Direction(1, 0)) == Mat2(1, 0, 0, 1)
    assert shear_matrix(Direction(0, 1)) == Mat2(0, 1, -1, 0)


def test_shear_matrix_generic():
    # oracle: plain matrix multiplication
    for p, q in [(2, 3), (3, 2), (-2, 3), (5, 7), (-7, 5), (1, 12)]:
        d = Direction(p, q)
        m = shear_matrix(d)
        assert m.det() == 1
        assert m.apply(d.vector) == (1, 0)


def test_shear_matrix_matches_brute_force():
    # the unique det-1 matrix with bottom row (-q, p) and the smallest
    # |a|, ties to a >= 0, searched directly
    for d in primitive_directions(40):
        p, q = d.vector
        if q == 0:
            assert shear_matrix(d) == Mat2(1, 0, 0, 1)
            continue
        a = min(
            (a for a in range(-q, q + 1) if (1 - a * p) % q == 0),
            key=lambda a: (abs(a), a < 0),
        )
        assert shear_matrix(d) == Mat2(a, (1 - a * p) // q, -q, p)


def test_shear_matrix_deterministic():
    assert shear_matrix(Direction(2, 3)) == shear_matrix(Direction(2, 3))


def test_direction_normalisation():
    assert Direction(4, 6).vector == (2, 3)
    assert Direction(-1, -2).vector == (1, 2)
    assert Direction(-3, 0).vector == (1, 0)
    assert Direction(0, -5).vector == (0, 1)


def test_horizontal_decomposition_l_shapes():
    hd = decompose(make_l_origami(2, 4), Direction(1, 0))
    assert sorted((c.f, c.height_rows) for c in hd.cylinders) == [
        (1, 3),
        (2, 1),
    ]
    hd = decompose(make_l_origami(2, 6), Direction(1, 0))
    assert sorted((c.f, c.height_rows) for c in hd.cylinders) == [
        (1, 5),
        (2, 1),
    ]
    hd = decompose(TORUS, Direction(1, 0))
    assert [(c.f, c.height_rows) for c in hd.cylinders] == [(1, 1)]


def test_decompose_odd_family_direction():
    dec = decompose(make_l_origami(2, 4), Direction(2, 3))
    assert sorted(dec.f_values()) == [2, 3]
    assert dec.c_values() == (1, 1)


def test_decompose_vertical():
    dec = decompose(make_l_origami(2, 4), Direction(0, 1))
    assert sorted(dec.f_values()) == [1, 4]
    assert dec.c_values() == (1, 1)


def test_decompose_even_family_direction():
    dec = decompose(make_l_origami(2, 3), Direction(3, 5))
    by_f = {c.f: c.c for c in dec.cylinders}
    assert by_f == {2: 1, 1: 2}


def test_core_holonomy_is_f_times_direction():
    o = make_l_origami(3, 4)
    for d in (Direction(1, 0), Direction(0, 1), Direction(1, 1), Direction(-2, 3)):
        for cyl in decompose(o, d).cylinders:
            assert cyl.core.holonomy() == (cyl.f * d.p, cyl.f * d.q)


def test_area_conservation_random():
    rng = random.Random(11)
    for _ in range(25):
        o = random_h2_origami(rng, dmax=9)
        d = random_direction(rng, bound=5)
        dec = decompose(o, d)
        assert sum(c.f * c.height_rows for c in dec.cylinders) == o.degree


def test_frame_independence():
    rng = random.Random(13)
    o = make_l_origami(2, 4)
    for _ in range(12):
        d = random_direction(rng, bound=5)
        dec = decompose(o, d)
        sheared = act_matrix(o, shear_matrix(d))
        hd = decompose(sheared, Direction(1, 0))
        assert sorted(dec.f_values()) == sorted(hd.f_values())


def test_saddle_connection_count_h2():
    o = make_l_origami(2, 4)
    for d in (Direction(2, 3), Direction(1, 0), Direction(0, 1), Direction(-1, 2)):
        assert len(decompose(o, d).saddle_connections) == 3


def test_saddle_connections_torus_empty():
    assert decompose(TORUS, Direction(1, 0)).saddle_connections == ()


def _torus_covers(dmax):
    # Z^2 modulo each lattice of index d <= dmax, in Hermite normal form
    # with basis (a, 0), (b, c): a c = d, 0 <= b < a, sigma(d) of them;
    # square y a + x is (x, y), and h and v translate by (1, 0) and (0, 1)
    lattices = [(a, b, d // a) for d in range(1, dmax + 1) for a in range(1, d + 1)
                if d % a == 0 for b in range(a)]
    for a, b, c in lattices:
        h = [y * a + (x + 1) % a for y in range(c) for x in range(a)]
        v = [(y + 1) * a + x if y + 1 < c else (x - b) % a
             for y in range(c) for x in range(a)]
        yield Origami(Perm(h), Perm(v))


def test_torus_covers_are_one_cylinder_in_every_direction():
    # no cone point: the rows of every direction form one cyclic band
    covers = list(_torus_covers(6))
    assert len({canonical_form(o) for o in covers}) == len(covers) == 1 + 3 + 4 + 7 + 6 + 12
    for o in covers:
        for d in primitive_directions(5):
            dec = decompose(o, d)
            (cyl,) = dec.cylinders
            assert (cyl.f * cyl.height_rows, cyl.c) == (o.degree, 1)
            assert dec.saddle_connections == ()


def test_saddle_holonomy_positive_multiple_of_direction():
    rng = random.Random(17)
    for _ in range(15):
        o = random_h2_origami(rng, dmax=8)
        d = random_direction(rng, bound=4)
        for s in decompose(o, d).saddle_connections:
            hx, hy = s.holonomy()
            mult = hy // d.q if d.q else hx // d.p
            assert mult > 0
            assert (hx, hy) == (mult * d.p, mult * d.q)


def test_separatrix_diagram_l24():
    diag = separatrix_diagram(make_l_origami(2, 4), Direction(2, 3))
    assert diag.n_vertices == 1
    assert diag.n_edges == 3
    order = diag.cyclic_order(0)
    assert len(order) == 6
    # ends alternate outgoing / incoming around the vertex
    roles = [role for _, role in order]
    assert roles == ["out", "in"] * 3


def test_separatrix_diagram_torus_empty():
    diag = separatrix_diagram(TORUS, Direction(1, 0))
    assert diag.n_vertices == 0 and diag.n_edges == 0
    assert trace_boundaries(diag) == ()


def test_boundary_tracing_reproduces_reference_partition():
    # the two "red" saddle connections bound the long cylinder from above,
    # the single "green" one the short cylinder
    o = make_l_origami(2, 4)
    dec = decompose(o, Direction(2, 3))
    parts = trace_boundaries(separatrix_diagram(o, Direction(2, 3)))
    assert set(parts) == set(map(frozenset, dec.upper_boundaries))
    sizes = {c.f: len(ub) for c, ub in zip(dec.cylinders, dec.upper_boundaries)}
    assert sizes == {3: 2, 2: 1}


def test_boundary_tracing_single_loop_diagram():
    # synthetic diagram: one vertex of cone angle 2*pi, one edge looping
    diag = SeparatrixDiagram(
        vertices=[(0,)], edges=["loop"], edge_out=[(0, 0)], edge_in=[(0, 0)]
    )
    assert trace_boundaries(diag) == (frozenset({0}),)


def test_boundary_tracing_orders_parts_by_minimum():
    # vertices of 3 turns and of 1; the in-end of an edge at turn t goes on
    # along the out-end at turn t + 1 of its vertex
    diag = SeparatrixDiagram(
        vertices=[(0, 1, 2), (3,)], edges=["e0", "e1", "e2", "e3"],
        edge_out=[(0, 0), (0, 1), (1, 0), (0, 2)],
        edge_in=[(0, 2), (1, 0), (0, 0), (0, 1)],
    )
    assert trace_boundaries(diag) == (frozenset({0}), frozenset({1, 2}), frozenset({3}))


def test_separatrix_diagram_rejects_a_slot_used_twice():
    with pytest.raises(ValueError, match="edge ends do not fill the vertex slots"):
        SeparatrixDiagram(vertices=[(0, 1)], edges=["a", "b"],
                          edge_out=[(0, 0), (0, 0)], edge_in=[(0, 0), (0, 1)])


def test_boundary_tracing_matches_decompose_randomised():
    rng = random.Random(19)
    draws = [(random_h2_origami(rng, dmax=9), random_direction(rng, bound=5))
             for _ in range(40)]
    # any stratum, and longer directions
    draws += [(random_transitive_pair(rng), random_direction(rng, bound=40))
              for _ in range(40)]
    for o, d in draws:
        dec = decompose(o, d)
        parts = trace_boundaries(separatrix_diagram(o, d))
        saddles = dec.saddle_connections
        if not saddles:
            # a torus cover: no cone point, so no cylinder has a boundary
            assert parts == () and set(dec.upper_boundaries) == {()}
            continue
        assert len(parts) == len(dec.cylinders)
        assert set(parts) == set(map(frozenset, dec.upper_boundaries))
        # the top of a cylinder of circumference f has holonomy f * (p, q)
        for cyl, upper in zip(dec.cylinders, dec.upper_boundaries):
            hol = [saddles[i].holonomy() for i in upper]
            assert (sum(x for x, _ in hol), sum(y for _, y in hol)) == (
                cyl.f * d.p, cyl.f * d.q)


def test_decompose_traces_no_saddle_connections(monkeypatch):
    # the multitwist pipeline reads only cylinders and their core cycles; saddle
    # connections are traced on first access
    def boom(*args):
        raise RuntimeError("saddle connections traced")

    monkeypatch.setattr(geometry, "_raw_saddles", boom)
    o = make_l_origami(2, 4)
    dec = decompose(o, Direction(2, 3))
    assert sorted(dec.f_values()) == [2, 3]
    basis = standard_basis(o)
    assert dehn_twist_action(decompose(o, Direction(2, 3)), basis) == Mat2(2, 1, -1, 0)
    with pytest.raises(RuntimeError):
        dec.saddle_connections
    with pytest.raises(RuntimeError):
        dec.upper_boundaries


def test_saddle_labels_push_one_point_per_saddle(monkeypatch):
    # labels are read in the shear frame: no containment scan and no
    # pull-back, one pushed point per saddle connection
    dec = decompose(make_l_origami(2, 4), Direction(-7, 30))
    calls = {"push_forward_point": 0, "contains_point": 0, "pull_back_point": 0}
    for name in calls:
        real = getattr(geometry, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(geometry, name, counting)
    assert len(dec.upper_boundaries) == 2
    assert calls == {"push_forward_point": 3, "contains_point": 0, "pull_back_point": 0}


def test_core_is_traced_once_on_first_access(monkeypatch):
    real = geometry._trace_closed
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_trace_closed", counting)
    dec = decompose(make_l_origami(2, 4), Direction(2, 3))
    assert calls == []
    cyl = dec.cylinders[0]
    assert cyl.core is cyl.core
    assert len(calls) == 1


def test_saddle_labels_are_computed_once():
    dec = decompose(make_l_origami(2, 4), Direction(2, 3))
    saddles = dec.saddle_connections
    assert dec.saddle_connections is saddles
    assert dec.upper_boundaries is dec.upper_boundaries


def test_directions_too_long_to_trace_are_rejected(monkeypatch):
    # degree 5: d * (|p| + |q|) is 10 in direction (1, 1), 15 in (2, 1)
    o = make_l_origami(2, 4)
    monkeypatch.setattr(geometry, "MAX_TRACE_LENGTH", 10)
    assert decompose(o, Direction(1, 1)).f_values()
    assert separatrix_diagram(o, Direction(-1, 1)).n_edges == 3
    for route in (decompose, separatrix_diagram):
        with pytest.raises(ValueError, match="= 15 exceeds MAX_TRACE_LENGTH = 10"):
            route(o, Direction(2, 1))


def test_lattice_point_counts():
    assert len(lattice_points(make_l_origami(2, 4), Direction(2, 3))) == 30
    assert len(lattice_points(make_l_origami(2, 2), Direction(1, 2))) == 6
    assert len(lattice_points(TORUS, Direction(1, 1))) == 1
    assert len(lattice_points(TORUS, Direction(1, 0))) == 1


def test_lattice_points_lie_on_saddle_connections():
    for o, d in (
        (make_l_origami(2, 4), Direction(2, 3)),
        (make_l_origami(2, 2), Direction(1, 2)),
    ):
        scs = decompose(o, d).saddle_connections
        for pt in lattice_points(o, d):
            assert any(contains_point(o, s, pt) for s in scs)


def test_upper_boundary_holonomy_sums():
    o = make_l_origami(2, 6)
    d = Direction(3, 4)
    dec = decompose(o, d)
    for cyl, upper in zip(dec.cylinders, dec.upper_boundaries):
        hx = sum(dec.saddle_connections[i].holonomy()[0] for i in upper)
        hy = sum(dec.saddle_connections[i].holonomy()[1] for i in upper)
        assert (hx, hy) == (cyl.f * d.p, cyl.f * d.q)


def test_loop_segments_have_constant_direction():
    o = make_l_origami(2, 3)
    d = Direction(3, 5)
    for cyl in decompose(o, d).cylinders:
        for sq, (x0, y0), (x1, y1) in cyl.core.segments:
            assert (x1 - x0) * d.q == (y1 - y0) * d.p
            assert Fraction(0) <= x0 <= 1 and Fraction(0) <= y1 <= 1


def _canonical_key(o, state):
    # a surface point with x == 1 or y == 1 wrapped through the gluings
    sq, x, y = state
    if x == 1:
        sq, x = o.h(sq), 0
    if y == 1:
        sq, y = o.v(sq), 0
    return (sq, x, y)


def test_core_loops_close_under_gluings():
    o = make_l_origami(2, 4)
    for d in (Direction(2, 3), Direction(-1, 2), Direction(1, 0)):
        for cyl in decompose(o, d).cylinders:
            segs = cyl.core.segments
            first_entry = _canonical_key(o, (segs[0][0],) + tuple(segs[0][1]))
            last_exit = _canonical_key(o, (segs[-1][0],) + tuple(segs[-1][2]))
            assert first_entry == last_exit


def test_saddle_endpoints_are_cone_points():
    o = make_l_origami(2, 4)
    singular = {sq for sq, cyc in enumerate(_vertex_of(o)) if len(cyc) > 1}
    for s in decompose(o, Direction(2, 3)).saddle_connections:
        sq, x, y = s.start
        anchor = sq if (x, y) == (0, 0) else o.h(sq)
        assert anchor in singular
        esq, ex, ey = s.end
        assert ex in (0, 1) and ey in (0, 1)


def assert_same_curve(curve, ref):
    # the integer tracer against the Fraction one it replaced: equal
    # segment values, all of them Fractions, and the same integer form
    assert curve.segments == ref.segments
    assert all(type(c) is Fraction for s in curve.segments for c in s[1] + s[2])
    assert curve.integer_form == ref.integer_form
    assert curve.holonomy() == ref.holonomy()


def assert_direction_matches_reference(o, d):
    dec = decompose(o, d)
    for cyl in dec.cylinders:
        assert_same_curve(cyl.core, reference_core(cyl))
    ref = reference_saddles(o, d)
    assert len(dec.saddle_connections) == len(ref)
    for conn, r in zip(dec.saddle_connections, ref):
        assert_same_curve(conn, r)
        assert (conn.start, conn.end) == (r.start, r.end)


@pytest.mark.parametrize("o", [
    make_l_origami(2, 4), make_l_origami(3, 3), make_l_origami(5, 5), ONE_CYLINDER,
], ids=["L24", "L33", "L55", "one-cylinder"])
def test_integer_tracer_matches_fraction_tracer(o):
    for d in primitive_directions(8):
        assert_direction_matches_reference(o, d)


def test_integer_tracer_matches_fraction_tracer_random():
    rng = random.Random(1)
    directions = set()
    for _ in range(20):
        o = random_h2_origami(rng)
        for d in (Direction(1, 0), Direction(0, 1), Direction(-1, 1),
                  random_direction(rng), random_direction(rng)):
            directions.add(d)
            assert_direction_matches_reference(o, d)
    assert any(d.p < 0 for d in directions)


def test_integer_tracer_matches_fraction_tracer_through_regular_vertices():
    rng = random.Random(6)
    through_vertex = 0
    for o in [make_l_origami(2, 4), make_l_origami(3, 3)] + [
            random_h2_origami(rng, dmax=8) for _ in range(3)]:
        vertex_of = _vertex_of(o)
        for d in primitive_directions(5):
            for pt in row_boundary_starts(o, d):
                start = over_denominator(pt)
                loop = geometry.GeodesicLoop(o, d, *_trace_closed(o, vertex_of, start, d))
                ref = curve_from_segments(geometry.GeodesicLoop, o, d,
                                          reference_trace_closed(o, vertex_of, pt, d))
                assert_same_curve(loop, ref)
                through_vertex += any(x in (0, 1) and y in (0, 1)
                                      for _, _, (x, y) in loop.segments)
    assert through_vertex > 0


def test_step_off_the_grid_raises():
    # from (0, 0) along (1, 2) the top edge is met at x = 1/2, which is not
    # on the grid of step 1/3: the stepper's divisions must be exact
    h, v = pair_of(make_l_origami(2, 4))
    with pytest.raises(TracingError, match="off the 1/3 grid"):
        geometry._step(h, v, _inverse(h), (0, 0, 0), 1, 2, 3)


def test_tracer_asks_perm_for_no_inverse(monkeypatch):
    # the tracer reads h^-1 from one list per trace, so neither the cores,
    # the separatrices nor point membership ask Perm for an inverse
    def refuse(self):
        raise AssertionError("Perm.inverse called")

    monkeypatch.setattr(Perm, "inverse", refuse)
    o, d = make_l_origami(2, 4), Direction(-1, 2)
    dec = decompose(o, d)
    cores = [cyl.core for cyl in dec.cylinders]
    diag = separatrix_diagram(o, d)
    assert diag.n_edges == len(dec.saddle_connections) == 3
    sq, (x0, y0), (x1, y1) = cores[0].segments[0]
    assert contains_point(o, cores[0], (sq, (x0 + x1) / 2, (y0 + y1) / 2))


@pytest.mark.slow
def test_shear_and_separatrix_routes_agree_on_long_directions():
    # the two independent boundary routes at the trace lengths where the
    # integer stepper matters: L(2,4) at (20000, 1), 100,000 crossings in
    # all, and random H(2) surfaces at |p| + |q| up to 40
    rng = random.Random(40)
    cases = [(make_l_origami(2, 4), Direction(20000, 1))]
    while len(cases) < 6:
        d = random_direction(rng, 39)
        if 30 <= abs(d.p) + abs(d.q) <= 40:
            cases.append((random_h2_origami(rng), d))
    for o, d in cases:
        dec = decompose(o, d)
        diag = separatrix_diagram(o, d)
        assert set(trace_boundaries(diag)) == set(map(frozenset, dec.upper_boundaries))
        hol = [s.holonomy() for s in dec.saddle_connections]
        assert hol == [s.holonomy() for s in diag.edges]
        for cyl, upper in zip(dec.cylinders, dec.upper_boundaries):
            assert (sum(hol[i][0] for i in upper), sum(hol[i][1] for i in upper)) == (
                cyl.f * d.p, cyl.f * d.q)


def _repr_cases():
    o = make_l_origami(2, 4)
    d = Direction(2, 3)
    dec = decompose(o, d)
    basis = standard_basis(o)
    return {
        "Perm": (o.h, "Perm.from_cycles([(1, 2)], degree=5)"),
        "Origami": (o, "Origami(h=(1 2), v=(1 3 4 5), d=5)"),
        "SingularityData": (singularity_data(o), "SingularityData(cone_orders=(2,), genus=2)"),
        "Direction": (d, "Direction(2, 3)"),
        "CylinderDecomposition": (dec, "CylinderDecomposition(dir=Direction(2, 3), "
                                       "f=(2, 3), c=(1, 1))"),
        "Cylinder": (dec.cylinders[0], "Cylinder(f=2, height=1, c=1)"),
        "GeodesicLoop": (dec.cylinders[0].core,
                         "GeodesicLoop(dir=Direction(2, 3), 10 segments)"),
        "SaddleConnection": (dec.saddle_connections[0],
                             "SaddleConnection(dir=Direction(2, 3), holonomy=(4, 6))"),
        "SeparatrixDiagram": (separatrix_diagram(o, d),
                              "SeparatrixDiagram(1 vertices, 3 edges)"),
        "HomologyBasis": (basis, "HomologyBasis(dirs=(Direction(1, 0), Direction(0, 1)), "
                                 "f=(1, 2, 1, 4))"),
        "NonTautBasis": (nontaut_basis(basis), "NonTautBasis(x=(-2, 1, 0, 0), "
                                               "y=(0, 0, -4, 1))"),
    }


@pytest.mark.parametrize("name", sorted(_repr_cases()))
def test_repr_of_public_class(name):
    # every public class with its own __repr__ but Mat2 (test_sl2), on L(2,4)
    # along (2, 3)
    obj, text = _repr_cases()[name]
    assert type(obj).__name__ == name
    assert repr(obj) == text
