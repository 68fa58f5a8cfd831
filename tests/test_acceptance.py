"""Acceptance suite: one test per criterion, one printed line each.

Expected values are written out here from the closed-form reference
formulas for the two L(2, k) families, independently of the library's
own verification harness.
"""

import random
import time
from contextlib import contextmanager

from origamikz import (
    Direction,
    IndexCapExceeded,
    canonical_form,
    class_pushforward,
    contains_point,
    coset_action,
    decompose,
    dehn_twist_action,
    h2_origamis,
    index_in_sl2,
    intersection_number,
    lattice_points,
    make_l_origami,
    matrix_to_word,
    nontaut_basis,
    omega_class_loop,
    orbit_partition,
    separatrix_diagram,
    standard_basis,
    trace_boundaries,
    word_to_matrix,
)
from origamikz.sl2 import Mat2
from util import random_direction, random_h2_origami


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print("criterion %d FAIL: %s" % (num, description))
        raise
    print("criterion %d PASS: %s" % (num, description))


def cores_by_f(o, direction):
    return {c.f: c.core for c in decompose(o, direction).cylinders}


def test_criterion_1_odd_family_cylinder_data():
    with criterion(1, "L(2,2n) f/c data for n=1..10 in < 5 s"):
        t0 = time.perf_counter()
        for n in range(1, 11):
            o = make_l_origami(2, 2 * n)
            diag = decompose(o, Direction(n, n + 1))
            assert sorted(diag.f_values()) == sorted({2 * n - 1, 2})
            assert set(diag.c_values()) == {1}
            vert = decompose(o, Direction(0, 1))
            assert sorted(vert.f_values()) == [1, 2 * n]
            assert set(vert.c_values()) == {1}
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, "took %.2f s" % elapsed


def _odd_tables(n):
    # rows X2, X1, X, Y1, Y2, Y against columns (Theta_r, Theta_g), then
    # against (Y1, Y2)
    return (
        {
            "X2": (2 * n - 1, 3),
            "X1": (n, 1),
            "X": (-1, 1),
            "Y1": (-(n - 1), -1),
            "Y2": (-((2 * n - 2) * n + 1), -(2 * n - 1)),
            "Y": (-1, 1),
        },
        {
            "X2": (1, 1),
            "X1": (0, 1),
            "X": (1, -1),
            "Y1": (0, 0),
            "Y2": (0, 0),
            "Y": (0, 0),
        },
    )


def _even_tables(n):
    # columns (Psi_r, Psi_g), then (Theta_m, Theta_b); the Y1/Y2 rows carry
    # the determinant-rule signs
    return (
        {
            "X2": (4 * n, 3),
            "X1": (2 * n + 1, 1),
            "X": (-2, 1),
            "Y1": (-(2 * n - 1), -1),
            "Y2": (-((2 * n - 1) * (2 * n + 1) + 2), -2 * n),
            "Y": (-2, 1),
        },
        {
            "X2": (4 * n + 1, 1),
            "X1": (2 * n, 1),
            "X": (1, -1),
            "Y1": (-(2 * n + 1), -1),
            "Y2": (-((2 * n + 1) ** 2), -(2 * n + 1)),
            "Y": (0, 0),
        },
    )


def _check_table(basis, nt, col_loops, expected):
    rows = {
        "X1": basis.loops[0],
        "X2": basis.loops[1],
        "Y1": basis.loops[2],
        "Y2": basis.loops[3],
    }
    for label, want in expected.items():
        if label in rows:
            got = tuple(intersection_number(rows[label], lp) for lp in col_loops)
        else:
            coeffs = nt.x if label == "X" else nt.y
            got = tuple(omega_class_loop(basis, coeffs, lp) for lp in col_loops)
        assert got == want, "row %s: got %r want %r" % (label, got, want)


def test_criterion_2_intersection_tables():
    with criterion(2, "all 48 parameterized intersection-table entries, n=1..5"):
        for n in range(1, 6):
            o = make_l_origami(2, 2 * n)
            basis = standard_basis(o)
            nt = nontaut_basis(basis)
            t1, t2 = _odd_tables(n)
            cores = cores_by_f(o, Direction(n, n + 1))
            _check_table(basis, nt, (cores[2 * n - 1], cores[2]), t1)
            _check_table(basis, nt, (basis.loops[2], basis.loops[3]), t2)

            o = make_l_origami(2, 2 * n + 1)
            basis = standard_basis(o)
            nt = nontaut_basis(basis)
            t1, t2 = _even_tables(n)
            cores = cores_by_f(o, Direction(2 * n + 1, 2 * n + 3))
            _check_table(basis, nt, (cores[2 * n], cores[1]), t1)
            cores = cores_by_f(o, Direction(2 * n + 2, 2 * n + 1))
            _check_table(basis, nt, (cores[2 * n + 1], cores[1]), t2)


def test_criterion_3_twist_matrices():
    with criterion(3, "multitwist matrices for both families, n=1..10"):
        for n in range(1, 11):
            o = make_l_origami(2, 2 * n)
            basis = standard_basis(o)
            assert dehn_twist_action(o, Direction(n, n + 1), basis) == Mat2(
                2, 1, -1, 0
            )
            assert dehn_twist_action(o, Direction(0, 1), basis) == Mat2(1, 0, -1, 1)
            o = make_l_origami(2, 2 * n + 1)
            basis = standard_basis(o)
            assert dehn_twist_action(
                o, Direction(2 * n + 1, 2 * n + 3), basis
            ) == Mat2(3, 2, -2, -1)
            assert dehn_twist_action(
                o, Direction(2 * n + 2, 2 * n + 1), basis
            ) == Mat2(1, 0, -1, 1)


def test_criterion_4_indices():
    with criterion(4, "indices 1 (odd family) and 3 (even family), n=1..10, < 1 s each"):
        for n in range(1, 11):
            t0 = time.perf_counter()
            assert index_in_sl2([Mat2(2, 1, -1, 0), Mat2(1, 0, -1, 1)]) == 1
            assert time.perf_counter() - t0 < 1.0
            t0 = time.perf_counter()
            assert index_in_sl2([Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)]) == 3
            assert time.perf_counter() - t0 < 1.0


def test_criterion_5_cross_algorithm_equivalence():
    with criterion(5, "shear route vs separatrix route on 100 randomized cases"):
        rng = random.Random(20260809)
        for _ in range(100):
            o = random_h2_origami(rng, dmax=12)
            d = random_direction(rng, bound=7)
            dec = decompose(o, d)
            diag = separatrix_diagram(o, d)
            parts = trace_boundaries(diag)
            assert len(parts) == len(dec.cylinders)
            assert diag.n_edges == 3
            assert len(dec.saddle_connections) == 3
            # f-multisets via the boundary holonomies
            fs = []
            for part in parts:
                hx = sum(diag.edges[i].holonomy()[0] for i in part)
                hy = sum(diag.edges[i].holonomy()[1] for i in part)
                f = hy // d.q if d.q else hx // d.p
                assert (hx, hy) == (f * d.p, f * d.q)
                fs.append(f)
            assert sorted(fs) == sorted(dec.f_values())
            assert set(parts) == set(map(frozenset, dec.upper_boundaries))


def test_criterion_6_lattice_points_on_saddles():
    with criterion(6, "every (n,n+1)-lattice point of L(2,2n) is on a saddle, n=1..5"):
        for n in range(1, 6):
            o = make_l_origami(2, 2 * n)
            d = Direction(n, n + 1)
            pts = lattice_points(o, d)
            assert len(pts) == o.degree * n * (n + 1)
            scs = decompose(o, d).saddle_connections
            assert len(scs) == 3
            for pt in pts:
                assert any(contains_point(o, s, pt) for s in scs)


def test_criterion_7_orbit_census():
    with criterion(7, "census: d=4 one orbit; d=5,7 two orbits split by L-type; d=7 < 60 s"):
        assert len(orbit_partition(h2_origamis(4))) == 1
        parts5 = orbit_partition(h2_origamis(5))
        assert len(parts5) == 2
        c24 = canonical_form(make_l_origami(2, 4))
        c33 = canonical_form(make_l_origami(3, 3))
        assert any(c24 in p and c33 not in p for p in parts5)
        assert any(c33 in p and c24 not in p for p in parts5)
        t0 = time.perf_counter()
        parts7 = orbit_partition(h2_origamis(7))
        assert len(parts7) == 2
        c26 = canonical_form(make_l_origami(2, 6))
        c35 = canonical_form(make_l_origami(3, 5))
        assert any(c26 in p and c35 not in p for p in parts7)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, "d=7 census took %.1f s" % elapsed


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites (fixed seed)"):
        rng = random.Random(1729)

        # skew-symmetry of the pairing
        for _ in range(15):
            o = random_h2_origami(rng, dmax=8)
            d1, d2 = random_direction(rng, 4), random_direction(rng, 4)
            c1 = decompose(o, d1).cylinders[0].core
            c2 = decompose(o, d2).cylinders[0].core
            assert intersection_number(c1, c2) == -intersection_number(c2, c1)

        # det = 1, trace = 2, kernel preservation for multitwists; a
        # non-unimodular core-curve basis makes dehn_twist_action raise
        # its documented integrality diagnostic, which counts as reported
        from origamikz import (
            BasisUnavailableError,
            IntegralityError,
            Perm,
            relabel,
        )

        samples = []
        for _ in range(12):
            n, m = rng.randrange(2, 6), rng.randrange(2, 6)
            o = make_l_origami(n, m)
            g = list(range(o.degree))
            rng.shuffle(g)
            samples.append(relabel(o, Perm(g)))
        samples.extend(random_h2_origami(rng, dmax=8) for _ in range(12))
        produced = 0
        for o in samples:
            try:
                basis = standard_basis(o)
            except BasisUnavailableError:
                continue
            d = random_direction(rng, 5)
            try:
                m = dehn_twist_action(o, d, basis)
            except IntegralityError:
                continue
            produced += 1
            assert m.det() == 1 and m.trace() == 2
            nt = nontaut_basis(basis)
            for col in ((m.a, m.c), (m.b, m.d)):
                img = [col[0] * xi + col[1] * yi for xi, yi in zip(nt.x, nt.y)]
                assert class_pushforward(basis, img) == (0, 0)
        assert produced >= 10, "only %d multitwist samples produced" % produced

        # word / matrix round trips
        for _ in range(200):
            word = [
                (rng.choice("ST"), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randrange(0, 8))
            ]
            m = word_to_matrix(word)
            assert word_to_matrix(matrix_to_word(m)) == m

        # coset-table transitivity on the closed tables we rely on
        for gens in (
            [Mat2(2, 1, -1, 0), Mat2(1, 0, -1, 1)],
            [Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)],
        ):
            act_a, act_b = coset_action(gens)
            k = len(act_a)
            seen = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for img in (act_a[x], act_b[x]):
                    if img not in seen:
                        seen.add(img)
                        frontier.append(img)
            assert seen == set(range(k))


def test_criterion_9_conjecture_reported_not_asserted():
    with criterion(9, "exploratory indices for L(3,3), L(3,5), L(5,5) (conjectured 3)"):
        from origamikz import primitive_directions

        results = {}
        for n, m in ((3, 3), (3, 5), (5, 5)):
            o = make_l_origami(n, m)
            basis = standard_basis(o)
            gens = [
                dehn_twist_action(o, d, basis) for d in primitive_directions(10)
            ]
            try:
                results[(n, m)] = index_in_sl2(gens, cap=100000)
            except IndexCapExceeded:
                results[(n, m)] = None
        for (n, m), idx in results.items():
            flag = "" if idx == 3 else "  <-- differs from the conjectured 3!"
            print("  L(%d,%d): index %r%s" % (n, m, idx, flag))
        # reported, not asserted: the computation must complete, the
        # conjectured value is recorded but never enforced
        assert all(idx is None or isinstance(idx, int) for idx in results.values())
