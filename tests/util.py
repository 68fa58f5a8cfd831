"""Shared helpers for the test suite: seeded random surfaces and directions,
the reference Fraction intersection pairing, the reference Fraction
determinant and solver for the Gram system, the reference all-starts
canonical form and a four-generator orbit search."""

from fractions import Fraction

from origamikz import (
    DegenerateConfigurationError,
    Direction,
    Origami,
    OrigamiError,
    Perm,
    RankError,
    act_generator,
    make_l_origami,
    relabel,
    singularity_data,
)
from origamikz.geometry import _Corners
from origamikz.origami import act_letter

F0 = Fraction(0)
F1 = Fraction(1)

GENS = ["S", "T", "S^-1", "T^-1"]


def random_h2_origami(rng, dmin=4, dmax=12):
    """A pseudo-random H(2) origami of degree in [dmin, dmax].

    Tries random transitive pairs first; if the stratum filter keeps
    missing, falls back to an L-shape pushed around by the SL2(Z) action
    and relabelled, which is always in H(2).
    """
    for _ in range(80):
        d = rng.randrange(dmin, dmax + 1)
        h = list(range(d))
        v = list(range(d))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = Origami(Perm(h), Perm(v))
        except ValueError:
            continue
        if singularity_data(o).is_h2:
            return o
    n = rng.randrange(2, 7)
    m = rng.randrange(max(2, dmin + 1 - n), min(7, dmax + 1 - n) + 1)
    o = make_l_origami(n, m)
    for _ in range(rng.randrange(1, 7)):
        o = act_generator(o, rng.choice(GENS))
    g = list(range(o.degree))
    rng.shuffle(g)
    return relabel(o, Perm(g))


def random_transitive_pair(rng, dmin=2, dmax=10):
    """Any random origami (no stratum restriction)."""
    while True:
        d = rng.randrange(dmin, dmax + 1)
        h = list(range(d))
        v = list(range(d))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            return Origami(Perm(h), Perm(v))
        except ValueError:
            continue


def random_direction(rng, bound=7):
    while True:
        p = rng.randrange(-bound, bound + 1)
        q = rng.randrange(-bound, bound + 1)
        if (p, q) != (0, 0):
            d = Direction(p, q)
            if abs(d.p) <= bound and abs(d.q) <= bound:
                return d


def reference_intersection_number(alpha, beta):
    """Signed count of crossings of two constant-direction loops.

    The Fraction implementation the integer pairing in
    :func:`origamikz.homology.intersection_number` replaced, kept as its
    test oracle.  Parallel loops return 0.  Crossing points are computed
    square by square with exact rationals and deduplicated as surface
    points, so crossings on square edges or at regular vertices are
    counted once.
    """
    o = alpha.origami
    if beta.origami != o:
        raise OrigamiError("loops live on different origamis")
    ua, ub = alpha.direction.vector, beta.direction.vector
    det = ua[0] * ub[1] - ua[1] * ub[0]
    if det == 0:
        return 0
    sign = 1 if det > 0 else -1
    corners = _Corners(o)
    by_square = {}
    for seg in beta.segments:
        by_square.setdefault(seg[0], []).append(seg)
    crossings = set()
    for sq, (ax0, ay0), (ax1, ay1) in alpha.segments:
        dax, day = ax1 - ax0, ay1 - ay0
        for _, (bx0, by0), (bx1, by1) in by_square.get(sq, ()):
            dbx, dby = bx1 - bx0, by1 - by0
            den = dax * dby - day * dbx
            rx, ry = bx0 - ax0, by0 - ay0
            t = (rx * dby - ry * dbx) / den
            u = (rx * day - ry * dax) / den
            if not (F0 <= t <= F1 and F0 <= u <= F1):
                continue
            x, y = ax0 + t * dax, ay0 + t * day
            crossings.add(_crossing_key(o, corners, sq, x, y))
    return sign * len(crossings)


def _crossing_key(o, corners, sq, x, y):
    """Canonical surface-point key for deduplicating crossings."""
    if x == F1:
        sq, x = o.h(sq), F0
    if y == F1:
        sq, y = o.v(sq), F0
    if x == F0 and y == F0:
        cyc = corners.cycle_of[sq]
        if len(cyc) > 1:
            raise DegenerateConfigurationError(
                "curves cross at a cone point (square %d)" % (sq + 1)
            )
        return ("vertex", min(cyc))
    return (sq, x, y)


def reference_det4(m):
    """Determinant of a 4x4 integer matrix by Fraction elimination.

    The elimination the closed-form Pfaffian in
    :mod:`origamikz.homology` replaced, kept as its test oracle.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    det = F1
    for col in range(4):
        piv = next((r for r in range(col, 4) if rows[r][col]), None)
        if piv is None:
            return F0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, 4):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, 4):
                rows[r][c] -= factor * rows[col][c]
    return det


def reference_solve4(m, b):
    """Exact solution of m x = b by Fraction Gauss-Jordan elimination.

    The solver the closed-form adjugate in :mod:`origamikz.homology`
    replaced, kept as its test oracle.
    """
    rows = [[Fraction(x) for x in row] + [Fraction(bi)]
            for row, bi in zip(m, b)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if rows[r][col]), None)
        if piv is None:
            raise RankError("singular intersection matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivval = rows[col][col]
        rows[col] = [x / pivval for x in rows[col]]
        for r in range(4):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[r][4] for r in range(4))


def reference_canonical_form(o):
    """Canonical relabelling: BFS numbering, minimised over start squares.

    The all-starts form that :func:`origamikz.canonical_form` replaced,
    kept as its test oracle.  Edges are explored in the fixed order
    (h, v, h^-1, v^-1); squares are renamed by discovery order and the
    lexicographically smallest (h, v) image pair over all d start squares
    wins.  Two origamis are translation-equivalent iff their canonical
    forms are equal.
    """
    d = o.degree
    h, v = o.h.images, o.v.images
    hi, vi = o.h.inverse().images, o.v.inverse().images
    best = None
    for start in range(d):
        label = [-1] * d
        order = [start]
        label[start] = 0
        for cur in order:
            for nxt in (h[cur], v[cur], hi[cur], vi[cur]):
                if label[nxt] < 0:
                    label[nxt] = len(order)
                    order.append(nxt)
        new_h = [0] * d
        new_v = [0] * d
        for i in range(d):
            new_h[label[i]] = label[h[i]]
            new_v[label[i]] = label[v[i]]
        key = tuple(new_h) + tuple(new_v)
        if best is None or key < best:
            best = key
    return Origami._trusted(Perm._trusted(best[:d]), Perm._trusted(best[d:]))


def reference_orbit(o):
    """SL2(Z) orbit by BFS under S, S^-1, T and T^-1, as reference forms."""
    start = reference_canonical_form(o)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen, exp in (("S", 1), ("S", -1), ("T", 1), ("T", -1)):
                img = reference_canonical_form(act_letter(cur, gen, exp))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def torus_cover(a, b, c):
    """The torus cover R^2 / L for the lattice L spanned by (a, 0), (b, c).

    Square (x, y), 0 <= x < a, 0 <= y < c, is square x + a*y; crossing the
    top of row c - 1 lands in row 0 shifted back by b.  Degree a*c, no
    cone point.
    """
    h = [(x + 1) % a + a * y for y in range(c) for x in range(a)]
    v = [x + a * (y + 1) if y + 1 < c else (x - b) % a
         for y in range(c) for x in range(a)]
    return Origami(Perm(h), Perm(v))
