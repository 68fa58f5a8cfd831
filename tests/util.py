"""Shared helpers for the test suite: seeded random surfaces and directions,
and the reference Fraction intersection pairing."""

from fractions import Fraction

from origamikz import (
    DegenerateConfigurationError,
    Direction,
    Origami,
    OrigamiError,
    Perm,
    act_generator,
    make_l_origami,
    relabel,
    singularity_data,
)
from origamikz.geometry import _Corners

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
