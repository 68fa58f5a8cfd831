"""Shared helpers for the test suite: seeded random surfaces and directions,
the image pair of an origami, a Fraction point as integers over its
denominator and back, the reference action on origamis, the reference
Fraction point transport through a stage list, the reference Fraction
tracer and its curves built from Fraction segments, the reference Fraction intersection
pairing, the reference Fraction determinant and solver for the Gram
system, the traced Gram matrix and multitwist action, the reference
all-starts and cone-starts canonical forms, a four-generator orbit
search, the full centralizer of a permutation, the type-keeping 3-cycles
found by trial, the census cosets and the reference census that reduces
every transitive coset element."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from origamikz import (
    DegenerateConfigurationError,
    Direction,
    GeodesicLoop,
    Origami,
    OrigamiError,
    Perm,
    RankError,
    SaddleConnection,
    TracingError,
    canonical_form,
    decompose,
    is_primitive,
    make_l_origami,
    relabel,
    shear_matrix,
    singularity_data,
)
from origamikz import census
from origamikz.geometry import _max_steps, _vertex_of
from origamikz.homology import _solve_gram, intersection_number, nontaut_basis
from origamikz.monodromy import _in_span, twist_multiplicities
from origamikz.origami import _transitive, act_word
from origamikz.sl2 import Mat2, matrix_to_word

F0 = Fraction(0)
F1 = Fraction(1)
FHALF = Fraction(1, 2)

GENS = [("S", 1), ("T", 1), ("S", -1), ("T", -1)]


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
        o = reference_act_letter(o, *rng.choice(GENS))
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


def reference_vertex_cycles(o):
    """The cycles of v h v^-1 h^-1 by ``Perm`` algebra, fixed points included.

    One full counterclockwise turn around the bottom-left vertex of square
    i ends at the bottom-left vertex of square v(h(v^-1(h^-1(i)))): the
    product of three compositions and two inverses that
    ``origami._vertex_cycles`` reads straight from the image pair.
    """
    return (o.v * o.h * o.v.inverse() * o.h.inverse()).cycles(include_fixed=True)


def pair_of(x):
    """``(h, v)`` as image tuples, of an origami or of an image pair."""
    h, v = (x.h.images, x.v.images) if isinstance(x, Origami) else x
    return tuple(h), tuple(v)


def over_denominator(point):
    """``(n, (square, X, Y))`` for a Fraction point ``(square, X / n, Y / n)``."""
    sq, x, y = point
    n = lcm(x.denominator, y.denominator)
    return n, (sq, x.numerator * (n // x.denominator), y.numerator * (n // y.denominator))


def from_denominator(n, point):
    """The Fraction point ``(square, X / n, Y / n)`` of ``(square, X, Y)`` over ``n``."""
    sq, x, y = point
    return sq, Fraction(x, n), Fraction(y, n)


def reference_act_letter(o, gen, exp):
    """Apply a single S/T letter, or U = S T with exponent 1, to an origami.

    The origami route that :func:`origamikz.origami.act_letter` dropped
    for image pairs alone, kept as the reference action of the orbit and
    transport oracles: (h, v) goes to (h, v h^-1) under T, (v^-1, h)
    under S, their inverses accordingly, and (h v^-1, h) under U.
    """
    h, v = o.h, o.v
    if gen == "T":
        return Origami._trusted(h, v * (h.inverse() if exp > 0 else h))
    if gen == "S":
        if exp > 0:
            return Origami._trusted(v.inverse(), h)
        return Origami._trusted(v, h.inverse())
    if gen == "U" and exp == 1:
        return Origami._trusted(h * v.inverse(), h)
    raise ValueError("unknown letter %r with exponent %r" % (gen, exp))


def reference_act_word(o, word):
    """Apply ``(gen, exp)`` runs to an origami, rightmost run first, a
    :func:`reference_act_letter` step per letter."""
    for gen, exp in reversed(word):
        for _ in range(abs(exp)):
            o = reference_act_letter(o, gen, 1 if exp > 0 else -1)
    return o


def reference_stages(o, stages):
    """The origami after each stage of ``stages`` (from ``act_word`` on the
    pair of ``o``) by :func:`reference_act_letter`; each must have the
    stage's pair."""
    out = []
    for gen, exp, after in stages:
        o = reference_act_letter(o, gen, exp)
        if pair_of(o) != pair_of(after):
            raise AssertionError("stage %s%+d differs from the reference action" % (gen, exp))
        out.append(o)
    return out


def reference_push_forward(o, stages, point):
    """Apply ``stages`` (from ``act_word`` on the pair of ``o``) to a Fraction
    point, a :func:`transport_letter` step per stage."""
    for (gen, exp, _), after in zip(stages, reference_stages(o, stages)):
        point = transport_letter(o, gen, exp, point)
        o = after
    return point


def reference_pull_back(o, stages, point):
    """Undo ``stages`` (from ``act_word`` on the pair of ``o``) on a Fraction
    point, a :func:`transport_letter` step per stage."""
    for (gen, exp, _), after in zip(reversed(stages), reversed(reference_stages(o, stages))):
        point = transport_letter(after, gen, -exp, point)
    return point


def transport_letter(o, gen, exp, point):
    """Image of a surface point under one generator acting on ``o``.

    ``point`` is (square, x, y) with exact rationals, 0 <= x, y < 1.  The
    result is canonical in the same sense on the acted origami.  The
    Fraction route that :func:`origamikz.origami.push_forward_point` and
    :func:`origamikz.origami.pull_back_point` replaced with integers over
    the point's denominator; kept as their per-letter oracle.
    """
    sq, x, y = point
    h, v = o.h, o.v
    if gen == "T":
        if exp > 0:
            s = x + y
            return (sq, s, y) if s < 1 else (h(sq), s - 1, y)
        s = x - y
        return (sq, s, y) if s >= 0 else (h.inverse()(sq), s + 1, y)
    if gen == "S":
        if exp > 0:
            if y > 0:
                return (sq, 1 - y, x)
            return (v.inverse()(sq), Fraction(0), x)
        if x > 0:
            return (sq, y, 1 - x)
        return (h.inverse()(sq), y, Fraction(0))
    raise ValueError("unknown generator %r" % (gen,))


def reference_step(o, state, a, b):
    """One square crossing along (a, b), in Fractions.

    The stepper the integer one in :mod:`origamikz.geometry` replaced,
    kept as its test oracle.  Returns ``(segment, corner, next_state)``
    where ``corner`` is None for a plain edge crossing and
    ``(exit_square, (cx, cy), anchor)`` when the exit hits a grid vertex,
    ``anchor`` anchoring the corner sector it arrives in; ``next_state``
    assumes the vertex is regular.
    """
    sq, x, y = state
    h, v = o.h.images, o.v.images
    if a > 0:
        tx = (F1 - x) / a
    elif a < 0:
        tx = x / (-a)
    else:
        tx = None
    ty = (F1 - y) / b if b > 0 else None
    if tx is None:
        t = ty
    elif ty is None:
        t = tx
    else:
        t = tx if tx <= ty else ty
    nx, ny = x + t * a, y + t * b
    seg = (sq, (x, y), (nx, ny))
    corner = nx in (F0, F1) and ny in (F0, F1)
    if corner:
        if nx == F1 and ny == F1:          # direction (+, +): top-right sector
            anchor = h[v[sq]]
            nxt = (anchor, F0, F0)
        elif nx == F0 and ny == F1:        # direction (-, +) or (0, 1): top-left
            anchor = h[v[o.h.inverse()(sq)]]
            if a == 0:
                nxt = (v[sq], F0, F0)
            else:
                nxt = (o.h.inverse()(v[sq]), F1, F0)
        elif nx == F1 and ny == F0:        # direction (1, 0): bottom-right
            anchor = h[sq]
            nxt = (h[sq], F0, F0)
        else:
            raise TracingError("impossible corner exit")
        return seg, (sq, (nx, ny), anchor), nxt
    if ny == F1:
        return seg, None, (v[sq], nx, F0)
    if nx == F1:
        return seg, None, (h[sq], F0, ny)
    # nx == 0, moving left
    return seg, None, (o.h.inverse()(sq), F1, ny)


def reference_trace_closed(o, vertex_of, start, direction):
    """The Fraction segments of the closed geodesic through ``start``."""
    a, b = direction.vector
    first = state = reference_step(o, start, a, b)[2]
    segments = []
    for _ in range(_max_steps(o, a, b)):
        seg, corner, state = reference_step(o, state, a, b)
        if corner is not None and len(vertex_of[corner[2]]) > 1:
            raise TracingError("closed trace ran into a cone point")
        segments.append(seg)
        if state == first:
            return segments
    raise TracingError("trace failed to close (step budget exhausted)")


def reference_trace_to_cone_point(o, vertex_of, start, direction):
    """``(segments, corner)`` of a separatrix traced to a cone point."""
    a, b = direction.vector
    state = start
    segments = []
    for _ in range(_max_steps(o, a, b)):
        seg, corner, state = reference_step(o, state, a, b)
        segments.append(seg)
        if corner is not None and len(vertex_of[corner[2]]) > 1:
            return segments, corner
    raise TracingError("separatrix failed to terminate (no cone point hit)")


def curve_from_segments(cls, o, direction, segments):
    """A :class:`GeodesicLoop` or :class:`SaddleConnection` from Fraction
    ``segments`` ``(square, (x0, y0), (x1, y1))``.

    The coordinates are scaled to integers over their common denominator,
    and the curve is built from those steps as from a trace; the segments
    it rebuilds must equal the given ones.
    """
    n = lcm(*(c.denominator for s in segments for c in s[1] + s[2]))
    steps = [(sq,) + tuple(c.numerator * (n // c.denominator) for c in p0 + p1)
             for sq, p0, p1 in segments]
    curve = cls(o, direction, n, steps)
    if curve.segments != tuple(segments):
        raise AssertionError("segments changed on the way through integers")
    return curve


def reference_core(cyl):
    """The core of ``cyl`` traced in Fractions from the package's start point."""
    o, direction, stages = cyl._frame
    start = reference_pull_back(o, stages, (min(cyl.rows[len(cyl.rows) // 2]), F0, FHALF))
    segments = reference_trace_closed(o, _vertex_of(o), start, direction)
    return curve_from_segments(GeodesicLoop, o, direction, segments)


def reference_saddles(o, direction):
    """The saddle connections of a direction traced in Fractions, in the
    package's order: by cone point (vertex cycle, by its smallest square),
    then by turn t, starting in the corner sector anchored at the t-th
    square j of the cycle, from the corner (j, 0, 0), or (h^-1(j), 1, 0)
    when the direction points left."""
    vertex_of = _vertex_of(o)
    out = []
    for cyc in sorted({c for c in vertex_of if len(c) > 1}):
        for j in cyc:
            start = (o.h.inverse()(j), F1, F0) if direction.p < 0 else (j, F0, F0)
            segments, (exit_sq, (cx, cy), _) = reference_trace_to_cone_point(
                o, vertex_of, start, direction)
            conn = curve_from_segments(SaddleConnection, o, direction, segments)
            conn.start, conn.end = start, (exit_sq, cx, cy)
            out.append(conn)
    return out


def row_boundary_starts(o, direction):
    """Points on the line between the two lowest rows of each cylinder.

    Such a line lies inside its cylinder, so the closed geodesic through
    the point meets only regular vertices, and it meets at least one;
    core curves meet none.
    """
    _, stages = act_word(pair_of(o), matrix_to_word(shear_matrix(direction)))
    return [reference_pull_back(o, stages, (cyl.rows[1][0], FHALF, F0))
            for cyl in decompose(o, direction).cylinders if cyl.height_rows > 1]


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
    vertex_of = _vertex_of(o)
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
            crossings.add(_crossing_key(o, vertex_of, sq, x, y))
    return sign * len(crossings)


def _crossing_key(o, vertex_of, sq, x, y):
    """Canonical surface-point key for deduplicating crossings."""
    if x == F1:
        sq, x = o.h(sq), F0
    if y == F1:
        sq, y = o.v(sq), F0
    if x == F0 and y == F0:
        cyc = vertex_of[sq]
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


def traced_gram(basis):
    """The Gram matrix of ``basis`` from its traced loops, pair by pair.

    The route the cellular ``HomologyBasis.gram`` replaced, kept as its
    test oracle.
    """
    return tuple(tuple(intersection_number(a, b) for b in basis.loops)
                 for a in basis.loops)


def reference_dehn_twist_action(dec, basis):
    """The multitwist matrix of ``dec`` from traced cores.

    The traced route that :func:`origamikz.dehn_twist_action` replaced
    with cellular core intersections, kept as its test oracle: every core
    of ``dec`` is traced and paired with the traced basis loops, the
    Gram matrix is paired from those loops too, then the same Gram solve
    and span check run.  The determinant check is left to the tests.
    """
    gram = traced_gram(basis)
    gammas = [_solve_gram(gram, basis.omega_against(cyl.core))
              for cyl in dec.cylinders]
    nt = nontaut_basis(basis)
    cols = []
    for z in (nt.x, nt.y):
        w = list(z)
        for n_i, gamma in zip(twist_multiplicities(dec), gammas):
            omega = sum(
                z[i] * gram[i][j] * gamma[j] for i in range(4) for j in range(4)
            )
            for k in range(4):
                w[k] += n_i * omega * gamma[k]
        cols.append(_in_span(w, nt))
    return Mat2(cols[0][0], cols[1][0], cols[0][1], cols[1][1])


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


def cone_start_canonical_form(o):
    """The minimum of the full (h, v) keys over the cone starts.

    The same starts as :func:`origamikz.canonical_form` (the squares with
    v(h(i)) != h(v(i)), all d on a torus), the same BFS along h then v,
    but every start runs to the end and no start is dropped early: the
    oracle for the leader/challenger search and its single torus start.
    """
    d = o.degree
    h, v = o.h.images, o.v.images
    starts = [i for i in range(d) if v[h[i]] != h[v[i]]] or range(d)
    best = None
    for start in starts:
        label = [-1] * d
        order = [start]
        label[start] = 0
        for cur in order:
            for nxt in (h[cur], v[cur]):
                if label[nxt] < 0:
                    label[nxt] = len(order)
                    order.append(nxt)
        key = (tuple(label[h[i]] for i in order)
               + tuple(label[v[i]] for i in order))
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
                img = reference_canonical_form(reference_act_letter(cur, gen, exp))
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


def centralizer(perm):
    """All permutations commuting with ``perm``, as image tuples, lazily.

    Blocks of equal-length cycles may be permuted and each cycle rotated;
    the blocks are filled in recursively so nothing is materialised.
    """
    d = perm.degree
    cycles = perm.cycles(include_fixed=True)
    by_len = {}
    for c in cycles:
        by_len.setdefault(len(c), []).append(c)
    blocks = [block for _, block in sorted(by_len.items())]

    def emit(block_idx, z):
        if block_idx == len(blocks):
            yield tuple(z)
            return
        block = blocks[block_idx]
        length = len(block[0])
        m = len(block)
        for tau in permutations(range(m)):
            for rots in product(range(length), repeat=m):
                for i, cyc in enumerate(block):
                    target = block[tau[i]]
                    r = rots[i]
                    for k in range(length):
                        z[cyc[k]] = target[(k + r) % length]
                yield from emit(block_idx + 1, z)

    yield from emit(0, [None] * d)


def type_keeping_three_cycles(h):
    """Every 3-cycle c with c h of h's cycle type, smallest point first.

    All 3-cycles are tried, each as one product: the oracle for
    ``census._type_keeping_cycles``.
    """
    ptype = h.cycle_type()
    for a, b, c in combinations(range(h.degree), 3):
        for cyc in ((a, b, c), (a, c, b)):
            if Perm._trusted(census._apply_cycle(h.images, cyc)).cycle_type() == ptype:
                yield cyc


def census_cosets(degree):
    """``(h, v0)`` for each coset the census sweeps at ``degree``.

    One h per cycle type, and for each 3-cycle c with c h of h's type
    (:func:`type_keeping_three_cycles`) a v0 with v0 h v0^-1 = c h; the
    coset v0 Z(h) holds every such v.
    """
    for ptype in census._partitions(degree):
        h = Perm._trusted(census._canonical_of_type(ptype))
        for cyc in type_keeping_three_cycles(h):
            w = Perm._trusted(census._apply_cycle(h.images, cyc))
            yield h, census._conjugator(h.cycles(include_fixed=True), w.cycles(include_fixed=True))


def reference_h2_forms(degree, primitive_only=True):
    """The H(2) census of ``degree`` with no coset element skipped.

    Every v0 z over the full centralizer z of h (:func:`centralizer`)
    that is transitive with h is reduced to its canonical form, with no
    fixed-point key: the oracle for :func:`origamikz.h2_origamis`, in the
    same order.
    """
    forms = set()
    for h, v0 in census_cosets(degree):
        for z in centralizer(h):
            v = tuple(v0[x] for x in z)
            if _transitive(h.images, v):
                forms.add(canonical_form((h.images, v)))
    origamis = [Origami._trusted(Perm._trusted(hf), Perm._trusted(vf))
                for hf, vf in sorted(forms)]
    return [o for o in origamis if not primitive_only or is_primitive(o)]
