"""Exact flat geometry on origamis: directions, cylinders, separatrices.

Everything here is exact: coordinates are :class:`fractions.Fraction` and
no float ever appears.  A surface point is a triple ``(square, x, y)``
with ``0 <= x, y < 1`` (left and bottom edges belong to the square); a
point with ``x == 1`` or ``y == 1`` is wrapped through the gluings.

Directions are primitive integer vectors in a canonical half-plane
(q > 0, or q == 0 and p > 0).  Two independent decomposition routes are
shipped on purpose: :func:`decompose` shears the origami until the
direction is horizontal and reads the cylinders off the h-cycles, while
:func:`separatrix_diagram` + :func:`trace_boundaries` never shear and
recover the cylinder boundaries combinatorially.  They validate each
other in the test suite.

:func:`decompose` builds only the cylinders (rows, f, c and core
loops), which is all the homology pipeline reads.  The saddle
connections and the upper boundary of each cylinder are traced on first
access to :attr:`CylinderDecomposition.saddle_connections` or
:attr:`CylinderDecomposition.upper_boundaries`.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import TracingError
from .origami import act_word, pull_back_point
from .sl2 import Mat2, matrix_to_word

F0 = Fraction(0)
F1 = Fraction(1)
FHALF = Fraction(1, 2)


class Direction:
    """A primitive rational direction, stored with q > 0 or (q = 0, p > 0)."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if p == 0 and q == 0:
            raise ValueError("the zero vector is not a direction")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def vector(self):
        return (self.p, self.q)

    def __eq__(self, other):
        return isinstance(other, Direction) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        return "Direction(%d, %d)" % (self.p, self.q)


def primitive_directions(max_sum):
    """All directions with |p| + |q| <= max_sum, by (|p|+|q|, q, p).

    The enumeration order is the deterministic search order used both by
    the basis finder and the exploratory index computations.
    """
    out = []
    for s in range(1, max_sum + 1):
        bucket = []
        for q in range(0, s + 1):
            p_abs = s - q
            for p in sorted({p_abs, -p_abs}):
                if q == 0 and p <= 0:
                    continue
                if gcd(abs(p), q) == 1:
                    bucket.append(Direction(p, q))
        bucket.sort(key=lambda d: (d.q, d.p))
        out.extend(bucket)
    return out


def shear_matrix(direction):
    """A determinant-1 matrix sending the direction to (1, 0).

    Bottom row (-q, p); top row (a, b) with a*p + b*q = 1, |a| smallest,
    ties broken by a >= 0.  Deterministic.
    """
    p, q = direction.p, direction.q
    if q == 0:
        return Mat2(1, 0, 0, 1)
    # every solution is a + t*q for the inverse a of p mod q
    a = pow(p, -1, q)
    if 2 * a > q:  # a - q is strictly closer to zero; ties keep a >= 0
        a -= q
    b = (1 - a * p) // q
    m = Mat2(a, b, -q, p)
    if m.det() != 1 or m.apply((p, q)) != (1, 0):
        raise TracingError("shear %r does not send %r to (1, 0)" % (m, direction))
    return m


# ---------------------------------------------------------------------------
# Corner bookkeeping
# ---------------------------------------------------------------------------

class _Corners:
    """Vertex classes of an origami, keyed by bottom-left corner squares.

    The vertex at the bottom-left corner of square i is the class of the
    corner-permutation cycle through i; its cone angle is 2*pi times the
    cycle length and it is singular iff that length exceeds 1.
    """

    __slots__ = ("cycles", "cycle_of", "pos_in")

    def __init__(self, o):
        cperm = o.corner_perm()
        self.cycles = tuple(cperm.cycles(include_fixed=True))
        self.cycle_of = {}
        self.pos_in = {}
        for cyc in self.cycles:
            for t, sq in enumerate(cyc):
                self.cycle_of[sq] = cyc
                self.pos_in[sq] = t

    def singular(self, anchor):
        return len(self.cycle_of[anchor]) > 1

    def singular_cycles(self):
        return tuple(c for c in self.cycles if len(c) > 1)


# ---------------------------------------------------------------------------
# Geodesic tracing
# ---------------------------------------------------------------------------

def _integer_segments(segments, direction):
    """Segments over the lcm ``den`` of their coordinates' denominators.

    Returns ``(den, scaled)`` with one ``(square, X0, Y0, length)`` per
    segment: ``(X0, Y0)`` is ``den`` times the entry point, and the
    segment runs ``length / den`` times the direction vector.
    """
    a, b = direction.vector
    den = lcm(*(c.denominator for s in segments for c in s[1] + s[2]))
    scaled = []
    for sq, p0, p1 in segments:
        x0, y0, x1, y1 = (c.numerator * (den // c.denominator) for c in p0 + p1)
        length = (x1 - x0) // a if a else (y1 - y0) // b
        if (x1 - x0, y1 - y0) != (length * a, length * b):
            raise TracingError("segment is not along %r" % (direction,))
        scaled.append((sq, x0, y0, length))
    return den, scaled


def _holonomy(direction, den, lengths):
    """Total displacement of a traced loop or saddle connection (integral)."""
    total = sum(lengths)
    if total % den:
        raise TracingError("non-integral holonomy %d/%d along %r" % (total, den, direction))
    return (total // den * direction.p, total // den * direction.q)


class GeodesicLoop:
    """A closed constant-direction geodesic avoiding all cone points.

    ``segments`` is a tuple of ``(square, (x0, y0), (x1, y1))`` entries
    with exact coordinates in the closed unit square; the exit of each
    segment glues to the entry of the next, cyclically.
    """

    __slots__ = ("origami", "direction", "segments", "_integral")

    def __init__(self, origami, direction, segments):
        self.origami = origami
        self.direction = direction
        self.segments = tuple(segments)
        self._integral = None

    def holonomy(self):
        den, by_square = self._integer_form()
        return _holonomy(self.direction, den,
                         (ln for segs in by_square.values() for _, _, ln in segs))

    def _integer_form(self):
        """``(den, by_square)`` from :func:`_integer_segments`, computed once.

        ``by_square`` maps a square to the ``(X0, Y0, length)`` of its
        segments.
        """
        if self._integral is None:
            den, scaled = _integer_segments(self.segments, self.direction)
            by_square = {}
            for sq, x0, y0, length in scaled:
                by_square.setdefault(sq, []).append((x0, y0, length))
            self._integral = (den, by_square)
        return self._integral

    def __repr__(self):
        return "GeodesicLoop(dir=%r, %d segments)" % (
            self.direction,
            len(self.segments),
        )


class SaddleConnection:
    """A geodesic segment between cone points with none in its interior."""

    __slots__ = ("origami", "direction", "segments", "start", "end", "upper_of")

    def __init__(self, origami, direction, segments, start, end):
        self.origami = origami
        self.direction = direction
        self.segments = tuple(segments)
        self.start = start    # (square, x, y) with x, y in {0, 1}
        self.end = end        # (square, x, y) exit corner of the last segment
        # index of the cylinder whose upper boundary this is; set when a
        # CylinderDecomposition labels its saddle connections
        self.upper_of = None

    def holonomy(self):
        den, scaled = _integer_segments(self.segments, self.direction)
        return _holonomy(self.direction, den, (s[3] for s in scaled))

    def __repr__(self):
        return "SaddleConnection(dir=%r, holonomy=%r)" % (
            self.direction,
            self.holonomy(),
        )


def _step(o, state, a, b):
    """One square crossing along (a, b).

    Returns ``(segment, corner, next_state)`` where ``corner`` is None
    for a plain edge crossing and ``(exit_square, (cx, cy), class_anchor)``
    when the exit hits a grid vertex; ``next_state`` assumes the vertex
    is regular and is only valid then.
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
        if nx == F1 and ny == F1:          # direction (+, +)
            anchor = h[v[sq]]
            nxt = (anchor, F0, F0)
        elif nx == F0 and ny == F1:        # direction (-, +) or (0, 1)
            anchor = v[sq]
            if a == 0:
                nxt = (v[sq], F0, F0)
            else:
                nxt = (o.h.inverse()(v[sq]), F1, F0)
        elif nx == F1 and ny == F0:        # direction (1, 0)
            anchor = h[sq]
            nxt = (h[sq], F0, F0)
        else:  # pragma: no cover - canonical directions never exit at (0, 0)
            raise TracingError("impossible corner exit")
        return seg, (sq, (nx, ny), anchor), nxt
    if ny == F1:
        return seg, None, (v[sq], nx, F0)
    if nx == F1:
        return seg, None, (h[sq], F0, ny)
    # nx == 0, moving left
    return seg, None, (o.h.inverse()(sq), F1, ny)


def _max_steps(o, a, b):
    return 8 * o.degree * (abs(a) + abs(b) + 2) + 16


def _trace_closed(o, corners, start, direction):
    """Trace the closed geodesic through ``start``; it must avoid cone points.

    One step from the start point, which may sit anywhere in a square,
    reaches the first edge crossing.  Tracer states at edge crossings are
    canonical for a fixed direction, so the trace then runs until that
    exact state recurs; the loop's segments start and end there.
    """
    a, b = direction.vector
    first = state = _step(o, start, a, b)[2]
    segments = []
    for _ in range(_max_steps(o, a, b)):
        seg, corner, state = _step(o, state, a, b)
        if corner is not None and corners.singular(corner[2]):
            raise TracingError("closed trace ran into a cone point")
        segments.append(seg)
        if state == first:
            return segments
    raise TracingError("trace failed to close (step budget exhausted)")


def _trace_to_singularity(o, corners, start, direction):
    """Trace a separatrix until it hits a cone point.

    Returns ``(segments, (exit_square, (cx, cy)))``.
    """
    a, b = direction.vector
    state = start
    segments = []
    for _ in range(_max_steps(o, a, b)):
        seg, corner, state = _step(o, state, a, b)
        segments.append(seg)
        if corner is not None and corners.singular(corner[2]):
            return segments, (corner[0], corner[1])
    raise TracingError("separatrix failed to terminate (no cone point hit)")


def _separatrix_starts(o, corners, direction):
    """Start states of the outgoing separatrices, with their start turn.

    Yields ``(vertex_cycle, turn, start_state)``; the start state feeds
    straight into the tracer.  In every sign case the outgoing end at
    turn t of a vertex sits in the corner sector anchored at the t-th
    square of its corner cycle.
    """
    a, b = direction.vector
    hinv = o.h.inverse()
    for cyc in corners.singular_cycles():
        for turn, j in enumerate(cyc):
            if a < 0:
                yield cyc, turn, (hinv(j), F1, F0)
            else:
                yield cyc, turn, (j, F0, F0)


def _in_end_anchor(o, exit_sq, corner_pos):
    """Sector anchor of an incoming edge-end from the tracer's exit corner."""
    sq = exit_sq
    cx, cy = corner_pos
    h, v = o.h, o.v
    if cx == F1 and cy == F1:    # arrived moving (+, +): top-right sector
        return h(v(sq))
    if cx == F0 and cy == F1:    # arrived moving (-, +) or (0, 1): top-left
        return h(v(o.h.inverse()(sq)))
    if cx == F1 and cy == F0:    # arrived moving (1, 0): bottom-right
        return h(sq)
    raise TracingError("impossible incoming corner")  # pragma: no cover


def _raw_saddles(o, corners, direction):
    """Trace all saddle connections; also return their end data.

    Returns a list of ``(SaddleConnection, out_end, in_end)`` where the
    ends are ``(vertex_cycle, turn)`` pairs.
    """
    out = []
    for cyc, turn, start in _separatrix_starts(o, corners, direction):
        segments, (exit_sq, corner_pos) = _trace_to_singularity(
            o, corners, start, direction
        )
        anchor = _in_end_anchor(o, exit_sq, corner_pos)
        in_cyc = corners.cycle_of[anchor]
        in_turn = corners.pos_in[anchor]
        conn = SaddleConnection(
            o, direction, segments, start, (exit_sq,) + tuple(corner_pos)
        )
        hol = conn.holonomy()
        # holonomy must be a positive multiple of the direction vector
        a, b = direction.vector
        mult = hol[1] // b if b else hol[0] // a
        if mult <= 0 or hol != (mult * a, mult * b):
            raise TracingError(
                "saddle holonomy %r is not along %r" % (hol, direction)
            )
        out.append((conn, (cyc, turn), (in_cyc, in_turn)))
    return out


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

class Cylinder:
    """A maximal band of closed geodesics in one direction.

    ``rows`` lists the square ids of the sheared frame, bottom row first;
    ``circumference`` (== the combinatorial length ``f``) is the number
    of squares per row and ``height_rows`` the number of rows.  ``c`` is
    the combinatorial height: row heights divided by their gcd across
    the decomposition.  ``core`` is the mid-height closed geodesic, in
    the original (unsheared) frame.
    """

    __slots__ = ("rows", "circumference", "height_rows", "f", "c", "core")

    def __init__(self, rows, circumference, height_rows, core, c=1):
        self.rows = tuple(tuple(r) for r in rows)
        self.circumference = circumference
        self.height_rows = height_rows
        self.f = circumference
        self.c = c
        self.core = core

    def __repr__(self):
        return "Cylinder(f=%d, height=%d, c=%d)" % (
            self.f,
            self.height_rows,
            self.c,
        )


class CylinderDecomposition:
    """The cylinders of one direction, sorted by (f, smallest square id).

    ``saddle_connections`` (each carrying ``upper_of``) and
    ``upper_boundaries`` (per cylinder, the sorted indices of the saddle
    connections bounding it from above) are traced together on first
    access to either.
    """

    __slots__ = ("origami", "direction", "cylinders", "_labels")

    def __init__(self, origami, direction, cylinders):
        self.origami = origami
        self.direction = direction
        self.cylinders = tuple(cylinders)
        self._labels = None

    @property
    def saddle_connections(self):
        if self._labels is None:
            self._labels = _label_saddles(self)
        return self._labels[0]

    @property
    def upper_boundaries(self):
        if self._labels is None:
            self._labels = _label_saddles(self)
        return self._labels[1]

    def f_values(self):
        return tuple(c.f for c in self.cylinders)

    def c_values(self):
        return tuple(c.c for c in self.cylinders)

    def __repr__(self):
        return "CylinderDecomposition(dir=%r, f=%r, c=%r)" % (
            self.direction,
            self.f_values(),
            self.c_values(),
        )


def _row_chains(o):
    """Group the h-cycles (rows) into cylinders.

    Rows R and v(R) belong to the same cylinder iff v(h(i)) == h(v(i))
    for every i in R, i.e. no cone point sits on the line between them.
    Returns a list of row chains, each bottom to top.
    """
    h, v = o.h.images, o.v.images
    rows = [tuple(c) for c in o.h.cycles(include_fixed=True)]
    row_of = {}
    for idx, r in enumerate(rows):
        for sq in r:
            row_of[sq] = idx
    succ = []
    for r in rows:
        if all(v[h[i]] == h[v[i]] for i in r):
            succ.append(row_of[v[r[0]]])
        else:
            succ.append(None)
    merged_targets = {s for s in succ if s is not None}
    chains = []
    visited = set()
    for start in range(len(rows)):
        if start in merged_targets or start in visited:
            continue
        chain = []
        r = start
        while r is not None and r not in visited:
            visited.add(r)
            chain.append(rows[r])
            r = succ[r]
        chains.append(chain)
    # purely cyclic leftovers (torus-like bands without singular lines)
    for start in range(len(rows)):
        if start in visited:
            continue
        chain = []
        r = start
        while r not in visited:
            visited.add(r)
            chain.append(rows[r])
            r = succ[r]
        chains.append(chain)
    for chain in chains:
        if len({len(r) for r in chain}) != 1:
            raise TracingError("rows of one cylinder differ in length")
    return chains


def decompose(o, direction):
    """Cylinder decomposition of ``o`` in a rational direction.

    Shears the origami until the direction is horizontal (a word in the
    S/T action), reads rows and heights there, and pulls the core curves
    back through the shear as exact geodesics in the original frame.
    Every rational direction on an origami is completely periodic, so
    this never fails.  Cylinders are sorted by (f, smallest square id).
    No saddle connection is traced here; the result traces and labels
    them on first access (see :class:`CylinderDecomposition`).
    """
    sheared, stages = act_word(o, matrix_to_word(shear_matrix(direction)))
    chains = _row_chains(sheared)
    corners = _Corners(o)

    heights = [len(chain) for chain in chains]
    g = 0
    for hgt in heights:
        g = gcd(g, hgt)
    cvals = [hgt // g for hgt in heights]

    cylinders = []
    for chain, hgt, c in zip(chains, heights, cvals):
        # mid-height of the middle row is interior to the cylinder, so the
        # core never meets a cone point
        start_sq = min(chain[len(chain) // 2])
        p0 = pull_back_point(stages, (start_sq, F0, FHALF))
        core = GeodesicLoop(o, direction, _trace_closed(o, corners, p0, direction))
        f = len(chain[0])
        if core.holonomy() != (f * direction.p, f * direction.q):
            raise TracingError("core holonomy is not f times the direction")
        cylinders.append(Cylinder(chain, f, hgt, core, c))

    cylinders.sort(key=lambda cyl: (cyl.f, min(min(r) for r in cyl.rows)))
    if sum(c.circumference * c.height_rows for c in cylinders) != o.degree:
        raise TracingError("cylinder areas do not sum to the degree")
    return CylinderDecomposition(o, direction, cylinders)


def _label_saddles(dec):
    """Saddle connections of a decomposition and the cylinders' upper boundaries.

    Re-derives the shear from the direction and pulls the midpoints of
    the top edges of each cylinder's top row back into the original
    frame; the saddle connection through such a point bounds that
    cylinder from above.  Returns ``(saddles, upper_boundaries)``.
    """
    o, direction = dec.origami, dec.direction
    sheared, stages = act_word(o, matrix_to_word(shear_matrix(direction)))
    corners = _Corners(o)
    saddles = [r[0] for r in _raw_saddles(o, corners, direction)]
    upper = []
    for idx, cyl in enumerate(dec.cylinders):
        found = set()
        for sq in cyl.rows[-1]:
            pt = pull_back_point(stages, (sheared.v(sq), FHALF, F0))
            found.update(i for i, s in enumerate(saddles)
                         if contains_point(o, s, pt, corners))
        upper.append(tuple(sorted(found)))
        for s in found:
            saddles[s].upper_of = idx
    if sorted(i for part in upper for i in part) != list(range(len(saddles))):
        raise TracingError("saddle connections are not each on one upper boundary")
    return tuple(saddles), tuple(upper)


# ---------------------------------------------------------------------------
# Point membership
# ---------------------------------------------------------------------------

def _encodings_in_square(o, corners, point, sq):
    """Closed-square coordinates of a surface point within square ``sq``."""
    psq, x, y = point
    h, v = o.h, o.v
    out = []
    if x == F0 and y == F0:
        cyc = corners.cycle_of[psq]
        if sq in cyc:
            out.append((F0, F0))
        if h(sq) in cyc:
            out.append((F1, F0))
        if v(sq) in cyc:
            out.append((F0, F1))
        if h(v(sq)) in cyc:
            out.append((F1, F1))
        return out
    if psq == sq:
        out.append((x, y))
    if x == F0 and h(sq) == psq:
        out.append((F1, y))
    if y == F0 and v(sq) == psq:
        out.append((x, F1))
    return out


def contains_point(o, curve, point, corners=None):
    """Whether a traced curve passes through a surface point (exactly)."""
    if corners is None:
        corners = _Corners(o)
    for seg in curve.segments:
        sq, (x0, y0), (x1, y1) = seg
        for ex, ey in _encodings_in_square(o, corners, point, sq):
            dx, dy = x1 - x0, y1 - y0
            rx, ry = ex - x0, ey - y0
            if dx * ry - dy * rx != 0:
                continue
            t = rx / dx if dx else ry / dy
            if F0 <= t <= F1:
                return True
    return False


def lattice_points(o, direction):
    """Surface points over the (1/q', 1/p') grid of the torus.

    For a direction (p, q) the grid has x-coordinates a/q' and
    y-coordinates b/p' with q' = max(|q|, 1), p' = max(|p|, 1) (a zero
    component degenerates to the corresponding edge grid).  Points are
    returned per square, so the set has size d * p' * q'.
    """
    qq = max(abs(direction.q), 1)
    pp = max(abs(direction.p), 1)
    pts = set()
    for sq in range(o.degree):
        for a in range(qq):
            for b in range(pp):
                pts.add((sq, Fraction(a, qq), Fraction(b, pp)))
    return pts


# ---------------------------------------------------------------------------
# Separatrix diagrams
# ---------------------------------------------------------------------------

class SeparatrixDiagram:
    """Ribbon graph of the saddle connections in one direction.

    Vertices are the cone points; each vertex of cone angle 2*pi*l has l
    outgoing and l incoming edge-ends whose counterclockwise cyclic
    order is out(0), in(0), out(1), in(1), ...: the ends alternate, and
    the outgoing end of turn t is immediately followed by the incoming
    end of the same turn.
    """

    __slots__ = ("vertices", "edges", "edge_out", "edge_in")

    def __init__(self, vertices, edges, edge_out, edge_in):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.edges = tuple(edges)
        self.edge_out = tuple(edge_out)  # (vertex_index, turn) per edge
        self.edge_in = tuple(edge_in)
        # every (vertex, turn) slot must carry exactly one out and one in
        for ends in (self.edge_out, self.edge_in):
            slots = sorted(ends)
            expect = sorted(
                (vi, t)
                for vi, v in enumerate(self.vertices)
                for t in range(len(v))
            )
            if slots != expect:
                raise ValueError("edge ends do not fill the vertex slots")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def cyclic_order(self, vertex_index):
        """Edge ends around one vertex, counterclockwise."""
        ell = len(self.vertices[vertex_index])
        out_at = {t: e for e, (vi, t) in enumerate(self.edge_out)
                  if vi == vertex_index}
        in_at = {t: e for e, (vi, t) in enumerate(self.edge_in)
                 if vi == vertex_index}
        order = []
        for t in range(ell):
            order.append((out_at[t], "out"))
            order.append((in_at[t], "in"))
        return tuple(order)

    def __repr__(self):
        return "SeparatrixDiagram(%d vertices, %d edges)" % (
            self.n_vertices,
            self.n_edges,
        )


def separatrix_diagram(o, direction):
    """The separatrix diagram of a direction, with exact cyclic orders.

    Edge-end angles live in the unrolled cone: the end in the corner
    sector anchored at the t-th square of a vertex cycle has angle
    2*pi*t plus its position inside [0, 2*pi), and outgoing ends always
    precede incoming ones within a turn for canonical directions.
    """
    corners = _Corners(o)
    raw = _raw_saddles(o, corners, direction)
    vertices = corners.singular_cycles()
    vindex = {cyc: i for i, cyc in enumerate(vertices)}
    edges = [r[0] for r in raw]
    edge_out = [(vindex[cyc], t) for _, (cyc, t), _ in raw]
    edge_in = [(vindex[cyc], t) for _, _, (cyc, t) in raw]
    return SeparatrixDiagram(vertices, edges, edge_out, edge_in)


def trace_boundaries(diag):
    """Partition the edges into the upper boundaries of the cylinders.

    Walking a boundary: follow an edge to its incoming end at turn t,
    then continue along the outgoing end at turn t+1 of the same vertex
    (the cylinder below spans exactly the angle pi between the two).
    Each orbit is the upper boundary of one cylinder.
    """
    out_at = {end: e for e, end in enumerate(diag.edge_out)}
    parts = []
    seen = set()
    for e0 in range(diag.n_edges):
        if e0 in seen:
            continue
        part = []
        e = e0
        while e not in seen:
            seen.add(e)
            part.append(e)
            vi, t = diag.edge_in[e]
            ell = len(diag.vertices[vi])
            e = out_at[(vi, (t + 1) % ell)]
        if e != e0:
            raise TracingError("boundary walk re-entered a foreign orbit")
        parts.append(frozenset(part))
    return tuple(sorted(parts, key=min))
