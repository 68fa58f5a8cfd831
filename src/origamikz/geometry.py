"""Exact flat geometry on origamis: directions, cylinders, separatrices.

Everything here is exact: coordinates are :class:`fractions.Fraction`,
the tracer (:func:`_step`) steps in integers over one denominator per
curve, and no float ever appears.  A surface point is a triple
``(square, x, y)`` with ``0 <= x, y < 1`` (left and bottom edges belong
to the square); a point with ``x == 1`` or ``y == 1`` is wrapped through
the gluings.

Directions are primitive integer vectors in a canonical half-plane
(q > 0, or q == 0 and p > 0).  Two independent decomposition routes are
shipped on purpose: :func:`decompose` shears the origami until the
direction is horizontal and reads the cylinders off the h-cycles, while
:func:`separatrix_diagram` + :func:`trace_boundaries` never shear and
recover the cylinder boundaries combinatorially.  They validate each
other in the test suite.

:func:`decompose` shears once, or takes the stages of a shear already
made, and builds only the cylinders (rows, f and c), keeping the shear's
stages.  The multitwist pipeline reads the cores as cellular cycles
through those stages (:meth:`CylinderDecomposition.core_cycles`) and
pairs them with cycles pushed through the shear
(:meth:`CylinderDecomposition.omega_with_cores`); a core loop is traced
on first access to :attr:`Cylinder.core`, and the saddle connections
and the upper boundary of each cylinder on first access to
:attr:`CylinderDecomposition.saddle_connections` or
:attr:`CylinderDecomposition.upper_boundaries`.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import TracingError
from .origami import (MAX_TRACE_LENGTH, _over_denominator, act_word, pull_back_chain,
                      pull_back_point, push_forward_point)
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
        self.p = p
        self.q = q

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

class _Curve:
    """A traced constant-direction curve with its integer form.

    Built from a trace's ``steps``, ``(square, X0, Y0, X1, Y1)`` square
    crossings from ``(X0, Y0) / n`` to ``(X1, Y1) / n``.  ``segments``
    holds them as ``(square, (x0, y0), (x1, y1))`` with exact
    :class:`fractions.Fraction` coordinates in the closed unit square, two
    new Fractions per exit point (an entry point shares the previous
    exit's, or is ``F0``/``F1`` where it wrapped).  ``integer_form`` is
    ``(den, by_square)``: ``den`` is ``n`` over the gcd of ``n`` and every
    coordinate, and ``by_square`` maps a square to the ``(X0, Y0,
    length)`` of its segments over ``den``, each running ``length / den``
    times the direction vector.
    """

    __slots__ = ("origami", "direction", "segments", "integer_form")

    def __init__(self, origami, direction, n, steps):
        self.origami = origami
        self.direction = direction
        segments = []
        px = py = fx = fy = None
        for sq, x0, y0, x1, y1 in steps:
            if x0 != px:
                fx = F0 if x0 == 0 else F1 if x0 == n else Fraction(x0, n)
            if y0 != py:
                fy = F0 if y0 == 0 else F1 if y0 == n else Fraction(y0, n)
            exit_point = (Fraction(x1, n), Fraction(y1, n))
            segments.append((sq, (fx, fy), exit_point))
            px, py, (fx, fy) = x1, y1, exit_point
        self.segments = tuple(segments)
        a, b = direction.vector
        g = n
        for step in steps:
            if g == 1:
                break
            g = gcd(g, *step[1:])
        by_square = {}
        for sq, x0, y0, x1, y1 in steps:
            length = (x1 - x0) // a if a else (y1 - y0) // b
            if (x1 - x0, y1 - y0) != (length * a, length * b):
                raise TracingError("segment is not along %r" % (direction,))
            by_square.setdefault(sq, []).append((x0 // g, y0 // g, length // g))
        self.integer_form = (n // g, by_square)

    def holonomy(self):
        """Total displacement of the curve (integral)."""
        den, by_square = self.integer_form
        total = sum(ln for segs in by_square.values() for _, _, ln in segs)
        if total % den:
            raise TracingError("non-integral holonomy %d/%d along %r"
                               % (total, den, self.direction))
        return (total // den * self.direction.p, total // den * self.direction.q)


class GeodesicLoop(_Curve):
    """A closed constant-direction geodesic avoiding all cone points.

    The exit of each segment glues to the entry of the next, cyclically.
    """

    __slots__ = ()

    def __repr__(self):
        return "GeodesicLoop(dir=%r, %d segments)" % (
            self.direction,
            len(self.segments),
        )


class SaddleConnection(_Curve):
    """A geodesic segment between cone points with none in its interior."""

    # set by the tracer: first entry and last exit corners, (square, x, y)
    __slots__ = ("start", "end")

    def __repr__(self):
        return "SaddleConnection(dir=%r, holonomy=%r)" % (
            self.direction,
            self.holonomy(),
        )


def _check_trace_length(o, direction):
    """Raise ValueError if ``direction`` is too long to trace on ``o``."""
    p, q = direction.vector
    length = o.degree * (abs(p) + abs(q))
    if length > MAX_TRACE_LENGTH:
        raise ValueError(
            "direction (%d,%d) is too long to trace on a degree-%d origami: "
            "d*(|p|+|q|) = %d exceeds MAX_TRACE_LENGTH = %d"
            % (p, q, o.degree, length, MAX_TRACE_LENGTH)
        )


def _max_steps(o, a, b):
    return 8 * o.degree * (abs(a) + abs(b) + 2) + 16


def _on_grid(point, a, b):
    """``(n, (square, X, Y))`` for the point ``(X / n, Y / n)``: a trace along
    (a, b) from a point over D meets every edge on this grid."""
    n, (sq, x, y) = _over_denominator(point)
    k = lcm(a or 1, b or 1)  # lcm(0, k) is 0
    return n * k, (sq, x * k, y * k)


def _step(o, state, a, b, n):
    """One square crossing along (a, b) from ``(square, X, Y)`` over ``n``.

    Returns ``(step, anchor, next_state)``: ``step`` is ``(square, X0, Y0,
    X1, Y1)``; ``anchor`` is None at a plain edge crossing, else it anchors
    the corner sector the exit vertex arrives in; ``next_state`` assumes
    the vertex is regular.  The exit parameters ``ex / |a|`` and ``ey / b``
    are compared cross-multiplied, ties going to the side edge.
    """
    sq, x, y = state
    h, v = o.h.images, o.v.images
    ex = n - x if a > 0 else x
    ey = n - y
    if a and (b == 0 or ex * b <= ey * abs(a)):
        dy, r = divmod(ex * b, abs(a))
        nx, ny = (n if a > 0 else 0), y + dy
    else:
        dx, r = divmod(ey * a, b)
        nx, ny = x + dx, n
    if r:
        raise TracingError("crossing is off the 1/%d grid" % n)
    step = (sq, x, y, nx, ny)
    if nx in (0, n) and ny in (0, n):
        if nx == n and ny == n:            # direction (+, +): top-right sector
            anchor = h[v[sq]]
            nxt = (anchor, 0, 0)
        elif nx == 0 and ny == n:          # direction (-, +) or (0, 1): top-left
            anchor = h[v[o.h.inverse()(sq)]]
            nxt = (v[sq], 0, 0) if a == 0 else (o.h.inverse()(v[sq]), n, 0)
        elif nx == n and ny == 0:          # direction (1, 0): bottom-right
            anchor = h[sq]
            nxt = (h[sq], 0, 0)
        else:  # pragma: no cover - canonical directions never exit at (0, 0)
            raise TracingError("impossible corner exit")
        return step, anchor, nxt
    if ny == n:
        return step, None, (v[sq], nx, 0)
    if nx == n:
        return step, None, (h[sq], 0, ny)
    # nx == 0, moving left
    return step, None, (o.h.inverse()(sq), n, ny)


def _trace_closed(o, corners, start, direction):
    """Trace the closed geodesic through ``start``; it must avoid cone points.

    One step from the start point, which may sit anywhere in a square,
    reaches the first edge crossing.  Tracer states at edge crossings are
    canonical for a fixed direction, so the trace then runs until that
    exact state recurs; the loop's steps start and end there.  Returns
    ``(n, steps)`` for :class:`GeodesicLoop`.
    """
    a, b = direction.vector
    n, state = _on_grid(start, a, b)
    first = state = _step(o, state, a, b, n)[2]
    steps = []
    for _ in range(_max_steps(o, a, b)):
        step, anchor, state = _step(o, state, a, b, n)
        if anchor is not None and corners.singular(anchor):
            raise TracingError("closed trace ran into a cone point")
        steps.append(step)
        if state == first:
            return n, steps
    raise TracingError("trace failed to close (step budget exhausted)")


def _trace_to_singularity(o, corners, start, direction):
    """Trace a separatrix until it hits a cone point.

    Returns ``(n, steps, anchor)`` with the anchor of the cone point's
    corner sector it arrives in (see :func:`_step`).
    """
    a, b = direction.vector
    n, state = _on_grid(start, a, b)
    steps = []
    for _ in range(_max_steps(o, a, b)):
        step, anchor, state = _step(o, state, a, b, n)
        steps.append(step)
        if anchor is not None and corners.singular(anchor):
            return n, steps, anchor
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


def _raw_saddles(o, corners, direction):
    """Trace all saddle connections; also return their end data.

    Returns a list of ``(SaddleConnection, out_end, in_end)`` where the
    ends are ``(vertex_cycle, turn)`` pairs.
    """
    out = []
    for cyc, turn, start in _separatrix_starts(o, corners, direction):
        n, steps, anchor = _trace_to_singularity(o, corners, start, direction)
        conn = SaddleConnection(o, direction, n, steps)
        conn.start = start
        conn.end = (steps[-1][0],) + conn.segments[-1][2]
        in_end = (corners.cycle_of[anchor], corners.pos_in[anchor])
        hol = conn.holonomy()
        # holonomy must be a positive multiple of the direction vector
        a, b = direction.vector
        mult = hol[1] // b if b else hol[0] // a
        if mult <= 0 or hol != (mult * a, mult * b):
            raise TracingError(
                "saddle holonomy %r is not along %r" % (hol, direction)
            )
        out.append((conn, (cyc, turn), in_end))
    return out


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

class Cylinder:
    """A maximal band of closed geodesics in one direction.

    ``rows`` lists the square ids of the sheared frame, bottom row first;
    ``f`` (the circumference) is the number of squares per row and
    ``height_rows`` the number of rows.  ``c`` is the combinatorial
    height: row heights divided by their gcd across the decomposition.
    ``core`` is the mid-height closed geodesic, in the original
    (unsheared) frame, traced on first access.
    """

    __slots__ = ("rows", "height_rows", "f", "c", "_frame", "_core")

    def __init__(self, rows, f, height_rows, c, frame):
        self.rows = tuple(tuple(r) for r in rows)
        self.height_rows = height_rows
        self.f = f
        self.c = c
        self._frame = frame  # (origami, direction, shear stages)
        self._core = None

    @property
    def core(self):
        if self._core is None:
            self._core = _trace_core(self)
        return self._core

    def __repr__(self):
        return "Cylinder(f=%d, height=%d, c=%d)" % (
            self.f,
            self.height_rows,
            self.c,
        )


class CylinderDecomposition:
    """The cylinders of one direction, sorted by (f, smallest square id).

    The stages of the shear that made the direction horizontal are kept:
    cores are traced from them on first access, cellular core cycles and
    their intersections are read through them, and ``saddle_connections``
    and ``upper_boundaries`` (per cylinder, the sorted indices of the
    saddle connections bounding it from above) are traced and labelled
    with them, together, on first access to either.
    """

    __slots__ = ("origami", "direction", "cylinders", "_stages", "_labels")

    def __init__(self, origami, direction, cylinders, stages):
        self.origami = origami
        self.direction = direction
        self.cylinders = tuple(cylinders)
        self._stages = stages
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

    def core_cycles(self):
        """Each cylinder's core as a cellular 1-cycle (b, l) of the origami.

        In the sheared frame the bottom edges of the cylinder's bottom
        row and the row's mid-height line bound its lower half, so their
        sum is homologous to the core; it is pulled back through the
        shear with :func:`origamikz.origami.pull_back_chain`, whose edges
        are those of :func:`origamikz.origami.transport_chain`.
        """
        d = self.origami.degree
        p, q = self.direction.vector
        out = []
        for cyl in self.cylinders:
            b = [0] * d
            for sq in cyl.rows[0]:
                b[sq] = 1
            z = pull_back_chain(self._stages, (b, [0] * d))
            if (sum(z[0]), sum(z[1])) != (cyl.f * p, cyl.f * q):
                raise TracingError("core cycle holonomy is not f times the direction")
            out.append(z)
        return out

    def omega_with_cores(self, pushed):
        """omega(cycle, core) for each cylinder, without tracing a core.

        ``pushed`` is a cellular 1-cycle of the origami pushed through the
        whole shear (:func:`origamikz.origami.push_forward_chain`).  In
        the sheared frame each core runs along (1, 0) at mid-height of its
        rows, so the cycle meets a core only on the left edges l_i of the
        core's row, each once and upwards; such a crossing counts
        det[(0, 1), (1, 0)] = -1, as in
        :func:`origamikz.homology.intersection_number`.
        """
        _, l = pushed
        return tuple(-sum(l[sq] for sq in cyl.rows[0]) for cyl in self.cylinders)

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
    # bottom rows (no row merges into them) first; what is left are purely
    # cyclic bands without singular lines, walked from their first row
    for start in sorted(range(len(rows)), key=merged_targets.__contains__):
        if start in visited:
            continue
        chain = []
        r = start
        while r is not None and r not in visited:
            visited.add(r)
            chain.append(rows[r])
            r = succ[r]
        chains.append(chain)
    for chain in chains:
        if len({len(r) for r in chain}) != 1:
            raise TracingError("rows of one cylinder differ in length")
    return chains


def decompose(o, direction, stages=None):
    """Cylinder decomposition of ``o`` in a rational direction.

    Shears the origami until the direction is horizontal (a word in the
    S/T action) and reads rows and heights there; the shear's stages
    stay on the result.  ``stages``, if given, are those stages already
    made: ``act_word(o, matrix_to_word(shear_matrix(direction)))[1]``
    or a list with the same letters and origamis, taken as they are and
    not sheared again.  Every rational direction on an origami is
    completely periodic, so this never fails.  Cylinders are sorted by
    (f, smallest square id).  No curve is traced here: a core is pulled
    back through the shear and traced on first access (see
    :class:`Cylinder`), and the saddle connections are traced and
    labelled on first access (see :class:`CylinderDecomposition`).
    """
    _check_trace_length(o, direction)
    if stages is None:
        stages = act_word(o, matrix_to_word(shear_matrix(direction)))[1]
    sheared = stages[-1][2] if stages else o
    chains = _row_chains(sheared)

    heights = [len(chain) for chain in chains]
    g = 0
    for hgt in heights:
        g = gcd(g, hgt)
    frame = (o, direction, stages)
    cylinders = [Cylinder(chain, len(chain[0]), hgt, hgt // g, frame)
                 for chain, hgt in zip(chains, heights)]
    cylinders.sort(key=lambda cyl: (cyl.f, min(min(r) for r in cyl.rows)))
    if sum(c.f * c.height_rows for c in cylinders) != o.degree:
        raise TracingError("cylinder areas do not sum to the degree")
    return CylinderDecomposition(o, direction, cylinders, stages)


def _trace_core(cyl):
    """Pull a cylinder's mid-height point back through the shear and trace."""
    o, direction, stages = cyl._frame
    # mid-height of the middle row is interior to the cylinder, so the
    # core never meets a cone point
    start_sq = min(cyl.rows[len(cyl.rows) // 2])
    p0 = pull_back_point(stages, (start_sq, F0, FHALF))
    core = GeodesicLoop(o, direction, *_trace_closed(o, _Corners(o), p0, direction))
    if core.holonomy() != (cyl.f * direction.p, cyl.f * direction.q):
        raise TracingError("core holonomy is not f times the direction")
    return core


def _label_saddles(dec):
    """Saddle connections of a decomposition and the cylinders' upper boundaries.

    Pushes the midpoint of each saddle connection's first segment through
    the kept shear stages into the sheared frame, where the connection
    is horizontal: the point lies on the bottom edge of a square s, and
    the connection bounds from above the cylinder whose top row holds
    v^-1(s).  Returns ``(saddles, upper_boundaries)``.
    """
    o, direction, stages = dec.origami, dec.direction, dec._stages
    sheared = stages[-1][2] if stages else o
    top_row_of = {sq: k for k, cyl in enumerate(dec.cylinders) for sq in cyl.rows[-1]}
    saddles = tuple(r[0] for r in _raw_saddles(o, _Corners(o), direction))
    upper = [[] for _ in dec.cylinders]
    for i, s in enumerate(saddles):
        sq, (x0, y0), (x1, y1) = s.segments[0]
        top_sq, _, y = push_forward_point(o, stages, (sq, (x0 + x1) / 2, (y0 + y1) / 2))
        k = top_row_of.get(sheared.v.inverse()(top_sq))
        if y != F0 or k is None:
            raise TracingError("saddle connection %d is on no upper boundary" % i)
        upper[k].append(i)
    # each saddle is on one upper boundary by construction; with cone
    # points, each boundary must also have its cylinder's length
    for cyl, part in zip(dec.cylinders, upper):
        hol = tuple(map(sum, zip(*(saddles[i].holonomy() for i in part))))
        if saddles and hol != (cyl.f * direction.p, cyl.f * direction.q):
            raise TracingError("upper boundary holonomy is not f times the direction")
    return saddles, tuple(map(tuple, upper))


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


def contains_point(o, curve, point):
    """Whether a traced curve passes through a surface point (exactly)."""
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
    _check_trace_length(o, direction)
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
