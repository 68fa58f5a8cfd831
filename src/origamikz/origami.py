"""Square-tiled surfaces as permutation pairs and the SL2(Z) action on them.

An origami of degree d is a pair of permutations (h, v) of the squares
{0, .., d-1}: h(i) is the square glued to the right edge of square i and
v(i) the square glued to its top edge.  The pair must act transitively
(connected surface).  Squares are 0-based internally; the text format and
all printed cycles are 1-based.

Action conventions (fixed once, validated by the cylinder-data tests):

* ``T`` shears by [[1, 1], [0, 1]] and re-cuts along the verticals.  On
  pairs: (h, v) -> (h, v o h^-1).  On points of square i:
  (x, y) -> (x + y, y) staying in square i while x + y < 1, else
  (x + y - 1, y) in square h(i).
* ``S`` rotates by [[0, -1], [1, 0]].  On pairs: (h, v) -> (v^-1, h).
  On points: (x, y) -> (1 - y, x) in the same square for y > 0, and
  (0, x) in square v^-1(i) for y = 0.
* Inverses accordingly: T^-1: (h, v o h), point (x - y, y) / square
  h^-1(i); S^-1: (v, h^-1), point (y, 1 - x) / square h^-1(i) at x = 0.
* ``U`` = S T, T first: on pairs (h, v) -> (h o v^-1, h), one inverse and
  one composition.  :func:`act_letter` takes it with exponent 1 only, for
  the cycle walk of :func:`orbit`; words and point and chain transport
  are over S/T.

Acting by a matrix means decomposing it into S/T letters
(:func:`origamikz.sl2.matrix_to_word`) and applying them right-to-left,
so that ``act_matrix(M, act_matrix(N, o)) == act_matrix(M*N, o)``.
"""

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm

from .errors import InvalidShapeError, OrbitCapExceeded, OrigamiError
from .sl2 import matrix_to_word

# Largest degree the text format and Perm.from_cycles accept.  Checked
# before any O(d) allocation, so a hostile ``d=`` line fails cleanly.
MAX_DEGREE = 10000

# Largest d * (|p| + |q|) for which a degree-d origami is decomposed or
# traced in direction (p, q): the shear keeps one origami per unit of
# shear exponent, for as long as the decomposition lives, and the traced
# curves cross that many squares in all, so time and memory grow with it
# (at 10^5, decomposing and tracing the saddle connections takes about
# 1.2 s and 67 MB on 2 vCPUs with Python 3.11).
# Checked before the shear; every direction of the basis search
# (|p| + |q| <= 12) passes at every degree up to MAX_DEGREE.
MAX_TRACE_LENGTH = 12 * MAX_DEGREE

# Default cap on the canonical forms an SL2(Z) orbit may reach.
ORBIT_CAP = 10**6


class Perm:
    """A permutation of {0, .., d-1}, stored by its image tuple."""

    __slots__ = ("images", "_inv")

    def __init__(self, images):
        images = tuple(images)
        d = len(images)
        seen = [False] * d
        for i in images:
            if not isinstance(i, int) or i < 0 or i >= d or seen[i]:
                raise ValueError("not a permutation of 0..%d: %r" % (d - 1, images))
            seen[i] = True
        self.images = images
        self._inv = None

    @classmethod
    def _trusted(cls, images):
        """Wrap an image tuple that is a permutation by construction."""
        p = object.__new__(cls)
        p.images = images
        p._inv = None
        return p

    @classmethod
    def identity(cls, d):
        return cls(range(d))

    @classmethod
    def from_cycles(cls, cycles, degree=None):
        """Build from 1-based cycles, e.g. ``[(1, 2), (3, 5, 4)]``.

        The degree may not exceed :data:`MAX_DEGREE`.
        """
        symbols = [s for c in cycles for s in c]
        top = max(symbols, default=0)
        d = degree if degree is not None else top
        if top > d:
            raise ValueError("cycle mentions %d but degree is %d" % (top, d))
        if d > MAX_DEGREE:
            raise ValueError("degree %d exceeds MAX_DEGREE = %d" % (d, MAX_DEGREE))
        if min(symbols, default=1) < 1:
            raise ValueError("squares are numbered from 1")
        images = list(range(d))
        seen = set()
        for c in cycles:
            if len(set(c)) != len(c):
                raise ValueError("symbol repeated within cycle %r" % (c,))
            for s, t in zip(c, c[1:] + c[:1]):
                if s in seen:
                    raise ValueError("symbol %d repeated across cycles" % s)
                seen.add(s)
                images[s - 1] = t - 1
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def inverse(self):
        if self._inv is None:
            self._inv = Perm._trusted(tuple(_inverse(self.images)))
        return self._inv

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x))."""
        if len(other.images) != len(self.images):
            raise ValueError("cannot compose permutations of different degrees")
        return Perm._trusted(tuple(self.images[j] for j in other.images))

    def cycles(self, include_fixed=False):
        """Cycles as 0-based tuples, each starting at its minimum."""
        out = []
        seen = [False] * len(self.images)
        for i in range(len(self.images)):
            if seen[i]:
                continue
            c = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                c.append(j)
                seen[j] = True
                j = self.images[j]
            if len(c) > 1 or include_fixed:
                out.append(tuple(c))
        return out

    def cycle_type(self):
        lens = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return tuple(lens)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm.from_cycles(%r, degree=%d)" % (
            [tuple(s + 1 for s in c) for c in self.cycles()],
            self.degree,
        )

    def cycle_string(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(s + 1) for s in c) + ")" for c in cycles)


class Origami:
    """A connected square-tiled surface given by its gluing pair (h, v)."""

    __slots__ = ("h", "v")

    def __init__(self, h, v):
        if h.degree != v.degree:
            raise ValueError("h and v must have the same degree")
        if not _transitive(h.images, v.images):
            raise ValueError("the pair (h, v) does not act transitively")
        self.h = h
        self.v = v

    @classmethod
    def _trusted(cls, h, v):
        """Wrap a pair known to be transitive of one degree, e.g. an S/T image."""
        o = object.__new__(cls)
        o.h = h
        o.v = v
        return o

    @property
    def degree(self):
        return self.h.degree

    def corner_perm(self):
        """The permutation v h v^-1 h^-1 whose long cycles are the cone points.

        One full counterclockwise turn around the bottom-left vertex of
        square i ends at the bottom-left vertex of square
        v(h(v^-1(h^-1(i)))); a cycle of length l is a cone point of angle
        2*pi*l.
        """
        return self.v * self.h * self.v.inverse() * self.h.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, Origami)
            and self.h.images == other.h.images
            and self.v.images == other.v.images
        )

    def __hash__(self):
        return hash((self.h.images, self.v.images))

    def __repr__(self):
        return "Origami(h=%s, v=%s, d=%d)" % (
            self.h.cycle_string(),
            self.v.cycle_string(),
            self.degree,
        )


def _transitive(h, v):
    d = len(h)
    if d == 0:
        return False
    seen = [False] * d
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        i = stack.pop()
        for j in (h[i], v[i]):
            if not seen[j]:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == d


class SingularityData:
    """Cone orders (order k means angle 2*pi*(k+1)) and the genus."""

    __slots__ = ("cone_orders", "genus")

    def __init__(self, cone_orders, genus):
        self.cone_orders = tuple(sorted(cone_orders))
        self.genus = genus

    @property
    def is_h2(self):
        return self.cone_orders == (2,)

    def __eq__(self, other):
        return (
            isinstance(other, SingularityData)
            and self.cone_orders == other.cone_orders
            and self.genus == other.genus
        )

    def __repr__(self):
        return "SingularityData(cone_orders=%r, genus=%d)" % (
            self.cone_orders,
            self.genus,
        )


def singularity_data(o):
    """Cone orders from the corner permutation, genus from their sum.

    The sum of the cone orders is 2*genus - 2 (a torus has none).
    """
    orders = [len(c) - 1 for c in o.corner_perm().cycles()]
    total = sum(orders)
    if total % 2:
        raise OrigamiError("cone orders %r have an odd sum" % (orders,))
    return SingularityData(orders, total // 2 + 1)


def make_l_origami(n, m):
    """The L-shaped origami with n squares across and m squares up.

    Squares 1..n form the bottom row (h-cycle (1 .. n)); squares
    n+1..n+m-1 stack above square 1 (v-cycle (1, n+1, .., n+m-1)).
    Degree n + m - 1, stratum H(2), at most :data:`MAX_DEGREE` (checked
    before the cycles are built).
    """
    if n < 2 or m < 2:
        raise InvalidShapeError(
            "L(%d, %d) is not an L-shape; need n, m >= 2" % (n, m)
        )
    d = n + m - 1
    if d > MAX_DEGREE:
        raise ValueError("degree %d exceeds MAX_DEGREE = %d" % (d, MAX_DEGREE))
    h = Perm.from_cycles([tuple(range(1, n + 1))], degree=d)
    v = Perm.from_cycles([(1,) + tuple(range(n + 1, n + m))], degree=d)
    return Origami(h, v)


# ---------------------------------------------------------------------------
# SL2(Z) action
# ---------------------------------------------------------------------------

def act_letter(o, gen, exp):
    """Apply a single S/T letter with exponent sign ``exp`` in {1, -1}.

    ``gen`` may also be "U" = S T with ``exp`` 1: (h, v) -> (h v^-1, h).
    ``o`` is an origami, or a pair (h, v) of image sequences, for which
    the result is the pair of image sequences and no object is built.
    """
    if not isinstance(o, Origami):
        h, v = o
        if gen == "T":
            return h, [v[j] for j in (_inverse(h) if exp > 0 else h)]
        if gen == "S":
            return (_inverse(v), h) if exp > 0 else (v, _inverse(h))
        if gen == "U" and exp == 1:
            return [h[j] for j in _inverse(v)], h
        raise ValueError("unknown letter %r with exponent %r" % (gen, exp))
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


def _transport_point(o, gen, exp, point, n):
    """Image of a surface point under one generator acting on ``o``.

    ``point`` is (square, X, Y) for the point (X / n, Y / n) of that
    square, with 0 <= X, Y < n; the result is the same on the acted
    origami, over the same n.
    """
    sq, x, y = point
    if gen == "T":
        if exp > 0:
            x += y
            return (sq, x, y) if x < n else (o.h(sq), x - n, y)
        x -= y
        return (sq, x, y) if x >= 0 else (o.h.inverse()(sq), x + n, y)
    if gen == "S":
        if exp > 0:
            return (sq, n - y, x) if y else (o.v.inverse()(sq), 0, x)
        return (sq, y, n - x) if x else (o.h.inverse()(sq), y, 0)
    raise ValueError("unknown generator %r" % (gen,))


def transport_chain(o, gen, exp, chain):
    """Image of a cellular 1-chain under one generator acting on ``o``.

    ``chain`` is a pair (b, l) of integer coefficient lists over the
    edges of ``o``: b_i is the bottom of square i, from its bottom-left
    corner to that of h(i), and l_i its left side, up to that of v(i).
    Each edge goes to the edge path of the acted origami that
    :func:`_transport_point` carries it to, up to homotopy rel ends:

    * T: b_i -> b_i and l_i -> b_i + l_h(i);
    * S: b_i -> l_v^-1(i) and l_i -> -b_i;
    * T^-1: b_i -> b_i and l_i -> l_h^-1(i) - b_h^-1(i);
    * S^-1: b_i -> -l_i and l_i -> b_h^-1(i).

    T^-1 and S^-1 are the inverses of the maps of T and S, solved for the
    edges of T^-1(o) = (h, v h) and S^-1(o) = (v, h^-1).
    """
    b, l = chain
    h = o.h.images
    if gen == "T":
        if exp > 0:
            return [x + y for x, y in zip(b, l)], [l[j] for j in o.h.inverse().images]
        return [x - l[j] for x, j in zip(b, h)], [l[j] for j in h]
    if gen == "S":
        if exp > 0:
            return [-y for y in l], [b[j] for j in o.v.images]
        return [l[j] for j in h], [-x for x in b]
    raise ValueError("unknown generator %r" % (gen,))


def act_word(o, word, reuse=()):
    """Apply a word over S/T (rightmost letter first).

    Returns ``(result, stages)`` where stages is the list of
    ``(gen, exp, origami_after)`` single-letter applications, in the
    order they were applied.  Stages are what point transport needs.
    ``reuse`` holds the stages of the word's first letters on ``o``, as
    an earlier word beginning with the same letters left them: they are
    taken over whole, and only the letters after them are applied.
    """
    stages = list(reuse)
    cur = stages[-1][2] if stages else o
    skip = len(stages)
    for gen, exp in reversed(word):
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp) - skip):
            cur = act_letter(cur, gen, step)
            stages.append((gen, step, cur))
        skip = max(skip - abs(exp), 0)
    return cur, stages


def act_matrix(o, m):
    """Act by a determinant-1 integer matrix."""
    return act_word(o, matrix_to_word(m))[0]


def _over_denominator(point):
    """``(n, (square, X, Y))`` for a point ``(square, X / n, Y / n)``."""
    sq, x, y = point
    n = lcm(x.denominator, y.denominator)
    return n, (sq, x.numerator * (n // x.denominator), y.numerator * (n // y.denominator))


def pull_back_point(stages, point):
    """Undo a stage list (from :func:`act_word`) on a surface point.

    The point is carried in integers over its coordinates' denominator
    and its Fractions are built once, at the end.
    """
    n, point = _over_denominator(point)
    for gen, exp, after in reversed(stages):
        point = _transport_point(after, gen, -exp, point, n)
    return point[0], Fraction(point[1], n), Fraction(point[2], n)


def push_forward_point(o, stages, point):
    """Apply a stage list (from :func:`act_word` on ``o``) to a surface point.

    In integers over the point's denominator, as :func:`pull_back_point`.
    """
    n, point = _over_denominator(point)
    for gen, exp, after in stages:
        point = _transport_point(o, gen, exp, point, n)
        o = after
    return point[0], Fraction(point[1], n), Fraction(point[2], n)


def pull_back_chain(stages, chain):
    """Undo a stage list (from :func:`act_word`) on a cellular 1-chain."""
    for gen, exp, after in reversed(stages):
        chain = transport_chain(after, gen, -exp, chain)
    return chain


def push_forward_chain(o, stages, chain):
    """Apply a stage list (from :func:`act_word` on ``o``) to a cellular 1-chain."""
    for gen, exp, after in stages:
        chain = transport_chain(o, gen, exp, chain)
        o = after
    return chain


# ---------------------------------------------------------------------------
# Canonical forms, orbits, primitivity
# ---------------------------------------------------------------------------

def relabel(o, g):
    """Conjugate both permutations by g (square i becomes square g(i))."""
    gi = g.inverse()
    h = Perm(g(o.h(gi(i))) for i in range(o.degree))
    v = Perm(g(o.v(gi(i))) for i in range(o.degree))
    return Origami(h, v)


def canonical_form(o):
    """Canonical relabelling: BFS numbering, minimised over cone-point starts.

    From a start square, squares are renamed in BFS discovery order along
    the edges h then v, and the lexicographically smallest (h, v) image
    pair over all starts wins.  For permutations of a finite set the
    forward orbit under h and v is the orbit of <h, v>, so every square is
    numbered without h^-1 or v^-1.  The starts are the squares whose
    top-right corner is a cone point, those with v(h(i)) != h(v(i)): 3 in
    H(2).  That set is invariant under relabelling, so two origamis are
    translation-equivalent iff their canonical forms are equal; the
    representative differs from a minimum over all d starts.  A torus
    cover has no such square and one start, square 0: there h and v
    commute, so <h, v> is abelian and transitive, hence regular, and its
    centralizer (the automorphisms) takes any square to any other; every
    start gives the same pair.

    ``o`` may also be a pair (h, v) of image sequences; the result is then
    the pair of canonical image tuples and no object is built.

    Entry k of a start's h-part is final once the BFS has processed the
    square labelled k.  The first start leads; each later one challenges
    it a square at a time, advancing the leader only as far as the
    comparison needs, and stops at its first entry that differs.  A
    smaller entry makes it the leader, with the shared prefix kept.  Only
    the last leader runs to the end and builds its v-part, and at most two
    label arrays are alive at once.
    """
    is_pair = not isinstance(o, Origami)
    h, v = o if is_pair else (o.h.images, o.v.images)
    d = len(h)
    starts = [i for i in range(d) if v[h[i]] != h[v[i]]] or [0]
    label = [-1] * d
    order = [starts[0]]
    label[order[0]] = 0
    key = []  # the leader's h-part, as far as it has run
    for start in starts[1:]:
        c_label = [-1] * d
        c_label[start] = 0
        c_order = [start]
        # this loop and the leader's last run are the hot path and are
        # written out; the leader's steps on demand go through _bfs_step
        for pos, cur in enumerate(c_order):
            nxt = h[cur]
            k = c_label[nxt]
            if k < 0:
                k = c_label[nxt] = len(c_order)
                c_order.append(nxt)
            nxt = v[cur]
            if c_label[nxt] < 0:
                c_label[nxt] = len(c_order)
                c_order.append(nxt)
            if pos == len(key):
                key.append(_bfs_step(h, v, label, order, pos))
            if k != key[pos]:
                if k < key[pos]:
                    label, order = c_label, c_order
                    key[pos:] = [k]
                break
        else:
            # equal h-parts: the first v-part entry that differs decides
            for i, j in zip(order, c_order):
                if label[v[i]] != c_label[v[j]]:
                    if c_label[v[j]] < label[v[i]]:
                        label, order = c_label, c_order
                    break
        del c_label, c_order  # before the next start allocates its array
    for cur in islice(order, len(key), None):
        nxt = h[cur]
        k = label[nxt]
        if k < 0:
            k = label[nxt] = len(order)
            order.append(nxt)
        nxt = v[cur]
        if label[nxt] < 0:
            label[nxt] = len(order)
            order.append(nxt)
        key.append(k)
    # the square labelled k is order[k]
    form = tuple(key), tuple([label[v[i]] for i in order])
    return form if is_pair else _pair_origami(form)


def _bfs_step(h, v, label, order, pos):
    """Process the square labelled ``pos``; return the label of its h-image."""
    cur = order[pos]
    nxt = h[cur]
    k = label[nxt]
    if k < 0:
        k = label[nxt] = len(order)
        order.append(nxt)
    nxt = v[cur]
    if label[nxt] < 0:
        label[nxt] = len(order)
        order.append(nxt)
    return k


def _pair_origami(pair):
    return Origami._trusted(Perm._trusted(pair[0]), Perm._trusted(pair[1]))


def _inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return inv


def _close_cycle(table, gen, order, x):
    """Enter the cycle of class ``x`` under the letter ``gen`` into ``table``.

    ``gen`` is "S" or "U", applied with exponent 1.  ``order`` is a
    multiple of every cycle length, so all edges but the last are computed
    and the last one goes back to ``x``; a shorter cycle, a fixed point
    included, closes when it comes back.
    """
    cur = x
    for _ in range(order - 1):
        img = canonical_form(act_letter(cur, gen, 1))
        table[cur] = img
        if img == x:
            return
        cur = img
    table[cur] = x


def orbit(o, cap=ORBIT_CAP):
    """The SL2(Z) orbit of ``o`` as a frozenset of canonical forms.

    BFS under S and T only.  On a finite set, the set reachable by S and T
    is closed under S and T; both act injectively, so they map it onto
    itself and it is closed under their inverses too.

    The edges come from two tables filled a cycle at a time, S and
    U = S T, read as T = S^-1 U, so T has no canonical form of its own.
    S^2 = -I acts as (h, v) -> (h^-1, v^-1).  -I is central in SL2(Z), so
    if it fixes the class of ``o`` (one extra canonical form to check), it
    fixes every class in the orbit: on the classes, S has order 2 and
    U order 3, as in PSL2(Z) = Z/2 * Z/3, and S^-1 = S.  Otherwise the
    orders are 4 and 6 and S^-1 = S^3.  A cycle of length l costs
    min(l, order - 1) letters, each one :func:`act_letter` call and one
    canonical form, so an orbit of n classes costs 7n/6 + 2 forms if no
    class is fixed by S or U, and 3n/4 + 5n/6 + 2 if -I acts and no class
    is fixed by U^2; the 2 are the seed and its -I image, which take no
    letter.  Forms are kept as pairs of image tuples, which
    :func:`act_letter` and :func:`canonical_form` take in place of
    origamis; origamis are built only for the result.

    Raises :class:`OrbitCapExceeded` if more than ``cap`` forms show up,
    carrying the partial set, the BFS depth of the form being expanded
    and the frontier: the forms found but not yet fully expanded,
    counting that one.
    """
    h, v = o.h.images, o.v.images
    start = canonical_form((h, v))
    if canonical_form((_inverse(h), _inverse(v))) == start:
        s_order, u_order = 2, 3
    else:
        s_order, u_order = 4, 6
    s_map, u_map = {}, {}
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        nxt = []
        for pos, cur in enumerate(frontier):
            if cur not in s_map:
                _close_cycle(s_map, "S", s_order, cur)
            if cur not in u_map:
                _close_cycle(u_map, "U", u_order, cur)
            # U(cur) is read once: T(cur) = S^-1(U(cur))
            t_img = u_map.pop(cur)
            if t_img not in s_map:
                _close_cycle(s_map, "S", s_order, t_img)
            for _ in range(s_order - 1):
                t_img = s_map[t_img]
            for img in (s_map[cur], t_img):
                if img not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(
                            "orbit exceeded cap of %d" % cap,
                            map(_pair_origami, seen),
                            depth, len(frontier) - pos + len(nxt),
                        )
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
        depth += 1
    return frozenset(map(_pair_origami, seen))


def holonomy_lattice_index(o):
    """Index in Z^2 of the lattice of absolute periods.

    Squares get positions along a BFS over the h- and v-edges; the edge
    i -> j with unit step e has period pos(i) + e - pos(j), which is zero
    on the BFS tree.  The periods span the lattice, so its index is the
    gcd of their 2x2 minors: 0 if they have rank < 2 (cannot happen for a
    valid origami).
    """
    h, v = o.h.images, o.v.images
    pos = {0: (0, 0)}
    order = [0]
    for cur in order:
        x, y = pos[cur]
        for j, dx, dy in ((h[cur], 1, 0), (v[cur], 0, 1)):
            if j not in pos:
                pos[j] = (x + dx, y + dy)
                order.append(j)
    # distinct periods only: the minors are quadratic in their number, which
    # stays small (176 on a random degree-10,000 origami)
    periods = {
        (x + dx - pos[j][0], y + dy - pos[j][1])
        for i, (x, y) in pos.items()
        for j, dx, dy in ((h[i], 1, 0), (v[i], 0, 1))
    }
    g = 0
    for (a, b), (c, d) in combinations(periods, 2):
        g = gcd(g, a * d - b * c)
    return g


def is_primitive(o):
    """True iff the absolute-period lattice is all of Z^2."""
    return holonomy_lattice_index(o) == 1


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_origami(o):
    """Serialise to the line format ``d=5 / h=(1 2) / v=(1 3 4 5)``."""
    return "d=%d\nh=%s\nv=%s\n" % (
        o.degree,
        o.h.cycle_string(),
        o.v.cycle_string(),
    )


def _parse_cycles(text, line):
    text = text.strip()
    cycles = []
    if text in ("", "()"):
        return cycles
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError("line %r: cycles must be parenthesised" % line)
    for chunk in text[1:-1].split(")("):
        syms = chunk.replace(",", " ").split()
        if not syms:
            continue
        cycles.append(tuple(int(s) for s in syms))
    return cycles


def parse_origami(text):
    """Parse the text format.

    One line ``h=<cycles>`` and one line ``v=<cycles>``, cycles 1-based
    with fixed points omitted; an optional ``d=<int>`` line pins the
    degree, otherwise the largest symbol mentioned is used.  Degrees
    above :data:`MAX_DEGREE` are rejected.
    """
    d = None
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        if key == "d":
            d = int(rest)
        elif key in ("h", "v"):
            raw[key] = _parse_cycles(rest, line)
        else:
            raise ValueError("unrecognised line %r" % line)
    if "h" not in raw or "v" not in raw:
        raise ValueError("need both an h= line and a v= line")
    if d is None:
        d = max((s for c in raw["h"] + raw["v"] for s in c), default=1)
    return Origami(
        Perm.from_cycles(raw["h"], degree=d),
        Perm.from_cycles(raw["v"], degree=d),
    )
