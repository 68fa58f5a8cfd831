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
* ``U`` = S T, T first: on pairs (h, v) -> (h o v^-1, h), one pass that
  sends v(i) to h(i).  :func:`act_letter` takes it with exponent 1 only, for
  the cycle walk of :func:`orbit`; words and point and chain transport
  are over S/T.

Acting by a matrix means decomposing it into S/T letters
(:func:`origamikz.sl2.matrix_to_word`) and applying them right-to-left,
so that ``act_matrix(act_matrix(o, N), M) == act_matrix(o, M*N)``.
Below :func:`act_matrix`, letters, words and both transports take only
image pairs (h, v) and points (square, X, Y) over a denominator n.
"""

from itertools import combinations, islice
from math import gcd

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

        The degree must be at least 1 and may not exceed :data:`MAX_DEGREE`.
        """
        symbols = [s for c in cycles for s in c]
        top = max(symbols, default=0)
        d = degree if degree is not None else top
        if d < 1:
            raise ValueError("degree %d: the degree must be at least 1" % d)
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
        return [c for c in _cycles(self.images) if include_fixed or len(c) > 1]

    def cycle_type(self):
        return tuple(sorted(map(len, _cycles(self.images)), reverse=True))

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
    seen[0] = True
    order = [0]
    for i in order:
        for j in (h[i], v[i]):
            if not seen[j]:
                seen[j] = True
                order.append(j)
    return len(order) == d


def _cycles(images):
    """Every cycle of a permutation's images, fixed points included: tuples
    from their minima, in order of those minima."""
    out = []
    seen = [False] * len(images)
    for i in range(len(images)):
        if not seen[i]:
            c = []
            j = i
            while not seen[j]:
                seen[j] = True
                c.append(j)
                j = images[j]
            out.append(tuple(c))
    return out


def _vertex_cycles(h, v):
    """The cycles of i -> v h v^-1 h^-1 i, read from the image pair (h, v).

    One full counterclockwise turn around the bottom-left vertex of
    square i = h(v(x)) ends at that of square v(h(x)) = v(h(v^-1(h^-1(i))));
    a cycle of length l is a cone point of angle 2*pi*l.
    """
    turn = [0] * len(h)
    for hx, vx in zip(h, v):
        turn[h[vx]] = v[hx]
    return _cycles(turn)


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
    """Cone orders from the vertex cycles, genus from their sum.

    The sum of the cone orders is 2*genus - 2 (a torus has none).
    """
    orders = [len(c) - 1 for c in _vertex_cycles(o.h.images, o.v.images) if len(c) > 1]
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

def act_letter(pair, gen, exp):
    """Apply a single S/T letter with exponent sign ``exp`` in {1, -1}.

    ``gen`` may also be "U" = S T with ``exp`` 1: (h, v) -> (h v^-1, h).
    ``pair`` is (h, v) as image sequences, and so is the result; no
    object is built.
    """
    h, v = pair
    if gen == "T":
        return h, [v[j] for j in (_inverse(h) if exp > 0 else h)]
    if gen == "S":
        return (_inverse(v), h) if exp > 0 else (v, _inverse(h))
    if gen == "U" and exp == 1:
        hv = [0] * len(h)
        for i, j in zip(v, h):
            hv[i] = j
        return hv, h
    raise ValueError("unknown letter %r with exponent %r" % (gen, exp))


def _transport_point(pair, gen, exp, point, n):
    """Image of a surface point under one generator acting on ``pair``.

    ``point`` is (square, X, Y) for the point (X / n, Y / n) of that
    square, with 0 <= X, Y < n; the result is the same on the acted
    pair, over the same n.
    """
    h, v = pair
    sq, x, y = point
    if gen == "T":
        if exp > 0:
            x += y
            return (sq, x, y) if x < n else (h[sq], x - n, y)
        x -= y
        return (sq, x, y) if x >= 0 else (h.index(sq), x + n, y)
    if gen == "S":
        if exp > 0:
            return (sq, n - y, x) if y else (v.index(sq), 0, x)
        return (sq, y, n - x) if x else (h.index(sq), y, 0)
    raise ValueError("unknown generator %r" % (gen,))


def transport_chain(pair, gen, exp, chain):
    """Image of a cellular 1-chain under one generator acting on ``pair``.

    ``chain`` is a pair (b, l) of integer coefficient lists over the
    edges of the surface (h, v): b_i is the bottom of square i, from its
    bottom-left corner to that of h(i), and l_i its left side, up to that
    of v(i).  Each edge goes to the edge path of the acted pair that
    :func:`_transport_point` carries it to, up to homotopy rel ends:

    * T: b_i -> b_i and l_i -> b_i + l_h(i);
    * S: b_i -> l_v^-1(i) and l_i -> -b_i;
    * T^-1: b_i -> b_i and l_i -> l_h^-1(i) - b_h^-1(i);
    * S^-1: b_i -> -l_i and l_i -> b_h^-1(i).

    T^-1 and S^-1 are the inverses of the maps of T and S, solved for the
    edges of T^-1(h, v) = (h, v h) and S^-1(h, v) = (v, h^-1).
    """
    b, l = chain
    h, v = pair
    if gen == "T":
        if exp > 0:
            return [x + y for x, y in zip(b, l)], [l[j] for j in _inverse(h)]
        return [x - l[j] for x, j in zip(b, h)], [l[j] for j in h]
    if gen == "S":
        if exp > 0:
            return [-y for y in l], [b[j] for j in v]
        return [l[j] for j in h], [-x for x in b]
    raise ValueError("unknown generator %r" % (gen,))


def act_word(pair, word):
    """Apply a word of ``(gen, exp)`` runs over S/T, rightmost run first.

    ``pair`` is (h, v) as image sequences.  Returns ``(result, stages)``
    where stages is the list of ``(gen, +-1, pair_after)`` single-letter
    applications, ``|exp|`` per run, in the order they were applied.
    Stages are what point and chain transport need.
    """
    stages = []
    for gen, exp in reversed(word):
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            pair = act_letter(pair, gen, step)
            stages.append((gen, step, pair))
    return pair, stages


def act_matrix(o, m):
    """Act on an origami by a determinant-1 integer matrix."""
    h, v = act_word((o.h.images, o.v.images), matrix_to_word(m))[0]
    return _pair_origami((tuple(h), tuple(v)))


def pull_back_point(stages, point, n):
    """Undo a stage list (from :func:`act_word`) on a surface point.

    ``point`` is (square, X, Y) over ``n``, as for
    :func:`_transport_point`, and so is the result.
    """
    for gen, exp, after in reversed(stages):
        point = _transport_point(after, gen, -exp, point, n)
    return point


def push_forward_point(pair, stages, point, n):
    """Apply a stage list (from :func:`act_word` on ``pair``) to a surface
    point over ``n``, as :func:`pull_back_point`."""
    for gen, exp, after in stages:
        point = _transport_point(pair, gen, exp, point, n)
        pair = after
    return point


def pull_back_chain(stages, chain):
    """Undo a stage list (from :func:`act_word`) on a cellular 1-chain."""
    for gen, exp, after in reversed(stages):
        chain = transport_chain(after, gen, -exp, chain)
    return chain


def push_forward_chain(pair, stages, chain):
    """Apply a stage list (from :func:`act_word` on ``pair``) to a cellular 1-chain."""
    for gen, exp, after in stages:
        chain = transport_chain(pair, gen, exp, chain)
        pair = after
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


def _orbit_graph(o, cap):
    """The S and U tables of the SL2(Z) orbit graph of ``o``.

    Returns ``(forms, s_table, u_table)``: the classes as canonical image
    pairs, numbered 0, 1, 2, ... in the order their forms are found, and
    the ids of their images under S and U = S T, as integer lists over
    those ids.  The walk and its cost are those of :func:`orbit`; raises
    :class:`OrbitCapExceeded` as it does.
    """
    h, v = o.h.images, o.v.images
    start = canonical_form((h, v))
    if canonical_form((_inverse(h), _inverse(v))) == start:
        s_order, u_order = 2, 3
    else:
        s_order, u_order = 4, 6
    forms = [start]
    ids = {start: 0}
    s_table, u_table = [-1], [-1]
    order = [0]  # the ids reached by the BFS, in BFS order
    dist = [0]  # S/T distance from the seed by id, -1 until reached

    def close_cycle(table, gen, n, x):
        # enter the cycle of class x under gen (exponent 1) into table;
        # gen's order n is a multiple of every cycle length, so all edges
        # but the last are computed and the last one goes back to x; a
        # shorter cycle, a fixed point included, closes when it comes back
        cur = x
        for _ in range(n - 1):
            form = canonical_form(act_letter(forms[cur], gen, 1))
            img = ids.get(form)
            if img is None:
                img = ids[form] = len(forms)
                forms.append(form)
                s_table.append(-1)
                u_table.append(-1)
                dist.append(-1)
            table[cur] = img
            if img == x:
                return
            cur = img
        table[cur] = x

    for pos, cur in enumerate(order):
        if s_table[cur] < 0:
            close_cycle(s_table, "S", s_order, cur)
        if u_table[cur] < 0:
            close_cycle(u_table, "U", u_order, cur)
        # T(cur) = S^-1(U(cur))
        t_img = u_table[cur]
        if s_table[t_img] < 0:
            close_cycle(s_table, "S", s_order, t_img)
        for _ in range(s_order - 1):
            t_img = s_table[t_img]
        for img in (s_table[cur], t_img):
            if dist[img] < 0:
                if len(order) >= cap:
                    raise OrbitCapExceeded(
                        "orbit exceeded cap of %d" % cap,
                        (_pair_origami(forms[i]) for i in order),
                        dist[cur], len(order) - pos,
                    )
                dist[img] = dist[cur] + 1
                order.append(img)
    return forms, s_table, u_table


def orbit(o, cap=ORBIT_CAP):
    """The SL2(Z) orbit of ``o`` as a frozenset of canonical forms.

    BFS under S and T only.  On a finite set, the set reachable by S and T
    is closed under S and T; both act injectively, so they map it onto
    itself and it is closed under their inverses too.

    The walk is :func:`_orbit_graph`.  It numbers the classes 0, 1, 2, ...
    in the order their forms are found, keeps each form once, in a list
    with one form -> id dict, and keeps the edges as two integer lists
    over the ids, S and U = S T, both whole at the end; T is read as
    S^-1 U, so it has no canonical form of its own.  The BFS keeps its
    reached ids in one list, with an S/T distance each, so each form is
    hashed once, to look up its id.  The tables are filled a cycle at a time.
    S^2 = -I acts as (h, v) -> (h^-1, v^-1).  -I is central in SL2(Z), so
    if it fixes the class of ``o`` (one extra canonical form to check), it
    fixes every class in the orbit: on the classes, S has order 2 and
    U order 3, as in PSL2(Z) = Z/2 * Z/3, and S^-1 = S.  Otherwise the
    orders are 4 and 6 and S^-1 = S^3.  A cycle of length l costs
    min(l, order - 1) letters, each one :func:`act_letter` call and one
    canonical form, so an orbit of n classes costs 7n/6 + 2 forms if no
    class is fixed by S or U, and 3n/4 + 5n/6 + 2 if -I acts and no class
    is fixed by U^2; the 2 are the seed and its -I image, which take no
    letter.  Forms are kept as pairs of image tuples, the form
    :func:`act_letter` takes and :func:`canonical_form` takes in place
    of an origami; origamis are built only for the result.

    Raises :class:`OrbitCapExceeded` if more than ``cap`` forms show up,
    carrying the partial set, the BFS depth of the form being expanded
    and the frontier: the forms found but not yet fully expanded,
    counting that one.
    """
    return frozenset(map(_pair_origami, _orbit_graph(o, cap)[0]))


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
    return gcd(*(a * d - b * c for (a, b), (c, d) in combinations(periods, 2)))


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


def _parse_int(text, line):
    if len(text.strip()) > 4300:  # the digits int() converts by default
        raise ValueError("line %r...: a number longer than 4300 digits" % line[:20])
    try:
        return int(text)
    except ValueError:
        raise ValueError("line %r: %r is not an integer" % (line, text.strip())) from None


def _parse_cycles(text, line):
    text = text.strip()
    cycles = []
    if not text:
        return cycles
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError("line %r: cycles must be parenthesised" % line)
    for chunk in text[1:-1].split(")("):
        syms = chunk.replace(",", " ").split()
        cycles.append(tuple(_parse_int(s, line) for s in syms))
    return cycles


def parse_origami(text):
    """Parse the text format.

    One line ``h=<cycles>`` and one line ``v=<cycles>``, cycles 1-based
    with fixed points omitted; an optional ``d=<int>`` line pins the
    degree, otherwise the largest symbol mentioned is used.  Degrees
    below 1 or above :data:`MAX_DEGREE` are rejected, and so is a second
    line with the same key.
    """
    d = None
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        if key not in ("d", "h", "v"):
            raise ValueError("unrecognised line %r" % line)
        if key in raw:
            raise ValueError("line %r: a second %s= line" % (line, key))
        if key == "d":
            d = raw[key] = _parse_int(rest, line)
            if d < 1:
                raise ValueError("d=%d: the degree must be at least 1" % d)
        else:
            raw[key] = _parse_cycles(rest, line)
    if "h" not in raw or "v" not in raw:
        raise ValueError("need both an h= line and a v= line")
    if d is None:
        d = max((s for c in raw["h"] + raw["v"] for s in c), default=1)
    return Origami(
        Perm.from_cycles(raw["h"], degree=d),
        Perm.from_cycles(raw["v"], degree=d),
    )
