"""Intersection pairing of geodesic loops and the 4-curve homology basis.

A curve meets the basis (X1, X2, Y1, Y2) of core curves of two
cylinder decompositions as its row (omega(X1, c), .., omega(Y2, c)):
read cellularly for a cylinder core, with the basis curves as cellular
1-cycles pushed through the core's shear, where it is horizontal
(:meth:`HomologyBasis.omega_against_cores`, no curve traced), or paired
with the traced basis loops (:meth:`HomologyBasis.omega_against`).  The
basis's own rows give its Gram matrix A, and a class is recovered from
its row by solving ``A x = row`` in integers.  A is skew-symmetric, so
det(A) = Pf(A)^2 and A^-1 = adj(A) / Pf(A) in closed form.

Sign convention: a transverse crossing of a curve in direction u with a
curve in direction w counts as the sign of det[u w] (columns u, w).  All
crossings of two constant-direction loops share that sign, so the
pairing is the signed count of distinct crossing points.  The pairing is
integer arithmetic: each loop's coordinates are scaled once to integers
over their common denominator, and crossing parameters of a loop pair
are integers over det[u w].
"""

from math import gcd, lcm

from .errors import (
    BasisUnavailableError,
    DegenerateConfigurationError,
    IntegralityError,
    NoBasisFoundError,
    OrigamiError,
    RankError,
    TracingError,
)
from .geometry import (
    Direction,
    _Corners,
    decompose,
    primitive_directions,
)
from .origami import push_forward_chain, singularity_data


def intersection_number(alpha, beta):
    """Signed count of crossings of two constant-direction loops.

    Parallel loops return 0.  Over the common denominator ``m`` of both
    loops and with ``D = det(u_alpha, u_beta)``, the crossing parameters
    and points are integers over ``n = m * |D|``.  Crossings are
    deduplicated as surface points (edge points wrapped to their left or
    bottom square, a regular vertex to its anchor square), so crossings
    on square edges or at regular vertices are counted once.  A crossing
    at a cone point raises :class:`DegenerateConfigurationError`; loops
    produced by this package never touch cone points.
    """
    o = alpha.origami
    if beta.origami != o:
        raise OrigamiError("loops live on different origamis")
    a1, b1 = alpha.direction.vector
    a2, b2 = beta.direction.vector
    det = a1 * b2 - b1 * a2
    if det == 0:
        return 0
    sign = 1 if det > 0 else -1
    den_a, alpha_segs = alpha.integer_form
    den_b, beta_segs = beta.integer_form
    m = lcm(den_a, den_b)
    ka, kb = m // den_a, m // den_b
    ad = abs(det)
    n = m * ad
    # per entry point P over m: sign * det(P, u_beta), sign * det(P, u_alpha)
    # and the length bound; crossing parameters are differences of these
    sa, sb = sign * ka, sign * kb
    beta_by_square = {
        sq: [(sb * (x * b2 - y * a2), sb * (x * b1 - y * a1), ad * kb * ln)
             for x, y, ln in segs]
        for sq, segs in beta_segs.items()
    }
    h, v = o.h.images, o.v.images
    corners = None
    crossings = set()
    for sq in alpha_segs.keys() & beta_by_square.keys():
        cands = beta_by_square[sq]
        for x, y, ln in alpha_segs[sq]:
            ta = sa * (x * b2 - y * a2)
            ua = sa * (x * b1 - y * a1)
            top_a = ad * ka * ln
            for tb, ub, top_b in cands:
                t = tb - ta  # alpha's parameter, over n
                if not 0 <= t <= top_a:
                    continue
                u = ub - ua  # beta's parameter, over n
                if not 0 <= u <= top_b:
                    continue
                cx = ad * ka * x + t * a1
                cy = ad * ka * y + t * b1
                csq = sq
                if cx == n:
                    csq, cx = h[csq], 0
                if cy == n:
                    csq, cy = v[csq], 0
                if cx == 0 and cy == 0:
                    if corners is None:
                        corners = _Corners(o)
                    if corners.singular(csq):
                        raise DegenerateConfigurationError(
                            "curves cross at a cone point (square %d)" % (csq + 1)
                        )
                crossings.add((csq, cx, cy))
    return sign * len(crossings)


# ---------------------------------------------------------------------------
# The 4-curve basis
# ---------------------------------------------------------------------------

class HomologyBasis:
    """Core curves (X1, X2, Y1, Y2) of two 2-cylinder decompositions.

    X1, X2 are the cores of ``dec1`` and Y1, Y2 those of ``dec2``, each
    pair in the decomposition's order (increasing f, ties by smallest
    square id).  ``gram`` is the intersection matrix A with
    A[i][j] = omega(basis_i, basis_j), read cellularly from the basis's
    own rows (:meth:`omega_against_cores`), so building a basis traces
    no curve; ``loops``, the traced cores, are traced when first read.
    ``decompositions`` keeps (dec1, dec2), so a twist in either
    direction need not decompose it again.
    """

    __slots__ = ("origami", "decompositions", "directions", "f_values",
                 "gram", "_cycles")

    def __init__(self, dec1, dec2):
        if dec1.origami != dec2.origami:
            raise OrigamiError("basis decompositions are of different origamis")
        if dec1.direction == dec2.direction:
            raise BasisUnavailableError("basis directions must differ")
        for dec in (dec1, dec2):
            if len(dec.cylinders) != 2:
                raise BasisUnavailableError(
                    "direction %r has %d cylinders, need exactly 2"
                    % (dec.direction, len(dec.cylinders))
                )
        self.origami = dec1.origami
        self.decompositions = (dec1, dec2)
        self.directions = (dec1.direction, dec2.direction)
        self.f_values = tuple(c.f for c in dec1.cylinders + dec2.cylinders)
        self._cycles = tuple(z for d in self.decompositions for z in d.core_cycles())
        # row j is omega(basis_i, basis_j) over i: A is its transpose;
        # omega(X_i, Y_j) and omega(Y_j, X_i) come from different shears
        rows = self.omega_against_cores(dec1) + self.omega_against_cores(dec2)
        self.gram = tuple(zip(*rows))
        if any(self.gram[i][j] != -rows[i][j] for i in range(4) for j in range(4)):
            raise TracingError("cellular intersection form is not skew-symmetric")
        if _pfaffian(self.gram) == 0:
            raise RankError("intersection form is degenerate on this basis")

    @property
    def loops(self):
        """The traced cores X1, X2, Y1, Y2, each traced on first access."""
        return tuple(c.core for dec in self.decompositions for c in dec.cylinders)

    def omega_against(self, loop):
        """(omega(X1, loop), .., omega(Y2, loop)) against the traced :attr:`loops`."""
        return tuple(intersection_number(b, loop) for b in self.loops)

    def omega_against_cores(self, dec, pushed=None):
        """:meth:`omega_against` of each core of ``dec``, none of them traced.

        The basis curves are taken as cellular cycles
        (:meth:`CylinderDecomposition.core_cycles`, built with the basis),
        pushed through ``dec``'s shear and paired with its cores there.
        ``pushed``, if given, holds them already pushed through the whole
        shear.  One 4-tuple per cylinder, in ``dec``'s order.
        """
        if dec.origami != self.origami:
            raise OrigamiError("decomposition and basis live on different origamis")
        if pushed is None:
            pushed = [push_forward_chain(dec.origami, dec._stages, z) for z in self._cycles]
        return list(zip(*map(dec.omega_with_cores, pushed)))

    def __repr__(self):
        return "HomologyBasis(dirs=%r, f=%r)" % (self.directions, self.f_values)


def basis_from_directions(o, dir1, dir2):
    """Build the 4-curve basis from two 2-cylinder directions."""
    return HomologyBasis(decompose(o, dir1), decompose(o, dir2))


def standard_basis(o):
    """The horizontal/vertical basis: X from (1, 0), Y from (0, 1)."""
    return basis_from_directions(o, Direction(1, 0), Direction(0, 1))


def default_basis(o):
    """The standard basis, else the first basis of the direction search.

    The 4-curve basis is built for H(2) only; other strata are rejected
    up front, naming their cone orders.
    """
    sing = singularity_data(o)
    if not sing.is_h2:
        raise BasisUnavailableError(
            "the 4-curve basis needs a surface in H(2); this one has cone "
            "orders %r" % (sing.cone_orders,)
        )
    axes = {d: decompose(o, d) for d in (Direction(1, 0), Direction(0, 1))}
    try:
        return HomologyBasis(*axes.values())
    except BasisUnavailableError:
        return _search_basis(o, axes)


def _search_basis(o, held):
    """First pair of 2-cylinder directions with a nondegenerate form.

    Directions are tried in the deterministic (|p|+|q|, q, p) order up to
    |p|+|q| = 12.  Each is decomposed once; candidate pairs reuse the
    decompositions already made, and those in ``held`` (direction ->
    decomposition of ``o``) are not made again.
    """
    good = []
    for d in primitive_directions(12):
        dec = held[d] if d in held else decompose(o, d)
        if len(dec.cylinders) != 2:
            continue
        for prior in good:
            try:
                return HomologyBasis(prior, dec)
            except RankError:
                continue
        good.append(dec)
    raise NoBasisFoundError(
        "no pair of 2-cylinder directions with a nondegenerate form found"
    )


def express_in_basis(omegas, basis):
    """Integer coordinates over (X1, X2, Y1, Y2) of the class with row ``omegas``.

    ``omegas`` is (omega(X1, c), .., omega(Y2, c)), as
    :meth:`HomologyBasis.omega_against_cores` or
    :meth:`HomologyBasis.omega_against` give it.  Solves A x = omegas in
    integers; a fractional solution raises IntegralityError (a finding
    about the basis, not a fallback code path).
    """
    return _solve_gram(basis.gram, omegas)


def omega_class_loop(basis, coeffs, loop):
    """omega(sum coeffs_i basis_i, loop) by bilinearity."""
    vals = basis.omega_against(loop)
    return sum(c * v for c, v in zip(coeffs, vals))


class NonTautBasis:
    """The pushforward-kernel basis {X, Y} as coefficient vectors.

    X = (f_X1/g) X2 - (f_X2/g) X1 with g = gcd(f_X1, f_X2) kills the
    holonomy of the first direction; Y likewise for the second.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = tuple(x)
        self.y = tuple(y)

    def __repr__(self):
        return "NonTautBasis(x=%r, y=%r)" % (self.x, self.y)


def nontaut_basis(basis):
    f1, f2, f3, f4 = basis.f_values
    g12 = gcd(f1, f2)
    g34 = gcd(f3, f4)
    x = (-f2 // g12, f1 // g12, 0, 0)
    y = (0, 0, -f4 // g34, f3 // g34)
    return NonTautBasis(x, y)


def class_pushforward(basis, coeffs):
    """Holonomy of an integer combination of the basis curves, none traced.

    A core's holonomy is its cylinder's f times its direction (checked
    where a core or its cellular cycle is built), so it is read from
    ``basis.f_values`` and ``basis.directions``.
    """
    c1, c2, c3, c4 = coeffs
    f1, f2, f3, f4 = basis.f_values
    (p1, q1), (p2, q2) = (d.vector for d in basis.directions)
    t1, t2 = c1 * f1 + c2 * f2, c3 * f3 + c4 * f4
    return (t1 * p1 + t2 * p2, t1 * q1 + t2 * q2)


# ---------------------------------------------------------------------------
# The Gram system of a 4x4 skew-symmetric integer matrix, in closed form
# ---------------------------------------------------------------------------

def _pfaffian(g):
    """Pf(g) for a 4x4 skew-symmetric g; det(g) = Pf(g)^2."""
    return g[0][1] * g[2][3] - g[0][2] * g[1][3] + g[0][3] * g[1][2]


def _solve_gram(g, b):
    """Integer x with g x = b, as x = adj(g) b / Pf(g).

    Raises RankError when Pf(g) = 0 and IntegralityError when a
    numerator of adj(g) b is not divisible by Pf(g).
    """
    pf = _pfaffian(g)
    if pf == 0:
        raise RankError("singular intersection matrix")
    g01, g02, g03 = g[0][1], g[0][2], g[0][3]
    g12, g13, g23 = g[1][2], g[1][3], g[2][3]
    adj = (
        (0, -g23, g13, -g12),
        (g23, 0, -g03, g02),
        (-g13, g03, 0, -g01),
        (g12, -g02, g01, 0),
    )
    nums = tuple(sum(a * bi for a, bi in zip(row, b)) for row in adj)
    if any(num % pf for num in nums):
        raise IntegralityError(
            "loop has non-integral coordinates %r / %d over the basis"
            % (nums, pf)
        )
    return tuple(num // pf for num in nums)
