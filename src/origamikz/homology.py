"""Intersection pairing of geodesic loops and the 4-curve homology basis.

Homology classes are handled geometrically: a class is either a traced
loop or an integer coefficient vector over the basis (X1, X2, Y1, Y2) of
horizontal and vertical core curves.  The intersection form is assembled
as the 4x4 Gram matrix and classes of new loops are recovered by solving
``A x = (omega(X1, loop), .., omega(Y2, loop))`` exactly, which is
enough for every computation in scope; no chain complex is built.

Sign convention: a transverse crossing of a curve in direction u with a
curve in direction w counts as the sign of det[u w] (columns u, w).  All
crossings of two constant-direction loops share that sign, so the
pairing is the signed count of distinct crossing points.  The pairing is
integer arithmetic: each loop's coordinates are scaled once to integers
over their common denominator, and crossing parameters of a loop pair
are integers over det[u w].
"""

from fractions import Fraction
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
from .origami import singularity_data

F0 = Fraction(0)
F1 = Fraction(1)


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
    den_a, alpha_segs = alpha._integer_form()
    den_b, beta_segs = beta._integer_form()
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
    """Core curves (X1, X2, Y1, Y2) of two 2-cylinder directions.

    X1, X2 come from the first direction ordered by increasing f (ties
    by smallest square id), Y1, Y2 from the second.  ``gram`` is the
    intersection matrix A with A[i][j] = omega(basis_i, basis_j).
    """

    __slots__ = ("origami", "directions", "loops", "f_values", "gram")

    def __init__(self, origami, directions, loops, f_values):
        self.origami = origami
        self.directions = directions
        self.loops = tuple(loops)
        self.f_values = tuple(f_values)
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                val = intersection_number(self.loops[i], self.loops[j])
                g[i][j] = val
                g[j][i] = -val
        self.gram = tuple(tuple(row) for row in g)
        if _det4(self.gram) == 0:
            raise RankError("intersection form is degenerate on this basis")

    def omega_against(self, loop):
        """(omega(X1, loop), omega(X2, loop), omega(Y1, loop), omega(Y2, loop))."""
        return tuple(intersection_number(b, loop) for b in self.loops)

    def __repr__(self):
        return "HomologyBasis(dirs=%r, f=%r)" % (self.directions, self.f_values)


def basis_from_directions(o, dir1, dir2):
    """Build the 4-curve basis from two 2-cylinder directions."""
    if dir1 == dir2:
        raise BasisUnavailableError("basis directions must differ")
    pairs = []
    for d in (dir1, dir2):
        dec = decompose(o, d)
        if len(dec.cylinders) != 2:
            raise BasisUnavailableError(
                "direction %r has %d cylinders, need exactly 2"
                % (d, len(dec.cylinders))
            )
        pairs.append(dec)
    loops, fs = [], []
    for dec in pairs:
        for cyl in dec.cylinders:  # decompose sorts by (f, smallest square)
            loops.append(cyl.core)
            fs.append(cyl.f)
    return HomologyBasis(o, (dir1, dir2), loops, fs)


def standard_basis(o):
    """The horizontal/vertical basis: X from (1, 0), Y from (0, 1)."""
    return basis_from_directions(o, Direction(1, 0), Direction(0, 1))


def default_basis(o):
    """The standard basis, else the first pair from the direction search.

    The 4-curve basis is built for H(2) only; other strata are rejected
    up front, naming their cone orders.
    """
    sing = singularity_data(o)
    if not sing.is_h2:
        raise BasisUnavailableError(
            "the 4-curve basis needs a surface in H(2); this one has cone "
            "orders %r" % (sing.cone_orders,)
        )
    try:
        return standard_basis(o)
    except BasisUnavailableError:
        return basis_from_directions(o, *find_basis_directions(o))


def find_basis_directions(o, cap=100):
    """First pair of 2-cylinder directions with a nondegenerate form.

    Directions are tried in the deterministic (|p|+|q|, q, p) order; at
    most ``cap`` of them are examined.
    """
    good = []
    for d in primitive_directions(12):
        if cap <= 0:
            break
        cap -= 1
        try:
            dec = decompose(o, d)
        except TracingError:
            continue
        if len(dec.cylinders) != 2:
            continue
        for prior in good:
            try:
                basis_from_directions(o, prior, d)
            except (BasisUnavailableError, RankError):
                continue
            return (prior, d)
        good.append(d)
    raise NoBasisFoundError(
        "no pair of 2-cylinder directions with a nondegenerate form found"
    )


def express_in_basis(loop, basis):
    """Integer coordinates of a loop over (X1, X2, Y1, Y2).

    Solves A x = (omega(X1, loop), .., omega(Y2, loop)) exactly; a
    fractional solution raises IntegralityError (a finding about the
    basis, not a fallback code path).
    """
    b = basis.omega_against(loop)
    x = _solve4(basis.gram, b)
    out = []
    for val in x:
        if val.denominator != 1:
            raise IntegralityError(
                "loop has non-integral coordinates %r over the basis" % (x,)
            )
        out.append(int(val))
    return tuple(out)


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
    """Holonomy of an integer combination of the basis loops."""
    hx = hy = 0
    for c, loop in zip(coeffs, basis.loops):
        lx, ly = loop.holonomy()
        hx += c * lx
        hy += c * ly
    return (hx, hy)


# ---------------------------------------------------------------------------
# Small exact linear algebra
# ---------------------------------------------------------------------------

def _det4(m):
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


def _solve4(m, b):
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
