"""Dehn multitwists and their action on the non-tautological homology.

A completely periodic direction carries a unique minimal affine
multitwist: each cylinder is twisted n_i times where the n_i are the
smallest positive integers proportional to c_i / f_i (a common shear
across cylinders).  Its action on a homology class z is

    D(z) = z + sum_i n_i * omega(z, gamma_i) * gamma_i

with gamma_i the core-curve classes.  Restricted to the kernel of the
pushforward this is a parabolic element of SL2(Z) in the {X, Y}
coordinates of :func:`origamikz.homology.nontaut_basis`; matrices are
returned with columns the images of X and Y.

Many directions of one origami are twisted by :func:`kz_generators`,
one decomposition at a time; each core meets the basis through its own
shear and the basis's two (see
:meth:`origamikz.homology.HomologyBasis.omega_against_cores`), so no
direction shares work with another.
"""

from math import gcd, lcm

from .errors import IntegralityError, OrigamiError, UnimodularityError
from .geometry import _check_trace_length, decompose
from .homology import default_basis, express_in_basis, nontaut_basis
from .sl2 import Mat2


def twist_multiplicities(dec):
    """Minimal integer twist vector of a decomposition, as a tuple.

    One entry per cylinder, in the decomposition's order:
    n_i = s * c_i / f_i for the least s making every entry integral,
    divided by the overall gcd; for two cylinders this is
    (c_1 f_2, c_2 f_1) / gcd.
    """
    fs = dec.f_values()
    cs = dec.c_values()
    s = lcm(*(f // gcd(c, f) for f, c in zip(fs, cs)))
    ns = [s * c // f for f, c in zip(fs, cs)]
    g = gcd(*ns)
    return tuple(n // g for n in ns)


def dehn_twist_action(dec, basis):
    """Matrix of the minimal multitwist of ``dec`` on the non-tautological part.

    ``dec`` is a cylinder decomposition of the basis's origami; it is
    twisted as given, not decomposed again.  Each core gamma_i meets
    the basis as its cellular row (:meth:`HomologyBasis.omega_against_cores`,
    no core traced): omega(z, gamma_i) is z . row_i, and the Gram solve
    of the row gives gamma_i's coordinates.  Columns are the images of
    X and Y.  Entries must come out integral and the determinant must
    be 1; violations raise instead of degrading to rational output,
    since they would mean the {X, Y} pair is not a basis of the kernel
    lattice.
    """
    rows = basis.omega_against_cores(dec)
    gammas = [express_in_basis(row, basis) for row in rows]
    ns = twist_multiplicities(dec)
    nt = nontaut_basis(basis)
    cols = []
    for z in (nt.x, nt.y):
        w = list(z)
        for n_i, row, gamma in zip(ns, rows, gammas):
            coeff = n_i * sum(zk * rk for zk, rk in zip(z, row))
            for k in range(4):
                w[k] += coeff * gamma[k]
        cols.append(_in_span(w, nt))
    m = Mat2(cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    if m.det() != 1:
        raise UnimodularityError(
            "multitwist matrix %r has determinant %d" % (m, m.det())
        )
    return m


def _in_span(w, nt):
    """Solve w = a*X + b*Y for integers; X, Y have disjoint support."""
    x, y = nt.x, nt.y
    if w[1] % x[1] or w[3] % y[3]:
        raise IntegralityError("twist image %r is not integral over {X, Y}" % (w,))
    a = w[1] // x[1]
    b = w[3] // y[3]
    if [a * xi + b * yi for xi, yi in zip(x, y)] != w:
        raise IntegralityError(
            "twist image %r does not lie in the span of {X, Y}" % (w,)
        )
    return (a, b)


def kz_generators(o, directions, basis=None):
    """Multitwist matrices for several directions, all in one basis.

    The basis defaults to :func:`origamikz.homology.default_basis`.  A
    direction the basis was built from is twisted as the basis holds it,
    and every other one is decomposed and twisted on its own, in input
    order, so the first failing direction's error is the one raised.  A
    direction too long to trace is refused before any shear.
    """
    if basis is None:
        basis = default_basis(o)
    directions = list(directions)
    for d in directions:
        _check_trace_length(o, d)
    if directions and basis.origami != o:
        raise OrigamiError("decomposition and basis live on different origamis")
    held = {dec.direction: dec for dec in basis.decompositions}
    return [dehn_twist_action(held[d] if d in held else decompose(o, d), basis)
            for d in directions]
