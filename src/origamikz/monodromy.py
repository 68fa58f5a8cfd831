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
which shears the origami once along the shared prefixes of their shear
words and pushes the basis cycles along the same walk, so a letter
common to many words is applied once.
"""

from math import gcd, lcm

from .errors import IntegralityError, OrigamiError, UnimodularityError
from .geometry import _check_trace_length, _shared_letters, _shear_word, decompose
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
    s = 1
    for f, c in zip(fs, cs):
        s = lcm(s, f // gcd(c, f))
    ns = [s * c // f for f, c in zip(fs, cs)]
    g = 0
    for n in ns:
        g = gcd(g, n)
    return tuple(n // g for n in ns)


def dehn_twist_action(dec, basis, pushed=None):
    """Matrix of the minimal multitwist of ``dec`` on the non-tautological part.

    ``dec`` is a cylinder decomposition of the basis's origami; it is
    twisted as given, not decomposed again.  Each core gamma_i meets
    the basis as its cellular row (:meth:`HomologyBasis.omega_against_cores`,
    no core traced; ``pushed`` as there): omega(z, gamma_i) is z . row_i,
    and the Gram solve of the row gives gamma_i's coordinates.  Columns
    are the images of X and Y.  Entries must come out integral and the
    determinant must be 1; violations raise instead of degrading to
    rational output, since they would mean the {X, Y} pair is not a
    basis of the kernel lattice.
    """
    rows = basis.omega_against_cores(dec, pushed)
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
    not decomposed again.  The directions are walked in the order of
    their shear words' letters, so each word shares its longest common
    prefix with the one before: its decomposition takes that one's
    stages up to there as one slice (:func:`decompose` with ``prev``),
    and the basis cycles are pushed on from there.  Pushed cycles are
    kept only at the depths where later words branch off, and a
    decomposition only until the next one is made.  Each direction's
    shear word is built once and kept on it.  Matrices come back in
    input order; if twists fail, the error of the first failing
    direction in input order is raised, and a direction too long to
    trace is refused before any shear.
    """
    if basis is None:
        basis = default_basis(o)
    directions = list(directions)
    for d in directions:
        _check_trace_length(o, d)
    if directions and basis.origami != o:
        raise OrigamiError("decomposition and basis live on different origamis")
    order = sorted(range(len(directions)), key=lambda i: _shear_letters(directions[i]))
    words = [_shear_word(d) for d in directions]
    # resume[k]: the letters the k-th word of the walk shares with the one
    # before; branch[k]: the depths later words resume from, increasing
    resume = [0] + [_shared_letters(words[i], words[j]) for i, j in zip(order, order[1:])]
    branch = [[] for _ in order]
    for k in range(len(order) - 1, 0, -1):
        branch[k - 1] = [t for t in branch[k] if t < resume[k]] + [resume[k]]
    held = {dec.direction: dec for dec in basis.decompositions}
    saved = [(0, basis._cycles)]  # (depth, pushed cycles), depth increasing
    out = [None] * len(directions)
    failed = None
    dec = None
    for k, i in enumerate(order):
        d = directions[i]
        dec = held[d] if d in held else decompose(o, d, dec)
        depth, cycles = saved[-1] if resume[k] in branch[k] else saved.pop()
        for t in branch[k]:
            if t > depth:
                cycles = dec.push_cycles(cycles, depth, t)
                depth = t
                saved.append((t, cycles))
        try:
            out[i] = dehn_twist_action(dec, basis, dec.push_cycles(cycles, depth))
        except OrigamiError as exc:
            if failed is None or i < failed[0]:
                failed = (i, exc)
    if failed is not None:
        raise failed[1]
    return out


def _shear_letters(direction):
    """A direction's shear word as a string of its letters in the order they act.

    One character per letter, lower case for an inverse.
    """
    word = _shear_word(direction)
    return "".join((g if e > 0 else g.lower()) * abs(e) for g, e in reversed(word))
