"""Exhaustive enumeration of H(2) origamis of a given degree.

A degree-d origami lies in H(2) iff the commutator v h v^-1 h^-1 is a
single 3-cycle.  Writing w = v h v^-1, that means w = c h for some
3-cycle c with w of the same cycle type as h.  The enumeration therefore
runs over one canonical h per cycle type, all 3-cycles c whose product
keeps the type, and the full coset v0 Z(h) of conjugators taking h to
c h.  Each transitive pair is reduced to its canonical form, and only a
form seen for the first time is tested for primitivity.

This is exact for every degree, but the centralizer cosets blow up with
the number of fixed points of h: degrees up to 8 take under half a
second, 9 about three seconds, 10 about half a minute, and 11..12
minutes and beyond.
"""

from itertools import permutations, product

from .errors import OrigamiError
from .origami import (ORBIT_CAP, Origami, Perm, _transitive, canonical_form,
                      is_primitive, orbit)


def _partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _canonical_of_type(ptype):
    """Images of the permutation (0 1 .. l1-1)(l1 ..) .. for a cycle type."""
    images = []
    pos = 0
    for length in ptype:
        images.extend(range(pos + 1, pos + length))
        images.append(pos)
        pos += length
    return tuple(images)


def _three_cycles(d):
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                yield (a, b, c)
                yield (a, c, b)


def _apply_cycle(images, cyc):
    """Images of cycle * images (apply images first, then the 3-cycle)."""
    a, b, c = cyc
    move = {a: b, b: c, c: a}
    return tuple(move.get(x, x) for x in images)


def _conjugator(h_cycles, w_cycles):
    """Some g with g h g^-1 = w, matching cycles of equal length in order."""
    d = sum(len(c) for c in h_cycles)
    by_len_h, by_len_w = {}, {}
    for c in h_cycles:
        by_len_h.setdefault(len(c), []).append(c)
    for c in w_cycles:
        by_len_w.setdefault(len(c), []).append(c)
    g = [None] * d
    for length, hs in by_len_h.items():
        ws = by_len_w[length]
        for hc, wc in zip(hs, ws):
            for hx, wx in zip(hc, wc):
                g[hx] = wx
    return tuple(g)


def _centralizer(perm):
    """All permutations commuting with ``perm``, generated lazily.

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


def h2_origamis(degree, primitive_only=True):
    """All H(2) origamis of a degree up to equivalence, canonical forms.

    With ``primitive_only`` the absolute-period lattice must be all of
    Z^2 (proper torus covers of H(2) origamis of smaller degree are
    dropped).  Sorted deterministically.
    """
    if degree < 3:
        return []
    found, rejected = set(), set()
    for ptype in _partitions(degree):
        h = Perm._trusted(_canonical_of_type(ptype))
        h_cycles = h.cycles(include_fixed=True)
        # distinct 3-cycles c give distinct w = c h, none equal to h
        for cyc in _three_cycles(degree):
            w = Perm._trusted(_apply_cycle(h.images, cyc))
            if w.cycle_type() != ptype:
                continue
            v0 = _conjugator(h_cycles, w.cycles(include_fixed=True))
            for z in _centralizer(h):
                v = tuple(v0[z[i]] for i in range(degree))
                if not _transitive(h.images, v):
                    continue
                o = canonical_form(Origami._trusted(h, Perm._trusted(v)))
                if o in found or o in rejected:
                    continue
                if primitive_only and not is_primitive(o):
                    rejected.add(o)
                else:
                    found.add(o)
    return sorted(
        found, key=lambda o: (o.h.images, o.v.images)
    )


def orbit_partition(origamis, cap=ORBIT_CAP):
    """Partition a set of canonical origamis into SL2(Z) orbits."""
    remaining = set(origamis)
    parts = []
    while remaining:
        seed = min(remaining, key=lambda o: (o.h.images, o.v.images))
        orb = orbit(seed, cap)
        part = orb & remaining
        if seed not in part:
            raise OrigamiError("orbit of %r misses its own seed" % (seed,))
        remaining -= part
        parts.append(frozenset(part))
    return parts
