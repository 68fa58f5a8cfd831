"""Exhaustive enumeration of H(2) origamis of a given degree.

A degree-d origami lies in H(2) iff the commutator v h v^-1 h^-1 is a
single 3-cycle.  Writing w = v h v^-1, that means w = c h for some
3-cycle c with w of the same cycle type as h.  The enumeration therefore
runs over one canonical h per cycle type, all 3-cycles c whose product
keeps the type, and the coset v0 Z(h) of conjugators taking h to c h.
Of that coset only the v transitive with h are built: transitivity is
tested once per assignment of h's cycles to cycles of the same length,
before the rotations within the cycles are expanded.  A permutation k of
h's fixed points commutes with h, so (h, v) and (h, k v k^-1) are the
same origami.  Each element gets a key that is equal exactly on such
conjugates (:func:`_fixed_point_key`), and only an element whose key is
new in its coset is reduced to its canonical form.  Only a form seen for
the first time is built as an origami and tested for primitivity.

This is exact for every degree, but the centralizer cosets blow up with
the number of fixed points of h.  On 2 vCPUs with Python 3.11, with
``bench/calibrate.py`` reading 0.012 s against its 0.016 s reference,
degrees up to 8 take under a quarter of a second, 9 about 0.6 s, 10
about 2.2 s and 11 about 24 s, start-up included; 12 takes longer still.
"""

from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter

from .errors import OrigamiError
from .origami import ORBIT_CAP, Perm, _pair_origami, canonical_form, is_primitive, orbit


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
    for a, b, c in combinations(range(d), 3):
        yield (a, b, c)
        yield (a, c, b)


def _apply_cycle(images, cyc):
    """Images of cycle * images (apply images first, then the 3-cycle)."""
    a, b, c = cyc
    move = {a: b, b: c, c: a}
    return tuple(move.get(x, x) for x in images)


def _conjugator(h_cycles, w_cycles):
    """Some g with g h g^-1 = w, matching cycles of equal length in order."""
    g = [None] * sum(len(c) for c in h_cycles)
    for hc, wc in zip(sorted(h_cycles, key=len), sorted(w_cycles, key=len)):
        for hx, wx in zip(hc, wc):
            g[hx] = wx
    return tuple(g)


def _assignments(blocks):
    """One permutation of each block, laid end to end, one choice at a time.

    Lazily, as a block of fixed points has factorially many.
    """
    if not blocks:
        yield ()
        return
    for rest in _assignments(blocks[:-1]):
        for head in permutations(blocks[-1]):
            yield rest + head


def _centralizer(perm, v0):
    """The z commuting with ``perm`` that make v0 z transitive with it, as a list.

    Such a z sends each cycle of ``perm`` onto a cycle of the same length,
    rotated.  Whether <perm, v0 z> is transitive depends only on where the
    cycles go: cycle k is joined to the cycles that v0 reaches from the
    cycle k is sent to.  So each assignment of cycles (one permutation
    per block of equal-length cycles) is tested once for connectivity,
    and only a connected one is expanded over the rotations.  The list
    holds only the transitive elements of one coset: at most 1,440 at
    degree 9, 10,080 at 10 and 80,640 at 11.
    """
    cycles = sorted(perm.cycles(include_fixed=True), key=len, reverse=True)
    cycle_of = {x: k for k, c in enumerate(cycles) for x in c}
    reach = [{cycle_of[v0[x]] for x in c} for c in cycles]
    rotated = [[c[r:] + c[:r] for r in range(len(c))] for c in cycles]
    blocks = [list(ks) for _, ks in groupby(range(len(cycles)), lambda k: len(cycles[k]))]
    # z is read off the rotated targets laid end to end in cycle order
    by_square = itemgetter(*sorted(range(perm.degree), key=list(chain(*cycles)).__getitem__))
    out = []
    for tau in _assignments(blocks):  # cycle k goes onto cycle tau[k]
        seen, stack = {0}, [0]
        while stack:
            for j in reach[tau[stack.pop()]]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(cycles):
            out.extend(by_square(tuple(chain.from_iterable(parts)))
                       for parts in product(*[rotated[j] for j in tau]))
    return out


def _fixed_point_key(v, m):
    """A key equal exactly on the conjugates of v by permutations of m, m+1, ...

    Rename the squares >= m in the order v reaches them, walking from each
    square below m in increasing order until the walk is back below m.
    For each square below m the key holds the square its walk ends at and
    how many squares >= m it passes, which fixes the renamed v; a
    conjugate renames the same walks.  Every v-cycle must meet a square
    below m, as it does when v is transitive with an h that fixes exactly
    the squares >= m.
    """
    key = []
    for s in range(m):
        x = v[s]
        passed = 0
        while x >= m:
            x = v[x]
            passed += 1
        key.append(x + m * passed)
    return tuple(key)


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
        m = degree - ptype.count(1)  # h fixes exactly the squares >= m
        # distinct 3-cycles c give distinct w = c h, none equal to h
        for cyc in _three_cycles(degree):
            w = Perm._trusted(_apply_cycle(h.images, cyc))
            if w.cycle_type() != ptype:
                continue
            v0 = _conjugator(h_cycles, w.cycles(include_fixed=True))
            keys = set()
            for z in _centralizer(h, v0):
                v = tuple(v0[x] for x in z)
                key = _fixed_point_key(v, m)
                if key in keys:
                    continue
                keys.add(key)
                form = canonical_form((h.images, v))
                if form in found or form in rejected:
                    continue
                if primitive_only and not is_primitive(_pair_origami(form)):
                    rejected.add(form)
                else:
                    found.add(form)
    return [_pair_origami(form) for form in sorted(found)]


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
