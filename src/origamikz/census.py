"""Exhaustive enumeration of H(2) origamis of a given degree.

A degree-d origami lies in H(2) iff the commutator v h v^-1 h^-1 is a
single 3-cycle.  Writing w = v h v^-1, that means w = c h for some
3-cycle c with w of the same cycle type as h.  As (p q r) = (p r)(p q),
c h keeps h's type in exactly two shapes: (i) p, q and r on one cycle of
h, in its order, or (ii) p and q = h^(L1-L2)(p) on a cycle of length L1
and r on another cycle of length L2 < L1; any other c merges or splits
cycles.  The enumeration runs over one canonical h per cycle type, the
3-cycles of those shapes, listed directly (:func:`_type_keeping_cycles`),
and the coset v0 Z(h) of conjugators taking h to c h.  Only c of shape
(ii) with L2 = 1 moves a fixed point of h, so v0 feeds at most one fixed
point of h from a moved square.  Of the coset only the v = v0 z
transitive with h are built (:func:`_centralizer`): z is a head on h's
moved squares 0..m-1 and a tail threading h's fixed points as one chain,
entry, inner points, exit, and v is transitive exactly when h's moved
cycles are joined.  The key v[:m] = v0(z[:m]) fixes the head one to one.
Two elements with the same head differ only in the order of the inner
points; the permutation k of h's fixed points that reorders them
commutes with h and conjugates one v into the other, so (h, v) and
(h, k v k^-1) are the same origami and skipping a repeated key in a
coset loses none.  Conversely, on every census coset of degree 3..9 no
such k conjugates two different heads (the tests check each coset).
Only a kept element is reduced to its canonical form, and only a form
seen for the first time is built as an origami and tested for
primitivity.

This is exact for every degree, but the centralizer cosets blow up with
the number of fixed points of h, so the time grows steeply from degree
10 on (the README gives it per degree).
"""

from itertools import chain, combinations, groupby, permutations, product

from .errors import OrigamiError
from .origami import (ORBIT_CAP, Perm, _cycles, _pair_origami, canonical_form, is_primitive,
                      orbit)


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


def _type_keeping_cycles(cycles):
    """Each 3-cycle c with c h of h's cycle type once, given h's cycles.

    Shape (i) is written from its first point on h's cycle, shape (ii)
    with its same-cycle pair first (see the module docstring).
    """
    for cyc in cycles:
        yield from combinations(cyc, 3)
    for one, other in product(cycles, repeat=2):
        shift = len(one) - len(other)
        if shift > 0:
            yield from ((p, q, r) for p, q in zip(one, one[shift:] + one[:shift]) for r in other)


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
    """One permutation of each block, laid end to end, one choice at a time."""
    if not blocks:
        yield ()
        return
    for rest in _assignments(blocks[:-1]):
        for head in permutations(blocks[-1]):
            yield rest + head


def _joined(n, edges):
    """Whether ``edges`` join the nodes 0, 1, ..., n-1 into one component."""
    label = list(range(n))
    for a, b in edges:
        old, new = label[a], label[b]
        label = [new if x == old else x for x in label]
    return len(set(label)) == 1


def _chains(entries, inners, exits, fed, fixed):
    """Lists of the images of ``fixed``, one per ordering of ``inners``.

    The chain runs from the entry through the inner points onto the exit,
    and each point goes onto the fixed target that feeds the next one.
    With no fixed point the one list is empty.
    """
    for run in permutations(inners):
        onto = dict(zip((*entries, *run), [*map(fed.__getitem__, run), *exits]))
        yield list(map(onto.__getitem__, fixed))


def _centralizer(perm, v0):
    """The z commuting with ``perm`` that make v0 z transitive with it, as a list.

    Such a z sends each cycle of ``perm`` onto a cycle of the same length,
    rotated, and cycle k is joined to the cycles that v0 reaches from the
    cycle k is sent to.  So a fixed point x has one edge in and one out:
    x is an entry if v0^-1(x) is not fixed, else an inner point, and a
    fixed target j is an exit if v0(j) is not fixed.  A census coset has
    at most one entry (c moves at most one fixed point of ``perm``); more
    raise ``ValueError``, as the identity does.  With one entry every
    fixed point of a transitive z lies on its chain to the exit, and the
    v-walk from the exit's target back to the square feeding the entry
    crosses moved squares only, so that link joins nothing the moved
    cycles leave apart: z is transitive exactly when its moved cycles are
    joined.  For each assignment of the moved cycles (one permutation per
    block of equal-length cycles) that joins them, every ordering of the
    inner points is expanded over the rotations.  At most 1,440 elements
    at degree 9, 10,080 at 10 and 80,640 at 11, in an order
    :func:`h2_origamis` does not depend on: a head class has one
    canonical form.  ``perm`` must be laid out as :func:`_canonical_of_type`
    lays it out (cycles up from their minima, longest first, fixed points
    last), so the rotated targets laid end to end are z's images.
    """
    cycles = _cycles(perm.images)
    cycle_of = {x: k for k, c in enumerate(cycles) for x in c}
    n = sum(len(c) > 1 for c in cycles)  # cycles n, n+1, ... are fixed points
    if not n:
        raise ValueError("the sweep needs a permutation that moves some square")
    reach = [{cycle_of[v0[x]] for x in c} for c in cycles[:n]]
    rotated = [[c[r:] + c[:r] for r in range(len(c))] for c in cycles[:n]]
    blocks = [list(ks) for _, ks in groupby(range(n), lambda k: len(cycles[k]))]
    fixed = [c[0] for c in cycles[n:]]
    fed = sorted(range(perm.degree), key=v0.__getitem__)  # v0^-1
    entries = [x for x in fixed if cycle_of[fed[x]] < n]
    if len(entries) > 1:
        raise ValueError("the sweep needs at most one fixed point fed from a moved cycle")
    if fixed and not entries:
        return []  # every fixed point lies on a closed loop
    inners = [x for x in fixed if x not in entries]
    exits = [j for j in fixed if cycle_of[v0[j]] < n]
    out = []
    for tau in _assignments(blocks):  # moved cycle k goes onto cycle tau[k]
        if not _joined(n, [(k, j) for k in range(n) for j in reach[tau[k]] if j < n]):
            continue
        # lists: freed tuples of the tails' sizes pile up on the tuple free lists
        heads = [list(chain(*parts)) for parts in product(*[rotated[j] for j in tau])]
        out.extend(tuple(head + tail) for tail in _chains(entries, inners, exits, fed, fixed)
                   for head in heads)
    return out


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
        h_cycles = _cycles(h.images)
        m = degree - ptype.count(1)  # h fixes exactly the squares >= m
        # distinct 3-cycles c give distinct w = c h, none equal to h
        for cyc in _type_keeping_cycles(h_cycles):
            v0 = _conjugator(h_cycles, _cycles(_apply_cycle(h.images, cyc)))
            keys = set()
            for z in _centralizer(h, v0):
                v = tuple(v0[x] for x in z)
                key = v[:m]
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
