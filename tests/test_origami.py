import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from origamikz import (
    InvalidShapeError,
    OrbitCapExceeded,
    Origami,
    Perm,
    SingularityData,
    canonical_form,
    format_origami,
    h2_origamis,
    is_primitive,
    make_l_origami,
    orbit,
    parse_origami,
    relabel,
    shear_matrix,
    singularity_data,
)
from origamikz import origami as origami_module
from origamikz.origami import (MAX_DEGREE, ORBIT_CAP, _orbit_graph, _pair_origami,
                               _vertex_cycles, act_letter, act_word, pull_back_point,
                               push_forward_point)
from origamikz.sl2 import matrix_to_word
from util import (
    GENS,
    cone_start_canonical_form,
    from_denominator,
    over_denominator,
    pair_of,
    random_direction,
    random_transitive_pair,
    reference_act_letter,
    reference_act_word,
    reference_canonical_form,
    reference_orbit,
    reference_pull_back,
    reference_push_forward,
    reference_vertex_cycles,
    torus_cover,
)

TORUS = Origami(Perm.identity(1), Perm.identity(1))


def test_l_origami_shapes():
    o = make_l_origami(2, 4)
    assert o.degree == 5
    assert o.h.cycle_string() == "(1 2)"
    assert o.v.cycle_string() == "(1 3 4 5)"
    o = make_l_origami(2, 2)
    assert o.degree == 3
    assert (o.h.cycle_string(), o.v.cycle_string()) == ("(1 2)", "(1 3)")
    o = make_l_origami(3, 3)
    assert o.degree == 5
    assert (o.h.cycle_string(), o.v.cycle_string()) == ("(1 2 3)", "(1 4 5)")


@pytest.mark.parametrize("n,m", [(1, 4), (4, 1), (0, 2), (2, 1)])
def test_l_origami_rejects_degenerate_shapes(n, m):
    with pytest.raises(InvalidShapeError):
        make_l_origami(n, m)


def test_singularity_data_l22_against_hand_commutator():
    # independent oracle: expand v h v^-1 h^-1 by hand for h=(1 2), v=(1 3)
    h = {1: 2, 2: 1, 3: 3}
    v = {1: 3, 2: 2, 3: 1}
    hi = {val: key for key, val in h.items()}
    vi = {val: key for key, val in v.items()}
    comm = {x: v[h[vi[hi[x]]]] for x in (1, 2, 3)}
    # one 3-cycle: every square moved, orbit of 1 has length 3
    assert comm[1] != 1 and comm[comm[comm[1]]] == 1
    sd = singularity_data(make_l_origami(2, 2))
    assert sd.cone_orders == (2,)
    assert sd.genus == 2
    assert sd.is_h2


def test_singularity_data_torus_and_l24():
    assert singularity_data(TORUS).cone_orders == ()
    assert singularity_data(TORUS).genus == 1
    assert singularity_data(make_l_origami(2, 4)).is_h2


def test_singularity_sum_rule_on_random_pairs():
    rng = random.Random(7)
    for _ in range(50):
        o = random_transitive_pair(rng)
        sd = singularity_data(o)
        assert sum(sd.cone_orders) == 2 * sd.genus - 2


def test_vertex_cycles_match_the_commutator_by_perm_algebra():
    rng = random.Random(28)
    degrees = set()
    for _ in range(1000):
        o = random_transitive_pair(rng, dmin=1, dmax=9)
        degrees.add(o.degree)
        cycles = reference_vertex_cycles(o)
        assert _vertex_cycles(o.h.images, o.v.images) == cycles
        orders = [len(c) - 1 for c in cycles if len(c) > 1]
        assert singularity_data(o) == SingularityData(orders, sum(orders) // 2 + 1)
    assert degrees == set(range(1, 10))


def test_perm_rejects_a_repeated_image():
    with pytest.raises(ValueError, match=re.escape("not a permutation of 0..1: (0, 0)")):
        Perm([0, 0])


def test_origami_rejects_perms_of_two_degrees():
    with pytest.raises(ValueError, match="h and v must have the same degree"):
        Origami(Perm.identity(2), Perm.identity(3))


def test_action_inverses():
    pair = pair_of(make_l_origami(2, 4))
    assert pair_of(act_letter(act_letter(pair, "T", 1), "T", -1)) == pair
    assert pair_of(act_letter(act_letter(pair, "S", 1), "S", -1)) == pair
    x = pair
    for _ in range(4):
        x = act_letter(x, "S", 1)
    assert pair_of(x) == pair


def test_action_on_image_pairs_matches_action_on_origamis():
    # act_letter and the pair branch of canonical_form, which orbit uses,
    # against the reference action on origamis, for every letter and both
    # signs
    rng = random.Random(29)
    for _ in range(40):
        o = random_transitive_pair(rng, dmax=9)
        for gen, exp in GENS + [("U", 1)]:
            img = reference_act_letter(o, gen, exp)
            h, v = act_letter(pair_of(o), gen, exp)
            assert (tuple(h), tuple(v)) == pair_of(img)
            assert canonical_form((h, v)) == pair_of(canonical_form(img))


def test_u_is_t_then_s():
    # U = S T in one step, (h, v) -> (h v^-1, h), on origamis and on pairs
    rng = random.Random(37)
    for _ in range(40):
        o = random_transitive_pair(rng, dmax=9)
        ts = reference_act_letter(reference_act_letter(o, "T", 1), "S", 1)
        assert reference_act_letter(o, "U", 1) == ts
        pair = pair_of(o)
        assert (pair_of(act_letter(pair, "U", 1)) == pair_of(ts)
                == pair_of(act_word(pair, [("S", 1), ("T", 1)])[0]))
    with pytest.raises(ValueError):
        act_letter(pair, "U", -1)


def test_pull_back_inverts_push_forward():
    # shear words of random directions, on points inside squares, on
    # their edges and at their corners
    rng = random.Random(23)
    for _ in range(30):
        o = random_transitive_pair(rng, dmax=8)
        d = random_direction(rng, bound=9)
        _, stages = act_word(pair_of(o), matrix_to_word(shear_matrix(d)))
        for _ in range(6):
            pt = (rng.randrange(o.degree), 3 * rng.randrange(4), 4 * rng.randrange(3))
            pushed = push_forward_point(pair_of(o), stages, pt, 12)
            assert pull_back_point(stages, pushed, 12) == pt


def test_point_transport_matches_the_fraction_oracle():
    # random stage lists, of shear words and of random letters, on points
    # inside squares, on their edges and at their corners, over mixed
    # denominators: each stage is one transport_letter step on the
    # reference action's origamis, the integer points are carried over
    # the Fraction points' denominator
    rng = random.Random(29)
    for trial in range(40):
        o = random_transitive_pair(rng, dmax=8)
        if trial % 2:
            word = matrix_to_word(shear_matrix(random_direction(rng, bound=9)))
        else:
            word = [rng.choice(GENS) for _ in range(rng.randrange(12))]
        _, stages = act_word(pair_of(o), word)
        for _ in range(6):
            den = rng.choice((1, 2, 3, 4, 6, 7))
            pt = (rng.randrange(o.degree), Fraction(rng.randrange(den), den),
                  Fraction(rng.randrange(5), 5))
            n, ipt = over_denominator(pt)
            assert (reference_push_forward(o, stages, pt)
                    == from_denominator(n, push_forward_point(pair_of(o), stages, ipt, n)))
            assert (reference_pull_back(o, stages, pt)
                    == from_denominator(n, pull_back_point(stages, ipt, n)))


def test_action_preserves_stratum():
    rng = random.Random(21)
    pair = pair_of(make_l_origami(3, 4))
    for _ in range(20):
        pair = act_letter(pair, *rng.choice(GENS))
        o = Origami(Perm(pair[0]), Perm(pair[1]))
        assert singularity_data(o).is_h2
        assert o.degree == 6


def test_canonical_form_idempotent_and_conjugation_invariant():
    rng = random.Random(3)
    o = make_l_origami(2, 4)
    c = canonical_form(o)
    assert canonical_form(c) == c
    for _ in range(25):
        g = list(range(o.degree))
        rng.shuffle(g)
        assert canonical_form(relabel(o, Perm(g))) == c


def test_canonical_form_specific_relabelling():
    o = make_l_origami(2, 4)
    g = Perm.from_cycles([(1, 5, 2)], degree=5)
    assert canonical_form(relabel(o, g)) == canonical_form(o)


def _relabellings(rng, o, count):
    out = []
    for _ in range(count):
        g = list(range(o.degree))
        rng.shuffle(g)
        out.append(relabel(o, Perm(g)))
    return out


def _census_up_to_6(rng):
    return [
        x
        for d in range(3, 7)
        for o in h2_origamis(d, primitive_only=False)
        for x in [o] + _relabellings(rng, o, 3)
    ]


def _torus_covers(rng):
    # every index-d sublattice of Z^2 in Hermite normal form, d <= 8
    covers = [
        torus_cover(a, b, d // a)
        for d in range(1, 9)
        for a in range(1, d + 1)
        if d % a == 0
        for b in range(a)
    ]
    return [x for o in covers for x in [o] + _relabellings(rng, o, 2)]


def _random_in_stratum(cone_orders):
    def build(rng):
        out = []
        while len(out) < 120:
            o = random_transitive_pair(rng, 4, 8)
            if singularity_data(o).cone_orders == cone_orders:
                out += [o, reference_act_letter(o, "T", 1)] + _relabellings(rng, o, 2)
        return out

    return build


# degree-7 surfaces on which -I acts nontrivially (S^2 changes the class)
H13 = "h=(1 5 7 2 3 6)\nv=(1 4 5 2 3 6 7)"  # orbit of 768
H22 = "h=(1 3 6 7 2 4)\nv=(1 6)(2 5 3 7 4)"  # orbit of 96
H6 = "h=(1 4 6 5 7 3 2)\nv=(1 4 7 5 3)"  # orbit of 84


def _orbit_relabelled(text):
    # mixed cone angles: the starts are the squares at every cone point,
    # not only at the largest one
    def build(rng):
        ref = reference_orbit(parse_origami(text))
        return [x for o in ref for x in [o] + _relabellings(rng, o, 2)]

    return build


@pytest.mark.parametrize("build", [
    _census_up_to_6,
    _torus_covers,
    _random_in_stratum((1, 1)),
    _random_in_stratum((4,)),
    _orbit_relabelled(H13),
    _orbit_relabelled(H22),
], ids=["h2-census-d<=6", "torus-covers", "H(1,1)", "H(4)", "H(1,3)", "H(2,2)"])
def test_canonical_form_agrees_with_all_starts_reference(build):
    # the cone-anchored form and the all-starts form must induce the same
    # partition: (reference, form) pairs are a bijection between the two;
    # and the form is the minimum over the cone starts, each run to the end
    surfaces = build(random.Random(11))
    for o in surfaces:
        assert canonical_form(o) == cone_start_canonical_form(o)
    pairs = {(reference_canonical_form(o), canonical_form(o)) for o in surfaces}
    assert len(pairs) == len({r for r, _ in pairs}) == len({c for _, c in pairs})
    assert len(pairs) < len(surfaces)  # relabelled copies did collide
    for _, c in pairs:
        assert canonical_form(c) == c


def _regular_origami(elements, mul, x, y):
    # the origami of a group with h, v the right multiplications by x, y
    index = {g: i for i, g in enumerate(elements)}
    return Origami(Perm([index[mul(g, x)] for g in elements]),
                   Perm([index[mul(g, y)] for g in elements]))


def _eierlegende_wollmilchsau():
    # the quaternion group, as (sign, unit) with units 1, i, j, k = 0..3
    table = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
             (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
             (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
             (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def mul(a, b):
        sign, unit = table[a[1], b[1]]
        return a[0] * b[0] * sign, unit

    q8 = [(s, u) for s in (1, -1) for u in range(4)]
    return _regular_origami(q8, mul, (1, 1), (1, 2))


def _heisenberg_mod_5():
    # upper unitriangular 3x3 matrices over Z/5, (a, b, c) the entries
    # above the diagonal, rows first
    def mul(g, k):
        return ((g[0] + k[0]) % 5, (g[1] + k[1]) % 5,
                (g[2] + k[2] + g[0] * k[1]) % 5)

    group = list(itertools.product(range(5), repeat=3))
    return _regular_origami(group, mul, (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("build,d,cones", [
    (_eierlegende_wollmilchsau, 8, (1, 1, 1, 1)),
    (_heisenberg_mod_5, 125, (4,) * 25),
], ids=["Eierlegende-Wollmilchsau", "Heisenberg-mod-5"])
def test_canonical_form_when_every_start_ties(build, d, cones):
    # a regular origami: the left multiplications are automorphisms, so
    # every square is a cone start and every start gives the same key,
    # and each challenger runs to the end of both parts
    o = build()
    assert o.degree == d
    assert singularity_data(o).cone_orders == cones
    h, v = o.h.images, o.v.images
    assert all(v[h[i]] != h[v[i]] for i in range(d))
    form = cone_start_canonical_form(o)
    assert canonical_form(o) == form
    for x in _relabellings(random.Random(13), o, 3):
        assert canonical_form(x) == form


class _CountingImages:
    # an image sequence that counts its reads
    def __init__(self, images):
        self.images = images
        self.reads = 0

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i):
        self.reads += 1
        return self.images[i]


def test_canonical_form_takes_one_start_on_a_torus():
    # no cone square: h and v commute, every start gives the same key, so
    # one start is taken: 2d reads of h find no cone square and d more
    # number the squares (all d starts would read it about d^2 times)
    o = torus_cover(40, 7, 25)
    d = o.degree
    assert d == 1000
    h = _CountingImages(o.h.images)
    form = canonical_form((h, o.v.images))
    assert h.reads <= 3 * d
    x = _relabellings(random.Random(17), o, 1)[0]
    assert form == canonical_form((x.h.images, x.v.images))


def test_canonical_form_memory_stays_flat_in_the_number_of_starts():
    # at most two label arrays are alive at once, whatever the number of
    # cone starts; one array per start would hold about 70 MB here
    o = random_transitive_pair(random.Random(41), 3000, 3000)
    pair = (o.h.images, o.v.images)
    h, v = pair
    assert sum(v[h[i]] != h[v[i]] for i in range(3000)) > 2900
    tracemalloc.start()
    try:
        canonical_form(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("o", [make_l_origami(2, k) for k in range(2, 9)] + [
    make_l_origami(3, 3),
    make_l_origami(3, 5),
    parse_origami("h=(1 2 3 4)(5 6 7)\nv=(1 5)"),  # H(1,1), orbit of 144
], ids=["L(2,%d)" % k for k in range(2, 9)] + ["L(3,3)", "L(3,5)", "H(1,1)"])
def test_orbit_matches_four_generator_search(o):
    ref = reference_orbit(o)
    orb = orbit(o)
    assert len(orb) == len(ref)
    assert orb == frozenset(canonical_form(r) for r in ref)


def _minus_identity(o):
    return Origami(o.h.inverse(), o.v.inverse())


@pytest.mark.parametrize("text", [H6, H22, H13], ids=["H(6)", "H(2,2)", "H(1,3)"])
def test_orbit_matches_four_generator_search_where_minus_identity_acts(text):
    # -I moves the seed's class, so orbit walks S and U = ST cycles of
    # orders 4 and 6, and reads S^-1 as S^3
    o = parse_origami(text)
    assert canonical_form(_minus_identity(o)) != canonical_form(o)
    ref = reference_orbit(o)
    orb = orbit(o)
    assert len(orb) == len(ref)
    assert orb == frozenset(canonical_form(r) for r in ref)


def _counting_canonical_form(monkeypatch):
    real = origami_module.canonical_form
    calls = []

    def counting(o):
        calls.append(o)
        return real(o)

    monkeypatch.setattr(origami_module, "canonical_form", counting)
    return calls


def _fixed_classes(orb, word):
    # the classes of the orbit that the word (rightmost letter first) fixes
    return sum(canonical_form(reference_act_word(x, word)) == x for x in orb)


@pytest.mark.parametrize("k", range(4, 9))
def test_orbit_skips_s_edges_when_minus_identity_is_trivial(monkeypatch, k):
    # S has order 2 and U = ST order 3 on the classes, so the S-edge back
    # from S(x) to x is skipped (no canonical form) and so is the last
    # edge of each U cycle; a fixed point costs one form, and the seed and
    # its -I image one each: 7n/6 + 2, plus 1/2 per S-fixed class and 1/3
    # per U-fixed class
    o = make_l_origami(2, k)
    assert canonical_form(_minus_identity(o)) == canonical_form(o)
    calls = _counting_canonical_form(monkeypatch)
    orb = orbit(o)
    n, forms = len(orb), len(calls)
    fixed_s = _fixed_classes(orb, [("S", 1)])
    fixed_u = _fixed_classes(orb, [("S", 1), ("T", 1)])
    assert 6 * forms == 7 * n + 12 + 3 * fixed_s + 2 * fixed_u


def test_orbit_follows_every_edge_when_minus_identity_acts(monkeypatch):
    # -I moves every class, so S has order 4 and U order 6 on them (no
    # shorter cycles here); every edge of a cycle is followed, the last
    # one without a form: 3n/4 + 5n/6 forms, plus the seed and its -I
    # image
    o = parse_origami(H6)
    calls = _counting_canonical_form(monkeypatch)
    orb = orbit(o)
    assert len(orb) == 84
    assert len(calls) == 3 * 84 // 4 + 5 * 84 // 6 + 2 == 135


def test_orbit_canonical_forms_of_the_bench_orbits(monkeypatch):
    # the two orbits of the `orbit` benchmark workload have no class
    # fixed by S or U: 7n/6 + 2 forms each, 4,834 in all, and one
    # act_letter call per form but the seed's and its -I image's, U being
    # one letter: 4,830 in all
    calls = _counting_canonical_form(monkeypatch)
    letters = []
    real = origami_module.act_letter

    def counting(o, gen, exp):
        letters.append(gen)
        return real(o, gen, exp)

    monkeypatch.setattr(origami_module, "act_letter", counting)
    sizes = []
    for k in (20, 21):
        del calls[:], letters[:]
        sizes.append((len(orbit(make_l_origami(2, k))), len(calls), len(letters)))
    assert sizes == [(1440, 1682, 1680), (2700, 3152, 3150)]


def test_orbit_l22_matches_exhaustive_enumeration():
    # oracle: enumerate every degree-3 origami pair directly
    forms = set()
    for him in itertools.permutations(range(3)):
        for vim in itertools.permutations(range(3)):
            try:
                o = Origami(Perm(him), Perm(vim))
            except ValueError:
                continue
            if singularity_data(o).is_h2:
                forms.add(canonical_form(o))
    orb = orbit(make_l_origami(2, 2))
    assert orb == frozenset(forms)
    assert len(orb) == 3


def test_orbit_closed_under_generators():
    orb = orbit(make_l_origami(2, 4))
    for member in orb:
        for g in GENS:
            assert canonical_form(reference_act_letter(member, *g)) in orb


def test_orbit_membership_and_separation():
    o24 = make_l_origami(2, 4)
    orb = orbit(o24)
    assert canonical_form(reference_act_letter(o24, "T", 1)) in orb
    assert canonical_form(make_l_origami(3, 3)) not in orb


def test_orbit_cap():
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(make_l_origami(2, 4), cap=2)
    assert len(err.value.partial) >= 2


def _st_distances(o):
    # S/T distances from the seed's class, by a BFS of its own, in the
    # order the forms are found, and the form each one is found from
    start = canonical_form(o)
    dist = {start: 0}
    parent = {}
    level = [start]
    while level:
        nxt = []
        for cur in level:
            for gen in ("S", "T"):
                img = canonical_form(reference_act_letter(cur, gen, 1))
                if img not in dist:
                    dist[img] = dist[cur] + 1
                    parent[img] = cur
                    nxt.append(img)
        level = nxt
    return dist, parent


def _check_every_cap(o, size):
    # the partial set is the first ``cap`` forms the BFS finds; the next
    # one is found from the form being expanded, whose depth is reported,
    # and the frontier runs from that form to the last one found
    dist, parent = _st_distances(o)
    order = list(dist)
    assert len(order) == size
    for cap in range(1, size):
        with pytest.raises(OrbitCapExceeded) as err:
            orbit(o, cap=cap)
        exc = err.value
        assert exc.partial == frozenset(order[:cap])
        expanding = parent[order[cap]]
        assert exc.depth == dist[expanding] == dist[order[cap]] - 1
        assert exc.frontier == cap - order.index(expanding)


def test_orbit_cap_reports_depth_and_frontier():
    # the BFS has taken in every form up to the depth it was expanding
    # and none beyond the next one; the frontier is part of the partial
    # set and counts the form being expanded
    o = make_l_origami(2, 4)
    _check_every_cap(o, 18)
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(o, cap=5)
    assert (err.value.depth, err.value.frontier) == (2, 2)


def test_orbit_cap_reports_depth_and_frontier_where_minus_identity_acts():
    # S^-1 = S^3 and U has order 6 here: a wrong inverse or order would
    # change the T-images, so the forms found and their depths
    o = parse_origami(H6)
    assert canonical_form(_minus_identity(o)) != canonical_form(o)
    _check_every_cap(o, 84)


@pytest.mark.parametrize("o", [
    make_l_origami(2, 20),
    make_l_origami(2, 21),
    parse_origami(H6),
], ids=["L(2,20)", "L(2,21)", "H(6)"])
def test_orbit_graph_tables(o):
    # the forms are distinct canonical classes, those of the reference
    # orbit; each table entry is the class of its letter's image, S and U
    # have the orders orbit reads off -I, and T = S^-1 U permutes the ids
    forms, s_table, u_table = _orbit_graph(o, ORBIT_CAP)
    n = len(forms)
    assert len(set(forms)) == n == len(s_table) == len(u_table)
    assert all(canonical_form(f) == f for f in forms)
    assert set(map(_pair_origami, forms)) == {canonical_form(r) for r in reference_orbit(o)}
    for table, word in ((s_table, [("S", 1)]), (u_table, [("S", 1), ("T", 1)])):
        assert [pair_of(canonical_form(reference_act_word(_pair_origami(f), word)))
                for f in forms] == [forms[i] for i in table]
    if canonical_form(_minus_identity(o)) == canonical_form(o):
        s_order, u_order = 2, 3
    else:
        s_order, u_order = 4, 6
    for table, order in ((s_table, s_order), (u_table, u_order)):
        ids = list(range(n))
        for _ in range(order):
            ids = [table[i] for i in ids]
        assert ids == list(range(n))
    s_inverse = [0] * n
    for i, j in enumerate(s_table):
        s_inverse[j] = i
    assert sorted(s_inverse[j] for j in u_table) == list(range(n))


def test_primitivity():
    # unit holonomy loops exist: square 3 is h-fixed and square 2 v-fixed
    o24 = make_l_origami(2, 4)
    assert o24.h(2) == 2 and o24.v(1) == 1
    assert is_primitive(o24)
    o33 = make_l_origami(3, 3)
    assert o33.h(3) == 3 and o33.v(1) == 1
    assert is_primitive(o33)
    # double cover of the torus in both directions: period lattice 2Z x 2Z
    dd = Origami(
        Perm.from_cycles([(1, 2), (3, 4)], degree=4),
        Perm.from_cycles([(1, 3), (2, 4)], degree=4),
    )
    assert not is_primitive(dd)


def test_text_format_round_trip():
    o = make_l_origami(2, 4)
    assert parse_origami(format_origami(o)) == o
    assert parse_origami("h=(1 2)\nv=(1 3 4 5)\n") == o
    assert parse_origami("d=1\nh=()\nv=()") == TORUS
    # an identity is written as the empty cycle
    assert format_origami(TORUS) == "d=1\nh=()\nv=()\n"
    assert parse_origami(format_origami(TORUS)) == TORUS
    # an empty cycle is skipped, beside a cycle or alone
    assert parse_origami("h=(1 2)()\nv=(1 3)") == parse_origami("h=(1 2)\nv=(1 3)")
    assert parse_origami("h=()\nv=(1 2 3)") == parse_origami("h=\nv=(1 2 3)")
    assert parse_origami("h=()\nv=(1 2 3)").h == Perm.identity(3)
    assert parse_origami("# comment\nd=6\nh=(1 2 3)\nv=(3 4 5 6)").degree == 6


def test_perm_equality_and_hash_follow_the_images():
    p = Perm.from_cycles([(1, 2)], degree=3)
    q = Perm([1, 0, 2])
    assert p == q and hash(p) == hash(q)
    assert p != Perm.from_cycles([(1, 2)], degree=2)
    assert p != (1, 0, 2)
    assert len({p, q, Perm.identity(3)}) == 2


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_origami("h=(1 2)")
    with pytest.raises(ValueError):
        parse_origami("h=1 2\nv=(1 3)")
    with pytest.raises(ValueError):
        parse_origami("h=(0 1)\nv=(1 2)")
    # disconnected surface
    with pytest.raises(ValueError):
        parse_origami("d=4\nh=(1 2)\nv=(3 4)")


@pytest.mark.parametrize("line, symbol", [
    ("d=abc", "abc"),
    ("d=", ""),
    ("h=(1 x)", "x"),
    ("h=(1 2.0)", "2.0"),
    ("h=(1 2) (3 4)", "2)"),
], ids=["degree-word", "degree-empty", "letter", "decimal", "spaced-cycles"])
def test_text_format_names_the_line_of_a_non_integer(line, symbol):
    text = line + ("\nh=(1 2)" if line.startswith("d") else "") + "\nv=(1 3)"
    message = "line %r: %r is not an integer" % (line, symbol)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_origami(text)


@pytest.mark.parametrize("line", ["d=" + "1" * 5000, "h=(1 %s)" % ("2" * 5000)],
                         ids=["degree", "symbol"])
def test_text_format_shortens_a_number_past_the_digit_limit(line):
    # int() refuses more than 4,300 digits; the line is named once, cut short
    text = line + ("\nh=(1 2)" if line.startswith("d") else "") + "\nv=(1 3)"
    message = "line %r...: a number longer than 4300 digits" % line[:20]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_origami(text)


@pytest.mark.parametrize("text, line, key", [
    ("h=(1 2)\nv=(1 3)\nh=(1 3)", "h=(1 3)", "h"),
    ("h=(1 2)\nV=(1 3)\nv=(1 3)", "v=(1 3)", "v"),
    ("d=3\nh=(1 2)\nd=4\nv=(1 3)", "d=4", "d"),
], ids=["h", "v", "d"])
def test_text_format_rejects_a_repeated_key(text, line, key):
    # keeping either line would hide a typo in the other; keys are read
    # case-blind
    message = "line %r: a second %s= line" % (line, key)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_origami(text)


@pytest.mark.parametrize("cycles,message", [
    ([(1, 1)], "within"),
    ([(1, 2, 1)], "within"),
    ([(1,), (1, 2)], "across"),
    ([(1, 2), (3, 2)], "across"),
])
def test_from_cycles_rejects_repeated_symbols(cycles, message):
    with pytest.raises(ValueError, match=message):
        Perm.from_cycles(cycles, degree=3)


@pytest.mark.parametrize("cycles, degree", [
    ([], -3), ([], 0), ([(1, 2)], 0), ([], None),
], ids=["negative", "zero", "zero-with-a-cycle", "no-cycles-no-degree"])
def test_from_cycles_rejects_a_degree_below_one(cycles, degree):
    # checked before the cycles are compared with the degree
    with pytest.raises(ValueError, match=r"^degree %d: the degree must be at least 1$"
                       % (0 if degree is None else degree)):
        Perm.from_cycles(cycles, degree=degree)


def test_degree_above_max_rejected():
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        parse_origami("d=%d\nh=()\nv=()" % (MAX_DEGREE + 1))
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        parse_origami("h=(1 %d)\nv=()" % (MAX_DEGREE + 1))
    assert Perm.from_cycles([(1, MAX_DEGREE)]).degree == MAX_DEGREE


def test_l_origami_degree_checked_before_cycles_are_built(monkeypatch):
    # conjecture --reps passes n and m straight from the command line
    def unreachable(cycles, degree=None):
        raise AssertionError("cycles built for degree %d" % degree)

    monkeypatch.setattr(Perm, "from_cycles", unreachable)
    with pytest.raises(ValueError, match="degree 10002 exceeds MAX_DEGREE"):
        make_l_origami(MAX_DEGREE, 3)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        Perm.identity(2) * Perm.identity(3)


def test_unchecked_results_pass_the_checks():
    # act_letter, canonical_form, inverse, composition, from_cycles,
    # identity and make_l_origami skip validation; the validating
    # constructors must accept everything they return
    rng = random.Random(5)
    for _ in range(20):
        o = random_transitive_pair(rng)
        outs = [act_letter(pair_of(o), g, e) for g, e in GENS + [("U", 1)]]
        outs += [canonical_form(o), Origami(o.h * o.v, o.v.inverse()),
                 make_l_origami(rng.randint(2, 6), rng.randint(2, 6))]
        for r in map(pair_of, outs):
            assert pair_of(Origami(Perm(r[0]), Perm(r[1]))) == r
        for p in (o.h, o.v):
            one_based = [tuple(s + 1 for s in c) for c in p.cycles()]
            built = Perm.from_cycles(one_based, degree=o.degree)
            assert Perm(built.images) == built == p
        ident = Perm.identity(o.degree)
        assert Perm(ident.images) == ident == Perm(range(o.degree))


@pytest.mark.slow
def test_orbit_l2_40_size():
    # degree n = 41 is prime: the larger Hubert-Lelievre orbit, which holds
    # the even-sided L-shapes, has (3/16)(n - 1)(n^2 - 1) = 12,600 forms
    assert len(orbit(make_l_origami(2, 40))) == 12600
