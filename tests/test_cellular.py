"""Cellular chains under the S/T action, and the core intersections and
multitwist matrices read through them, against the traced loops."""

import random

import pytest

from origamikz import (
    Direction,
    IntegralityError,
    Origami,
    OrigamiError,
    Perm,
    decompose,
    default_basis,
    dehn_twist_action,
    make_l_origami,
    primitive_directions,
    shear_matrix,
    standard_basis,
)
from origamikz.geometry import _vertex_of
from origamikz.origami import (act_letter, act_word, pull_back_chain,
                               push_forward_chain, transport_chain)
from origamikz.sl2 import matrix_to_word, word_to_matrix
from util import (
    GENS,
    pair_of,
    random_direction,
    random_h2_origami,
    random_transitive_pair,
    reference_act_letter,
    reference_dehn_twist_action,
    traced_gram,
)

# the degree-3 one-cylinder surface: its axes have one cylinder each, so
# its default basis is searched
ONE_CYLINDER = Origami(Perm.from_cycles([(1, 2, 3)]), Perm.from_cycles([(2, 3)], 3))


def face_boundary(o, i):
    """The boundary b_i + l_h(i) - b_v(i) - l_i of square i, as a chain."""
    d = o.degree
    b, l = [0] * d, [0] * d
    b[i] += 1
    l[o.h(i)] += 1
    b[o.v(i)] -= 1
    l[i] -= 1
    return b, l


def face_coefficients(o, chain):
    """Integers a with sum a_j * face_boundary(o, j) == chain, else None.

    The b_k coefficient of that sum is a_k - a_v^-1(k) and the l_k one is
    a_h^-1(k) - a_k, so a is fixed along h and v from a_0 = 0 (the sum of
    all faces bounds nothing) and then checked on every edge.
    """
    b, l = chain
    h, v = o.h.images, o.v.images
    a = {0: 0}
    order = [0]
    for k in order:
        for j, val in ((v[k], a[k] + b[v[k]]), (h[k], a[k] - l[h[k]])):
            if j not in a:
                a[j] = val
                order.append(j)
    d = o.degree
    total = ([0] * d, [0] * d)
    for j in range(d):
        fb, fl = face_boundary(o, j)
        for k in range(d):
            total[0][k] += a[j] * fb[k]
            total[1][k] += a[j] * fl[k]
    return [a[j] for j in range(d)] if total == (list(b), list(l)) else None


def vertex_boundary(o, chain):
    """The boundary of a 1-chain, by vertex class (one per corner cycle)."""
    vertex_of = _vertex_of(o)
    out = dict.fromkeys(vertex_of, 0)
    for i in range(o.degree):
        for coeff, end in ((chain[0][i], o.h(i)), (chain[1][i], o.v(i))):
            out[vertex_of[end]] += coeff
            out[vertex_of[i]] -= coeff
    return out


def random_chain(rng, d):
    return ([rng.randrange(-3, 4) for _ in range(d)],
            [rng.randrange(-3, 4) for _ in range(d)])


def test_face_coefficients_detects_non_boundaries():
    o = make_l_origami(2, 4)
    assert face_coefficients(o, face_boundary(o, 3)) == [0, 0, 0, 1, 0]
    b, l = face_boundary(o, 3)
    b[0] += 1
    assert face_coefficients(o, (b, l)) is None


def test_letters_send_face_boundaries_to_boundaries():
    rng = random.Random(3)
    for _ in range(25):
        o = random_transitive_pair(rng, dmax=9)
        for gen, exp in GENS:
            acted = reference_act_letter(o, gen, exp)
            for i in range(o.degree):
                image = transport_chain(pair_of(o), gen, exp, face_boundary(o, i))
                assert face_coefficients(acted, image) is not None


def test_letter_then_inverse_is_the_identity_on_chains():
    rng = random.Random(4)
    for _ in range(25):
        o = random_transitive_pair(rng, dmax=9)
        chain = random_chain(rng, o.degree)
        for gen, exp in GENS:
            acted = act_letter(pair_of(o), gen, exp)
            image = transport_chain(pair_of(o), gen, exp, chain)
            assert transport_chain(acted, gen, -exp, image) == chain


def test_pushed_holonomy_is_the_word_matrix_times_the_holonomy():
    rng = random.Random(5)
    for _ in range(25):
        o = random_transitive_pair(rng, dmax=9)
        word = matrix_to_word(shear_matrix(random_direction(rng, bound=8)))
        word += [rng.choice(GENS) for _ in range(3)]
        _, stages = act_word(pair_of(o), word)
        chain = random_chain(rng, o.degree)
        pushed = push_forward_chain(pair_of(o), stages, chain)
        before = (sum(chain[0]), sum(chain[1]))
        assert (sum(pushed[0]), sum(pushed[1])) == word_to_matrix(word).apply(before)
        assert pull_back_chain(stages, pushed) == chain


def test_transport_chain_rejects_unknown_letters():
    with pytest.raises(ValueError):
        transport_chain(pair_of(make_l_origami(2, 2)), "U", 1, ([0] * 3, [0] * 3))


def test_core_cycles_are_cycles_with_the_core_holonomy():
    o = make_l_origami(3, 4)
    for d in primitive_directions(5):
        dec = decompose(o, d)
        for cyl, (b, l) in zip(dec.cylinders, dec.core_cycles()):
            assert (sum(b), sum(l)) == (cyl.f * d.p, cyl.f * d.q)
            assert not any(vertex_boundary(o, (b, l)).values())


def _oracle_cases():
    """(origami, basis, decompositions): the surfaces of the cellular oracles."""
    cases = [(make_l_origami(n, m), 14) for n, m in ((3, 3), (3, 5), (5, 5), (2, 4))]
    cases.append((ONE_CYLINDER, 14))
    rng = random.Random(1)
    cases += [(random_h2_origami(rng, dmax=9), 6) for _ in range(20)]
    out = []
    for o, max_sum in cases:
        try:
            basis = default_basis(o)
        except OrigamiError:
            continue
        out.append((o, basis, [decompose(o, d) for d in primitive_directions(max_sum)]))
    return out


@pytest.fixture(scope="module")
def oracle_cases():
    return _oracle_cases()


def test_oracle_cases_cover_searched_bases(oracle_cases):
    assert len(oracle_cases) == 25
    assert oracle_cases[4][1].directions == (Direction(0, 1), Direction(-1, 1))
    searched = [b for _, b, _ in oracle_cases
                if b.directions != (Direction(1, 0), Direction(0, 1))]
    assert len(searched) == 17


def test_cellular_gram_matches_traced_gram(oracle_cases):
    for _, basis, _ in oracle_cases:
        assert basis.gram == traced_gram(basis)


def test_cellular_core_intersections_match_traced_cores(oracle_cases):
    for _, basis, decs in oracle_cases:
        for dec in decs:
            assert basis.omega_against_cores(dec) == [
                basis.omega_against(cyl.core) for cyl in dec.cylinders]


def _outcome(twist, dec, basis):
    try:
        return twist(dec, basis)
    except IntegralityError as exc:
        return str(exc)


def test_twist_matches_traced_reference(oracle_cases):
    errors = 0
    for _, basis, decs in oracle_cases:
        for dec in decs:
            got = _outcome(dehn_twist_action, dec, basis)
            assert got == _outcome(reference_dehn_twist_action, dec, basis)
            errors += isinstance(got, str)
    assert errors > 0


def test_cellular_pairing_rejects_a_foreign_decomposition():
    basis = standard_basis(make_l_origami(2, 4))
    with pytest.raises(OrigamiError):
        basis.omega_against_cores(decompose(make_l_origami(4, 2), Direction(1, 1)))
