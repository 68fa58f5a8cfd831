import random

import pytest

from origamikz import (
    IDENTITY,
    Direction,
    IndexCapExceeded,
    Mat2,
    S,
    T,
    contains_minus_identity,
    coset_action,
    decompose,
    dehn_twist_action,
    index_in_sl2,
    kz_generators,
    make_l_origami,
    matrix_to_word,
    paper,
    primitive_directions,
    sl2,
    standard_basis,
    word_to_matrix,
)


def random_matrix(rng, max_len=8, max_exp=3):
    word = [
        (rng.choice("ST"), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randrange(0, max_len))
    ]
    return word_to_matrix(word)


def test_generator_relations():
    assert word_to_matrix([("S", 4)]) == IDENTITY
    assert word_to_matrix([("S", 1), ("T", 1)] * 6) == IDENTITY
    assert word_to_matrix([("S", 2)]) == -IDENTITY


def test_matrix_to_word_basics():
    assert matrix_to_word(IDENTITY) == []
    assert matrix_to_word(T) == [("T", 1)]
    m = Mat2(2, 1, -1, 0)
    assert word_to_matrix(matrix_to_word(m)) == m


def test_word_round_trips():
    rng = random.Random(12345)
    for _ in range(1000):
        m = random_matrix(rng)
        assert m.det() == 1
        assert word_to_matrix(matrix_to_word(m)) == m


def test_index_full_group():
    assert index_in_sl2([S, T]) == 1


def test_index_odd_family_pair():
    assert index_in_sl2([Mat2(2, 1, -1, 0), Mat2(1, 0, -1, 1)]) == 1


def test_index_even_family_pair():
    assert index_in_sl2([Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)]) == 3


def test_index_level_two_congruence_subgroup():
    # oracle: the mod-2 reduction of SL2(Z) has six elements and all three
    # generators die in it, so the index is at least 6; the enumeration
    # must then return exactly 6
    gens = [Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1), -IDENTITY]
    for g in gens:
        assert (g.a % 2, g.b % 2, g.c % 2, g.d % 2) == (1, 0, 0, 1)
    sl2_f2 = set()
    frontier = {(1, 0, 0, 1)}
    while frontier:
        sl2_f2 |= frontier
        nxt = set()
        for a, b, c, d in frontier:
            for m in (S, T):
                e = (
                    (m.a * a + m.b * c) % 2,
                    (m.a * b + m.b * d) % 2,
                    (m.c * a + m.d * c) % 2,
                    (m.c * b + m.d * d) % 2,
                )
                if e not in sl2_f2:
                    nxt.add(e)
        frontier = nxt
    assert len(sl2_f2) == 6
    assert index_in_sl2(gens) == 6


def test_parabolic_subgroup_exceeds_cap():
    with pytest.raises(IndexCapExceeded) as err:
        index_in_sl2([T], cap=2000)
    # the live cosets at the cap are those defined less those merged away
    assert err.value.defined - err.value.coincidences == 2000
    assert err.value.coincidences > 0


def test_too_long_generator_is_refused_before_its_word_is_built(monkeypatch):
    # T^k expands to 2|k| amalgam letters; past MAX_WORD_LENGTH the
    # generator is named and no letter is written
    def boom(word):
        raise AssertionError("amalgam word built")

    monkeypatch.setattr(sl2, "_amalgam_letters", boom)
    k = sl2.MAX_WORD_LENGTH + 1
    with pytest.raises(ValueError, match=r"generator Mat2\(1, %d, 0, 1\) is a word of %d "
                       % (k, k)):
        index_in_sl2([S, T, Mat2(1, k, 0, 1)])


def test_generator_at_the_word_cap_is_enumerated(monkeypatch):
    monkeypatch.setattr(sl2, "MAX_WORD_LENGTH", 5)
    assert index_in_sl2([S, T, Mat2(1, 5, 0, 1)]) == 1
    with pytest.raises(ValueError, match="is a word of 6 S/T letters"):
        index_in_sl2([S, T, Mat2(1, 6, 0, 1)])


def test_longest_twist_within_the_trace_length_is_enumerated():
    # L(2,2) along (1, 39998): d*(|p|+|q|) = 119,997, within MAX_TRACE_LENGTH,
    # and a word of 79,995 S/T letters; one parabolic generates an
    # infinite-index group, so the enumeration runs into its cap
    o = make_l_origami(2, 2)
    m = dehn_twist_action(decompose(o, Direction(1, 39998)), standard_basis(o))
    assert m == Mat2(20000, 1, -399960001, -19998)
    assert sum(abs(e) for _, e in matrix_to_word(m)) == 79995
    with pytest.raises(IndexCapExceeded):
        index_in_sl2([m], cap=500)


def test_empty_generators_exceed_cap():
    with pytest.raises(IndexCapExceeded):
        contains_minus_identity([], cap=500)


def test_contains_minus_identity():
    assert contains_minus_identity([S, T])
    assert contains_minus_identity([Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)])
    assert not contains_minus_identity([Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)], cap=200)


def test_index_invariances():
    rng = random.Random(999)
    gens = [Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)]
    base = index_in_sl2(gens)
    assert index_in_sl2(list(reversed(gens))) == base
    assert index_in_sl2([gens[0].inverse(), gens[1]]) == base
    assert index_in_sl2([gens[0], gens[1].inverse()]) == base
    for _ in range(10):
        g = random_matrix(rng, max_len=5)
        conj = [g * m * g.inverse() for m in gens]
        assert index_in_sl2(conj) == base


def test_coset_action_is_transitive_permutation():
    for gens in ([Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)],
                 [Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1), -IDENTITY]):
        act_a, act_b = coset_action(gens)
        k = len(act_a)
        assert sorted(act_a) == list(range(k))
        assert sorted(act_b) == list(range(k))
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for img in (act_a[x], act_b[x]):
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        assert seen == set(range(k))


def test_mat2_value_semantics():
    m = Mat2(2, 1, -1, 0)
    assert m == Mat2(2, 1, -1, 0)
    assert m != Mat2(2, 1, -1, 1)
    assert m != (2, 1, -1, 0)
    assert hash(m) == hash(Mat2(2, 1, -1, 0))
    assert len({m, Mat2(2, 1, -1, 0), Mat2(1, 0, 0, 1)}) == 2
    assert repr(m) == "Mat2(2, 1, -1, 0)"


def test_mat2_is_immutable():
    m = Mat2(1, 1, 0, 1)
    with pytest.raises(AttributeError):
        m.a = 5
    with pytest.raises(AttributeError):
        del m.b
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m == Mat2(1, 1, 0, 1)


def random_stabilizer(rng, n):
    """Generators of a random subgroup of index n that contains -I.

    a acts on n points as a random involution and b as a random
    permutation of order 1 or 3, so both relators act trivially; redrawn
    until the action is transitive.  The subgroup is the stabilizer of
    point 0, generated by the Schreier generators R_x g R_y^-1 of a BFS
    tree, where R_y = R_x g on tree edges x -g-> y.
    """
    letters = ((0, S), (1, S * T))  # a = S, b = ST
    while True:
        act = [list(range(n)), list(range(n))]
        pts = rng.sample(range(n), n)
        for i in range(rng.randrange(n // 2 + 1)):
            x, y = pts[2 * i:2 * i + 2]
            act[0][x], act[0][y] = y, x
        pts = rng.sample(range(n), n)
        for i in range(rng.randrange(n // 3 + 1)):
            x, y, z = pts[3 * i:3 * i + 3]
            act[1][x], act[1][y], act[1][z] = y, z, x
        rep = {0: IDENTITY}
        order = [0]
        for x in order:
            for k, g in letters:
                if act[k][x] not in rep:
                    rep[act[k][x]] = rep[x] * g
                    order.append(act[k][x])
        if len(order) == n:
            break
    gens = (rep[x] * g * rep[act[k][x]].inverse() for x in range(n) for k, g in letters)
    return list(dict.fromkeys(m for m in gens if m != IDENTITY))


def _generator_sets():
    for n in range(1, 11):
        for odd in (True, False):
            name = "verify-paper n=%d %s" % (n, "odd" if odd else "even")
            yield name, paper.family_case(n, odd)["matrices"], None
    dirs = primitive_directions(14)
    for n, m in ((3, 3), (3, 5), (5, 5)):
        o = make_l_origami(n, m)
        yield "conjecture L(%d,%d)" % (n, m), kz_generators(o, dirs, standard_basis(o)), None
    rng = random.Random(24)
    for k in range(200):
        n = rng.randrange(1, 41)
        yield "random %d" % k, random_stabilizer(rng, n), n


def test_one_hlt_pass_closes_the_table():
    # every live row is complete, and every relator (and every subgroup
    # word, at coset 0) closes
    for name, gens, index in _generator_sets():
        words = [sl2._amalgam_letters(matrix_to_word(g)) for g in gens]
        t = sl2._enumerate(words, sl2.COSET_CAP)
        live = [k for k in range(len(t.tab)) if t.rep(k) == k]

        def scan(k, word):
            for x in word:
                k = t.rep(t.tab[k][x])
            return k

        assert all(None not in t.tab[k] for k in live), name
        assert all(scan(k, rel) == k for k in live for rel in sl2._RELATORS), name
        assert all(scan(0, w) == 0 for w in words), name
        if index is not None:
            assert len(live) == index, name


def test_inverse_refuses_a_determinant_other_than_1():
    with pytest.raises(ValueError, match="only determinant-1 matrices"):
        Mat2(1, 1, 0, 2).inverse()
