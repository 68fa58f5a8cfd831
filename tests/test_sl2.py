import random

import pytest

from origamikz import (
    IDENTITY,
    IndexCapExceeded,
    Mat2,
    S,
    T,
    contains_minus_identity,
    coset_action,
    index_in_sl2,
    matrix_to_word,
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
