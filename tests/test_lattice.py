import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonsing.errors import BudgetExceeded, EqualVectors, NonCoprime, NonPrimitiveInput
from newtonsing.lattice import (
    content,
    cross,
    determinant_alpha,
    negative_cf,
    pair_data,
    vec_add,
    vec_scale,
    vec_sub,
)
from tests.oracles import beta_scan, cf_evaluate


def test_content_examples():
    assert content((2, 4, 6)) == 2
    assert content((11, 5, 7)) == 1
    assert content((0, 0, 0)) == 0


def test_alpha_examples():
    assert determinant_alpha((11, 5, 7), (6, 3, 4)) == 1
    assert determinant_alpha((11, 5, 7), (15, 8, 6)) == 13
    assert determinant_alpha((32, 12, 21), (0, 0, 1)) == 4


def test_alpha_errors():
    with pytest.raises(NonPrimitiveInput):
        determinant_alpha((2, 4, 6), (0, 0, 1))
    with pytest.raises(EqualVectors):
        determinant_alpha((1, 2, 3), (1, 2, 3))
    with pytest.raises(EqualVectors):
        determinant_alpha((1, 2, 3), (-1, -2, -3))


def test_beta_examples():
    assert pair_data((11, 5, 7), (15, 8, 6))[1] == 1
    assert pair_data((32, 12, 21), (0, 0, 1))[1] == 3
    assert pair_data((11, 5, 7), (6, 3, 4), unit_choice=0)[1] == 0
    assert pair_data((11, 5, 7), (6, 3, 4), unit_choice=1)[1] == 1


def test_beta_beyond_any_scan():
    # alpha = 10^9 + 7 (a prime): b = alpha*w - beta*a puts beta*a + b in
    # alpha Z^3, so the definition fixes beta
    a, w, alpha, beta = (3, 5, 7), (1, 2, 4), 10**9 + 7, 123456789
    b = vec_sub(vec_scale(alpha, w), vec_scale(beta, a))
    assert content(b) == 1
    got_alpha, got_beta, string, seq = pair_data(a, b)
    assert got_alpha == alpha > 10**9
    assert 0 <= got_beta < alpha
    assert content(vec_add(vec_scale(got_beta, a), b)) == alpha
    assert got_beta == beta
    assert cf_evaluate(string) == Fraction(alpha, beta)
    # read from the other end, the chain's beta is the inverse mod alpha
    assert pair_data(b, a)[1] * beta % alpha == 1


def test_beta_matches_the_scan_with_signed_coordinates():
    rng = random.Random(5)
    checked = 0
    while checked < 2000:
        a, b = (tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(2))
        if content(a) != 1 or content(b) != 1 or cross(a, b) == (0, 0, 0):
            continue
        alpha = determinant_alpha(a, b)
        if alpha == 1:
            continue
        beta = pair_data(a, b)[1]
        assert beta == beta_scan(a, b, alpha)
        assert pair_data(b, a)[1] * beta % alpha == 1
        checked += 1


def test_negative_cf_examples():
    assert negative_cf(13, 1) == [13]
    assert negative_cf(4, 3) == [2, 2, 2]
    assert negative_cf(5, 2) == [3, 2]
    with pytest.raises(NonCoprime):
        negative_cf(6, 2)
    # a limit admits exactly that many terms, and refuses before the next
    assert negative_cf(4, 3, limit=3) == [2, 2, 2]
    with pytest.raises(BudgetExceeded):
        negative_cf(4, 3, limit=2)
    with pytest.raises(BudgetExceeded):
        pair_data((11, 5, 7), (6, 3, 4), unit_choice=1, limit=0)  # the string [1]
    assert pair_data((11, 5, 7), (6, 3, 4), unit_choice=0, limit=0)[2] == []


def test_canonical_sequence_examples():
    assert pair_data((11, 5, 7), (15, 8, 6))[3] == [(2, 1, 1)]
    assert pair_data((32, 12, 21), (0, 0, 1))[3] == [
        (24, 9, 16),
        (16, 6, 11),
        (8, 3, 6),
    ]
    assert pair_data((11, 5, 7), (6, 3, 4), 0)[3] == []
    assert pair_data((11, 5, 7), (6, 3, 4), 1)[3] == [(17, 8, 11)]


def test_negative_cf_round_trip_exhaustive():
    for alpha in range(1, 201):
        for beta in range(1, alpha + 1):
            if gcd(alpha, beta) != 1:
                continue
            terms = negative_cf(alpha, beta)
            assert all(b >= 2 for b in terms[1:])
            assert cf_evaluate(terms) == Fraction(alpha, beta)


def _primitive_vec(draw):
    v = draw(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)))
    return v if content(v) == 1 else None


@given(st.data())
@settings(max_examples=200)
def test_beta_uniqueness_and_alpha_symmetry(data):
    a = _primitive_vec(data.draw)
    b = _primitive_vec(data.draw)
    if a is None or b is None or a == b or cross(a, b) == (0, 0, 0):
        return
    alpha = determinant_alpha(a, b)
    assert alpha == determinant_alpha(b, a)
    if alpha > 1:
        matches = [
            beta
            for beta in range(alpha)
            if content(vec_add(vec_scale(beta, a), b)) == alpha
        ]
        assert matches == [pair_data(a, b)[1]] == [beta_scan(a, b, alpha)]


@given(st.data())
@settings(max_examples=200)
def test_canonical_sequence_recursion(data):
    a = _primitive_vec(data.draw)
    b = _primitive_vec(data.draw)
    if a is None or b is None or a == b or cross(a, b) == (0, 0, 0):
        return
    unit_choice = data.draw(st.sampled_from([0, 1]))
    seq = pair_data(a, b, unit_choice)[3]
    alpha = determinant_alpha(a, b)
    if alpha == 1:
        assert seq == ([] if unit_choice == 0 else [vec_add(a, b)])
        if unit_choice == 0:
            return
        terms = [1]
    else:
        beta = beta_scan(a, b, alpha)
        assert pair_data(a, b, unit_choice)[1] == beta
        terms = negative_cf(alpha, beta)
    chain = [a, *seq, b]
    assert all(content(v) == 1 for v in seq)
    for i, b_i in enumerate(terms, start=1):
        lhs = vec_add(vec_sub(chain[i - 1], vec_scale(b_i, chain[i])), chain[i + 1])
        assert lhs == (0, 0, 0)
