import random

import pytest

from tropmod.errors import DimensionMismatch, ZeroVector
from tropmod.lattice import primitive

import oracles
from oracles import (
    RankDeficient,
    hermite_normal_form,
    in_integer_span,
    in_rational_span,
    is_saturated,
    smith_normal_form,
)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 1, 1)) == (0, 1, 1)
    assert primitive((-3, 0, 0)) == (-1, 0, 0)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_primitive_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        v = [rng.randint(-30, 30) for _ in range(6)]
        if not any(v):
            continue
        p = primitive(v)
        assert primitive(p) == p


def test_rational_span():
    assert in_rational_span((0, 0), [(1, 2)]) is True
    assert in_rational_span((1, 1), [(1, 0)]) is False
    assert in_rational_span((2, 4), [(1, 2)]) is True
    assert in_rational_span((0, 0, 0), []) is True
    assert in_rational_span((1, 0, 0), []) is False
    with pytest.raises(DimensionMismatch):
        in_rational_span((1, 0), [(1, 0, 0)])


def test_integer_span():
    assert in_integer_span((1, 1), [(2, 0), (0, 2)]) is False
    assert in_integer_span((2, 2), [(2, 0), (0, 2)]) is True
    assert in_integer_span((1, 3, -2), [(1, 2, -3), (0, 1, 1)]) is True


def test_integer_span_implies_rational_span():
    rng = random.Random(12)
    for _ in range(200):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        v = [rng.randint(-8, 8) for _ in range(5)]
        if in_integer_span(v, rows):
            assert in_rational_span(v, rows)


def test_hermite_normal_form_shape():
    hnf = hermite_normal_form([(4, 6, 2), (2, 2, 2)])
    # echelon with positive pivots and reduced entries above
    pivots = []
    for row in hnf:
        c = next(i for i, x in enumerate(row) if x != 0)
        assert row[c] > 0
        pivots.append(c)
    assert pivots == sorted(pivots)
    for i, row in enumerate(hnf):
        for j, other in enumerate(hnf):
            if j > i:
                c = next(k for k, x in enumerate(other) if x != 0)
                assert 0 <= row[c] < other[c]


def test_hnf_preserves_the_row_lattice():
    rng = random.Random(13)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        hnf = hermite_normal_form(rows)
        for row in rows:
            assert in_integer_span(row, hnf)
        for row in hnf:
            assert in_integer_span(row, rows)


def test_smith_normal_form_basics():
    assert smith_normal_form([(1, 0, 0), (0, 2, 0)]) == (1, 2)
    assert smith_normal_form([(0, 1, 1), (1, 0, -1)]) == (1, 1)
    assert smith_normal_form([(1, 0), (0, 1)]) == (1, 1)
    assert smith_normal_form([(2, 4), (1, 2)]) == (1,)


def test_smith_divisor_chain_and_determinant():
    rng = random.Random(14)
    for _ in range(80):
        size = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        divisors = smith_normal_form(rows)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        det = oracles.determinant(rows)
        if det == 0:
            assert len(divisors) < size
        else:
            product = 1
            for d in divisors:
                product *= d
            assert product == abs(det)


def test_is_saturated():
    assert is_saturated([(1, 0, 0), (0, 2, 0)]) is False
    assert is_saturated([(0, 1, 1), (1, 0, -1)]) is True
    assert is_saturated([(1, 0), (0, 1)]) is True
    assert is_saturated([]) is True
    with pytest.raises(RankDeficient):
        is_saturated([(1, 2), (2, 4)])


def test_random_unimodular_matrices_are_saturated():
    rng = random.Random(15)
    for _ in range(40):
        size = rng.randint(2, 4)
        mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for _ in range(12):  # random elementary integer row operations
            i, j = rng.sample(range(size), 2)
            op = rng.choice(("add", "swap", "negate"))
            if op == "add":
                factor = rng.randint(-3, 3)
                mat[i] = [a + factor * b for a, b in zip(mat[i], mat[j])]
            elif op == "swap":
                mat[i], mat[j] = mat[j], mat[i]
            else:
                mat[i] = [-a for a in mat[i]]
        assert is_saturated(mat) is True
