from fractions import Fraction

import pytest

from tropmod.moduli import ModuliPoint
from tropmod.rationals import NEG_INF, POS_INF, Infinity, parse_extended


def test_floats_rejected():
    with pytest.raises(TypeError):
        ModuliPoint.of(5, {(4, 5): 0.5})


def test_booleans_rejected():
    with pytest.raises(TypeError):
        parse_extended(True)


def test_mixed_sign_sum_raises():
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF


def test_sum_with_rational_and_negation():
    assert Fraction(1) + POS_INF is POS_INF
    assert -POS_INF == NEG_INF


def test_infinities_hash_by_sign():
    assert len({POS_INF, Infinity(1)}) == 1
