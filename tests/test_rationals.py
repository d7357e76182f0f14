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


# outside -?[0-9]+(/[0-9]+)?, inf and -inf; "1/0" has a zero denominator
REFUSED = [" 3/2", "+3/2", "1.5", ".5", "1e3", "1_000", "+inf", " inf", "٣", "1/0"]


@pytest.mark.parametrize("text", REFUSED)
def test_strings_outside_the_grammar_are_refused(text):
    error = ZeroDivisionError if text == "1/0" else ValueError
    with pytest.raises(error):
        parse_extended(text)
    with pytest.raises(error):
        ModuliPoint.of(5, {(4, 5): text})


@pytest.mark.parametrize("value", [0.5, True, None], ids=["float", "bool", "none"])
def test_non_exact_types_are_refused(value):
    with pytest.raises(TypeError):
        parse_extended(value)


def test_accepted_forms_parse_as_before():
    assert parse_extended("3/2") == Fraction(3, 2)
    assert parse_extended("-3/2") == Fraction(-3, 2)
    assert parse_extended("6/4") == Fraction(3, 2)
    assert parse_extended("7") == Fraction(7)
    assert parse_extended("0") == Fraction(0)
    assert parse_extended("inf") is POS_INF
    assert parse_extended("-inf") is NEG_INF
    assert type(parse_extended(7)) is Fraction and parse_extended(7) == 7
    half = Fraction(1, 2)
    assert parse_extended(half) is half
    assert parse_extended(POS_INF) is POS_INF
