import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torbar.fields import QQ, F2, F5, PrimeField, field_by_name
from torbar.graded import GradedElement


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("F2") == F2
    assert field_by_name("F7") == PrimeField(7)
    with pytest.raises(ValueError):
        field_by_name("F6")
    with pytest.raises(ValueError):
        field_by_name("Z")


def test_f5_axioms_exhaustive():
    f = F5
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_q_axioms_sampled():
    # Q is sampled, not enumerated
    with pytest.raises(ValueError, match="Q is infinite"):
        QQ.elements()
    rng = random.Random(0)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        if a != 0:
            assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_parse_print_roundtrip():
    assert QQ.parse(QQ.fmt(Fraction(-3, 7))) == Fraction(-3, 7)
    assert F5.parse(F5.fmt(3)) == 3
    assert F5.parse("8") == 3
    F7 = PrimeField(7)
    assert F7.fmt(9) == "2 mod 7"
    with pytest.raises(ValueError):
        F7.parse("3 mod 5")


def test_fraction_coercion_into_fp():
    assert F5.of(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    with pytest.raises(ValueError):
        PrimeField(4)


def _of_by_isinstance(field, n):
    """`PrimeField.of` as written before its int fast path."""
    if isinstance(n, Fraction):
        return _of_by_isinstance(field, n.numerator) * pow(
            n.denominator, -1, field.p) % field.p
    return n % field.p


@pytest.mark.parametrize("field", [F2, F5])
def test_prime_field_of_keeps_value_and_type(field):
    values = [0, 1, -1, -7, 12, 10 ** 30 + 3, -(10 ** 30) - 3, True, False,
              Fraction(1, 3), Fraction(-7, 9), Fraction(10 ** 20, 11),
              Fraction(6, 1), Fraction(-4, 1)]
    for n in values:
        got, expected = field.of(n), _of_by_isinstance(field, n)
        assert got == expected and type(got) is type(expected), n


RATIONALS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(max_denominator=12),
                      st.integers(-40, 40).map(lambda n: Fraction(n)))


def assert_rational(value, expected):
    """value equals the plain Fraction result and is an int exactly when
    that result is integral."""
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@given(RATIONALS, RATIONALS)
def test_q_stores_integral_rationals_as_ints(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_rational(QQ.of(a), fa)
    assert_rational(QQ.parse(f" {fa} "), fa)
    assert_rational(QQ.parse(f"{3 * fa.numerator}/{3 * fa.denominator}"), fa)
    assert_rational(QQ.add(a, b), fa + fb)
    assert_rational(QQ.sub(a, b), fa - fb)
    assert_rational(QQ.mul(a, b), fa * fb)
    assert_rational(QQ.neg(QQ.of(a)), -fa)
    if fa:
        assert_rational(QQ.inv(a), 1 / fa)
    assert str(QQ.of(a)) == QQ.fmt(fa) and hash(QQ.of(a)) == hash(fa)


def test_q_constants_and_graded_coefficients_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    e = GradedElement(QQ, {"k": Fraction(4, 2)})
    assert e.terms == {"k": 2} and type(e.terms["k"]) is int
