import gc
import weakref
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, strategies as st

from torbar import graded
from torbar.fields import QQ, F2, F5
from torbar.graded import (GradedElement, Table, Tensor, tensor_elements,
                           koszul_sign, interleave_exponent, parity_sign)


@dataclass(frozen=True)
class K:
    name: str
    degree: int

    def __repr__(self):
        return self.name


def el(field, *pairs):
    out = GradedElement(field)
    for name, d, c in pairs:
        out.add_in(GradedElement.single(field, K(name, d), field.of(c)))
    return out


def test_element_arithmetic():
    x = el(QQ, ("a", 1, 2), ("b", 1, -1))
    y = el(QQ, ("a", 1, -2), ("c", 1, 5))
    s = x + y
    assert s.coeff(K("a", 1)) == 0 and K("a", 1) not in s.terms
    assert s.coeff(K("c", 1)) == 5
    assert (x - x).is_zero()
    assert x.degree() == 1
    mixed = el(QQ, ("a", 1, 1), ("z", 2, 1))
    with pytest.raises(ValueError):
        mixed.degree()
    # terms print sorted by key, each coefficient in its field's format
    assert repr(x) == "(2)*a + (-1)*b" and repr(x - x) == "0"
    assert repr(el(F5, ("b", 1, -1), ("a", 1, 2))) == \
        "(2 mod 5)*a + (4 mod 5)*b"
    with pytest.raises(TypeError, match="not hashable"):
        hash(x)


def test_prime_field_coefficients_are_reduced_on_entry():
    k = K("a", 1)
    assert GradedElement(F5, {k: 7}) == GradedElement(F5, {k: 2})


def test_prime_field_multiple_of_p_is_zero_in_constructor():
    assert GradedElement(F5, {K("a", 1): 5}).is_zero()


def test_prime_field_multiple_of_p_is_zero_in_single():
    assert GradedElement.single(F5, K("a", 1), 5).is_zero()


def test_tensor_elements_and_sign_helper():
    x = el(QQ, ("a", 1, 2))
    y = el(QQ, ("b", 2, 3))
    t = tensor_elements(QQ, x, y)
    (k, c), = t.terms.items()
    assert c == 6 and k.degree == 3
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([1, 2], (1, 0)) == 1


def _coefficients(field):
    """Field values, zero included: fractions over Q, residues over F_p."""
    if field is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3) \
            .map(QQ.of)
    return st.integers(-6, 6).map(field.of)


def _elements(field):
    """Elements on keys a..c of degrees 0..2, each built through the
    normalizing constructor, so repeated keys merge and zeros drop."""
    return st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2),
                              _coefficients(field)), max_size=5).map(
        lambda terms: GradedElement(field, [(K(n, d), c)
                                            for n, d, c in terms]))


@given(st.data())
def test_tensor_elements_is_the_normalized_tensor(data):
    """`tensor_elements` stores its terms unnormalized; they equal the
    expansion built through the normalizing constructor, and no zero
    coefficient is kept."""
    field = data.draw(st.sampled_from([QQ, F2, F5]))
    xs = data.draw(st.lists(_elements(field), max_size=3))
    want = []
    for terms in product(*(x.terms.items() for x in xs)):
        c = field.one
        for _, ci in terms:
            c = field.mul(c, ci)
        want.append((Tensor(tuple(k for k, _ in terms)), c))
    got = tensor_elements(field, *xs)
    assert got == GradedElement(field, want)
    assert field.zero not in got.terms.values()


@given(st.data())
def test_add_in_is_the_term_by_term_sum(data):
    """x.add_in(y), x.add_in(y, 1) and x.add_in(y, c) agree with the sum
    of x's terms and c times y's, built through the normalizing
    constructor."""
    field = data.draw(st.sampled_from([QQ, F2, F5]))
    x = data.draw(_elements(field))
    y = data.draw(_elements(field))
    c = data.draw(_coefficients(field))
    for scalar, s in ((None, field.one), (field.one, field.one), (c, c)):
        got = GradedElement(field, x.terms).add_in(y, scalar)
        want = GradedElement(field, list(x.terms.items())
                             + [(k, field.mul(s, v))
                                for k, v in y.terms.items()])
        assert got == want
        assert field.zero not in got.terms.values()


@given(st.sampled_from([QQ, F2, F5]), st.integers(-20, 20))
def test_parity_sign_is_minus_one_to_the_exponent(field, e):
    assert parity_sign(field, e) == field.of((-1) ** abs(e))


@st.composite
def _degrees_and_two_permutations(draw):
    n = draw(st.integers(0, 6))
    degrees = draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    return degrees, p, q


@given(_degrees_and_two_permutations())
def test_koszul_sign_of_a_composite_is_the_product(case):
    # slot i of the arrangement p holds symbol p[i]; permuting that
    # arrangement by q puts symbol p[q[i]] in slot i
    degrees, p, q = case
    composite = [p[i] for i in q]
    arranged = [degrees[j] for j in p]
    assert koszul_sign(degrees, composite) == \
        koszul_sign(degrees, p) * koszul_sign(arranged, q)


@given(st.lists(st.tuples(st.integers(-3, 4), st.integers(-3, 4)),
                max_size=6))
def test_interleave_exponent_is_the_sign_of_the_interleaving(pairs):
    # symbols a_1, b_1, ..., a_n, b_n (a_i at 2i, b_i at 2i+1) rearranged
    # into a_1, ..., a_n, b_1, ..., b_n
    n = len(pairs)
    degrees = [d for pair in pairs for d in pair]
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    e = interleave_exponent([a for a, _ in pairs], [b for _, b in pairs])
    assert (-1) ** (e % 2) == koszul_sign(degrees, perm)


def test_table_computes_each_key_once():
    calls = []

    def square(n):
        calls.append(n)
        return [n * n]

    table = Table(square)
    first = [table[n] for n in (3, 4, 3, 3, 4)]
    assert first == [[9], [16], [9], [9], [16]] and calls == [3, 4]
    assert table[3] is first[0]


class _Owner:
    """An owner of a table, as the package's algebras and spaces are."""

    def __init__(self, offset):
        self.offset = offset
        self.values = Table(_Owner._value, self)

    def _value(self, key):
        return key + self.offset


def test_table_passes_its_owner_to_compute():
    # one compute, two owners
    a, b = _Owner(10), _Owner(20)
    assert (a.values[5], b.values[5], a.values[6]) == (15, 25, 16)


def test_table_holds_its_owner_weakly():
    """An owner whose table has computed values is freed on `del` with
    the cycle collector off: the table is in no reference cycle."""
    gc.disable()
    try:
        owner = _Owner(1)
        assert [owner.values[k] for k in range(5)] == [1, 2, 3, 4, 5]
        ref = weakref.ref(owner)
        del owner
        assert ref() is None
    finally:
        gc.enable()


def test_table_is_emptied_at_the_cap(monkeypatch):
    monkeypatch.setattr(graded, "CAP", 3)
    table = Table(lambda n: -n)
    assert [table[n] for n in range(3)] == [0, -1, -2]
    assert dict(table) == {0: 0, 1: -1, 2: -2}
    assert table[3] == -3 and dict(table) == {3: -3}
    assert table._remember("k", "v") == "v"
    assert dict(table) == {3: -3, "k": "v"}
    assert table._remember("j", 1) == 1 and table[4] == -4
    assert dict(table) == {4: -4}


def test_table_get_computes_nothing():
    calls = []
    table = Table(calls.append)
    assert table.get(1) is None and 1 not in table
    assert table.get(1, "default") == "default"
    assert calls == [] and len(table) == 0
    table._remember(1, "one")
    assert table.get(1) == "one" and calls == []
