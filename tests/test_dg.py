import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from torbar.fields import QQ, F2, F5
from torbar.graded import (GradedElement, koszul_sign, parity_sign,
                           tensor_elements)
from torbar.linalg import StructuralError
from torbar.dg import (FreeDga, FreeGcDga, polynomial_dga,
                       TensorDga, TensorDgc, HomAlgebra, TwistingCochain,
                       TwistedTensor, check_d_squared, FreeGcCoalgebra)
from torbar.bar import BarDgc, OneSidedBar, universal_cochain
from torbar.formality import KoszulComplex


def free_dga(field=QQ):
    # du = 0, dv = u*u, so that t(y_k) patterns close up
    return FreeDga(field, [("u", 2), ("v", 3)], d_gen={"v": [(1, ["u", "u"])]})


def sampled_triples(A, degrees, rng, samples):
    """Random triples (x, y, z) of elements of A for `Dga.check_axioms`,
    drawn in the order p, q, x, y, then z's degree and z: the degrees
    from `degrees`, the elements by `Dga.random_element`."""
    out = []
    for _ in range(samples):
        p, q = rng.choice(degrees), rng.choice(degrees)
        x, y = A.random_element(p, rng), A.random_element(q, rng)
        out.append((x, y, A.random_element(rng.choice(degrees), rng)))
    return out


def test_free_dga_axioms():
    rng = random.Random(3)
    A = free_dga()
    A.check_axioms(sampled_triples(A, [2, 3, 4, 5], rng, 12)
                   ).raise_on_failure()
    assert [k.degree for k in A.basis(5)] == [5, 5]
    assert [repr(k) for k in A.basis(5)] == ["u*v", "v*u"]
    assert repr(A.unit_key) == "1"


def exterior_cop_reference(C, key):
    """The exterior coalgebra's closed form: Delta x_S = sum over S = L u R
    of the unshuffle sign x_L (x) x_R (all generators odd)."""
    names = [n for n, _ in key.powers]
    out = {}
    for mask in range(1 << len(names)):
        left = [n for i, n in enumerate(names) if mask >> i & 1]
        right = [n for i, n in enumerate(names) if not mask >> i & 1]
        inv = sum(C.algebra.gens[names[i]] * C.algebra.gens[names[j]]
                  for i in range(len(names)) for j in range(i + 1, len(names))
                  if not mask >> i & 1 and mask >> j & 1)
        out[(C.algebra.monomial(left), C.algebra.monomial(right))] = \
            C.field.of(-1 if inv % 2 else 1)
    return out


def polynomial_cop_reference(C, key):
    """The divided-power closed form: Delta y_alpha = sum over
    beta + gamma = alpha of y_beta (x) y_gamma."""
    out = {}
    for beta in itertools.product(*(range(e + 1) for _, e in key.powers)):
        left = [(n, b) for (n, _), b in zip(key.powers, beta)]
        right = [(n, e - b) for (n, e), b in zip(key.powers, beta)]
        out[(C.algebra.monomial(left), C.algebra.monomial(right))] = \
            C.field.one
    return out


@pytest.mark.parametrize("field", [QQ, F5, F2], ids=str)
def test_free_gc_coalgebra_axioms_and_closed_forms(field):
    odd = FreeGcCoalgebra(field, [("x1", 1), ("x3", 3), ("x5", 5)], 1)
    even = FreeGcCoalgebra(field, [("y2", 2), ("y4", 4)], -1)
    mixed = FreeGcCoalgebra(field, [("x1", 1), ("y2", 2), ("x3", 3)], 1)
    for C, reference in ((odd, exterior_cop_reference),
                         (even, polynomial_cop_reference), (mixed, None)):
        keys = [k for d in range(10) for k in C.basis(d)]
        C.check_axioms(keys).raise_on_failure()
        assert all(C.diff_key(k).is_zero() for k in keys)
        if reference is None:
            continue
        for k in keys:
            assert {(k1, k2): c for c, k1, k2 in C.cop_key(k)} == \
                reference(C, k), k
    # every subset of the odd generators; y2^4, y2^2 y4 and y4^2
    assert sum(len(odd.basis(d)) for d in range(10)) == 8
    assert len(even.basis(8)) == 3


def test_dgc_check_axioms_checks_both_counit_laws():
    class LeftCounitalOnly(FreeGcCoalgebra):
        """Delta x = 1 (x) x: coassociative, (eps (x) 1) Delta = id, but
        (1 (x) eps) Delta x = 0."""

        def cop_key(self, key):
            return [(c, k1, k2) for c, k1, k2 in super().cop_key(key)
                    if k2 != self.coaug_key or k1 == self.coaug_key]

    good = FreeGcCoalgebra(QQ, [("x", 1)], 1)
    report = good.check_axioms([k for d in range(2) for k in good.basis(d)])
    assert repr(report) == "<check dgc axioms of FreeGcCoalgebra: ok, 6 cases>"
    bad = LeftCounitalOnly(QQ, [("x", 1)], 1)
    report = bad.check_axioms([k for d in range(2) for k in bad.basis(d)])
    assert [(law, repr(k)) for law, k in report.failures] == \
        [("counit-r", "x")]
    assert repr(report) == \
        "<check dgc axioms of LeftCounitalOnly: FAILED (1), 6 cases>"
    with pytest.raises(StructuralError, match=r"\('counit-r', x\)"):
        report.raise_on_failure()


def test_free_gc_dga_axioms():
    rng = random.Random(4)
    # commutative model with an acyclic pair: da = 0, du = w
    A = FreeGcDga(QQ, [("a", 2), ("u", 3), ("w", 4)],
                  d_gen={"u": [(1, [("w", 1)])]})
    A.check_axioms(sampled_triples(A, [2, 3, 4, 5, 6], rng, 15)
                   ).raise_on_failure()
    x = A.generator("a")
    y = A.generator("u")
    assert A.mul(y, y).is_zero()  # odd square
    assert A.mul(x, y) == A.mul(y, x)  # even times odd commutes
    z = A.generator("w")
    assert A.mul(y, z) == A.mul(z, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_free_gc_products_are_kept_and_never_mutated(data):
    """`FreeGcDga.mul_keys` keeps each product: repeated calls return
    equal values with the Koszul sign of sorting the odd generators, and
    its readers (`mul`, `d` and the bar differential) leave them as they
    were."""
    field = data.draw(st.sampled_from([QQ, F5, F2]))
    A = FreeGcDga(field, [("a", 2), ("u", 3), ("v", 3), ("w", 5)],
                  d_gen={"w": [(1, ["u", "v"])]})
    keys = [k for d in range(1, 11) for k in A.basis(d)]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                         st.sampled_from(keys)),
                               min_size=1, max_size=6))
    first = {p: A.mul_keys(*p) for p in pairs}
    terms = {p: dict(v.terms) for p, v in first.items()}
    for (k1, k2), v in first.items():
        odd = [n for k in (k1, k2) for n, _ in k.powers if n in A._odd]
        if len(set(odd)) < len(odd):
            assert v.is_zero()
            continue
        perm = sorted(range(len(odd)), key=lambda i: A.order[odd[i]])
        key = A.monomial(k1.powers + k2.powers)
        assert v.terms == {key: field.of(koszul_sign([1] * len(odd), perm))}

    def one(k):
        return GradedElement.single(field, k)

    barA = BarDgc(A)
    for k1, k2 in pairs:
        A.d(A.mul(one(k1) + one(k2), one(k2)))
        barA.diff_key(barA.word([k1, k2]))
    for p, v in first.items():
        assert A.mul_keys(*p) == v
        assert v.terms == terms[p]


def test_exterior_sign():
    L = FreeGcDga(QQ, [("x1", 1), ("x2", 1)])
    x1, x2 = L.generator("x1"), L.generator("x2")
    assert L.mul(x2, x1) == L.mul(x1, x2).scale(QQ.of(-1))
    assert L.mul(x1, x1).is_zero()


def test_polynomial_rejects_odd():
    with pytest.raises(ValueError):
        polynomial_dga(QQ, [("t", 3)])


def test_tensor_dga_axioms():
    rng = random.Random(5)
    A = free_dga()
    B = FreeGcDga(QQ, [("e", 1)])
    T = TensorDga(A, B)
    T.check_axioms(sampled_triples(T, [1, 2, 3, 4], rng, 10)
                   ).raise_on_failure()


def test_bar_d_squared_and_universal_cochain():
    A = free_dga()
    barA = BarDgc(A)
    keys = []
    for d in range(0, 9):
        keys.extend(barA.basis(d))
    for k in keys:
        e = GradedElement.single(QQ, k)
        assert barA.d(barA.d(e)).is_zero(), f"d^2 fails at {k!r}"
    t = universal_cochain(barA)
    t.check(keys).raise_on_failure()
    barA.check_axioms(keys[:40]).raise_on_failure()


def test_hom_cup_unit_and_assoc():
    rng = random.Random(6)
    A = free_dga(F5)
    barA = BarDgc(A)
    hom = HomAlgebra(barA, A)
    t = universal_cochain(barA).map
    unit = hom.unit()
    keys = [k for d in range(0, 7) for k in barA.basis(d)]
    for k in keys:
        assert hom.cup(t, unit)(k) == t(k)
        assert hom.cup(unit, t)(k) == t(k)
    # associativity on random triples
    f, g, h = t, hom.cup(t, t), t
    lhs = hom.cup(hom.cup(f, g), h)
    rhs = hom.cup(f, hom.cup(g, h))
    for k in rng.sample(keys, 10):
        assert lhs(k) == rhs(k)


def test_cup_of_universal_on_length_two():
    A = free_dga()
    barA = BarDgc(A)
    hom = HomAlgebra(barA, A)
    t = universal_cochain(barA).map
    tt = hom.cup(t, t)
    u = A.word(["u"])
    v = A.word(["v"])
    w = barA.word([u, v])
    # (t u t)[a|b] = (-1)^{|a|-1} ab: the only splitting is [a](x)[b]
    out = tt(w)
    expected = A.mul(A.generator("u"), A.generator("v")).scale(QQ.of((-1) ** (2 - 1)))
    assert out == expected


def test_twisted_tensor_d_squared_and_delta_h():
    A = free_dga()
    barA = BarDgc(A)
    t = universal_cochain(barA)
    tt = TwistedTensor(t)
    keys = []
    for total in range(0, 7):
        for db in range(0, total + 1):
            for wk in barA.basis(db):
                for ak in A.basis(total - db):
                    keys.append(tt.key(wk, ak))
    check_d_squared(tt, keys, "twisted tensor d^2")
    # t = 0 gives the ordinary tensor complex
    zero_t = TwistingCochain(barA, A, lambda k: GradedElement(QQ), name="0")
    tt0 = TwistedTensor(zero_t)
    check_d_squared(tt0, keys[:50], "twisted tensor d^2")


def twisted_diff_reference(tt, key):
    """d(c (x) a) = dc (x) a + (-1)^{|c|} c (x) da
    - sum (-1)^{|t||c_1|} c_1 (x) t(c_2) a, summed element by element:
    each term through `tensor_elements`, the twisting term over
    `C.cop_key` and the twisting cochain `tt.t`."""
    C, A, f, t = tt.C, tt.A, tt.field, tt.t
    c, a = key.parts
    single = GradedElement.single
    out = tensor_elements(f, C.diff_key(c), single(f, a))
    out.add_in(tensor_elements(f, single(f, c), A.diff_key(a)),
               parity_sign(f, c.degree))
    for coeff, c1, c2 in C.cop_key(c):
        out.add_in(tensor_elements(f, single(f, c1),
                                   A.mul(t(c2), single(f, a))),
                   f.mul(coeff, parity_sign(f, t.map.degree * c1.degree + 1)))
    return out


def bar_diff_reference(barA, word):
    """d[a_1|..|a_n] = -sum (-1)^{e_{i-1}} [..|da_i|..]
    + sum (-1)^{e_i} [..|a_i a_{i+1}|..], each word built from elements
    by `words_from_elements`, e_i the bar degree of the first i entries."""
    A, f = barA.A, barA.field
    xs = [A.element(e) for e in word.entries]
    out = GradedElement(f)
    pre = 0
    for i, x in enumerate(xs):
        out.add_in(barA.words_from_elements(xs[:i] + [A.d(x)] + xs[i + 1:]),
                   parity_sign(f, pre + 1))
        pre += word.entries[i].degree - 1
    pre = 0
    for i in range(len(xs) - 1):
        pre += word.entries[i].degree - 1
        out.add_in(barA.words_from_elements(
            xs[:i] + [A.mul(xs[i], xs[i + 1])] + xs[i + 2:]),
            parity_sign(f, pre))
    return out


def check_differentials(tt, keys):
    """The differential of each key of the twisted tensor `tt` over a bar,
    and that of its word, equal their references, and every target that
    is one of `keys` is that key's object: the complex's table hands out
    one Tensor per pair."""
    known = {k: k for k in keys}
    for k in keys:
        d = tt.diff_key(k)
        assert d == twisted_diff_reference(tt, k), k
        assert tt.C.diff_key(k.parts[0]) == bar_diff_reference(
            tt.C, k.parts[0]), k
        assert all(known.get(k2, k2) is k2 for k2 in d.terms), k
        assert tt.key(*k.parts) is k


def test_twisted_tensor_differential_matches_the_reference():
    """On the free dga test bed, with the universal twisting cochain and
    with t = 0, the one-pass differential equals the element-wise sum."""
    A = free_dga()
    barA = BarDgc(A)
    zero_t = TwistingCochain(barA, A, lambda k: GradedElement(QQ), name="0")
    for t in (universal_cochain(barA), zero_t):
        tt = TwistedTensor(t)
        keys = [tt.key(wk, ak) for total in range(7)
                for db in range(total + 1) for wk in barA.basis(db)
                for ak in A.basis(total - db)]
        assert len(keys) > 100
        check_differentials(tt, keys)
        assert sum(len(tt.diff_key(k).terms) for k in keys) > 100


def _d_squared_complexes():
    """Tensor constructions keyed by name, each with its keys of degree
    <= 7.  The factor has nonzero differentials in odd and even degrees:
    d b = a a and d c = a b - b a."""
    A = FreeDga(QQ, [("a", 2), ("b", 3), ("c", 4)],
                d_gen={"b": [(1, ["a", "a"])],
                       "c": [(1, ["a", "b"]), (-1, ["b", "a"])]})
    BA = BarDgc(A)
    AA, BABA = TensorDga(A, A), TensorDgc(BA, BA)
    osb = OneSidedBar(A, A, lambda x: x)
    K = KoszulComplex(F5, 2)
    complexes = {"A (x) A": (AA, AA.basis), "BA (x) BA": (BABA, BABA.basis),
                 "B(k, A, A)": (osb, osb.basis_total), "Koszul": (K, K.basis)}
    return {name: (X, [k for d in range(8) for k in basis(d)])
            for name, (X, basis) in complexes.items()}


D_SQUARED = _d_squared_complexes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_differential_squares_to_zero(data):
    X, keys = D_SQUARED[data.draw(st.sampled_from(sorted(D_SQUARED)))]
    key = data.draw(st.sampled_from(keys))
    assert X.d(X.diff_key(key)).is_zero(), key


def test_equal_monomials_are_one_object():
    """`basis`, `monomial`, `mul_keys` and `diff_key` of one FreeGcDga all
    hand out the algebra's one Monomial per monomial, and `basis` is
    enumerated once per degree."""
    A = FreeGcDga(QQ, [("a", 2), ("u", 3), ("w", 4)],
                  d_gen={"u": [(1, [("a", 2)]), (2, [("w", 1)])]})
    basis = {d: A.basis(d) for d in range(13)}
    assert all(A.basis(d) is basis[d] for d in basis)
    assert [len({k.powers for k in basis[d]}) for d in basis] \
        == [1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 3, 3, 4]
    known = {id(k) for keys in basis.values() for k in keys}
    assert A.monomial([]) is A.unit_key and id(A.unit_key) in known
    for keys in basis.values():
        for k in keys:
            assert A.monomial(k.powers) is k
    built = 0
    for d1 in range(7):
        for d2 in range(13 - d1):
            for k1 in basis[d1]:
                for k2 in basis[d2]:
                    for k in A.mul_keys(k1, k2).terms:
                        assert id(k) in known, (k1, k2, k)
                        built += 1
    for keys in list(basis.values())[:12]:
        for k in keys:
            for k2 in A.diff_key(k).terms:
                assert id(k2) in known, (k, k2)
                built += 1
    assert built > 100
