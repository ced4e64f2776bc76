import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from torbar.fields import QQ, F2, F5
from torbar.graded import GradedElement, Tensor
from torbar.dg import FreeDga, FreeGcDga, TensorDga, polynomial_dga
from torbar.bar import (BarDgc, BarWord, OneSidedBar, check_dgc_map,
                        bar_shuffle)
from torbar.simplicial import (simplex_boundary, standard_simplex,
                               DualCochainDga, ConstantGroup)
from torbar.classifying import b_cyclic, wbar
from torbar.homog import catalog_entry, tor_bar_algebra
from torbar.hga import (VectorHga, check_hga, check_extended,
                        check_cup_identities, gerstenhaber_bracket,
                        bracket_vanishing_witness, bar_e_cochain,
                        bar_product_map, bar_product, KSAlgebra)


def boundary_delta3_instance(field):
    """The interval-cut hga on C*(boundary of Delta^3) over the field."""
    return VectorHga(DualCochainDga(simplex_boundary(field, 3), 8))


def cochain_sampler(A, rng, degree_pool=(1, 2), count=2):
    """Argument tuples of dense cochain vectors of A: every basis key of
    the drawn degree gets a coefficient in -3..3."""
    def sample(n):
        out = []
        for _ in range(count):
            args = []
            for _ in range(n):
                q = rng.choice(degree_pool)
                args.append(GradedElement(A.field, {
                    k: rng.randint(-3, 3) for k in A.basis(q)}))
            out.append(args)
        return out
    return sample


def test_hga_axioms_boundary_delta3():
    rng = random.Random(60)
    for field in (QQ, F2, F5):
        inst = boundary_delta3_instance(field)
        sampler = cochain_sampler(inst.dga, rng, degree_pool=(1, 2), count=2)
        check_hga(inst, sampler, ks=(1, 2, 3)).raise_on_failure()
        check_extended(inst, sampler).raise_on_failure()
        check_cup_identities(inst, sampler).raise_on_failure()


@pytest.mark.parametrize("field", [QQ, F5])
def test_dual_cochain_hga_extended_and_cup_identities(field):
    # sparse vectors keep the cup2(da; b) terms of d(cup2) from cancelling,
    # which dense cochains on the boundary of Delta^3 let them do
    rng = random.Random(63)
    A = DualCochainDga(standard_simplex(field, 4), 8)
    inst = VectorHga(A)

    def sampler(n):
        return [[A.random_element(rng.choice((1, 2, 3)), rng)
                 for _ in range(n)] for _ in range(20)]

    check_extended(inst, sampler).raise_on_failure()
    check_cup_identities(inst, sampler).raise_on_failure()


def test_trivial_hga_passes():
    rng = random.Random(61)
    # the second has an odd generator with d s = x^2: the trivial hga is
    # checked where d is not zero
    odd = FreeGcDga(QQ, [("x", 2), ("s", 3)], {"s": [(1, [("x", 2)])]})
    assert not odd.d(odd.generator("s")).is_zero()
    for A, degrees in ((polynomial_dga(QQ, [("x", 2), ("y", 4)]), (2, 4)),
                       (odd, (2, 3, 5))):
        inst = VectorHga(A)

        def sampler(n):
            return [[A.random_element(rng.choice(degrees), rng)
                     for _ in range(n)] for _ in range(2)]

        check_hga(inst, sampler, ks=(1, 2)).raise_on_failure()
        check_extended(inst, sampler, pairs=((1, 1), (2, 1))
                       ).raise_on_failure()
        check_cup_identities(inst, sampler).raise_on_failure()


def test_vector_hga_refuses_a_dga_without_a_known_hga():
    """Only cochain dgas (interval cuts) and free graded-commutative dgas
    (the trivial hga) carry an hga; a noncommutative free dga and a tensor
    product of dgas are refused."""
    A = FreeDga(QQ, [("u", 2), ("v", 3)], d_gen={"v": [(1, ["u", "u"])]})
    P = polynomial_dga(QQ, [("x", 2)])
    for dga in (A, TensorDga(P, P)):
        with pytest.raises(ValueError):
            VectorHga(dga)


def test_sign_flipped_e1_fails():
    # regression guard: negating E_1 breaks the d(E_1) axiom
    rng = random.Random(62)
    base = boundary_delta3_instance(QQ)

    class Flipped:
        def __getattr__(self, name):
            return getattr(base, name)

        def E(self, k, a, bs):
            out = base.E(k, a, bs)
            return out.scale(QQ.of(-1)) if k == 1 else out

    inst = Flipped()
    # degree-one arguments: E_1 lands in the 2-simplices, which exist
    sampler = cochain_sampler(base.dga, rng, degree_pool=(1,), count=3)
    rep = check_hga(inst, sampler, ks=(1,), comp_pairs=())
    assert not rep.ok


def test_gerstenhaber_bracket_delta3():
    rng = random.Random(63)
    inst = boundary_delta3_instance(QQ)
    # every 2-cochain on the boundary of the 3-simplex is a cocycle
    sampler = cochain_sampler(inst.dga, rng, degree_pool=(2,), count=1)
    (a, ) = sampler(1)[0]
    (b, ) = sampler(1)[0]
    br = gerstenhaber_bracket(inst, a, b)
    assert inst.d(br).is_zero()  # bracket of cocycles is a cocycle
    # antisymmetry: {x,y} = -(-1)^{(|x|-1)(|y|-1)} {y,x}
    lhs = gerstenhaber_bracket(inst, a, b)
    rhs = gerstenhaber_bracket(inst, b, a).scale(
        QQ.of(-((-1) ** ((a.degree() - 1) * (b.degree() - 1)))))
    assert (lhs - rhs).is_zero()
    # extended: the bracket representative is exactly +-d(a u2 b)
    assert bracket_vanishing_witness(inst, a, b).is_zero()


def test_bracket_representative_independence():
    # f(a u2 b) depends only on classes for morphisms killing u1 and
    # coboundaries; here: changing a by a coboundary changes the bracket
    # representative by a coboundary (checked by exactness of the change)
    rng = random.Random(64)
    inst = boundary_delta3_instance(QQ)
    A = inst.dga
    X = A.X
    sampler = cochain_sampler(A, rng, degree_pool=(2,), count=1)
    (a, ) = sampler(1)[0]
    (b, ) = sampler(1)[0]
    csampler = cochain_sampler(A, rng, degree_pool=(1,), count=1)
    (c, ) = csampler(1)[0]
    a2 = a + inst.d(c)
    diff = gerstenhaber_bracket(inst, a, b) - gerstenhaber_bracket(inst, a2, b)
    # the difference must be a coboundary: it suffices that it vanishes on
    # the fundamental 2-cycle of the sphere (H^2 is one-dimensional)
    fundamental = GradedElement(QQ)
    Xc = X
    for x in Xc.nondegenerate(2):
        # orientation: sign of the missing vertex position
        missing = [v for v in range(4) if v not in x][0]
        fundamental.add_in(Xc.chain(2, x), QQ.of((-1) ** missing))
    assert Xc.boundary(fundamental).is_zero()
    assert A.functional(diff).eval_chain(fundamental) == QQ.zero


def test_bar_e_twisting_and_product():
    # basis-world hga on C*(K(Z2,2)) over F2; keys kept small enough that
    # every vectorization stays within the truncation
    G = b_cyclic(F2, 2)
    K = wbar(G)
    A = DualCochainDga(K, 5)
    hga = VectorHga(A)
    barA = BarDgc(A)
    t = bar_e_cochain(hga, barA)
    src = t.C
    keys = []
    for d in range(0, 4):
        keys.extend(src.basis(d))
    t.check(keys).raise_on_failure()
    mu = bar_product_map(barA)
    check_dgc_map(mu, src, barA, keys[:25]).raise_on_failure()
    # associativity on words of low degree
    words = [w for d in range(0, 3) for w in barA.basis(d)]
    for w1 in words:
        for w2 in words[:2]:
            for w3 in words[:2]:
                e1, e2, e3 = (GradedElement.single(F2, w) for w in (w1, w2, w3))
                lhs = bar_product(barA, bar_product(barA, e1, e2), e3, mu=mu)
                rhs = bar_product(barA, e1, bar_product(barA, e2, e3), mu=mu)
                assert lhs == rhs


def test_bar_e_twisting_odd_entries():
    # odd-degree entries over an odd-characteristic field exercise the
    # sign conventions; B Z_2 is reduced but not 1-reduced, so the words
    # are built by hand (entries in every positive degree)
    G = ConstantGroup(F5, (2,))
    X = wbar(G)
    A = DualCochainDga(X, 10)
    hga = VectorHga(A)
    barA = BarDgc(A)
    t = bar_e_cochain(hga, barA)
    cell = {d: A.basis(d)[0] for d in range(0, 5)}
    words = [BarWord(()), BarWord((cell[1],)), BarWord((cell[2],)),
             BarWord((cell[1], cell[2])), BarWord((cell[3],)),
             BarWord((cell[1], cell[1])), BarWord((cell[2], cell[2])),
             BarWord((cell[1], cell[2], cell[1]))]
    keys = [Tensor((w1, w2)) for w1 in words for w2 in words
            if w1.internal_degree + w2.internal_degree <= 8]
    t.check(keys).raise_on_failure()


def test_bar_product_length_one_expansion():
    # [a] o [b] = [a|b] +- [b|a] +- [E1(a;b)]
    G = b_cyclic(F2, 2)
    K = wbar(G)
    A = DualCochainDga(K, 5)
    barA = BarDgc(A)
    a = A.basis(2)[0]
    words = bar_product(barA,
                        GradedElement.single(F2, BarWord((a,))),
                        GradedElement.single(F2, BarWord((a,))))
    # over F2: [a|a] + [a|a] = 0, leaving [E1(a;a)]
    e1 = VectorHga(A).E(1, A.element(a), [A.element(a)])
    expected = GradedElement(F2)
    for k, c in e1.terms.items():
        expected.add_in(GradedElement.single(F2, BarWord((k,))), c)
    assert words == expected


def test_trivial_hga_bar_product_is_shuffle():
    A = polynomial_dga(QQ, [("x", 2)])
    barA = BarDgc(A)
    mu = bar_product_map(barA)
    sh, _, src = bar_shuffle(barA, barA)
    # For a commutative dga, mu_B = B(mu) o shuffle
    x = A.monomial([("x", 1)])
    w1 = BarWord((x,))
    w2 = BarWord((x, x))
    lhs = mu(Tensor((w1, w2)))
    # shuffle of [x] and [x|x] in B(A (x) A) then multiply entries
    moved = sh(Tensor((w1, w2)))
    folded = GradedElement(QQ)
    for w, c in moved.terms.items():
        entries = []
        for e in w.entries:
            ka, kb = e.parts
            prod = A.mul_keys(ka, kb)
            ((kk, cc),) = prod.terms.items()
            entries.append(kk)
            c = QQ.mul(c, cc)
        folded.add_in(GradedElement.single(QQ, BarWord(tuple(entries))), c)
    assert lhs == folded


def ks_axiom_triples(ks, keys, triples=()):
    """Triples of `ks.element`s for `Dga.check_axioms`: each key against
    each of the first quarter of the keys, with the unit third (the unit
    laws on every key and the derivation property on those pairs), then
    the given triples of keys."""
    el = ks.element
    return ([(el(k1), el(k2), ks.one()) for k1 in keys
             for k2 in keys[:max(1, len(keys) // 4)]]
            + [tuple(map(el, t)) for t in triples])


def test_ks_algebra_derivation_and_associativity():
    # rich instance: C*(B Z_2; F_2) has one cell per degree, so arbitrary
    # degrees stay cheap; words are built by hand (the space is not
    # 1-reduced, which only affects basis enumeration)
    rng = random.Random(65)
    G = ConstantGroup(F2, (2,))
    X = wbar(G)
    A = DualCochainDga(X, 12)
    osb = OneSidedBar(A, A, f=lambda x: x)
    ks = KSAlgebra(osb)
    cell = {d: A.basis(d)[0] for d in range(0, 6)}
    keys = [osb.key(BarWord(()), cell[0]),
            osb.key(BarWord(()), cell[2]),
            osb.key(BarWord((cell[1],)), cell[0]),
            osb.key(BarWord((cell[2],)), cell[1]),
            osb.key(BarWord((cell[1], cell[2])), cell[0]),
            osb.key(BarWord((cell[1],)), cell[3])]
    triples = [tuple(rng.choice(keys) for _ in range(3)) for _ in range(6)]
    ks.check_axioms(ks_axiom_triples(ks, keys, triples)).raise_on_failure()


def test_ks_algebra_on_k_z2_2_smoke():
    G = b_cyclic(F2, 2)
    K = wbar(G)
    A = DualCochainDga(K, 5)
    osb = OneSidedBar(A, A, f=lambda x: x)
    ks = KSAlgebra(osb)
    keys = [k for k in osb.basis_total(2)]
    ks.check_axioms(ks_axiom_triples(ks, keys)).raise_on_failure()


def test_ks_componentwise_term():
    # unit coefficient case: for degree-0 coefficients the product reduces
    # to the componentwise one
    G = b_cyclic(F2, 2)
    K = wbar(G)
    A = DualCochainDga(K, 4)
    osb = OneSidedBar(A, A, f=lambda x: x)
    ks = KSAlgebra(osb)
    a2 = A.basis(2)[0]
    x = osb.key(BarWord(()), a2)
    y = osb.key(BarWord((a2,)), A.unit_key)
    # (1 (x) a) o (w (x) 1): only the m = l term survives with a of even deg
    out = ks.mul_keys(x, y)
    assert not out.is_zero()


def _ks_catalog_triples():
    """The KS algebra of the one-sided bar of SU(3)/T and U(3)/U(1)^3 over
    Q and F5, with the triples of its keys of total degree <= 4 whose bar
    words have at most 6 letters in all.  Longer words make one triple
    cost minutes: ([c1|c1|c1|c1] (x) 1)^3 shuffles 12 letters."""
    out = {}
    for name in ("SU(3)/T", "U(3)/U(1)^3"):
        for field in (QQ, F5):
            A, B, f, _ = catalog_entry(field, name)
            _, osb, ks = tor_bar_algebra(A, B, f, 0, sample_products=False)
            keys = [k for n in range(5) for k in osb.basis_total(n)]
            out[f"{name} over {field}"] = (ks, [
                t for t in itertools.product(keys, repeat=3)
                if sum(k.parts[0].length for k in t) <= 6])
    return out


KS_TRIPLES = _ks_catalog_triples()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ks_associativity_on_random_catalog_triples(data):
    """`Dga.check_axioms` on one drawn triple: associativity, both unit
    laws, the derivation property and the augmentation of the KS
    product."""
    ks, triples = KS_TRIPLES[data.draw(st.sampled_from(sorted(KS_TRIPLES)))]
    triple = data.draw(st.sampled_from(triples))
    ks.check_axioms([tuple(map(ks.element, triple))]).raise_on_failure()


def _q_binomial_at_minus_one(n, k):
    """The Gaussian binomial [n choose k]_q at q = -1: zero when k and
    n - k are both odd, C(n // 2, k // 2) otherwise."""
    if k % 2 and (n - k) % 2:
        return 0
    return math.comb(n // 2, k // 2)


@pytest.mark.parametrize("field", [QQ, F5])
def test_ks_product_of_pure_c1_words(field):
    """On U(3)/U(1)^3 the KS product of [c1^a] (x) 1 and [c1^b] (x) 1 is
    the shuffle of the two words of odd letters: [n choose a]_{q=-1}
    times [c1^n] (x) 1, n = a + b, for 0 <= a, b <= 6."""
    A, B, f, _ = catalog_entry(field, "U(3)/U(1)^3")
    osb = OneSidedBar(A, B, f)
    ks = KSAlgebra(osb)
    c1 = A.monomial(["c1"])

    def key(n):
        return osb.key(osb.C.word([c1] * n), B.unit_key)

    for a in range(7):
        for b in range(7):
            expected = GradedElement(field)
            expected.add_in(GradedElement.single(field, key(a + b)),
                            field.of(_q_binomial_at_minus_one(a + b, a)))
            assert ks.mul_keys(key(a), key(b)) == expected, (a, b)
