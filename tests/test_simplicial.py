import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from torbar import classifying, graded, simplicial
from torbar.classifying import (CosetSpace, SubgroupInclusion, WBar, WTotal,
                                b_cyclic, quotient, torus_group, wbar)
from torbar.fields import QQ, F2, F5, PrimeField
from torbar.graded import (GradedElement, Tensor, parity_sign,
                           tensor_elements)
from torbar.hga import VectorHga, cup1, cup2
from torbar.linalg import StructuralError
from torbar.simplicial import (SimplexComplex, standard_simplex,
                               simplex_boundary, ProductSpace,
                               partial_diagonal, ChainsDgc, chain_shuffle,
                               Surjection, e_surjection,
                               f_surjection, AW, G12, G21, interval_cut,
                               Cochain, coboundary, cup, CochainHga,
                               ConstantGroup, chain_complex_homology,
                               cochain_complex_homology, DualCochainDga,
                               ConstantFreeAbelian, ProductGroup)
from test_dg import sampled_triples


def rand_cochain(space, q, rng):
    values = {}
    for x in space.nondegenerate(q):
        values[space.key(q, x)] = space.field.of(rng.randint(-3, 3))
    return Cochain(space, q, lambda k: values.get(k, space.field.zero))


def test_simplicial_identities_and_degeneracy():
    X = standard_simplex(QQ, 3)
    samples = [(p, x) for p in range(0, 3) for x in X.simplices(p)]
    X.check_simplicial_identities(samples)
    assert X.is_degenerate(1, (2, 2))
    assert not X.is_degenerate(1, (1, 2))


def test_boundary_squares_to_zero_and_sphere_homology():
    for field in (QQ, F5):
        X = simplex_boundary(field, 3)
        for p in range(1, 4):
            for x in X.nondegenerate(p):
                c = X.chain(p, x)
                assert X.boundary(X.boundary(c)).is_zero()
        res = chain_complex_homology(X, 2)
        assert res.dims == {0: 1, 1: 0, 2: 1}
        resc = cochain_complex_homology(X, 3)
        assert resc.dims[0] == 1 and resc.dims[1] == 0 and resc.dims[2] == 1


def _aw_by_deletion(key):
    """The AW diagonal sum_k sigma(0..k) (x) sigma(k..n), each face taken
    by deleting one vertex at a time: a reference that does not go
    through `interval_cut`."""
    X, n = key.space, key.degree
    out = GradedElement(X.field)
    for k in range(n + 1):
        front = _face_by_deletion(X, key.data, n, range(k + 1))
        back = _face_by_deletion(X, key.data, n, range(k, n + 1))
        out.add_in(tensor_elements(X.field, X.chain(k, front),
                                   X.chain(n - k, back)))
    return out


def test_partial_diagonal_cases():
    X = simplex_boundary(QQ, 3)
    key = X.key(2, (0, 1, 2))
    p0 = partial_diagonal(key, 0)
    (t, c), = p0.terms.items()
    assert t.parts[0].degree == 0 and t.parts[1] == key
    with pytest.raises(ValueError):
        partial_diagonal(key, 3)
    # the partial diagonals sum to the AW coproduct; coassociativity and
    # the counit law through the generic dgc checker
    total = _aw_by_deletion(key)
    assert len(total.terms) == 3
    assert sum((partial_diagonal(key, k) for k in range(3)),
               GradedElement(QQ)) == total
    C = ChainsDgc(X)
    assert C.basis(2) == [X.key(2, x) for x in X.nondegenerate(2)]
    C.check_axioms(C.basis(2)).raise_on_failure()
    assert C.coaug_key == X.key(0, (0,))
    assert C.counit_key(C.coaug_key) == QQ.one


def test_chain_shuffle_small_cases():
    X = standard_simplex(QQ, 2)
    Y = standard_simplex(QQ, 2)
    P = ProductSpace(X, Y)
    # 0 (x) 0: the product vertex
    s = chain_shuffle(X.key(0, (0,)), Y.key(0, (1,)), P)
    (k, c), = s.terms.items()
    assert k.degree == 0 and c == QQ.one
    # 1 (x) 1: the two signed 2-simplices
    s = chain_shuffle(X.key(1, (0, 1)), Y.key(1, (0, 1)), P)
    assert len(s.terms) == 2
    assert sorted(v for v in s.terms.values()) == [QQ.of(-1), QQ.of(1)]


def test_chain_shuffle_is_chain_map_and_commutative():
    rng = random.Random(41)
    X = standard_simplex(QQ, 3)
    Y = standard_simplex(QQ, 2)
    P = ProductSpace(X, Y)
    PYX = ProductSpace(Y, X)
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for _ in range(3):
            x = rng.choice(X.nondegenerate(p))
            y = rng.choice(Y.nondegenerate(q))
            xk, yk = X.key(p, x), Y.key(q, y)
            # chain map: d sh(x (x) y) = sh(dx (x) y) + (-1)^p sh(x (x) dy)
            lhs = P.boundary(chain_shuffle(xk, yk, P))
            rhs = GradedElement(QQ)
            for kf, cf in X.boundary_key(xk).terms.items():
                rhs.add_in(chain_shuffle(kf, yk, P), cf)
            sgn = QQ.of((-1) ** p)
            for kf, cf in Y.boundary_key(yk).terms.items():
                rhs.add_in(chain_shuffle(xk, kf, P), QQ.mul(sgn, cf))
            assert lhs == rhs
            # commutativity: tau_* sh_{X,Y} = sh_{Y,X} T
            swapped = GradedElement(QQ)
            for k, c in chain_shuffle(xk, yk, P).terms.items():
                xx, yy = k.data
                swapped.add_in(PYX.chain(k.degree, (yy, xx)), c)
            sign = QQ.of((-1) ** (p * q))
            assert swapped == chain_shuffle(yk, xk, PYX).scale(sign)


def test_chain_shuffle_associativity():
    X = standard_simplex(QQ, 1)
    P2 = ProductSpace(X, X)
    P3a = ProductSpace(P2, X)
    P3b = ProductSpace(X, P2)
    k1 = X.key(1, (0, 1))
    lhs = GradedElement(QQ)
    for k, c in chain_shuffle(k1, k1, P2).terms.items():
        lhs.add_in(chain_shuffle(k, k1, P3a), c)
    rhs = GradedElement(QQ)
    for k, c in chain_shuffle(k1, k1, P2).terms.items():
        rhs.add_in(chain_shuffle(k1, k, P3b), c)
    # compare after re-association of the product spaces
    flat_l = {}
    for k, c in lhs.terms.items():
        (xy, z) = k.data
        flat_l[(xy[0], xy[1], z)] = c
    flat_r = {}
    for k, c in rhs.terms.items():
        (x, yz) = k.data
        flat_r[(x, yz[0], yz[1])] = c
    assert flat_l == flat_r


def test_surjection_validation_and_enclaves():
    with pytest.raises(ValueError):
        Surjection((1, 1, 2))
    with pytest.raises(ValueError):
        Surjection((1, 3))
    u = Surjection((1, 2, 3, 2, 1, 4))
    assert u.has_enclave() and len(u.enclaves()) == 2
    assert not Surjection((2, 1, 2, 1)).has_enclave()
    # e_k for k >= 1 and f_kl for (k,l) != (1,1) have enclaves
    for k in range(1, 5):
        assert e_surjection(k).has_enclave()
    for k in range(1, 4):
        for l in range(1, 4):
            if (k, l) != (1, 1):
                assert f_surjection(k, l).has_enclave(), (k, l)
    assert not f_surjection(1, 1).has_enclave()
    assert f_surjection(1, 1).seq == (2, 1, 2, 1)
    assert e_surjection(2).seq == (1, 2, 1, 3, 1)
    assert G12.seq == (2, 3, 1, 3, 1, 2, 1)


def test_surjection_is_a_value():
    """Equal and hashed by its sequence, shown as the class writes it, and
    read-only: the cut memos are keyed by `seq`."""
    u = Surjection((1, 2))
    assert u == AW and hash(u) == hash(AW) and u is not AW
    assert u != Surjection((1, 2, 1)) and u != (1, 2)
    assert repr(AW) == "Surjection(1, 2)"
    with pytest.raises(AttributeError):
        AW.seq = (2, 1)
    assert AW.seq == (1, 2)


def test_interval_cut_aw_case():
    X = standard_simplex(QQ, 3)
    key = X.key(3, (0, 1, 2, 3))
    cuts = interval_cut(Surjection((1, 2)), key)
    assert len(cuts) == 4
    assert all(c == QQ.one for c, _ in cuts)
    total = GradedElement(QQ)
    for c, factors in cuts:
        total.add_in(GradedElement.single(QQ, Tensor(tuple(factors))), c)
    assert total == _aw_by_deletion(key)


def test_aw121_equals_sum_of_q_operations():
    # (1 (x) pi_*) AW_(1,2,1)(sigma) = sum (-1)^{(n-l)(l-k)+k} Q^n_{k,l}(sigma)
    # with pi the identity projection; pins the interval-cut signs.  On the
    # standard simplex a face is its own vertex tuple, so Q^n_{k,l}(sigma)
    # is (0..k, l..n) (x) (k..l)
    X = standard_simplex(QQ, 4)
    for n in (2, 3, 4):
        key = X.key(n, tuple(range(n + 1)))
        lhs = GradedElement(QQ)
        for c, factors in interval_cut(Surjection((1, 2, 1)), key):
            lhs.add_in(GradedElement.single(QQ, Tensor(tuple(factors))), c)
        rhs = GradedElement(QQ)
        for k in range(0, n + 1):
            for l in range(k + 1, n + 1):
                front = tuple(range(k + 1)) + tuple(range(l, n + 1))
                q = Tensor((X.key(n - l + k + 1, front),
                            X.key(l - k, tuple(range(k, l + 1)))))
                sign = QQ.of((-1) ** (((n - l) * (l - k) + k) % 2))
                rhs.add_in(GradedElement.single(QQ, q), sign)
        assert lhs == rhs, f"n = {n}"


def test_g12_first_factor_dimension():
    X = standard_simplex(QQ, 5)
    for n in (3, 4, 5):
        key = X.key(n, tuple(range(n + 1)))
        for c, factors in interval_cut(G12, key):
            assert factors[0].degree >= 3


def test_cochain_basics_and_cup():
    rng = random.Random(42)
    X = simplex_boundary(QQ, 3)
    a = rand_cochain(X, 1, rng)
    b = rand_cochain(X, 1, rng)
    ab = cup(a, b)
    assert ab.degree == 2
    # Leibniz
    lhs = coboundary(cup(a, b))
    rhs = cup(coboundary(a), b).add(cup(a, coboundary(b)).scale(QQ.of(-1)))
    for x in X.nondegenerate(2):
        pass  # degree-3 slice is empty on the boundary of the 3-simplex
    # test on the full simplex instead where degree 3 exists
    Y = standard_simplex(QQ, 3)
    a = rand_cochain(Y, 1, rng)
    b = rand_cochain(Y, 1, rng)
    lhs = coboundary(cup(a, b))
    rhs = cup(coboundary(a), b).add(cup(a, coboundary(b)).scale(QQ.of(-1)))
    for x in Y.nondegenerate(3):
        k = Y.key(3, x)
        assert lhs(k) == rhs(k)
    # associativity and unit
    from torbar.simplicial import unit_cochain
    one = unit_cochain(Y)
    c = rand_cochain(Y, 1, rng)
    for x in Y.nondegenerate(3):
        k = Y.key(3, x)
        assert cup(cup(a, b), c)(k) == cup(a, cup(b, c))(k)
    for x in Y.nondegenerate(1):
        k = Y.key(1, x)
        assert cup(a, one)(k) == a(k)
        assert cup(one, a)(k) == a(k)


def test_cup1_commutator_and_hirsch():
    rng = random.Random(43)
    X = standard_simplex(QQ, 4)
    H = CochainHga(X)
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        a = rand_cochain(X, p, rng)
        b = rand_cochain(X, q, rng)
        # d(a u1 b) + da u1 b + (-1)^p a u1 db = ab - (-1)^{pq} ba
        lhs = coboundary(cup1(H, a, b)) \
            .add(cup1(H, coboundary(a), b)) \
            .add(cup1(H, a, coboundary(b)).scale(QQ.of((-1) ** p)))
        rhs = cup(a, b).add(cup(b, a).scale(QQ.of(-((-1) ** (p * q)))))
        for x in X.nondegenerate(p + q):
            k = X.key(p + q, x)
            assert lhs(k) == rhs(k), (p, q)
    # Hirsch formula: ab u1 c = (-1)^p a(b u1 c) + (-1)^{qr} (a u1 c) b
    for p, q, r in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
        a, b, c = (rand_cochain(X, d, rng) for d in (p, q, r))
        lhs = cup1(H, cup(a, b), c)
        rhs = cup(a, cup1(H, b, c)).scale(QQ.of((-1) ** p)) \
            .add(cup(cup1(H, a, c), b).scale(QQ.of((-1) ** (q * r))))
        deg = p + q + r - 1
        for x in X.nondegenerate(deg):
            k = X.key(deg, x)
            assert lhs(k) == rhs(k), (p, q, r)


def test_ek_vanishing_on_degree_zero():
    rng = random.Random(44)
    X = standard_simplex(QQ, 3)
    H = CochainHga(X)
    a0 = rand_cochain(X, 0, rng)
    b = rand_cochain(X, 2, rng)
    out = H.E(1, a0, [b])
    for x in X.nondegenerate(1):
        assert out(X.key(1, x)) == QQ.zero
    out2 = H.E(1, b, [a0])
    for x in X.nondegenerate(1):
        assert out2(X.key(1, x)) == QQ.zero


def test_cup2_top_degree_identity():
    rng = random.Random(45)
    X = standard_simplex(QQ, 3)
    H = CochainHga(X)
    a = rand_cochain(X, 2, rng)
    b = rand_cochain(X, 2, rng)
    c2 = cup2(H, a, b)
    for x in X.nondegenerate(2):
        k = X.key(2, x)
        assert c2(k) == QQ.mul(a(k), b(k))


def test_dual_cochain_dga():
    rng = random.Random(47)
    X = simplex_boundary(QQ, 3)
    A = DualCochainDga(X, 6)
    # not reduced: the unit is the sum of the four vertex duals and there
    # is no basis-adapted unit key (bar constructions refuse such input)
    assert A.unit_key is None
    assert len(A.one().terms) == 4
    a = A.random_element(1, rng)
    assert A.mul(A.one(), a) == a
    assert A.mul(a, A.one()) == a
    assert A.aug(A.one()) == QQ.one
    # functional <-> vector roundtrip
    c = A.functional(a)
    assert A.vectorize(c) == a
    from torbar.bar import BarDgc
    with pytest.raises(ValueError):
        BarDgc(A)


# (space, truncation, degrees, reach): every sum of three degrees stays
# within the truncation, and some sampled product of two nonzero cochains
# must land in degree `reach` (the boundary of Delta^3 has no nonzero
# 4-cochain to multiply further).  On B(Z/2,2) the products come from the
# W-bar heads, so the products of three 2-cochains in degree 6 take well
# under a second; building the cup index of all 6-simplices took 11 s.
DGA_AXIOM_INSTANCES = {
    "Delta^4 over Q": (lambda: standard_simplex(QQ, 4), 6, (0, 1, 2), 6),
    "Delta^4 over F5": (lambda: standard_simplex(F5, 4), 6, (0, 1, 2), 6),
    "boundary of Delta^3 over F5": (lambda: simplex_boundary(F5, 3), 6,
                                    (0, 1, 2), 4),
    "B(Z/2,2) over F2": (lambda: wbar(b_cyclic(F2, 2)), 6, (0, 2), 6),
}


@pytest.mark.parametrize("name", sorted(DGA_AXIOM_INSTANCES))
def test_dual_cochain_dga_satisfies_dga_axioms(name):
    # d^2, Leibniz, associativity, unit and augmentation through the
    # generic Dga checker: the coboundary index against the cup product,
    # and the non-reduced unit on the boundary of Delta^3
    make, truncation, degrees, reach = DGA_AXIOM_INSTANCES[name]
    A = DualCochainDga(make(), truncation)
    reached = set()
    mul_keys = A.mul_keys

    def recording_mul_keys(k1, k2):
        reached.add(k1.degree + k2.degree)
        return mul_keys(k1, k2)

    A.mul_keys = recording_mul_keys
    A.check_axioms(sampled_triples(A, degrees, random.Random(48), 20)
                   ).raise_on_failure()
    assert reach in reached, sorted(reached)


def test_constant_group():
    G = ConstantGroup(QQ, (4,))
    samples = [(p, x, y, z) for p in (0, 1, 2)
               for x in G.simplices(p) for y in [(1,)] for z in [(3,)]]
    G.check_group(samples)
    assert G.loops() == [(0,)]  # only the (degenerate) trivial loop
    assert len(G.nondegenerate(0)) == 4
    assert len(G.nondegenerate(1)) == 0


def test_product_group_and_free_abelian_guard():
    """Z/4 x Z/3 is a simplicial group with componentwise inverses and
    the pair of basepoints; Z^2 is not enumerable, so listing its
    simplices raises."""
    G = ConstantGroup(QQ, (4,))
    assert G.basepoint() == (0,)
    P = ProductGroup(G, ConstantGroup(QQ, (3,)))
    P.check_group([(p, x, y, z) for p in (0, 1) for x in P.simplices(p)
                   for y in [((1,), (2,))] for z in [((3,), (1,))]])
    assert P.basepoint() == ((0,), (0,))
    with pytest.raises(NotImplementedError, match="not enumerable"):
        ConstantFreeAbelian(QQ, 2).simplices(0)


def test_check_group_names_the_failing_law():
    class WrongInverse(ConstantGroup):
        def inv(self, p, x):
            return x  # right only for elements of order at most 2

    G = WrongInverse(QQ, (4,))
    G.check_group([(1, (2,), (1,), (3,))])
    with pytest.raises(StructuralError,
                       match=r"inverse fails in degree 1 on sample "
                             r"\(\(1,\), \(1,\), \(3,\)\)"):
        G.check_group([(1, (1,), (1,), (3,))])


# -- memos of the simplicial hot path ------------------------------------------

def _reference_cup_index(A, degree):
    """The cup index from the AW diagonal by vertex deletion, with the
    Koszul pairing sign."""
    field = A.field
    out = {}
    for x in A.X.nondegenerate(degree):
        skey = A.X.key(degree, x)
        for t, c in _aw_by_deletion(skey).terms.items():
            front, back = t.parts
            sgn = field.neg(field.one) \
                if (back.degree % 2 and front.degree % 2) else field.one
            out.setdefault((front, back), GradedElement(field)).add_in(
                GradedElement.single(field, skey),
                field.mul(sgn, c))
    return out


def _even_subgroup(field):
    """The subgroup of B(Z/4) of even entries, a copy of B(Z/2)."""
    return SubgroupInclusion(b_cyclic(field, 4), lambda p, x: all(
        v % 2 == 0 for g in x for v in g))


def _z2_times_z3(field):
    return ProductGroup(ConstantGroup(field, (2,)), ConstantGroup(field, (3,)))


# Every product of two keys against the partial diagonals, on the two
# routes of `mul_keys`: the functional cup on Delta^5, and W-bar heads on
# B(Z/m,2) and B(Z/3), whose odd simplices pin the sign (-1)^{pq}, and on
# W-bar of the even subgroup of B(Z/4) (filtered fibres) and of
# Z/2 x Z/3 (product fibres).  B(Z/2,2) has 768 nondegenerate 5-simplices;
# degree 5 is checked over F2, the field of the cochain products the
# hga_ek benchmark takes there.
@pytest.mark.parametrize("field, top", [(QQ, 4), (F5, 4), (F2, 5)])
def test_cup_index_matches_partial_diagonal_reference(field, top):
    spaces = [(standard_simplex(field, 5), 5),
              (wbar(b_cyclic(field, 3 if field is F5 else 2)), top),
              (wbar(ConstantGroup(field, (3,))), top),
              (wbar(_even_subgroup(field)), 4),
              (wbar(_z2_times_z3(field)), 4)]
    for X, top_degree in spaces:
        assert hasattr(X, "heads") == isinstance(X, WBar)
        A = DualCochainDga(X, top_degree)
        for degree in range(top_degree + 1):
            reference = _reference_cup_index(A, degree)
            for p in range(degree + 1):
                for k1 in A.basis(p):
                    for k2 in A.basis(degree - p):
                        assert A.mul_keys(k1, k2) == reference.get(
                            (k1, k2), A.zero()), (X, k1, k2)


def _coboundary_rows_by_boundary_key(A, degree):
    """Face key -> {coface key: coefficient}, one `boundary_key` per
    nondegenerate (degree+1)-simplex, rows filled in slice order."""
    X, field = A.X, A.field
    sgn = parity_sign(field, degree + 1)
    rows = {}
    for x in X.nondegenerate(degree + 1):
        skey = X.key(degree + 1, x)
        for fk, c in X.boundary_key(skey).terms.items():
            rows.setdefault(fk, {})[skey] = field.mul(sgn, c)
    return rows


@pytest.mark.parametrize("X, top", [
    (wbar(b_cyclic(F2, 2)), 4),
    (wbar(b_cyclic(PrimeField(3), 3)), 3),
    (_even_subgroup(F2), 4),
    (wbar(_even_subgroup(F2)), 4),
    (wbar(ConstantGroup(QQ, (2,))), 5),
    (wbar(ConstantGroup(F2, (2,))), 5),
], ids=["B(Z/2,2)", "B(Z/3,2)", "even in B(Z/4)", "B(even in B(Z/4))",
        "RP^inf over Q", "RP^inf over F2"])
def test_coboundary_index_matches_functional_coboundary(X, top):
    # odd and even degrees over F3 pin the sign (-1)^{|a|+1}; B(Z/3,2)
    # stops at degree 3, since its 5-slice has 59,049 simplices.  On
    # RP^inf faces coincide: see the test below.  The term order of each
    # row is pinned too, since elimination picks pivots by first sight.
    A = DualCochainDga(X, top)
    for degree in range(top + 1):
        rows = _coboundary_rows_by_boundary_key(A, degree)
        for k in A.basis(degree):
            got = A.diff_key(k)
            assert got == A.vectorize(coboundary(A.functional(
                GradedElement.single(A.field, k)))), k
            assert list(got.terms.items()) == list(rows.get(k, {}).items())


@pytest.mark.parametrize("field, expected", [(QQ, 2), (F2, 0)], ids=str)
def test_coboundary_index_adds_coinciding_faces(field, expected):
    # in RP^inf = W-bar(Z/2) the 2-simplex ((1,), (1,)) has d_0 = d_2 =
    # ((1,),) and d_1 = ((0,),), degenerate: its two faces add to 2 over
    # Q and cancel over F2
    X = wbar(ConstantGroup(field, (2,)))
    A = DualCochainDga(X, 2)
    sigma = X.key(2, ((1,), (1,)))
    row = A.diff_key(X.key(1, ((1,),)))
    assert row.coeff(sigma) == expected
    assert (sigma in row.terms) == (expected != 0)


def _last_face_fibres_by_search(X, p, q):
    """y -> the (p+q)-simplices of X whose q-fold last face is y, in the
    order of `X.simplices(p + q)`."""
    out = {}
    for x in X.simplices(p + q):
        face = x
        for n in range(p + q, p, -1):
            face = X.face(n, n, face)
        out.setdefault(face, []).append(x)
    return out


@pytest.mark.parametrize("field, m", [(F2, 2), (PrimeField(3), 3)], ids=str)
def test_last_face_fibres_match_search(field, m):
    G = b_cyclic(field, m)
    K = _even_subgroup(field)
    P = _z2_times_z3(field)
    # a product of two groups whose fibres have more than one simplex
    # pins the order of the product fibre
    GH = ProductGroup(G, b_cyclic(field, 3))
    for X in (G.G, G, wbar(G), K, wbar(K), P, wbar(P), GH):
        for p in range(5):
            for q in range(5 - p):
                search = _last_face_fibres_by_search(X, p, q)
                for y in X.simplices(p):
                    assert list(X.last_face_fibre(p, q, y)) == \
                        search.get(y, []), (X, p, q, y)


def test_triple_cup_product_on_k_z2_2_builds_no_cup_index():
    # B(Z/2,2) has 27,449 nondegenerate 6-simplices; the heads list the
    # simplices of each product without enumerating that slice
    A = DualCochainDga(wbar(b_cyclic(F2, 2)), 6)
    x = A.element(A.basis(2)[0])
    assert len(A.mul(A.mul(x, x), x).terms) == 4096
    assert 6 not in A.X._nondeg_cache


def _plain(cuts):
    """Interval cuts with keys replaced by (degree, data)."""
    return [(c, tuple((k.degree, k.data) for k in factors))
            for c, factors in cuts]


def test_interval_cut_same_on_miss_hit_and_twin():
    for make in (lambda: standard_simplex(QQ, 5),
                 lambda: wbar(b_cyclic(F2, 2))):
        # X serves every surjection, each twin only one, so a memo that
        # mixed up surjections would show
        X = make()
        for u in (e_surjection(1), e_surjection(2), f_surjection(1, 1), G12):
            twin = make()
            for n in range(6):
                for x in X.nondegenerate(n)[::11]:
                    miss = interval_cut(u, X.key(n, x))
                    hit = interval_cut(u, X.key(n, x))
                    fresh = interval_cut(u, twin.key(n, x))
                    assert hit is miss
                    assert isinstance(miss, tuple)
                    assert all(isinstance(fs, tuple) for _, fs in miss)
                    assert _plain(miss) == _plain(fresh), (u, n, x)
                    assert all(k.space is twin for _, fs in fresh for k in fs)


@pytest.mark.parametrize("u", [
    AW, e_surjection(1), e_surjection(2), e_surjection(3), f_surjection(1, 1),
    f_surjection(1, 2), f_surjection(2, 1), f_surjection(2, 2), G12, G21,
    Surjection((1, 2, 3))], ids=repr)
def test_cut_shapes_are_the_valid_cuts_by_dims(u):
    """`_cut_shapes` generates exactly the cut point tuples whose factors'
    vertex lists strictly increase, grouped by factor dimensions in order
    of first appearance, each group in the lexicographic order of the cut
    points.  f_11 is (2, 1, 2, 1)."""
    m = len(u.seq)
    for n in range(8):
        groups = {}
        for cuts in combinations_with_replacement(range(n + 1), m - 1):
            qs = (0,) + cuts + (n,)
            verts = [[] for _ in range(u.arity)]
            for t, v in enumerate(u.seq):
                verts[v - 1].extend(range(qs[t], qs[t + 1] + 1))
            if all(a < b for vs in verts for a, b in zip(vs, vs[1:])):
                groups.setdefault(tuple(len(vs) - 1 for vs in verts),
                                  []).append(tuple(map(tuple, verts)))
        got = simplicial._cut_shapes(u.seq, n)
        assert list(got) == list(groups), (u, n)
        assert {dims: [shape for _, shape in terms]
                for dims, terms in got.items()} == groups, (u, n)


def _compositions(total, parts, top):
    """The tuples of `parts` integers in 0..top that sum to `total`."""
    if parts == 1:
        return [(total,)] if 0 <= total <= top else []
    return [(d,) + rest for d in range(min(total, top) + 1)
            for rest in _compositions(total - d, parts - 1, top)]


@pytest.mark.parametrize("u", [
    AW, e_surjection(1), e_surjection(2), e_surjection(3), f_surjection(1, 2),
    f_surjection(2, 1), f_surjection(2, 2), G12, G21], ids=repr)
def test_interval_cut_with_dims_is_the_full_cut_restricted(u):
    """The cut with factor dimensions `dims` is the subsequence of the full
    cut whose factors have those dimensions, on a memo miss and a hit;
    every shape's dimensions sum to n + |u|, so the compositions of that
    sum cover every dims some shape has, and others too."""
    X = wbar(b_cyclic(F2, 2))
    for n in range(6):
        for x in X.nondegenerate(n):
            key = X.key(n, x)
            cuts = {}
            for dims in _compositions(n + u.degree, u.arity, n):
                miss = interval_cut(u, key, dims)
                assert interval_cut(u, key, dims) is miss
                cuts[dims] = miss
            full = interval_cut(u, key)
            for dims, cut in cuts.items():
                assert cut == tuple(
                    (c, fs) for c, fs in full
                    if tuple(f.degree for f in fs) == dims), (n, x, dims)
            assert sum(len(cut) for cut in cuts.values()) == len(full)
            assert interval_cut(u, key, (n + 1,) + (0,) * (u.arity - 1)) \
                == ()


def _boundary_by_definition(X, p, x):
    """sum_i (-1)^i chain(d_i x) as {(p - 1, face): coeff}, a face counted
    when no s_k d_k of it gives it back."""
    out = {}
    for i in range(p + 1):
        f = X.face(p, i, x)
        if any(X.degeneracy(p - 2, k, X.face(p - 1, k, f)) == f
               for k in range(p - 1)):
            continue
        c = out.get((p - 1, f), 0) + (-1) ** i
        if c:
            out[(p - 1, f)] = c
        else:
            del out[(p - 1, f)]
    return out


def test_boundary_key_matches_definition():
    """On spaces where faces of one simplex coincide, so that their terms
    add up (coefficient +-2) or cancel."""
    merged = set()
    for X, top in ((wbar(b_cyclic(QQ, 2)), 5),
                   (quotient(b_cyclic(QQ, 4), _even_subgroup(QQ)), 4)):
        for p in range(1, top + 1):
            for x in X.nondegenerate(p):
                got = {(k.degree, k.data): c
                       for k, c in X.boundary_key(X.key(p, x)).terms.items()}
                expected = _boundary_by_definition(X, p, x)
                assert got == expected, (X, p, x)
                faces = [X.face(p, i, x) for i in range(p + 1)]
                if len(set(faces)) < len(faces):
                    merged.add((type(X).__name__,
                                any(abs(c) > 1 for c in got.values())))
    assert merged == {(name, adds) for name in ("WBar", "CosetSpace")
                      for adds in (False, True)}


# Every enumerable space of the suite, fresh, with its top degree
NONDEGENERATE_SPACES = {
    "B(Z/2,2)": lambda: (wbar(b_cyclic(F2, 2)), 4),
    "B(Z/3,2)": lambda: (wbar(b_cyclic(PrimeField(3), 3)), 3),
    "B(Z/3)": lambda: (wbar(ConstantGroup(QQ, (3,))), 4),
    "even in B(Z/4)": lambda: (_even_subgroup(F2), 4),
    "B(even in B(Z/4))": lambda: (wbar(_even_subgroup(F2)), 4),
    "Z/2 x Z/3": lambda: (_z2_times_z3(QQ), 4),
    "B(Z/4) / even": lambda: (
        quotient(b_cyclic(F2, 4), _even_subgroup(F2)), 4),
    "Delta^4": lambda: (standard_simplex(F2, 4), 4),
    "boundary of Delta^4": lambda: (simplex_boundary(F2, 4), 4),
    "Delta^2 x boundary of Delta^3": lambda: (ProductSpace(
        standard_simplex(F2, 2), simplex_boundary(F2, 3)), 4),
}


@pytest.mark.parametrize("name", sorted(NONDEGENERATE_SPACES))
def test_nondegenerate_matches_degenerate_at(name):
    """The slice minus the degeneracies of the slice below is the slice
    filtered by `degenerate_at`, in order, and each answer is in the
    `is_degenerate` memo."""
    X, top = NONDEGENERATE_SPACES[name]()
    for p in range(top + 1):
        expected = [x for x in X.simplices(p)
                    if not any(X.degenerate_at(p, k, x) for k in range(p))]
        got = X.nondegenerate(p)
        assert got == expected, (name, p)
        kept = set(got)
        for x in X.simplices(p):
            assert X._degenerate_memo.get((p, x)) == (x not in kept)
            assert X.is_degenerate(p, x) == (x not in kept)


def test_memoized_is_degenerate_matches_definition():
    spaces = (wbar(b_cyclic(F2, 2)), WTotal(b_cyclic(F2, 2)),
              wbar(ConstantGroup(QQ, (3,))))
    for X in spaces:
        for p in range(5):
            for x in X.simplices(p):
                expected = any(X.degeneracy(p - 1, i, X.face(p, i, x)) == x
                               for i in range(p))
                assert X.is_degenerate(p, x) == expected  # miss
                assert X.is_degenerate(p, x) == expected  # hit


def _memo_run():
    """Cup products, E_1 and interval cuts on a fresh B(Z/2,2), with keys
    replaced by their data so that runs on different spaces compare."""
    A = DualCochainDga(wbar(b_cyclic(F2, 2)), 4)
    X = A.X
    memos = (X._degenerate_memo, X._key_memo, X._cut_memo, X.G._face_memo,
             X.G._products)
    out = []

    def record(value):
        assert all(len(m) <= graded.CAP for m in memos)
        out.append(value)

    for d in range(5):
        record(sorted(((k1.data, k2.data), sorted(
            (k.data, c) for k, c in A.mul_keys(k1, k2).terms.items()))
            for p in range(d + 1)
            for k1 in A.basis(p) for k2 in A.basis(d - p)))
    a = [GradedElement.single(F2, k) for k in A.basis(2)]
    H = VectorHga(A)
    for b in A.basis(2):
        e1 = H.E(1, a[0], [GradedElement.single(F2, b)])
        record(sorted((k.data, c) for k, c in e1.terms.items()))
    for n in range(5):
        for x in X.simplices(n):
            record(X.is_degenerate(n, x))
            record(_plain(interval_cut(e_surjection(2), X.key(n, x))))
    return out, [len(m) for m in memos]


def test_memos_stay_within_small_caps(monkeypatch):
    expected, sizes = _memo_run()
    assert min(sizes) > 8
    monkeypatch.setattr(graded, "CAP", 8)
    got, sizes = _memo_run()
    assert got == expected
    assert max(sizes) <= 8


def test_warm_wbar_group_faces_match_the_formula():
    G = b_cyclic(F2, 2)
    cases = [(p, k, x) for p in range(1, 6) for x in G.simplices(p)
             for k in range(p + 1)]
    for p, k, x in cases:
        G.face(p, k, x)
    assert 8 < len(G._face_memo) <= graded.CAP
    for p, k, x in cases:
        assert G.face(p, k, x) == WBar.face(G, p, k, x), (p, k, x)


def test_warm_wbar_group_products_match_the_formula():
    """Products read from a warm table and from an emptied one are the
    entrywise products: every pair up to dimension 4 on B(Z/2), and
    sampled pairs on B(Z^2)."""
    rng = random.Random(33)

    def torus_simplex(p):
        return tuple((rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(p))

    B, T = b_cyclic(F2, 2), torus_group(QQ, 2)
    cases = [
        (B, [(p, x, y) for p in range(5) for x in B.simplices(p)
             for y in B.simplices(p)]),
        (T, [(p, torus_simplex(p), torus_simplex(p)) for p in range(6)
             for _ in range(40)]),
    ]
    for G, pairs in cases:
        for p, x, y in pairs:
            G.mul(p, x, y)
        assert 8 < len(G._products) <= graded.CAP
        for emptied in (False, True):
            if emptied:
                G._products.clear()
            for p, x, y in pairs:
                assert G.mul(p, x, y) == tuple(
                    G.G.mul(p - 1 - m, x[m], y[m]) for m in range(p)), (p, x, y)


def test_warm_wbar_group_identity_matches_the_formula():
    # B(B(Z/2)) takes its entries from the identities B(Z/2) keeps
    for G in (b_cyclic(F2, 2), classifying.wbar_group(b_cyclic(F2, 2))):
        for p in (3, 0, 6, 3):
            G.one(p)
        assert sorted(G._ones) == [0, 3, 6]
        for p in range(7):
            fresh = tuple(G.G.one(p - 1 - m) for m in range(p))
            assert G.one(p) == fresh and G.one(p) is G.one(p)
        assert sorted(G._ones) == list(range(7))


def _simplices_of(space, p):
    """A hypothesis strategy for the p-simplices of a simplex or its
    boundary, a constant group, a product, a W-bar space or its total
    space, or of an enumerable subgroup or coset space."""
    if isinstance(space, SimplexComplex):
        return st.lists(st.integers(0, space.n), min_size=p + 1,
                        max_size=p + 1).map(lambda vs: tuple(sorted(vs))) \
            .filter(lambda vs: not space.boundary_only
                    or len(set(vs)) <= space.n)
    if isinstance(space, ConstantFreeAbelian):
        return st.tuples(*(st.integers(-3, 3) for _ in space.moduli))
    if isinstance(space, ConstantGroup):
        return st.tuples(*(st.integers(0, m - 1) for m in space.moduli))
    if isinstance(space, ProductSpace):
        return st.tuples(_simplices_of(space.X, p), _simplices_of(space.Y, p))
    if isinstance(space, (SubgroupInclusion, CosetSpace)):
        return st.sampled_from(list(space.simplices(p)))
    if isinstance(space, WTotal):
        return _simplices_of(space.base, p + 1)
    if isinstance(space, WBar):
        return st.tuples(*(_simplices_of(space.G, p - 1 - m)
                           for m in range(p)))
    raise TypeError(space)


PROPERTY_SPACES = {
    "B(Z/2,2)": wbar(b_cyclic(F2, 2)),
    "B(Z/3)": wbar(ConstantGroup(QQ, (3,))),
    "B(Z/2 x Z/3)": wbar(ProductGroup(ConstantGroup(QQ, (2,)),
                                       ConstantGroup(QQ, (3,)))),
    "B(BZ^2)": wbar(torus_group(QQ, 2)),
    "E(Z/2)": WTotal(ConstantGroup(F2, (2,))),
    "E(BZ/2)": WTotal(b_cyclic(F2, 2)),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wbar_wtotal_simplicial_identities_property(data):
    X = PROPERTY_SPACES[data.draw(st.sampled_from(sorted(PROPERTY_SPACES)))]
    p = data.draw(st.integers(0, 4))
    x = data.draw(_simplices_of(X, p))
    assert X.check_simplicial_identities([(p, x)])
    # face and degeneracy are pure functions of (p, data), which is what
    # makes the memos sound
    for i in range(p + 1):
        if p:
            assert X.face(p, i, x) == X.face(p, i, x)
        assert X.degeneracy(p, i, x) == X.degeneracy(p, i, x)
        assert X.is_degenerate(p + 1, X.degeneracy(p, i, x))
    expected = any(X.degeneracy(p - 1, i, X.face(p, i, x)) == x
                   for i in range(p))
    assert X.is_degenerate(p, x) == expected


# The structure maps of EG on pairs (g_p, [g_{p-1}, ..., g_0]), written out
# from the face formula of W-bar: a reference for the flat `WTotal`, which
# must agree with them under (g, bg) <-> (g,) + bg.
def _pair(x):
    return x[0], x[1:]


def _pair_face(E, p, k, data):
    g, bg = data
    G = E.G
    if k == 0:
        return (G.mul(p - 1, G.face(p, 0, g), bg[0]), bg[1:])
    return (G.face(p, k, g), E.base.face(p, k, bg))


def _pair_degeneracy(E, p, k, data):
    g, bg = data
    return (E.G.degeneracy(p, k, g), E.base.degeneracy(p, k, bg))


def _pair_degenerate_at(E, p, k, data):
    g, bg = data
    return E.G.degenerate_at(p, k, g) and E.base.degenerate_at(p, k, bg)


DECALAGE_SPACES = {
    "E(Z/2)": WTotal(ConstantGroup(F2, (2,))),
    "E(BZ/2)": WTotal(b_cyclic(F2, 2)),
    "E(BZ^2)": WTotal(torus_group(QQ, 2)),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_total_space_is_the_decalage_of_wbar_property(data):
    E = DECALAGE_SPACES[data.draw(st.sampled_from(sorted(DECALAGE_SPACES)))]
    p = data.draw(st.integers(0, 4))
    x = data.draw(_simplices_of(E, p))
    g, bg = _pair(x)
    for k in range(p + 1):
        if p:
            assert _pair(E.face(p, k, x)) == _pair_face(E, p, k, (g, bg))
        assert _pair(E.degeneracy(p, k, x)) == \
            _pair_degeneracy(E, p, k, (g, bg))
    for k in range(p):
        assert E.degenerate_at(p, k, x) == \
            _pair_degenerate_at(E, p, k, (g, bg))
    assert E.projection(p, x) == bg
    h = data.draw(_simplices_of(E.G, p))
    assert _pair(E.action(p, h, x)) == (E.G.mul(p, h, g), bg)
    assert _pair(E.s_data(p, x)) == (E.G.one(p + 1), (g,) + bg)
    # the coproduct of C(EG) is the AW diagonal by vertex deletion
    key = E.key(p, x)
    cop = GradedElement(E.field)
    for c, a, b in ChainsDgc(E).cop_key(key):
        cop.add_in(GradedElement.single(E.field, Tensor((a, b))), c)
    assert cop == _aw_by_deletion(key)


# The spaces whose `degenerate_at` reads the data (W-bar, total spaces,
# simplices, constant and product groups, subgroups), and a coset space,
# which keeps the generic test
DEGENERATE_AT_SPACES = {
    **PROPERTY_SPACES,
    "Delta^4": standard_simplex(F2, 4),
    "boundary of Delta^4": simplex_boundary(F2, 4),
    "even in B(Z/4)": _even_subgroup(F2),
    "B(Z/4) / even": quotient(b_cyclic(F2, 4), _even_subgroup(F2)),
    "Delta^2 x boundary of Delta^3": ProductSpace(
        standard_simplex(F2, 2), simplex_boundary(F2, 3)),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degenerate_at_matches_definition_property(data):
    X = DEGENERATE_AT_SPACES[data.draw(
        st.sampled_from(sorted(DEGENERATE_AT_SPACES)))]
    p = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, p - 1))
    # a drawn simplex, and s_j of a drawn (p-1)-simplex, so that both
    # answers occur for every k
    j = data.draw(st.integers(0, p - 1))
    sy = X.degeneracy(p - 1, j, data.draw(_simplices_of(X, p - 1)))
    assert X.degenerate_at(p, j, sy)
    for x in (data.draw(_simplices_of(X, p)), sy):
        # x is s_k of a (p-1)-simplex iff x = s_k d_k x
        expected = X.degeneracy(p - 1, k, X.face(p, k, x)) == x
        assert X.degenerate_at(p, k, x) == expected, (p, k, x)


def _face_by_deletion(X, data, p, vertices):
    """The face spanned by `vertices`, one vertex deleted at a time from
    the highest down: the reference for faces taken through a table."""
    out = data
    dim = p
    for i in range(p, -1, -1):
        if i not in vertices:
            out = X.face(dim, i, out)
            dim -= 1
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_faces_through_one_table_match_deletion_property(data):
    X = PROPERTY_SPACES[data.draw(st.sampled_from(sorted(PROPERTY_SPACES)))]
    p = data.draw(st.integers(0, 5))
    x = data.draw(_simplices_of(X, p))
    vertex_sets = st.sets(st.integers(0, p), min_size=1)
    vertex_tuples = data.draw(st.lists(
        vertex_sets.map(lambda vs: tuple(sorted(vs))), min_size=1, max_size=8))
    table = {}
    for vs in vertex_tuples:
        expected = _face_by_deletion(X, x, p, vs)
        assert X.face_by_vertices_data(x, p, vs, table) == expected
        assert X.face_by_vertices_data(x, p, vs) == expected
    # every face the table keeps is the face of its own vertex tuple
    assert all(face == _face_by_deletion(X, x, p, vs)
               for vs, face in table.items())
