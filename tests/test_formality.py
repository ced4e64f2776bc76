import gc
import random
import weakref

import pytest

from torbar.fields import QQ, F2, F5
from torbar.graded import GradedElement
from torbar.simplicial import cup, coboundary
from torbar.formality import TorusFormality, KoszulComplex, formality_report
from torbar.linalg import StructuralError
from torbar.dg import check_d_squared


def koszul_keys(K, bound):
    return [k for d in range(bound + 1) for k in K.basis(d)]


def test_koszul_complex():
    K = KoszulComplex(QQ, 2)
    check_d_squared(K, koszul_keys(K, 8), "koszul d2")
    # rank-1 Koszul complex is acyclic in positive degrees
    K1 = KoszulComplex(QQ, 1)
    from torbar.linalg import homology
    basis = {d: K1.basis(d) for d in range(0, 9)}
    res = homology(basis, lambda k: K1.diff_key(k).terms, QQ, ddeg=-1)
    assert res.dims[0] == 1
    for d in range(1, 8):
        assert res.dims[d] == 0


def test_koszul_d_squared_reports_every_key():
    K = KoszulComplex(F5, 2)
    rep = check_d_squared(K, koszul_keys(K, 5), "koszul d2")
    assert rep.ok and rep.checked == sum(len(K.basis(d)) for d in range(6))
    # a differential with d^2 != 0 (the identity) is named at its first key
    K.diff_key = lambda key: GradedElement.single(F5, key)
    with pytest.raises(StructuralError,
                       match=r"koszul d2: first failure 1 \(x\) 1"):
        check_d_squared(K, koszul_keys(K, 5), "koszul d2")


def test_f_is_equivariant_dgc_chain_map_rank1():
    fo = TorusFormality(QQ, 1)
    fo.check_chain_map(8).raise_on_failure()
    fo.check_coalgebra_map(8).raise_on_failure()
    fo.check_s_identities(6).raise_on_failure()
    # recursion anchors: F(1) = e0, F(y) = S F(x . 1)
    e0 = fo.E.chain(0, fo.E.basepoint())
    assert fo.F_key(fo.K.coaug_key) == e0
    k_x = fo.K.key([0], (0,))
    k_y = fo.K.key([], (1,))
    assert fo.F_key(k_y) == fo.E.s_chain(fo.F_key(k_x))
    # F(x . 1) = c * e0: a single 1-simplex
    assert len(fo.F_key(k_x).terms) == 1


def test_torus_formality_is_freed_without_the_cycle_collector():
    """F and f keep their values in tables that hold the construction
    weakly, so after computing them it is freed on `del` with the cycle
    collector off."""
    gc.disable()
    try:
        fo = TorusFormality(QQ, 1)
        assert fo.check_chain_map(3).ok
        assert fo.check_transgression(1).ok
        ref = weakref.ref(fo)
        del fo
        assert ref() is None
    finally:
        gc.enable()


def test_f_rank2_with_equivariance():
    fo = TorusFormality(QQ, 2)
    fo.check_chain_map(6).raise_on_failure()
    fo.check_coalgebra_map(6).raise_on_failure()
    rep = fo.check_equivariance(6)
    assert rep.checked > 0
    rep.raise_on_failure()


def test_phi_and_transgression():
    rng = random.Random(80)
    for field, rank in [(QQ, 1), (QQ, 2), (F5, 2)]:
        fo = TorusFormality(field, rank)
        fo.check_phi(rng).raise_on_failure()
        fo.check_transgression(2).raise_on_failure()
        # pairing of the canonical cocycles with f(y_j) is the identity
        for i in range(rank):
            u = fo.canonical_cocycle(i)
            for j in range(rank):
                alpha = tuple(1 if m == j else 0 for m in range(rank))
                expected = field.one if i == j else field.zero
                assert u.eval_chain(fo.f(alpha)) == expected


def test_canonical_cocycles_are_cocycles():
    rng = random.Random(81)
    for rank in (1, 2):
        fo = TorusFormality(QQ, rank)
        for i in range(rank):
            u = fo.canonical_cocycle(i)
            du = coboundary(u)
            for _ in range(12):
                data = fo.random_simplex(3, rng)
                if data is not None:
                    assert du(fo.BT.key(3, data)) == QQ.zero


def test_f_star_multiplicative():
    rng = random.Random(82)
    fo = TorusFormality(QQ, 1)
    fo.check_f_star_multiplicative(rng, [(2, 2), (2, 4)],
                                   samples=4).raise_on_failure()
    fo5 = TorusFormality(F5, 2)
    fo5.check_f_star_multiplicative(rng, [(2, 2)], samples=3).raise_on_failure()


def test_vanishing_suite():
    fo = TorusFormality(QQ, 1)
    fo.verify_vanishing_suite(6).raise_on_failure()
    fo2 = TorusFormality(F5, 2)
    fo2.verify_vanishing_suite(4).raise_on_failure()


def _face(X, n, data, vertices):
    """The face of the n-simplex `data` on `vertices`, one vertex deleted
    at a time from the highest down."""
    for j in range(n, -1, -1):
        if j not in vertices:
            data = X.face(n, j, data)
            n -= 1
    return data


def test_q_check_is_the_projected_121_cut():
    """The suite's Q check, read off the (1, 2, 1) cut, fails on exactly
    the simplices where some Q^n_{k,l} is nonzero by its definition:
    sigma(0..k, l..n) nondegenerate in E and pi sigma(k..l) nondegenerate
    in BT.  The samples are F-image simplices, where Q vanishes, and
    random nondegenerate simplices of E, where it need not."""
    fo = TorusFormality(QQ, 2)
    E, BT = fo.E, fo.BT
    keys = fo.f_image_simplices(4)
    rng = random.Random(7)
    for n in range(1, 5):
        for _ in range(15):
            # an (n + 1)-simplex of BT is an n-simplex of E
            data = fo.random_simplex(n + 1, rng)
            if data is not None and not E.is_degenerate(n, data):
                keys.append(E.key(n, data))
    nonzero = set()
    for key in keys:
        n, x = key.degree, key.data
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                front = tuple(range(k + 1)) + tuple(range(l, n + 1))
                first = _face(E, n, x, front)
                second = E.projection(l - k, _face(E, n, x, range(k, l + 1)))
                if not (E.is_degenerate(n - l + k + 1, first)
                        or BT.is_degenerate(l - k, second)):
                    nonzero.add(key)
    fo.f_image_simplices = lambda bound, top_letter=False: (
        [] if top_letter else keys)
    rep = fo.verify_vanishing_suite(0)
    assert {w[1] for w in rep.failures} == nonzero
    assert rep.checked == len(keys) + 6 and nonzero


def test_fstar_kills_hga_operations():
    rng = random.Random(83)
    for field, rank, bound in [(QQ, 1, 6), (F2, 1, 5), (F5, 2, 4)]:
        fo = TorusFormality(field, rank)
        fo.check_fstar_kills_operations(rng, bound,
                                        samples=12).raise_on_failure()


def test_cup2_vanishing_symmetrized():
    rng = random.Random(84)
    for field in (QQ, F5):
        fo = TorusFormality(field, 1, symmetrize=True)
        fo.cup2_vanishing(rng, [(2, 2), (2, 4), (4, 4)],
                          samples=9).raise_on_failure()
    # symmetrization is refused over F_2
    with pytest.raises(ValueError):
        TorusFormality(F2, 1, symmetrize=True)


def test_sq0_witness_over_f2():
    fo = TorusFormality(F2, 1)
    w = fo.sq0_witness()
    assert w is not None
    a, val = w
    # [a] = Sq^0[a] = [a u2 a]: the class of a itself
    assert val == fo.f_star(a)
    assert not val.is_zero()


def test_symmetrized_representative_properties():
    fo = TorusFormality(QQ, 1, symmetrize=True)
    (c,) = fo.loops
    # iota_* c~ = -c~
    out = GradedElement(QQ)
    for k, coeff in c.terms.items():
        inv = fo.T.inv(1, k.data)
        out.add_in(fo.T.chain(1, inv), coeff)
    assert out == c.scale(QQ.of(-1))
    # still a cycle representing the generator
    assert fo.T.boundary(c).is_zero()


def test_kernel_ideal_suite():
    rng = random.Random(85)
    fo = TorusFormality(QQ, 1, symmetrize=True)
    fo.kernel_ideal_suite(rng, 6, samples=4).raise_on_failure()
    fo5 = TorusFormality(F5, 1, symmetrize=True)
    fo5.kernel_ideal_suite(rng, 4, samples=3).raise_on_failure()
    # the any-coefficient variant restricts item (6) to k >= 1
    fo2 = TorusFormality(F2, 1)
    fo2.kernel_ideal_suite(rng, 4, samples=3,
                           any_field_variant=True).raise_on_failure()


def test_naturality_of_operations_under_torus_inclusion():
    # kappa: T' -> T (rank 1 into rank 2, first coordinate); the pullback
    # commutes with the hga operations on sampled simplices, so it maps
    # kernel-ideal generators to kernel-ideal generators item by item
    rng = random.Random(86)
    fo1 = TorusFormality(QQ, 1)
    fo2 = TorusFormality(QQ, 2)

    def kappa_data(p, data):
        # BT' -> BT: pad each integer entry of each group element with 0
        def pad_elem(g, dim):
            # element of T'_dim: tuple of dim vectors
            return tuple(tuple(list(v) + [0]) for v in g)
        return tuple(pad_elem(data[m], p - 1 - m) for m in range(len(data)))

    def pullback(c):
        from torbar.simplicial import Cochain

        def fn(key):
            img = kappa_data(key.degree, key.data)
            if fo2.BT.is_degenerate(key.degree, img):
                return QQ.zero
            return c(fo2.BT.key(key.degree, img))

        return Cochain(fo1.BT, c.degree, fn)

    a = fo2.random_support_cochain(2, rng, support=10)
    b = fo2.random_support_cochain(1, rng, support=10)
    lhs = pullback(fo2.hga.E(1, a, [b]))
    rhs = fo1.hga.E(1, pullback(a), [pullback(b)])
    for _ in range(10):
        data = fo1.random_simplex(2, rng)
        if data is not None:
            k = fo1.BT.key(2, data)
            assert lhs(k) == rhs(k)
    # cup products pull back too
    lhs2 = pullback(cup(a, a))
    rhs2 = cup(pullback(a), pullback(a))
    for _ in range(8):
        data = fo1.random_simplex(4, rng)
        if data is not None:
            k = fo1.BT.key(4, data)
            assert lhs2(k) == rhs2(k)


@pytest.mark.parametrize("bound", [0, 1])
def test_formality_report_below_degree_two(bound):
    """Below bound 2 no E_k value (degree >= 1) has an even degree within
    the bound: the report draws no E_k sample and returns, every check ok."""
    _, reports = formality_report(QQ, 1, bound)
    assert all(r.ok for r in reports.values()), reports
