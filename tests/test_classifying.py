import random

import pytest

from torbar.fields import QQ, F2
from torbar.graded import GradedElement, Tensor
from torbar.simplicial import (partial_diagonal, chain_complex_homology,
                               loop_action_summand, loop_shuffle_action,
                               group_action_on_chains)
from torbar.classifying import (wbar, wbar_group, total_space, cyclic_group,
                                b_cyclic, torus_group, reduced_subgroup,
                                quotient, SubgroupInclusion)


def test_wbar_of_trivial_group_is_point():
    G = cyclic_group(QQ, 1)
    BG = wbar(G)
    for p in range(0, 4):
        assert len(BG.nondegenerate(p)) == (1 if p == 0 else 0)


def test_wbar_simplicial_identities_and_counts():
    G = cyclic_group(QQ, 2)
    BG = wbar_group(G)
    samples = [(p, x) for p in range(0, 4) for x in BG.simplices(p)]
    BG.check_simplicial_identities(samples)
    # total p-simplices: product of group orders 2^{p(p-1)/2}... for the
    # constant group Z_2 the entries have orders |G_j| = 2, so 2^p
    for p in range(0, 5):
        assert len(list(BG.simplices(p))) == 2 ** p
    # BG is reduced; as G is not reduced (4 vertices? no: constant group
    # has one simplex per element: G_0 = Z_2), BG_1 has 2 simplices
    assert len(BG.nondegenerate(0)) == 1
    # group structure on BG (abelian G)
    gsamples = []
    rng = random.Random(50)
    for p in (1, 2, 3):
        xs = list(BG.simplices(p))
        for _ in range(4):
            gsamples.append((p, rng.choice(xs), rng.choice(xs), rng.choice(xs)))
    BG.check_group(gsamples)


def test_bbz2_is_k_z2_2():
    # B(B Z_2) = K(Z_2, 2): 1-reduced with known homology over F_2
    G2 = b_cyclic(F2, 2)
    K = wbar(G2)
    assert len(K.nondegenerate(1)) == 0  # 1-reduced
    assert len(K.nondegenerate(2)) == 1
    res = chain_complex_homology(K, 4)
    # H_*(K(Z2,2); F2) = F2, 0, F2, F2, F2 in degrees 0..4
    assert [res.dims[d] for d in range(5)] == [1, 0, 1, 1, 1]


def test_rp_infty_homology():
    G = cyclic_group(F2, 2)
    BG = wbar(G)
    res = chain_complex_homology(BG, 5)
    assert all(res.dims[d] == 1 for d in range(6))


def test_total_space_identities_and_contractibility():
    G = cyclic_group(QQ, 2)
    E = total_space(G)
    BG = E.base
    samples = [(p, x) for p in range(0, 4) for x in E.simplices(p)]
    E.check_simplicial_identities(samples)
    keys = [E.key(p, x) for p in range(0, 3) for x in E.nondegenerate(p)]
    E.check_s_identities(keys).raise_on_failure()
    # pi S raises degree with identity first component
    for key in keys:
        s = E.s_data(key.degree, key.data)
        assert s[0] == G.one(key.degree + 1)
    res = chain_complex_homology(E, 3)
    assert res.dims[0] == 1 and res.dims[1] == 0 and res.dims[2] == 0
    # projection is simplicial
    for p in range(1, 4):
        for x in E.nondegenerate(p):
            for i in range(p + 1):
                lhs = E.projection(p - 1, E.face(p, i, x))
                rhs = BG.face(p, i, E.projection(p, x))
                assert lhs == rhs


def test_total_space_has_no_faces_in_dimension_zero():
    E = total_space(cyclic_group(F2, 2))
    for k in (0, 1):
        with pytest.raises(ValueError, match="no faces in dimension 0"):
            E.face(0, k, E.basepoint())


def test_diagonal_of_s_lemma():
    # Delta(Sc) = (S (x) 1) Delta c + e0 (x) Sc, exactly
    G = cyclic_group(QQ, 3)
    E = total_space(G)
    field = QQ
    e0 = E.key(0, E.basepoint())
    for p in range(0, 3):
        for x in E.nondegenerate(p):
            key = E.key(p, x)
            sc = E.s_chain(GradedElement.single(field, key))
            lhs = GradedElement(field)
            for k, c in sc.terms.items():
                for kk in range(k.degree + 1):
                    lhs.add_in(partial_diagonal(k, kk), c)
            rhs = GradedElement(field)
            for kk in range(p + 1):
                for t, c in partial_diagonal(key, kk).terms.items():
                    a, b = t.parts
                    sa = E.s_chain(GradedElement.single(field, a))
                    for ka, ca in sa.terms.items():
                        rhs.add_in(GradedElement.single(
                            field, Tensor((ka, b))), field.mul(c, ca))
            for k, c in sc.terms.items():
                rhs.add_in(GradedElement.single(field, Tensor((e0, k))), c)
            assert lhs == rhs, f"diagonal of S fails at {key!r}"


def test_loop_action_and_equivariance_lemma():
    # loops in B(Z): g with faces the identity vertex; the lemma
    # P^{n+1}_k(a^g_m sigma) splits at k <= m vs k > m
    field = QQ
    T = torus_group(field, 1)
    E = total_space(T)
    # the canonical loop: 1-simplex (m,) with m = 1 in B(Z)_1 = Z
    g = ((1,),)
    assert T.is_loop(g)
    rng = random.Random(51)

    def act(p, gsimp, x):
        return E.action(p, gsimp, x)

    e0 = E.basepoint()
    key0 = E.key(0, e0)
    # n = 0: g * e = the 1-simplex g . s_0 e
    out = loop_shuffle_action(T, E, act, g, key0)
    assert len(out.terms) == 1
    (k, c), = out.terms.items()
    assert c == field.one and k.degree == 1
    assert k.data == E.action(1, g, E.degeneracy(0, 0, e0))
    # sample 1- and 2-simplices of the lazy total space directly
    sample_keys = []
    for m in (1, 2, -1):
        data = (((m,),), ())
        if not E.is_degenerate(1, data):
            sample_keys.append(E.key(1, data))
    two = E.s_data(1, sample_keys[0].data)
    if not E.is_degenerate(2, two):
        sample_keys.append(E.key(2, two))
    # shuffle-based action agrees with the alternating-sum formula
    ge = T.chain(1, g)
    for key in sample_keys:
        lhs = group_action_on_chains(T, E, act, ge, GradedElement.single(field, key))
        rhs = loop_shuffle_action(T, E, act, g, key)
        assert lhs == rhs
    # equivariant partial diagonals (both cases of the lemma)
    for key in sample_keys:
        n = key.degree
        for m in range(n + 1):
            agm = loop_action_summand(T, E, act, g, m, key)
            for k in range(n + 2):
                lhs = GradedElement(field)
                for kk, cc in agm.terms.items():
                    lhs.add_in(partial_diagonal(kk, k), cc)
                rhs = GradedElement(field)
                if k <= m:
                    # (-1)^k (1 (x) a^g_{m-k}) P^n_k: the sign cancels the
                    # Koszul sign (-1)^{|front|} of the degree-one operator
                    for t, c in partial_diagonal(key, k).terms.items():
                        a, b = t.parts
                        acted = loop_action_summand(T, E, act, g, m - k, b)
                        for kb, cb in acted.terms.items():
                            rhs.add_in(GradedElement.single(
                                field, Tensor((a, kb))), field.mul(c, cb))
                else:
                    for t, c in partial_diagonal(key, k - 1).terms.items():
                        a, b = t.parts
                        acted = loop_action_summand(T, E, act, g, m, a)
                        for ka, ca in acted.terms.items():
                            rhs.add_in(GradedElement.single(
                                field, Tensor((ka, b))), field.mul(c, ca))
                assert lhs == rhs, (key, m, k)


def test_reduced_subgroup():
    G = b_cyclic(QQ, 2)
    R = reduced_subgroup(G)
    # B(Z_2) is already reduced: same simplices
    for p in range(0, 3):
        assert sorted(map(repr, R.simplices(p))) == \
            sorted(map(repr, G.simplices(p)))
    # a constant group reduces to the trivial subgroup
    C = cyclic_group(QQ, 4)
    RC = reduced_subgroup(C)
    for p in range(0, 3):
        assert list(RC.simplices(p)) == [C.one(p)]


def test_quotient_spaces():
    # K = trivial: G/K = G; K = G: point
    G = b_cyclic(QQ, 4)
    triv = SubgroupInclusion(G, lambda p, x: x == G.one(p))
    Q1 = quotient(G, triv)
    for p in range(0, 3):
        assert len(Q1.nondegenerate(p)) == len(G.nondegenerate(p))
    assert Q1.basepoint() == G.basepoint()
    QG = quotient(G, G)
    for p in range(0, 3):
        assert len(QG.nondegenerate(p)) == (1 if p == 0 else 0)
    assert list(QG.simplices(0)) == [QG.basepoint()]


def test_bz4_mod_bz2_is_bz2():
    # B(Z_4) / B(Z_2) = B(Z_2), elementwise up to degree 4
    G = b_cyclic(QQ, 4)
    sub = SubgroupInclusion(
        G, lambda p, x: all(v[0] % 2 == 0 for v in x))
    Q = quotient(G, sub)
    B2 = b_cyclic(QQ, 2)
    samples = [(p, x) for p in range(0, 4) for x in Q.simplices(p)]
    Q.check_simplicial_identities(samples)

    def iso(p, data):
        # divide each entry by 2? no: reduce mod 2 through the canonical map
        return tuple((v[0] % 2,) for v in data)

    for p in range(0, 5):
        qs = sorted(set(map(lambda d: iso(p, d), Q.simplices(p))), key=repr)
        bs = sorted(set(B2.simplices(p)), key=repr)
        assert len(list(Q.simplices(p))) == len(list(B2.simplices(p)))
        assert qs == bs
        # structure maps commute with the canonical identification
    for p in range(1, 5):
        for x in Q.simplices(p):
            for i in range(p + 1):
                assert iso(p - 1, Q.face(p, i, x)) == B2.face(p, i, iso(p, x))
