import random

from torbar.fields import QQ
from torbar.graded import GradedElement
from torbar.dg import (FreeDga, check_chain_map, gauge_transform,
                       random_gauge_rule, free_dga_endo)
from torbar.bar import BarDgc, BarWord, universal_cochain
from torbar.shm import TwistingFamily, check_family, gamma


def make_dga(field=QQ):
    return FreeDga(field, [("u", 2), ("v", 3)], d_gen={"v": [(1, ["u", "u"])]})


def gauge_family(A, rng, degrees=range(1, 8), name="f"):
    barA = BarDgc(A)
    t = universal_cochain(barA)
    k = random_gauge_rule(barA, A, rng, degrees=degrees)
    return TwistingFamily.from_cochain(gauge_transform(t, k), name=name)


def sampler(A, rng, degs=(2, 3), count=2):
    def sample(n):
        return [[A.random_element(rng.choice(degs), rng, terms=2)
                 for _ in range(n)] for _ in range(count)]
    return sample


def test_strict_family_axiom():
    rng = random.Random(11)
    A = make_dga()
    f = TwistingFamily.strict(A, A, lambda x: x, name="id")
    check_family(f, sampler(A, rng), ns=(1, 2, 3)).raise_on_failure()


def test_gauge_family_is_nonstrict_and_valid():
    rng = random.Random(12)
    A = make_dga()
    f = gauge_family(A, rng)
    # nonstrict: some higher component is nonzero
    found = False
    for args in sampler(A, rng, count=6)(2):
        if not f(2, args).is_zero():
            found = True
            break
    assert found, "gauge family should have nontrivial f_(2)"
    check_family(f, sampler(A, rng), ns=(1, 2, 3, 4)).raise_on_failure()


def test_family_cochain_roundtrip_and_signs():
    rng = random.Random(13)
    A = make_dga()
    f = gauge_family(A, rng)
    barA = BarDgc(A)
    t = f.to_cochain(barA)
    t.check([k for d in range(0, 8) for k in barA.basis(d)]).raise_on_failure()
    f2 = TwistingFamily.from_cochain(t)
    for n in (1, 2, 3):
        for args in sampler(A, rng)(n):
            assert f(n, args) == f2(n, args)
    # plain-protocol signs: eps = sum (n-k)|a_k|.  The desuspended-degree
    # convention eps' = sum (n-k)(|a_k|-1) differs by the word-length twist
    # n(n-1)/2; with the standard tensor bar differential only the plain
    # protocol satisfies the displayed family identities.
    u, v = A.generator("u"), A.generator("v")
    w = BarWord((A.word(["u"]), A.word(["v"])))
    # n=2, degrees (2,3): eps = 2, sign +1; eps' = 1 and C(2,2)=1 twist
    assert t(w) == f(2, [u, v])
    eps_prime = (2 - 1) * (2 - 1)
    assert (eps_prime + 2 * (2 - 1) // 2) % 2 == 0  # conventions agree via twist
    # n=3, degrees (2,2,2): eps = 6, sign +1; eps' = 3 and C(3,2)=3 twist
    w3 = BarWord((A.word(["u"]),) * 3)
    assert t(w3) == f(3, [u, u, u])
    assert (3 + 3 * 2 // 2) % 2 == 0
    # n=1: no sign in either convention
    w1 = BarWord((A.word(["u"]),))
    assert t(w1) == f(1, [u])


def test_unit_normalization():
    rng = random.Random(14)
    A = make_dga()
    f = gauge_family(A, rng)
    one = A.one()
    assert f(1, [one]) == A.one()
    u = A.generator("u")
    assert f(2, [one, u]).is_zero()
    assert f(3, [u, one, u]).is_zero()


def test_bar_map_matches_display():
    # B f([a_1|...|a_n]) = sum over decompositions of words of f-values
    rng = random.Random(15)
    A = make_dga()
    f = gauge_family(A, rng)
    barA = BarDgc(A)
    bf = f.bar_map(barA, barA)
    t = f.to_cochain(barA)

    def display(word):
        # direct transcription of the bar-map formula (no signs)
        out = GradedElement(QQ)
        n = word.length

        def splits(i):
            if i == n:
                yield []
                return
            for j in range(i + 1, n + 1):
                for rest in splits(j):
                    yield [(i, j)] + rest

        for sp in splits(0):
            vals = [t(BarWord(word.entries[i:j])) for i, j in sp]
            out.add_in(barA.words_from_elements(vals))
        return out

    for d in range(0, 7):
        for w in barA.basis(d):
            assert bf(w) == display(w), f"mismatch at {w!r}"


def test_gamma_strict_and_chain_map():
    rng = random.Random(27)
    A = FreeDga(QQ, [("u", 2), ("v", 4)])
    from torbar.bar import OneSidedBar
    osb = OneSidedBar(A, A, f=lambda x: x)
    # strict g: Gamma_g = 1 (x) g_(1) exactly
    endo2 = free_dga_endo(A, 2)
    g_str = TwistingFamily.strict(A, A, endo2, name="2g")
    gm, tgt = gamma(g_str, osb)
    # the target reads its bar and coefficients off g o t
    assert tgt.C is osb.C and tgt.A is g_str.B
    keys = osb.basis_total(6)
    for kk in keys:
        w, bk = kk.parts
        expected = GradedElement.single(QQ, tgt.key(w, bk),
                                        QQ.of(2) ** len(bk.letters))
        assert gm(kk) == expected
    # nonstrict g: chain map property, exactly
    g = gauge_family(A, rng, degrees=range(1, 8), name="g")
    gm2, tgt2 = gamma(g, osb)
    assert tgt2.C is osb.C and tgt2.A is g.B
    check_chain_map(gm2, osb, tgt2, osb.basis_total(6) + osb.basis_total(7),
                    "Gamma chain map").raise_on_failure()
    # congruence to 1 (x) g_(1): components of the same word length agree,
    # the deformation terms having shorter words
    for kk in osb.basis_total(5):
        w, bk = kk.parts
        val = gm2(kk)
        same_length = {k2: c for k2, c in val.terms.items()
                       if k2.parts[0].length == w.length}
        direct = {}
        for kb, cb in g(1, [GradedElement.single(QQ, bk)]).terms.items():
            direct[tgt2.key(w, kb)] = cb
        assert same_length == direct


def test_gamma_length_zero():
    A = FreeDga(QQ, [("u", 2)])
    from torbar.bar import OneSidedBar
    rng = random.Random(28)
    osb = OneSidedBar(A, A, f=lambda x: x)
    g = gauge_family(A, rng, name="g")
    gm, tgt = gamma(g, osb)
    for bk in A.basis(4):
        kk = osb.key(BarWord(()), bk)
        val = gm(kk)
        expected = GradedElement(QQ)
        for kb, cb in g(1, [GradedElement.single(QQ, bk)]).terms.items():
            expected.add_in(GradedElement.single(QQ, tgt.key(BarWord(()), kb)), cb)
        assert val == expected
