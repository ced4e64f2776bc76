from torbar.fields import QQ, F5
from torbar.graded import GradedElement
from torbar.dg import FreeDga, check_chain_map, free_dga_endo, gc_algebra_map
from torbar.bar import OneSidedBar
from torbar.homog import catalog_entry
from torbar.shm import gamma


def test_gamma_strict_and_chain_map():
    A = FreeDga(QQ, [("u", 2), ("v", 4)])
    osb = OneSidedBar(A, A, f=lambda x: x)
    # g scales each letter by 2: Gamma_g = 1 (x) g exactly
    endo2 = free_dga_endo(A, 2)
    gm, tgt = gamma(endo2, A, osb)
    # the target reads its bar and coefficients off g o t
    assert tgt.C is osb.C and tgt.A is A
    for kk in osb.basis_total(6):
        w, bk = kk.parts
        expected = GradedElement.single(QQ, tgt.key(w, bk),
                                        QQ.of(2) ** len(bk.letters))
        assert gm(kk) == expected
    check_chain_map(gm, osb, tgt, osb.basis_total(6) + osb.basis_total(7),
                    "Gamma chain map").raise_on_failure()


def test_gamma_off_the_identity_pair():
    """SU(3)/T over F5, g: B -> B scaling each generator t_i by 3, so g
    multiplies a monomial of degree 2m by 3^m.  The target's twisting
    cochain is g o t, not t."""
    A, B, f, _ = catalog_entry(F5, "SU(3)/T")
    osb = OneSidedBar(A, B, f)
    g = gc_algebra_map(B, B, {name: B.generator(name).scale(F5.of(3))
                              for name in B.gens})
    gm, tgt = gamma(g, B, osb)
    assert tgt.C is osb.C and tgt.A is B
    keys = [k for d in range(9) for k in osb.basis_total(d)]
    for kk in keys:
        w, bk = kk.parts
        assert gm(kk) == GradedElement.single(F5, tgt.key(w, bk),
                                              3 ** (bk.degree // 2))
    for d in range(9):
        for w in osb.C.basis(d):
            assert tgt.t(w) == g(osb.t(w))
    check_chain_map(gm, osb, tgt, keys, "Gamma chain map").raise_on_failure()
