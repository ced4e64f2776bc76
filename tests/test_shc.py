import random

import pytest

from torbar.fields import QQ
from torbar.graded import GradedElement
from torbar.dg import FreeGcDga, polynomial_dga, QuotientOracle, gc_algebra_map
from torbar.shm import check_family, check_homotopy_family
from torbar.shc import (ShcData, gauge_shc, iterated_tensor, nest_elements,
                        lambda_family, check_shc, tensor_shc_naturality,
                        check_quasi_iso_on_polynomials, _one_tensor)


def comm_dga(field=QQ):
    # commutative model with an acyclic summand: H = k[a]
    return FreeGcDga(field, [("a", 2), ("u", 3), ("w", 4)],
                     d_gen={"u": [(1, [("w", 1)])]})


def tensor_sampler(T, rng, degs=(2, 3, 4), count=1):
    def sample(n):
        return [[T.random_element(rng.choice(degs), rng, terms=2)
                 for _ in range(n)] for _ in range(count)]
    return sample


def test_commutative_shc_iterates():
    rng = random.Random(70)
    A = comm_dga()
    s = ShcData.commutative(A)
    # Phi^[0] = eta, Phi^[1] = 1, Phi^[2] = Phi
    k = s.phi_iterate(0)
    ground = polynomial_dga(QQ, [])
    assert k(1, [ground.one()]) == A.one()
    ident = s.phi_iterate(1)
    x = A.random_element(3, rng)
    assert ident(1, [x]) == x
    assert s.phi_iterate(2) is s.phi
    # strict iterated multiplication, first component mu^[n]
    phi3 = s.phi_iterate(3)
    AAA = iterated_tensor(A, 3)
    a, b, c = (A.random_element(d, rng) for d in (2, 3, 4))
    nested = nest_elements(A, [a, b, c])
    assert phi3(1, [nested]) == A.mul(A.mul(a, b), c)
    for args in tensor_sampler(AAA, rng, degs=(2, 3), count=2)(2):
        assert phi3(2, args).is_zero()  # strict


def test_commutative_shc_conditions():
    rng = random.Random(71)
    A = comm_dga()
    s = ShcData.commutative(A)
    s2 = tensor_sampler(s.AA, rng, degs=(2, 3, 4), count=1)
    s3 = tensor_sampler(iterated_tensor(A, 3), rng, degs=(3, 4), count=1)
    check_shc(s, s2, s3, ns=(1, 2)).raise_on_failure()


def test_gauge_shc_nonstrict_and_conditions():
    rng = random.Random(72)
    A = comm_dga()
    s = gauge_shc(A, rng, degrees=range(1, 7))
    # genuinely nonstrict
    found = False
    for args in tensor_sampler(s.AA, rng, degs=(2, 3), count=5)(2):
        if not s.phi(2, args).is_zero():
            found = True
            break
    assert found
    s2 = tensor_sampler(s.AA, rng, degs=(2, 3), count=1)
    s3 = tensor_sampler(iterated_tensor(A, 3), rng, degs=(2, 3), count=1)
    check_shc(s, s2, s3, ns=(1, 2)).raise_on_failure()


def test_gauge_phi_iterate_axiom():
    rng = random.Random(73)
    A = comm_dga()
    s = gauge_shc(A, rng, degrees=range(1, 7))
    phi3 = s.phi_iterate(3)
    AAA = iterated_tensor(A, 3)
    check_family(phi3, tensor_sampler(AAA, rng, degs=(2, 3), count=1),
                 ns=(1, 2, 3)).raise_on_failure()
    # first component is the iterated multiplication
    a, b, c = (A.random_element(d, rng) for d in (2, 2, 3))
    assert phi3(1, [nest_elements(A, [a, b, c])]) == A.mul(A.mul(a, b), c)


def test_phi_iterate_strictness_through_oracle():
    rng = random.Random(74)
    A = FreeGcDga(QQ, [("a", 2), ("q", 2)])

    Q = FreeGcDga(QQ, [("a", 2)])
    qmap = gc_algebra_map(A, Q, {"a": Q.generator("a"), "q": Q.zero()})
    oracle = QuotientOracle(A, qmap, name="kill q")

    # gauge supported in the ideal (q)
    from torbar.graded import LinearMap
    from torbar.dg import gauge_transform
    from torbar.bar import BarDgc
    from torbar.shm import TwistingFamily
    base = ShcData.commutative(A)
    barAA = BarDgc(base.AA)
    t_mu = base.phi.to_cochain(barAA)
    qgen = A.generator("q")

    def k_rule(key):
        if key.length == 2 and key.degree in (2, 4):
            entries = key.entries
            unit_a = A.unit_key
            if not (all(k.parts[0] == unit_a for k in entries)
                    or all(k.parts[1] == unit_a for k in entries)):
                rest = A.basis(key.degree - 2)
                out = GradedElement(QQ)
                for r in rest[:1]:
                    out.add_in(A.mul(qgen, A.element(r)))
                return out
        return GradedElement(QQ)

    t_phi, h = gauge_transform(barAA, A, t_mu, LinearMap(QQ, 0, k_rule))
    phi = TwistingFamily.from_cochain(barAA, A, t_phi, name="Phi")
    s = ShcData(A, phi)
    sampler2 = tensor_sampler(s.AA, rng, degs=(2, 3, 4), count=2)
    phi.is_strict_under(oracle, sampler2, max_n=3).raise_on_failure()
    phi3 = s.phi_iterate(3)
    AAA = iterated_tensor(A, 3)
    sampler3 = tensor_sampler(AAA, rng, degs=(2, 3, 4), count=2)
    phi3.is_strict_under(oracle, sampler3, max_n=3).raise_on_failure()


def test_lambda_family_commutative_and_gauge():
    rng = random.Random(75)
    A = comm_dga()
    s = ShcData.commutative(A)
    a = A.generator("a")
    lam, P = lambda_family(s, [("x", a)])
    x2 = P.monomial([("x", 2)])
    # strict algebra map on a commutative target: x^k -> a^k
    assert lam(1, [GradedElement.single(QQ, x2)]) == A.mul(a, a)
    for n in (2, 3):
        for args in [[P.random_element(2, rng), P.random_element(4, rng)],
                     [P.random_element(2, rng)] * n][:1]:
            if len(args) == n:
                assert lam(n, args).is_zero()
    # quasi-isomorphism on the truncation
    basis = {d: A.basis(d) for d in range(0, 9)}
    check_quasi_iso_on_polynomials(
        lam, P, basis, lambda k: A.diff_key(k).terms, QQ, 6).raise_on_failure()
    # gauge instance: still a twisting family, same first component on
    # polynomial generators
    sg = gauge_shc(A, rng, degrees=range(1, 7))
    lam2, P2 = lambda_family(sg, [("x", a)])
    check_family(lam2, lambda n: [[P2.random_element(2 * rng.randint(1, 2), rng)
                                   for _ in range(n)]],
                 ns=(1, 2, 3)).raise_on_failure()
    assert lam2(1, [GradedElement.single(QQ, x2)]) == A.mul(a, a)
    check_quasi_iso_on_polynomials(
        lam2, P2, basis, lambda k: A.diff_key(k).terms, QQ, 6).raise_on_failure()


def test_lambda_family_rejects_bad_input():
    A = comm_dga()
    s = ShcData.commutative(A)
    u = A.generator("u")  # odd degree
    with pytest.raises(ValueError, match="even positive degree"):
        lambda_family(s, [("x", u)])
    # comm_dga() has no even non-cocycle: d v = e with |v| = 2 gives one
    B = FreeGcDga(QQ, [("v", 2), ("e", 3)], d_gen={"v": [(1, [("e", 1)])]})
    with pytest.raises(ValueError, match="is not a cocycle"):
        lambda_family(ShcData.commutative(B), [("x", B.generator("v"))])


def test_tensor_naturality_trivial_case():
    rng = random.Random(76)
    A = comm_dga()
    s = ShcData.commutative(A)
    ident = lambda x: x
    h1 = trivial_naturality(s)
    h2 = trivial_naturality(s)
    out = tensor_shc_naturality(s, s, s, s, ident, ident, h1, h2)
    from torbar.dg import TensorDga
    A12 = TensorDga(A, A)
    src = TensorDga(A12, A12)
    for n in (1, 2):
        for args in tensor_sampler(src, rng, degs=(4, 5), count=2)(n):
            assert out(n, args).is_zero()


def trivial_naturality(s):
    from torbar.shm import TwistingHomotopyFamily
    return TwistingHomotopyFamily(s.AA, s.A, lambda n, args: s.A.zero(),
                                  s.phi, s.phi, name="triv")


def test_tensor_naturality_synthetic():
    rng = random.Random(77)
    A = comm_dga()
    sA1 = ShcData.commutative(A)
    sA2 = ShcData.commutative(A)
    sB1 = gauge_shc(A, rng, degrees=range(1, 6))
    sB2 = gauge_shc(A, rng, degrees=range(1, 6))
    ident = lambda x: x
    # h_i: Phi_{B_i} o (id (x) id) ~ id o Phi_{A_i} = mu, i.e. the inverse
    # gauge homotopy
    h1 = sB1.gauge.inverse()
    h2 = sB2.gauge.inverse()
    out = tensor_shc_naturality(sA1, sA2, sB1, sB2, ident, ident, h1, h2)
    from torbar.dg import TensorDga
    A12 = TensorDga(A, A)
    src = TensorDga(A12, A12)
    rep = check_homotopy_family(out, tensor_sampler(src, rng, degs=(4,),
                                                    count=1), ns=(1, 2))
    rep.raise_on_failure()


@pytest.mark.parametrize("seed", [74, 75])
def test_one_tensor_family_and_homotopy_signs(seed):
    """1 (x) F applies F_(n) past the a-block with the sign of F's degree:
    1 - n for the family Phi, -n for the gauge homotopy.  Arguments of odd
    degree make the two differ."""
    rng = random.Random(seed)
    A = comm_dga()
    s = gauge_shc(A, rng)
    AAA = iterated_tensor(A, 3)
    sampler = tensor_sampler(AAA, rng, degs=(3, 4, 5), count=2)
    check_family(_one_tensor(s, AAA, s.phi), sampler,
                 ns=(1, 2, 3)).raise_on_failure()
    check_homotopy_family(_one_tensor(s, AAA, s.gauge), sampler,
                          ns=(1, 2, 3)).raise_on_failure()
