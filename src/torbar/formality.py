"""The homotopy Gerstenhaber formality machinery for classifying spaces of
simplicial tori.

For T = B(Z^n): the Koszul complex K, the tensor coalgebra Lambda (x) S of
the exterior coalgebra Lambda = H(T) and the polynomial coalgebra
S = H(BT) with a twisted differential; the quasi-isomorphism
phi: Lambda -> C(T) from representative loops; the recursive
Lambda-equivariant dgc chain map F: K -> C(ET); the induced dgc map
f: S -> C(BT) and the formality morphism f*: C*(BT) -> H*(BT); and the
verification suites for the vanishing theorems (interval cuts of enclave
surjections, the Q operations read off the interval cut of (1, 2, 1),
(S (x) S)-partial diagonals, cup-two products of cocycles, and the
kernel-ideal generator families).
"""
import random

from .graded import (GradedElement, LinearMap, Tensor, parity_sign,
                     tensor_elements)
from .linalg import StructuralError
from .dg import (CheckReport, FreeGcCoalgebra, TensorDgc, check_chain_map,
                 check_d_squared, preserves_coproduct)
from .simplicial import (Cochain, zero_cochain, coboundary, cup, cup_many,
                         CochainHga, ChainsDgc, partial_diagonal,
                         e_surjection, f_surjection, interval_cut,
                         group_action_on_chains)
from .classifying import torus_group, total_space
from .hga import cup1, cup2, gm_repeated_cup1


class KoszulComplex(TensorDgc):
    """K = Lambda (x) S, the tensor coalgebra of the exterior coalgebra
    Lambda on x_i (the factor `C`) and the polynomial coalgebra S on y_i
    (`D`), both `FreeGcCoalgebra`s, with the twisted differential
    d(a . y_alpha) = sum x_i ^ a . y_alpha|i.

    Keys are Tensor((exterior monomial, cogenerator monomial)); basis,
    coproduct and counit are those of the tensor coalgebra, whose Koszul
    sign never fires because S is even.  `L` is Lambda as an algebra on
    the same monomial keys.
    """

    def __init__(self, field, rank):
        super().__init__(
            FreeGcCoalgebra(field, [(f"x{i}", 1) for i in range(rank)], -1),
            FreeGcCoalgebra(field, [(f"y{i}", 2) for i in range(rank)], -1))
        self.L = self.C.algebra

    def key(self, xs, alpha):
        """x_{i in xs} . y_alpha."""
        return self._tensors[(self.L.monomial([(f"x{i}", 1) for i in xs]),
                              self.D.algebra.monomial([(f"y{i}", a) for i, a
                                                       in enumerate(alpha)]))]

    def diff_key(self, key):
        lk, sk = key.parts
        field = self.field
        a = GradedElement.single(field, lk)
        out = GradedElement(field)
        for name, _ in sk.powers:
            lowered = self.D.algebra.monomial(
                [(n, e - 1 if n == name else e) for n, e in sk.powers])
            out.add_in(tensor_elements(
                field, self.L.mul(self.L.generator(f"x{name[1:]}"), a),
                GradedElement.single(field, lowered)))
        return out


class TorusFormality:
    """The full construction for T = B(Z^n)."""

    def __init__(self, field, rank, symmetrize=False):
        if symmetrize and field.char == 2:
            raise ValueError("symmetrized representatives need 2 invertible")
        self.field = field
        self.rank = rank
        self.symmetrize = symmetrize
        self.T = torus_group(field, rank)
        self.E = total_space(self.T)
        self.BT = self.E.base
        self.K = KoszulComplex(field, rank)
        # H*(BT) = k[y]: the algebra on the keys of the coalgebra S
        self.H = self.K.D.algebra
        self.hga = CochainHga(self.BT)
        # F: K -> C(ET) and f: S -> C(BT), each computed once per key
        self.F_key = LinearMap(0, TorusFormality._F_rule, self)
        self.f_key = LinearMap(0, TorusFormality._f_rule, self)
        # representative loops: the canonical generators of Z^n, optionally
        # symmetrized  c~ = (c - iota_* c)/2
        self.loops = []
        for i in range(rank):
            v = tuple(1 if j == i else 0 for j in range(rank))
            c = self.T.chain(1, (v,))
            if not self.T.is_loop((v,)):
                raise StructuralError("canonical generator is not a loop")
            if symmetrize:
                winv = tuple(-a for a in v)
                cinv = self.T.chain(1, (winv,))
                half = field.inv(field.of(2))
                c = c.scale(half) - cinv.scale(half)
            self.loops.append(c)

    # -- phi: Lambda -> C(T) ---------------------------------------------
    def phi(self, lkey):
        names = [int(n[1:]) for n, _ in lkey.powers]
        if not names:
            return self.T.chain(0, self.T.one(0))
        out = self.loops[names[0]]
        for i in names[1:]:
            # the Pontryagin product: T acting on itself
            out = group_action_on_chains(self.T, self.T, self.T.mul, out,
                                         self.loops[i])
        return out

    # -- F: K -> C(ET) ----------------------------------------------------
    def act(self, chain_T, chain_E):
        return group_action_on_chains(self.T, self.E, self.E.action,
                                      chain_T, chain_E)

    def _F_rule(self, key):
        lk, sk = key.parts
        if lk.powers:
            pure = Tensor((self.K.L.unit_key, sk))
            return self.act(self.phi(lk), self.F_key(pure))
        if not sk.powers:
            return self.E.chain(0, self.E.basepoint())
        return self.K.diff_key(key).map_keys(
            lambda k2: self.E.s_chain(self.F_key(k2)))

    # -- f: S -> C(BT) and the formality morphism f* ----------------------
    def _f_rule(self, skey):
        chain = self.F_key(Tensor((self.K.L.unit_key, skey)))
        return chain.map_keys(lambda k: self.BT.chain(
            k.degree, self.E.projection(k.degree, k.data)))

    def f(self, alpha):
        _, skey = self.K.key((), alpha).parts
        return self.f_key(skey)

    def f_star(self, cochain):
        """f*(c) in H*(BT) = k[y*]: evaluate c on the f(y_alpha); the keys
        of S are those of H."""
        deg = cochain.degree
        if deg < 0 or deg % 2:
            return GradedElement(self.field)
        return GradedElement(self.field, [
            (sk, cochain.eval_chain(self.f_key(sk)))
            for sk in self.K.D.basis(deg)])

    # -- canonical cochains on BT ------------------------------------------
    def canonical_cocycle(self, i):
        """The degree-2 cocycle reading off the i-th coordinate of g_1."""

        def fn(key):
            g1 = key.data[0]       # in T_1: a 1-tuple of a Z^n element
            return self.field.of(g1[0][i])

        return Cochain(self.BT, 2, fn)

    def random_support_cochain(self, degree, rng, support=6):
        """A finite-support cochain on sampled nondegenerate simplices."""
        values = {}
        for _ in range(support):
            data = self.random_simplex(degree, rng)
            if data is not None:
                values[self.BT.key(degree, data)] = \
                    self.field.of(rng.choice((-2, -1, 1, 2)))
        return Cochain(self.BT, degree,
                       lambda k: values.get(k, self.field.zero))

    def random_simplex(self, degree, rng):
        """A random nondegenerate BT simplex of the given degree (30 tries)."""
        for _ in range(30):
            data = []
            for dim in range(degree - 1, -1, -1):
                entries = tuple(
                    tuple(rng.randint(-1, 1) for _ in range(self.rank))
                    for _ in range(dim))
                data.append(entries)
            data = tuple(data)
            if not self.BT.is_degenerate(degree, data):
                return data
        return None

    def cocycle_monomial(self, m):
        """The cocycle of the monomial m of H*(BT): the cup product of the
        canonical cocycles, u_i taken once per factor y_i."""
        return cup_many([self.canonical_cocycle(int(n[1:]))
                         for n, e in m.powers for _ in range(e)])

    def cocycle_samples(self, degree, rng, count=4):
        """Sampled cocycles of even degree: monomials in the canonical
        cocycles plus coboundaries."""
        out = []
        monomials = [self.cocycle_monomial(m)
                     for m in self.H.basis(2 * (degree // 2)) if m.powers]
        for _ in range(count):
            c = zero_cochain(self.BT, degree)
            for m in monomials:
                if rng.random() < 0.7:
                    c = c.add(m.scale(self.field.of(rng.choice((-2, -1, 1, 2)))))
            if degree >= 2:
                boundary = coboundary(
                    self.random_support_cochain(degree - 1, rng))
                c = c.add(boundary)
            out.append(c)
        return out

    # -- structural checks -------------------------------------------------
    def check_chain_map(self, bound):
        """F d_K = d F, exactly, on Koszul keys <= bound."""
        keys = [k for d in range(0, bound + 1) for k in self.K.basis(d)]
        return check_chain_map(self.F_key, self.K, ChainsDgc(self.E), keys,
                               "F chain map")

    def check_coalgebra_map(self, bound):
        """Delta F = (F (x) F) Delta, exactly, on Koszul keys <= bound."""
        rep = CheckReport("F coalgebra map")
        CE = ChainsDgc(self.E)
        for d in range(0, bound + 1):
            for k in self.K.basis(d):
                rep.record(preserves_coproduct(self.F_key, self.K, CE, k), k)
        return rep

    def check_equivariance(self, bound):
        """F(a ^ a' . c) = phi(a) * F(a' . c) on sampled splittings."""
        rep = CheckReport("F equivariance")
        for d in range(0, bound + 1):
            for k in self.K.basis(d):
                lk, sk = k.parts
                names = [n for n, _ in lk.powers]
                for cut in range(1, len(names)):
                    left = self.K.L.monomial([(n, 1) for n in names[:cut]])
                    right = self.K.L.monomial([(n, 1) for n in names[cut:]])
                    lhs = self.F_key(k)
                    rhs = self.act(self.phi(left),
                                   self.F_key(Tensor((right, sk))))
                    rep.record(lhs == rhs, (k, cut))
        return rep

    def check_s_identities(self, bound):
        return self.E.check_s_identities(
            sorted(self.f_image_simplices(bound), key=repr))

    def check_phi(self, rng):
        """phi is a chain map of dg bialgebras on sampled pairs."""
        rep = CheckReport("phi bialgebra map")
        basis = []
        for d in range(0, self.rank + 1):
            basis.extend(self.K.L.basis(d))
        for k in basis:
            e = GradedElement.single(self.field, k)
            rep.record(self.T.boundary(e.map_keys(self.phi)).is_zero(),
                       ("cycle", k))
        for _ in range(6):
            k1 = rng.choice(basis)
            k2 = rng.choice(basis)
            lhs = self.K.L.mul_keys(k1, k2).map_keys(self.phi)
            rhs = group_action_on_chains(self.T, self.T, self.T.mul,
                                         self.phi(k1), self.phi(k2))
            rep.record(lhs == rhs, ("mult", k1, k2))
        CT = ChainsDgc(self.T)
        for k in basis:
            rep.record(preserves_coproduct(self.phi, self.K.C, CT, k),
                       ("coalg", k))
        return rep

    def check_transgression(self, bound=3):
        """f* sends the canonical cocycle monomials to the corresponding
        monomials of H*(BT) on the nose (H(f) is the identity)."""
        rep = CheckReport("f* identity on cohomology")
        for half in range(1, bound + 1):
            for m in self.H.basis(2 * half):
                rep.record(self.f_star(self.cocycle_monomial(m))
                           == GradedElement.single(self.field, m), m)
        return rep

    def check_f_star_multiplicative(self, rng, degree_pairs, samples=4):
        rep = CheckReport("f* multiplicative")
        for p, q in degree_pairs:
            for _ in range(samples):
                a = self.random_support_cochain(p, rng)
                b = self.random_support_cochain(q, rng)
                lhs = self.f_star(cup(a, b))
                rhs = self.H.mul(self.f_star(a), self.f_star(b))
                rep.record(lhs == rhs, (p, q))
        return rep

    def f_image_simplices(self, bound, top_letter=False):
        """Simplices appearing in the F-images (support sets, cached)."""
        out = []
        seen = set()
        for d in range(0, bound + 1):
            for k in self.K.basis(d):
                lk, sk = k.parts
                if top_letter and len(lk.powers) != 1:
                    continue
                for kk in self.F_key(k).terms:
                    if kk not in seen:
                        seen.add(kk)
                        out.append(kk)
        return out

    def verify_vanishing_suite(self, bound):
        """(i) (S (x) S) P^{n+1}_k = 0 on simplices of F(a.c), |a| = 1;
        (ii) Q^n_{k,l} = 0 on all F-image simplices; (iii) AW_u f = 0 for
        enclave surjections u.  (ii) reads Q^n_{k,l}(sigma) =
        sigma(0..k, l..n) (x) pi_* sigma(k..l) off the (1, 2, 1) cut, whose
        valid cuts are the pairs k < l: the cut drops degenerate first
        factors, and pi commutes with degeneracies."""
        rep = CheckReport("vanishing suite")
        for key in self.f_image_simplices(bound, top_letter=True):
            n = key.degree
            for k in range(0, n + 1):
                val = partial_diagonal(key, k)
                ok = True
                for t, c in val.terms.items():
                    a, b = t.parts
                    if not (self.E.s_chain_key(a).is_zero()
                            or self.E.s_chain_key(b).is_zero()):
                        ok = False
                        break
                rep.record(ok, ("SSP", key, k))
        for key in self.f_image_simplices(bound):
            rep.record(all(
                self.BT.is_degenerate(b.degree,
                                      self.E.projection(b.degree, b.data))
                for _, (_, b) in interval_cut(e_surjection(1), key)),
                ("Q", key))
        for u in (e_surjection(1), e_surjection(2), e_surjection(3),
                  f_surjection(1, 2), f_surjection(2, 1), f_surjection(2, 2)):
            if not u.has_enclave():
                raise ValueError(f"{u} has no enclave")
            for d in range(0, bound + 1):
                for sk in self.K.D.basis(d):
                    aw = GradedElement(self.field, [
                        (Tensor(factors), self.field.mul(c, coeff))
                        for key, c in self.f_key(sk).terms.items()
                        for coeff, factors in interval_cut(u, key)])
                    rep.record(aw.is_zero(), ("AW_u f", u.seq, sk))
        return rep

    def check_fstar_kills_operations(self, rng, bound, samples=30):
        """f* E_k = 0 (k >= 1) and f* F_kl = 0 ((k,l) != (1,1)) on sampled
        cochains (not necessarily cocycles)."""
        rep = CheckReport("f* annihilates hga operations")
        # every E_k value has degree >= 1: below bound 2 none has an even
        # degree within the bound, so no sample is drawn
        count = 0
        while bound >= 2 and count < samples:
            k = rng.choice((1, 2, 3))
            degs = [rng.choice((1, 2)) for _ in range(k + 1)]
            target = sum(degs) - k
            if target < 0 or target % 2 or target > bound:
                continue
            args = [self.random_support_cochain(d, rng) for d in degs]
            val = self.hga.E(k, args[0], args[1:])
            rep.record(self.f_star(val).is_zero(), ("E", k, degs))
            count += 1
        count = 0
        while count < samples:
            k, l = rng.choice(((1, 2), (2, 1), (2, 2)))
            degs = [rng.choice((1, 2)) for _ in range(k + l)]
            target = sum(degs) - k - l
            if target < 0 or target % 2 or target > bound:
                continue
            args = [self.random_support_cochain(d, rng) for d in degs]
            val = self.hga.F(k, l, args[:k], args[k:])
            rep.record(self.f_star(val).is_zero(), ("F", k, l, degs))
            count += 1
        # cup-one products of sampled cochains die as well
        for _ in range(samples // 2):
            p, q = rng.choice(((1, 2), (2, 2), (2, 1), (2, 3))) \
                if bound >= 3 else (2, 2)
            a = self.random_support_cochain(p, rng)
            b = self.random_support_cochain(q, rng)
            val = cup1(self.hga, a, b)
            if val.degree <= bound and val.degree % 2 == 0:
                rep.record(self.f_star(val).is_zero(), ("cup1", p, q))
        return rep

    def cup2_vanishing(self, rng, degree_pairs, samples=10):
        """f*(a u2 b) = 0 for sampled cocycles (symmetrized reps, 2 a unit)."""
        if not self.symmetrize:
            raise ValueError("cup-two vanishing needs symmetrized "
                             "representatives")
        rep = CheckReport("f* kills cup2 of cocycles")
        for p, q in degree_pairs:
            count = max(1, samples // len(degree_pairs))
            ca = self.cocycle_samples(p, rng, count=count)
            cb = self.cocycle_samples(q, rng, count=count)
            for a, b in zip(ca, cb):
                val = cup2(self.hga, a, b)
                rep.record(self.f_star(val).is_zero(), ("cup2", p, q))
        return rep

    def sq0_witness(self):
        """Over F_2 with plain representatives: a degree-2 cocycle a with
        f*(a u2 a) != 0 (the Sq^0 obstruction)."""
        if self.field.char != 2:
            raise ValueError("the Sq^0 witness lives over F_2")
        for i in range(self.rank):
            a = self.canonical_cocycle(i)
            val = self.f_star(cup2(self.hga, a, a))
            if not val.is_zero():
                return a, val
        return None

    # -- the kernel ideal ---------------------------------------------------
    def kernel_ideal_suite(self, rng, bound, samples=6, any_field_variant=False):
        """All six generator families of the kernel ideal map to zero under
        f*, plus the commutator and cup-two derivation congruences."""
        rep = CheckReport("kernel ideal suite")
        # (1) odd degree
        for d in (1, 3, 5):
            if d > bound:
                continue
            c = self.random_support_cochain(d, rng)
            rep.record(self.f_star(c).is_zero(), ("odd", d))
        # (2) coboundaries
        for d in (2, 4):
            if d > bound:
                continue
            c = coboundary(self.random_support_cochain(d - 1, rng))
            rep.record(self.f_star(c).is_zero(), ("coboundary", d))
        # (3)/(4): E_k and F_kl values
        sub = self.check_fstar_kills_operations(rng, bound, samples=samples)
        rep.record(sub.ok, ("operations", sub.failures[:1]))
        # (5) a u2 E_k(b; c_bullet), k >= 2
        for _ in range(samples):
            a = self.random_support_cochain(2, rng)
            b = self.random_support_cochain(2, rng)
            cs = [self.random_support_cochain(1, rng) for _ in range(2)]
            inner = self.hga.E(2, b, cs)
            val = cup2(self.hga, a, inner)
            if val.degree % 2 == 0 and 0 <= val.degree <= bound:
                rep.record(self.f_star(val).is_zero(), ("cup2 E_k",))
        # (6) a u2 U_k(b_bullet) on cocycles
        kmin = 1 if any_field_variant else 0
        for k in range(kmin, 3):
            a = self.cocycle_samples(2, rng, count=1)[0]
            bs = [self.cocycle_samples(2, rng, count=1)[0]
                  for _ in range(k + 1)]
            # U_k(b_0,...,b_k) = -U_{k-1}(...) u1 b_k
            val = cup2(self.hga, a, gm_repeated_cup1(self.hga, bs))
            if val.degree % 2 == 0 and 0 <= val.degree <= bound:
                rep.record(self.f_star(val).is_zero(), ("cup2 U_k", k))
        # commutator congruence: f*[alpha, beta] = 0
        for _ in range(samples):
            p, q = rng.choice(((1, 1), (1, 3), (2, 2))) \
                if bound >= 4 else ((1, 1))
            a = self.random_support_cochain(p, rng)
            b = self.random_support_cochain(q, rng)
            comm = cup(a, b).add(cup(b, a).scale(
                self.field.neg(parity_sign(self.field, p * q))))
            rep.record(self.f_star(comm).is_zero(), ("commutator", p, q))
        # cup-two derivation congruences after applying f*
        for _ in range(samples):
            a = self.cocycle_samples(2, rng, count=1)[0]
            b = self.random_support_cochain(2, rng)
            c = self.random_support_cochain(2, rng)
            lhs = cup2(self.hga, a, cup(b, c))
            rhs = cup(cup2(self.hga, a, b), c).add(
                cup(b, cup2(self.hga, a, c)))
            rep.record(self.f_star(lhs) == self.f_star(rhs),
                       ("left derivation",))
            lhs2 = cup2(self.hga, cup(b, c), a)
            rhs2 = cup(cup2(self.hga, b, a), c).add(
                cup(b, cup2(self.hga, c, a)))
            rep.record(self.f_star(lhs2) == self.f_star(rhs2),
                       ("right derivation",))
        return rep


def formality_report(field, rank, degree_bound, rng=None):
    """Bundled verification, as a dict of CheckReports: `koszul_d2`,
    `chain_map`, `coalgebra_map`, `equivariance`, `s_identities`, `phi`,
    `transgression`, `f_star_multiplicative`, `vanishing` (the one suite
    run here, `verify_vanishing_suite`) and `operations`.  The suites
    `cup2_vanishing`, `sq0_witness` and `kernel_ideal_suite` run in the
    tests only."""
    rng = rng or random.Random(0)
    fo = TorusFormality(field, rank)
    reports = {
        "koszul_d2": check_d_squared(
            fo.K, [k for d in range(degree_bound + 1) for k in fo.K.basis(d)],
            "koszul d2"),
        "chain_map": fo.check_chain_map(degree_bound),
        "coalgebra_map": fo.check_coalgebra_map(degree_bound),
        "equivariance": fo.check_equivariance(degree_bound),
        "s_identities": fo.check_s_identities(degree_bound),
        "phi": fo.check_phi(rng),
        "transgression": fo.check_transgression(min(3, degree_bound // 2)),
        "f_star_multiplicative": fo.check_f_star_multiplicative(
            rng, [(2, 2), (2, 4)] if degree_bound >= 6 else [(2, 2)]),
        "vanishing": fo.verify_vanishing_suite(degree_bound),
        "operations": fo.check_fstar_kills_operations(
            rng, degree_bound, samples=20),
    }
    return fo, reports
