"""Homotopy Gerstenhaber structures as data with mechanized axioms.

`VectorHga(dga)` is the hga on the `GradedElement` vectors of a dga, its
operations E_k and F_kl read off the dga: the interval cuts of
`simplicial.CochainHga` on a `DualCochainDga`, evaluated on the vectors'
functionals, and zero on a graded-commutative `FreeGcDga`.  No dga
computes an hga operation itself.  The axiom checkers add, scale and test
the vectors with `GradedElement`'s own operations, and verify the three
defining identity families, the extended differential formula, and the
derived cup-one/cup-two identities, exactly, on supplied arguments.  The
bar construction of an hga becomes a dg bialgebra; one-sided bar
constructions over an hga morphism carry the Kadeishvili-Saneblidze dga
structure, fixed by the hgas of their two algebras.
"""
from .graded import (GradedElement, Tensor, bilinear, d_operation,
                     parity_sign, suspension_exponent, tensor_elements)
from .dg import (CheckReport, FreeGcDga, TwistingCochain, TensorDgc,
                 FreeGcCoalgebra, TwistedTensor)
from .bar import dgc_map_from_cochain
from .simplicial import CochainHga, DualCochainDga


class VectorHga:
    """The hga on the vectors of a dga, read off the dga: interval cuts on
    a `DualCochainDga`, all operations zero on a `FreeGcDga` (any
    graded-commutative dga is an hga that way).  Any other dga raises
    ValueError."""

    def __init__(self, dga):
        if isinstance(dga, DualCochainDga):
            self._cuts = CochainHga(dga.X)
            self.name = "C*(X)"
        elif isinstance(dga, FreeGcDga):
            self._cuts = None
            self.name = f"trivial({type(dga).__name__})"
        else:
            raise ValueError(f"no hga structure is known on a "
                             f"{type(dga).__name__}")
        self.dga = dga
        self.field = dga.field

    def zero(self):
        return self.dga.zero()

    def d(self, x):
        return self.dga.d(x)

    def mul(self, x, y):
        return self.dga.mul(x, y)

    def E(self, k, a, bs):
        if k == 0:
            return a
        if self._cuts is None:
            return self.dga.zero()
        return self.dga.through_functionals(
            lambda cs: self._cuts.E(k, cs[0], cs[1:]), [a, *bs])

    def F(self, k, l, as_, bs):
        if self._cuts is None:
            return self.dga.zero()
        return self.dga.through_functionals(
            lambda cs: self._cuts.F(k, l, cs[:k], cs[k:]), [*as_, *bs])


def dual_cochain_hga(dual_dga):
    """`VectorHga(dual_dga)`: the interval-cut hga on a DualCochainDga."""
    return VectorHga(dual_dga)


def _deg(x):
    return x.degree() or 0


def hom_defect_dE(inst, a, bs):
    """Defect of the differential axiom for E_k (zero iff it holds)."""
    field = inst.field
    k = len(bs)
    lhs = d_operation(lambda xs: inst.E(k, xs[0], xs[1:]), -k, inst.d,
                      inst.d, [a] + list(bs))
    # displayed right-hand side
    b1 = bs[0]
    rhs = inst.mul(b1, inst.E(k - 1, a, bs[1:])).scale(
        parity_sign(field, (_deg(a) + k - 1) * _deg(b1)))
    for m in range(1, k):
        merged = bs[:m - 1] + [inst.mul(bs[m - 1], bs[m])] + bs[m + 1:]
        rhs = rhs + inst.E(k - 1, a, merged).scale(parity_sign(field, m))
    rhs = rhs + inst.mul(inst.E(k - 1, a, bs[:-1]), bs[-1]).scale(
        parity_sign(field, k))
    return lhs - rhs


def hom_defect_product_rule(inst, a1, a2, bs):
    """Defect of E_k(a1 a2; b) = sum E_{k1}(a1;..) E_{k2}(a2;..)."""
    field = inst.field
    k = len(bs)
    lhs = inst.E(k, inst.mul(a1, a2), bs)
    rhs = None
    for k1 in range(0, k + 1):
        k2 = k - k1
        pre = sum(_deg(b) for b in bs[:k1])
        s = parity_sign(field, _deg(a2) * pre + k2 * (_deg(a1) + pre))
        term = inst.mul(inst.E(k1, a1, bs[:k1]),
                        inst.E(k2, a2, bs[k1:])).scale(s)
        rhs = term if rhs is None else rhs + term
    return lhs - rhs


def _compositions_nonneg(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first,) + rest


def hom_defect_composition(inst, a, bs, cs):
    """Defect of E_l(E_k(a;b);c) = sum (-1)^eps E_n(a; c.., E_i(b;c..), ..)."""
    field = inst.field
    k = len(bs)
    l = len(cs)
    lhs = inst.E(l, inst.E(k, a, bs), cs)
    degb = [_deg(b) for b in bs]
    degc = [_deg(c) for c in cs]
    dega = _deg(a)
    rhs = None
    for comp in _compositions_nonneg(l, 2 * k + 1):
        js = comp[0::2]
        is_ = comp[1::2]
        n = k + sum(js)
        eps = sum(is_[s] * (k + sum(js[s + 1:])) for s in range(k)) \
            + sum((t + 1) * js[t + 1] for t in range(k))
        args = []
        perm = 0
        appl = 0
        left = dega
        ci = 0
        for t in range(k + 1):
            args.extend(cs[ci:ci + js[t]])
            left += sum(degc[ci:ci + js[t]])
            ci += js[t]
            if t < k:
                perm += degb[t] * sum(degc[:ci])
                inner = cs[ci:ci + is_[t]]
                appl += is_[t] * left
                args.append(inst.E(is_[t], bs[t], inner))
                left += degb[t] + sum(degc[ci:ci + is_[t]]) - is_[t]
                ci += is_[t]
        term = inst.E(n, a, args).scale(parity_sign(field, eps + perm + appl))
        rhs = term if rhs is None else rhs + term
    return lhs - rhs


def hom_defect_dF(inst, as_, bs):
    """Defect of d(F_kl) = A_kl + (-1)^k B_kl."""
    field = inst.field
    k, l = len(as_), len(bs)
    lhs = d_operation(lambda xs: inst.F(k, l, xs[:k], xs[k:]), -k - l,
                      inst.d, inst.d, list(as_) + list(bs))

    dega = [_deg(x) for x in as_]
    degb = [_deg(x) for x in bs]
    # A_kl
    if k == 1:
        A = inst.E(l, as_[0], bs)
    else:
        A = inst.mul(as_[0], inst.F(k - 1, l, as_[1:], bs)).scale(
            parity_sign(field, (k - 1 + l) * dega[0]))
        for i in range(1, k):
            merged = as_[:i - 1] + [inst.mul(as_[i - 1], as_[i])] + as_[i + 1:]
            A = A + inst.F(k - 1, l, merged, bs).scale(parity_sign(field, i))
        for j in range(1, l + 1):
            s2 = parity_sign(field, k + dega[-1] * sum(degb[:j])
                             + (l - j) * (sum(dega[:-1]) + sum(degb[:j])))
            A = A + inst.mul(inst.F(k - 1, j, as_[:-1], bs[:j]),
                             inst.E(l - j, as_[-1], bs[j:])).scale(s2)
    # B_kl
    if l == 1:
        B = inst.E(k, bs[0], as_).scale(
            field.neg(parity_sign(field, degb[0] * sum(dega))))
    else:
        B = None
        for i in range(0, k):
            s2 = parity_sign(field, degb[0] * sum(dega)
                             + (k - i + l - 1) * (degb[0] + sum(dega[:i])))
            term = inst.mul(inst.E(i, bs[0], as_[:i]),
                            inst.F(k - i, l - 1, as_[i:], bs[1:])).scale(s2)
            B = term if B is None else B + term
        for j in range(1, l):
            merged = bs[:j - 1] + [inst.mul(bs[j - 1], bs[j])] + bs[j + 1:]
            B = B + inst.F(k, l - 1, as_, merged).scale(parity_sign(field, j))
        B = B + inst.mul(inst.F(k, l - 1, as_, bs[:-1]), bs[-1]).scale(
            parity_sign(field, l))
    return lhs - (A + B.scale(parity_sign(field, k)))


def check_hga(inst, sampler, ks=(1, 2, 3), comp_pairs=((1, 1), (1, 2), (2, 1))):
    """The three hga axiom families on sampled argument tuples."""
    rep = CheckReport(f"hga axioms for {inst.name}")
    for k in ks:
        for args in sampler(k + 1):
            rep.record(hom_defect_dE(inst, args[0], args[1:]).is_zero(),
                       ("dE", k))
    for k in ks:
        for args in sampler(k + 2):
            rep.record(hom_defect_product_rule(
                inst, args[0], args[1], args[2:]).is_zero(), ("product", k))
    for k, l in comp_pairs:
        for args in sampler(k + l + 1):
            rep.record(hom_defect_composition(
                inst, args[0], args[1:k + 1], args[k + 1:]).is_zero(),
                ("composition", k, l))
    return rep


def check_extended(inst, sampler, pairs=((1, 1), (1, 2), (2, 1), (2, 2))):
    rep = CheckReport(f"extended hga axioms for {inst.name}")
    for k, l in pairs:
        for args in sampler(k + l):
            rep.record(hom_defect_dF(inst, args[:k], args[k:]).is_zero(),
                       ("dF", k, l))
    return rep


def cup1(h, a, b):
    """a u_1 b = -E_1(a; b), for any hga `h` with `field` and `E`: a
    `VectorHga` on vectors or a `CochainHga` on functional cochains."""
    return h.E(1, a, [b]).scale(h.field.neg(h.field.one))


def cup2(h, a, b):
    """a u_2 b = -F_11(a; b), for any hga `h` with `field` and `F`."""
    return h.F(1, 1, [a], [b]).scale(h.field.neg(h.field.one))


def check_cup_identities(inst, sampler):
    """d(u1) commutator identity, Hirsch formula, and d(u2)."""
    field = inst.field
    rep = CheckReport("cup-one/cup-two identities")
    for args in sampler(2):
        a, b = args
        p, q = _deg(a), _deg(b)
        # d(cup1)(a;b) = ab - (-1)^{pq} ba; cup1 has degree -1
        lhs = d_operation(lambda xs: cup1(inst, *xs), -1, inst.d, inst.d,
                          [a, b])
        rhs = inst.mul(a, b) + inst.mul(b, a).scale(
            field.neg(parity_sign(field, p * q)))
        rep.record((lhs - rhs).is_zero(), "d(cup1)")
        # d(cup2)(a;b) = a u1 b + (-1)^{pq} b u1 a; cup2 has degree -2
        lhs2 = d_operation(lambda xs: cup2(inst, *xs), -2, inst.d, inst.d,
                           [a, b])
        rhs2 = cup1(inst, a, b) + cup1(inst, b, a).scale(
            parity_sign(field, p * q))
        rep.record((lhs2 - rhs2).is_zero(), "d(cup2)")
    for args in sampler(3):
        a, b, c = args
        p, q, r = (_deg(x) for x in args)
        lhs = cup1(inst, inst.mul(a, b), c)
        rhs = inst.mul(a, cup1(inst, b, c)).scale(parity_sign(field, p)) \
            + inst.mul(cup1(inst, a, c), b).scale(parity_sign(field, q * r))
        rep.record((lhs - rhs).is_zero(), "Hirsch")
    return rep


def gerstenhaber_bracket(inst, a, b):
    """{[a],[b]} represented by E_1(a;b) - (-1)^{(|a|-1)(|b|-1)} E_1(b;a)."""
    field = inst.field
    p, q = _deg(a), _deg(b)
    return inst.E(1, a, [b]) + inst.E(1, b, [a]).scale(
        field.neg(parity_sign(field, (p - 1) * (q - 1))))


def bracket_vanishing_witness(inst, a, b):
    """For an extended hga and cocycles a, b: the bracket representative is
    (-1)^{|a|-1} d(a u2 b); returns the defect (zero iff the identity holds)."""
    rhs = inst.d(cup2(inst, a, b)).scale(parity_sign(inst.field, _deg(a) - 1))
    return gerstenhaber_bracket(inst, a, b) - rhs


# ---------------------------------------------------------------------------
# The bar dg-bialgebra of an hga and the Kadeishvili-Saneblidze product
# ---------------------------------------------------------------------------

def braced_E(hga, a, bs):
    """(-1)^eps E_l(a; b_1, ..., b_l), eps the suspension exponent of
    (a, b_1, ..., b_l), that is l|a| + sum (l-m)|b_m| (the brace
    dictionary).  A zero argument counts as degree 0: E_l vanishes on it.
    """
    eps = suspension_exponent([_deg(x) for x in [a, *bs]])
    return hga.E(len(bs), a, bs).scale(parity_sign(hga.field, eps))


def bar_e_cochain(hga, barA):
    """The twisting cochain EE: B A (x) B A -> A of the hga product.

    EE([a]|x 1) = a, EE(1 (x) [b]) = b,
    EE([a] (x) [b_1|..|b_l]) = `braced_E`(a; b_.), zero otherwise.
    """
    field = hga.field
    source = TensorDgc(barA, barA)

    def rule(key):
        w1, w2 = key.parts
        k, l = w1.length, w2.length
        if k == 1 and l == 0:
            return GradedElement.single(field, w1.entries[0])
        if k == 0 and l == 1:
            return GradedElement.single(field, w2.entries[0])
        if k == 1 and l >= 1:
            return braced_E(hga, GradedElement.single(field, w1.entries[0]),
                            [GradedElement.single(field, e)
                             for e in w2.entries])
        return GradedElement(field)

    return TwistingCochain(source, hga.dga, rule, name="EE")


def bar_product_map(barA):
    """mu: B A (x) B A -> B A, the dgc map of the EE twisting cochain of
    the hga of A."""
    return dgc_map_from_cochain(bar_e_cochain(VectorHga(barA.A), barA), barA)


def bar_product(barA, x, y, mu=None):
    """Product of two bar elements through the dg-bialgebra structure."""
    if mu is None:
        mu = bar_product_map(barA)
    return bilinear(barA.field, lambda k1, k2: mu(Tensor((k1, k2))), x, y)


class KSAlgebra:
    """B(k, A, A') with the Kadeishvili-Saneblidze product.

    (a (x) a) o (b (x) b) = sum_m +-
        (a o [b_1|..|b_m]) (x) frakE(a; [b_{m+1}|..|b_l]) b,
    the sign being (-1)^{|a| deg[b_1..b_m]}; frakE(a; 1) = a and otherwise
    EE([a-bar], .) through the hga of A', the entries pushed into the
    coefficients along the one-sided bar's dga map `osb.f`.  The hgas of
    A and A' are each `VectorHga` of the algebra, and the bar words are
    those of the one-sided bar's one bar `osb.C`.
    """

    def __init__(self, osb):
        self.osb = osb
        self.coef_hga = VectorHga(osb.A)
        self.field = osb.field
        self._mu = None

    def mu(self):
        if self._mu is None:
            self._mu = bar_product_map(self.osb.C)
        return self._mu

    def frak_e(self, a_elem, entries):
        """frakE(a; [b_{m+1}..b_l]) with entries pushed into the coefficients."""
        if not entries:
            return a_elem
        abar = self.coef_hga.dga.reduced(a_elem)
        if abar.is_zero():
            return abar
        return braced_E(self.coef_hga, abar,
                        [self.osb.f(GradedElement.single(self.field, e))
                         for e in entries])

    def unit(self):
        return self.osb.element(self.osb.C.coaug_key,
                                self.coef_hga.dga.unit_key)

    def product_keys(self, key1, key2):
        w1, b1k = key1.parts
        w2, b2k = key2.parts
        field = self.field
        mu = self.mu()
        out = GradedElement(field)
        a_elem = GradedElement.single(field, b1k)
        l = w2.length
        for m in range(0, l + 1):
            head = self.osb.C.word(w2.entries[:m])
            tail = w2.entries[m:]
            sign = parity_sign(field, b1k.degree * head.degree)
            bars = mu(Tensor((w1, head)))
            if bars.is_zero():
                continue
            coef = self.frak_e(a_elem, tail)
            if coef.is_zero():
                continue
            coef = self.coef_hga.mul(coef, GradedElement.single(field, b2k))
            out.add_in(tensor_elements(field, bars, coef), sign)
        return out

    def product(self, x, y):
        return bilinear(self.field, self.product_keys, x, y)

    def check_dga(self, keys):
        """The two unit laws and the derivation property (the differential
        of the product vanishes) on the given keys.  Associativity is
        `check_associativity`."""
        field = self.field
        rep = CheckReport("KS product")
        unit = self.unit()
        for k in keys:
            e = GradedElement.single(field, k)
            rep.record(self.product(e, unit) == e, ("unit-r", k))
            rep.record(self.product(unit, e) == e, ("unit-l", k))
        for i, k1 in enumerate(keys):
            for k2 in keys[:max(1, len(keys) // 4)]:
                defect = d_operation(
                    lambda xs: self.product(*xs), 0, self.osb.d, self.osb.d,
                    [GradedElement.single(field, k1),
                     GradedElement.single(field, k2)])
                rep.record(defect.is_zero(), ("derivation", k1, k2))
        return rep

    def check_associativity(self, triples):
        field = self.field
        rep = CheckReport("KS associativity")
        for k1, k2, k3 in triples:
            e1, e2, e3 = (GradedElement.single(field, k) for k in (k1, k2, k3))
            lhs = self.product(self.product(e1, e2), e3)
            rhs = self.product(e1, self.product(e2, e3))
            rep.record(lhs == rhs, (k1, k2, k3))
        return rep


# ---------------------------------------------------------------------------
# The Gugenheim-May twisting cochain and small model
# ---------------------------------------------------------------------------

def gm_twisting_cochain(hga, reps):
    """t_GM on the exterior coalgebra of x_i with |x_i| = |b_i| - 1:
    t_GM(x_i) = b_i, t_GM(x_{i_1} ^ ... ^ x_{i_k}) =
    E_1(...E_1(E_1(b_{i_1}; b_{i_2}); b_{i_3}); ...; b_{i_k})."""
    field = hga.field
    degs = {}
    for name, b in reps.items():
        d = b.degree()
        if d is None or d % 2:
            raise ValueError("representatives must have even positive degree")
        degs[name] = d - 1
    coalg = FreeGcCoalgebra(field, list(degs.items()), 1)

    def rule(key):
        if not key.powers:
            return hga.zero()
        return gm_repeated_cup1(hga, [reps[n] for n, _ in key.powers])

    return TwistingCochain(coalg, hga.dga, rule, name="t_GM"), coalg


def gm_repeated_cup1(hga, reps_list):
    """E_1(...E_1(E_1(b_1; b_2); b_3)...; b_k), which is
    (-1)^{k-1} (((b_1 u1 b_2) u1 b_3) u1 ...) u1 b_k as u1 = -E_1.

    Only `hga.E` is called, so the arguments may be vectors of a
    `VectorHga` or functional cochains of a `CochainHga`."""
    out = reps_list[0]
    for b in reps_list[1:]:
        out = hga.E(1, out, [b])
    return out


def gm_small_model(hga, reps):
    """The twisted tensor Lambda(x) (x)_{t_GM} C for the small model, C
    the dga of the hga."""
    t, _ = gm_twisting_cochain(hga, reps)
    return TwistedTensor(t)
