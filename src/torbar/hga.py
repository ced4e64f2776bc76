"""Homotopy Gerstenhaber structures as data with mechanized axioms.

An hga instance provides the operations E_k (and F_kl when extended) on
some carrier of elements together with the ambient dga operations; the
axiom checkers verify the three defining identity families, the extended
differential formula, and the derived cup-one/cup-two identities, exactly,
on supplied arguments.  The bar construction of an hga becomes a dg
bialgebra; one-sided bar constructions over an hga morphism carry the
Kadeishvili-Saneblidze dga structure.
"""
from .graded import GradedElement, LinearMap, Tensor
from .dg import (CheckReport, TwistingCochain, TensorDgc, ExteriorCoalgebra,
                 TwistedTensor)
from .bar import BarWord, dgc_map_from_cochain


class VectorHga:
    """Adapter: an hga on GradedElement vectors (e.g. DualCochainDga, or a
    commutative dga with trivial operations)."""

    def __init__(self, dga, E=None, F=None, name="hga"):
        self.dga = dga
        self.field = dga.field
        self.name = name
        self._E = E
        self._F = F

    def zero(self):
        return self.dga.zero()

    def d(self, x):
        return self.dga.d(x)

    def mul(self, x, y):
        return self.dga.mul(x, y)

    def add(self, x, y):
        return x + y

    def scale(self, x, c):
        return x.scale(c)

    def deg(self, x):
        return x.degree()

    def is_zero(self, x):
        return x.is_zero()

    def E(self, k, a, bs):
        if k == 0:
            return a
        if self._E is None:
            return self.dga.zero()
        return self._E(k, a, bs)

    def F(self, k, l, as_, bs):
        if self._F is None:
            return self.dga.zero()
        return self._F(k, l, as_, bs)


def trivial_hga(dga):
    """Any commutative dga is an hga with all operations zero."""
    if not dga.commutative:
        raise ValueError("the trivial hga structure needs a commutative dga")
    return VectorHga(dga, name=f"trivial({type(dga).__name__})")


def dual_cochain_hga(dual_dga):
    """The interval-cut hga on a DualCochainDga."""
    return VectorHga(dual_dga,
                     E=lambda k, a, bs: dual_dga.E(k, a, bs),
                     F=lambda k, l, as_, bs: dual_dga.F(k, l, as_, bs),
                     name="C*(X)")


class FunctionalHga:
    """Adapter: the interval-cut hga on functional cochains of a space.

    `probes(degree)` supplies the evaluation keys that decide zero-ness;
    exact arithmetic makes each decided evaluation conclusive.
    """

    def __init__(self, space, probes, name="C*(X)"):
        from .simplicial import CochainHga
        self.space = space
        self.field = space.field
        self.core = CochainHga(space)
        self.probes = probes
        self.name = name

    def d(self, x):
        return self.core.d(x)

    def mul(self, x, y):
        return self.core.mul(x, y)

    def add(self, x, y):
        return x.add(y)

    def scale(self, x, c):
        return x.scale(c)

    def deg(self, x):
        return x.degree

    def is_zero(self, x):
        if x.degree < 0:
            return True
        for key in self.probes(x.degree):
            if x(key) != self.field.zero:
                return False
        return True

    def E(self, k, a, bs):
        return self.core.E(k, a, bs)

    def F(self, k, l, as_, bs):
        return self.core.F(k, l, as_, bs)


def _sgn(field, e):
    return field.neg(field.one) if e % 2 else field.one


def _deg(inst, x):
    d = inst.deg(x)
    return 0 if d is None else d


def _prefix(inst, args):
    pre = [0]
    for a in args:
        pre.append(pre[-1] + _deg(inst, a))
    return pre


def hom_defect_dE(inst, a, bs):
    """Defect of the differential axiom for E_k (zero iff it holds)."""
    field = inst.field
    k = len(bs)
    args = [a] + list(bs)
    pre = _prefix(inst, args)
    lhs = inst.d(inst.E(k, a, bs))
    s = _sgn(field, k + 1)  # -(-1)^{|E_k|} = -(-1)^{-k}
    for i, x in enumerate(args):
        dx = inst.d(x)
        newargs = args[:i] + [dx] + args[i + 1:]
        term = inst.E(k, newargs[0], newargs[1:])
        lhs = inst.add(lhs, inst.scale(term, field.mul(s, _sgn(field, pre[i]))))
    # displayed right-hand side
    b1 = bs[0]
    rhs = inst.scale(inst.mul(b1, inst.E(k - 1, a, bs[1:])),
                     _sgn(field, (_deg(inst, a) + k - 1) * _deg(inst, b1)))
    for m in range(1, k):
        merged = bs[:m - 1] + [inst.mul(bs[m - 1], bs[m])] + bs[m + 1:]
        rhs = inst.add(rhs, inst.scale(inst.E(k - 1, a, merged), _sgn(field, m)))
    rhs = inst.add(rhs, inst.scale(inst.mul(inst.E(k - 1, a, bs[:-1]), bs[-1]),
                                   _sgn(field, k)))
    return inst.add(lhs, inst.scale(rhs, field.neg(field.one)))


def hom_defect_product_rule(inst, a1, a2, bs):
    """Defect of E_k(a1 a2; b) = sum E_{k1}(a1;..) E_{k2}(a2;..)."""
    field = inst.field
    k = len(bs)
    lhs = inst.E(k, inst.mul(a1, a2), bs)
    rhs = None
    for k1 in range(0, k + 1):
        k2 = k - k1
        pre = sum(_deg(inst, b) for b in bs[:k1])
        s = _sgn(field, _deg(inst, a2) * pre + k2 * (_deg(inst, a1) + pre))
        term = inst.scale(inst.mul(inst.E(k1, a1, bs[:k1]),
                                   inst.E(k2, a2, bs[k1:])), s)
        rhs = term if rhs is None else inst.add(rhs, term)
    return inst.add(lhs, inst.scale(rhs, field.neg(field.one)))


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
    degb = [_deg(inst, b) for b in bs]
    degc = [_deg(inst, c) for c in cs]
    dega = _deg(inst, a)
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
        term = inst.scale(inst.E(n, a, args), _sgn(field, eps + perm + appl))
        rhs = term if rhs is None else inst.add(rhs, term)
    return inst.add(lhs, inst.scale(rhs, field.neg(field.one)))


def hom_defect_dF(inst, as_, bs):
    """Defect of d(F_kl) = A_kl + (-1)^k B_kl."""
    field = inst.field
    k, l = len(as_), len(bs)
    args = list(as_) + list(bs)
    pre = _prefix(inst, args)
    lhs = inst.d(inst.F(k, l, as_, bs))
    s = _sgn(field, k + l + 1)
    for i, x in enumerate(args):
        dx = inst.d(x)
        new = args[:i] + [dx] + args[i + 1:]
        term = inst.F(k, l, new[:k], new[k:])
        lhs = inst.add(lhs, inst.scale(term, field.mul(s, _sgn(field, pre[i]))))

    dega = [_deg(inst, x) for x in as_]
    degb = [_deg(inst, x) for x in bs]
    # A_kl
    if k == 1:
        A = inst.E(l, as_[0], bs)
    else:
        A = inst.scale(inst.mul(as_[0], inst.F(k - 1, l, as_[1:], bs)),
                       _sgn(field, (k - 1 + l) * dega[0]))
        for i in range(1, k):
            merged = as_[:i - 1] + [inst.mul(as_[i - 1], as_[i])] + as_[i + 1:]
            A = inst.add(A, inst.scale(inst.F(k - 1, l, merged, bs),
                                       _sgn(field, i)))
        for j in range(1, l + 1):
            s2 = _sgn(field, k + dega[-1] * sum(degb[:j])
                      + (l - j) * (sum(dega[:-1]) + sum(degb[:j])))
            A = inst.add(A, inst.scale(
                inst.mul(inst.F(k - 1, j, as_[:-1], bs[:j]),
                         inst.E(l - j, as_[-1], bs[j:])), s2))
    # B_kl
    if l == 1:
        B = inst.scale(inst.E(k, bs[0], as_),
                       field.neg(_sgn(field, degb[0] * sum(dega))))
    else:
        B = None
        for i in range(0, k):
            s2 = _sgn(field, degb[0] * sum(dega)
                      + (k - i + l - 1) * (degb[0] + sum(dega[:i])))
            term = inst.scale(inst.mul(inst.E(i, bs[0], as_[:i]),
                                       inst.F(k - i, l - 1, as_[i:], bs[1:])), s2)
            B = term if B is None else inst.add(B, term)
        for j in range(1, l):
            merged = bs[:j - 1] + [inst.mul(bs[j - 1], bs[j])] + bs[j + 1:]
            B = inst.add(B, inst.scale(inst.F(k, l - 1, as_, merged),
                                       _sgn(field, j)))
        B = inst.add(B, inst.scale(inst.mul(inst.F(k, l - 1, as_, bs[:-1]),
                                            bs[-1]), _sgn(field, l)))
    rhs = inst.add(A, inst.scale(B, _sgn(field, k)))
    return inst.add(lhs, inst.scale(rhs, field.neg(field.one)))


def check_hga(inst, sampler, ks=(1, 2, 3), comp_pairs=((1, 1), (1, 2), (2, 1)),
              name=None):
    """The three hga axiom families on sampled argument tuples."""
    rep = CheckReport(name or f"hga axioms for {inst.name}")
    for k in ks:
        for args in sampler(k + 1):
            rep.record(inst.is_zero(hom_defect_dE(inst, args[0], args[1:])),
                       ("dE", k))
    for k in ks:
        for args in sampler(k + 2):
            rep.record(inst.is_zero(
                hom_defect_product_rule(inst, args[0], args[1], args[2:])),
                ("product", k))
    for k, l in comp_pairs:
        for args in sampler(k + l + 1):
            rep.record(inst.is_zero(
                hom_defect_composition(inst, args[0], args[1:k + 1],
                                       args[k + 1:])), ("composition", k, l))
    return rep


def check_extended(inst, sampler, pairs=((1, 1), (1, 2), (2, 1), (2, 2)),
                   name=None):
    rep = CheckReport(name or f"extended hga axioms for {inst.name}")
    for k, l in pairs:
        for args in sampler(k + l):
            rep.record(inst.is_zero(hom_defect_dF(inst, args[:k], args[k:])),
                       ("dF", k, l))
    return rep


def check_cup_identities(inst, sampler, name=None):
    """d(u1) commutator identity, Hirsch formula, and d(u2)."""
    field = inst.field
    rep = CheckReport(name or "cup-one/cup-two identities")

    def cup1(x, y):
        return inst.scale(inst.E(1, x, [y]), field.neg(field.one))

    def cup2(x, y):
        return inst.scale(inst.F(1, 1, [x], [y]), field.neg(field.one))

    for args in sampler(2):
        a, b = args
        p, q = _deg(inst, a), _deg(inst, b)
        lhs = inst.d(cup1(a, b))
        lhs = inst.add(lhs, cup1(inst.d(a), b))
        lhs = inst.add(lhs, inst.scale(cup1(a, inst.d(b)), _sgn(field, p)))
        rhs = inst.add(inst.mul(a, b),
                       inst.scale(inst.mul(b, a),
                                  field.neg(_sgn(field, p * q))))
        rep.record(inst.is_zero(
            inst.add(lhs, inst.scale(rhs, field.neg(field.one)))), "d(cup1)")
        # d(cup2)(a;b) = a u1 b + (-1)^{pq} b u1 a; cup2 has even degree -2,
        # so its terms enter as in hom_defect_dF, with a minus sign
        lhs2 = inst.d(cup2(a, b))
        lhs2 = inst.add(lhs2, inst.scale(cup2(inst.d(a), b),
                                         field.neg(field.one)))
        lhs2 = inst.add(lhs2, inst.scale(cup2(a, inst.d(b)),
                                         field.neg(_sgn(field, p))))
        rhs2 = inst.add(cup1(a, b), inst.scale(cup1(b, a), _sgn(field, p * q)))
        rep.record(inst.is_zero(
            inst.add(lhs2, inst.scale(rhs2, field.neg(field.one)))), "d(cup2)")
    for args in sampler(3):
        a, b, c = args
        p, q, r = (_deg(inst, x) for x in args)
        lhs = cup1(inst.mul(a, b), c)
        rhs = inst.add(
            inst.scale(inst.mul(a, cup1(b, c)), _sgn(field, p)),
            inst.scale(inst.mul(cup1(a, c), b), _sgn(field, q * r)))
        rep.record(inst.is_zero(
            inst.add(lhs, inst.scale(rhs, field.neg(field.one)))), "Hirsch")
    return rep


def gerstenhaber_bracket(inst, a, b):
    """{[a],[b]} represented by E_1(a;b) - (-1)^{(|a|-1)(|b|-1)} E_1(b;a)."""
    field = inst.field
    p, q = _deg(inst, a), _deg(inst, b)
    return inst.add(inst.E(1, a, [b]),
                    inst.scale(inst.E(1, b, [a]),
                               field.neg(_sgn(field, (p - 1) * (q - 1)))))


def bracket_vanishing_witness(inst, a, b):
    """For an extended hga and cocycles a, b: the bracket representative is
    (-1)^{|a|-1} d(a u2 b); returns the defect (zero iff the identity holds)."""
    field = inst.field
    p = _deg(inst, a)
    cup2ab = inst.scale(inst.F(1, 1, [a], [b]), field.neg(field.one))
    rhs = inst.scale(inst.d(cup2ab), _sgn(field, p - 1))
    return inst.add(gerstenhaber_bracket(inst, a, b),
                    inst.scale(rhs, field.neg(field.one)))


# ---------------------------------------------------------------------------
# The bar dg-bialgebra of an hga and the Kadeishvili-Saneblidze product
# ---------------------------------------------------------------------------

def bar_e_cochain(hga, barA):
    """The twisting cochain EE: B A (x) B A -> A of the hga product.

    EE([a]|x 1) = a, EE(1 (x) [b]) = b,
    EE([a] (x) [b_1|..|b_l]) = (-1)^eps E_l(a; b_.),
    eps = l |a| + sum (l-m)|b_m| (the brace dictionary), zero otherwise.
    """
    A = hga.dga if isinstance(hga, VectorHga) else None
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
            a = GradedElement.single(field, w1.entries[0])
            bs = [GradedElement.single(field, e) for e in w2.entries]
            dega = w1.entries[0].degree
            eps = l * dega + sum((l - m - 1) * w2.entries[m].degree
                                 for m in range(l))
            return hga.E(l, a, bs).scale(_sgn(field, eps))
        return GradedElement(field)

    return TwistingCochain(source, A if A is not None else hga,
                           LinearMap(field, 1, rule, name="EE"), name="EE")


def bar_product_map(hga, barA):
    """mu: B A (x) B A -> B A, the dgc map of the EE twisting cochain."""
    t = bar_e_cochain(hga, barA)
    return dgc_map_from_cochain(t, barA), t


def bar_product(hga, barA, x, y, mu=None):
    """Product of two bar elements through the dg-bialgebra structure."""
    field = hga.field
    if mu is None:
        mu, _ = bar_product_map(hga, barA)
    out = GradedElement(field)
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            out.add_in(mu(Tensor((k1, k2))), field.mul(c1, c2))
    return out


class KSAlgebra:
    """B(k, A, A') with the Kadeishvili-Saneblidze product.

    (a (x) a) o (b (x) b) = sum_m +-
        (a o [b_1|..|b_m]) (x) frakE(a; [b_{m+1}|..|b_l]) b,
    the sign being (-1)^{|a| deg[b_1..b_m]}; frakE(a; 1) = a and otherwise
    EE([a-bar], .) through the coefficient hga, entries pushed along the
    structure map of the one-sided bar.
    """

    def __init__(self, osb, base_hga, coef_hga, push=None):
        self.osb = osb
        self.base_hga = base_hga
        self.coef_hga = coef_hga
        self.push = push or (lambda x: x)
        self.field = osb.field
        self._mu = None

    def mu(self):
        if self._mu is None:
            self._mu, _ = bar_product_map(self.base_hga, self.osb.barA)
        return self._mu

    def frak_e(self, a_elem, entries):
        """frakE(a; [b_{m+1}..b_l]) with entries pushed into the coefficients."""
        coef = self.coef_hga
        field = self.field
        l = len(entries)
        if l == 0:
            return a_elem
        abar = coef.dga.reduced(a_elem)
        bs = [self.push(GradedElement.single(field, e)) for e in entries]
        dega = abar.degree()
        if dega is None:
            return coef.dga.zero()
        eps = l * dega + sum((l - m - 1) * entries[m].degree
                             for m in range(l))
        return coef.E(l, abar, bs).scale(_sgn(field, eps))

    def unit(self):
        return self.osb.element(BarWord(()), self.coef_hga.dga.unit_key)

    def product_keys(self, key1, key2):
        w1, b1k = key1.parts
        w2, b2k = key2.parts
        field = self.field
        mu = self.mu()
        out = GradedElement(field)
        a_elem = GradedElement.single(field, b1k)
        l = w2.length
        for m in range(0, l + 1):
            head = BarWord(w2.entries[:m])
            tail = w2.entries[m:]
            sign = _sgn(field, b1k.degree * head.degree)
            bars = mu(Tensor((w1, head)))
            if bars.is_zero():
                continue
            coef = self.frak_e(a_elem, tail)
            if coef.is_zero():
                continue
            coef = self.coef_hga.mul(coef, GradedElement.single(field, b2k))
            for kw, cw in bars.terms.items():
                for kc, cc in coef.terms.items():
                    out.add_in(GradedElement.single(
                        field, self.osb.key(kw, kc)),
                        field.mul(sign, field.mul(cw, cc)))
        return out

    def product(self, x, y):
        field = self.field
        out = GradedElement(field)
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                out.add_in(self.product_keys(k1, k2), field.mul(c1, c2))
        return out

    def check_dga(self, keys, name="KS product"):
        """Associativity, unit, derivation property on the given keys."""
        field = self.field
        rep = CheckReport(name)
        unit = self.unit()
        for k in keys:
            e = GradedElement.single(field, k)
            rep.record(self.product(e, unit) == e, ("unit-r", k))
            rep.record(self.product(unit, e) == e, ("unit-l", k))
        for i, k1 in enumerate(keys):
            for k2 in keys[:max(1, len(keys) // 4)]:
                e1 = GradedElement.single(field, k1)
                e2 = GradedElement.single(field, k2)
                lhs = self.osb.d(self.product(e1, e2))
                rhs = self.product(self.osb.d(e1), e2)
                sgn = _sgn(field, k1.degree)
                rhs.add_in(self.product(e1, self.osb.d(e2)), sgn)
                rep.record(lhs == rhs, ("derivation", k1, k2))
        return rep

    def check_associativity(self, triples, name="KS associativity"):
        field = self.field
        rep = CheckReport(name)
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
        d = hga.deg(b) if hasattr(hga, "deg") else b.degree()
        if d is None or d % 2:
            raise ValueError("representatives must have even positive degree")
        degs[name] = d - 1
    coalg = ExteriorCoalgebra(field, list(degs.items()), ddeg=1)

    def rule(key):
        names = [n for n, _ in key.powers]
        if not names:
            return hga.zero()
        out = reps[names[0]]
        for n in names[1:]:
            out = hga.E(1, out, [reps[n]])
        return out

    target = hga.dga if isinstance(hga, VectorHga) else hga
    return TwistingCochain(coalg, target, LinearMap(field, 1, rule,
                                                    name="t_GM"), name="t_GM"), coalg


def gm_repeated_cup1(hga, reps_list):
    """(-1)^{k-1} (((b_1 u1 b_2) u1 b_3) u1 ...) u1 b_k."""
    field = hga.field
    out = reps_list[0]
    for b in reps_list[1:]:
        out = hga.scale(hga.E(1, out, [b]), field.neg(field.one))
    k = len(reps_list)
    return hga.scale(out, _sgn(field, k - 1))


def gm_small_model(hga, reps, coef_dga):
    """The twisted tensor Lambda(x) (x)_{t_GM} C for the small model."""
    t, coalg = gm_twisting_cochain(hga, reps)
    return TwistedTensor(coalg, coef_dga, t)
