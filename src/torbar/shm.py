"""Strongly homotopy multiplicative maps as twisting families.

A twisting family f_(n): A^{(x)n} -> B of degree 1-n is the component form
of a twisting cochain B A -> B.  Families are the primary representation;
bar-level dgc maps are derived views, and composition is performed at the
cochain level (g o f = g . Bf), which keeps all signs inside the two
conversions between families and cochains: `_cochain_rule` (family to
cochain, for families and homotopy families alike) and `_add_word_values`
(cochain to family).  Both take their sign from
`graded.suspension_exponent`.  The displayed component formulas are
implemented separately and used as cross-checks in the test suite.
"""
from .graded import (GradedElement, LinearMap, d_operation, expand,
                     interleave_exponent, parity_sign, prefix_degrees,
                     suspension_exponent, tensor_elements)
from .dg import CheckReport, TwistingCochain, HomAlgebra
from .bar import BarDgc, dgc_map_from_cochain


def _add_word_values(out, barA, t, args):
    """Add to `out` the value of t on [a_1|...|a_n], expanded over the
    pure terms of the reduced arguments with each word's suspension sign;
    the words are those of `barA`."""
    A = barA.A
    field = A.field
    for keys, c in expand(field, (A.reduced(a) for a in args)):
        eps = suspension_exponent([k.degree for k in keys])
        out.add_in(t(barA.word(keys)), field.mul(c, parity_sign(field, eps)))
    return out


def _cochain_rule(fam):
    """The cochain B A -> B of a family or a homotopy family: f_(n) on
    length-n words with the suspension sign.  The empty word goes to
    f_(0), which is zero for a family and the unit for a homotopy."""
    field = fam.A.field

    def rule(key):
        eps = suspension_exponent([k.degree for k in key.entries])
        args = [GradedElement.single(field, k) for k in key.entries]
        return fam(key.length, args).scale(parity_sign(field, eps))

    return rule


class TwistingFamily:
    """Multilinear components f_(n): A^{(x)n} -> B, degree 1 - n.

    `component(n, args)` consumes a list of homogeneous GradedElements.
    Normalization (vanishing on unit arguments for n >= 2, f_(1)(1) = 1)
    is the component implementations' responsibility; the constructors
    below guarantee it.
    """

    def __init__(self, A, B, component, name="f"):
        self.A = A
        self.B = B
        self.name = name
        self._component = component

    def __call__(self, n, args):
        if n == 0:
            return self.B.zero()
        if any(a.is_zero() for a in args):
            return self.B.zero()
        return self._component(n, args)

    def degree(self, n):
        return 1 - n

    @classmethod
    def strict(cls, A, B, fmap, name="f"):
        """The strict family of a dga morphism (element map)."""

        def component(n, args):
            if n != 1:
                return B.zero()
            return fmap(args[0])

        return cls(A, B, component, name=name)

    @classmethod
    def from_cochain(cls, barA, B, t, name=None):
        """Family of a twisting cochain B A -> B via the standard signs."""
        A = barA.A
        field = A.field

        def component(n, args):
            out = B.zero()
            if n == 1:
                s = A.aug(args[0])
                if s != field.zero:
                    out.add_in(B.one(), s)
            return _add_word_values(out, barA, t, args)

        return cls(A, B, component, name=name or t.name)

    def to_cochain(self, barA):
        """The twisting cochain B A -> B of this family."""
        return TwistingCochain(barA, self.B,
                               LinearMap(self.A.field, 1, _cochain_rule(self)),
                               name=self.name)

    def bar_map(self, barA=None, barB=None):
        """The dgc map B A -> B B induced by the family."""
        barA = barA or BarDgc(self.A)
        barB = barB or BarDgc(self.B)
        return dgc_map_from_cochain(self.to_cochain(barA), barB)


class TwistingHomotopyFamily:
    """Components h_(n): A^{(x)n} -> B of degree -n with h_(0) = eta_B,
    joining the twisting families `source` (f) and `target` (g)."""

    def __init__(self, A, B, component, source, target, name="h"):
        self.A = A
        self.B = B
        self.name = name
        self.source = source
        self.target = target
        self._component = component

    def __call__(self, n, args):
        if n == 0:
            return self.B.one()
        if any(a.is_zero() for a in args):
            return self.B.zero()
        return self._component(n, args)

    def degree(self, n):
        return -n

    @classmethod
    def from_cochain(cls, barA, B, h_map, source, target, name="h"):
        """Homotopy family of a twisting homotopy cochain h: B A -> B.

        h_(n) = h restricted to length-n words (degree -n); the sign
        bookkeeping matches the family case with shifted degree.
        """
        A = barA.A

        def component(n, args):
            return _add_word_values(B.zero(), barA, h_map, args)

        return cls(A, B, component, source, target, name=name)

    def to_cochain(self, barA):
        from .dg import TwistingHomotopy
        return TwistingHomotopy(barA, self.B,
                                LinearMap(self.A.field, 0, _cochain_rule(self)),
                                self.source.to_cochain(barA),
                                self.target.to_cochain(barA), name=self.name)

    def bar_homotopy(self, barA=None, barB=None):
        """Coalgebra homotopy H: B A -> B B with B(source) ~ B(target).

        H(c) = sum of words [f(c_1)|..|h-slot(c_i)|..|g(c_k)] with the sign
        (-1)^{|c_1|+...+|c_{i-1}|} of the degree -1 slot.
        """
        barA = barA or BarDgc(self.A)
        barB = barB or BarDgc(self.B)
        field = self.A.field
        tf = self.source.to_cochain(barA)
        tg = self.target.to_cochain(barA)
        h = self.to_cochain(barA).map
        unit = HomAlgebra(barA, self.B).unit()
        hbar = h - unit

        def rule(key):
            out = GradedElement(field)
            for level in barA.reduced_cop_levels(key):
                for c, keys in level:
                    pre = 0
                    for i in range(len(keys)):
                        vals = [tf(k) for k in keys[:i]]
                        vals.append(hbar(keys[i]))
                        vals.extend(tg(k) for k in keys[i + 1:])
                        w = barB.words_from_elements(vals)
                        # slot sign (-1)^{pre+1}: fixed by the identity
                        # d H + H d = B(source) - B(target)
                        out.add_in(w, field.mul(
                            c, parity_sign(field, pre + 1)))
                        pre += keys[i].degree
            return out

        return LinearMap(field, -1, rule, name=f"B<{self.name}>")


# ---------------------------------------------------------------------------
# Axiom checkers (the Koszul-expanded displayed identities)
# ---------------------------------------------------------------------------

def family_defect(f, args):
    """d(f_(n))(a) minus its prescribed value; zero iff the axiom holds."""
    A, B = f.A, f.B
    field = A.field
    n = len(args)
    pre = prefix_degrees(args)
    lhs = d_operation(lambda xs: f(n, xs), f.degree(n), A.d, B.d, args)
    rhs = B.zero()
    for k in range(1, n):
        s1 = parity_sign(field, k + (n - k - 1) * pre[k])
        rhs.add_in(B.mul(f(k, args[:k]), f(n - k, args[k:])), s1)
        merged = args[:k - 1] + [A.mul(args[k - 1], args[k])] + args[k + 1:]
        rhs.add_in(f(n - 1, merged), parity_sign(field, k + 1))
    return lhs - rhs


def check_family(f, sampler, ns=(1, 2, 3, 4)):
    rep = CheckReport(f"family axiom for {f.name}")
    for n in ns:
        for args in sampler(n):
            rep.record(family_defect(f, list(args)).is_zero(), (n, args))
    return rep


def homotopy_family_defect(h, args):
    """Defect of the twisting-homotopy-family identity at the given args."""
    A, B = h.A, h.B
    f, g = h.source, h.target
    field = A.field
    n = len(args)
    pre = prefix_degrees(args)
    lhs = d_operation(lambda xs: h(n, xs), h.degree(n), A.d, B.d, args)
    rhs = B.zero()
    for k in range(1, n):
        merged = args[:k - 1] + [A.mul(args[k - 1], args[k])] + args[k + 1:]
        rhs.add_in(h(n - 1, merged), parity_sign(field, k))
    for k in range(0, n + 1):
        if k > 0:
            fk = f(k, args[:k])
            if not fk.is_zero():
                rhs.add_in(B.mul(fk, h(n - k, args[k:])),
                           parity_sign(field, (n - k) * pre[k]))
        if n - k > 0:
            hk = h(k, args[:k])
            if not hk.is_zero():
                gk = g(n - k, args[k:])
                if not gk.is_zero():
                    rhs.add_in(B.mul(hk, gk), parity_sign(
                        field, k + 1 + (n - k + 1) * pre[k]))
    return lhs - rhs


def check_homotopy_family(h, sampler, ns=(1, 2, 3, 4)):
    rep = CheckReport(f"homotopy family axiom for {h.name}")
    for n in ns:
        for args in sampler(n):
            rep.record(homotopy_family_defect(h, list(args)).is_zero(),
                       (n, args))
    return rep


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(g, f, name=None):
    """g o f as a twisting family, computed as the cochain g . B f.

    The target of f and the source of g must present the same algebra
    (structurally; distinct equal instances are accepted)."""
    if f.B.field != g.A.field:
        raise ValueError("compose: field mismatch between f and g")
    barA = BarDgc(f.A)
    barB = BarDgc(f.B)
    bf = f.bar_map(barA, barB)
    tg = g.to_cochain(barB)
    t = TwistingCochain(barA, g.B, tg.map @ bf, name=name or f"{g.name}o{f.name}")
    return TwistingFamily.from_cochain(barA, g.B, t, name=t.name)


def compose_component_formula(g, f, n, args):
    """The displayed component expansion of (g o f)_(n), for cross-checks:
    sum over decompositions n = i_1+...+i_k of
    (-1)^{eps} g_(k)(f_(i_1)(...),...,f_(i_k)(...)),
    eps = sum (k-s)(i_s - 1) plus the Koszul application signs."""
    field = f.A.field
    out = g.B.zero()
    pre = prefix_degrees(args)
    for comp in _compositions(n):
        k = len(comp)
        eps = sum((k - (s + 1)) * (comp[s] - 1) for s in range(k))
        appl = 0
        pos = 0
        vals = []
        for s in range(k):
            i_s = comp[s]
            appl += (1 - i_s) * pre[pos]
            vals.append(f(i_s, args[pos:pos + i_s]))
            pos += i_s
        out.add_in(g(k, vals), parity_sign(field, eps + appl))
    return out


def _compositions(total):
    """All tuples of positive integers summing to `total`, in order."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def compose_homotopy_map(h, m):
    """h o m for an shm homotopy h and an shm map m (precomposition)."""
    barA = BarDgc(m.A)
    barB = BarDgc(m.B)
    bm = m.bar_map(barA, barB)
    hc = h.to_cochain(barB)
    rule = hc.map @ bm
    return TwistingHomotopyFamily.from_cochain(
        barA, h.B, rule, compose(h.source, m), compose(h.target, m),
        name=f"{h.name}o{m.name}")


def compose_map_homotopy(m, h):
    """m o h for an shm map m and an shm homotopy h (postcomposition).

    The twisting homotopy of a coalgebra homotopy K is unit - t o K in our
    conventions (pinned by the d H + H d identity test).
    """
    barA = BarDgc(h.A)
    barB = BarDgc(h.B)
    H = h.bar_homotopy(barA, barB)
    tm = m.to_cochain(barB)
    rule = HomAlgebra(barA, m.B).unit() - tm.map @ H
    return TwistingHomotopyFamily.from_cochain(
        barA, m.B, rule, compose(m, h.source), compose(m, h.target),
        name=f"{m.name}o{h.name}")


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def tensor_with_strict(f, gmap, T_source, T_target, side="right", name=None):
    """f (x) g for a (homotopy) family f and a strict dga map g.

    side="right": (f (x) g)_(n)(a (x) b) = +- f_(n)(a_.) (x) g(mu^[n](b_.));
    side="left": the mirror g mu^[n](a_.) (x) f_(n)(b_.).  Works for both
    twisting families and twisting homotopy families (the Koszul signs use
    f.degree(n)).
    """
    field = T_source.field

    def component(n, args):
        out = T_target.zero()
        for keys, c in expand(field, args):
            slots = [k.parts for k in keys]
            a_elems = [GradedElement.single(field, ka) for ka, _ in slots]
            b_elems = [GradedElement.single(field, kb) for _, kb in slots]
            e = interleave_exponent([ka.degree for ka, _ in slots],
                                    [kb.degree for _, kb in slots])
            if side == "right":
                fa = f(n, a_elems)
                gb = gmap(T_source.B.mul_many(b_elems))
                out.add_in(T_target.pair(fa, gb),
                           field.mul(c, parity_sign(field, e)))
            else:
                ga = gmap(T_source.A.mul_many(a_elems))
                fb = f(n, b_elems)
                # f_(n) applied past the whole a-block
                e += f.degree(n) * sum(ka.degree for ka, _ in slots)
                out.add_in(T_target.pair(ga, fb),
                           field.mul(c, parity_sign(field, e)))
        return out

    if isinstance(f, TwistingHomotopyFamily):
        src = tensor_with_strict(f.source, gmap, T_source, T_target, side)
        tgt = tensor_with_strict(f.target, gmap, T_source, T_target, side)
        return TwistingHomotopyFamily(T_source, T_target, component, src, tgt,
                                      name=name or f"{f.name}(x)strict")
    return TwistingFamily(T_source, T_target, component,
                          name=name or f"{f.name}(x)strict")


def tensor_shm(f, g, T_source, T_target):
    """f (x) g := (f (x) 1) o (1 (x) g) for twisting families f, g."""
    from .dg import TensorDga
    mid = TensorDga(f.A, g.B)
    left = tensor_with_strict(f, lambda x: x, mid, T_target, side="right",
                              name=f"{f.name}(x)1")
    right = tensor_with_strict(g, lambda x: x, T_source, mid, side="left",
                               name=f"1(x){g.name}")
    return compose(left, right, name=f"{f.name}(x){g.name}")


def tensor_shm_other_order(f, g, T_source, T_target):
    """(1 (x) g) o (f (x) 1), the other composition."""
    from .dg import TensorDga
    mid = TensorDga(f.B, g.A)
    left = tensor_with_strict(g, lambda x: x, mid, T_target, side="left")
    right = tensor_with_strict(f, lambda x: x, T_source, mid, side="right")
    return compose(left, right)


def tensor_homotopy(f, g, T_source, T_target):
    """The explicit homotopy from (1 (x) g) o (f (x) 1) to (f (x) 1) o (1 (x) g).

    h_(0) = eta (x) eta and for n >= 1
      h_(n)(a (x) b) = sum over decompositions i_1+..+i_k + j_1+..+j_l = n
      of (-1)^eps F (x) G, with
      F = mu^[k](f_(i_1)(a),...,f_(i_{k-1})(a),
                 f_(i_k+l)(a, mu^[j_1](a),...,mu^[j_l](a))),
      G = mu^[l](g_(k+j_1)(mu^[i_1](b),...,mu^[i_k](b), b), g_(j_2)(b),...),
      eps = sum_s s(i_s - 1) + sum_t (l-t)(j_t - 1) + k(l-1) + 1
    plus the mechanical Koszul signs.
    """
    A, Ap = f.A, f.B
    B, Bp = g.A, g.B
    field = A.field

    def component(n, args):
        out = T_target.zero()
        for keys, cc in expand(field, args):
            slots = [k.parts for k in keys]
            adegs = [ka.degree for ka, _ in slots]
            bdegs = [kb.degree for _, kb in slots]
            a_el = [GradedElement.single(field, ka) for ka, _ in slots]
            b_el = [GradedElement.single(field, kb) for _, kb in slots]
            uninterleave = interleave_exponent(adegs, bdegs)
            for k, l, comp_i, comp_j in _hn_index_set(n):
                eps = sum((s + 1) * (comp_i[s] - 1) for s in range(k)) \
                    + sum((l - (t + 1)) * (comp_j[t] - 1) for t in range(l)) \
                    + k * (l - 1) + 1
                # F side -----------------------------------------------
                pos = 0
                fvals = []
                appl_f = 0
                apre = [0]
                for d in adegs:
                    apre.append(apre[-1] + d)
                for s in range(k - 1):
                    i_s = comp_i[s]
                    appl_f += (1 - i_s) * apre[pos]
                    fvals.append(f(i_s, a_el[pos:pos + i_s]))
                    pos += i_s
                i_k = comp_i[k - 1]
                appl_f += (1 - i_k - l) * apre[pos]
                last_args = a_el[pos:pos + i_k]
                pos += i_k
                for t in range(l):
                    j_t = comp_j[t]
                    last_args.append(A.mul_many(a_el[pos:pos + j_t]))
                    pos += j_t
                fvals.append(f(i_k + l, last_args))
                F = Ap.mul_many(fvals)
                if F.is_zero():
                    continue
                # G side -----------------------------------------------
                bpre = [0]
                for d in bdegs:
                    bpre.append(bpre[-1] + d)
                pos = 0
                gargs = []
                for s in range(k):
                    i_s = comp_i[s]
                    gargs.append(B.mul_many(b_el[pos:pos + i_s]))
                    pos += i_s
                j_1 = comp_j[0]
                gargs.extend(b_el[pos:pos + j_1])
                appl_g = 0  # first g-map is leftmost on the b sequence
                gvals = [g(k + j_1, gargs)]
                pos += j_1
                for t in range(1, l):
                    j_t = comp_j[t]
                    appl_g += (1 - j_t) * bpre[pos]
                    gvals.append(g(j_t, b_el[pos:pos + j_t]))
                    pos += j_t
                G = Bp.mul_many(gvals)
                if G.is_zero():
                    continue
                # (F_map (x) G_map)(a-block (x) b-block)
                gmap_parity = (l + k + sum(comp_j)) % 2
                cross = gmap_parity * apre[-1]
                sign = parity_sign(
                    field, eps + uninterleave + appl_f + appl_g + cross)
                out.add_in(T_target.pair(F, G), field.mul(cc, sign))
        return out

    source = tensor_shm_other_order(f, g, T_source, T_target)
    target = tensor_shm(f, g, T_source, T_target)
    return TwistingHomotopyFamily(T_source, T_target, component,
                                  source, target,
                                  name=f"h({f.name},{g.name})")


def _hn_index_set(n):
    """All (k, l, (i_1..i_k), (j_1..j_l)) with sum i + sum j = n, parts >= 1."""
    out = []
    for ci in _compositions(n):
        for split in range(1, len(ci)):
            out.append((split, len(ci) - split, ci[:split], ci[split:]))
    return out


def hn_summand_count(n):
    """Number of summands of h_(n); equals (n-1) 2^{n-2} for n >= 2."""
    return len(_hn_index_set(n))


# ---------------------------------------------------------------------------
# Gamma: transporting one-sided bar constructions along shm maps
# ---------------------------------------------------------------------------

def compose_family_cochain(g, t, barA):
    """The twisting cochain g o t: B A -> B' for a family g: B => B' and a
    twisting cochain t: B A -> B (composition through B t)."""
    barB = BarDgc(g.A)
    bt = dgc_map_from_cochain(t, barB)
    tg = g.to_cochain(barB)
    return TwistingCochain(barA, g.B, tg.map @ bt, name=f"{g.name}o{t.name}")


def gamma(g, osb_source):
    """Gamma_g: B A (x)_t B -> B A (x)_{g o t} B' for an shm map g: B => B'.

    Gamma([a_1|..|a_k] (x) b) = sum_m [a_1|..|a_m] (x)
        frak_g([a_{m+1}|..|a_k] (x) b),
    where frak_g feeds the word extended by b into the family of g, its
    entries taken unpushed.  Returns (map, target one-sided bar).
    """
    from .bar import OneSidedBar
    field = osb_source.field
    barA = osb_source.barA
    t_target = compose_family_cochain(g, osb_source.t, barA)
    osb_target = OneSidedBar(osb_source.base, g.B, twisting=t_target,
                             barA=barA)

    def frak_g(entries, bkey):
        # (1^{(x)k} (x) s^{-1}) then the family of g; the desuspension
        # passes the word, then the suspension sign of the extended word
        # [entries|b]
        wdeg = sum(e.degree - 1 for e in entries)
        keys = entries + (bkey,)
        eps = suspension_exponent([k.degree for k in keys])
        args = [GradedElement.single(field, k) for k in keys]
        return g(len(keys), args).scale(parity_sign(field, wdeg + eps))

    def rule(key):
        w, bkey = key.parts
        out = GradedElement(field)
        for m in range(0, w.length + 1):
            head = GradedElement.single(field, barA.word(w.entries[:m]))
            out.add_in(tensor_elements(field, head,
                                       frak_g(w.entries[m:], bkey)))
        return out

    return LinearMap(field, 0, rule, name=f"Gamma_{g.name}"), osb_target
