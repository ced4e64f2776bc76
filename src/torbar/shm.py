"""Strongly homotopy multiplicative maps as twisting families, and the
transport of one-sided bar constructions along them.

A twisting family f_(n): A^{(x)n} -> B of degree 1-n is the component form
of a twisting cochain B A -> B.  The two conversions between families and
cochains, `TwistingFamily.to_cochain` and `TwistingFamily.from_cochain`,
take their signs from `graded.suspension_exponent`, as `gamma` does.
`check_family` samples the family axiom, and `gamma` carries
B A (x)_t B to B A (x)_{g o t} B' along a family g, its target reading
the one-sided bar's own B A off g o t.  Each dgc map here is given the
bar it maps into.
"""
from .graded import (GradedElement, LinearMap, d_operation, expand,
                     parity_sign, prefix_degrees, suspension_exponent,
                     tensor_elements)
from .dg import CheckReport, TwistingCochain, TwistedTensor
from .bar import BarDgc, dgc_map_from_cochain


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
    def from_cochain(cls, t, name=None):
        """Family of a twisting cochain t: B A -> B via the standard signs."""
        barA, B = t.C, t.A
        A = barA.A
        field = A.field

        def component(n, args):
            out = B.zero()
            if n == 1:
                s = A.aug(args[0])
                if s != field.zero:
                    out.add_in(B.one(), s)
            # t on [a_1|...|a_n], over the pure terms of the reduced
            # arguments, each word with its suspension sign
            for keys, c in expand(field, (A.reduced(a) for a in args)):
                eps = suspension_exponent([k.degree for k in keys])
                out.add_in(t(barA.word(keys)),
                           field.mul(c, parity_sign(field, eps)))
            return out

        return cls(A, B, component, name=name or t.name)

    def to_cochain(self, barA):
        """The twisting cochain B A -> B of this family: f_(n) on length-n
        words with the suspension sign, zero on the empty word."""
        field = self.A.field

        def rule(key):
            eps = suspension_exponent([k.degree for k in key.entries])
            args = [GradedElement.single(field, k) for k in key.entries]
            return self(key.length, args).scale(parity_sign(field, eps))

        return TwistingCochain(barA, self.B, rule, name=self.name)

    def bar_map(self, barA, barB):
        """The dgc map B A -> B B induced by the family."""
        return dgc_map_from_cochain(self.to_cochain(barA), barB)


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


def check_family(f, sampler, ns):
    rep = CheckReport(f"family axiom for {f.name}")
    for n in ns:
        for args in sampler(n):
            rep.record(family_defect(f, list(args)).is_zero(), (n, args))
    return rep


# ---------------------------------------------------------------------------
# Gamma: transporting one-sided bar constructions along shm maps
# ---------------------------------------------------------------------------

def compose_family_cochain(g, t):
    """The twisting cochain g o t: B A -> B' for a family g: B => B' and a
    twisting cochain t: B A -> B (composition through B t)."""
    barB = BarDgc(g.A)
    bt = dgc_map_from_cochain(t, barB)
    tg = g.to_cochain(barB)
    return TwistingCochain(t.C, g.B, tg.map @ bt, name=f"{g.name}o{t.name}")


def gamma(g, osb):
    """Gamma_g: B A (x)_t B -> B A (x)_{g o t} B' for an shm map g: B => B'.

    Gamma([a_1|..|a_k] (x) b) = sum_m [a_1|..|a_m] (x)
        frak_g([a_{m+1}|..|a_k] (x) b),
    where frak_g feeds the word extended by b into the family of g, its
    entries taken unpushed.  Returns (map, target), the target
    `TwistedTensor(g o t)` on the source's bar.
    """
    field = osb.field
    barA = osb.C
    target = TwistedTensor(compose_family_cochain(g, osb.t))

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

    return LinearMap(field, 0, rule, name=f"Gamma_{g.name}"), target
