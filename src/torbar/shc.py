"""Strongly homotopy commutative combinators over supplied structure data.

An shc datum consists of a dga A, a twisting family Phi: A (x) A => A
extending the multiplication, and homotopies h^a (associativity) and h^c
(commutativity).  The combinators here are generic: iterated structure
maps Phi^[n], polynomial realizations Lambda_a, and naturality-homotopy
assembly for tensor products.  No structure maps for cochain algebras are
constructed here; instances are inputs (commutative dgas canonically, or
synthetic gauge perturbations for testing).
"""
from .graded import (GradedElement, LinearMap, Tensor, expand,
                     interleave_exponent, parity_sign, transpose_tensor)
from .dg import CheckReport, TensorDga, polynomial_dga, gauge_transform
from .bar import BarDgc
from .shm import (TwistingFamily, TwistingHomotopyFamily, compose,
                  compose_map_homotopy, compose_homotopy_map,
                  tensor_with_strict, check_family, check_homotopy_family)


def iterated_tensor(A, n):
    """A^{(x)n}, nested to the left; n = 0 gives the ground field."""
    if n == 0:
        return polynomial_dga(A.field, [])
    out = A
    for _ in range(n - 1):
        out = TensorDga(out, A)
    return out


def nest_elements(A, elems):
    """x_1 (x) ... (x) x_n as an element of the left-nested tensor dga."""
    if not elems:
        return polynomial_dga(A.field, []).one()
    out = elems[0]
    total = out
    current = A
    for x in elems[1:]:
        current = TensorDga(current, A)
        total = current.pair(total, x)
    return total


def _multiplication(A):
    """mu: A (x) A -> A as an element map."""
    return lambda x: x.map_keys(lambda k: A.mul_keys(*k.parts))


class ShcData:
    """Structure data for a strongly homotopy commutative algebra."""

    def __init__(self, A, phi, name="shc"):
        self.A = A
        self.AA = TensorDga(A, A)
        self.phi = phi          # TwistingFamily AA => A with phi_(1) = mul
        # the homotopies, assigned by the constructors once phi is in place
        self.ha = None          # Phi(Phi (x) 1) ~ Phi(1 (x) Phi)
        self.hc = None          # Phi T ~ Phi
        self.name = name
        self._iterates = {}

    @classmethod
    def commutative(cls, A):
        """Any commutative dga is canonically an shc algebra: Phi strict."""
        if not A.commutative:
            raise ValueError("canonical shc structure needs a commutative dga")
        AA = TensorDga(A, A)
        phi = TwistingFamily.strict(AA, A, _multiplication(A), name="mu")
        s = cls(A, phi, name="commutative shc")
        s.ha = trivial_associativity_homotopy(s)
        s.hc = trivial_commutativity_homotopy(s)
        return s

    def phi_iterate(self, n):
        """Phi^[n]: A^{(x)n} => A with Phi^[0] = eta, Phi^[1] = 1,
        Phi^[n+1] = Phi o (Phi^[n] (x) 1)."""
        if n in self._iterates:
            return self._iterates[n]
        A = self.A
        if n == 0:
            k = polynomial_dga(A.field, [])

            def unit_component(m, args):
                if m == 1:
                    return A.one().scale(k.aug(args[0]))
                return A.zero()

            fam = TwistingFamily(k, A, unit_component, name="eta")
        elif n == 1:
            fam = TwistingFamily.strict(A, A, lambda x: x, name="1")
        elif n == 2:
            fam = self.phi
        else:
            prev = self.phi_iterate(n - 1)
            source = iterated_tensor(A, n)
            ext = tensor_with_strict(prev, lambda x: x, source, self.AA,
                                     side="right",
                                     name=f"Phi^[{n-1}](x)1")
            fam = compose(self.phi, ext, name=f"Phi^[{n}]")
        self._iterates[n] = fam
        return fam


def trivial_associativity_homotopy(s):
    A = s.A
    AAA = iterated_tensor(A, 3)
    left = compose(s.phi, tensor_with_strict(
        s.phi, lambda x: x, AAA, s.AA, side="right"))
    right = compose(s.phi, _one_tensor(s, AAA, s.phi))
    return TwistingHomotopyFamily(AAA, A, lambda n, args: A.zero(),
                                  left, right, name="ha(trivial)")


def trivial_commutativity_homotopy(s):
    A = s.A
    phiT = compose_with_transposition(s)
    return TwistingHomotopyFamily(s.AA, A, lambda n, args: A.zero(),
                                  phiT, s.phi, name="hc(trivial)")


def _one_tensor(s, AAA, fam):
    """1 (x) F: A (x) (A (x) A) => A (x) A on the left-nested triple, for a
    family or a homotopy family F: A (x) A => A.

    The left-nested key ((ka, kb), kc) feeds 1 to ka and F to (kb, kc).  A
    homotopy family gets the two families 1 (x) source and 1 (x) target as
    its ends."""
    A = s.A
    field = A.field

    def component(n, args):
        out = s.AA.zero()
        for keys, c in expand(field, args):
            slots = [k.parts[0].parts + (k.parts[1],) for k in keys]
            # un-interleave: move the (b, c)-pairs past the a's
            e = interleave_exponent([sl[0].degree for sl in slots],
                                    [sl[1].degree + sl[2].degree
                                     for sl in slots])
            a_elems = [GradedElement.single(field, sl[0]) for sl in slots]
            bc_elems = [s.AA.pair(GradedElement.single(field, sl[1]),
                                  GradedElement.single(field, sl[2]))
                        for sl in slots]
            left = A.mul_many(a_elems)
            rightv = fam(n, bc_elems)
            # map application: F_(n) (degree fam.degree(n)) past the a-block
            e += fam.degree(n) * sum(sl[0].degree for sl in slots)
            out.add_in(s.AA.pair(left, rightv),
                       field.mul(c, parity_sign(field, e)))
        return out

    name = f"1(x){fam.name}"
    if isinstance(fam, TwistingHomotopyFamily):
        return TwistingHomotopyFamily(AAA, s.AA, component,
                                      _one_tensor(s, AAA, fam.source),
                                      _one_tensor(s, AAA, fam.target),
                                      name=name)
    return TwistingFamily(AAA, s.AA, component, name=name)


def compose_with_transposition(s):
    """Phi o T_{A,A} as a twisting family."""
    phi = s.phi

    def component(n, args):
        swapped = [transpose_tensor(x) for x in args]
        return phi(n, swapped)

    return TwistingFamily(s.AA, s.A, component, name="PhiT")


def gauge_shc(A, rng, degrees=range(1, 8)):
    """A synthetic nonstrict shc structure on a commutative dga.

    Phi is a gauge perturbation of the strict multiplication by a random
    degree-zero rule supported on words of length >= 2 that vanishes when
    all entries share a unit tensor factor (this preserves the unit law
    and the first component).  The homotopies h^a and h^c are assembled
    from the gauge homotopy by the cup-product calculus.
    """
    if not A.commutative:
        raise ValueError("gauge shc perturbation starts from a commutative dga")
    base = ShcData.commutative(A)
    AA = base.AA
    barAA = BarDgc(AA)
    t_mu = base.phi.to_cochain(barAA)
    field = A.field
    unit_a = A.unit_key

    def k_rule(key):
        # the LinearMap below memoizes, so each key draws from rng once
        if key.length >= 2 and key.degree in degrees:
            entries = key.entries
            if not (all(k.parts[0] == unit_a for k in entries)
                    or all(k.parts[1] == unit_a for k in entries)):
                return A.reduced(A.random_element(key.degree, rng, terms=2))
        return GradedElement(field)

    t_phi, h = gauge_transform(barAA, A, t_mu, LinearMap(field, 0, k_rule))
    phi = TwistingFamily.from_cochain(barAA, A, t_phi, name="Phi")
    mu_fam = TwistingFamily.from_cochain(barAA, A, t_mu, name="mu")
    gauge_h = TwistingHomotopyFamily.from_cochain(barAA, A, h.map,
                                                  mu_fam, phi, name="g")
    s = ShcData(A, phi, name="gauge shc")

    # h^c: Phi T ~ Phi through mu (mu T = mu for commutative A)
    hT = compose_homotopy_map(
        gauge_h, TwistingFamily.strict(AA, AA, transpose_tensor, name="T"))
    s.hc = hT.inverse().cup(gauge_h, name="hc")
    s.hc = TwistingHomotopyFamily(
        AA, A, s.hc._component, compose_with_transposition(s), phi, name="hc")

    # h^a: Phi(Phi (x) 1) ~ mu^[3] ~ Phi(1 (x) Phi)
    AAA = iterated_tensor(A, 3)
    phi_tensor_1 = tensor_with_strict(phi, lambda x: x, AAA, AA, side="right")
    h_tensor_1 = tensor_with_strict(gauge_h, lambda x: x, AAA, AA,
                                    side="right")
    one_phi = _one_tensor(s, AAA, phi)
    # left leg: Phi(Phi (x) 1) ~ mu(Phi (x) 1) ~ mu(mu (x) 1)
    l1 = compose_homotopy_map(gauge_h, phi_tensor_1).inverse()
    l2 = compose_map_homotopy(mu_fam, h_tensor_1).inverse()
    # right leg: mu(1 (x) mu) = mu^[3] ... ~ mu(1 (x) Phi) ~ Phi(1 (x) Phi)
    r2 = compose_map_homotopy(mu_fam, _one_tensor(s, AAA, gauge_h))
    r1 = compose_homotopy_map(gauge_h, one_phi)
    ha = l1.cup(l2).cup(r2).cup(r1)
    s.ha = TwistingHomotopyFamily(AAA, A, ha._component,
                                  compose(phi, phi_tensor_1),
                                  compose(phi, one_phi), name="ha")
    s.gauge = gauge_h
    return s


def check_shc(s, sampler2, sampler3, ns=(1, 2, 3)):
    """The four defining conditions on truncations/samples.

    (i) Phi is a twisting family with Phi_(1) = mu; (ii) unit law;
    (iii) h^a joins the two associations; (iv) h^c joins Phi T and Phi.
    """
    A = s.A
    field = A.field
    rep = CheckReport(f"shc conditions for {s.name}")
    rep2 = check_family(s.phi, sampler2, ns=ns)
    rep.record(rep2.ok, ("phi family", rep2.failures[:1]))
    # (i) first component is the multiplication
    mu = _multiplication(A)
    for args in sampler2(1):
        x = args[0]
        rep.record(s.phi(1, [x]) == mu(x), "phi_(1) = mu")

    # (ii) unit law: Phi o (1 (x) eta) = Phi o (eta (x) 1) = identity
    def unit_part(x, slot):
        """The terms of x whose factor `slot` is the unit."""
        return x.map_keys(lambda k: GradedElement.single(field, k)
                          if k.parts[slot] == A.unit_key
                          else GradedElement(field))

    for args in sampler2(2):
        for side in (0, 1):
            padded = [unit_part(x, 1 - side) for x in args]
            if any(p.is_zero() for p in padded):
                continue
            val = s.phi(2, padded)
            rep.record(val.is_zero(), ("unit law n=2", side))
    if s.ha is not None:
        rep3 = check_homotopy_family(s.ha, sampler3, ns=ns)
        rep.record(rep3.ok, ("ha axiom", rep3.failures[:1]))
    if s.hc is not None:
        rep4 = check_homotopy_family(s.hc, sampler2, ns=ns)
        rep.record(rep4.ok, ("hc axiom", rep4.failures[:1]))
    return rep


# ---------------------------------------------------------------------------
# Polynomial realizations
# ---------------------------------------------------------------------------

def lambda_family(s, gens):
    """Lambda_a: k[x_1,...,x_n] => A, x_i -> a_i, through Phi^[n].

    `gens`: list of (name, cocycle element of even positive degree).
    Returns (family, polynomial source algebra)."""
    A = s.A
    field = A.field
    names = []
    elems = {}
    degs = []
    for name, a in gens:
        d = a.degree()
        if d is None or d <= 0 or d % 2:
            raise ValueError(f"generator {name} must be an even positive "
                             "degree cocycle")
        if not A.d(a).is_zero():
            raise ValueError(f"generator {name} is not a cocycle")
        names.append(name)
        elems[name] = a
        degs.append((name, d))
    n = len(names)
    P = polynomial_dga(field, degs)
    phin = s.phi_iterate(n)
    source_tensor = iterated_tensor(A, n)

    def lam(x):
        out = None
        for key, c in x.terms.items():
            powers = dict(key.powers)
            factors = []
            for name in names:
                e = powers.get(name, 0)
                factors.append(A.mul_many([elems[name]] * e) if e else A.one())
            val = nest_elements(A, factors).scale(c)
            out = val if out is None else out + val
        return out if out is not None else source_tensor.zero()

    lam_fam = TwistingFamily.strict(P, source_tensor, lam, name="lambda_a")
    return compose(phin, lam_fam, name="Lambda_a"), P


def check_quasi_iso_on_polynomials(family, P, complex_basis, complex_diff,
                                   field, bound):
    """H(family_(1)) is an isomorphism from k[x] onto H(target) <= bound.

    The polynomial source has zero differential, so its classes are the
    monomials; verifies dimensions match and that the images are cycles
    whose class coordinates are independent."""
    from .linalg import express_class, homology, rank
    res = homology(complex_basis, complex_diff, field, ddeg=1)
    rep = CheckReport("quasi-isomorphism on truncation")
    for d in range(0, bound + 1):
        mons = P.basis(d)
        target_dim = res.dims.get(d, 0)
        rep.record(len(mons) == target_dim, ("dimension", d))
        space = res.spaces.get(d)
        coords = []
        for m in mons:
            img = family(1, [GradedElement.single(field, m)])
            c = None if space is None else \
                express_class(dict(img.terms), space, target_dim, field)
            if c is None:
                break
            coords.append({i: x for i, x in enumerate(c) if x != field.zero})
        rep.record(len(coords) == len(mons) and
                   rank(coords, field) == len(mons), ("independence", d))
    return rep


# ---------------------------------------------------------------------------
# Naturality-homotopy assembly for tensor products of shc maps
# ---------------------------------------------------------------------------

def one_t_one(field):
    """The reorder 1 (x) T (x) 1 as a strict map
    (A1 (x) A2) (x) (A1 (x) A2) -> (A1 (x) A1) (x) (A2 (x) A2)."""

    def key_image(k):
        (ka1, ka2), (ka3, ka4) = (p.parts for p in k.parts)
        key = Tensor((Tensor((ka1, ka3)), Tensor((ka2, ka4))))
        return GradedElement.single(
            field, key, parity_sign(field, ka2.degree * ka3.degree))

    return lambda x: x.map_keys(key_image)


def tensor_map(field, f1, f2, target):
    """f1 (x) f2 on a tensor dga, as an element map (both strict)."""

    def key_image(k):
        ka, kb = k.parts
        return target.pair(f1(GradedElement.single(field, ka)),
                           f2(GradedElement.single(field, kb)))

    return lambda x: x.map_keys(key_image)


def tensor_shc_naturality(sA1, sA2, sB1, sB2, f1, f2, h1, h2):
    """The naturality homotopy of f1 (x) f2 from those of f1 and f2.

    f_i: A_i -> B_i strict shc maps (element maps); h_i is a twisting
    homotopy family joining Phi_{B_i} o (f_i (x) f_i) and f_i o Phi_{A_i}
    on A_i (x) A_i.  Following the tensor-product lemma, the output is the
    cup product of

        (Phi_{B1} (x) 1) o (f1 (x) f1 (x) h2) o (1 (x) T (x) 1)   and
        (h1 (x) f2) o (1 (x) 1 (x) Phi_{A2}) o (1 (x) T (x) 1).
    """
    A1, A2, B1, B2 = sA1.A, sA2.A, sB1.A, sB2.A
    field = A1.field
    A12 = TensorDga(A1, A2)
    B12 = TensorDga(B1, B2)
    AA1 = sA1.AA
    AA2 = sA2.AA
    B11 = sB1.AA
    source = TensorDga(A12, A12)
    mid_B = TensorDga(B11, B2)
    mid_A = TensorDga(AA1, A2)

    reorder_target = TensorDga(AA1, AA2)
    reorder = TwistingFamily.strict(
        source, reorder_target, one_t_one(field), name="1T1")

    # first piece: (Phi_B1 (x) 1) o (f1 (x) f1 (x) h2) o (1T1)
    f11 = tensor_map(field, f1, f1, B11)
    fff_h = tensor_with_strict(h2, f11, reorder_target, mid_B, side="left")
    phiB1_ext = tensor_with_strict(sB1.phi, lambda x: x, mid_B, B12,
                                   side="right", name="PhiB1(x)1")
    piece1 = compose_homotopy_map(compose_map_homotopy(phiB1_ext, fff_h),
                                  reorder)

    # second piece: (h1 (x) f2) o (1 (x) 1 (x) Phi_A2) o (1T1)
    one_phiA2 = tensor_with_strict(sA2.phi, lambda x: x, reorder_target,
                                   mid_A, side="left", name="1(x)PhiA2")
    h1_f2 = tensor_with_strict(h1, f2, mid_A, B12, side="right")
    # (h1 (x) f2) precomposed with the family 1 (x) Phi_{A2}, then with 1T1
    piece2 = compose_homotopy_map(compose_homotopy_map(h1_f2, one_phiA2),
                                  reorder)

    return piece1.cup(piece2, name="naturality(f1(x)f2)")
