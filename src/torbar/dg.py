"""Differential graded algebras and coalgebras over a graded basis.

Algebras and coalgebras are presented by structure maps on basis keys.
`ddeg` is the degree of the differential: +1 for cochain-type objects,
-1 for chain-type ones (the Koszul sign rule only sees parities, so all
machinery below is direction-agnostic).

The tensor product of complexes is defined once: `tensor_basis` and
`tensor_diff_key` (d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy) serve
`TensorDga`, `TensorDgc` and the twisted tensor products, and
`preserves_coproduct` is the one check that a map commutes with the
coproducts.  `check_d_squared` is the one d^2 = 0 check of a complex;
`commutes_with_d` and `check_chain_map` are the one check that a map
commutes with the differentials.  `Dgc.reduced_cop_terms` is the one
iterated reduced coproduct, a depth-first walk that does not follow a
split whose front piece its reader multiplies by zero.

Each sign rule is decided once.  `FreeGcDga.mul_keys` is the one Koszul
sign of graded-commutative monomials, and `FreeGcCoalgebra` (the exterior
coalgebra on odd generators, the divided-power coalgebra on even ones)
is the graded dual of that monomial basis, its coproduct read off
`mul_keys`.  The Leibniz check and the differential of Hom(C, A) go
through `graded.d_operation`, and every (-1)^e through
`graded.parity_sign`.

Every cache below is a `graded.Table`.  A `FreeGcDga` hands out one
`Monomial` per monomial from its table keyed by powers, so dict lookups
of its keys mostly hit on identity; it keeps its basis of each degree,
keyed by degree, and the product of each pair of monomials, keyed by the
pair.

Each tensor construction (`TensorDga`, `TensorDgc`, `TwistedTensor` and
so the one-sided bar) owns a table of its `Tensor` keys, keyed by the
pair of parts: `tensor_basis`, `tensor_diff_key` and the coproduct of
`TensorDgc` take their keys from it, so the keys of a basis and the
targets of its differential are one object and elimination's dict
lookups hit on identity.  A differential is assembled in one dict, with
no element per summand: `tensor_diff_key` writes dx (x) y and
+-x (x) dy into it, and `TwistedTensor` adds -delta_t, reading the
splits of each coalgebra key where t is nonzero from a table keyed by
that key, and keeps no differential: `bar.tor_additive` reads each once.

The module also provides the convolution algebra Hom(C, A) with its unit,
cup product and differential, twisting cochains and twisted tensor
products.
"""
from itertools import product

from .graded import (GradedElement, LinearMap, Table, Tensor, bilinear,
                     d_operation, parity_sign, tensor_elements)
from .linalg import StructuralError


class Dga:
    """Augmented dga on a basis adapted to the augmentation.

    Subclasses provide: `unit_key`, `diff_key`, `mul_keys`, and (when
    enumerable) `basis(degree)`.  A connected dga's degree 0 is spanned
    by the unit, so its augmentation reads the unit key's coefficient.
    """

    ddeg = 1
    simply_connected = False

    def __init__(self, field):
        self.field = field

    def basis(self, degree):
        raise NotImplementedError(f"{type(self).__name__} has no basis enumerator")

    def diff_key(self, key):
        raise NotImplementedError

    def mul_keys(self, k1, k2):
        raise NotImplementedError

    # -- derived element operations -------------------------------------
    def zero(self):
        return GradedElement(self.field)

    def one(self):
        return GradedElement.single(self.field, self.unit_key)

    def element(self, key, coeff=None):
        return GradedElement.single(self.field, key, coeff)

    def d(self, x):
        return x.map_keys(self.diff_key)

    def mul(self, x, y):
        return bilinear(self.field, self.mul_keys, x, y)

    def mul_many(self, xs):
        if not xs:
            return self.one()
        out = xs[0]
        for x in xs[1:]:
            out = self.mul(out, x)
        return out

    def aug(self, x):
        return x.coeff(self.unit_key)

    def random_element(self, degree, rng, terms=3):
        """A sum of `terms` distinct random basis keys of the degree (all
        of them if there are fewer), each with a nonzero coefficient drawn
        among the images of -2, -1, 1, 2 in the field (over F2 that is 1
        only)."""
        keys = list(self.basis(degree))
        f = self.field
        coeffs = [c for c in map(f.of, (-2, -1, 1, 2)) if c != f.zero]
        out = GradedElement(f)
        for k in rng.sample(keys, min(terms, len(keys))):
            out.add_in(GradedElement.single(f, k, rng.choice(coeffs)))
        return out

    def check_axioms(self, triples):
        """d^2 x = 0, both unit laws on x, Leibniz on (x, y) (the
        `d_operation` of the product is zero), aug(xy) = aug(x) aug(y)
        and associativity on (x, y, z), for each triple (x, y, z) of
        elements: one case per law and triple, labelled and naming the
        triple, in a CheckReport."""
        f = self.field
        one = self.one()
        rep = CheckReport(f"dga axioms of {type(self).__name__}")
        for x, y, z in triples:
            case = (x, y, z)
            xy = self.mul(x, y)
            rep.record(self.d(self.d(x)).is_zero(), ("d^2", case))
            rep.record(self.mul(one, x) == x, ("unit-l", case))
            rep.record(self.mul(x, one) == x, ("unit-r", case))
            rep.record(d_operation(lambda xs: self.mul(*xs), 0, self.d,
                                   self.d, [x, y]).is_zero(),
                       ("Leibniz", case))
            rep.record(self.aug(xy) == f.mul(self.aug(x), self.aug(y)),
                       ("augmentation", case))
            rep.record(self.mul(xy, z) == self.mul(x, self.mul(y, z)),
                       ("associativity", case))
        return rep


class Dgc:
    """Coaugmented dgc on a basis adapted to the coaugmentation.

    Subclasses provide `coaug_key`, `diff_key`, `cop_key` (a list of
    (coeff, k1, k2) triples) and optionally `basis(degree)`.
    """

    ddeg = 1
    cocomplete = True

    def __init__(self, field):
        self.field = field

    def basis(self, degree):
        raise NotImplementedError(f"{type(self).__name__} has no basis enumerator")

    def diff_key(self, key):
        raise NotImplementedError

    def cop_key(self, key):
        raise NotImplementedError

    def counit_key(self, key):
        return self.field.one if key == self.coaug_key else self.field.zero

    def d(self, x):
        return x.map_keys(self.diff_key)

    def reduced_cop_terms(self, key, keep):
        """Every term (c, (k_1, ..., k_n)) of the reduced iterated
        coproducts Delta^[1](key), Delta^[2](key), ..., depth first.

        A term's last slot is split by `cop_key`, dropping the pieces that
        are the coaugmentation (coassociativity makes the slot choice
        moot).  A split whose front piece fails `keep` is not followed:
        that piece stays in every descendant, so a reader multiplying the
        slots gets zero there.  A term past the 60th level raises
        StructuralError: the coalgebra is not conilpotent there."""
        u, mul = self.coaug_key, self.field.mul
        stack = [] if key == u else [(self.field.one, (key,))]
        while stack:
            c, keys = stack.pop()
            if len(keys) > 60:
                raise StructuralError(f"key {key!r} not conilpotent up to 60")
            yield c, keys
            stack += [(mul(c, c2), keys[:-1] + (k1, k2))
                      for c2, k1, k2 in self.cop_key(keys[-1])
                      if k1 != u and k2 != u and keep(k1)]

    def nilpotence_degree(self, key):
        """Least n with reduced Delta^[n](key) = 0 (cocompleteness
        witness)."""
        return 1 + max((len(keys) for _, keys in
                        self.reduced_cop_terms(key, lambda k: True)),
                       default=0)

    def check_axioms(self, keys):
        """Coassociativity and both counit laws, (eps (x) 1) Delta = id and
        (1 (x) eps) Delta = id, on the given basis keys, each side a
        GradedElement: one case per law and key, labelled and naming the
        key, in a CheckReport."""
        f = self.field
        rep = CheckReport(f"dgc axioms of {type(self).__name__}")
        for k in keys:
            cop = self.cop_key(k)
            left = GradedElement(f, [(Tensor((k11, k12, k2)), f.mul(c, c2))
                                     for c, k1, k2 in cop
                                     for c2, k11, k12 in self.cop_key(k1)])
            right = GradedElement(f, [(Tensor((k1, k21, k22)), f.mul(c, c2))
                                      for c, k1, k2 in cop
                                      for c2, k21, k22 in self.cop_key(k2)])
            rep.record(left == right, ("coassociativity", k))
            rep.record(GradedElement(f, [(k2, f.mul(c, self.counit_key(k1)))
                                         for c, k1, k2 in cop])
                       == GradedElement.single(f, k), ("counit-l", k))
            rep.record(GradedElement(f, [(k1, f.mul(c, self.counit_key(k2)))
                                         for c, k1, k2 in cop])
                       == GradedElement.single(f, k), ("counit-r", k))
        return rep


# ---------------------------------------------------------------------------
# The tensor product of complexes
# ---------------------------------------------------------------------------

def tensor_basis(X, Y, degree, intern):
    """The keys x (x) y of total degree `degree`, |x| ascending from 0,
    each `intern((x, y))` from the owner's `Tensor` table."""
    out = []
    for dx in range(degree + 1):
        ys = list(Y.basis(degree - dx))
        out += [intern((kx, ky)) for kx in X.basis(dx) for ky in ys]
    return out


def tensor_diff_key(X, Y, key, intern):
    """d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy on a Tensor pair, as a
    fresh element whose keys come from `intern` (the owner's table).

    The two sums share no key (their first parts differ in degree), so
    each term is written once into the element's dict."""
    x, y = key.parts
    field = X.field
    out = GradedElement(field)
    terms = out.terms = {intern((k, y)): c
                         for k, c in X.diff_key(x).terms.items()}
    dy = Y.diff_key(y).terms
    if dy:
        sign, mul = parity_sign(field, x.degree), field.mul
        terms.update({intern((x, k)): mul(sign, c) for k, c in dy.items()})
    return out


def preserves_coproduct(g, C, D, key):
    """Delta_D g(key) = (g (x) g) Delta_C(key) for a degree-0 map g: C -> D
    given on keys (no Koszul sign: g has even degree)."""
    field = C.field
    lhs = GradedElement(field, [(Tensor((k1, k2)), field.mul(cc, c))
                                for kk, cc in g(key).terms.items()
                                for c, k1, k2 in D.cop_key(kk)])
    rhs = GradedElement(field)
    for c, k1, k2 in C.cop_key(key):
        rhs.add_in(tensor_elements(field, g(k1), g(k2)), c)
    return lhs == rhs


def commutes_with_d(g, C, D, key):
    """g d_C(key) = d_D g(key) for a degree-0 map g: C -> D given on keys."""
    return C.diff_key(key).map_keys(g) == D.d(g(key))


# ---------------------------------------------------------------------------
# Hom(C, A) as a dga
# ---------------------------------------------------------------------------

class HomAlgebra:
    """The convolution dga Hom(C, A) for a dgc C and dga A."""

    def __init__(self, C, A):
        if C.field != A.field:
            raise ValueError("field mismatch")
        self.C = C
        self.A = A
        self.field = C.field

    def unit(self):
        """eta_A eps_C."""
        A, C = self.A, self.C
        return LinearMap(0, lambda k: A.one().scale(C.counit_key(k)))

    def cup(self, f, g):
        """f u g = mu_A (f (x) g) Delta_C."""
        A, C, field = self.A, self.C, self.field

        def rule(key):
            out = GradedElement(field)
            for c, k1, k2 in C.cop_key(key):
                fa = f(k1)
                if fa.is_zero():
                    continue
                gb = g(k2)
                if gb.is_zero():
                    continue
                out.add_in(A.mul(fa, gb), field.mul(
                    c, parity_sign(field, g.degree * k1.degree)))
            return out

        return LinearMap(f.degree + g.degree, rule)

    def d(self, f):
        """d(f) = d_A f - (-1)^{|f|} f d_C (`graded.d_operation`)."""
        A, C, field = self.A, self.C, self.field

        def rule(key):
            return d_operation(lambda xs: f.of(xs[0]), f.degree, C.d, A.d,
                               [GradedElement.single(field, key)])

        return LinearMap(f.degree + self.A.ddeg, rule)


# ---------------------------------------------------------------------------
# Twisting cochains
# ---------------------------------------------------------------------------

class CheckReport:
    def __init__(self, name):
        self.name = name
        self.failures = []
        self.checked = 0

    @property
    def ok(self):
        return not self.failures

    def record(self, ok, witness=None):
        self.checked += 1
        if not ok:
            self.failures.append(witness)

    def __repr__(self):
        status = "ok" if self.ok else f"FAILED ({len(self.failures)})"
        return f"<check {self.name}: {status}, {self.checked} cases>"

    def raise_on_failure(self):
        if not self.ok:
            raise StructuralError(f"{self.name}: first failure {self.failures[0]!r}")
        return self


def check_d_squared(C, keys, name):
    """d(d k) = 0 for each key of the complex C, one case per key in a
    CheckReport called `name`; raises StructuralError naming the first
    failing key."""
    rep = CheckReport(name)
    for k in keys:
        rep.record(C.d(C.diff_key(k)).is_zero(), k)
    return rep.raise_on_failure()


def check_chain_map(g, C, D, keys, name):
    """g d_C = d_D g for a degree-0 map g: C -> D given on keys, one case
    per key in a CheckReport called `name`."""
    rep = CheckReport(name)
    for k in keys:
        rep.record(commutes_with_d(g, C, D, k), k)
    return rep


class TwistingCochain:
    """t in Hom(C, A) of degree ddeg with d(t) = t u t and normalizations."""

    def __init__(self, C, A, rule, name="t"):
        if C.ddeg != A.ddeg:
            raise ValueError("twisting cochains need matching differentials")
        self.C = C
        self.A = A
        self.name = name
        self.map = LinearMap(C.ddeg, rule)

    def __call__(self, key):
        return self.map(key)

    def check(self, keys):
        """Evaluate d(t) = t u t, eps t = 0 and t eta = 0 on basis keys."""
        hom = HomAlgebra(self.C, self.A)
        lhs = hom.d(self.map)
        rhs = hom.cup(self.map, self.map)
        rep = CheckReport(f"twisting cochain {self.name}")
        for k in keys:
            ok = lhs(k) == rhs(k)
            if ok and k == self.C.coaug_key:
                ok = self.map(k).is_zero()
            if ok:
                ok = self.A.aug(self.map(k)) == self.A.field.zero
            rep.record(ok, k)
        return rep


# ---------------------------------------------------------------------------
# Twisted tensor products
# ---------------------------------------------------------------------------

class TwistedTensor:
    """C (x)_t A with differential d_(x) - delta_t, d_(x) the differential
    of the tensor product (`tensor_diff_key`), for t: C -> A.

    Its keys come from its `Tensor` table.  The differential of a key is
    assembled in one dict on each call, and not kept.
    """

    def __init__(self, t):
        self.C = t.C
        self.A = t.A
        self.t = t
        self.field = t.C.field
        self.ddeg = t.C.ddeg
        self._tensors = Table(Tensor)
        self._splits = Table(TwistedTensor._twist_splits, self)

    def key(self, ck, ak):
        return self._tensors[(ck, ak)]

    def _twist_splits(self, ck):
        """The splits c_1 (x) c_2 of Delta(ck) where t(c_2) is nonzero, each
        as (coefficient, c_1, terms of t(c_2)), the coefficient that of
        c_1 (x) t(c_2) a in -delta_t(ck (x) a): -(-1)^{|t||c_1|} times the
        coproduct's."""
        field, tmap = self.field, self.t.map
        got = []
        for c, k1, k2 in self.C.cop_key(ck):
            tv = tmap(k2).terms
            if tv:
                got.append((field.mul(parity_sign(
                    field, tmap.degree * k1.degree + 1), c),
                    k1, tuple(tv.items())))
        return tuple(got)

    def diff_key(self, key):
        """d_(x)(c (x) a) - sum +-c_1 (x) t(c_2) a."""
        intern, mul = self._tensors.__getitem__, self.field.mul
        mul_keys = self.A.mul_keys
        ck, ak = key.parts
        return tensor_diff_key(self.C, self.A, key, intern).add_pairs(
            [(intern((k1, pk)), mul(mul(s, tc), pc))
             for s, k1, tv in self._splits[ck] for tk, tc in tv
             for pk, pc in mul_keys(tk, ak).terms.items()])

    def d(self, x):
        return x.map_keys(self.diff_key)


# ---------------------------------------------------------------------------
# Free and free graded-commutative dgas
# ---------------------------------------------------------------------------

class Word:
    """Noncommutative word in named generators."""

    __slots__ = ("letters", "degree")

    def __init__(self, letters, degree):
        self.letters = letters
        self.degree = degree

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "*".join(self.letters) if self.letters else "1"


def _generator_differentials(field, d_gen, key_of):
    """name -> d(name) from a spec {name: [(coeff, key_of argument), ...]}."""
    return {name: GradedElement(field, [(key_of(arg), coeff)
                                        for coeff, arg in spec])
            for name, spec in (d_gen or {}).items()}


class FreeDga(Dga):
    """Tensor algebra on graded generators with an assignable differential.

    `gens`: list of (name, degree); `d_gen`: dict name -> element spec,
    where a spec is a list of (coeff, [names...]) pairs.  The differential
    extends by the Leibniz rule.  The universal test bed: an identity of
    the bar construction or of twisting cochains that fails in general
    fails here.
    """

    def __init__(self, field, gens, d_gen=None):
        super().__init__(field)
        self.gens = dict(gens)
        if any(d <= 0 for d in self.gens.values()):
            raise ValueError("generator degrees must be positive")
        self.unit_key = Word((), 0)
        self._dgen = _generator_differentials(field, d_gen, self.word)
        self.simply_connected = all(d >= 2 for d in self.gens.values())

    def word(self, names):
        return Word(tuple(names), sum(self.gens[n] for n in names))

    def generator(self, name):
        return GradedElement.single(self.field, self.word([name]))

    def basis(self, degree):
        if degree < 0:
            return []
        if degree == 0:
            return [self.unit_key]
        # words[r] holds the letter tuples of degree r, the first letter
        # varying slowest
        words = [[()]]
        for r in range(1, degree + 1):
            words.append([(name,) + w for name, d in self.gens.items()
                          if d <= r for w in words[r - d]])
        return [self.word(w) for w in words[degree]]

    def diff_key(self, key):
        field = self.field
        out = GradedElement(field)
        pre = 0
        for i, name in enumerate(key.letters):
            dg = self._dgen.get(name)
            if dg is not None and not dg.is_zero():
                sgn = parity_sign(field, pre)
                left = key.letters[:i]
                right = key.letters[i + 1:]
                for k, c in dg.terms.items():
                    w = Word(left + k.letters + right,
                             key.degree - self.gens[name] + k.degree)
                    out.add_in(GradedElement.single(field, w),
                               field.mul(sgn, c))
            pre += self.gens[name]
        return out

    def mul_keys(self, k1, k2):
        return GradedElement.single(
            self.field, Word(k1.letters + k2.letters, k1.degree + k2.degree))


class Monomial:
    """Commutative monomial: sorted tuple of (name, exponent).

    The `FreeGcDga` that builds a monomial keeps it in its table, so
    equal monomials of one algebra are mostly one object; equality is
    still by value."""

    __slots__ = ("powers", "degree", "_hash", "_repr")

    def __init__(self, powers, degree):
        self.powers = powers
        self.degree = degree
        self._hash = hash(powers)
        self._repr = None

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self):
        return self._hash

    def __repr__(self):
        # formatted once: `linalg.homology` sorts its columns by repr
        got = self._repr
        if got is None:
            got = self._repr = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in self.powers) or "1"
        return got


class FreeGcDga(Dga):
    """Free graded-commutative dga: polynomial on even generators tensor
    exterior on odd ones, with an assignable differential.

    Serves as polynomial algebras (zero differential), exterior algebras,
    and Koszul-resolution algebras.  Every monomial it makes comes from
    its table `_monomials` (keyed by powers, built by `_intern`),
    `basis(d)` is enumerated once per degree and kept as a tuple in
    `_bases`, and `mul_keys` keeps each product in `_products` (keyed by
    the pair).
    """

    def __init__(self, field, gens, d_gen=None):
        super().__init__(field)
        self.gens = dict(gens)
        self.order = {n: i for i, n in enumerate(self.gens)}
        self._odd = {n for n, d in self.gens.items() if d % 2}
        self._monomials = Table(FreeGcDga._intern, self)
        self._products = Table(FreeGcDga._mul_keys, self)
        self._bases = Table(FreeGcDga._basis, self)
        self.unit_key = self._monomials[()]
        # only the nonzero generator differentials
        self._dgen = {name: dg for name, dg in _generator_differentials(
            field, d_gen, self.monomial).items() if dg.terms}
        self.simply_connected = all(d >= 2 for d in self.gens.values())

    def _intern(self, powers):
        """The Monomial with these (sorted) powers, for its table."""
        return Monomial(powers, sum(self.gens[n] * e for n, e in powers))

    def monomial(self, powers):
        """powers: iterable of (name, exp) or of names."""
        acc = {}
        for p in powers:
            name, e = p if isinstance(p, tuple) else (p, 1)
            acc[name] = acc.get(name, 0) + e
        items = []
        for name in self.gens:
            e = acc.pop(name, 0)
            if e == 0:
                continue
            if name in self._odd and e > 1:
                return None  # odd generator squares to zero
            items.append((name, e))
        if acc:
            raise KeyError(f"unknown generators {sorted(acc)}")
        return self._monomials[tuple(items)]

    def generator(self, name):
        return GradedElement.single(self.field, self.monomial([name]))

    def basis(self, degree):
        return self._bases[degree]

    def _basis(self, degree):
        # tails[r] holds the (name, exponent) tuples of degree r in the
        # generators from n on, each generator's exponent ascending from 0
        # and the first generator's varying slowest
        tails = [[()]] + [[] for _ in range(degree)] if degree >= 0 else []
        for n, d in reversed(self.gens.items()):
            emax = 1 if d % 2 else degree // d
            tails = [tails[r] + [((n, e),) + t for e in range(1, emax + 1)
                                 if d * e <= r for t in tails[r - d * e]]
                     for r in range(len(tails))]
        monomials = self._monomials
        return (tuple(monomials[t] for t in tails[degree]) if degree >= 0
                else ())

    def mul_keys(self, k1, k2):
        """The product of two monomials, computed once per pair and kept
        in the products table; the value is shared and must not be
        mutated."""
        return self._products[(k1, k2)]

    def _mul_keys(self, pair):
        # Koszul sign from interleaving odd generators into sorted order.
        k1, k2 = pair
        odd, order = self._odd, self.order
        odd1 = [order[n] for n, _ in k1.powers if n in odd]
        sign = 0
        if odd1:
            for n2, e2 in k2.powers:
                if n2 in odd:
                    o2 = order[n2]
                    sign += e2 * sum(1 for o1 in odd1 if o1 > o2)
        merged = dict(k1.powers)
        for n, e in k2.powers:
            merged[n] = merged.get(n, 0) + e
        if odd and any(e > 1 for n, e in merged.items() if n in odd):
            return GradedElement(self.field)
        key = self._monomials[tuple((n, merged[n]) for n in self.gens
                                    if n in merged)]
        return GradedElement.single(self.field, key,
                                    parity_sign(self.field, sign))

    def diff_key(self, key):
        # Leibniz: d(x^e) = e x^{e-1} dx for even x, e = 1 for odd x; the
        # sign is the parity of the preceding factors.
        field = self.field
        out = GradedElement(field)
        if not self._dgen:
            return out
        pre = 0
        for idx, (name, e) in enumerate(key.powers):
            d = self.gens[name]
            dg = self._dgen.get(name)
            if dg is not None:
                sgn = parity_sign(field, pre)
                prefix = key.powers[:idx]
                suffix = (((name, e - 1),) if e > 1 else ()) + key.powers[idx + 1:]
                pm = self._monomials[prefix]
                sm = self._monomials[suffix]
                prod = self.mul(GradedElement.single(field, pm),
                                self.mul(dg, GradedElement.single(field, sm)))
                out.add_in(prod, field.mul(sgn, field.of(e)))
            pre += d * e
        return out


def free_dga_endo(A, scale):
    """The endomorphism of a FreeDga scaling every generator by `scale`."""
    f = A.field

    def key_image(k):
        factor = f.one
        for _ in k.letters:
            factor = f.mul(factor, f.of(scale))
        return GradedElement.single(f, k, factor)

    return lambda x: x.map_keys(key_image)


def gc_algebra_map(A, B, images):
    """The algebra map A -> B between FreeGcDga's sending each generator to
    the prescribed element of B.  Returns an element map (degree checked)."""
    for name, img in images.items():
        if not img.is_zero() and img.degree() != A.gens[name]:
            raise ValueError(f"image of {name} has wrong degree")

    def key_image(key):
        factors = []
        for name, e in key.powers:
            img = images.get(name)
            if img is None:
                raise KeyError(f"no image for generator {name}")
            factors.extend([img] * e)
        return B.mul_many(factors)

    return lambda x: x.map_keys(key_image)


def polynomial_dga(field, gens):
    """k[x_1,...,x_n] on even positive degrees, zero differential."""
    for name, d in gens:
        if d <= 0 or d % 2:
            raise ValueError(f"polynomial generator {name} must have even "
                             f"positive degree, got {d}")
    return FreeGcDga(field, gens)


class TensorDga(Dga):
    """A (x) B with componentwise structure and Koszul signs, its keys
    from its `Tensor` table."""

    def __init__(self, A, B):
        super().__init__(A.field)
        if A.ddeg != B.ddeg:
            raise ValueError("mismatched differential degrees")
        self.A = A
        self.B = B
        self.ddeg = A.ddeg
        self._tensors = Table(Tensor)
        self.unit_key = self._tensors[(A.unit_key, B.unit_key)]
        self.simply_connected = A.simply_connected and B.simply_connected

    def basis(self, degree):
        return tensor_basis(self.A, self.B, degree,
                            self._tensors.__getitem__)

    def diff_key(self, key):
        return tensor_diff_key(self.A, self.B, key,
                               self._tensors.__getitem__)

    def mul_keys(self, k1, k2):
        a1, b1 = k1.parts
        a2, b2 = k2.parts
        return tensor_elements(self.field, self.A.mul_keys(a1, a2),
                               self.B.mul_keys(b1, b2)).scale(
            parity_sign(self.field, b1.degree * a2.degree))


class FreeGcCoalgebra(Dgc):
    """The graded dual of `FreeGcDga`'s monomial basis, zero differential
    of degree `ddeg`: the exterior coalgebra on odd generators, the
    divided-power coalgebra on even ones.

    Keys are the monomials of `algebra`, the FreeGcDga on the same
    generators.  Delta m sums c m' (x) m'' over the splittings of m's
    exponents, c the coefficient of m in m' m'' (`FreeGcDga.mul_keys`):
    the unshuffle Koszul sign on odd generators, one on even ones.
    """

    def __init__(self, field, gens, ddeg):
        super().__init__(field)
        self.algebra = FreeGcDga(field, gens)
        self.ddeg = ddeg
        self.coaug_key = self.algebra.unit_key

    def basis(self, degree):
        return self.algebra.basis(degree)

    def diff_key(self, key):
        return GradedElement(self.field)

    def cop_key(self, key):
        A = self.algebra
        out = []
        for split in product(*(range(e + 1) for _, e in key.powers)):
            left = A.monomial([(n, b) for (n, _), b in zip(key.powers, split)])
            right = A.monomial([(n, e - b) for (n, e), b
                                in zip(key.powers, split)])
            out.append((A.mul_keys(left, right).coeff(key), left, right))
        return out


class TensorDgc(Dgc):
    """C (x) D with coproduct (1 (x) T (x) 1)(Delta (x) Delta), its keys
    from its `Tensor` table."""

    def __init__(self, C, D):
        super().__init__(C.field)
        if C.ddeg != D.ddeg:
            raise ValueError("mismatched differential degrees")
        self.C = C
        self.D = D
        self.ddeg = C.ddeg
        self._tensors = Table(Tensor)
        self.coaug_key = self._tensors[(C.coaug_key, D.coaug_key)]
        self.cocomplete = C.cocomplete and D.cocomplete

    def basis(self, degree):
        return tensor_basis(self.C, self.D, degree,
                            self._tensors.__getitem__)

    def diff_key(self, key):
        return tensor_diff_key(self.C, self.D, key,
                               self._tensors.__getitem__)

    def cop_key(self, key):
        kc, kd = key.parts
        field, tensors = self.field, self._tensors
        out = []
        for c, c1, c2 in self.C.cop_key(kc):
            for c_, d1, d2 in self.D.cop_key(kd):
                # sign from T moving d1 past c2
                coeff = field.mul(field.mul(c, c_), parity_sign(
                    field, d1.degree * c2.degree))
                out.append((coeff, tensors[(c1, d1)], tensors[(c2, d2)]))
        return out

    def counit_key(self, key):
        kc, kd = key.parts
        return self.field.mul(self.C.counit_key(kc), self.D.counit_key(kd))
