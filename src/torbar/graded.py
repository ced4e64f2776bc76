"""Sparse graded vectors over a basis of keyed generators, with Koszul signs.

A *basis key* is any hashable object with an integer ``degree`` attribute.
Modules register their own key kinds (simplices, bar words, monomials,
Koszul pairs); one linear-algebra engine serves them all.  Equal keys
may be one object: a space keeps one `SimplexKey` per simplex, a
`FreeGcDga` one `Monomial` per monomial, a `BarDgc` one `BarWord` per
word and a tensor construction of `dg` one `Tensor` per pair, each in a
`Table`, so most dict lookups hit on identity.  Equality by value stays
the fallback: a key built elsewhere, or after its table was emptied,
finds the same entries.

`Table` is the one memo type of the package: every per-object cache
(keys, bases, differentials, products, faces, interval cuts) is one, and
its docstring states the one cache policy.

`GradedElement` is a finite linear combination of keys; zero coefficients
are never stored.  `LinearMap` is a lazy degree-homogeneous map given by a
rule on keys.  `expand` is the one multilinear expansion: x (x) y
(`tensor_elements`), bilinear extensions of a rule on key pairs
(`bilinear`: products, shuffles) and bar words all pick their pure terms
through it and add whatever Koszul signs they need themselves.

This module is the one home of Koszul signs.  `parity_sign` is the one
(-1)^e in a field; `koszul_sign` the sign of permuting graded symbols and
`interleave_exponent` its O(n) form for un-interleaving pairs;
`suspension_exponent` the one desuspension (brace) sign.  `d_operation`
is the one differential of a multilinear operation, d(op) = d op -
(-1)^{|op|} op d: the Leibniz check of a dga, the differential of
Hom(C, A) and the differential axioms of the hga layer all go through it.
"""
from _weakref import ref

CAP = 1 << 16


class Table(dict):
    """A bounded memo: `table[key]` is the stored value, computed and
    stored on a miss as `compute(key)`, or as `compute(owner, key)` for a
    table built with an owner.

    The policy, the same for every cache of the package:
    - bounded: a table that holds `CAP` entries is emptied before the
      next one is stored (`_remember`), so a value may be computed again
      and callers must not rely on its identity across an emptying;
    - owner held weakly: a table built with an owner keeps only a weak
      reference to it, so an owner holding its table is in no reference
      cycle and is freed on `del`, without the cycle collector;
    - values shared and never mutated: every caller that looks a key up
      gets the same object.
    A hit is a plain dict lookup; `get` and `in` compute nothing."""

    __slots__ = ("_compute", "_owner")

    def __init__(self, compute=None, owner=None):
        self._compute = compute
        self._owner = None if owner is None else ref(owner)

    def __missing__(self, key):
        owner = self._owner
        return self._remember(key, self._compute(key) if owner is None
                              else self._compute(owner(), key))

    def _remember(self, key, value):
        """Store value under key, emptying the table first if full."""
        if len(self) >= CAP:
            self.clear()
        self[key] = value
        return value


class Tensor:
    """Tensor product of basis keys, used for C (x) A style complexes."""

    __slots__ = ("parts", "_hash", "_repr")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)
        self._repr = None

    def __eq__(self, other):
        return isinstance(other, Tensor) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    @property
    def degree(self):
        return sum(p.degree for p in self.parts)

    def __repr__(self):
        # formatted once: `linalg.homology` sorts its columns by repr
        got = self._repr
        if got is None:
            got = self._repr = " (x) ".join(repr(p) for p in self.parts)
        return got


class GradedElement:
    """Finite k-linear combination of basis keys.

    Supports mixed degrees; `degree()` returns the common degree of a
    homogeneous element and raises otherwise.  Coefficients given to the
    constructor or to `single` pass through `field.of`, so prime-field
    coefficients are stored reduced.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            z = field.zero
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = field.of(c)
                if c == z:
                    continue
                acc = self.terms.get(k)
                if acc is None:
                    self.terms[k] = c
                else:
                    acc = field.add(acc, c)
                    if acc == z:
                        del self.terms[k]
                    else:
                        self.terms[k] = acc

    @classmethod
    def single(cls, field, key, coeff=None):
        e = cls(field)
        c = field.one if coeff is None else field.of(coeff)
        if c != field.zero:
            e.terms[key] = c
        return e

    def is_zero(self):
        return not self.terms

    def degree(self):
        degs = {k.degree for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def coeff(self, key):
        return self.terms.get(key, self.field.zero)

    def add_in(self, other, scalar=None):
        """In-place add (used only while assembling a fresh element)."""
        f = self.field
        z = f.zero
        unit = scalar is None or scalar == f.one
        if not unit and scalar == z:
            return self
        for k, c in other.terms.items():
            if not unit:
                c = f.mul(scalar, c)
            acc = self.terms.get(k)
            acc = c if acc is None else f.add(acc, c)
            if acc == z:
                self.terms.pop(k, None)
            else:
                self.terms[k] = acc
        return self

    def add_pairs(self, pairs):
        """In-place add of (key, coeff) pairs, the coefficients field
        elements, dropping a sum that becomes zero (used only while
        assembling a fresh element).  `add_in` and the constructor keep
        their own loops: routing them through pairs made the formality
        workload about 3% slower."""
        add, z = self.field.add, self.field.zero
        terms = self.terms
        for k, c in pairs:
            acc = terms.get(k)
            if acc is not None:
                c = add(acc, c)
            if c == z:
                terms.pop(k, None)
            else:
                terms[k] = c
        return self

    def __add__(self, other):
        out = GradedElement(self.field, dict(self.terms))
        return out.add_in(other)

    def __sub__(self, other):
        out = GradedElement(self.field, dict(self.terms))
        return out.add_in(other, self.field.neg(self.field.one))

    def scale(self, scalar):
        f = self.field
        if scalar == f.zero:
            return GradedElement(f)
        return GradedElement(f, {k: f.mul(scalar, c) for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, GradedElement) and self.terms == other.terms \
            and self.field == other.field

    def __hash__(self):
        raise TypeError("GradedElement is not hashable")

    def map_keys(self, fn):
        """Linear extension of key -> GradedElement."""
        out = GradedElement(self.field)
        for k, c in self.terms.items():
            out.add_in(fn(k), c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"({self.field.fmt(c)})*{k!r}")
        return " + ".join(bits)


def expand(field, elems):
    """Multilinear expansion of x_1, ..., x_n: one (tuple of keys, coeff)
    per choice of one term from each x_i, coeff the product of the chosen
    coefficients (no signs).  `elems` may be any iterable; it is read only
    until a zero element empties the expansion."""
    combos = None
    for x in elems:
        if combos is None:
            # the first element's coefficients need no multiplication
            combos = [((k,), c) for k, c in x.terms.items()]
        else:
            combos = [(keys + (k,), field.mul(c, c2))
                      for keys, c in combos for k, c2 in x.terms.items()]
        if not combos:
            break
    return [((), field.one)] if combos is None else combos


def tensor_elements(field, *elems):
    """x (x) y (x) ... as a GradedElement over Tensor keys (no signs).

    The terms need no normalizing: distinct key tuples are distinct
    Tensors, and a product of nonzero stored coefficients is nonzero."""
    out = GradedElement(field)
    out.terms = {Tensor(keys): c for keys, c in expand(field, elems)}
    return out


def bilinear(field, fn, x, y):
    """The bilinear extension of fn(key1, key2) -> GradedElement to
    elements x and y (no signs)."""
    out = GradedElement(field)
    for (k1, k2), c in expand(field, (x, y)):
        out.add_in(fn(k1, k2), c)
    return out


class LinearMap:
    """Degree-homogeneous linear map given lazily on basis keys.

    `rule` maps a key to a GradedElement; evaluation on elements extends
    linearly.  The value on each key is kept in a `Table(rule, owner)`.
    """

    def __init__(self, degree, rule, owner=None):
        self.degree = degree
        self._values = Table(rule, owner)

    def __call__(self, key):
        return self._values[key]

    def of(self, elem):
        if not isinstance(elem, GradedElement):
            raise TypeError("LinearMap applies to GradedElement")
        return elem.map_keys(self)


def parity_sign(field, exponent):
    """(-1)^exponent in the field."""
    return field.neg(field.one) if exponent % 2 else field.one


def suspension_exponent(degrees):
    """sum (n-1-i) d_i over the degrees d_0, ..., d_{n-1} of n entries: the
    desuspension sign exponent for assembling [a_1|...|a_n] from values.

    This is the plain protocol sum (n-i) deg a_i: each desuspension crosses
    the not-yet-desuspended entries to its left.  With the standard tensor
    bar differential and the unsigned deconcatenation coproduct this is
    the unique convention under which the displayed twisting-family
    identities hold.  It differs from the alternative sum (n-i)(deg a_i - 1)
    by the global word-length twist n(n-1)/2.  Taken on (a, b_1, ..., b_l)
    it is the brace exponent l|a| + sum (l-m)|b_m|.
    """
    n = len(degrees)
    return sum((n - 1 - i) * d for i, d in enumerate(degrees))


def prefix_degrees(elems):
    """Partial sums of degrees, pre[i] = |a_1| + ... + |a_i|, a zero
    element counting as degree 0."""
    pre = [0]
    for a in elems:
        pre.append(pre[-1] + (a.degree() or 0))
    return pre


def d_operation(op, degree, d_in, d_out, args):
    """The differential of a multilinear operation `op` (a function of a
    list of elements) of degree `degree`, evaluated on the list `args`:

        (d op)(a) = d op(a) - (-1)^{|op|} sum_i (-1)^{|a_1|+...+|a_{i-1}|}
                    op(a_1, ..., d a_i, ..., a_n),

    `d_in` the differential of the arguments, `d_out` that of the values.
    An axiom "d(op) = rhs" holds on args iff the result minus rhs is zero.
    Terms whose d a_i is zero are skipped: op vanishes on them.
    """
    field = args[0].field
    pre = prefix_degrees(args)
    # a fresh sum: d_out may return a memoized value, never to be mutated
    out = GradedElement(field).add_in(d_out(op(args)))
    for i, a in enumerate(args):
        da = d_in(a)
        if not da.is_zero():
            out.add_in(op(args[:i] + [da] + args[i + 1:]),
                       parity_sign(field, degree + 1 + pre[i]))
    return out


def interleave_exponent(adegs, bdegs):
    """sum_{i<j} |b_i||a_j|, in one pass: the Koszul exponent of
    un-interleaving (a_1 (x) b_1) (x) ... (x) (a_n (x) b_n) into
    (a_1 (x) ... (x) a_n) (x) (b_1 (x) ... (x) b_n)."""
    e = 0
    bsum = 0
    for a, b in zip(adegs, bdegs):
        e += bsum * a
        bsum += b
    return e


def koszul_sign(degrees, perm):
    """Sign of permuting graded symbols: perm[i] = source index of slot i."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and degrees[perm[i]] % 2 and degrees[perm[j]] % 2:
                sign = -sign
    return sign
