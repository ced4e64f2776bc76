"""The reduced bar construction, its universal twisting cochain, the
bar-level shuffle map, the twisting-cochain / dgc-map correspondence,
one-sided bar constructions and differential Tor.

Bar words store entries as basis keys of the underlying dga with
coefficients folded outward; entries are reduced (no unit factors).  A
word [a_1|...|a_k] denotes the desuspended tensor s^{-1}a_1 (x) ... and
has degree sum(|a_i| - 1).  A `BarDgc` hands out one `BarWord` per tuple
of entries from its table, and every construction that holds a bar
(`KSAlgebra`, the families and the Gamma map of `shm`) builds its words
through it.  A bar is built once, by the one-sided bar that owns it, and
a dgc map into a bar (`dgc_map_from_cochain`) is given it as its target.
"""

from .graded import (GradedElement, LinearMap, Tensor, _remember, expand,
                     parity_sign)
from .linalg import homology, ReducedSpace, StructuralError
from .dg import (CheckReport, Dgc, TensorDga, TensorDgc, TwistingCochain,
                 TwistedTensor, commutes_with_d, preserves_coproduct,
                 tensor_basis)


class BarWord:
    """Basis key of the reduced bar construction.

    The `BarDgc` that builds a word keeps it in its table (at most
    WORD_CAP entries, emptied when full), so equal words of one bar are
    mostly one object; equality is still by value."""

    __slots__ = ("entries", "degree", "_hash")

    def __init__(self, entries):
        self.entries = entries
        self._hash = hash(entries)
        self.degree = sum(e.degree - 1 for e in entries)

    @property
    def length(self):
        return len(self.entries)

    @property
    def internal_degree(self):
        return self.degree + len(self.entries)

    def __eq__(self, other):
        return isinstance(other, BarWord) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.entries:
            return "[]"
        return "[" + "|".join(repr(e) for e in self.entries) + "]"


WORD_CAP = 1 << 16


class BarDgc(Dgc):
    """B A for an augmented dga A (cohomological grading).

    Every word it makes comes from its table (`_intern`, keyed by the
    entries).  The differential and the coproduct of each word are
    computed once and kept for the bar's lifetime, in plain dicts: a
    `LinearMap` over a bound method would tie the bar into a reference
    cycle, and a dropped bar would wait for the cycle collector.
    """

    def __init__(self, A):
        super().__init__(A.field)
        if A.ddeg != 1:
            raise ValueError("bar construction expects a cochain-type dga")
        if getattr(A, "unit_key", None) is None:
            raise ValueError("bar construction needs a basis-adapted unit "
                             "(connected dga)")
        self.A = A
        self.ddeg = 1
        self._words = {}
        self._diffs = {}
        self._cops = {}
        self.coaug_key = self._intern(())
        self.cocomplete = True

    def _intern(self, entries):
        """The bar's one BarWord with these entries (a tuple of keys)."""
        got = self._words.get(entries)
        if got is None:
            got = _remember(self._words, entries, BarWord(entries), WORD_CAP)
        return got

    def word(self, keys):
        return self._intern(tuple(keys))

    def words_from_elements(self, elems):
        """Multilinear expansion of [x_1|...|x_k] with reduced entries."""
        reduced = (self.A.reduced(x) for x in elems)
        return GradedElement(self.field, [(self._intern(keys), c) for keys, c
                                          in expand(self.field, reduced)])

    def basis(self, degree):
        """Bar words of the given bar degree (A must be simply connected)."""
        if not self.A.simply_connected:
            raise StructuralError(
                "bar basis enumeration requires a simply connected dga")
        if degree < 0:
            return []
        if degree == 0:
            return [self.coaug_key]
        out = []

        # entries have degree >= 2, so the unit (degree 0) is never one
        def extend(entries, rem):
            if rem == 0:
                out.append(self._intern(tuple(entries)))
                return
            for d in range(2, rem + 2):
                for k in self.A.basis(d):
                    extend(entries + [k], rem - (d - 1))

        extend([], degree)
        return out

    def diff_key(self, key):
        """Tensor differential plus multiplication part.

        d[..|a_i|..] = -sum (-1)^{e_{i-1}} [..|da_i|..]
                       + sum (-1)^{e_i} [..|a_i a_{i+1}|..],
        e_i the bar degree of the first i entries.  Computed once per
        word; the value is shared and must not be mutated.
        """
        got = self._diffs.get(key)
        if got is not None:
            return got
        A = self.A
        field = self.field
        out = GradedElement(field)
        entries = key.entries
        pre = 0
        for i, a in enumerate(entries):
            da = A.diff_key(a)
            if not da.is_zero():
                sgn = parity_sign(field, pre + 1)
                for k, c in da.terms.items():
                    if A.aug_key(k) != field.zero:
                        continue
                    w = self._intern(entries[:i] + (k,) + entries[i + 1:])
                    out.add_in(GradedElement.single(field, w),
                               field.mul(sgn, c))
            pre += a.degree - 1
        pre = 0
        for i in range(len(entries) - 1):
            pre += entries[i].degree - 1
            sgn = parity_sign(field, pre)
            prod = A.reduced(A.mul_keys(entries[i], entries[i + 1]))
            for k, c in prod.terms.items():
                w = self._intern(entries[:i] + (k,) + entries[i + 2:])
                out.add_in(GradedElement.single(field, w), field.mul(sgn, c))
        self._diffs[key] = out
        return out

    def cop_key(self, key):
        """Deconcatenation coproduct (no signs), a tuple computed once per
        word: its heads and tails are the same objects on every call."""
        got = self._cops.get(key)
        if got is None:
            entries = key.entries
            one = self.field.one
            got = self._cops[key] = tuple(
                (one, self._intern(entries[:i]), self._intern(entries[i:]))
                for i in range(len(entries) + 1))
        return got


def universal_cochain(barA):
    """t_A : B A -> A picking out length-one words."""
    A = barA.A
    field = barA.field

    def rule(key):
        if key.length == 1:
            return GradedElement.single(field, key.entries[0])
        return GradedElement(field)

    return TwistingCochain(barA, A, rule, name="t_A")


def dgc_map_from_cochain(t, barA):
    """The dgc map C -> B A into the given bar `barA` of A, with
    associated twisting cochain t: C -> A.

    c maps to sum_k [t(c_(1))|...|t(c_(k))] over the reduced iterated
    coproduct; there are no signs because s^{-1} t has degree zero.
    Requires C cocomplete; a key that is not conilpotent raises
    StructuralError (`Dgc.reduced_cop_levels`).
    """
    C = t.C
    if not C.cocomplete:
        raise StructuralError("dgc map from cochain needs a cocomplete source")
    field = C.field

    def rule(key):
        out = GradedElement.single(field, barA.coaug_key, C.counit_key(key))
        for level in C.reduced_cop_levels(key):
            for c, keys in level:
                out.add_in(barA.words_from_elements([t(k) for k in keys]), c)
        return out

    return LinearMap(field, 0, rule, name=f"B<{t.name}>")


def check_dgc_map(g, C, D, keys):
    """Coproduct and differential compatibility of g: C -> D on basis keys."""
    rep = CheckReport("dgc map")
    for k in keys:
        rep.record(commutes_with_d(g, C, D, k)
                   and preserves_coproduct(g, C, D, k), k)
    return rep


def bar_shuffle(barA, barB):
    """The shuffle dgc map B A (x) B B -> B (A (x) B), into a bar of
    A (x) B that it builds.

    Returns (map, twisting_cochain, source_dgc).  The associated twisting
    cochain sends [a](x)1 to a(x)1, 1(x)[b] to 1(x)b and all else to 0.
    """
    A, B = barA.A, barB.A
    AB = TensorDga(A, B)
    source = TensorDgc(barA, barB)
    field = A.field

    def rule(key):
        wa, wb = key.parts
        if wa.length == 1 and wb.length == 0:
            return GradedElement.single(
                field, Tensor((wa.entries[0], B.unit_key)))
        if wa.length == 0 and wb.length == 1:
            return GradedElement.single(
                field, Tensor((A.unit_key, wb.entries[0])))
        return GradedElement(field)

    t = TwistingCochain(source, AB, rule, name="shuffle cochain")
    return dgc_map_from_cochain(t, BarDgc(AB)), t, source


class OneSidedBar(TwistedTensor):
    """B(k, A, B) = B A (x)_{f o t_A} B for a dga map f: A -> B, given as
    an element map (callable on GradedElements) and kept as `self.f`.

    It builds the construction's one bar B A, kept as `self.C`, and its
    twisting cochain f o t_A on it; the coefficients B are `self.A`.
    """

    def __init__(self, A, B, f):
        self.f = f
        field = A.field

        def rule(key):
            if key.length == 1:
                return f(GradedElement.single(field, key.entries[0]))
            return GradedElement(field)

        super().__init__(TwistingCochain(BarDgc(A), B, rule, name="f.t_A"))

    def basis_total(self, degree):
        """All word (x) coefficient keys of the given total degree."""
        return tensor_basis(self.C, self.A, degree)


class TorTable:
    """Bigraded dimension table of a differential torsion product.

    `bidegrees` maps (s, t) with s = -word length <= 0 and t = internal
    degree to a dimension.  `totals` maps total degree s + t to the
    dimension of the homology there.  Cycle representatives (dict key ->
    coeff) are retained per total degree for product sampling, and
    `spaces` holds the class space of each total degree (see `linalg`),
    against which `express_class` reads the coordinates of any cycle.
    """

    def __init__(self, bidegrees, totals, representatives, spaces):
        self.bidegrees = dict(bidegrees)
        self.totals = dict(totals)
        self.representatives = representatives
        self.spaces = spaces
        # sampled products, set by `homog`
        self.products = []

    def poincare(self):
        degs = sorted(d for d, v in self.totals.items() if v)
        bits = []
        for d in degs:
            c = self.totals[d]
            if d == 0:
                bits.append(str(c))
            else:
                term = f"q^{d}" if d != 1 else "q"
                bits.append(term if c == 1 else f"{c}*{term}")
        return "+".join(bits) if bits else "0"

    def to_json(self):
        data = {
            "bidegrees": sorted([s, t, dim] for (s, t), dim in
                                self.bidegrees.items() if dim),
            "poincare": self.poincare(),
            "totals": {str(d): v for d, v in sorted(self.totals.items())},
        }
        if self.products:
            data["products"] = self.products
        return data

    def __repr__(self):
        return f"TorTable({self.to_json()['bidegrees']})"


def tor_additive(osb, max_total):
    """Bigraded/total dimensions of H(B(k, A, B)) up to total degree, with
    a representative basis and the class space of each total degree.

    Needs basis enumeration for the bar factor (A simply connected) and
    the coefficients.  Kernels at the top degree only need differential
    values (target keys are opaque), so the enumeration stops at
    max_total.  `homology` checks d^2 = 0 on every key below max_total.
    When the differential preserves the internal degree the complex is
    split into its columns (`split_homology`); otherwise it is eliminated
    whole and the bidegree table stays empty.
    """
    basis = {n: osb.basis_total(n) for n in range(0, max_total + 1)}

    def diff(k):
        return osb.diff_key(k).terms

    if _is_bidegree_pure(osb, basis):
        return split_homology(basis, diff, osb.field, _bar_bigrade)
    res = homology(basis, diff, osb.field, ddeg=1)
    return TorTable({}, res.dims, representatives=res.representatives,
                    spaces=res.spaces)


def _bar_bigrade(key):
    """(s, t) of a word (x) coefficient key: s = -length, t the internal
    degree."""
    w, b = key.parts
    return (-w.length, w.internal_degree + b.degree)


def split_homology(basis, diff, field, bigrade):
    """Homology of a complex graded by total degree whose differential
    preserves t and raises s by one, where bigrade(key) = (s, t) and
    s + t is the total degree.

    `basis` maps total degree -> keys.  Each column (one t) is eliminated
    once by `homology`, which also checks d^2 = 0 there.  Columns share no
    keys, so the class space of a total degree is its columns' class
    spaces joined by `ReducedSpace.extend`, each column's representative
    tags shifted by the number of representatives before it.  Returns a
    TorTable.
    """
    columns = {}
    for keys in basis.values():
        for k in keys:
            s, t = bigrade(k)
            columns.setdefault(t, {}).setdefault(s, []).append(k)
    bigr = {}
    totals = {n: 0 for n in basis}
    reps = {n: [] for n in basis}
    spaces = {n: ReducedSpace(field) for n in basis}
    for t, sub in sorted(columns.items()):
        res = homology(sub, diff, field, ddeg=1)
        for s, dim in res.dims.items():
            n = s + t
            if dim:
                bigr[(s, t)] = dim
            totals[n] += dim
            spaces[n].extend(res.spaces[s], len(reps[n]))
            reps[n].extend(res.representatives[s])
    return TorTable(bigr, totals, representatives=reps, spaces=spaces)


def _is_bidegree_pure(osb, basis):
    """True when d preserves internal degree (zero differentials upstream)."""
    return all(_bar_bigrade(k2)[1] == _bar_bigrade(k)[1]
               for keys in basis.values() for k in keys
               for k2 in osb.diff_key(k).terms)

