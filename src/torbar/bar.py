"""The reduced bar construction, its universal twisting cochain, the
bar-level shuffle map, the twisting-cochain / dgc-map correspondence,
one-sided bar constructions and differential Tor.

Bar words store entries as basis keys of the underlying dga with
coefficients folded outward; entries are reduced (no unit factors).  A
word [a_1|...|a_k] denotes the desuspended tensor s^{-1}a_1 (x) ... and
has degree sum(|a_i| - 1).  A `BarDgc` hands out one `BarWord` per tuple
of entries from its word table, and every construction that holds a bar
(`KSAlgebra`, the dgc map of a twisting cochain) builds its words
through it.  A bar is built once, by the one-sided bar that owns it, and
a dgc map into a bar (`dgc_map_from_cochain`) is given it as its target.
"""

from .graded import (GradedElement, LinearMap, Table, Tensor, expand,
                     parity_sign)
from .linalg import homology, ReducedSpace, StructuralError
from .dg import (CheckReport, Dgc, TensorDga, TensorDgc, TwistingCochain,
                 TwistedTensor, commutes_with_d, preserves_coproduct,
                 tensor_basis)


class BarWord:
    """Basis key of the reduced bar construction.

    The `BarDgc` that builds a word keeps it in its word table, so equal
    words of one bar are mostly one object; equality is still by value."""

    __slots__ = ("entries", "degree", "_hash", "_repr")

    def __init__(self, entries):
        self.entries = entries
        self._hash = hash(entries)
        self.degree = sum(e.degree - 1 for e in entries)
        self._repr = None

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
        # formatted once: `linalg.homology` sorts its columns by repr
        got = self._repr
        if got is None:
            got = self._repr = "[" + "|".join(map(repr, self.entries)) + "]"
        return got


class BarDgc(Dgc):
    """B A for a connected dga A (cohomological grading): A's degree 0
    is spanned by the unit, so an entry, its differential and the
    product of two entries have positive degree and need no reduction.

    It keeps four `Table`s: its words, keyed by the tuple of entries
    (every word it makes comes from there), its basis lists, keyed by
    degree, and the differential and the coproduct of each word, keyed
    by the word.
    """

    def __init__(self, A):
        super().__init__(A.field)
        if A.ddeg != 1:
            raise ValueError("bar construction expects a cochain-type dga")
        if list(A.basis(0)) != [A.unit_key]:
            raise ValueError("bar construction needs a connected dga: its "
                             "degree 0 spanned by the unit key")
        self.A = A
        self.ddeg = 1
        self._words = Table(BarWord)
        self._bases = Table(BarDgc._basis, self)
        self._diffs = Table(BarDgc._diff, self)
        self._cops = Table(BarDgc._cop, self)
        self.coaug_key = self._words[()]
        self.cocomplete = True

    def word(self, keys):
        return self._words[tuple(keys)]

    def words_from_elements(self, elems):
        """Multilinear expansion of [x_1|...|x_k], the x_i of positive
        degree (so without unit terms)."""
        words = self._words
        return GradedElement(self.field, [(words[keys], c) for keys, c
                                          in expand(self.field, elems)])

    def basis(self, degree):
        """Bar words of the given bar degree (A must be simply connected),
        enumerated once per degree and kept as a list."""
        if not self.A.simply_connected:
            raise StructuralError(
                "bar basis enumeration requires a simply connected dga")
        return self._bases[degree]

    def _basis(self, degree):
        # entries have degree >= 2, so the unit (degree 0) is never one;
        # words[r] holds the entry tuples of bar degree r, the first entry
        # varying slowest and each in the order of A's basis
        bases = {d: self.A.basis(d) for d in range(2, degree + 2)}
        words = [[()]]
        for r in range(1, degree + 1):
            words.append([(k,) + w for d in range(2, r + 2)
                          for k in bases[d] for w in words[r + 1 - d]])
        table = self._words
        return [table[w] for w in words[degree]] if degree >= 0 else []

    def diff_key(self, key):
        """Tensor differential plus multiplication part.

        d[..|a_i|..] = -sum (-1)^{e_{i-1}} [..|da_i|..]
                       + sum (-1)^{e_i} [..|a_i a_{i+1}|..],
        e_i the bar degree of the first i entries, assembled in one dict.
        Computed once per word; the value is shared and must not be
        mutated.
        """
        return self._diffs[key]

    def _diff(self, key):
        A, intern = self.A, self._words.__getitem__
        field = self.field
        mul = field.mul
        entries = key.entries
        pairs = []
        pre = 0
        for i, a in enumerate(entries):
            da = A.diff_key(a).terms
            if da:
                sgn = parity_sign(field, pre + 1)
                pairs += [(intern(entries[:i] + (k,) + entries[i + 1:]),
                           mul(sgn, c)) for k, c in da.items()]
            pre += a.degree - 1
        pre = 0
        for i in range(len(entries) - 1):
            pre += entries[i].degree - 1
            sgn = parity_sign(field, pre)
            pairs += [(intern(entries[:i] + (k,) + entries[i + 2:]),
                       mul(sgn, c)) for k, c in
                      A.mul_keys(entries[i], entries[i + 1]).terms.items()]
        return GradedElement(field).add_pairs(pairs)

    def cop_key(self, key):
        """Deconcatenation coproduct (no signs), a tuple computed once per
        word: its heads and tails are the same objects on every call."""
        return self._cops[key]

    def _cop(self, key):
        entries, words, one = key.entries, self._words, self.field.one
        return tuple((one, words[entries[:i]], words[entries[i:]])
                     for i in range(len(entries) + 1))


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
    The terms are those of `Dgc.reduced_cop_terms`, which does not follow
    a split whose front piece t sends to zero.  Requires C cocomplete; a
    key that is not conilpotent raises StructuralError.
    """
    C = t.C
    if not C.cocomplete:
        raise StructuralError("dgc map from cochain needs a cocomplete source")
    field = C.field

    def rule(key):
        out = GradedElement.single(field, barA.coaug_key, C.counit_key(key))
        for c, keys in C.reduced_cop_terms(key, lambda k: not t(k).is_zero()):
            out.add_in(barA.words_from_elements([t(k) for k in keys]), c)
        return out

    return LinearMap(0, rule)


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
        return tensor_basis(self.C, self.A, degree,
                            self._tensors.__getitem__)


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
        # sampled products, set by `homog`, their coordinates field
        # elements (None for a product outside the class space)
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
            data["products"] = [
                {**entry, "coords": None if entry["coords"] is None
                 else [str(c) for c in entry["coords"]]}
                for entry in self.products]
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
    """True when d preserves the internal degree (zero differentials
    upstream).  It evaluates the differential of every key of `basis`,
    and `homology` then reads those values from the complex's memo."""
    for keys in basis.values():
        for k in keys:
            w, b = k.parts
            t = w.internal_degree + b.degree
            for k2 in osb.diff_key(k).terms:
                w2, b2 = k2.parts
                if w2.internal_degree + b2.degree != t:
                    return False
    return True
