"""Simplicial sets, normalized chains and cochains, interval cut
operations, the cochain homotopy Gerstenhaber structure, simplicial groups
and the loop action.

Simplices are immutable data handled by their space; chains are sparse
combinations of nondegenerate simplex keys (degenerate faces are dropped
at construction, which implements normalization once and for all).
Cochains are computable functionals on nondegenerate simplices, so lazily
enumerated spaces only ever answer finitely many queries.  On a degreewise
finite space, `DualCochainDga` is C*(X) as a `Dga` whose basis keys are the
`SimplexKey`s themselves: the key of a simplex also names its dual cochain.
`DualCochainDga.through_functionals` evaluates an operation on the
functionals of vectors and vectorizes the result: `hga.VectorHga` takes
its E_k and F_kl (those of `CochainHga`) that way, and so does the cup
product, except on W-bar spaces, where the simplices of a product are
listed from the heads over the front face and the tail that is the back
face (`classifying.WBar.heads`, built from the `last_face_fibre` that every
`SimplicialGroup` has).

Every `SimplicialSet` owns four tables (`graded.Table`) of its
simplicial hot path, filled on first use and keyed by dimensions and raw
simplex data, which is sound because face and degeneracy are pure
functions of (p, data):

- `is_degenerate(p, data)`, keyed by (p, data).  It asks the space's
  `degenerate_at(p, k, data)` for each k < p: whether x is s_k of a
  (p-1)-simplex.  The generic answer tests x = s_k d_k x; a simplex, a
  constant group, a product, a W-bar space and its total space read it
  off the entries of x instead, with no face or degeneracy computed;
- `nondegenerate(p)`, keyed by p: the nondegenerate p-simplices, found
  from the degeneracies of the slice below, which also fills the
  `is_degenerate` table for the whole slice;
- `key(p, data)`, keyed by (p, data): one shared `SimplexKey` per
  simplex, so memoized cuts hold references to keys, not copies of them;
- `interval_cut(u, key, dims)`, keyed by (u.seq, dims, p, data) on
  key.space, each a tuple of (coeff, tuple of factor keys).  `dims` is
  None for the full cut, or the factor dimensions of the only terms a
  caller reads: `surjection_op` (so E_k, F_kl, `cup`, cup1 and cup2)
  passes its cochains' degrees and cuts no shape that its cochains pair
  to zero.  The Alexander-Whitney diagonal is the full cut of `AW` =
  (1, 2), every term with sign +1: the coproduct of `ChainsDgc` and each
  `partial_diagonal` read it, so they share one entry per simplex.

Results are shared between callers and immutable (bools, keys and
tuples).  The shapes of interval cuts depend only on (u.seq, n):
`_cut_shapes` generates only the valid cuts, grouped by factor
dimensions, once per pair, and keeps those of the 256 most recent pairs;
the full cut reads the groups one after another.

Two more tables have the same form: a W-bar group
(`classifying.WBarGroup`) keeps its faces, keyed by (k, data), and its
products, keyed by (x, y); the middle faces of a W-bar space multiply two
entries in its group, so a table of the group's few products serves all
of them.  The faces of other spaces are not memoized.  Instead, one
interval cut takes all of its factors' faces of one simplex through one
table (vertex tuple -> face data, see `face_by_vertices_data`), so the
deletions those faces share are taken once.  The table is transient, not
a memo: the cut creates it and drops it when it returns.
"""
from functools import lru_cache
from itertools import (chain, combinations, combinations_with_replacement,
                       product)

from .dg import Dga, Dgc
from .graded import (GradedElement, Table, Tensor, bilinear,
                     interleave_exponent, koszul_sign, parity_sign)
from .linalg import homology, StructuralError


class SimplexKey:
    """Basis key for a simplex: space + dimension + data, built by the
    space's key table from the pair (dimension, data)."""

    __slots__ = ("space", "degree", "data", "_hash")

    def __init__(self, space, simplex):
        self.space = space
        self.degree, self.data = simplex
        self._hash = hash((id(space), self.degree, self.data))

    def __eq__(self, other):
        return (isinstance(other, SimplexKey) and other.space is self.space
                and other.degree == self.degree and other.data == self.data)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.data}:{self.degree}>"


class SimplicialSet:
    """Base: subclasses implement face/degeneracy on raw simplex data."""

    def __init__(self, field):
        self.field = field
        self._nondeg_cache = Table(SimplicialSet._nondegenerate, self)
        self._degenerate_memo = Table(SimplicialSet._is_degenerate, self)
        self._key_memo = Table(SimplexKey, self)
        self._cut_memo = Table()

    # -- required ---------------------------------------------------------
    def face(self, p, i, data):
        raise NotImplementedError

    def degeneracy(self, p, i, data):
        raise NotImplementedError

    def simplices(self, p):
        """All p-simplices (including degenerate ones); finite spaces only."""
        raise NotImplementedError(f"{type(self).__name__} is not enumerable")

    def basepoint(self):
        raise NotImplementedError(f"{type(self).__name__} has no basepoint")

    # -- generic ----------------------------------------------------------
    def key(self, p, data):
        return self._key_memo[(p, data)]

    def basepoint_key(self):
        return self.key(0, self.basepoint())

    def degenerate_at(self, p, k, data):
        """Whether the p-simplex `data` is s_k of a (p-1)-simplex, that is
        x = s_k d_k x.  Spaces whose degeneracies have a formula override
        this to read the answer off the entries of `data`."""
        return self.degeneracy(p - 1, k, self.face(p, k, data)) == data

    def is_degenerate(self, p, data):
        return self._degenerate_memo[(p, data)]

    def _is_degenerate(self, key):
        p, data = key
        degenerate_at = self.degenerate_at
        return any(degenerate_at(p, k, data) for k in range(p))

    def nondegenerate(self, p):
        """The nondegenerate p-simplices, in the order of `simplices(p)`.

        The degenerate ones are by definition the s_k y, y a (p-1)-simplex
        and k < p: one set of them is built from the (p-1)-slice through
        `degeneracy`, and each p-simplex is looked up in it, not tested
        for each k.  Each answer is recorded in the `is_degenerate` table,
        which the cuts and faces of these simplices read next."""
        return self._nondeg_cache[p]

    def _nondegenerate(self, p):
        degeneracy = self.degeneracy
        degenerate = {degeneracy(p - 1, k, y)
                      for y in (self.simplices(p - 1) if p else ())
                      for k in range(p)}
        remember = self._degenerate_memo._remember
        got = []
        for x in self.simplices(p):
            if not remember((p, x), x in degenerate):
                got.append(x)
        return got

    def chain(self, p, data):
        """The normalized chain of a single simplex (0 if degenerate)."""
        if self.is_degenerate(p, data):
            return GradedElement(self.field)
        return GradedElement.single(self.field, self.key(p, data))

    def boundary_key(self, key):
        """sum_i (-1)^i d_i x over the nondegenerate faces, as one
        `GradedElement`, which adds up faces that coincide."""
        p = key.degree
        if p == 0:
            return GradedElement(self.field)
        signs = (self.field.one, self.field.neg(self.field.one))
        terms = []
        for i in range(p + 1):
            f = self.face(p, i, key.data)
            if not self.is_degenerate(p - 1, f):
                terms.append((self.key(p - 1, f), signs[i % 2]))
        return GradedElement(self.field, terms)

    def boundary(self, chain):
        return chain.map_keys(self.boundary_key)

    def face_by_vertices_data(self, data, p, vertices, table=None):
        """The face of the p-simplex `data` spanned by the strictly
        increasing vertex tuple `vertices`.  `table` maps vertex tuples to
        faces of this one simplex: a caller taking many faces of one
        simplex passes one table to each call, so that the faces their
        deletions share are taken once."""
        return self._face_through(data, p, vertices,
                                  {} if table is None else table)

    def _face_through(self, data, p, vertices, table):
        """With j the smallest vertex missing from `vertices`, the face is
        d_j of the face spanned by `vertices` with j put back, looked up in
        or added to `table`; so the missing vertices are deleted from the
        highest down."""
        n = len(vertices)
        if n == p + 1:
            return data
        got = table.get(vertices)
        if got is None:
            j = 0
            while j < n and vertices[j] == j:
                j += 1
            got = table[vertices] = self.face(n, j, self._face_through(
                data, p, vertices[:j] + (j,) + vertices[j:], table))
        return got

    def check_simplicial_identities(self, samples):
        """Face/degeneracy identities on (p, data) samples."""
        for p, data in samples:
            for i in range(p + 1):
                for j in range(i, p + 1):
                    if p >= 2 and j > i:
                        lhs = self.face(p - 1, i, self.face(p, j, data))
                        rhs = self.face(p - 1, j - 1, self.face(p, i, data))
                        if lhs != rhs:
                            raise StructuralError(
                                f"d_i d_j fails at {data} ({i},{j})")
            for i in range(p):
                for j in range(p):
                    sij = self.degeneracy(p + 1, i, self.degeneracy(p, j, data))
                    if i <= j:
                        alt = self.degeneracy(p + 1, j + 1,
                                              self.degeneracy(p, i, data))
                        if sij != alt:
                            raise StructuralError(
                                f"s_i s_j fails at {data} ({i},{j})")
            for i in range(p + 1):
                for j in range(p):
                    lhs = self.face(p + 1, i, self.degeneracy(p, j, data))
                    if i < j:
                        rhs = self.degeneracy(p - 1, j - 1, self.face(p, i, data))
                    elif i in (j, j + 1):
                        rhs = data
                    else:
                        rhs = self.degeneracy(p - 1, j, self.face(p, i - 1, data))
                    if lhs != rhs:
                        raise StructuralError(
                            f"d_i s_j fails at {data} ({i},{j})")
        return True


# ---------------------------------------------------------------------------
# Concrete spaces
# ---------------------------------------------------------------------------

class SimplexComplex(SimplicialSet):
    """Full simplex on vertices 0..n, or its boundary (proper faces only).

    Simplices are nondecreasing vertex tuples; degenerate = repeated entry.
    """

    def __init__(self, field, n, boundary=False):
        super().__init__(field)
        self.n = n
        self.boundary_only = boundary

    def face(self, p, i, data):
        return data[:i] + data[i + 1:]

    def degeneracy(self, p, i, data):
        return data[:i + 1] + data[i:]

    def simplices(self, p):
        for comb in combinations_with_replacement(range(self.n + 1), p + 1):
            if self.boundary_only and len(set(comb)) == self.n + 1:
                continue
            yield comb

    def degenerate_at(self, p, k, data):
        return data[k] == data[k + 1]

    def basepoint(self):
        return (0,)


def standard_simplex(field, n):
    return SimplexComplex(field, n)


def simplex_boundary(field, n):
    return SimplexComplex(field, n, boundary=True)


class ProductSpace(SimplicialSet):
    """X x Y with componentwise structure maps."""

    def __init__(self, X, Y):
        super().__init__(X.field)
        self.X = X
        self.Y = Y

    def face(self, p, i, data):
        x, y = data
        return (self.X.face(p, i, x), self.Y.face(p, i, y))

    def degeneracy(self, p, i, data):
        x, y = data
        return (self.X.degeneracy(p, i, x), self.Y.degeneracy(p, i, y))

    def degenerate_at(self, p, k, data):
        """s_k acts componentwise, so both components must be s_k images."""
        x, y = data
        return self.X.degenerate_at(p, k, x) and self.Y.degenerate_at(p, k, y)

    def simplices(self, p):
        for x in self.X.simplices(p):
            for y in self.Y.simplices(p):
                yield (x, y)

    def basepoint(self):
        return (self.X.basepoint(), self.Y.basepoint())


# ---------------------------------------------------------------------------
# Shuffle map, interval cuts, partial diagonals
# ---------------------------------------------------------------------------

def shuffles(p, q):
    """(p, q)-shuffles: pairs (alpha, beta) partitioning 0..p+q-1 with
    |alpha| = p, |beta| = q, plus the permutation sign."""
    out = []
    universe = range(p + q)
    for alpha in combinations(universe, p):
        beta = tuple(i for i in universe if i not in alpha)
        out.append((alpha, beta, koszul_sign([1] * (p + q), alpha + beta)))
    return out


def chain_shuffle(xkey, ykey, product_space):
    """The Eilenberg-Zilber shuffle C_p(X) (x) C_q(Y) -> C_{p+q}(X x Y)."""
    X = xkey.space
    Y = ykey.space
    field = X.field
    p, q = xkey.degree, ykey.degree
    out = GradedElement(field)
    for alpha, beta, sign in shuffles(p, q):
        x = degeneracies(X, p, xkey.data, beta)
        y = degeneracies(Y, q, ykey.data, alpha)
        out.add_in(product_space.chain(p + q, (x, y)),
                   field.of(sign))
    return out


def degeneracies(space, p, data, indices):
    """s_{i_m} ... s_{i_1} of the p-simplex `data` for ascending indices
    i_1 < ... < i_m: s_{i_1} first, the dimension growing by one each
    step."""
    for i in indices:
        data = space.degeneracy(p, i, data)
        p += 1
    return data


def shuffle_elements(xe, ye, product_space):
    return bilinear(product_space.field,
                    lambda kx, ky: chain_shuffle(kx, ky, product_space),
                    xe, ye)


class Surjection:
    """A nondegenerate surjection u: {1..k+l} -> {1..l} (interval cuts).

    Equal and hashed by `seq`, which is read-only: the interval-cut memo
    and `_cut_shapes` are keyed by `u.seq`, so a surjection changed in
    place would read the cuts of another."""

    __slots__ = ("_seq",)

    def __init__(self, seq):
        r = max(seq)
        if set(seq) != set(range(1, r + 1)):
            raise ValueError(f"{seq} is not surjective onto 1..{r}")
        if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"{seq} is degenerate (equal adjacent entries)")
        self._seq = seq

    @property
    def seq(self):
        return self._seq

    def __eq__(self, other):
        return isinstance(other, Surjection) and other._seq == self._seq

    def __hash__(self):
        return hash(self._seq)

    @property
    def arity(self):
        return max(self.seq)

    @property
    def degree(self):
        return len(self.seq) - self.arity

    def enclaves(self):
        """Pairs (i, i') (0-based) with u(i) = u(i'), i' >= i+2, and the
        values strictly between them absent at positions <= i or >= i'."""
        u = self.seq
        out = []
        for i in range(len(u)):
            for ip in range(i + 2, len(u)):
                if u[i] != u[ip]:
                    continue
                between = set(u[i + 1:ip])
                outer = set(u[:i + 1]) | set(u[ip:])
                if not between & outer:
                    out.append((i, ip))
        return out

    def has_enclave(self):
        return bool(self.enclaves())

    def __repr__(self):
        return f"Surjection{self.seq}"


def e_surjection(k):
    """e_k = (1, 2, 1, 3, 1, ..., 1, k+1, 1)."""
    seq = []
    for i in range(k):
        seq.extend([1, i + 2])
    seq.append(1)
    return Surjection(tuple(seq))


def f_surjection(k, l):
    """f_kl = (k+1, 1, k+1, 2, ..., k+1, k, k+1, k, k+2, k, ..., k+l, k)."""
    seq = []
    for i in range(1, k + 1):
        seq.extend([k + 1, i])
    seq.extend([k + 1, k])
    for i in range(2, l + 1):
        seq.extend([k + i, k])
    return Surjection(tuple(seq))


G12 = Surjection((2, 3, 1, 3, 1, 2, 1))
G21 = Surjection((3, 1, 3, 2, 3, 2, 1))
# the Alexander-Whitney diagonal, whose transpose is the cup product
AW = Surjection((1, 2))


@lru_cache(maxsize=256)
def _cut_shapes(seq, n):
    """The interval cuts of a surjection on an n-simplex as a dict, cached
    since it depends only on (seq, n): factor dimensions -> tuple of
    (sign, vertex tuple per factor), in the lexicographic order of the
    cut points.  Only valid cuts are generated: an interval whose label
    occurred before, at position s, starts after q_{s+1}, the end of that
    interval, so each factor's vertices strictly increase.  The sign is
    the Koszul permutation sign of sorting the intervals by label with
    caesura weights (non-final intervals count one extra), times
    (-1)^{endpoint} for every non-final interval; this is the convention
    pinned by the displayed differential identities of the cochain
    operations."""
    m = len(seq)
    r = max(seq)
    last = {v: t for t, v in enumerate(seq)}
    by_label = sorted(range(m), key=seq.__getitem__)
    cuts = [(0,)]
    for t in range(1, m):
        s = max((i for i in range(t) if seq[i] == seq[t]), default=None)
        cuts = [qs + (q,) for qs in cuts for q in range(
            qs[-1] if s is None else max(qs[-1], qs[s + 1] + 1), n + 1)]
    groups = {}
    for qs in cuts:
        qs += (n,)
        verts = [[] for _ in range(r)]
        endpoints = 0
        weights = []
        for t, v in enumerate(seq):
            verts[v - 1].extend(range(qs[t], qs[t + 1] + 1))
            w = qs[t + 1] - qs[t]
            if last[v] != t:
                w += 1
                endpoints += qs[t + 1]
            weights.append(w)
        sign = koszul_sign(weights, by_label)
        if endpoints % 2:
            sign = -sign
        groups.setdefault(tuple(len(vs) - 1 for vs in verts), []).append(
            (sign, tuple(tuple(vs) for vs in verts)))
    return {dims: tuple(terms) for dims, terms in groups.items()}


def interval_cut(u, key, dims=None):
    """AW_u(sigma): the signed sum over interval cuts.

    Returns a tuple of (coeff, tuple of factor SimplexKeys) with
    degenerate-factor terms dropped (normalization), memoized on the
    space of `key`.  With `dims` a tuple of factor dimensions, only the
    terms whose factors have those dimensions are cut; a caller that
    pairs the factors with cochains of known degrees reads no other term.
    The full cut reads the groups of `_cut_shapes` one after another."""
    X = key.space
    n = key.degree
    memo_key = (u.seq, dims, n, key.data)
    got = X._cut_memo.get(memo_key)
    if got is not None:
        return got
    groups = _cut_shapes(u.seq, n)
    shapes = (chain.from_iterable(groups.values()) if dims is None
              else groups.get(dims, ()))
    out = []
    faces = {}
    for sign, shape in shapes:
        factors = []
        for vs in shape:
            data = X.face_by_vertices_data(key.data, n, vs, faces)
            if X.is_degenerate(len(vs) - 1, data):
                break
            factors.append(X.key(len(vs) - 1, data))
        else:
            out.append((X.field.of(sign), tuple(factors)))
    return X._cut_memo._remember(memo_key, tuple(out))


def partial_diagonal(key, k):
    """P^n_k(sigma) = sigma(0..k) (x) sigma(k..n), zero when degenerate:
    the term of the interval cut of AW whose front factor has degree k."""
    n = key.degree
    if not 0 <= k <= n:
        raise ValueError(f"P^n_k needs 0 <= k <= n, got {k}, {n}")
    return GradedElement(key.space.field, [
        (Tensor(factors), c) for c, factors in interval_cut(AW, key)
        if factors[0].degree == k])


class ChainsDgc(Dgc):
    """C(X) as a dgc (homological, ddeg = -1) with the AW coproduct."""

    ddeg = -1
    cocomplete = False

    def __init__(self, X):
        super().__init__(X.field)
        self.X = X

    @property
    def coaug_key(self):
        return self.X.basepoint_key()

    def counit_key(self, key):
        return self.field.one if key.degree == 0 else self.field.zero

    def basis(self, degree):
        return [self.X.key(degree, x) for x in self.X.nondegenerate(degree)]

    def diff_key(self, key):
        return self.X.boundary_key(key)

    def cop_key(self, key):
        """The interval cut of AW, each of whose terms has sign +1."""
        return [(c, a, b) for c, (a, b) in interval_cut(AW, key)]


# ---------------------------------------------------------------------------
# Cochains as computable functionals
# ---------------------------------------------------------------------------

class Cochain:
    """A normalized cochain: degree + functional on nondegenerate keys."""

    __slots__ = ("space", "degree", "fn")

    def __init__(self, space, degree, fn):
        self.space = space
        self.degree = degree
        self.fn = fn

    def __call__(self, key):
        if key.degree != self.degree:
            return self.space.field.zero
        return self.fn(key)

    def eval_chain(self, chain):
        field = self.space.field
        s = field.zero
        for k, c in chain.terms.items():
            if k.degree == self.degree:
                s = field.add(s, field.mul(c, self.fn(k)))
        return s

    def add(self, other):
        f = self.space.field
        if other.degree != self.degree:
            raise ValueError("adding cochains of different degrees")
        return Cochain(self.space, self.degree,
                       lambda k: f.add(self(k), other(k)))

    def scale(self, c):
        f = self.space.field
        return Cochain(self.space, self.degree,
                       lambda k: f.mul(c, self(k)))


def zero_cochain(space, degree):
    return Cochain(space, degree, lambda k: space.field.zero)


def unit_cochain(space):
    return Cochain(space, 0, lambda k: space.field.one)


def coboundary(a):
    """(da)(x) = (-1)^{|a|+1} a(dx)."""
    space = a.space
    field = space.field
    sgn = parity_sign(field, a.degree + 1)

    def fn(key):
        return field.mul(sgn, a.eval_chain(space.boundary_key(key)))

    return Cochain(space, a.degree + 1, fn)


def surjection_op(u, cochains):
    """transpose AW_u applied to cochains: the cochain with
    value (-1)^{d(u) sum|a_i|} (a_1 (x)...(x) a_r)(AW_u(sigma)).

    a_i pairs to zero with a factor of another degree, so only the terms
    of the cut whose factor dimensions are the |a_i| are cut, and each
    has the same Koszul pairing sign (-1)^{sum_{i<j} |a_i||a_j|}."""
    space = cochains[0].space
    field = space.field
    zero = field.zero
    dims = tuple(a.degree for a in cochains)
    total = sum(dims)
    sgn = parity_sign(field, u.degree * total
                      + interleave_exponent(dims, dims))
    evals = [a.fn for a in cochains]

    def fn(key):
        s = zero
        for coeff, factors in interval_cut(u, key, dims):
            for ev, x in zip(evals, factors):
                v = ev(x)
                if v == zero:
                    break
                coeff = field.mul(coeff, v)
            else:
                s = field.add(s, coeff)
        return field.mul(sgn, s)

    return Cochain(space, total - u.degree, fn)


def cup(a, b):
    """The cochain cup product, transpose of the AW diagonal."""
    return surjection_op(AW, [a, b])


def cup_many(cochains):
    if not cochains:
        raise ValueError("empty product")
    out = cochains[0]
    for c in cochains[1:]:
        out = cup(out, c)
    return out


class CochainHga:
    """The (extended) interval-cut hga structure on C*(X)."""

    def __init__(self, space):
        self.space = space
        self.field = space.field

    def E(self, k, a, bs):
        if k == 0:
            if bs:
                raise ValueError("E_0 takes no b arguments")
            return a
        if len(bs) != k:
            raise ValueError(f"E_{k} takes {k} b-arguments")
        return surjection_op(e_surjection(k), [a] + list(bs))

    def F(self, k, l, as_, bs):
        if len(as_) != k or len(bs) != l:
            raise ValueError("F_kl arity mismatch")
        return surjection_op(f_surjection(k, l), list(as_) + list(bs))


# ---------------------------------------------------------------------------
# Simplicial groups and the loop action
# ---------------------------------------------------------------------------

class SimplicialGroup(SimplicialSet):
    """A simplicial set with degreewise group structure."""

    def mul(self, p, x, y):
        raise NotImplementedError

    def inv(self, p, x):
        raise NotImplementedError

    def one(self, p):
        raise NotImplementedError

    def last_face_fibre(self, p, q, data):
        """The (p+q)-simplices whose q-fold last face is the p-simplex
        `data`, in the order of `simplices(p + q)`; W-bar of the group
        multiplies cochains from these (`classifying.WBar.heads`)."""
        raise NotImplementedError

    def basepoint(self):
        return self.one(0)

    def is_loop(self, data):
        """A loop is a 1-simplex with both faces the identity vertex."""
        return (self.face(1, 0, data) == self.one(0)
                and self.face(1, 1, data) == self.one(0))

    def loops(self):
        return [g for g in self.simplices(1) if self.is_loop(g)]

    def check_group(self, samples):
        """The group laws, and faces and degeneracies being homomorphisms,
        on samples (p, x, y, z); raises StructuralError naming the law, p
        and the sample."""
        for p, x, y, z in samples:
            e = self.one(p)
            xy = self.mul(p, x, y)
            laws = [
                ("right unit", self.mul(p, x, e) == x),
                ("left unit", self.mul(p, e, x) == x),
                ("inverse", self.mul(p, x, self.inv(p, x)) == e),
                ("associativity",
                 self.mul(p, xy, z) == self.mul(p, x, self.mul(p, y, z))),
            ]
            laws += [(f"face {i} of a product",
                      self.face(p, i, xy) == self.mul(
                          p - 1, self.face(p, i, x), self.face(p, i, y)))
                     for i in range(p + 1)]
            laws += [(f"degeneracy {i} of a product",
                      self.degeneracy(p, i, xy) == self.mul(
                          p + 1, self.degeneracy(p, i, x),
                          self.degeneracy(p, i, y)))
                     for i in range(p + 1)]
            for law, holds in laws:
                if not holds:
                    raise StructuralError(
                        f"{law} fails in degree {p} on sample {(x, y, z)!r}")
        return True


class ConstantGroup(SimplicialGroup):
    """The constant simplicial group of a finite abelian group Z_m1 x ...;
    elements are tuples of residues in every degree."""

    def __init__(self, field, moduli):
        super().__init__(field)
        self.moduli = tuple(moduli)

    def face(self, p, i, data):
        return data

    def degeneracy(self, p, i, data):
        return data

    def simplices(self, p):
        """Every tuple of residues, entry 0 varying fastest."""
        ranges = [range(m) for m in reversed(self.moduli)]
        return (x[::-1] for x in product(*ranges))

    def degenerate_at(self, p, k, data):
        """Every degeneracy is the identity."""
        return True

    def last_face_fibre(self, p, q, data):
        """The (p+q)-simplices whose q-fold last face is the p-simplex
        `data`: only `data` itself, every face being the identity."""
        return (data,)

    def mul(self, p, x, y):
        return tuple([(a + b) % m for a, b, m in zip(x, y, self.moduli)])

    def inv(self, p, x):
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def one(self, p):
        return (0,) * len(self.moduli)


class ConstantFreeAbelian(ConstantGroup):
    """The constant simplicial group Z^n = (Z/0)^n: a constant group whose
    products are not reduced and which is not enumerable."""

    def __init__(self, field, rank):
        super().__init__(field, (0,) * rank)

    def simplices(self, p):
        return SimplicialSet.simplices(self, p)

    def mul(self, p, x, y):
        return tuple([a + b for a, b in zip(x, y)])

    def inv(self, p, x):
        return tuple(-a for a in x)


class ProductGroup(ProductSpace, SimplicialGroup):
    """G x H: the product space with componentwise group structure."""

    def mul(self, p, x, y):
        return (self.X.mul(p, x[0], y[0]), self.Y.mul(p, x[1], y[1]))

    def inv(self, p, x):
        return (self.X.inv(p, x[0]), self.Y.inv(p, x[1]))

    def one(self, p):
        return (self.X.one(p), self.Y.one(p))

    def last_face_fibre(self, p, q, data):
        """Faces are componentwise: the product of the two factors'
        fibres, in the order of `ProductSpace.simplices`."""
        x, y = data
        return list(product(self.X.last_face_fibre(p, q, x),
                            self.Y.last_face_fibre(p, q, y)))


def loop_action_summand(G, X, action, gdata, m, key):
    """a^g_m(sigma) = (s_{<n>\\m} g) . s_m sigma as a chain of X."""
    n = key.degree
    gsimp = degeneracies(G, 1, gdata, [i for i in range(n + 1) if i != m])
    s_m_sigma = X.degeneracy(n, m, key.data)
    acted = action(n + 1, gsimp, s_m_sigma)
    return X.chain(n + 1, acted)


def loop_shuffle_action(G, X, action, gdata, key):
    """g * sigma = sum_m (-1)^m a^g_m(sigma)."""
    field = X.field
    out = GradedElement(field)
    sign = field.one
    for m in range(key.degree + 1):
        out.add_in(loop_action_summand(G, X, action, gdata, m, key), sign)
        sign = field.neg(sign)
    return out


def group_action_on_chains(G, X, action, ge, xe):
    """a * c for chains a on G and c on a G-space X (shuffle then act).
    With X = G acting by `G.mul` this is the Pontryagin product on C(G)."""
    return shuffle_elements(ge, xe, ProductSpace(G, X)).map_keys(
        lambda k: X.chain(k.degree, action(k.degree, *k.data)))


# ---------------------------------------------------------------------------
# Dual-basis cochain algebra for degreewise finite spaces
# ---------------------------------------------------------------------------

class DualCochainDga(Dga):
    """C*(X) on the dual basis of nondegenerate simplices (finite slices).

    A cochain-type dga for bar constructions and homology whose basis key
    for the dual of a simplex is the simplex's own `SimplexKey`.  Its hga
    is `hga.VectorHga` of it, which evaluates the interval cuts of
    `CochainHga` on functionals through `through_functionals`.
    X must be reduced for the unit/augmentation to be basis-adapted; only
    the augmentation needs a basepoint.

    The cup product of the duals of a p-simplex sigma and a q-simplex tau
    is the transpose of the interval cuts of (1, 2): the sum of the duals
    of the nondegenerate (p+q)-simplices x with front p-face sigma and
    back q-face tau, each with the cut sign +1 times the Koszul pairing
    sign (-1)^{pq}.  On a W-bar space the back face of x is its tail
    x[p:] and its front face depends only on its head x[:p], so `X.heads`
    lists the candidates h + tau directly (see `classifying.WBar`).  Any
    other space (a simplex, its boundary, a coset space) multiplies by
    the definition itself: `cup` on the two functionals, vectorized, the
    route the hga's E_k and F_kl take too.
    """

    def __init__(self, X, truncation):
        super().__init__(X.field)
        self.X = X
        self.truncation = truncation
        vertices = X.nondegenerate(0)
        # on a reduced space the unit is a basis key (bar constructions
        # need this); otherwise the unit is the sum of all vertex duals
        self.unit_key = X.key(0, vertices[0]) if len(vertices) == 1 else None
        self._cob_index = Table(DualCochainDga._coboundary_index, self)

    @property
    def simply_connected(self):
        return len(self.X.nondegenerate(1)) == 0

    def basis(self, degree):
        if degree < 0 or degree > self.truncation:
            return []
        return [self.X.key(degree, x) for x in self.X.nondegenerate(degree)]

    def functional(self, elem):
        """A GradedElement as a computable Cochain."""
        degree = elem.degree()
        if degree is None:
            return zero_cochain(self.X, 0)
        return Cochain(self.X, degree, elem.coeff)

    def vectorize(self, cochain):
        """Evaluate a functional cochain on the degree slice.  The keys are
        distinct and the values field elements, so each nonzero value goes
        straight into the result's terms."""
        X, p, zero = self.X, cochain.degree, self.field.zero
        out = GradedElement(self.field)
        terms = out.terms
        for x in X.nondegenerate(p):
            key = X.key(p, x)
            v = cochain(key)
            if v != zero:
                terms[key] = v
        return out

    def _coboundary_index(self, degree):
        """Face key -> its coboundary vector, for the keys of one degree.

        One pass over the (degree+1)-slice instead of one scan per dual.
        Its faces repeat (see `classifying.WBar`), so one table, face data
        -> key, or False for a degenerate face, serves the whole pass and
        is dropped with it.  Each simplex's signed faces are summed by
        `GradedElement.add_pairs`, which adds and cancels in the order of
        `boundary_key`; the rows are plain dicts, each wrapped in a
        `GradedElement` as it stands, since no coefficient in them is
        zero.  Kept in a table keyed by degree."""
        X, field = self.X, self.field
        n = degree + 1
        face = X.face
        # (d a)(s) = (-1)^{|a|+1} a(ds), |a| = degree, and d_i of s has
        # the sign (-1)^i
        signs = [parity_sign(field, n + i) for i in range(n + 1)]
        faces = {}
        rows = {}
        for x in X.nondegenerate(n):
            pairs = []
            for i in range(n + 1):
                f = face(n, i, x)
                fk = faces.get(f)
                if fk is None:
                    fk = faces[f] = (not X.is_degenerate(degree, f)
                                     and X.key(degree, f))
                if fk is not False:
                    pairs.append((fk, signs[i]))
            skey = X.key(n, x)
            signed = GradedElement(field).add_pairs(pairs)
            for fk, c in signed.terms.items():
                rows.setdefault(fk, {})[skey] = c
        index = {}
        for fk, row in rows.items():
            index[fk] = vec = GradedElement(field)
            vec.terms = row
        return index

    def diff_key(self, key):
        got = self._cob_index[key.degree].get(key)
        return GradedElement(self.field) if got is None else got

    def mul_keys(self, k1, k2):
        p, q = k1.degree, k2.degree
        n = p + q
        if n > self.truncation:
            raise StructuralError(
                f"cochain product beyond truncation {self.truncation}")
        X = self.X
        if not hasattr(X, "heads"):
            return self.through_functionals(
                lambda cs: cup(*cs), [self.element(k1), self.element(k2)])
        # the nondegenerate h + tail, each with the cut sign +1 of (1, 2)
        # times the Koszul pairing sign (-1)^{pq}
        tail = k2.data
        sign = parity_sign(self.field, p * q)
        return GradedElement(self.field, {
            X.key(n, x): sign
            for x in (h + tail for h in X.heads(p, q, k1.data))
            if not X.is_degenerate(n, x)})

    def one(self):
        out = GradedElement(self.field)
        for x in self.X.nondegenerate(0):
            out.add_in(GradedElement.single(self.field, self.X.key(0, x)))
        return out

    def aug(self, x):
        # at the basepoint: a space that is not reduced has no unit key
        return x.coeff(self.X.basepoint_key())

    def through_functionals(self, op, vecs):
        """op on the functionals of vecs, vectorized; zero when an argument
        is zero or the result has negative degree."""
        if any(v.is_zero() for v in vecs):
            return self.zero()
        c = op([self.functional(v) for v in vecs])
        if c.degree < 0:
            return self.zero()
        return self.vectorize(c)


def chain_complex_homology(X, max_degree):
    """Homology of the normalized chains of X up to max_degree.

    One extra degree is enumerated so the boundaries into max_degree are
    complete; the artifact top degree is dropped from the result."""
    field = X.field
    basis = {}
    for d in range(0, max_degree + 2):
        basis[d] = [X.key(d, x) for x in X.nondegenerate(d)]

    def diff(key):
        return X.boundary_key(key).terms

    res = homology(basis, diff, field, ddeg=-1)
    res.dims.pop(max_degree + 1, None)
    res.representatives.pop(max_degree + 1, None)
    return res


def cochain_complex_homology(X, max_degree):
    """Cohomology of C*(X) up to max_degree - 1 (needs one extra slice).

    Eliminates over the basis and coboundary of
    `DualCochainDga(X, max_degree)`, so it works for any degreewise finite
    space, reduced or not, with or without a basepoint."""
    A = DualCochainDga(X, max_degree)
    basis = {d: A.basis(d) for d in range(0, max_degree + 1)}
    return homology(basis, lambda key: A.diff_key(key).terms, X.field,
                    ddeg=1)
