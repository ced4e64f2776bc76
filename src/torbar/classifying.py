"""Classifying spaces BG and universal bundles EG of simplicial groups
(the W-bar construction), the degree-raising contraction S, reduced
subgroups and quotient simplicial sets.

A p-simplex of BG is a tuple [g_{p-1}, ..., g_0] stored left to right
(entry m has dimension p-1-m), with faces

  d_k [g_{p-1},...,g_0] = [d_{k-1} g_{p-1},..., d_1 g_{p-k+1},
                           (d_0 g_{p-k}) g_{p-k-1}, g_{p-k-2},..., g_0],

read as [g_{p-2},...,g_0] for k = 0 and as [d_{p-1} g_{p-1},..., d_1 g_1]
for k = p.  EG is the decalage of BG (Stevenson, TAC 2012): a p-simplex
of EG is the flat tuple (g_p, ..., g_0), a (p+1)-simplex of BG whose d_0
is forgotten, and d_k, s_k of EG are d_{k+1}, s_{k+1} of BG.  The
forgotten face is the projection EG -> BG; G acts on the first entry.
"""
from itertools import product

from .dg import CheckReport
from .graded import GradedElement, Table
from .linalg import StructuralError
from .simplicial import (SimplicialSet, SimplicialGroup, ConstantGroup,
                         ConstantFreeAbelian)


class WBar(SimplicialSet):
    """BG for a simplicial group G (W-bar, as in May, Simplicial Objects in
    Algebraic Topology, 1967).

    Heads and tails.  Take a (p+q)-simplex x = (x_0, ..., x_{p+q-1}).
    Its back q-face (d_0 p times) is x[p:], since d_0 drops the first
    entry.  Its front p-face (the last face q times) depends only on the
    head x[:p], entry m mapped by G's q-fold last face, since the last
    face drops the last entry and takes the last face of the others.  So
    the simplices with front sigma and back tau are exactly h + tau, with
    each h_m in the fibre of G's q-fold last face over sigma_m (`heads`),
    and the fibre of the q-fold last face over sigma is every head
    followed by every q-simplex (`last_face_fibre`; `WBarGroup` inherits
    it, so W-bar of a W-bar group has heads too).  Every simplicial group
    of the package has a `last_face_fibre`, so every W-bar space has
    heads, and `DualCochainDga` enumerates its cup products from them.

    Enumeration.  The p-slice is the product of G's slices of dimensions
    p-1, ..., 0, entry 0 varying fastest as in `heads` (`simplices`).
    `nondegenerate` removes from it the images of the (p-1)-slice under
    `degeneracy`, so B(Z/2,2) takes 320 degeneracies of its 64
    4-simplices to find the 256 degenerate ones among its 1,024
    5-simplices, not one `degenerate_at` test per simplex and k.

    Degeneracy.  s_k of a (p-1)-simplex y applies G's s_{k-1-m} to each
    entry y_m with m < k, writes the identity 1_{p-1-k} of G into entry
    k and keeps y[k:] after it (`degeneracy`).  G's degeneracies are
    injective, so a p-simplex x is s_k of some y exactly when x_k is the
    identity and each x_m with m < k is s_{k-1-m} of a simplex of G
    (`degenerate_at`).  No face is computed, and a nondegenerate simplex
    usually fails the first comparison for every k.

    Faces are memoized on `WBarGroup` only.  A W-bar space has many more
    simplices than its group, each asked for by a few interval cuts, which
    share the faces of one simplex already.  The coboundary index of
    `DualCochainDga` walks a whole slice once and keeps one table, face
    data -> key, for that pass only: the 4,608 faces of the 768
    nondegenerate 5-simplices of B(Z/2,2) are 64 4-simplices.  That
    table is dropped with the pass; two caches that outlive it were
    measured on top of the group tables, in 10 alternating cold pairs of
    `bench/cold.py` per workload (a shared 2-core machine, Python 3.11),
    and left out: each raises peak RSS, and neither is faster on every
    workload:
    - a table of the faces of every W-bar space: wall time
      -5% on hga_ek and -8% on formality, but +7% on chain_tor, and peak
      RSS +2% to +4% on all three;
    - each simplex's vertex-face table (see `face_by_vertices_data`) kept
      across its interval cuts: no resolved wall-time gain (-2% to +4%),
      and peak RSS +4% to +5% on hga_ek and formality.
    """

    def __init__(self, G):
        super().__init__(G.field)
        self.G = G

    def heads(self, p, q, data):
        """The heads over the p-simplex `data`: the tuples h of p entries
        with h_m in G's q-fold last-face fibre over data[m], entry 0
        varying fastest as in `simplices`."""
        fibres = [self.G.last_face_fibre(p - 1 - m, q, g)
                  for m, g in enumerate(data)]
        return [h[::-1] for h in product(*fibres[::-1])]

    def last_face_fibre(self, p, q, data):
        """The (p+q)-simplices whose q-fold last face is the p-simplex
        `data`, in the order of `simplices(p + q)`."""
        heads = self.heads(p, q, data)
        return [h + t for t in self.simplices(q) for h in heads]

    def face(self, p, k, data):
        if k == 0:
            return data[1:]
        G = self.G
        face = G.face
        out = []
        for m in range(k - 1):
            out.append(face(p - 1 - m, k - 1 - m, data[m]))
        if k < p:
            out.append(G.mul(p - 1 - k, face(p - k, 0, data[k - 1]), data[k]))
            out += data[k + 1:]
        return tuple(out)

    def degeneracy(self, p, k, data):
        G = self.G
        out = []
        for m in range(k):
            out.append(G.degeneracy(p - 1 - m, k - 1 - m, data[m]))
        out.append(G.one(p - k))
        out.extend(data[k:])
        return tuple(out)

    def degenerate_at(self, p, k, data):
        G = self.G
        if data[k] != G.one(p - 1 - k):
            return False
        degenerate_at = G.degenerate_at
        for m in range(k):
            if not degenerate_at(p - 1 - m, k - 1 - m, data[m]):
                return False
        return True

    def simplices(self, p):
        """Every tuple of G's slices, entry m of dimension p-1-m, entry 0
        varying fastest as in `heads`."""
        slices = [self.G.simplices(d) for d in range(p)]
        return (x[::-1] for x in product(*slices))

    def basepoint(self):
        return ()


class WBarGroup(WBar, SimplicialGroup):
    """BG as a simplicial group for abelian G (entrywise products).

    It keeps two tables (`graded.Table`): its faces, keyed by (k, data),
    and its products, keyed by (x, y); a p-simplex has p entries, so
    neither key needs p.  d_0 drops the first entry and bypasses the face
    table.  A W-bar group is the G of another W-bar space, each of whose
    faces takes faces of its entries and, for a middle face, one product
    of two of them, so the few simplices of the group are asked for again
    and again.  The hga_ek benchmark on B(Z/2,2) keeps 94 faces and 85
    products (7,983 products asked for); the formality benchmark on B(Z^2)
    keeps 204 faces and 223 products (9,238 asked for).

    It also keeps its identity simplex of each degree asked for (`one`)
    in a third table, keyed by the degree, since W-bar of the group
    compares entries against it in every degeneracy test.
    """

    def __init__(self, G):
        if not isinstance(G, SimplicialGroup):
            raise TypeError("WBarGroup needs a simplicial group")
        super().__init__(G)
        self._face_memo = Table(WBarGroup._face, self)
        self._products = Table(WBarGroup._product, self)
        self._ones = Table(WBarGroup._one, self)

    def face(self, p, k, data):
        if k == 0:
            return data[1:]
        return self._face_memo[(k, data)]

    def _face(self, key):
        k, data = key
        return WBar.face(self, len(data), k, data)

    def mul(self, p, x, y):
        return self._products[(x, y)]

    def _product(self, pair):
        x, y = pair
        mul, p = self.G.mul, len(x)
        return tuple([mul(p - 1 - m, a, b)
                      for m, (a, b) in enumerate(zip(x, y))])

    def inv(self, p, x):
        return tuple(self.G.inv(p - 1 - m, a) for m, a in enumerate(x))

    def one(self, p):
        return self._ones[p]

    def _one(self, p):
        return tuple(self.G.one(p - 1 - m) for m in range(p))


class WTotal(SimplicialSet):
    """EG, the total space of the universal G-bundle over BG: the decalage
    of `base` = W-bar of G.  A p-simplex is the flat tuple
    (g_p, g_{p-1}, ..., g_0), a (p+1)-simplex of the base, and the face,
    degeneracy and degeneracy test at (p, k) are the base's at
    (p+1, k+1)."""

    def __init__(self, G):
        super().__init__(G.field)
        self.G = G
        self.base = WBar(G)

    def face(self, p, k, data):
        if p == 0:
            raise ValueError("no faces in dimension 0")
        return self.base.face(p + 1, k + 1, data)

    def degeneracy(self, p, k, data):
        return self.base.degeneracy(p + 1, k + 1, data)

    def degenerate_at(self, p, k, data):
        return self.base.degenerate_at(p + 1, k + 1, data)

    def simplices(self, p):
        return self.base.simplices(p + 1)

    def basepoint(self):
        return (self.G.one(0),)

    def action(self, p, h, data):
        """The left G-action h . (g_p, ..., g_0) = (h g_p, ..., g_0)."""
        return (self.G.mul(p, h, data[0]),) + data[1:]

    def projection(self, p, data):
        """pi: EG -> BG is the base's d_0, the face EG forgets."""
        return data[1:]

    def s_data(self, p, data):
        """S(g_p, ..., g_0) = (1_{p+1}, g_p, ..., g_0)."""
        return (self.G.one(p + 1),) + data

    def s_chain_key(self, key):
        """Chain-level S: zero on degenerate images."""
        return self.chain(key.degree + 1, self.s_data(key.degree, key.data))

    def s_chain(self, elem):
        return elem.map_keys(self.s_chain_key)

    def check_s_identities(self, keys):
        """d_0 S e = e; d_1 S e = e_0 (p = 0); d_k S e = S d_{k-1} e; and
        the chain identities (dS + Sd) = 1 - (basepoint projection),
        SS = 0, S e_0 = 0."""
        rep = CheckReport("S identities")
        base_key = self.basepoint_key()
        for key in keys:
            p = key.degree
            se = self.s_data(p, key.data)
            ok = self.face(p + 1, 0, se) == key.data
            if p == 0:
                ok = ok and self.face(1, 1, se) == self.basepoint()
            else:
                for k in range(1, p + 2):
                    ok = ok and (self.face(p + 1, k, se)
                                 == self.s_data(p - 1, self.face(p, k - 1, key.data)))
            # chain identities
            e = self.chain(p, key.data)
            lhs = self.boundary(self.s_chain(e)) + self.s_chain(self.boundary(e))
            rhs = GradedElement(self.field)
            rhs.add_in(e)
            if p == 0:
                rhs.add_in(GradedElement.single(self.field, base_key),
                           self.field.neg(self.field.one))
            ok = ok and lhs == rhs
            ok = ok and self.s_chain(self.s_chain(e)).is_zero()
            rep.record(ok, key)
        rep.record(self.s_chain(GradedElement.single(
            self.field, base_key)).is_zero(), "Se0")
        return rep


def wbar(G):
    return WBar(G)


def wbar_group(G):
    return WBarGroup(G)


def total_space(G):
    return WTotal(G)


# -- built-in groups --------------------------------------------------------

def cyclic_group(field, m):
    return ConstantGroup(field, (m,))


def b_cyclic(field, m):
    """B(Z_m) as a simplicial abelian group."""
    return WBarGroup(cyclic_group(field, m))


def torus_group(field, rank):
    """B(Z^n), the lazily enumerated simplicial torus of the given rank."""
    return WBarGroup(ConstantFreeAbelian(field, rank))


# -- reduced subgroups and quotients ---------------------------------------

class SubgroupInclusion(SimplicialGroup):
    """A subgroup of G presented by a membership test; its simplices are
    those of G that pass it, in G's order, filtered once per degree."""

    def __init__(self, G, contains):
        super().__init__(G.field)
        self.G = G
        self._contains = contains
        self._members = Table(lambda p: tuple(
            x for x in G.simplices(p) if contains(p, x)))

    def contains(self, p, x):
        return self._contains(p, x)

    def face(self, p, i, data):
        out = self.G.face(p, i, data)
        if not self.contains(p - 1, out):
            raise StructuralError("subgroup not closed under faces")
        return out

    def degeneracy(self, p, i, data):
        return self.G.degeneracy(p, i, data)

    def degenerate_at(self, p, k, data):
        return self.G.degenerate_at(p, k, data)

    def simplices(self, p):
        return self._members[p]

    def last_face_fibre(self, p, q, data):
        """Faces are G's: G's fibre over `data` filtered by membership."""
        return [x for x in self.G.last_face_fibre(p, q, data)
                if self.contains(p + q, x)]

    def mul(self, p, x, y):
        return self.G.mul(p, x, y)

    def inv(self, p, x):
        return self.G.inv(p, x)

    def one(self, p):
        return self.G.one(p)


def reduced_subgroup(G):
    """The subgroup of simplices all of whose vertices are the identity."""
    one = G.one(0)
    return SubgroupInclusion(G, lambda p, x: all(
        G.face_by_vertices_data(x, p, (i,)) == one for i in range(p + 1)))


class CosetSpace(SimplicialSet):
    """G/K: orbits of the right K-action, canonicalized representatives."""

    def __init__(self, G, K):
        super().__init__(G.field)
        self.G = G
        self.K = K

    def canonical(self, p, data):
        orbit = [self.G.mul(p, data, k) for k in self.K.simplices(p)]
        return min(orbit, key=repr)

    def face(self, p, i, data):
        return self.canonical(p - 1, self.G.face(p, i, data))

    def degeneracy(self, p, i, data):
        return self.canonical(p + 1, self.G.degeneracy(p, i, data))

    def simplices(self, p):
        seen = set()
        for x in self.G.simplices(p):
            c = self.canonical(p, x)
            if c not in seen:
                seen.add(c)
                yield c

    def basepoint(self):
        return self.canonical(0, self.G.one(0))


def quotient(G, K):
    """The simplicial set of cosets G/K (K closed under faces checked on use)."""
    return CosetSpace(G, K)
