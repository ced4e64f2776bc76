"""Classifying spaces BG and universal bundles EG of simplicial groups
(the W-bar construction), the degree-raising contraction S, reduced
subgroups and quotient simplicial sets.

A p-simplex of BG is a tuple [g_{p-1}, ..., g_0] stored left to right
(entry m has dimension p-1-m); a p-simplex of EG is a pair
(g_p, [g_{p-1}, ..., g_0]).  Face and degeneracy formulas follow the
convention in which

  d_k(g_p, [g_{p-1},...,g_0]) =
    (d_k g_p, [d_{k-1} g_{p-1},..., d_1 g_{p-k+1},
               (d_0 g_{p-k}) g_{p-k-1}, g_{p-k-2},..., g_0]),

read as ((d_0 g_p) g_{p-1}, [g_{p-2},...,g_0]) for k = 0 and as
(d_p g_p, [d_{p-1} g_{p-1},..., d_1 g_1]) for k = p.
"""
from itertools import product

from .graded import GradedElement
from .linalg import StructuralError
from .simplicial import (SimplicialSet, SimplicialGroup, ConstantGroup,
                         ConstantFreeAbelian, _remember)

GROUP_FACE_CAP = 1 << 13


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

    Faces are memoized on `WBarGroup` only.  A W-bar space has many more
    simplices than its group, each asked for by a few interval cuts, which
    share the faces of one simplex already.  A memo of the faces of every
    W-bar space (cap 65536) took a further 14% off the benchmark's wall
    time on hga_ek and chain_tor but raised its peak RSS by 5% on both,
    and at degree 4 it would have 215K faces of the outer space to keep,
    more than that cap holds.
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
        G = self.G
        if k == 0:
            return data[1:]
        if k == p:
            return tuple(G.face(p - 1 - m, p - 1 - m, data[m])
                         for m in range(p - 1))
        out = []
        for m in range(k - 1):
            out.append(G.face(p - 1 - m, k - 1 - m, data[m]))
        merged = G.mul(p - 1 - k,
                       G.face(p - k, 0, data[k - 1]), data[k])
        out.append(merged)
        out.extend(data[k + 1:])
        return tuple(out)

    def degeneracy(self, p, k, data):
        G = self.G
        out = []
        for m in range(k):
            out.append(G.degeneracy(p - 1 - m, k - 1 - m, data[m]))
        out.append(G.one(p - k))
        out.extend(data[k:])
        return tuple(out)

    def simplices(self, p):
        def rec(dims):
            if not dims:
                yield ()
                return
            first, rest = dims[0], dims[1:]
            for tail in rec(rest):
                for g in self.G.simplices(first):
                    yield (g,) + tail
        return rec(list(range(p - 1, -1, -1)))

    def basepoint(self):
        return ()


class WBarGroup(WBar, SimplicialGroup):
    """BG as a simplicial group for abelian G (entrywise products).

    It memoizes its faces, keyed by (k, data) (a p-simplex has p
    entries), at most GROUP_FACE_CAP (8192) entries, emptied when full;
    d_0 drops the first entry and bypasses the memo.  A W-bar group is the
    G of another W-bar space, each of whose faces takes faces of its
    entries, so the few simplices of the group are asked for again and
    again: the memo holds 94 entries through the E_1 scans of the hga_ek
    benchmark on B(Z/2,2), and 298 through the torus formality report.
    """

    def __init__(self, G):
        if not isinstance(G, SimplicialGroup):
            raise TypeError("WBarGroup needs a simplicial group")
        super().__init__(G)
        self._face_memo = {}

    def face(self, p, k, data):
        if k == 0:
            return data[1:]
        got = self._face_memo.get((k, data))
        if got is None:
            got = _remember(self._face_memo, (k, data),
                            super().face(p, k, data), GROUP_FACE_CAP)
        return got

    def mul(self, p, x, y):
        return tuple(self.G.mul(p - 1 - m, a, b)
                     for m, (a, b) in enumerate(zip(x, y)))

    def inv(self, p, x):
        return tuple(self.G.inv(p - 1 - m, a) for m, a in enumerate(x))

    def one(self, p):
        return tuple(self.G.one(p - 1 - m) for m in range(p))


class WTotal(SimplicialSet):
    """EG, the total space of the universal G-bundle over BG."""

    def __init__(self, G):
        super().__init__(G.field)
        self.G = G
        self.base = WBar(G)

    def face(self, p, k, data):
        g, bg = data
        G = self.G
        if p == 0:
            raise ValueError("no faces in dimension 0")
        if k == 0:
            return (G.mul(p - 1, G.face(p, 0, g), bg[0]), bg[1:])
        return (G.face(p, k, g), self.base.face(p, k, bg))

    def degeneracy(self, p, k, data):
        g, bg = data
        return (self.G.degeneracy(p, k, g), self.base.degeneracy(p, k, bg))

    def simplices(self, p):
        for bg in self.base.simplices(p):
            for g in self.G.simplices(p):
                yield (g, bg)

    def basepoint(self):
        return (self.G.one(0), ())

    def action(self, p, h, data):
        """The left G-action h . (g_p, [..]) = (h g_p, [..])."""
        g, bg = data
        return (self.G.mul(p, h, g), bg)

    def projection(self, p, data):
        """pi: EG -> BG drops the group coordinate."""
        return data[1]

    def s_data(self, p, data):
        """S(g_p, [g_{p-1},...,g_0]) = (1_{p+1}, [g_p, g_{p-1},...,g_0])."""
        g, bg = data
        return (self.G.one(p + 1), (g,) + bg)

    def s_chain_key(self, key):
        """Chain-level S: zero on degenerate images."""
        return self.chain(key.degree + 1, self.s_data(key.degree, key.data))

    def s_chain(self, elem):
        return elem.map_keys(self.s_chain_key)

    def check_s_identities(self, keys):
        """d_0 S e = e; d_1 S e = e_0 (p = 0); d_k S e = S d_{k-1} e; and
        the chain identities (dS + Sd) = 1 - (basepoint projection),
        SS = 0, S e_0 = 0."""
        from .dg import CheckReport
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
        self._members = {}

    def contains(self, p, x):
        return self._contains(p, x)

    def face(self, p, i, data):
        out = self.G.face(p, i, data)
        if not self.contains(p - 1, out):
            raise StructuralError("subgroup not closed under faces")
        return out

    def degeneracy(self, p, i, data):
        return self.G.degeneracy(p, i, data)

    def simplices(self, p):
        got = self._members.get(p)
        if got is None:
            got = self._members[p] = tuple(
                x for x in self.G.simplices(p) if self.contains(p, x))
        return got

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
