"""The homogeneous-space pipeline: Tor rings via the bar construction
with the Kadeishvili-Saneblidze product, an independent
Koszul-resolution oracle, chain-level Eilenberg-Moore instances on
simplicial groups, and a catalog of known-answer pairs.

Every Tor route takes one pair (A, B, f): the algebras A = H*(BG) and
B = H*(BK) and the algebra map f: A -> B, built once per field
(`catalog_entry`) and shared by the bar route and the oracle, and
returns a `TorRing` holding the dga whose homology it computed.
"""
from .graded import GradedElement
from .linalg import express_class, StructuralError
from .dg import (CheckReport, FreeGcDga, _generator_differentials,
                 gc_algebra_map, polynomial_dga)
from .bar import OneSidedBar, bigraded_homology, tor_additive
from .hga import KSAlgebra
from .simplicial import DualCochainDga
from .classifying import wbar


# ---------------------------------------------------------------------------
# Tor rings
# ---------------------------------------------------------------------------

class TorRing:
    """A Tor table together with the dga whose homology it is: the
    table's class spaces give the coordinates of every product
    `dga.mul` of representatives."""

    def __init__(self, table, dga):
        self.table = table
        self.dga = dga
        self.field = dga.field

    def class_of(self, z, degree):
        """Coordinates of the cycle z (dict key -> coeff) in the
        representatives of `degree`, or None if z is not a cycle there."""
        return express_class(dict(z), self.table.spaces[degree],
                             len(self.table.representatives[degree]),
                             self.field)

    def product_class(self, d1, i1, d2, i2, basis_lower=None):
        """Coordinates of r1 * r2, r1 the i1-th representative of degree d1
        and r2 the i2-th of degree d2.  `basis_lower` is ignored; the
        benchmark's `chain_tor` workload still passes it."""
        reps = self.table.representatives
        z = self.dga.mul(GradedElement(self.field, dict(reps[d1][i1])),
                         GradedElement(self.field, dict(reps[d2][i2])))
        return self.class_of(z.terms, d1 + d2)


def tor_bar_algebra(A, B, f, max_total, sample_products=True):
    """Tor of the dga map f: A -> B to total degree max_total through the
    one-sided bar construction with the Kadeishvili-Saneblidze product,
    the hgas read off A and B.  Returns (ring, osb, ks): the `TorRing`,
    the one-sided bar and its `KSAlgebra`."""
    osb = OneSidedBar(A, B, f)
    table = tor_additive(osb, max_total)
    ks = KSAlgebra(osb)
    ring = TorRing(table, ks)
    if sample_products:
        _attach_products(ring, max_total)
    return ring, osb, ks


def _attach_products(ring, max_total):
    table = ring.table
    entries = []
    for d1 in sorted(table.totals):
        for i1 in range(len(table.representatives.get(d1, []))):
            for d2 in sorted(table.totals):
                if d1 + d2 > max_total or d2 < d1:
                    continue
                for i2 in range(len(table.representatives.get(d2, []))):
                    entries.append({
                        "factors": [[d1, i1], [d2, i2]],
                        "degree": d1 + d2,
                        "coords": ring.product_class(d1, i1, d2, i2),
                    })
    table.products = entries


def tor_koszul_oracle(A, B, f, max_total):
    """Independent oracle: the commutative dga Lambda(s_g) (x) B with
    d(s_g) = f(g) for each generator g of A; same bigraded dimensions,
    product from the dga, which the returned `TorRing` holds.

    The suspension of g is named s_g, with as many more leading s as it
    takes for no suspension to share a name with a generator of B."""
    field = A.field
    prefix = "s_"
    while any(prefix + name in B.gens for name in A.gens):
        prefix = "s" + prefix
    susp = {name: prefix + name for name in A.gens}
    s_gens = [(susp[name], d - 1) for name, d in A.gens.items()]
    d_gen = {susp[name]: [(c, k.powers) for k, c
                          in f(A.generator(name)).terms.items()]
             for name in A.gens}
    R2 = FreeGcDga(field, list(B.gens.items()) + s_gens, d_gen)
    suspended = set(susp.values())

    def bigrade(key):
        k = sum(e for n, e in key.powers if n in suspended)
        return (-k, key.degree + k)

    basis = {n: R2.basis(n) for n in range(0, max_total + 1)}
    table = bigraded_homology(basis, lambda k: R2.diff_key(k).terms, field,
                              bigrade)
    return TorRing(table, R2)


# ---------------------------------------------------------------------------
# Chain-level Eilenberg-Moore instances
# ---------------------------------------------------------------------------

def chain_level_tor(G, K_space, field, max_total):
    """H of the KS algebra B(k, C*(BG), C*(BK)) up to max_total.

    `K_space` may be None for trivial coefficients.  BG must be 1-reduced.
    Returns (ring, osb, ks)."""
    BG = wbar(G)
    # the differential of the top degree multiplies entries whose degrees
    # sum up to two above the total degree bound
    trunc = max_total + 2
    A = DualCochainDga(BG, trunc)
    if not A.simply_connected:
        raise StructuralError("chain-level Tor needs a 1-reduced base; "
                              "apply the reduced subgroup first")
    if K_space is None:
        B = polynomial_dga(field, [])

        def fmap(x):
            return B.one().scale(A.aug(x))
    else:
        BK = wbar(K_space)
        B = DualCochainDga(BK, trunc)

        def fmap(x):
            # C*(BG) -> C*(BK) along the inclusion BK -> BG
            out = GradedElement(field)
            if x.is_zero():
                return out
            deg = x.degree()
            for data in BK.nondegenerate(deg):
                v = x.coeff(BG.key(deg, data))
                if v != field.zero:
                    out.add_in(GradedElement.single(field, BK.key(deg, data)),
                               v)
            return out
    return tor_bar_algebra(A, B, fmap, max_total, sample_products=False)


# ---------------------------------------------------------------------------
# Catalog of known-answer pairs
# ---------------------------------------------------------------------------

CATALOG = {
    "SU(2)/T": {
        "base": [("c2", 4)], "fiber": [("t", 2)],
        "map": {"c2": [(-1, [("t", 2)])]},
        "poincare_dims": {0: 1, 2: 1},
    },
    "SU(3)/T": {
        "base": [("c2", 4), ("c3", 6)], "fiber": [("t1", 2), ("t2", 2)],
        # roots t1, t2, -t1-t2: c2 = e2, c3 = e3
        "map": {"c2": [(-1, [("t1", 2)]), (-1, ["t1", "t2"]),
                       (-1, [("t2", 2)])],
                "c3": [(-1, [("t1", 2), "t2"]), (-1, ["t1", ("t2", 2)])]},
        "poincare_dims": {0: 1, 2: 2, 4: 2, 6: 1},
    },
    "SU(3)/SU(2)": {
        "base": [("c2", 4), ("c3", 6)], "fiber": [("d2", 4)],
        "map": {"c2": [(1, ["d2"])], "c3": []},
        "poincare_dims": {0: 1, 5: 1},
    },
    "U(2)/U(1)xU(1)": {
        "base": [("c1", 2), ("c2", 4)], "fiber": [("t1", 2), ("t2", 2)],
        "map": {"c1": [(1, ["t1"]), (1, ["t2"])], "c2": [(1, ["t1", "t2"])]},
        "poincare_dims": {0: 1, 2: 1},
    },
    "Sp(1)": {
        "base": [("q", 4)], "fiber": [],
        "map": {"q": []},
        "poincare_dims": {0: 1, 3: 1},
    },
    "U(3)/U(1)^3": {
        "base": [("c1", 2), ("c2", 4), ("c3", 6)],
        "fiber": [("t1", 2), ("t2", 2), ("t3", 2)],
        "map": {"c1": [(1, ["t1"]), (1, ["t2"]), (1, ["t3"])],
                "c2": [(1, ["t1", "t2"]), (1, ["t1", "t3"]),
                       (1, ["t2", "t3"])],
                "c3": [(1, ["t1", "t2", "t3"])]},
        "poincare_dims": {0: 1, 2: 2, 4: 2, 6: 1},
    },
    "PU(2)@F2": {
        "base": [("c1", 2), ("c2", 4)], "fiber": [("t", 2)],
        "map": {"c1": [], "c2": [(1, [("t", 2)])]},
        "poincare_dims": {0: 1, 1: 1, 2: 1, 3: 1},
    },
}


def catalog_entry(field, name):
    """The pair of a catalog entry over the field, with its known answer:
    (A, B, f, expected), A and B the polynomial algebras of the base and
    fiber generators, f: A -> B the map of the entry's images and
    `expected` the Poincare dimensions of G/K."""
    data = CATALOG[name]
    A = polynomial_dga(field, data["base"])
    B = polynomial_dga(field, data["fiber"])
    f = gc_algebra_map(A, B, _generator_differentials(field, data["map"],
                                                      B.monomial))
    return A, B, f, data["poincare_dims"]


def run_catalog_entry(field, name, max_total, sample_products=False):
    A, B, f, expected = catalog_entry(field, name)
    ring, osb, ks = tor_bar_algebra(A, B, f, max_total,
                                    sample_products=sample_products)
    report = CheckReport(f"catalog {name} over {field}")
    for d in range(0, max_total + 1):
        report.record(ring.table.totals.get(d, 0) == expected.get(d, 0),
                      ("dimension", d))
    oracle_ring = tor_koszul_oracle(A, B, f, max_total)
    bar_b = {bd: v for bd, v in ring.table.bidegrees.items() if v}
    kos_b = {bd: v for bd, v in oracle_ring.table.bidegrees.items() if v}
    report.record(bar_b == kos_b, ("bigraded tables", bar_b, kos_b))
    for d in range(0, max_total + 1):
        report.record(ring.table.totals.get(d, 0)
                      == oracle_ring.table.totals.get(d, 0),
                      ("oracle dims", d))
    # the unit law: 1 . r_i has the coordinates e_i
    reps = ring.table.representatives
    for entry in ring.table.products:
        (d1, i1), (d, i) = entry["factors"]
        if (d1, i1) == (0, 0):
            unit = [field.one if j == i else field.zero
                    for j in range(len(reps[d]))]
            report.record(entry["coords"] == unit, ("unit product", d, i))
    return ring, oracle_ring, report
