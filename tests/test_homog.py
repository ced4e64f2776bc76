import json
from fractions import Fraction

import pytest

from torbar.fields import QQ, F5, F2, PrimeField
from torbar.graded import GradedElement
from torbar.classifying import SubgroupInclusion, b_cyclic
from torbar.dg import FreeGcDga, gc_algebra_map, polynomial_dga
from torbar.homog import (CATALOG, TorRing, catalog_entry, chain_level_tor,
                          run_catalog_entry, tor_bar_algebra,
                          tor_koszul_oracle)
from torbar.linalg import rank_dense_oracle


def catalog_pairs():
    """Every (field, entry) pair of the catalog: Q and F5, and F2 for the
    entry whose known answer holds in characteristic 2."""
    pairs = []
    for name in CATALOG:
        if name.endswith("@F2"):
            pairs.append((F2, name))
        else:
            pairs.extend([(QQ, name), (F5, name)])
    return pairs


PAIRS = catalog_pairs()
IDS = [f"{name}/{field}" for field, name in PAIRS]


def bar_ring(field, name, max_total, sample_products=False):
    A, B, f, _ = catalog_entry(field, name)
    return tor_bar_algebra(A, B, f, max_total,
                           sample_products=sample_products)


def test_catalog_has_thirteen_pairs():
    assert len(PAIRS) == 13


def assert_unit_coordinates(ring, field):
    for d, reps in ring.table.representatives.items():
        for i, r in enumerate(reps):
            unit = [field.one if j == i else field.zero
                    for j in range(len(reps))]
            assert ring.class_of(r, d) == unit, (d, i)


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_representatives_have_unit_coordinates(field, name):
    """On the bar side, and on the oracle side, whose class spaces are
    the concatenated spaces of its columns."""
    A, B, f, _ = catalog_entry(field, name)
    ring, _, _ = tor_bar_algebra(A, B, f, 4, sample_products=False)
    assert_unit_coordinates(ring, field)
    assert_unit_coordinates(tor_koszul_oracle(A, B, f, 4), field)


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_catalog_entry_and_sampled_products(field, name):
    ring, _, report = run_catalog_entry(field, name, 6, sample_products=True)
    assert report.ok, report.failures
    assert ring.table.products
    for entry in ring.table.products:
        assert entry["coords"] is not None, entry["factors"]


def test_catalog_entry_checks_the_unit_law(monkeypatch):
    """Each sampled product 1 . r_i is checked to have coordinates e_i: a
    product that returns the zero vector fails every one of them."""
    ring, _, report = run_catalog_entry(QQ, "SU(3)/T", 6,
                                        sample_products=True)
    units = [("unit product", d, i) for (d1, i1), (d, i)
             in (entry["factors"] for entry in ring.table.products)
             if (d1, i1) == (0, 0)]
    assert report.ok and len(units) == 6

    def zero_product(self, d1, i1, d2, i2):
        return [self.field.zero] * len(self.table.representatives[d1 + d2])

    monkeypatch.setattr(TorRing, "product_class", zero_product)
    _, _, wrong = run_catalog_entry(QQ, "SU(3)/T", 6, sample_products=True)
    assert wrong.checked == report.checked
    assert wrong.failures == units


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@pytest.mark.parametrize("name", ["SU(3)/T", "U(3)/U(1)^3"])
def test_tor_rings_hold_their_dga(field, name):
    """The bar route's ring holds its KS algebra, and the oracle's the
    Koszul dga Lambda(s_g) (x) B: a FreeGcDga on B's generators and the
    suspended ones.  The oracle's products of representatives to total
    degree 6 all have coordinates, and 1 . r_i has the coordinates e_i."""
    A, B, f, _ = catalog_entry(field, name)
    ring, _, ks = tor_bar_algebra(A, B, f, 6, sample_products=False)
    assert ring.dga is ks
    oracle = tor_koszul_oracle(A, B, f, 6)
    assert isinstance(oracle.dga, FreeGcDga)
    assert list(oracle.dga.gens.items()) == list(B.gens.items()) + [
        ("s_" + g, d - 1) for g, d in A.gens.items()]
    reps = oracle.table.representatives
    for d1 in range(7):
        for d2 in range(7 - d1):
            for i1 in range(len(reps[d1])):
                for i2 in range(len(reps[d2])):
                    assert oracle.product_class(d1, i1, d2, i2) is not None
        for i in range(len(reps[d1])):
            assert oracle.product_class(0, 0, d1, i) == [
                field.one if j == i else field.zero
                for j in range(len(reps[d1]))], (d1, i)


def assert_products_rebuild(ring, osb, ks, field):
    """z = r1 * r2 minus the combination its coordinates name is a
    boundary, checked by dense rank."""
    reps = ring.table.representatives
    for entry in ring.table.products:
        (d1, i1), (d2, i2) = entry["factors"]
        d = d1 + d2
        z = ks.mul(GradedElement(field, dict(reps[d1][i1])),
                       GradedElement(field, dict(reps[d2][i2])))
        for r, c in zip(reps[d], entry["coords"]):
            z = z - GradedElement(field, dict(r)).scale(c)
        boundaries = [osb.diff_key(k).terms for k in osb.basis_total(d - 1)]
        boundaries = [b for b in boundaries if b]
        cols = osb.basis_total(d)
        assert rank_dense_oracle(boundaries + [z.terms], field, cols) == \
            rank_dense_oracle(boundaries, field, cols), entry["factors"]


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_product_coordinates_rebuild_the_product(field, name):
    assert_products_rebuild(*bar_ring(field, name, 4, sample_products=True),
                            field)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_class_spaces_of_columns_sharing_a_total_degree(field):
    """Tor_{k[c, e]}(k, k[t]) with c, e -> 0 is k[t] (x) L(x_3, y_5).  In
    total degree 8, t^4 sits in column t = 8 and x_3 y_5 in column
    t = 10, so the class space of degree 8 concatenates two columns and
    the second one's representative tag is shifted by one."""
    A = polynomial_dga(field, [("c", 4), ("e", 6)])
    B = polynomial_dga(field, [("t", 2)])
    f = gc_algebra_map(A, B, {"c": B.zero(), "e": B.zero()})
    ring, osb, ks = tor_bar_algebra(A, B, f, 8)
    oracle = tor_koszul_oracle(A, B, f, 8)
    for side in (ring, oracle):
        assert side.table.totals[8] == 2
        assert {bd for bd in side.table.bidegrees if sum(bd) == 8} == \
            {(0, 8), (-2, 10)}
        assert_unit_coordinates(side, field)
    assert_products_rebuild(ring, osb, ks, field)
    # x_3 times a degree-5 class lies in column t = 10, the second one
    coords = [ring.product_class(3, 0, 5, i) for i in range(2)]
    assert all(c[0] == field.zero for c in coords)
    assert any(c[1] != field.zero for c in coords)


@pytest.mark.parametrize("fiber", ["s_t", "s_c"])
def test_koszul_oracle_keeps_suspensions_apart_from_fiber_generators(fiber):
    """k[c] -> k[x], c -> x^2 with |c| = 4: Tor is k[x]/(x^2), classes in
    degrees 0 and 2.  A fiber generator named like a suspension, `s_t`,
    must not count as one, nor may `s_c` merge with the suspension of c."""
    A = polynomial_dga(QQ, [("c", 4)])
    B = polynomial_dga(QQ, [(fiber, 2)])
    x = B.generator(fiber)
    f = gc_algebra_map(A, B, {"c": B.mul(x, x)})
    ring, _, _ = tor_bar_algebra(A, B, f, 6, sample_products=False)
    oracle = tor_koszul_oracle(A, B, f, 6)
    for side in (ring, oracle):
        assert [side.table.totals.get(d, 0) for d in range(7)] == \
            [1, 0, 1, 0, 0, 0, 0]
    assert {bd: v for bd, v in oracle.table.bidegrees.items() if v} == \
        {bd: v for bd, v in ring.table.bidegrees.items() if v}


def test_tor_table_to_json():
    """SU(3)/T over Q: the JSON form of the table, with the sampled
    products only when they were asked for."""
    ring, _, _ = bar_ring(QQ, "SU(3)/T", 6)
    data = ring.table.to_json()
    assert data["bidegrees"] == [[0, 0, 1], [0, 2, 2], [0, 4, 2], [0, 6, 1]]
    assert data["poincare"] == "1+2*q^2+2*q^4+q^6"
    assert data["totals"] == {str(d): v
                              for d, v in ring.table.totals.items()}
    assert "products" not in data
    sampled, _, _ = bar_ring(QQ, "SU(3)/T", 6, sample_products=True)
    data = sampled.table.to_json()
    assert len(data["products"]) == 14
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_product_coordinates_are_field_elements(field):
    """The table keeps each product coordinate as a field element, an int
    in range over F5 and an int or a `Fraction` over Q; `to_json` writes
    the `str` of each."""
    ring, _, _ = bar_ring(field, "U(3)/U(1)^3", 6, sample_products=True)
    written = ring.table.to_json()["products"]
    assert len(written) == len(ring.table.products)
    for entry, text in zip(ring.table.products, written):
        for c in entry["coords"]:
            assert isinstance(c, (int, Fraction)) if field is QQ \
                else isinstance(c, int) and 0 <= c < 5
        assert text["coords"] == [str(c) for c in entry["coords"]]


def test_tor_table_repr():
    """The repr lists the nonzero bidegrees as `json.dumps` writes them,
    a negative s included: SU(3)/SU(2) = S^5 over Q."""
    ring, _, _ = bar_ring(QQ, "SU(3)/SU(2)", 5)
    bidegrees = ring.table.to_json()["bidegrees"]
    assert bidegrees == [[-1, 6, 1], [0, 0, 1]]
    assert repr(ring.table) == "TorTable(" + json.dumps(bidegrees) + ")"


def test_pu2_over_f2_formal_square_vanishes():
    """The catalog's expected failure.  H*(PU(2); F2) = F2[x]/x^4 has
    x1^2 = x2 != 0, but the formal Tor of H*(BPU(2)) -> H*(BT) over F2
    has x1 x1 = 0: the formal route needs 2 invertible, and over F2 it
    is not.  At chain level the square survives:
    `test_chain_level_tor_of_k_z2_2` shows x1 x1 = x2.  Both formal
    routes, the bar ring and the Koszul oracle, agree on x1 x1 = 0 and
    x1 x2 = x3."""
    A, B, f, _ = catalog_entry(F2, "PU(2)@F2")
    ring, _, _ = tor_bar_algebra(A, B, f, 6, sample_products=False)
    for side in (ring, tor_koszul_oracle(A, B, f, 6)):
        assert side.product_class(1, 0, 1, 0) == [F2.zero]
        assert side.product_class(1, 0, 2, 0) == [F2.one]


def test_chain_level_tor_of_k_z2_2():
    """Tor of C*(K(Z/2,2)) over F2 is F2[x], |x| = 1: one class in each
    degree, and every product of representatives is the class of its
    degree.  The complex is not split by bidegree, so the class spaces
    come straight from `homology`."""
    ring, _, _ = chain_level_tor(b_cyclic(F2, 2), None, F2, 3)
    table = ring.table
    assert table.poincare() == "1+q+q^2+q^3"
    assert table.bidegrees == {}
    for d in range(4):
        assert len(table.representatives[d]) == 1
    for d1 in range(4):
        for d2 in range(4 - d1):
            assert ring.product_class(d1, 0, d2, 0) == [F2.one], (d1, d2)


def test_chain_level_tor_of_k_z3_2_at_an_odd_prime():
    """Tor of C*(K(Z/3,2)) over F3 to degree 2: one class in each degree,
    x1 x1 = 0 and 1 x2 = x2.  Over F2 x1 x1 = x2 (the test above).  Here
    x1 has odd degree, so graded commutativity gives 2 x1^2 = 0 and, with
    2 invertible, x1^2 = 0: the paper's hypothesis that 2 is invertible,
    seen at chain level."""
    F3 = PrimeField(3)
    ring, _, _ = chain_level_tor(b_cyclic(F3, 3), None, F3, 2)
    assert ring.table.totals == {0: 1, 1: 1, 2: 1}
    assert ring.product_class(1, 0, 1, 0) == [F3.zero]
    assert ring.product_class(0, 0, 2, 0) == [F3.one]


def test_chain_level_tor_with_coefficients_in_c_bg():
    """With K_space = G the coefficients are C*(BG) itself, restricted
    along the identity BG -> BG: Tor_{C*(BG)}(k, C*(BG)) = k, one class
    in degree 0 whose square is itself."""
    G = b_cyclic(F2, 2)
    ring, _, _ = chain_level_tor(G, G, F2, 2)
    table = ring.table
    assert table.totals == {0: 1, 1: 0, 2: 0}
    assert len(table.representatives[0]) == 1
    assert ring.product_class(0, 0, 0, 0) == [F2.one]


def test_chain_level_tor_over_a_proper_subgroup():
    """G = B(Z/4) and K its subgroup of even entries, a copy of B(Z/2):
    Tor_{C*(BG)}(F2, C*(BK)) to degree 2 is H*(G/K; F2) = H*(BZ/2; F2),
    one class in each degree with x1 x1 = x2.  The subgroup runs as a
    simplicial group (faces, degeneracies and products through the
    inclusion), and its `last_face_fibre` is G's filtered by membership,
    so the cup products on W-bar of it come from heads.  Inverses are
    checked directly."""
    G = b_cyclic(F2, 4)
    K = SubgroupInclusion(
        G, lambda p, x: all(v % 2 == 0 for g in x for v in g))
    ring, _, _ = chain_level_tor(G, K, F2, 2)
    assert ring.table.totals == {0: 1, 1: 1, 2: 1}
    assert ring.product_class(1, 0, 1, 0) == [F2.one]
    assert ring.product_class(0, 0, 2, 0) == [F2.one]
    for x in K.simplices(2):
        assert K.mul(2, x, K.inv(2, x)) == K.one(2), x
