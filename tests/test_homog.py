import pytest

from torbar.fields import QQ, F5, F2
from torbar.graded import GradedElement
from torbar.homog import (CATALOG, catalog_entry, run_catalog_entry,
                          tor_bar_algebra)
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
    base, fiber, mp, _ = catalog_entry(name)
    return tor_bar_algebra(field, base, fiber, mp, max_total,
                           sample_products=sample_products)


def test_catalog_has_thirteen_pairs():
    assert len(PAIRS) == 13


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_representatives_have_unit_coordinates(field, name):
    ring, osb, _ = bar_ring(field, name, 4)
    for d, reps in ring.table.representatives.items():
        lower = osb.basis_total(d - 1)
        for i, r in enumerate(reps):
            unit = [field.one if j == i else field.zero
                    for j in range(len(reps))]
            assert ring.class_of(r, d, lower) == unit, (d, i)


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_catalog_entry_and_sampled_products(field, name):
    ring, _, report = run_catalog_entry(field, name, 6, sample_products=True)
    assert report.ok, report.failures
    assert ring.table.products
    for entry in ring.table.products:
        assert entry["coords"] is not None, entry["factors"]


@pytest.mark.parametrize("field,name", PAIRS, ids=IDS)
def test_product_coordinates_rebuild_the_product(field, name):
    """z = r1 * r2 minus the combination its coordinates name is a
    boundary, checked by dense rank."""
    ring, osb, ks = bar_ring(field, name, 4, sample_products=True)
    reps = ring.table.representatives
    for entry in ring.table.products:
        (d1, i1), (d2, i2) = entry["factors"]
        d = d1 + d2
        z = ks.product(GradedElement(field, dict(reps[d1][i1])),
                       GradedElement(field, dict(reps[d2][i2])))
        for r, c in zip(reps[d], entry["coords"]):
            z = z - GradedElement(field, dict(r)).scale(field.parse(c))
        boundaries = [osb.diff_key(k).terms for k in osb.basis_total(d - 1)]
        boundaries = [b for b in boundaries if b]
        cols = osb.basis_total(d)
        assert rank_dense_oracle(boundaries + [z.terms], field, cols) == \
            rank_dense_oracle(boundaries, field, cols), entry["factors"]
