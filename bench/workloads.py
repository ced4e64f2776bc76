"""The benchmark's workloads: inputs, one computing run, known answers.

Each workload has a `setup(seed, size)` that builds the input objects
(fields, specs, groups, W-bar spaces, cochain dgas, bar constructions)
and a `run(inputs)` that does the computing and returns a list of
`CheckReport`s against known answers.  `size` is "full" for the timed
benchmark and "smoke" for the benchmark's own tests.

Only `formality` reads the seed (it seeds the report's rng); the other
three are exact, deterministic inputs that no seed changes.

torbar functions are reached through their modules (`homog.chain_level_tor`
rather than an imported name) so that a traced run sees the wrappers that
`tracing.Tracer` installs on the module attributes.
"""
import random

from torbar import (bar, classifying, dg, fields, formality, graded, hga,
                    homog, simplicial)


# -- catalog ------------------------------------------------------------------
# All 13 (entry, field) pairs: Q and F5 for each entry, F2 for the entry
# whose known answer holds in characteristic 2.  max_total 9 keeps one
# cold run near 3 s on a 2-core machine (11 takes about 15 s) with the
# same profile: elimination dominates, and no simplicial code runs.
CATALOG_MAX_TOTAL = {"full": 9, "smoke": 4}


def catalog_setup(seed, size):
    pairs = []
    for name in homog.CATALOG:
        if name.endswith("@F2"):
            pairs.append((fields.F2, name))
        else:
            pairs.extend([(fields.QQ, name), (fields.F5, name)])
    return {"pairs": pairs, "max_total": CATALOG_MAX_TOTAL[size]}


def catalog_run(inputs):
    reports = []
    for field, name in inputs["pairs"]:
        ring, _, report = homog.run_catalog_entry(
            field, name, inputs["max_total"], sample_products=True)
        # a sampled product with no coordinates is a cycle outside the
        # span of the representatives and the boundaries
        for entry in ring.table.products:
            report.record(entry["coords"] is not None,
                          ("product has coordinates", entry["factors"]))
        reports.append(report)
    return reports


# -- chain_tor ----------------------------------------------------------------
# Tor of C*(K(Z/2,2)) over F2 is F2[x] with |x| = 1: one class in each
# degree, and every product of representatives is the class of that degree.
CHAIN_TOR_DEGREE = {"full": 3, "smoke": 2}


def chain_tor_setup(seed, size):
    return {"group": classifying.b_cyclic(fields.F2, 2),
            "degree": CHAIN_TOR_DEGREE[size]}


def chain_tor_run(inputs):
    F2 = fields.F2
    n = inputs["degree"]
    ring, osb, _ = homog.chain_level_tor(inputs["group"], None, F2, n)
    report = dg.CheckReport(f"chain-level Tor of K(Z/2,2) over F2 to {n}")
    reps = ring.table.representatives
    for d in range(n + 1):
        report.record(ring.table.totals.get(d, 0) == 1 and len(reps[d]) == 1,
                      ("one class in degree", d, ring.table.totals.get(d)))
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            if len(reps[d1]) != 1 or len(reps[d2]) != 1:
                report.record(False, ("product needs one class", d1, d2))
                continue
            coords = ring.product_class(d1, 0, d2, 0,
                                        osb.basis_total(d1 + d2 - 1))
            report.record(coords == [F2.one], ("product", d1, d2, coords))
    return [report]


# -- hga_ek -------------------------------------------------------------------
# E_k on C*(K(Z/2,2)) over F2, truncated at 5, evaluated through
# `vectorize`, which scans every nondegenerate simplex of the output
# degree.  Two known answers:
#  - the twisting identity of EE = bar_e_cochain(hga, BarDgc(A)) on the
#    degree-2 key [a] (x) [b], |a| = |b| = 2 (the only one);
#  - the differential identity of E_1 (`hga.hom_defect_dE` is zero) on
#    (a, b) with |a| = 2 and b each of the four basis 3-cochains.  These
#    are the pairs of the four degree-3 keys [a] (x) [b], |a| = 2, |b| = 3;
#    each E_1(a; db) scans all 768 nondegenerate 5-simplices (da = 0).
# The twisting identity on those four keys themselves takes about 27 s
# cold (17 such scans per key), too long for several cold samples a run.
# The smoke size takes |b| = 2: one pair, scans of 4-simplices.
HGA_EK_DEGREE_B = {"full": 3, "smoke": 2}
HGA_EK_PAIRS = {"full": 4, "smoke": 1}


def hga_ek_setup(seed, size):
    F2 = fields.F2
    A = simplicial.DualCochainDga(
        classifying.wbar(classifying.b_cyclic(F2, 2)), 5)
    h = hga.dual_cochain_hga(A)
    ee = hga.bar_e_cochain(h, bar.BarDgc(A))
    keys = [k for k in ee.C.basis(2)
            if [len(w.entries) for w in k.parts] == [1, 1]]
    a = A.basis(2)
    bs = sorted(A.basis(HGA_EK_DEGREE_B[size]), key=repr)
    return {"hga": h, "cochain": ee, "keys": keys,
            "a": [graded.GradedElement.single(F2, k) for k in a],
            "bs": [graded.GradedElement.single(F2, k) for k in bs],
            "pairs": HGA_EK_PAIRS[size]}


def hga_ek_run(inputs):
    count = dg.CheckReport("hga_ek inputs")
    count.record(len(inputs["keys"]) == 1, ("degree-2 keys", inputs["keys"]))
    count.record(len(inputs["a"]) == 1, ("basis 2-cochains", len(inputs["a"])))
    count.record(len(inputs["bs"]) == inputs["pairs"],
                 ("basis cochains of b", len(inputs["bs"])))
    reports = [count, inputs["cochain"].check(inputs["keys"])]
    identity = dg.CheckReport("differential identity of E_1")
    for a in inputs["a"]:
        for b in inputs["bs"]:
            identity.record(hga.hom_defect_dE(inputs["hga"], a, [b]).is_zero(),
                            ("E_1 defect", a, b))
    reports.append(identity)
    return reports


# -- formality ----------------------------------------------------------------
# The torus formality report for T^2 over Q; every report must be ok.
# degree bound 5 keeps one cold run near 1 s (6 takes about 9 s) with the
# same profile: W-bar face/degeneracy, is_degenerate and interval cuts.
FORMALITY_BOUND = {"full": 5, "smoke": 4}


def formality_setup(seed, size):
    return {"rng": random.Random(seed), "bound": FORMALITY_BOUND[size]}


def formality_run(inputs):
    _, reports = formality.formality_report(fields.QQ, 2, inputs["bound"],
                                            rng=inputs["rng"])
    return list(reports.values())


WORKLOADS = {
    "catalog": (catalog_setup, catalog_run),
    "chain_tor": (chain_tor_setup, chain_tor_run),
    "hga_ek": (hga_ek_setup, hga_ek_run),
    "formality": (formality_setup, formality_run),
}
