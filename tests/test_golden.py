"""Golden outputs: one hash over the results of the four benchmark
computations, pinned so that a change meant to keep every output
byte-identical (a speed-up, a cache, a refactor) fails here if it does
not.  A change that alters an output on purpose re-pins the hash and
names the changed outputs in CHANGES.md."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# The results hashed, each line the repr of one tuple:
#  - the 13 catalog pairs at max_total 9 with sampled products: the
#    table's `to_json` and the report's ok and checked;
#  - chain-level Tor of K(Z/2,2) over F2 at n = 3: totals,
#    representatives and the coordinates of every product of two
#    representatives;
#  - the E_1 computations on C*(K(Z/2,2)) truncated at 5: the EE
#    twisting report on the degree-2 key [a] (x) [b], and E_1(a; b) and
#    the E_1 defect of (a, b) for |a| = 2 and every basis 3-cochain b;
#  - `formality_report(QQ, 2, 5)` at rng seeds 0-3, every report and the
#    rng state after each run.
_GOLDEN = r"""
import hashlib, random
from torbar import bar, classifying, fields, formality, graded, hga, homog
from torbar import simplicial

lines = []

def emit(*parts):
    lines.append(repr(parts))

def emit_report(rep):
    emit(rep.name, rep.ok, rep.checked, rep.failures)

def terms(elem):
    return [(k, c) for k, c in elem.terms.items()]

F2, QQ = fields.F2, fields.QQ
for name in homog.CATALOG:
    for field in ([F2] if name.endswith("@F2") else [QQ, fields.F5]):
        ring, _, rep = homog.run_catalog_entry(field, name, 9,
                                               sample_products=True)
        emit(name, str(field), ring.table.to_json(), rep.ok, rep.checked)

n = 3
ring, osb, _ = homog.chain_level_tor(classifying.b_cyclic(F2, 2), None, F2, n)
reps = ring.table.representatives
emit(sorted(ring.table.totals.items()))
for d in range(n + 1):
    emit(d, [list(r.items()) for r in reps[d]])
for d1 in range(n + 1):
    for d2 in range(n + 1 - d1):
        for i1 in range(len(reps[d1])):
            for i2 in range(len(reps[d2])):
                emit(d1, i1, d2, i2, ring.product_class(d1, i1, d2, i2))

A = simplicial.DualCochainDga(classifying.wbar(classifying.b_cyclic(F2, 2)), 5)
h = hga.dual_cochain_hga(A)
ee = hga.bar_e_cochain(h, bar.BarDgc(A))
keys = [k for k in ee.C.basis(2)
        if [len(w.entries) for w in k.parts] == [1, 1]]
emit(keys)
emit_report(ee.check(keys))
for ka in A.basis(2):
    a = graded.GradedElement.single(F2, ka)
    for kb in sorted(A.basis(3), key=repr):
        b = graded.GradedElement.single(F2, kb)
        emit(ka, kb, terms(h.E(1, a, [b])),
             terms(hga.hom_defect_dE(h, a, [b])))

for seed in range(4):
    rng = random.Random(seed)
    _, reports = formality.formality_report(QQ, 2, 5, rng=rng)
    for label, rep in reports.items():
        emit(seed, label)
        emit_report(rep)
    emit(seed, rng.getstate())

print(len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
"""

GOLDEN = ("118 "
          "80f05525087ac1cfde3c7086a58d2f3174f3052ff98ac032c7c11ad2267977e7")


def test_outputs_match_the_pinned_hash():
    """Runs in a fresh interpreter with PYTHONHASHSEED=0, so that no cache
    an earlier test warmed and no hash seed can change an output."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _GOLDEN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == GOLDEN
