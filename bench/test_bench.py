"""Tests of the benchmark itself: smoke-size workloads against their known
answers, the tracer's wrapping and restoring, and BENCHMARK.json."""
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import cold
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("catalog", "chain_tor", "hga_ek", "formality")

workloads = cold.import_workloads()


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _snapshot():
    """Every attribute of every torbar module and of the classes defined
    in them, by identity."""
    snap = {}
    for layer in tracing.MODULES:
        mod = importlib.import_module(f"torbar.{layer}")
        snap[mod.__name__] = dict(vars(mod))
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{name}"] = dict(vars(obj))
    return snap


def _assert_same(before, after):
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [n for n, obj in attrs.items() if after[owner][n] is not obj]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_workload_meets_known_answers(name):
    sample = cold.measure(name, seed=7, size="smoke")
    assert sample["attempted"] > 0
    assert sample["failed"] == 0, sample["failures"]
    assert sample["wall_s"] > 0 and sample["setup_s"] > 0


def test_failed_check_is_counted():
    setup, run = workloads.WORKLOADS["hga_ek"]
    inputs = setup(1, "smoke")
    inputs["pairs"] += 1
    attempted, failed, failures = cold.tally(run(inputs))
    assert (attempted, failed) == (5, 1)
    assert "basis cochains of b" in failures[0]


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = _snapshot()
    seen = []
    setup, run = workloads.WORKLOADS["chain_tor"]

    def spy(inputs):
        seen.append(tracing.installed_wrappers())
        return run(inputs)

    monkeypatch.setitem(workloads.WORKLOADS, "chain_tor", (setup, spy))
    cold.measure("chain_tor", 1, "smoke")
    assert seen == [[]]
    _assert_same(before, _snapshot())


def test_unwrapping_restores_every_original():
    before = _snapshot()
    with tracing.Tracer():
        wrapped = set(tracing.installed_wrappers())
        # defining module, a module that imported the name, a method, a
        # classmethod, and a counted per-element method
        assert {"linalg:homology", "bar:homology", "linalg:ReducedSpace.add",
                "graded:GradedElement.single",
                "classifying:WBar.face"} <= wrapped
    assert tracing.installed_wrappers() == []
    _assert_same(before, _snapshot())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    before = _snapshot()
    out = tmp_path / "trace.json"
    sample = cold.measure(name, seed=7, size="smoke", trace_out=str(out))
    _assert_same(before, _snapshot())
    assert sample["failed"] == 0
    names = {m["name"] for m in _spec()["per_layer"]}
    layers = sample["layers"]
    assert set(layers) == names - {"trace.overhead_s"}
    trace = json.loads(out.read_text())
    assert trace["spans"] and trace["calls"] and not trace["hook_errors"]
    # which layers each workload loads and bypasses
    simplicial = [n for n in names if n.startswith(("simplicial.", "classifying."))
                  and not n.endswith("self_s")]
    if name == "catalog":
        assert all(layers[n] == 0 for n in simplicial)
        assert layers["linalg.homology.calls"] > 0
    else:
        assert layers["simplicial.interval_cut.calls"] > 0
    if name in ("hga_ek", "formality"):
        assert layers["linalg.homology.calls"] == 0
    if name in ("hga_ek", "chain_tor"):
        assert layers["hga.E.calls"] > 0
        assert layers["simplicial.vectorize.scanned"] > 0


def test_cold_process_prints_one_sample():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cold.py"), "--workload",
         "chain_tor", "--seed", "3", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sample["workload"] == "chain_tor" and sample["failed"] == 0


def test_run_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the run
    exits with an error and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "cold.py", "workloads.py", "tracing.py"):
        shutil.copy(os.path.join(HERE, f), tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_tor", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER) + ["trace.overhead_s"]
    assert all(m["unit"] == tracing.PER_LAYER[m["name"]][0]
               for m in spec["per_layer"] if m["name"] in tracing.PER_LAYER)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    mapped = [n for group in layers["layer_map"] for n in group["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    assert set(layers["workloads"]) == set(WORKLOAD_NAMES)
