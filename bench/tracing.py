"""Per-layer tracing from outside the program: wrap the public functions
of every torbar module, record spans and counts, restore the originals.

A layer is a torbar module.  A call into a spanned function adds its self
time (its duration minus that of the spanned calls it made) to its
layer, and a call that crosses from one layer into another is also kept
as a span record (id, parent id, name, start, duration).  Hot
per-element functions are counted, not spanned: field arithmetic, every
`GradedElement` method, and face, degeneracy, group operations and
degeneracy tests of simplicial sets.  A span around each of them would
cost more than the work, so their time stays with the span that called
them.

Metrics are read from the totals by `Tracer.metrics`; the names match the
`per_layer` list of BENCHMARK.json.
"""
import functools
import importlib
import inspect
import json
import time

MODULES = ("fields", "graded", "linalg", "dg", "bar", "shm", "shc", "hga",
           "simplicial", "classifying", "formality", "homog")

COUNTED_CLASSES = {"Rationals", "PrimeField", "GradedElement"}
COUNTED_SIMPLICIAL_METHODS = {"face", "degeneracy", "mul", "inv", "one",
                              "is_degenerate", "face_by_vertices_data", "key",
                              "contains", "canonical"}
MAX_SPANS = 50000
MARK = "__bench_wrapped__"


def _owners():
    """(layer, owner, attribute name, raw attribute) of every wrappable
    public function: module-level functions and methods of classes, each
    at the module or class that defines it."""
    out = []
    for layer in MODULES:
        mod = importlib.import_module(f"torbar.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((layer, mod, name, obj))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(
                        raw, (staticmethod, classmethod)) else raw
                    if inspect.isfunction(fn):
                        out.append((layer, obj, attr, raw))
    return out


def _is_counted(owner, attr):
    if not inspect.isclass(owner):
        return False
    if owner.__name__ in COUNTED_CLASSES:
        return True
    from torbar.simplicial import SimplicialSet
    return issubclass(owner, SimplicialSet) and \
        attr in COUNTED_SIMPLICIAL_METHODS


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Extra counts read from arguments and results, keyed by wrapped name.
# Hooks run with tracing paused, so torbar calls they make are not counted.
def _homology_keys(tr, args, kwargs, result):
    basis = _arg(args, kwargs, 0, "basis_by_degree")
    tr.extra["linalg.homology.keys"] += sum(len(v) for v in basis.values())


def _kernel_cols(tr, args, kwargs, result):
    tr.extra["linalg.kernel_basis.cols"] += len(
        _arg(args, kwargs, 2, "col_keys"))


def _space_add(tr, args, kwargs, result):
    if result:
        tr.extra["linalg.add.new"] += 1
        tr.extra["linalg.echelon.nnz"] += len(args[0].echelon[-1][1])


def _cut_terms(tr, args, kwargs, result):
    tr.extra["simplicial.interval_cut.terms"] += len(result)


def _vectorize(tr, args, kwargs, result):
    dga, cochain = args[0], _arg(args, kwargs, 1, "cochain")
    tr.extra["simplicial.vectorize.scanned"] += len(
        dga.X.nondegenerate(cochain.degree))
    tr.extra["simplicial.vectorize.hits"] += len(result.terms)


def _basis_total(tr, args, kwargs, result):
    tr.extra["bar.basis_total.keys"] += len(result)


HOOKS = {
    "linalg:homology": _homology_keys,
    "linalg:kernel_basis": _kernel_cols,
    "linalg:ReducedSpace.add": _space_add,
    "simplicial:interval_cut": _cut_terms,
    "simplicial:DualCochainDga.vectorize": _vectorize,
    "bar:OneSidedBar.basis_total": _basis_total,
}
EXTRA = ("linalg.homology.keys", "linalg.kernel_basis.cols", "linalg.add.new",
         "linalg.echelon.nnz", "simplicial.interval_cut.terms",
         "simplicial.vectorize.scanned", "simplicial.vectorize.hits",
         "bar.basis_total.keys")


class Tracer:
    """Install with `install()`, read with `summary()`, restore with
    `uninstall()`; or use as a context manager."""

    def __init__(self):
        self.patches = []        # (owner, name, original attribute)
        self.stats = {}          # name -> [calls, inclusive s, self s, depth]
        self.counts = {}         # name -> [calls] of counted functions
        self.layer_self = {layer: 0.0 for layer in MODULES}
        self.extra = {name: 0 for name in EXTRA}
        self.spans = []          # (id, parent id, name, start, duration)
        self.spans_dropped = 0
        self.hook_errors = {}
        self.paused = False
        self._stack = []         # [child s, layer, recorded span id]
        self._next_id = 0
        self._origin = time.perf_counter()

    # -- wrappers -------------------------------------------------------------
    def _counted(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name, layer):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        layer_self = self.layer_self
        hook = HOOKS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stat[0] += 1
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[1] != layer
            if boundary:
                tracer._next_id += 1
                frame = [0.0, layer, tracer._next_id]
            else:
                frame = [0.0, layer, parent[2]]
            stack.append(frame)
            stat[3] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                own = dur - frame[0]
                stat[2] += own
                layer_self[layer] += own
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dur
                if parent is not None:
                    parent[0] += dur
                if boundary:
                    if len(spans) < MAX_SPANS:
                        spans.append((frame[2], parent and parent[2], name,
                                      t0 - tracer._origin, dur))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                tracer._run_hook(hook, name, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook, name, args, kwargs, result):
        # a hook reads torbar's data structures; if a later version changes
        # them, the hook's count stops and the error is counted instead
        self.paused = True
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.hook_errors[name] = self.hook_errors.get(name, 0) + 1
        finally:
            self.paused = False

    # -- install / uninstall --------------------------------------------------
    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        replaced = {}            # id(original function) -> (original, wrapper)
        for layer, owner, attr, raw in _owners():
            fn = raw.__func__ if isinstance(
                raw, (staticmethod, classmethod)) else raw
            qual = attr if inspect.ismodule(owner) \
                else f"{owner.__name__}.{attr}"
            name = f"{layer}:{qual}"
            wrapper = self._counted(fn, name) if _is_counted(owner, attr) \
                else self._spanned(fn, name, layer)
            setattr(wrapper, MARK, True)
            if isinstance(raw, staticmethod):
                new = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                new = classmethod(wrapper)
            else:
                new = wrapper
                if inspect.ismodule(owner):
                    replaced[id(raw)] = (raw, wrapper)
            self.patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        # names bound by `from .module import function` elsewhere
        for layer in MODULES:
            mod = importlib.import_module(f"torbar.{layer}")
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self.patches):
            setattr(owner, attr, raw)
        self.patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------
    def summary(self):
        calls = {n: s[0] for n, s in self.stats.items() if s[0]}
        calls.update({n: c[0] for n, c in self.counts.items() if c[0]})
        return {
            "calls": calls,
            "inclusive_s": {n: s[1] for n, s in self.stats.items() if s[0]},
            "self_s": {n: s[2] for n, s in self.stats.items() if s[0]},
            "layer_self_s": dict(self.layer_self),
            "extra": dict(self.extra),
            "hook_errors": dict(self.hook_errors),
        }

    def metrics(self):
        """The per-layer metrics, by the names of PER_LAYER."""
        summary = self.summary()
        return {name: fn(summary) for name, (_, fn) in PER_LAYER.items()}

    def write(self, path, header):
        data = dict(header)
        data.update(self.summary())
        data["span_fields"] = ["id", "parent", "name", "start_s", "duration_s"]
        data["spans"] = self.spans
        data["spans_dropped"] = self.spans_dropped
        with open(path, "w") as fh:
            json.dump(data, fh)


def installed_wrappers():
    """Names of torbar functions that carry a tracing wrapper right now."""
    out = []
    for layer in MODULES:
        mod = importlib.import_module(f"torbar.{layer}")
        for name, obj in vars(mod).items():
            targets = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                targets += [(f"{name}.{a}", getattr(r, "__func__", r))
                            for a, r in vars(obj).items()]
            out += [f"{layer}:{n}" for n, o in targets
                    if getattr(o, MARK, False)]
    return out


# -- per-layer metrics ----------------------------------------------------------
def _calls(s, name):
    return s["calls"].get(name, 0)


def _calls_like(s, prefix, suffix=""):
    """Calls summed over wrapped names that start with prefix and end with
    suffix, e.g. every `face` method of the classifying layer."""
    return sum(c for n, c in s["calls"].items()
               if n.startswith(prefix) and n.endswith(suffix))


def _incl(s, *names):
    return sum(s["inclusive_s"].get(n, 0.0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, function of the summary)
PER_LAYER = {
    "linalg.self_s": ("s", lambda s: s["layer_self_s"]["linalg"]),
    "linalg.homology.calls": ("count", lambda s: _calls(s, "linalg:homology")),
    "linalg.homology.keys": ("count",
                             lambda s: s["extra"]["linalg.homology.keys"]),
    "linalg.kernel_basis.cols": (
        "count", lambda s: s["extra"]["linalg.kernel_basis.cols"]),
    "linalg.reduce.calls": ("count",
                            lambda s: _calls(s, "linalg:ReducedSpace.reduce")),
    "linalg.add.new_ratio": ("ratio", lambda s: _ratio(
        s["extra"]["linalg.add.new"], _calls(s, "linalg:ReducedSpace.add"))),
    "linalg.echelon.nnz": ("count", lambda s: s["extra"]["linalg.echelon.nnz"]),
    "linalg.express_class.calls": (
        "count", lambda s: _calls(s, "linalg:express_class")),
    "bar.self_s": ("s", lambda s: s["layer_self_s"]["bar"]),
    "bar.diff_key.calls": ("count", lambda s: _calls(s, "bar:BarDgc.diff_key")),
    "bar.basis_total.keys": ("count",
                             lambda s: s["extra"]["bar.basis_total.keys"]),
    "bar.tor_additive.s": ("s", lambda s: _incl(s, "bar:tor_additive")),
    "dg.self_s": ("s", lambda s: s["layer_self_s"]["dg"]),
    "dg.tt_diff_key.calls": (
        "count", lambda s: _calls(s, "dg:TwistedTensor.diff_key")),
    "dg.gc_mul_keys.calls": (
        "count", lambda s: _calls(s, "dg:FreeGcDga.mul_keys")),
    "dg.hom_cup.calls": ("count", lambda s: _calls(s, "dg:HomAlgebra.cup")),
    "fields.ops": ("count", lambda s: _calls_like(s, "fields:Rationals.")
                   + _calls_like(s, "fields:PrimeField.")),
    "graded.self_s": ("s", lambda s: s["layer_self_s"]["graded"]),
    "graded.add_in.calls": (
        "count", lambda s: _calls(s, "graded:GradedElement.add_in")),
    "simplicial.self_s": ("s", lambda s: s["layer_self_s"]["simplicial"]),
    "simplicial.is_degenerate.calls": (
        "count", lambda s: _calls_like(s, "simplicial:", ".is_degenerate")),
    "simplicial.face_by_vertices.calls": (
        "count", lambda s: _calls_like(s, "simplicial:", ".face_by_vertices_data")),
    "simplicial.interval_cut.calls": (
        "count", lambda s: _calls(s, "simplicial:interval_cut")),
    "simplicial.interval_cut.terms": (
        "count", lambda s: s["extra"]["simplicial.interval_cut.terms"]),
    "simplicial.interval_cut.self_s": (
        "s", lambda s: s["self_s"].get("simplicial:interval_cut", 0.0)),
    "simplicial.vectorize.calls": (
        "count", lambda s: _calls(s, "simplicial:DualCochainDga.vectorize")),
    "simplicial.vectorize.scanned": (
        "count", lambda s: s["extra"]["simplicial.vectorize.scanned"]),
    "simplicial.vectorize.hit_ratio": ("ratio", lambda s: _ratio(
        s["extra"]["simplicial.vectorize.hits"],
        s["extra"]["simplicial.vectorize.scanned"])),
    "simplicial.dual_mul.calls": (
        "count", lambda s: _calls(s, "simplicial:DualCochainDga.mul_keys")),
    "simplicial.dual_diff.calls": (
        "count", lambda s: _calls(s, "simplicial:DualCochainDga.diff_key")),
    "classifying.self_s": ("s", lambda s: s["layer_self_s"]["classifying"]),
    "classifying.face.calls": (
        "count", lambda s: _calls_like(s, "classifying:", ".face")),
    "classifying.degeneracy.calls": (
        "count", lambda s: _calls_like(s, "classifying:", ".degeneracy")),
    "hga.self_s": ("s", lambda s: s["layer_self_s"]["hga"]),
    "hga.E.calls": ("count", lambda s: _calls_like(s, "hga:", ".E")),
    "hga.E.s": ("s", lambda s: _incl(s, "hga:VectorHga.E",
                                     "hga:FunctionalHga.E")),
    "hga.ks_product.calls": ("count",
                             lambda s: _calls(s, "hga:KSAlgebra.product")),
    "formality.self_s": ("s", lambda s: s["layer_self_s"]["formality"]),
    "formality.vanishing.s": ("s", lambda s: _incl(
        s, "formality:TorusFormality.verify_vanishing_suite")),
    "formality.s_identities.s": ("s", lambda s: _incl(
        s, "formality:TorusFormality.check_s_identities")),
    "formality.chain_map.s": ("s", lambda s: _incl(
        s, "formality:TorusFormality.check_chain_map")),
    "formality.coalgebra_map.s": ("s", lambda s: _incl(
        s, "formality:TorusFormality.check_coalgebra_map")),
    "formality.operations.s": ("s", lambda s: _incl(
        s, "formality:TorusFormality.check_fstar_kills_operations")),
    "homog.self_s": ("s", lambda s: s["layer_self_s"]["homog"]),
    "homog.koszul_oracle.s": ("s",
                              lambda s: _incl(s, "homog:tor_koszul_oracle")),
    "homog.products.s": ("s", lambda s: _incl(s, "homog:TorRing.product_class")),
}

