"""Checks on the source of the package itself."""
import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "torbar"


def test_no_assert_statements():
    """Invariants raise StructuralError: `python -O` strips `assert`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _trees(*dirs):
    root = SRC.parent.parent
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_unused_imports():
    """Every module-level import of a package or test module is used in
    that module."""
    found = []
    for path, tree in _trees("src/torbar", "tests"):
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert not found, found


def test_every_public_definition_is_referenced():
    """Each public function, class and method of the package is named
    somewhere in the package, the tests or the benchmark.  A method counts
    only through an attribute access (`x.name`): a bare name of the same
    spelling, such as a local variable, does not reach it."""
    names, attrs = set(), set()
    for _, tree in _trees("src/torbar", "tests", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    found = []
    for path, tree in _trees("src/torbar"):
        methods = {id(fn) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in attrs
                    and (id(node) in methods or node.name not in names)):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert not found, found


def test_every_function_parameter_is_read():
    """Each parameter of a module-level function is read in its body."""
    found = []
    for path, tree in _trees("src/torbar"):
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno}:{node.name}({p.arg})"
                      for p in params if p.arg not in read]
    assert not found, found


def _body(node):
    """A function's statements without its docstring."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def test_no_duplicated_function_bodies():
    """No two functions or methods of the package share their arguments
    and a body of 12 or more ast nodes; a body that is one `raise`
    statement (an interface stub) is exempt."""
    seen = {}
    for path, tree in _trees("src/torbar"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = _body(node)
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                continue
            if sum(1 for stmt in body for _ in ast.walk(stmt)) < 12:
                continue
            dump = ast.dump(node.args) + "".join(ast.dump(s) for s in body)
            seen.setdefault(dump, []).append(
                f"{path.name}:{node.lineno}:{node.name}")
    found = [where for where in seen.values() if len(where) > 1]
    assert not found, found


def test_no_self_calling_nested_functions():
    """No function nested in another calls itself by name.  Its closure
    cell holds the function, whose closure holds the cell, so every object
    the function closes over (often `self`, an algebra or a space) stays
    in a reference cycle that only the cycle collector breaks; an
    enumeration walks an explicit table or stack instead."""
    found = []

    def visit(path, node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if inside and any(isinstance(n, ast.Call)
                                  and isinstance(n.func, ast.Name)
                                  and n.func.id == child.name
                                  for n in ast.walk(child)):
                    found.append(f"{path.name}:{child.lineno}:{child.name}")
                visit(path, child, True)
            else:
                visit(path, child, inside)

    for path, tree in _trees("src/torbar"):
        visit(path, tree, False)
    assert not found, found


def _terms_loop(node):
    """True for `for ... in <expr>.terms.items():`."""
    it = node.iter if isinstance(node, ast.For) else None
    return (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
            and it.func.attr == "items"
            and isinstance(it.func.value, ast.Attribute)
            and it.func.value.attr == "terms")


def test_no_hand_rolled_tensor_expansions():
    """No loop over one element's terms directly encloses a loop over
    another's: x (x) y and bilinear extensions go through
    `graded.tensor_elements` and `graded.bilinear`."""
    found = []
    for path, tree in _trees("src/torbar"):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _terms_loop(node)
                  and any(_terms_loop(stmt) for stmt in node.body)]
    assert not found, found


def test_one_owner_of_the_elimination_storage():
    """Only `linalg` reads or writes a `ReducedSpace`'s rows and their tag
    combinations; other modules join spaces with `ReducedSpace.extend`."""
    found = []
    for path, tree in _trees("src/torbar"):
        if path.name == "linalg.py":
            continue
        found += [f"{path.name}:{node.lineno}:{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("echelon", "combos")]
    assert not found, found


def _adds_with_loop_coefficient(node):
    """True for a `for k, c in <x>.terms.items():` loop whose last
    statement is `<y>.add_in(<value>, c)`."""
    target = node.target
    if not (_terms_loop(node) and isinstance(target, ast.Tuple)
            and len(target.elts) == 2 and isinstance(target.elts[1], ast.Name)):
        return False
    last = node.body[-1]
    call = last.value if isinstance(last, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_in" and len(call.args) == 2
            and isinstance(call.args[1], ast.Name)
            and call.args[1].id == target.elts[1].id)


def test_no_hand_rolled_linear_extensions():
    """A map applying a key rule linearly goes through
    `GradedElement.map_keys`, the one loop that adds rule(k) scaled by
    the coefficient of k."""
    found = []
    for path, tree in _trees("src/torbar"):
        exempt = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "GradedElement":
                exempt |= {id(n) for fn in cls.body
                           if isinstance(fn, ast.FunctionDef)
                           and fn.name == "map_keys" for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.For) and id(node) not in exempt
                  and _adds_with_loop_coefficient(node)]
    assert not found, found


def _int_value(node):
    """The value of an int literal such as 1 or -1, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = _int_value(node.operand)
        return None if v is None else -v
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _is_field_one(node):
    return isinstance(node, ast.Attribute) and node.attr == "one"


def _is_field_minus_one(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "neg" and len(node.args) == 1
            and _is_field_one(node.args[0]))


def _hand_written_sign(node):
    """True for `(-1) ** e` and for a conditional expression choosing
    between one and minus one (ints, or a field's `one` and `neg(one)`)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _int_value(node.left) == -1
    if isinstance(node, ast.IfExp):
        a, b = node.body, node.orelse
        return ({_int_value(a), _int_value(b)} == {1, -1}
                or (_is_field_one(a) and _is_field_minus_one(b))
                or (_is_field_minus_one(a) and _is_field_one(b)))
    return False

def test_every_sign_from_parity_sign():
    """Every (-1)^e of the package is `graded.parity_sign`: no power of
    -1 and no conditional between one and minus one elsewhere."""
    found = []
    for path, tree in _trees("src/torbar"):
        exempt = set()
        if path.name == "graded.py":
            exempt = {id(n) for fn in tree.body
                      if isinstance(fn, ast.FunctionDef)
                      and fn.name == "parity_sign" for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in exempt and _hand_written_sign(node)]
    assert not found, found



def _defaulted(args, shift=0):
    """(position or None, name, default node) of each parameter with a
    default; a keyword-only one has no position.  `shift` skips leading
    parameters (self)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i - shift, a.arg, d) for i, (a, d) in
             enumerate(zip(positional[first:], args.defaults), first)]
            + [(None, a.arg, d)
               for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call, position, name, default):
    """True when the call passes the parameter, by keyword or position, a
    value other than the default's own expression (passing `None` to a
    `None` default passes nothing)."""
    same = ast.dump(default)
    for k in call.keywords:
        if k.arg is None:
            return True
        if k.arg == name:
            return ast.dump(k.value) != same
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position and ast.dump(call.args[position]) != same


def _callee(call, cls, modules):
    """The name a call reaches: `name(...)`, `module.name(...)`, `cls(...)`
    inside class `cls`, or `super().__init__(...)` (the first base)."""
    func = call.func
    if isinstance(func, ast.Name):
        return cls.name if cls is not None and func.id == "cls" else func.id
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id in modules:
        return func.attr
    if (cls is not None and func.attr == "__init__" and cls.bases
            and isinstance(cls.bases[0], ast.Name)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"):
        return cls.bases[0].id
    return None


def test_every_default_is_passed_somewhere():
    """Each defaulted parameter of a module-level function or a class
    `__init__` of the package is passed, positionally or by keyword, by
    some call in the package, the tests or the benchmark, with a value
    other than the default itself: a default that no call overrides is a
    constant."""
    modules = {path.stem for path in SRC.glob("*.py")}
    defaults = {}
    for path, tree in _trees("src/torbar"):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = _defaulted(node.args)
            elif isinstance(node, ast.ClassDef):
                params = [p for fn in node.body if isinstance(fn, ast.FunctionDef)
                          and fn.name == "__init__"
                          for p in _defaulted(fn.args, shift=1)]
            else:
                continue
            for position, name, default in params:
                defaults[(node.name, position, name, default)] = \
                    f"{path.name}:{node.lineno}:{node.name}({name})"
    passed = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                target = _callee(child, cls, modules)
                passed.update(key for key in defaults if key[0] == target
                              and _passes(child, *key[1:]))
            visit(child, child if isinstance(child, ast.ClassDef) else cls)

    for _, tree in _trees("src/torbar", "tests", "bench"):
        visit(tree, None)
    found = sorted(where for key, where in defaults.items()
                   if key not in passed)
    assert not found, found


def test_fractions_only_in_fields():
    """Only `fields` imports `fractions` or names `Fraction`, so how a
    rational coefficient is stored stays that module's choice."""
    found = []
    for path, tree in _trees("src/torbar"):
        if path.name == "fields.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] in ("fractions", "Fraction")]
    assert not found, found


def test_every_simplicial_group_has_a_last_face_fibre():
    """Each `SimplicialGroup` of the package overrides the
    `last_face_fibre` stub, so W-bar of every group multiplies cochains
    from heads; a group that lost its fibre would stop W-bar's cup
    products with `NotImplementedError`."""
    from torbar.simplicial import SimplicialGroup
    for info in pkgutil.iter_modules([str(SRC)]):
        importlib.import_module(f"torbar.{info.name}")
    groups, todo = [], [SimplicialGroup]
    while todo:
        subclasses = todo.pop().__subclasses__()
        groups += subclasses
        todo += subclasses
    groups = {cls for cls in groups if cls.__module__.startswith("torbar.")}
    assert len(groups) >= 5, groups
    found = sorted(f"{cls.__module__}.{cls.__name__}" for cls in groups
                   if cls.last_face_fibre is SimplicialGroup.last_face_fibre)
    assert not found, found


def test_is_degenerate_is_defined_once():
    """Only `SimplicialSet` defines `is_degenerate`, the memoized test
    over `degenerate_at`; a space states its degeneracy criterion by
    overriding `degenerate_at`, so a second `is_degenerate` would bypass
    the memo or disagree with the criterion."""
    found = []
    for path, tree in _trees("src/torbar"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == "SimplicialSet":
                continue
            for node in cls.body:
                names = ([node.name] if isinstance(node, ast.FunctionDef)
                         else [t.id for t in getattr(node, "targets", [])
                               if isinstance(t, ast.Name)])
                found += [f"{path.name}:{node.lineno}:{cls.name}"
                          for name in names if name == "is_degenerate"]
    assert not found, found


def test_hga_operations_defined_once():
    """Only `hga.VectorHga` (on vectors, read off its dga) and
    `simplicial.CochainHga` (interval cuts on functionals) define the hga
    operations `E` and `F`; an algebra or wrapper with its own copy could
    disagree with them."""
    allowed = {("hga.py", "VectorHga"), ("simplicial.py", "CochainHga")}
    found = []
    for path, tree in _trees("src/torbar"):
        for cls in ast.walk(tree):
            if (not isinstance(cls, ast.ClassDef)
                    or (path.name, cls.name) in allowed):
                continue
            found += [f"{path.name}:{node.lineno}:{cls.name}.{node.name}"
                      for node in cls.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name in ("E", "F")]
    assert not found, found


def test_faces_by_vertices_only_in_cuts():
    """Only `interval_cut` and `reduced_subgroup` take a face by its
    vertices.  The AW diagonal is the interval cut of (1, 2) and Q^n_{k,l}
    is read off that of (1, 2, 1); each shares the cut memo and takes the
    faces of one simplex through one table, so a second path to their
    faces fails here."""
    allowed = {"interval_cut", "reduced_subgroup"}
    found = []

    def visit(path, node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "face_by_vertices_data"
                    and function not in allowed):
                found.append(f"{path.name}:{child.lineno}:{function}")
            visit(path, child, child.name
                  if isinstance(child, ast.FunctionDef) else function)

    for path, tree in _trees("src/torbar"):
        visit(path, tree, None)
    assert not found, found


def test_one_cut_shape_table():
    """`_cut_shapes` is the one table of interval-cut shapes, already
    grouped by factor dimensions, and only `interval_cut` reads it;
    `simplicial` caches no second function with `lru_cache`, such as a
    regrouping of the shapes."""
    found = []

    def visit(path, node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "_cut_shapes"
                    and function != "interval_cut"):
                found.append(f"{path.name}:{child.lineno}:{function}")
            if isinstance(child, ast.FunctionDef):
                if (path.name == "simplicial.py"
                        and child.name != "_cut_shapes"
                        and any("lru_cache" in ast.dump(d)
                                for d in child.decorator_list)):
                    found.append(f"{path.name}:{child.lineno}:{child.name}"
                                 " (lru_cache)")
                visit(path, child, child.name)
            else:
                visit(path, child, function)

    for path, tree in _trees("src/torbar"):
        visit(path, tree, None)
    assert not found, found


def test_reduced_coproduct_taken_once():
    """Only `Dgc.reduced_cop_terms` drops the coaugmentation from a
    coproduct: a function that both splits keys (`cop_key`, or the former
    `cop_reduced_key`) and reads `coaug_key` is a second walk of the
    reduced iterated coproduct, one that prunes nothing its reader
    multiplies by zero."""
    found = []
    for path, tree in _trees("src/torbar"):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) \
                    or fn.name == "reduced_cop_terms":
                continue
            attrs = {n.attr for n in ast.walk(fn)
                     if isinstance(n, ast.Attribute)}
            splits = any(isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Attribute)
                         and n.func.attr in ("cop_key", "cop_reduced_key")
                         for n in ast.walk(fn))
            if splits and "coaug_key" in attrs:
                found.append(f"{path.name}:{fn.lineno}:{fn.name}")
    assert not found, found


def test_one_product_per_algebra():
    """Only `Dga.mul` hands an attribute of `self` to `graded.bilinear`:
    an algebra multiplies elements by extending its `mul_keys` through
    the one inherited `mul`, so a method of its own that extends a rule
    of its object bilinearly is a second product."""
    found = []

    def is_bilinear(call):
        func = call.func
        return (isinstance(func, ast.Name) and func.id == "bilinear"
                or isinstance(func, ast.Attribute) and func.attr == "bilinear")

    def of_self(node):
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    def visit(path, node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and is_bilinear(child)
                    and where != "Dga.mul"
                    and any(of_self(a) for a in child.args
                            + [k.value for k in child.keywords])):
                found.append(f"{path.name}:{child.lineno}:{where}")
            if isinstance(child, ast.ClassDef):
                visit(path, child, child.name)
            elif isinstance(child, ast.FunctionDef):
                visit(path, child, f"{where}.{child.name}" if where
                      else child.name)
            else:
                visit(path, child, where)

    for path, tree in _trees("src/torbar"):
        visit(path, tree, None)
    assert not found, found


def test_tracer_modules_are_the_package_modules():
    """`bench/tracing.py` imports every module in its `MODULES` list for a
    traced run, so the list must name exactly the package's modules: a
    module deleted without its name (or added without one) fails here by
    name, not in the traced benchmark runs.  The list is read with `ast`,
    so the tracer is not imported."""
    path = SRC.parent.parent / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "MODULES"
                       for t in node.targets)]
    assert len(modules) == 1, modules
    assert set(modules[0]) == {p.stem for p in SRC.glob("*.py")} \
        - {"__init__"}


def test_keys_built_only_by_their_owners_tables():
    """Only `FreeGcDga._intern`, the compute of an algebra's monomial
    table, constructs a `Monomial`, and no function calls `BarWord`, the
    compute of a bar's word table, so every monomial and word of the
    package comes from its owner's table and equal keys are one object; a
    key built anywhere else would be an equal copy that dict lookups
    compare by value."""
    owners = {"Monomial": ("FreeGcDga", "_intern"), "BarWord": None}
    found = []

    def visit(path, node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name in owners and owners[name] != (cls, function):
                    found.append(f"{path.name}:{child.lineno}:{name}")
            visit(path, child,
                  child.name if isinstance(child, ast.ClassDef) else cls,
                  child.name if isinstance(child, ast.FunctionDef)
                  else function)

    for path, tree in _trees("src/torbar"):
        visit(path, tree, None, None)
    assert not found, found


def test_tensor_constructions_take_keys_from_their_tables():
    """`dg.tensor_basis`, `dg.tensor_diff_key` and the methods of every
    tensor construction (`TensorDga`, `TensorDgc`, `TwistedTensor` and
    their subclasses) call no `Tensor(...)`: each takes its keys from its
    `Tensor` table, whose compute is `Tensor` itself, so the keys of a
    basis and the targets of its differential are one object."""
    trees = list(_trees("src/torbar"))
    owners = {"TensorDga", "TensorDgc", "TwistedTensor"}
    classes = [(path, node) for path, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    grown = True
    while grown:
        grown = False
        for _, cls in classes:
            if cls.name not in owners and any(
                    isinstance(b, ast.Name) and b.id in owners
                    for b in cls.bases):
                owners.add(cls.name)
                grown = True
    scopes = [(path, f"{cls.name}.{fn.name}", fn) for path, cls in classes
              if cls.name in owners for fn in cls.body
              if isinstance(fn, ast.FunctionDef)]
    scopes += [(path, fn.name, fn) for path, tree in trees
               if path.name == "dg.py" for fn in tree.body
               if isinstance(fn, ast.FunctionDef)
               and fn.name in ("tensor_basis", "tensor_diff_key")]
    assert len(scopes) > 12, scopes
    found = [f"{path.name}:{node.lineno}:{where}"
             for path, where, fn in scopes for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "Tensor"]
    assert not found, found


def test_one_memo_type():
    """Every per-object memo of the package is a `graded.Table`, bounded
    by the one `graded.CAP`: no module but `graded` defines a module-level
    name ending in `CAP`, no underscored attribute is assigned `{}` or
    `dict()` (an unbounded memo, or one with its own get-or-store block),
    and nothing is a `cached_property`."""
    found = []
    for path, tree in _trees("src/torbar"):
        if path.name != "graded.py":
            found += [f"{path.name}:{node.lineno}:{t.id}" for node in tree.body
                      if isinstance(node, ast.Assign) for t in node.targets
                      if isinstance(t, ast.Name) and t.id.endswith("CAP")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and (
                    isinstance(node.value, ast.Dict) and not node.value.keys
                    or isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "dict"
                    and not node.value.args and not node.value.keywords):
                found += [f"{path.name}:{node.lineno}:{t.attr}"
                          for t in node.targets
                          if isinstance(t, ast.Attribute)
                          and t.attr.startswith("_")]
            if (isinstance(node, ast.Name) and node.id == "cached_property"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "cached_property"):
                found.append(f"{path.name}:{node.lineno}:cached_property")
    assert not found, found


def test_import_loads_only_what_it_computes_with():
    """Importing every module of the package loads none of the heavy
    stdlib modules that no computation needs (`dataclasses` would bring
    `inspect`, `ast`, `dis` and `tokenize` along), so a cold start pays
    only for what it computes with.  The import runs in a fresh
    interpreter started with -S, so no site-packages `.pth` file preloads
    any of them."""
    heavy = ["dataclasses", "inspect", "json", "ast", "dis", "tokenize"]
    modules = ["torbar"] + sorted(f"torbar.{p.stem}" for p in SRC.glob("*.py")
                                  if p.stem != "__init__")
    code = (f"import sys, {', '.join(modules)}\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


# What no benchmark workload runs, by qualified name (`module:Class.method`),
# in four kinds.  (a) Checks of a paper statement, with the helpers and
# operations only they read: the hga defects and axiom checks, the axioms
# of dgas, dgcs, simplicial sets and groups, the dense-rank and simplicial
# homology oracles, and the three vanishing suites of torus formality.  The
# suites stay test-only: running them in `formality_report` would add work
# to the formality workload.
UNREACHED_CHECKS = {
    "bar:check_dgc_map",
    "dg:Dga.check_axioms", "dg:Dgc.check_axioms", "dg:Dgc.nilpotence_degree",
    "formality:TorusFormality.cocycle_samples",
    "formality:TorusFormality.cup2_vanishing",
    "formality:TorusFormality.kernel_ideal_suite",
    "formality:TorusFormality.sq0_witness",
    "hga:VectorHga.F", "hga:_compositions_nonneg",
    "hga:bracket_vanishing_witness", "hga:check_cup_identities",
    "hga:check_extended", "hga:check_hga", "hga:cup2",
    "hga:gerstenhaber_bracket", "hga:gm_repeated_cup1",
    "hga:hom_defect_composition", "hga:hom_defect_dF",
    "hga:hom_defect_product_rule",
    "linalg:rank_dense_oracle",
    "simplicial:SimplicialGroup.check_group",
    "simplicial:SimplicialSet.check_simplicial_identities",
    "simplicial:chain_complex_homology",
    "simplicial:cochain_complex_homology",
}
# (b) Fixtures that a check needs: the free dga test bed, tensor dgas, the
# bar shuffle map, finite simplicial sets, products, subgroups and coset
# spaces, and the structure maps that only the axiom checks call.
UNREACHED_FIXTURES = {
    "bar:bar_shuffle", "bar:universal_cochain",
    "classifying:CosetSpace.__init__", "classifying:CosetSpace.basepoint",
    "classifying:CosetSpace.canonical", "classifying:CosetSpace.degeneracy",
    "classifying:CosetSpace.face", "classifying:CosetSpace.simplices",
    "classifying:SubgroupInclusion.__init__",
    "classifying:SubgroupInclusion.contains",
    "classifying:SubgroupInclusion.degeneracy",
    "classifying:SubgroupInclusion.degenerate_at",
    "classifying:SubgroupInclusion.face", "classifying:SubgroupInclusion.inv",
    "classifying:SubgroupInclusion.last_face_fibre",
    "classifying:SubgroupInclusion.mul", "classifying:SubgroupInclusion.one",
    "classifying:SubgroupInclusion.simplices",
    "classifying:WBarGroup.inv", "classifying:WTotal.simplices",
    "classifying:quotient", "classifying:reduced_subgroup",
    "classifying:wbar_group",
    "dg:Dga.random_element", "dg:FreeDga.__init__", "dg:FreeDga.basis",
    "dg:FreeDga.diff_key", "dg:FreeDga.generator", "dg:FreeDga.mul_keys",
    "dg:FreeDga.word", "dg:HomAlgebra.unit",
    "dg:TensorDga.__init__", "dg:TensorDga.basis",
    "dg:TensorDga.diff_key", "dg:TensorDga.mul_keys", "dg:Word.__eq__",
    "dg:Word.__hash__", "dg:Word.__init__", "dg:free_dga_endo",
    "formality:TorusFormality.f", "hga:bar_product",
    "simplicial:ConstantFreeAbelian.inv", "simplicial:ConstantGroup.inv",
    "simplicial:ProductGroup.inv", "simplicial:ProductGroup.last_face_fibre",
    "simplicial:ProductGroup.mul", "simplicial:ProductGroup.one",
    "simplicial:ProductSpace.basepoint", "simplicial:ProductSpace.degeneracy",
    "simplicial:ProductSpace.face", "simplicial:ProductSpace.simplices",
    "simplicial:SimplexComplex.__init__",
    "simplicial:SimplexComplex.basepoint",
    "simplicial:SimplexComplex.degeneracy",
    "simplicial:SimplexComplex.degenerate_at",
    "simplicial:SimplexComplex.face", "simplicial:SimplexComplex.simplices",
    "simplicial:loop_action_summand", "simplicial:loop_shuffle_action",
    "simplicial:simplex_boundary", "simplicial:standard_simplex",
}
# (c) Kept for the first caller that an open ROADMAP item names:
# `shm.gamma`, the coefficient side of naturality in the pair (item 3).
UNREACHED_FOR_OPEN_ITEMS = {"shm:gamma"}
# (d) Interface that tests and callers use and no workload does: the
# methods that subclasses override, reprs, hashes and equality, element
# constructors, and the parsing and printing of fields and tables.
UNREACHED_INTERFACE = {
    "bar:TorTable.__repr__", "bar:TorTable.poincare", "bar:TorTable.to_json",
    "dg:CheckReport.__repr__", "dg:Dga.aug", "dg:Dga.basis",
    "dg:Dga.diff_key", "dg:Dga.mul_keys", "dg:Dgc.basis", "dg:Dgc.cop_key",
    "dg:Dgc.diff_key", "dg:FreeGcCoalgebra.diff_key", "dg:TwistedTensor.d",
    "dg:Word.__repr__",
    "fields:PrimeField.__hash__", "fields:PrimeField.elements",
    "fields:PrimeField.fmt", "fields:PrimeField.parse",
    "fields:Rationals.__hash__", "fields:Rationals.elements",
    "fields:Rationals.fmt", "fields:Rationals.parse", "fields:field_by_name",
    "formality:KoszulComplex.key",
    "graded:GradedElement.__hash__", "graded:GradedElement.__repr__",
    "hga:KSAlgebra.diff_key",
    "linalg:HomologyResult.__repr__",
    "simplicial:ChainsDgc.basis", "simplicial:ChainsDgc.coaug_key",
    "simplicial:ChainsDgc.counit_key", "simplicial:Cochain.add",
    "simplicial:ConstantFreeAbelian.simplices",
    "simplicial:DualCochainDga.one", "simplicial:SimplexKey.__eq__",
    "simplicial:SimplicialGroup.basepoint", "simplicial:SimplicialGroup.inv",
    "simplicial:SimplicialGroup.last_face_fibre",
    "simplicial:SimplicialGroup.loops", "simplicial:SimplicialGroup.mul",
    "simplicial:SimplicialGroup.one", "simplicial:SimplicialSet.basepoint",
    "simplicial:SimplicialSet.degeneracy",
    "simplicial:SimplicialSet.degenerate_at",
    "simplicial:SimplicialSet.face", "simplicial:SimplicialSet.simplices",
    "simplicial:Surjection.__eq__", "simplicial:Surjection.__hash__",
    "simplicial:Surjection.__repr__", "simplicial:coboundary",
    "simplicial:unit_cochain", "simplicial:zero_cochain",
}

# Runs the four benchmark workloads at smoke size, the imports included,
# and prints the qualified names of the package functions that ran.
_CENSUS = """
import pathlib, sys
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(PKG):
        reached.add(pathlib.Path(code.co_filename).stem + ":"
                    + code.co_qualname)

sys.setprofile(profile)
import workloads
for setup, run in workloads.WORKLOADS.values():
    run(setup(0, "smoke"))
sys.setprofile(None)
print(sorted(reached))
"""


def _definitions():
    """The qualified names of the package's functions and methods; a
    function defined inside another (a closure) is left out."""
    found = set()

    def visit(stem, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(stem, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                found.add(f"{stem}:{prefix}{child.name}")
            else:
                visit(stem, child, prefix)

    for path, tree in _trees("src/torbar"):
        visit(path.stem, tree, "")
    return found


def test_every_definition_is_reached_or_listed():
    """Each function and method of the package runs in a benchmark
    workload or is listed above by kind, so code that neither the pipeline
    nor a check reaches is deleted, not kept.  A listed name that now runs
    or no longer exists fails too, so the lists stay exact.  The census
    runs in a fresh interpreter, where no cache that an earlier test warmed
    can hide a definition."""
    code = _CENSUS.replace("PKG", repr(str(SRC)))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(SRC.parent.parent / "bench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reached = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    defined = _definitions()
    listed = (UNREACHED_CHECKS | UNREACHED_FIXTURES
              | UNREACHED_FOR_OPEN_ITEMS | UNREACHED_INTERFACE)
    assert sorted(defined - reached - listed) == [], "unreached, unlisted"
    assert sorted(listed & reached) == [], "listed, but reached"
    assert sorted(listed - defined) == [], "listed, but not defined"
