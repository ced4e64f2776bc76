"""Exact Gaussian elimination over a field and homology of bounded complexes.

Vectors are sparse dicts key -> coeff.  Everything is exact; there are no
tolerances anywhere.

`ReducedSpace` is the one elimination kernel.  Its `echelon` is a list of
`(pivot, row)` pairs: each row is scaled to 1 at its pivot and is zero at
the pivots of the rows before it.  Insertion order is reduction order;
rows are never reordered, rescaled or mutated once appended, and the
echelons of spaces that share no keys concatenate into an echelon.  `reduce` is the only loop that subtracts
echelon rows and `add` the only place that chooses a pivot (the least key
by `repr`, for determinism).  A row may carry the combination of tagged
input vectors it was built from; rank, kernels, homology and coordinates
of classes are all read off that bookkeeping.

`homology` keeps, per degree, a *class space*: the boundaries, untagged,
followed by the representatives, representative i tagged {i: 1}.  A cycle
reduces to zero against it, and the tags it picks up on the way are minus
its coordinates in the representatives (`express_class`), so one space
per degree serves every query without a copy.
"""


class StructuralError(Exception):
    """Raised when a structure fails an invariant such as d*d = 0, naming
    the offending key or degree."""


def _subtract(vec, c, row, field):
    """vec -= c * row in place, dropping the entries that become zero."""
    for k, v in row.items():
        nv = field.sub(vec.get(k, field.zero), field.mul(c, v))
        if nv == field.zero:
            vec.pop(k, None)
        else:
            vec[k] = nv


def rank(rows, field):
    space = ReducedSpace(field)
    for row in rows:
        space.add(row)
    return space.dim


def rank_dense_oracle(rows, field, ncols_keys):
    """Naive dense rank over the same field, for cross-checking."""
    cols = list(ncols_keys)
    idx = {c: i for i, c in enumerate(cols)}
    dense = [[field.zero] * len(cols) for _ in rows]
    for i, r in enumerate(rows):
        for k, v in r.items():
            dense[i][idx[k]] = v
    r = 0
    m = len(dense)
    for c in range(len(cols)):
        piv = None
        for i in range(r, m):
            if dense[i][c] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = field.inv(dense[r][c])
        dense[r] = [field.mul(inv, x) for x in dense[r]]
        for i in range(m):
            if i != r and dense[i][c] != field.zero:
                f = dense[i][c]
                dense[i] = [field.sub(x, field.mul(f, y))
                            for x, y in zip(dense[i], dense[r])]
        r += 1
    return r


class ReducedSpace:
    """Echelonized span of sparse vectors; supports membership and reduction.

    `combos` runs parallel to `echelon`: the combination of tags (dict
    tag -> coeff) that each row equals, or None for a row added without
    one.  Combinations are kept modulo the untagged rows."""

    def __init__(self, field):
        self.field = field
        self.echelon = []  # (pivot_col, row_dict)
        self.combos = []   # tag combination of each row, or None

    def reduce(self, vec, combo=None):
        """The remainder of vec modulo the span (a new dict).

        If `combo` (the tag combination that vec equals) is given, it is
        reduced in place alongside, so that the remainder equals it modulo
        the untagged rows."""
        field = self.field
        vec = dict(vec)
        for (pc, row), row_combo in zip(self.echelon, self.combos):
            c = vec.get(pc)
            if c is not None:
                _subtract(vec, c, row, field)
                if combo is not None and row_combo:
                    _subtract(combo, c, row_combo, field)
        return vec

    def add(self, vec, combo=None):
        """Reduce and insert; returns True if the vector was new.

        `combo` is reduced in place as in `reduce`; a new row keeps its
        scaled copy."""
        vec = self.reduce(vec, combo)
        if not vec:
            return False
        pc = min(vec, key=repr)
        inv = self.field.inv(vec[pc])
        self.echelon.append((pc, {k: self.field.mul(inv, v)
                                  for k, v in vec.items()}))
        self.combos.append(None if combo is None else
                           {k: self.field.mul(inv, v)
                            for k, v in combo.items()})
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def dim(self):
        return len(self.echelon)


def kernel_basis(rows_by_colkey, field, col_keys):
    """Kernel and image of the matrix whose column at key k is
    rows_by_colkey[k] (a dict rowkey -> coeff).

    Columns are added in the order of `col_keys`, column k tagged {k: 1}.
    Returns (kernel, image): the combinations of the columns that reduce
    to zero, as dicts col_key -> coeff, and the ReducedSpace of the other
    columns, which spans the image."""
    image = ReducedSpace(field)
    kernel = []
    for ck in col_keys:
        combo = {ck: field.one}
        if not image.add(rows_by_colkey[ck], combo):
            kernel.append(combo)
    return kernel, image


def express_class(z, space, count, field):
    """Coordinates of the cycle z in the `count` representatives of the
    class space `space` (see the module docstring).

    Returns a list of coefficients, or None if z is not in the span (z is
    not a cycle of that degree)."""
    # z - (reps combination) reduces to zero: the combination is -combo
    combo = {}
    if space.reduce(z, combo):
        return None
    return [field.neg(combo.get(i, field.zero)) for i in range(count)]


class HomologyResult:
    def __init__(self, dims, representatives, spaces):
        self.dims = dims                      # degree -> dimension
        self.representatives = representatives  # degree -> list of vectors
        self.spaces = spaces                  # degree -> class space

    def __repr__(self):
        return f"HomologyResult({self.dims})"


def homology(basis_by_degree, diff, field, check_d2=True, ddeg=None):
    """Homology of a complex given by per-degree bases and a differential.

    `basis_by_degree`: dict degree -> list of keys.
    `diff(key)`: GradedElement-like dict of the differential of a basis key
      (plain dict key -> coeff).
    `ddeg` is the differential's shift in the *grading of the dict*; when
    omitted it is inferred from key degrees (valid only when the dict is
    graded by key degree).  Returns dims, representative cycles and the
    class space of each degree.

    Each degree's columns are eliminated once, by `kernel_basis`; its
    image echelon, stripped of the column tags, is the boundary space of
    the target degree and the start of that degree's class space.
    """
    degrees = sorted(basis_by_degree)
    columns = {d: {k: diff(k) for k in basis_by_degree[d]} for d in degrees}
    if ddeg is None:
        # a zero differential leaves the direction irrelevant
        ddeg = next((next(iter(col)).degree - d for d in degrees
                     for col in columns[d].values() if col), 1)
    if check_d2:
        for d in degrees:
            if d + ddeg not in basis_by_degree:
                continue
            for k in basis_by_degree[d]:
                acc = {}
                for k2, c in columns[d][k].items():
                    for k3, c2 in columns[d + ddeg].get(k2, {}).items():
                        nv = field.add(acc.get(k3, field.zero), field.mul(c, c2))
                        if nv == field.zero:
                            acc.pop(k3, None)
                        else:
                            acc[k3] = nv
                if acc:
                    raise StructuralError(f"d*d != 0 on basis key {k!r}")
    dims = {}
    reps = {}
    spaces = {}
    images = {}  # degree -> ReducedSpace of the boundaries landing there
    # walk along the differential, so the boundaries into d are known at d
    for d in sorted(degrees, key=lambda d: d * ddeg):
        kern, images[d + ddeg] = kernel_basis(
            columns[d], field, sorted(basis_by_degree[d], key=repr))
        space = images.pop(d) if d in images else ReducedSpace(field)
        nb = space.dim
        space.combos = [None] * nb
        reps[d] = []
        for v in kern:
            if space.add(v, {len(reps[d]): field.one}):
                reps[d].append(v)
        spaces[d] = space
        dims[d] = len(kern) - nb
        if dims[d] != len(reps[d]):
            raise StructuralError(
                f"degree {d}: {len(kern)} cycles modulo {nb} boundaries "
                f"leave {dims[d]} classes, but {len(reps[d])} "
                f"representatives are independent")
    return HomologyResult({d: dims[d] for d in degrees},
                          {d: reps[d] for d in degrees}, spaces)
