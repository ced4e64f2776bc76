"""Exact Gaussian elimination over a field and homology of bounded complexes.

Vectors are sparse dicts key -> coeff.  Everything is exact; there are no
tolerances anywhere.

`ReducedSpace` is the one elimination kernel, a column reduction with a
pivot lookup (Chen-Kerber 2011; Bauer, Ripser, 2021).

- *Numbers.*  A space's rows are dicts on key numbers, so elimination
  hashes small ints, not nested keys.  `kernel_basis` numbers a degree's
  target keys rarest first before it adds any column: in increasing order
  of the number of the degree's columns that contain them, ties in order
  of first sight (`rarest_first`).  Rare keys then take the pivots, and a
  pivot row with few entries causes little fill-in.  `add` numbers any
  key still without a number in the order it first sees it.  Queries
  (`reduce`, `express_class`) number nothing: a key without a number is
  in no row, nothing can cancel it, and the vector is outside the span.
- *Pivots.*  `add` is the only place that chooses a pivot: the least
  number of the reduced vector.  Each row is scaled to 1 there and lives
  on numbers at or above it.  `echelon` lists the rows as (pivot, row) in
  insertion order; rows are never reordered, rescaled or mutated once
  appended.  `pivots` maps each pivot to its row.
- *Reduction.*  `reduce` is the only loop that subtracts rows.  It pops
  the vector's pivot numbers from a heap in increasing order and
  subtracts the row found by lookup; that row only adds entries above the
  popped number, so each number is settled once and a vector touches only
  the rows it meets, never the whole echelon.  Spaces that share no keys
  join with `extend`.

A row may carry the combination of tagged input vectors it was built
from; rank, kernels, homology and coordinates of classes are all read off
that bookkeeping, and none of them depends on the pivot rule (or so on the
numbering).  A kernel vector of `kernel_basis` is the one relation between
its column and the earlier independent columns, which are independent
whatever the pivots; a representative is a kernel vector independent of
the boundaries and the earlier representatives; and the coordinates of a
class are unique.  Only the shape of the rows (their fill-in) depends on
the pivots.

`homology` keeps, per degree, a *class space*: the boundaries, untagged,
followed by the representatives, representative i tagged {i: 1}.  A cycle
reduces to zero against it, and the tags it picks up on the way are minus
its coordinates in the representatives (`express_class`), so one space
per degree serves every query without a copy.
"""
from heapq import heapify, heappop, heappush


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
    """Echelonized span of sparse vectors: a vector lies in it when
    `reduce` leaves the empty dict.

    `combos` runs parallel to `echelon`: the combination of tags (dict
    tag -> coeff) that each row equals, or None for a row added without
    one.  Combinations are kept modulo the untagged rows."""

    def __init__(self, field):
        self.field = field
        self.index = {}    # key -> number
        self.pivots = {}   # pivot number -> position in echelon
        self.echelon = []  # (pivot number, row dict number -> coeff)
        self.combos = []   # tag combination of each row, or None

    def reduce(self, vec, combo=None):
        """The remainder of vec modulo the span, as a new dict on key
        numbers, or None if vec has a key without a number: no row can
        cancel it, so vec is outside the span.

        If `combo` (the tag combination that vec equals) is given, it is
        reduced in place alongside, so that the remainder equals it modulo
        the untagged rows."""
        field = self.field
        zero, mul, sub = field.zero, field.mul, field.sub
        index = self.index
        rem = {}
        for k, c in vec.items():
            i = index.get(k)
            if i is None:
                return None
            rem[i] = c
        pivots = self.pivots
        heap = [i for i in rem if i in pivots]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = rem.get(p)
            if c is None:
                continue  # cancelled since it was pushed
            r = pivots[p]
            # row p is 1 at p and lives on numbers above p
            for k, v in self.echelon[r][1].items():
                old = rem.get(k)
                if old is None:
                    rem[k] = sub(zero, mul(c, v))
                    if k in pivots:
                        heappush(heap, k)
                else:
                    nv = sub(old, mul(c, v))
                    if nv == zero:
                        del rem[k]
                    else:
                        rem[k] = nv
            row_combo = self.combos[r]
            if combo is not None and row_combo:
                _subtract(combo, c, row_combo, field)
        return rem

    def number(self, keys):
        """Give each of `keys` without a number the next one, in order."""
        index = self.index
        for k in keys:
            if k not in index:
                index[k] = len(index)

    def add(self, vec, combo=None):
        """Number vec's new keys, reduce and insert; returns True if the
        vector was new.

        `combo` is reduced in place as in `reduce`; a new row keeps its
        scaled copy."""
        self.number(vec)
        rem = self.reduce(vec, combo)
        if not rem:
            return False
        field = self.field
        pc = min(rem)
        inv = field.inv(rem[pc])
        self.pivots[pc] = len(self.echelon)
        self.echelon.append((pc, rem if inv == field.one else
                             {k: field.mul(inv, v) for k, v in rem.items()}))
        self.combos.append(None if combo is None else
                           {k: field.mul(inv, v) for k, v in combo.items()})
        return True

    def extend(self, other, tag_offset):
        """Append the rows of `other`, a space that shares no key with this
        one, its integer tags shifted by `tag_offset`.

        Other's numbers move past this space's, in the same order, so
        each row keeps its least number as pivot."""
        shift = len(self.index)
        for k, i in other.index.items():
            if k in self.index:
                raise StructuralError(f"key {k!r} lies in both spaces")
            self.index[k] = i + shift
        for (pc, row), combo in zip(other.echelon, other.combos):
            self.pivots[pc + shift] = len(self.echelon)
            self.echelon.append((pc + shift,
                                 {k + shift: v for k, v in row.items()}))
            self.combos.append(None if combo is None else
                               {tag_offset + i: c for i, c in combo.items()})

    @property
    def dim(self):
        return len(self.echelon)


def rarest_first(columns):
    """The keys of the dicts `columns`, in increasing order of the number
    of dicts that contain them, ties in order of first sight."""
    counts = {}
    for col in columns:
        for k in col:
            counts[k] = counts.get(k, 0) + 1
    return sorted(counts, key=counts.__getitem__)


def kernel_basis(rows_by_colkey, field, col_keys):
    """Kernel and image of the matrix whose column at key k is
    rows_by_colkey[k] (a dict rowkey -> coeff).

    The row keys are numbered rarest first, then columns are added in the
    order of `col_keys`, column k tagged {k: 1}.  Returns (kernel, image):
    the combinations of the columns that reduce to zero, as dicts
    col_key -> coeff, and the ReducedSpace of the other columns, which
    spans the image."""
    image = ReducedSpace(field)
    image.number(rarest_first(rows_by_colkey[ck] for ck in col_keys))
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
    if space.reduce(z, combo) != {}:
        return None
    return [field.neg(combo.get(i, field.zero)) for i in range(count)]


class HomologyResult:
    def __init__(self, dims, representatives, spaces):
        self.dims = dims                      # degree -> dimension
        self.representatives = representatives  # degree -> list of vectors
        self.spaces = spaces                  # degree -> class space

    def __repr__(self):
        return f"HomologyResult({self.dims})"


def homology(basis_by_degree, diff, field, ddeg, check_d2=True):
    """Homology of a complex given by per-degree bases and a differential.

    `basis_by_degree`: dict degree -> list of keys.
    `diff(key)`: GradedElement-like dict of the differential of a basis key
      (plain dict key -> coeff).
    `ddeg` is the differential's shift in the *grading of the dict*: +1
    for a cochain complex, -1 for a chain complex.  Returns dims,
    representative cycles and the class space of each degree.

    Each degree's columns are eliminated once, by `kernel_basis`; its
    image echelon, stripped of the column tags, is the boundary space of
    the target degree and the start of that degree's class space.
    """
    degrees = sorted(basis_by_degree)
    columns = {d: {k: diff(k) for k in basis_by_degree[d]} for d in degrees}
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
