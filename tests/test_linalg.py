import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from torbar import linalg
from torbar.fields import QQ, F5, F2
from torbar.linalg import (rank_dense_oracle, ReducedSpace,
                           kernel_basis, express_class, homology,
                           StructuralError)


@dataclass(frozen=True)
class K:
    name: str
    degree: int

    def __repr__(self):
        return f"{self.name}:{self.degree}"


def test_rank_against_dense_oracle():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(25):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            cols = [f"c{i}" for i in range(m)]
            rows = []
            for _ in range(n):
                rows.append({c: field.of(rng.randint(-2, 2)) for c in cols
                             if rng.random() < 0.6 and field.of(rng.randint(-2, 2)) != field.zero})
            rows = [{k: v for k, v in r.items() if v != field.zero} for r in rows]
            assert _tagged_space(field, rows, []).dim == \
                rank_dense_oracle(rows, field, cols)


def test_reduced_space_membership():
    sp = ReducedSpace(QQ)
    assert sp.add({"x": QQ.of(1), "y": QQ.of(2)})
    assert sp.add({"y": QQ.of(1)})
    assert not sp.add({"x": QQ.of(2), "y": QQ.of(-3)})  # dependent
    assert sp.reduce({"x": QQ.of(1)}) == {}
    assert sp.dim == 2


def test_kernel_basis():
    # d(a) = x, d(b) = x  -> kernel spanned by a - b
    cols = {"a": {"x": QQ.of(1)}, "b": {"x": QQ.of(1)}}
    kern, image = kernel_basis(cols, QQ, ["a", "b"])
    assert len(kern) == 1
    assert image.dim == 1 and image.reduce({"x": QQ.of(3)}) == {}
    v = kern[0]
    assert v.get("a", 0) == -v.get("b", 0) != 0


def test_express_class_reduces_reps_against_each_other():
    # the second rep reduces against the first; z is the second rep
    x, y = QQ.of(1), QQ.of(1)
    space = ReducedSpace(QQ)
    for i, r in enumerate([{"x": x}, {"x": x, "y": y}]):
        assert space.add(r, {i: QQ.one})
    assert express_class({"x": x, "y": y}, space, 2, QQ) == \
        [QQ.zero, QQ.one]
    assert express_class({"z": x}, space, 2, QQ) is None


def simplex_boundary_complex(field):
    """Chain complex of the boundary of the 3-simplex over `field`."""
    import itertools
    verts = range(4)
    basis = {}
    for d in range(0, 3):
        basis[d] = [K("".join(map(str, s)), d)
                    for s in itertools.combinations(verts, d + 1)]

    def diff(key):
        s = tuple(int(ch) for ch in key.name)
        out = {}
        if len(s) == 1:
            return out
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            k = K("".join(map(str, face)), key.degree - 1)
            c = field.of((-1) ** i)
            out[k] = field.add(out.get(k, field.zero), c)
        return {k: v for k, v in out.items() if v != field.zero}

    return basis, diff


def test_homology_sphere():
    for field in (QQ, F5):
        basis, diff = simplex_boundary_complex(field)
        res = homology(basis, diff, field, ddeg=-1)
        assert res.dims == {0: 1, 1: 0, 2: 1}
        assert len(res.representatives[2]) == 1


def test_homology_zero_differential():
    basis = {0: [K("a", 0)], 1: [K("b", 1)], 2: [K("c", 2)]}
    res = homology(basis, lambda k: {}, QQ, ddeg=1)
    assert res.dims == {0: 1, 1: 1, 2: 1}
    assert repr(res) == "HomologyResult({0: 1, 1: 1, 2: 1})"


def test_homology_detects_bad_complex():
    basis = {0: [K("a", 0)], 1: [K("b", 1)]}

    def diff(key):
        if key.name == "a":
            return {K("b", 1): QQ.one}
        return {K("c", 2): QQ.one}

    basis[2] = [K("c", 2)]
    with pytest.raises(StructuralError):
        homology(basis, diff, QQ, ddeg=1)
    # unchecked, the count of classes in degree 1 comes out negative
    with pytest.raises(StructuralError, match="degree 1"):
        homology(basis, diff, QQ, ddeg=1, check_d2=False)


def test_koszul_rank1_acyclic():
    # Lambda(x) (x) k[y], dx = y, truncated: homology k in degree 0
    basis = {}
    N = 8
    for d in range(0, N + 1):
        keys = []
        if d % 2 == 0:
            keys.append(K(f"y{d//2}", d))
        if d % 2 == 1:
            keys.append(K(f"xy{(d-1)//2}", d))
        basis[d] = keys

    def diff(key):
        # homological convention: d(x y^j) = y^{j+1}? use cohomological d+1
        if key.name.startswith("xy"):
            j = int(key.name[2:])
            return {K(f"y{j+1}", key.degree + 1): QQ.one}
        return {}

    res = homology({d: basis[d] for d in range(0, N)}, diff, QQ, ddeg=1)
    for d in range(0, N - 1):
        assert res.dims[d] == (1 if d == 0 else 0)


def random_complex(field, rng, top=3):
    """A cochain complex in degrees 0..top with d*d = 0: a sum of one-term
    pieces k and two-term pieces k -> k, in a random basis.

    Returns (basis, diff, free) where free[d] is the number of one-term
    pieces in degree d, which is the dimension of H^d."""
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    pairs = [rng.randint(0, 2) for _ in range(top)] + [0]
    sizes = [free[d] + pairs[d] + (pairs[d - 1] if d else 0)
             for d in range(top + 1)]
    # dense[d][t][s]: coefficient of target t (degree d+1) in d(source s);
    # in degree d the sources of the pieces follow the free keys, and the
    # targets of the pieces from degree d-1 come last
    dense = [[[field.zero] * sizes[d] for _ in range(sizes[d + 1])]
             for d in range(top)]
    for d in range(top):
        for p in range(pairs[d]):
            dense[d][free[d + 1] + pairs[d + 1] + p][free[d] + p] = field.one
    # change of basis g = 1 + c E_ij in degree d: rows into d by g, columns
    # out of d by g^-1
    for d in range(top + 1):
        for _ in range(3 * sizes[d]):
            if sizes[d] < 2:
                break
            i, j = rng.sample(range(sizes[d]), 2)
            c = field.of(rng.randint(1, 4))
            if d:
                m = dense[d - 1]
                m[i] = [field.add(a, field.mul(c, b))
                        for a, b in zip(m[i], m[j])]
            if d < top:
                for row in dense[d]:
                    row[j] = field.sub(row[j], field.mul(c, row[i]))
    basis = {d: [K(f"e{i}", d) for i in range(sizes[d])]
             for d in range(top + 1)}

    def diff(key):
        d = key.degree
        if d == top:
            return {}
        i = int(key.name[1:])
        return {basis[d + 1][t]: row[i] for t, row in enumerate(dense[d])
                if row[i] != field.zero}

    return basis, diff, free


def combine(field, terms):
    """The sum of c * v over (c, v) in terms, as a sparse dict."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = field.add(out.get(k, field.zero), field.mul(c, x))
    return {k: x for k, x in out.items() if x != field.zero}


def test_random_complexes_against_dense_oracle():
    rng = random.Random(11)
    for field in (QQ, F5, F2):
        for _ in range(20):
            basis, diff, free = random_complex(field, rng)
            res = homology(basis, diff, field, ddeg=1)
            for d, keys in basis.items():
                out_rows = [diff(k) for k in keys]
                in_rows = [diff(k) for k in basis.get(d - 1, [])]
                rank_out = rank_dense_oracle(out_rows, field,
                                             basis.get(d + 1, []))
                rank_in = rank_dense_oracle(in_rows, field, keys)
                assert res.dims[d] == len(keys) - rank_out - rank_in \
                    == free[d]
                assert _tagged_space(field, out_rows, []).dim == rank_out

                kern, image = kernel_basis({k: diff(k) for k in keys}, field,
                                           keys)
                assert image.dim == rank_out
                assert len(kern) == len(keys) - rank_out
                for v in kern:
                    assert not combine(field, [(c, diff(k))
                                               for k, c in v.items()])

                reps = res.representatives[d]
                for r in reps:
                    assert not combine(field, [(c, diff(k))
                                               for k, c in r.items()])
                assert rank_dense_oracle(in_rows + reps, field, keys) == \
                    rank_in + len(reps)

                assert res.spaces[d].dim == rank_in + len(reps)
                coeffs = [field.of(rng.randint(-3, 3)) for _ in reps]
                z = combine(field, list(zip(coeffs, reps)) + [
                    (field.of(rng.randint(-3, 3)), v) for v in in_rows])
                assert express_class(z, res.spaces[d], len(reps), field) \
                    == coeffs


# -- property tests of the kernel --------------------------------------------

FIELDS = st.sampled_from([QQ, F5, F2])


def _vectors(field, keys):
    """Sparse vectors on `keys` with nonzero coefficients."""
    return st.dictionaries(st.sampled_from(keys),
                           st.integers(-3, 3).map(field.of),
                           max_size=len(keys)).map(
        lambda v: {k: c for k, c in v.items() if c != field.zero})


@given(st.data())
def test_reduced_space_against_dense_oracle(data):
    field = data.draw(FIELDS)
    keys = [f"c{i}" for i in range(data.draw(st.integers(1, 7)))]
    rows = data.draw(st.lists(_vectors(field, keys), max_size=7))
    space = ReducedSpace(field)
    for r in rows:
        space.add(r)
    rk = rank_dense_oracle(rows, field, keys)
    assert space.dim == rk
    vec = data.draw(_vectors(field, keys))
    assert (space.reduce(vec) == {}) == \
        (rank_dense_oracle(rows + [vec], field, keys) == rk)
    coeffs = data.draw(st.lists(st.integers(-3, 3).map(field.of),
                                min_size=len(rows), max_size=len(rows)))
    assert space.reduce(combine(field, list(zip(coeffs, rows)))) == {}


def _tagged_space(field, untagged, tagged):
    """A class space: the untagged rows, then row j of `tagged` tagged
    {j: 1}."""
    space = ReducedSpace(field)
    for r in untagged:
        space.add(r)
    for j, r in enumerate(tagged):
        space.add(r, {j: field.one})
    return space


@given(st.data())
def test_extend_matches_one_space_built_in_order(data):
    field = data.draw(FIELDS)
    parts = []
    for name in "ab":
        keys = [f"{name}{i}" for i in range(data.draw(st.integers(1, 5)))]
        rows = st.lists(_vectors(field, keys), max_size=4)
        parts.append((data.draw(rows), data.draw(rows)))
    (ua, ta), (ub, tb) = parts
    joined = ReducedSpace(field)
    joined.extend(_tagged_space(field, ua, ta), 0)
    joined.extend(_tagged_space(field, ub, tb), len(ta))
    whole = _tagged_space(field, ua, ta)
    for r in ub:
        whole.add(r)
    for j, r in enumerate(tb):
        whole.add(r, {len(ta) + j: field.one})
    assert joined.dim == whole.dim
    rows = ua + ta + ub + tb
    coeffs = data.draw(st.lists(st.integers(-3, 3).map(field.of),
                                min_size=len(rows), max_size=len(rows)))
    z = combine(field, list(zip(coeffs, rows)))
    count = len(ta) + len(tb)
    assert express_class(z, joined, count, field) == \
        express_class(z, whole, count, field) is not None


def test_extend_rejects_a_shared_key():
    space = _tagged_space(QQ, [{"x": QQ.one}], [])
    with pytest.raises(StructuralError, match="'x' lies in both spaces"):
        space.extend(_tagged_space(QQ, [], [{"x": QQ.one, "y": QQ.one}]), 0)


def _first_seen(columns):
    return list(dict.fromkeys(k for col in columns for k in col))


NUMBERINGS = [_first_seen, lambda columns: _first_seen(columns)[::-1],
              linalg.rarest_first]


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.integers(0, 10 ** 6))
def test_homology_does_not_depend_on_the_key_numbering(field, seed):
    """Numbering each degree's target keys in order of first sight, in the
    reverse order or rarest first moves the pivots; kernel vectors, dims,
    representatives and coordinates stay."""
    rng = random.Random(seed)
    basis, diff, _ = random_complex(field, rng)
    runs = []
    for numbering in NUMBERINGS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "rarest_first", numbering)
            kernels = {d: kernel_basis({k: diff(k) for k in keys}, field,
                                       sorted(keys, key=repr))[0]
                       for d, keys in basis.items()}
            runs.append((kernels, homology(basis, diff, field, ddeg=1)))
    kernels, res = runs[0]
    for d, reps in res.representatives.items():
        boundaries = [diff(k) for k in basis.get(d - 1, [])]
        coeffs = [field.of(rng.randint(-3, 3)) for _ in reps]
        z = combine(field, list(zip(coeffs, reps)) + [
            (field.of(rng.randint(-3, 3)), v) for v in boundaries])
        for other_kernels, other in runs:
            assert other_kernels[d] == kernels[d]
            assert other.dims[d] == res.dims[d]
            assert other.representatives[d] == reps
            assert express_class(z, other.spaces[d], len(reps), field) == \
                coeffs


@given(st.data())
def test_queries_do_not_number_unseen_keys(data):
    field = data.draw(FIELDS)
    keys = ["x", "y", "z"]
    space = _tagged_space(field, [], data.draw(
        st.lists(_vectors(field, keys), max_size=3)))
    size = len(space.index)
    vec = dict(data.draw(_vectors(field, keys)), w=field.one)
    assert express_class(vec, space, space.dim, field) is None
    assert space.reduce(vec) is None
    assert len(space.index) == size
