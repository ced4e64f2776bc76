import pytest

from torbar.fields import QQ, F2, F5
from torbar.graded import GradedElement, LinearMap, Tensor, transpose_tensor
from torbar.dg import (Dgc, FreeDga, FreeGcDga, Monomial, TensorDga,
                       TensorDgc, TwistingCochain, polynomial_dga,
                       gc_algebra_map, check_d_squared)
from torbar.bar import (BarDgc, BarWord, universal_cochain,
                        dgc_map_from_cochain, check_dgc_map, bar_shuffle,
                        OneSidedBar, tor_additive)
from torbar.homog import catalog_entry, tor_bar_algebra
from torbar.linalg import StructuralError
from torbar import bar, dg


def test_bar_of_ground_field():
    k = polynomial_dga(QQ, [])
    bark = BarDgc(k)
    assert bark.basis(0) == [bark.coaug_key]
    for d in range(1, 5):
        assert bark.basis(d) == []


def test_bar_degree_arithmetic():
    A = polynomial_dga(QQ, [("y", 2)])
    barA = BarDgc(A)
    y = A.monomial([("y", 1)])
    w = BarWord((y, y))
    assert w.degree == 2      # bar degree 2 (2-1) * 2
    assert w.internal_degree == 4


def test_bar_dgc_axioms_and_cocompleteness():
    A = FreeDga(QQ, [("a", 2), ("b", 3)], d_gen={"b": [(1, ["a", "a"])]})
    barA = BarDgc(A)
    keys = [k for d in range(0, 10) for k in barA.basis(d)]
    barA.check_axioms(keys[:80])
    for k in keys[:40]:
        e = GradedElement.single(QQ, k)
        assert barA.d(barA.d(e)).is_zero()
    # cocompleteness: nilpotence degree is word length + 1
    w = BarWord((A.word(["a"]), A.word(["b"]), A.word(["a"])))
    assert barA.nilpotence_degree(w) == 4


def _levels_by_first_slot(C, key):
    """The reduced iterated coproducts of key built by expanding the first
    slot, each level a GradedElement over Tensor keys."""
    f = C.field
    level = [] if key == C.coaug_key else [(f.one, (key,))]
    levels = []
    while level:
        levels.append(GradedElement(f, [(Tensor(ks), c) for c, ks in level]))
        level = [(f.mul(c, c2), (k1, k2) + ks[1:])
                 for c, ks in level for c2, k1, k2 in C.cop_key(ks[0])
                 if C.coaug_key not in (k1, k2)]
    return levels


def test_reduced_cop_levels_agree_with_the_first_slot_route():
    # reduced_cop_levels expands the last slot; coassociativity makes the
    # first-slot route give the same levels, signs included on B A (x) B A
    A = FreeDga(QQ, [("a", 2), ("b", 3)], d_gen={"b": [(1, ["a", "a"])]})
    barA = BarDgc(A)
    BB = TensorDgc(barA, barA)
    longest = 0
    for C, top in ((barA, 6), (BB, 4)):
        for key in [k for d in range(top + 1) for k in C.basis(d)]:
            levels = [GradedElement(QQ, [(Tensor(ks), c) for c, ks in level])
                      for level in C.reduced_cop_levels(key)]
            assert levels == _levels_by_first_slot(C, key), key
            assert C.nilpotence_degree(key) == len(levels) + 1
            longest = max(longest, len(levels))
    assert longest >= 4


class _NotConilpotent(Dgc):
    """Declares itself cocomplete, but its key x has reduced coproduct
    x (x) x, so no iterated coproduct of x vanishes."""

    coaug_key = Monomial((), 0)
    x = Monomial((("x", 1),), 0)

    def diff_key(self, key):
        return GradedElement(self.field)

    def cop_key(self, key):
        one, u = self.field.one, self.coaug_key
        if key == u:
            return [(one, u, u)]
        return [(one, u, key), (one, key, u), (one, key, key)]


def test_dgc_map_from_cochain_raises_on_a_key_that_is_not_conilpotent():
    C = _NotConilpotent(QQ)
    A = FreeDga(QQ, [("a", 2)])
    t = TwistingCochain(C, A, lambda key: GradedElement(QQ))
    with pytest.raises(StructuralError, match="key x not conilpotent up to 60"):
        dgc_map_from_cochain(t, BarDgc(A))(C.x)
    with pytest.raises(StructuralError, match="key x not conilpotent"):
        C.nilpotence_degree(C.x)


def test_dgc_map_fixed_point():
    A = FreeDga(QQ, [("a", 2), ("b", 3)], d_gen={"b": [(1, ["a", "a"])]})
    barA = BarDgc(A)
    t = universal_cochain(barA)
    g = dgc_map_from_cochain(t, barA)
    for d in range(0, 8):
        for k in barA.basis(d):
            assert g(k) == GradedElement.single(QQ, k)


def test_check_dgc_map_detects_a_non_coalgebra_map():
    A = FreeDga(QQ, [("a", 2), ("b", 3)], d_gen={"b": [(1, ["a", "a"])]})
    barA = BarDgc(A)
    keys = [k for d in range(0, 8) for k in barA.basis(d)]
    ident = LinearMap(QQ, 0, lambda k: GradedElement.single(QQ, k))
    assert check_dgc_map(ident, barA, barA, keys).ok
    # doubling the reduced words commutes with d but not with the
    # coproduct, on exactly the words of length >= 2
    double = LinearMap(QQ, 0, lambda k: GradedElement.single(
        QQ, k, 2 if k.length else 1))
    rep = check_dgc_map(double, barA, barA, keys)
    assert rep.failures == [k for k in keys if k.length >= 2]
    assert rep.checked == len(keys)


def test_bar_shuffle_cases_and_dgc_map():
    A = FreeDga(QQ, [("a", 2)], d_gen={})
    B = FreeDga(QQ, [("b", 3)], d_gen={})
    barA, barB = BarDgc(A), BarDgc(B)
    sh, t_sh, source = bar_shuffle(barA, barB)
    AB = TensorDga(A, B)
    barAB = BarDgc(AB)
    # cochain three-case form
    wa = BarWord((A.word(["a"]),))
    empty_a = BarWord(())
    wb = BarWord((B.word(["b"]),))
    empty_b = BarWord(())
    assert t_sh(Tensor((wa, empty_b))) == GradedElement.single(
        QQ, Tensor((A.word(["a"]), B.unit_key)))
    assert t_sh(Tensor((empty_a, wb))) == GradedElement.single(
        QQ, Tensor((A.unit_key, B.word(["b"]))))
    assert t_sh(Tensor((wa, wb))).is_zero()
    # it is a dgc map
    keys = []
    for d in range(0, 7):
        keys.extend(source.basis(d))
    check_dgc_map(sh, source, barAB, keys[:40]).raise_on_failure()


def test_bar_shuffle_commutativity_square():
    A = FreeDga(QQ, [("a", 2)], d_gen={})
    B = FreeDga(QQ, [("b", 3)], d_gen={})
    barA, barB = BarDgc(A), BarDgc(B)
    shAB, _, srcAB = bar_shuffle(barA, barB)
    shBA, _, srcBA = bar_shuffle(barB, barA)
    AB = TensorDga(A, B)
    BA = TensorDga(B, A)

    def bar_T(elem):
        # B T_{A,B}: B(A (x) B) -> B(B (x) A), entrywise transposition
        out = GradedElement(QQ)
        for w, c in elem.terms.items():
            sign = 1
            entries = []
            for e in w.entries:
                ka, kb = e.parts
                if ka.degree % 2 and kb.degree % 2:
                    sign = -sign
                entries.append(Tensor((kb, ka)))
            out.add_in(GradedElement.single(QQ, BarWord(tuple(entries))),
                       QQ.of(sign) * c)
        return out

    for d in range(0, 7):
        for key in srcAB.basis(d):
            wa, wb = key.parts
            e = GradedElement.single(QQ, key)
            lhs = bar_T(shAB.of(e))
            rhs = shBA.of(transpose_tensor(e))
            assert lhs == rhs, f"commutativity square fails at {key!r}"


def test_one_sided_bar_plain_and_twist():
    # B = k, f = augmentation: plain bar construction
    A = polynomial_dga(QQ, [("y", 2)])
    k = polynomial_dga(QQ, [])
    osb = OneSidedBar(A, k, f=lambda x: k.one().scale(A.aug(x)))
    keys = osb.basis_total(6)
    check_d_squared(osb, keys, "twisted tensor d^2")
    # A = k[y] (|y| = 4) -> B = k[t], y -> t^2: d([y] (x) 1) = -(1 (x) t^2)
    A = polynomial_dga(QQ, [("y", 4)])
    B = polynomial_dga(QQ, [("t", 2)])
    fmap = gc_algebra_map(A, B, {"y": B.mul(B.generator("t"), B.generator("t"))})
    osb2 = OneSidedBar(A, B, f=fmap)
    w = BarWord((A.monomial([("y", 1)]),))
    key = osb2.key(w, B.unit_key)
    d = osb2.diff_key(key)
    t2 = B.monomial([("t", 2)])
    expected = GradedElement.single(QQ, osb2.key(BarWord(()), t2), QQ.of(-1))
    assert d == expected


def test_one_sided_bar_identity_acyclic():
    # A = B, f = id: acyclic in positive degrees
    for field in (QQ, F5):
        A = polynomial_dga(field, [("y", 2)])
        osb = OneSidedBar(A, A, f=lambda x: x)
        table = tor_additive(osb, 8)
        assert table.totals[0] == 1
        for d in range(1, 9):
            assert table.totals[d] == 0, f"degree {d}"


def test_tor_additive_detects_non_multiplicative_map():
    # f is linear but not multiplicative: c -> t^2, c^2 -> 0, so
    # d^2([c|c] (x) 1) = +-(f(c^2) - f(c) f(c)) = -+t^4
    A = polynomial_dga(QQ, [("c", 4)])
    B = polynomial_dga(QQ, [("t", 2)])
    c = A.monomial([("c", 1)])
    t2 = B.mul(B.generator("t"), B.generator("t"))

    def f(x):
        out = B.zero()
        for k, v in x.terms.items():
            if k == A.unit_key:
                out = out + B.one().scale(v)
            elif k == c:
                out = out + t2.scale(v)
        return out

    osb = OneSidedBar(A, B, f=f)
    with pytest.raises(StructuralError, match=r"\[c\|c\] \(x\) 1"):
        tor_additive(osb, 8)


def test_tor_of_identity_module():
    A = polynomial_dga(QQ, [("c", 4)])
    k = polynomial_dga(QQ, [])
    osb = OneSidedBar(A, k, f=lambda x: k.one().scale(A.aug(x)))
    # Tor_{k[c]}(k, k) = exterior algebra on one degree-3 class
    table = tor_additive(osb, 8)
    assert table.totals == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
    assert table.bidegrees == {(0, 0): 1, (-1, 4): 1}


def test_tor_su2_flag():
    # k[c2] -> k[t], c2 -> -t^2: total dims of H(S^2)
    for field in (QQ, F5):
        A = polynomial_dga(field, [("c2", 4)])
        B = polynomial_dga(field, [("t", 2)])
        img = B.mul(B.generator("t"), B.generator("t")).scale(field.neg(field.one))
        osb = OneSidedBar(A, B, f=gc_algebra_map(A, B, {"c2": img}))
        table = tor_additive(osb, 6)
        assert table.totals == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
        assert table.poincare() == "1+q^2"
        # the (-1, *) column is empty
        assert not any(s == -1 for (s, t) in table.bidegrees)


def test_tor_pu2_table_over_f2():
    # PU(2): F2[c1, c2] -> F2[t], c1 -> 0, c2 -> t^2
    A = polynomial_dga(F2, [("c1", 2), ("c2", 4)])
    B = polynomial_dga(F2, [("t", 2)])
    t = B.generator("t")
    images = {"c1": B.zero(), "c2": B.mul(t, t)}
    osb = OneSidedBar(A, B, f=gc_algebra_map(A, B, images))
    table = tor_additive(osb, 6)
    expected = {(0, 0): 1, (0, 2): 1, (-1, 2): 1, (-1, 4): 1}
    got = {bd: d for bd, d in table.bidegrees.items() if bd[1] + bd[0] <= 6 and d}
    assert got == expected
    assert table.totals[0] == 1 and table.totals[1] == 1
    assert table.totals[2] == 1 and table.totals[3] == 1
    for d in range(4, 7):
        assert table.totals[d] == 0


def test_horizon_is_explicit():
    A = polynomial_dga(QQ, [("y", 2)])
    osb = OneSidedBar(A, A, f=lambda x: x)
    table = tor_additive(osb, 4)
    with pytest.raises(KeyError):
        table.totals[9]


def test_equal_words_are_one_object():
    """`basis`, `word`, `words_from_elements`, `diff_key` and `cop_key` of
    one BarDgc all hand out the bar's one BarWord per word; each word's
    differential and coproduct are computed once."""
    A = FreeGcDga(QQ, [("a", 2), ("u", 3), ("w", 4)],
                  d_gen={"u": [(1, [("a", 2)]), (2, [("w", 1)])]})
    barA = BarDgc(A)
    basis = {d: barA.basis(d) for d in range(8)}
    known = {id(w) for words in basis.values() for w in words}
    assert len(known) == len({w.entries for words in basis.values()
                              for w in words}) > 100
    assert basis[0] == [barA.coaug_key]
    built = 0
    for words in basis.values():
        for w in words:
            assert barA.word(list(w.entries)) is w
            elems = [GradedElement.single(QQ, k) for k in w.entries]
            assert [id(k) for k in barA.words_from_elements(elems).terms] \
                == [id(w)]
            assert barA.cop_key(w) is barA.cop_key(w)
            for _, head, tail in barA.cop_key(w):
                assert id(head) in known and id(tail) in known, w
            if w.degree < 7:
                assert barA.diff_key(w) is barA.diff_key(w)
                for w2 in barA.diff_key(w).terms:
                    assert id(w2) in known, (w, w2)
                    built += 1
    assert built > 100


def _catalog_tables():
    """Totals, bidegrees and product coordinates of two catalog pairs over
    Q and F5, with the sizes of their monomial and word tables."""
    out, sizes = [], []
    for name in ("SU(3)/T", "U(2)/U(1)xU(1)"):
        for field in (QQ, F5):
            A, B, f, _ = catalog_entry(field, name)
            ring, osb, _ = tor_bar_algebra(A, B, f, 6)
            table = ring.table
            out.append((name, str(field), table.totals, table.bidegrees,
                        [(e["factors"], e["coords"]) for e in table.products]))
            sizes += [len(A._monomials), len(B._monomials),
                      len(osb.C._words)]
    return out, sizes


def test_key_tables_stay_within_small_caps(monkeypatch):
    """Emptying the monomial and word tables whenever they hold 8 keys
    changes no catalog table: equality by value is the fallback."""
    expected, sizes = _catalog_tables()
    assert max(sizes) > 8
    monkeypatch.setattr(dg, "MONOMIAL_CAP", 8)
    monkeypatch.setattr(bar, "WORD_CAP", 8)
    got, sizes = _catalog_tables()
    assert got == expected
    assert max(sizes) <= 8
