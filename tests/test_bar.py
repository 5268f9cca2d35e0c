import copy
import pickle
from itertools import product, repeat

import pytest

from monoid_cohomology import bar as bar_module
from monoid_cohomology.bar import (MAX_CELLS, POSITIONS, BarWord, DGAError, _degree_counts,
                                   _template_letters, bar, bar_word_diff, bar_word_shuffle,
                                   cells, degree_cells, explicit_low_degree_differential,
                                   extend_linear, generic_word, iterated_bar, level1_word,
                                   refuse_above_max_cells, render_word, small_resolution,
                                   tensor_dga, validate_dga, zm_dga)
from monoid_cohomology.monoid import make_cyclic, validate_table
from monoid_census import census

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)
C23 = make_cyclic(2, 3)

SMALL = [Z2, C11, C12]


def w(letters, seps, level):
    return BarWord(tuple(letters), tuple(seps), level)


def test_zm_dga_examples():
    D = zm_dga(Z2)
    assert D.basis[0] == (0, 1)
    assert D.product_fn(1, 1) == {(0, 0): 1}
    D = zm_dga(C23)
    assert len(D.basis[0]) == 5
    assert D.product_fn(3, 4) == {(0, 4): 1}  # 3 (+) 4 = 4
    triv = zm_dga(make_cyclic(1, 1))
    assert len(triv.basis[0]) == 2
    assert validate_dga(zm_dga(C12)) == []


def test_bar_over_z2_has_one_cell_per_degree():
    B = bar(zm_dga(Z2), 5)
    for n in range(1, 6):
        assert len(B.basis[n]) == 1
        assert B.basis[n][0] == (1,) * n


def test_level1_differential_formula():
    # d[x|y] = x_*[y] - [xy] + y_*[x], with [e] dropped
    d = bar_word_diff(Z2, w((1, 1), (1,), 1))
    assert d == {(1, w((1,), (), 1)): 2}
    d = bar_word_diff(C23, w((1, 2), (1,), 1))
    assert d == {(1, w((2,), (), 1)): 1, (0, w((3,), (), 1)): -1,
                 (2, w((1,), (), 1)): 1}
    # d[x] = 0: the two augmentation edge terms cancel
    for M in SMALL + [C23]:
        for x in M.nonunit():
            assert bar_word_diff(M, w((x,), (), 1)) == {}


def test_iterated_bar_cell_counts():
    B = iterated_bar(Z2, 2, 5)
    assert [render_word(c) for c in B.basis[5]] == \
        ["[1 | 1 | 1 | 1]", "[1 |^2 1 | 1]", "[1 | 1 |^2 1]"]
    B3 = iterated_bar(Z2, 3, 3)
    assert B3.basis[3] == (w((1,), (), 3),)
    assert 1 not in B3.basis and 2 not in B3.basis  # vanishing band


def test_cell_counts_match_the_listing():
    # the size check counts cells from the recurrence, without listing
    # them; the listing is cells(), which is iterated_bar's basis
    for M in (Z2, C12, C23):
        for r in (1, 2, 3):
            B = iterated_bar(M, r, r + 4)
            listed = [list(cells(M, r, n)) for n in range(r, r + 5)]
            assert [tuple(c) for c in listed] == [B.basis.get(n, ()) for n in range(r, r + 5)]
            assert list(_degree_counts(len(M.nonunit()), r, r + 4)) == [len(c) for c in listed]


def test_bars_out_of_reach_are_refused():
    refuse_above_max_cells([MAX_CELLS], "a bar")
    with pytest.raises(DGAError):
        refuse_above_max_cells([MAX_CELLS, 1], "a bar")
    with pytest.raises(DGAError):  # reads no further than the cap
        refuse_above_max_cells(repeat(MAX_CELLS), "a bar")
    for build in (lambda: iterated_bar(C23, 1, 60), lambda: next(cells(C12, 3, 60)),
                  lambda: iterated_bar(C12, 2, 10 ** 18)):
        with pytest.raises(DGAError):
            build()


def test_templates_out_of_reach_are_refused(monkeypatch):
    # an m-letter shape counts m^2 template letters; over the one-letter
    # Z2 the level-1 bar to degree N has one shape of n letters per degree
    assert list(_template_letters(1, 5)) == [1, 4, 9, 16, 25]
    with pytest.raises(DGAError, match="templates"):
        iterated_bar(Z2, 1, 100001)  # 100001 cells, below MAX_CELLS
    monkeypatch.setattr(bar_module, "MAX_TEMPLATE_LETTERS", sum(n * n for n in range(1, 11)))
    assert len(iterated_bar(Z2, 1, 10).basis) == 11
    with pytest.raises(DGAError, match="templates"):
        iterated_bar(Z2, 1, 11)


def test_iterated_bar_rejects_bad_args():
    with pytest.raises(DGAError):
        iterated_bar(Z2, 0, 3)
    with pytest.raises(DGAError):
        iterated_bar(Z2, 2, 1)
    B = iterated_bar(Z2, 2, 4)
    with pytest.raises(DGAError):
        B.generators(5)


def test_level2_separator_differential():
    d = bar_word_diff(C23, w((3, 4), (2,), 2))
    assert d == {(0, w((3, 4), (1,), 2)): 1, (0, w((4, 3), (1,), 2)): -1}


def test_level3_separator_differential():
    d = bar_word_diff(C23, w((3, 4), (3,), 3))
    assert d == {(0, w((3, 4), (2,), 3)): -1, (0, w((4, 3), (2,), 3)): -1}
    # over Z/2 the two terms coincide
    d = bar_word_diff(Z2, w((1, 1), (3,), 3))
    assert d == {(0, w((1, 1), (2,), 3)): -2}


def test_shuffle_examples():
    # level 1: [x].[y] = [x|y] - [y|x]
    s = bar_word_shuffle(C23, w((1,), (), 1), w((2,), (), 1))
    assert s == {(0, w((1, 2), (1,), 1)): 1, (0, w((2, 1), (1,), 1)): -1}
    # level 1: [1].[1] = 0 over any monoid
    for M in SMALL + [C23]:
        assert bar_word_shuffle(M, w((1,), (), 1), w((1,), (), 1)) == {}
    # level 2: [x].[y] = [x|^2 y] + [y|^2 x]
    s = bar_word_shuffle(C23, w((1,), (), 2), w((2,), (), 2))
    assert s == {(0, w((1, 2), (2,), 2)): 1, (0, w((2, 1), (2,), 2)): 1}


def test_shuffle_level_mismatch():
    with pytest.raises(ValueError):
        bar_word_shuffle(Z2, w((1,), (), 1), w((1,), (), 2))


def test_explicit_formulas_match_recursion():
    for M in SMALL + [C23]:
        nu = M.nonunit()
        shapes = []
        for x in nu:
            shapes.append(w((x,), (), 1))
            for y in nu:
                shapes += [w((x, y), (1,), 1), w((x, y), (2,), 2),
                           w((x, y), (3,), 3)]
                for z in nu:
                    shapes += [w((x, y, z), (1, 1), 1),
                               w((x, y, z), (2, 1), 2),
                               w((x, y, z), (1, 2), 2),
                               w((x, y, z, x), (1, 1, 1), 1)]
        for cell in shapes:
            assert explicit_low_degree_differential(M, cell) == \
                bar_word_diff(M, cell), cell
    # the top shapes and suspension reach every generic cell of levels
    # 2-4 up to degree r+3
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    for M in [make_cyclic(m, k - m) for k in (2, 3, 4) for m in range(k)] + [C23, klein]:
        for r in (2, 3, 4):
            dga = iterated_bar(M, r, r + 3)
            for cell in (c for n in range(r, r + 4) for c in dga.basis.get(n, ())):
                assert explicit_low_degree_differential(M, cell) == \
                    bar_word_diff(M, cell), cell


def test_explicit_formula_rejects_unknown_shape():
    with pytest.raises(ValueError):
        explicit_low_degree_differential(Z2, w((1, 1, 1), (2, 2), 2))


def test_dd_zero_all_levels():
    for M in SMALL + [C23]:
        for r in (1, 2, 3):
            degmax = r + 3
            D = iterated_bar(M, r, degmax)
            for gens in D.basis.values():
                for g in gens:
                    assert D.diff_chain(D.differential(g)) == {}


def test_dd_zero_on_generic_words():
    # d d = 0 over the free commutative monoid on the letter positions
    # holds for every monoid at once, being preserved by instantiation;
    # only the one-letter words have no generic boundary
    for r in (1, 2, 3, 4):
        for k in range(4):
            for seps in product(range(1, r + 1), repeat=k):
                if sum(seps) > 3:
                    continue
                d = bar_word_diff(POSITIONS, generic_word(seps, r))
                assert bool(d) == bool(seps), (r, seps)
                dd = extend_linear(POSITIONS, lambda g: bar_word_diff(POSITIONS, g), d)
                assert dd == {}, (r, seps)


def _identity_at_2(M):
    # the same monoid with every element x relabelled x + 2 mod size
    n = M.size
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[(x + 2) % n][(y + 2) % n] = (M.op(x, y) + 2) % n
    return validate_table(n, (M.identity + 2) % n, table)


def test_templated_differential_matches_per_cell_recursion():
    monoids = census() + [_identity_at_2(C23)]
    assert monoids[-1].identity == 2
    for M in monoids:
        for r, degmax in ((1, 5), (2, 5), (3, 6)):
            D = iterated_bar(M, r, degmax)
            for cells in D.basis.values():
                for cell in cells:
                    assert D.diff[cell] == bar_word_diff(M, cell), (M, cell)


def test_dga_axioms_small_monoids():
    for M in SMALL:
        for r in (1, 2, 3):
            D = iterated_bar(M, r, r + 3)
            assert validate_dga(D) == []


def test_dga_axioms_c23_level2():
    D = iterated_bar(C23, 2, 5)
    assert validate_dga(D, product_degree_cap=5, triple_degree_cap=4) == []


def _flatten(nested, level):
    """The flat word of a word of bar applied level times to zm_dga: each
    factor of a level-k word is a level-(k-1) word, and a level-1 word is
    a tuple of letters."""
    letters = []
    seps = []

    def walk(word, k):
        for i, factor in enumerate(word):
            if i:
                seps.append(k)
            if k == 1:
                letters.append(factor)
            else:
                walk(factor, k - 1)

    walk(nested, level)
    return BarWord(tuple(letters), tuple(seps), level)


def test_generic_bar_matches_iterated_level1():
    # the cells, every differential, and every product of two cells of
    # total degree at most 4, where the flat shuffle works on the letters
    for M in SMALL + [C23]:
        G1 = bar(zm_dga(M), 4)
        I1 = iterated_bar(M, 1, 4)
        for n in range(5):
            gw = G1.basis.get(n, ())
            iw = I1.basis.get(n, ())
            assert len(gw) == len(iw)
            for word in gw:
                got = {(u, _flatten(w2, 1)): c
                       for (u, w2), c in G1.differential(word).items()}
                assert got == I1.differential(_flatten(word, 1))
            for a in gw:
                for k in range(5 - n):
                    for b in G1.basis.get(k, ()):
                        lhs = {(u, _flatten(w2, 1)): c
                               for (u, w2), c in G1.product_fn(a, b).items()}
                        rhs = I1.product_fn(_flatten(a, 1), _flatten(b, 1))
                        assert lhs == rhs, (M, a, b)


def test_generic_bar_squared_matches_iterated_level2():
    # bar() nested r times over zm_dga against the flat iterated_bar, at
    # levels 2 and 3 and past the r + 3 degree guard of the cohomology
    # routes: the cells, every differential, and every product of two
    # cells of total degree at most degmax
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    for M in (Z2, C12, make_cyclic(0, 3), semilattice):
        for r, degmax in ((2, 7), (3, 8)):
            G = zm_dga(M)
            for _ in range(r):
                G = bar(G, degmax)
            flat = iterated_bar(M, r, degmax)
            for n in range(degmax + 1):
                gw = G.basis.get(n, ())
                iw = flat.basis.get(n, ())
                assert len(gw) == len(iw) and {_flatten(word, r) for word in gw} == set(iw)
                for word in gw:
                    got = {(u, _flatten(w2, r)): c
                           for (u, w2), c in G.differential(word).items()}
                    assert got == flat.differential(_flatten(word, r)), (M, word)
                for a in gw:
                    for k in range(degmax - n + 1):
                        for b in G.basis.get(k, ()):
                            lhs = {(u, _flatten(w2, r)): c
                                   for (u, w2), c in G.product_fn(a, b).items()}
                            rhs = flat.product_fn(_flatten(a, r), _flatten(b, r))
                            assert lhs == rhs, (M, a, b)


def test_bar_requires_unit_in_basis():
    D = zm_dga(Z2)
    D.basis = {0: (1,)}  # drop the unit generator
    D.degree_of = {1: 0}
    with pytest.raises(DGAError):
        bar(D, 3)


def test_render_and_suspension():
    cell = w((1, 1, 1), (2, 1), 2)
    assert render_word(cell) == "[1 |^2 1 | 1]"
    assert render_word(w((), (), 2)) == "[]"
    assert cell.degree == 5
    lifted = cell.suspend(3)
    assert lifted.level == 3 and lifted.degree == 6
    # the differential of a suspension is minus the suspended differential
    d_low = bar_word_diff(Z2, w((1, 1), (1,), 1))
    d_high = bar_word_diff(Z2, w((1, 1), (1,), 2))
    assert d_high == {(u, BarWord(c.letters, c.seps, 2)): -v
                      for (u, c), v in d_low.items()}


def test_bar_words_equal_bar_words_only():
    # a bar word is the tuple (letters, seps, level): level1_word builds
    # the same word as the checking constructor, with the same hash, and
    # no word equals a generator of a small model, a tensor product or a
    # nested bar over the same monoid
    for letters in ((), (1,), (2, 1), (1, 1, 2), [2, 2]):
        word = level1_word(letters)
        checked = BarWord(letters, (1,) * max(0, len(letters) - 1), 1)
        assert type(word) is BarWord and word == checked and hash(word) == hash(checked)
        assert word.letters == tuple(letters) and word.level == 1
    assert level1_word((2, 1)) != level1_word((1, 2))
    assert BarWord((1,), (), 1) != BarWord((1,), (), 2)
    R = small_resolution(1, 2, 4)
    others = [g for D in (R, tensor_dga(R, R), bar(R, 3), bar(zm_dga(C12), 3))
              for gens in D.basis.values() for g in gens]
    assert ("v", 0) in others and (1, 1, 1) in others
    words = [c for r in (1, 2) for n in range(4) for c in degree_cells(C12, r, n)]
    assert not any(g == c for g in others for c in words)
    for word in words:
        assert pickle.loads(pickle.dumps(word)) == word
        assert type(copy.deepcopy(word)) is BarWord


def test_words_with_unit_letters_are_zero():
    for M in (Z2, C12):
        e = M.identity
        dead = w((1, e), (1,), 1)
        assert bar_word_diff(M, dead) == {}
        assert bar_word_shuffle(M, dead, w((1,), (), 1)) == {}
        assert bar_word_shuffle(M, w((1,), (), 1), dead) == {}


def test_differentials_stay_normalized():
    # no term of any stored differential carries a unit letter
    for M in (Z2, C11, C12):
        for r in (1, 2, 3):
            D = iterated_bar(M, r, r + 3)
            for gens in D.basis.values():
                for g in gens:
                    for (u, word), c in D.differential(g).items():
                        assert all(x != M.identity for x in word.letters)
