import re
from itertools import product

import pytest

from monoid_cohomology import cohomology, grillet, zlinalg
from monoid_cohomology.bar import (bar_word_diff, explicit_low_degree_differential,
                                   iterated_bar, small_resolution, validate_dga)
from monoid_cohomology.cohomology import (BruteForceCapError, TruncationError,
                                          brute_force_cohomology,
                                          cochain_complex, coboundary, cohomology_group,
                                          degree_basis, small_model_complex)
from monoid_cohomology.cyclic import leech_groups_cyclic, level2_groups_cyclic, level3_top
from monoid_cohomology.grillet import grillet_cohomology, inclusion_chainmap, injectivity_check
from monoid_cohomology.groupoid import iso_classes
from monoid_cohomology.hmod import (FGAbelianGroup, HModule, ModuleError, constant_module,
                                    dualize, parse_group_shorthand, validate_module,
                                    zm_as_hmodule)
from monoid_cohomology.monoid import cyclic_structure, make_cyclic, validate_table
from monoid_cohomology.zlinalg import (AbGroupInvariants, IntMatrix, preimage_lattice,
                                       subquotient_invariants)

from monoid_census import census

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)
C23 = make_cyclic(2, 3)

Z = FGAbelianGroup.free(1)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


def test_cochain_groups_z2_level2():
    cx = cochain_complex(Z2, 2, constant_module(zmod(2), Z2), 5)
    sizes = [cx.groups[n].invariants() for n in range(6)]
    assert sizes[0] == AbGroupInvariants(0, (2,))
    assert sizes[1].is_trivial()
    assert sizes[2] == AbGroupInvariants(0, (2,))
    assert sizes[3] == AbGroupInvariants(0, (2,))
    assert sizes[4] == AbGroupInvariants(0, (2, 2))
    assert sizes[5] == AbGroupInvariants(0, (2, 2, 2))


def test_level1_z2_mod2_coboundaries_alternate():
    cx = cochain_complex(Z2, 1, constant_module(zmod(2), Z2), 4)
    # maps alternate between multiplication by 2 and 0 on single cells
    assert [cx.coboundaries[n].data for n in range(4)] == \
        [[[0]], [[2]], [[0]], [[2]]]
    for n in range(4):
        assert cohomology_group(Z2, 1, n, constant_module(zmod(2), Z2)) == \
            AbGroupInvariants(0, (2,))


def zm_mod2(M):
    """ZM with every value group reduced mod 2."""
    zm = zm_as_hmodule(M)
    groups = [FGAbelianGroup(g.ngens, IntMatrix.diagonal([2] * g.ngens)) for g in zm.groups]
    return HModule(M, groups, zm.actions)


def parity_characters(M):
    """The nonzero monoid maps M -> Z/2, as value lists."""
    return [chi for chi in product((0, 1), repeat=M.size)
            if any(chi) and chi[M.identity] == 0
            and all(chi[M.op(x, y)] == (chi[x] + chi[y]) % 2
                    for x in range(M.size) for y in range(M.size))]


def twisted_z_z2(M, chi):
    """A(x) = Z + Z/2 with y acting by (a, b) -> (a, b + chi(y) a).  The
    integer matrices compose only modulo the relation, so the free
    cover's d d does not vanish."""
    G = parse_group_shorthand("Z+Z/2")
    return HModule(M, [G] * M.size, {(x, y): IntMatrix.from_rows([[1, 0], [chi[y], 1]])
                                     for x in range(M.size) for y in range(M.size)})


def zm_plus_z2(M):
    """ZM(x) + Z/2, ZM's translations beside the identity on Z/2: free
    and finite values in one module."""
    zm = zm_as_hmodule(M)
    groups = [FGAbelianGroup(g.ngens + 1, IntMatrix.from_columns([[0] * g.ngens + [2]],
                                                                  g.ngens + 1))
              for g in zm.groups]
    actions = {key: IntMatrix.from_rows([row + [0] for row in a.data] + [[0] * a.cols + [1]],
                                        a.cols + 1)
               for key, a in zm.actions.items()}
    return HModule(M, groups, actions)


def mixed_modules(M):
    mods = [("ZM", zm_as_hmodule(M)), ("ZM/2", zm_mod2(M)), ("ZM+Z/2", zm_plus_z2(M))]
    chis = parity_characters(M)
    if chis:
        mods.append(("Z+Z/2 twisted", twisted_z_z2(M, chis[0])))
    return mods


def lattice_route(cx, n):
    """The oracle: ker d^n / im d^{n-1} as preimage and subquotient
    lattices on the stored coboundaries, the relations adjoined."""
    d_n = cx.coboundaries[n]
    d_prev = cx.coboundaries[n - 1] if n else IntMatrix(d_n.cols, 0)
    kernel = preimage_lattice(d_n, cx.groups[n + 1].relation_matrix())
    return subquotient_invariants(kernel, d_prev.hstack(cx.groups[n].relation_matrix()))


def test_cohomology_route_needs_no_lattice_algebra(monkeypatch):
    def no_lattice_algebra(*args):
        raise AssertionError("lattice algebra on the cohomology route")
    for name in ("preimage_lattice", "kernel_basis", "subquotient_invariants"):
        monkeypatch.setattr(zlinalg, name, no_lattice_algebra)
        monkeypatch.setattr(cohomology, name, no_lattice_algebra, raising=False)
    # universal coefficients, then the cone with no relations (ZM), with
    # finite values (ZM/2) and with mixed values (free rank and curvature)
    C04 = make_cyclic(0, 4)
    for M, r, n, A, expect in (
            (C12, 2, 4, constant_module(zmod(4), C12), AbGroupInvariants(0, (4,))),
            (C12, 2, 3, zm_as_hmodule(C12), AbGroupInvariants(0, (2, 2, 2))),
            (C12, 2, 3, zm_mod2(C12), AbGroupInvariants(0, (2, 2, 2))),
            (C04, 1, 3, twisted_z_z2(C04, (0, 1, 0, 1)), AbGroupInvariants(0, (2,))),
            (C04, 1, 0, twisted_z_z2(C04, (0, 1, 0, 1)), AbGroupInvariants(1, (2,)))):
        assert cohomology_group(M, r, n, A) == expect, (M, r, n)


def test_cohomology_leaves_the_complex_unchanged():
    for module in (constant_module(zmod(4), C12), zm_as_hmodule(C12)):
        cx = cochain_complex(C12, 2, module, 5)
        before = {n: d.row_dicts() for n, d in cx.coboundaries.items()}
        first = [cx.cohomology(n) for n in range(5)]
        assert [cx.cohomology(n) for n in range(5)] == first
        assert {n: d.row_dicts() for n, d in cx.coboundaries.items()} == before


def test_wide_leftovers_reach_the_smith_form_as_a_lattice_basis(monkeypatch):
    # the ±1 sweep leaves 12x328, 12x428 and 8x448 of these coboundaries;
    # snf_diagonal hands the dense Smith form a basis of their column
    # lattice instead, never wider than tall
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    smith = zlinalg.smith_normal_form
    shapes = []

    def recording(A):
        shapes.append((A.rows, A.cols))
        return smith(A)
    monkeypatch.setattr(zlinalg, "smith_normal_form", recording)
    for A, r, n, expect in ((zm_as_hmodule(klein), 2, 4, AbGroupInvariants(0)),
                            (zm_mod2(klein), 2, 4, AbGroupInvariants(0, (2,) * 12)),
                            (zm_mod2(klein), 3, 5, AbGroupInvariants(0, (2,) * 8))):
        assert cohomology_group(klein, r, n, A) == expect, (r, n)
    assert max(rows for rows, _ in shapes) >= 12
    assert all(cols <= rows for rows, cols in shapes), shapes


def test_the_sweep_meets_d_n_without_the_pivot_columns_of_d_prev(monkeypatch):
    # joint reduction: on the bar route of C(3,4) Z H^4(M,1) the column
    # sweep of the 1296x216 d^3 deletes 185 of the 1296 columns of the
    # 7776x1296 d^4 before it is swept; the cone of ZM, which has no
    # relations, reads d_F^(n-1) and d_F^n the same way
    sweep = zlinalg._unit_sweep
    shapes = []

    def recording(lines):
        shapes.append((1 + max((i for line in lines for i in line), default=-1), len(lines)))
        return sweep(lines)
    monkeypatch.setattr(zlinalg, "_unit_sweep", recording)
    C34 = make_cyclic(3, 4)
    assert cochain_complex(C34, 1, constant_module(Z, C34), 5).cohomology(4) == \
        AbGroupInvariants(0, (4,))
    assert (7776, 1111) in shapes and (7776, 1296) not in shapes, shapes
    cx = cochain_complex(C23, 1, zm_as_hmodule(C23), 3)
    d_prev, d_n = cx.coboundaries[1], cx.coboundaries[2]
    pivots = len(zlinalg.snf_diagonal(d_prev).swept)
    shapes.clear()
    assert cx.cohomology(2) == AbGroupInvariants(6, (3,))
    assert pivots and (d_n.rows, d_n.cols - pivots) in shapes, shapes


def test_degree_zero_is_value_at_unit():
    for M in (Z2, C11, C12, C23):
        for r in (1, 2, 3):
            for G in (Z, zmod(2), zmod(4)):
                A = constant_module(G, M)
                assert cohomology_group(M, r, 0, A) == G.invariants()
                for n in range(1, r):
                    assert cohomology_group(M, r, n, A).is_trivial()
    # a non-constant module: H^0 = A(e) for the monoid-algebra module
    A = zm_as_hmodule(C12)
    h0 = cohomology_group(C12, 2, 0, A)
    assert h0 == A.group(C12.identity).invariants()


def test_h2_level1_z2_integral():
    assert cohomology_group(Z2, 1, 2, constant_module(Z, Z2)) == \
        AbGroupInvariants(0, (2,))


def test_classic_cyclic_group_cohomology():
    for q in (2, 3):
        C = make_cyclic(0, q)
        A = constant_module(Z, C)
        for n in range(6):
            h = cohomology_group(C, 1, n, A)
            if n == 0:
                assert h == AbGroupInvariants(1)
            elif n % 2:
                assert h.is_trivial()
            else:
                assert h == AbGroupInvariants(0, (q,))


def test_truncation_guard():
    A = constant_module(zmod(2), Z2)
    with pytest.raises(TruncationError):
        cohomology_group(Z2, 2, 5, A)
    with pytest.raises(TruncationError):
        cochain_complex(Z2, 3, A, 7)
    # level 1 has no truncation
    assert cohomology_group(Z2, 1, 6, A) == AbGroupInvariants(0, (2,))


def test_closed_formulas_equal_recursive_differential():
    for M in (Z2, C12, C23):
        for level, n in ((2, 3), (2, 4), (3, 3), (3, 4), (3, 5)):
            dga = iterated_bar(M, level, n + 1)
            for t in dga.basis.get(n + 1, ()):
                assert explicit_low_degree_differential(M, t) == bar_word_diff(M, t)


def test_truncated_matrices_equal_dualized_bar():
    # the coboundaries assembled from the closed formulas are the
    # dualized recursive differentials
    for M in (Z2, C12):
        for G in (zmod(4), zmod(6)):
            A = constant_module(G, M)
            for level, n in ((2, 3), (2, 4), (3, 3), (3, 4), (3, 5)):
                dga = iterated_bar(M, level, n + 1)
                src = degree_basis(dga, n)
                tgt = degree_basis(dga, n + 1)
                d = {t: explicit_low_degree_differential(M, t) for t in tgt.generators}
                assert dualize(d, src, tgt, A, M) == coboundary(dga, n, A, src, tgt)


def test_level3_top_coboundary_components_z2():
    # over (Z/2, Z/2): the xi row of d^5 is multiplication by -2 and the
    # gamma row carries the g coordinate
    d5 = coboundary(iterated_bar(Z2, 3, 6), 5, constant_module(zmod(2), Z2))
    assert d5.data[3] == [0, -2]          # xi component
    assert abs(d5.data[1][0]) == 1        # gamma sees g(1,1,1)


def test_leech_complex_formula_is_level1_coboundary():
    # the level-1 coboundary is literally the classical alternating sum
    for M in (C12, C23):
        dga = iterated_bar(M, 1, 4)
        for n in (2, 3):
            for t in dga.basis[n + 1]:
                assert bar_word_diff(M, t) == \
                    explicit_low_degree_differential(M, t)


def test_brute_force_worked_examples():
    A2 = constant_module(zmod(2), Z2)
    z, b, inv = brute_force_cohomology(Z2, 3, 5, A2)
    assert (z, b) == (2, 1)
    assert inv == AbGroupInvariants(0, (2,))
    for M in (Z2, C11, C23):
        A = constant_module(zmod(2), M)
        z, b, inv = brute_force_cohomology(M, 2, 0, A)
        assert inv == AbGroupInvariants(0, (2,))
    z, b, inv = brute_force_cohomology(Z2, 2, 3, A2)
    assert inv == AbGroupInvariants(0, (2,))


def test_brute_force_cap():
    with pytest.raises(BruteForceCapError):
        brute_force_cohomology(Z2, 1, 1, constant_module(Z, Z2))
    big = constant_module(zmod(64), C23)
    with pytest.raises(BruteForceCapError):
        brute_force_cohomology(C23, 1, 4, big)


def test_oracle_agrees_with_pipeline():
    grid = [(Z2, zmod(2)), (C11, zmod(2)), (Z2, zmod(4))]
    for M, G in grid:
        A = constant_module(G, M)
        for r, n in ((2, 3), (2, 4), (3, 5)):
            z, b, inv = brute_force_cohomology(M, r, n, A)
            h = cohomology_group(M, r, n, A)
            assert inv == h
            assert (h.order() or 0) * b == z


def test_stability_isomorphisms():
    for M in (Z2, C11, C12):
        for G in (Z, zmod(2), zmod(4)):
            A = constant_module(G, M)
            h11 = cohomology_group(M, 1, 1, A)
            h32 = cohomology_group(M, 2, 3, A)
            assert cohomology_group(M, 2, 2, A) == h11
            assert cohomology_group(M, 3, 3, A) == h11
            assert cohomology_group(M, 3, 4, A) == h32
            # r = 4, where feasible: one extra stable step
            assert cohomology_group(M, 4, 4, A) == h11
            assert cohomology_group(M, 4, 5, A) == h32
            assert cohomology_group(M, 4, 6, A) == \
                cohomology_group(M, 3, 5, A)


def test_uct_matches_lattice_census():
    # constant coefficients take the universal coefficient route; the
    # same group presented as a tabular module takes the mapping cone,
    # and the preimage-lattice route on that module's complex is the
    # oracle of both
    monoids = [make_cyclic(m, k - m) for k in (2, 3, 4) for m in range(k)]
    monoids += [validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)]),
                validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])]
    for M in monoids:
        for text in ("Z", "Z^2", "Z/4", "Z/6", "Z+Z/2"):
            G = parse_group_shorthand(text)
            ident = IntMatrix.identity(G.ngens)
            tabular = HModule(M, [G] * M.size, {(x, y): ident for x in range(M.size)
                                                for y in range(M.size)})
            for r, n in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)):
                cx = cochain_complex(M, r, tabular, n + 1)
                assert cohomology_group(M, r, n, constant_module(G, M)) == \
                    cx.cohomology(n) == lattice_route(cx, n), (M, text, r, n)


def test_cone_matches_lattice_census():
    # non-constant modules take the mapping cone of their relations; the
    # lattice route on the same stored coboundaries is the oracle, and on
    # cyclic monoids at level 1 so are Leech's groups from Hom(R, A).  Degree
    # r + 2 runs on orders 2 and 3 only: on order 4 the oracle alone
    # takes about 8 s there
    for M in census():
        for name, A in mixed_modules(M):
            for r in (1, 2):
                top = r + 2 if M.size < 4 else r + 1
                cx = cochain_complex(M, r, A, top + 1)
                for n in [0] + list(range(r, top + 1)):
                    assert cx.cohomology(n) == lattice_route(cx, n), (M.table, name, r, n)
    for m, q in ((0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (0, 4), (1, 3), (2, 2), (3, 1)):
        C = make_cyclic(m, q)
        for name, A in mixed_modules(C):
            cx = cochain_complex(C, 1, A, 5)
            for k in (0, 1):
                assert leech_groups_cyclic(m, q, k, A) == \
                    (cx.cohomology(2 * k + 1), cx.cohomology(2 * k + 2)), (m, q, name, k)


def identity_last(M):
    """M with each element x renamed |M| - 1 - x, so the identity of a
    table with identity 0 moves to the last index."""
    n = M.size
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[n - 1 - x][n - 1 - y] = n - 1 - M.op(x, y)
    return validate_table(n, n - 1 - M.identity, table)


def test_small_model_matches_the_bar_route_on_cyclic_tables():
    # a cyclic table is answered through Hom(B^(r-1)(R), A), R built in
    # the table's own labels; the iterated bar is the oracle.  Every table
    # is relabelled with its identity last, so the powers of its generator
    # are not its labels.  Degree r + 2 runs on orders 2-4 only: on order 6
    # the bar route alone takes about 15 s there for the twisted module
    cyclic = [M for M in census() if cyclic_structure(M)]
    assert sorted(cyclic_structure(M)[:2] for M in cyclic) == \
        sorted((m, k - m) for k in (2, 3, 4) for m in range(k))
    monoids = cyclic + [make_cyclic(m, k - m) for k in (5, 6, 7) for m in range(k)]
    for M in map(identity_last, monoids):
        shape = cyclic_structure(M)
        m, q, powers = shape
        assert powers[0] == M.size - 1 and sorted(powers) == list(range(M.size))
        assert validate_dga(small_resolution(m, q, 6, M, powers)) == [], (m, q)
        modules = [(text, constant_module(parse_group_shorthand(text), M))
                   for text in ("Z", "Z/4", "Z+Z/2")]
        modules += [("ZM", zm_as_hmodule(M)), ("ZM/2", zm_mod2(M))]
        chis = parity_characters(M)
        if chis:
            modules.append(("Z+Z/2 twisted", twisted_z_z2(M, chis[0])))
        for name, A in modules:
            for r in (1, 2, 3):
                top = r + 2 if M.size < 5 else r + 1
                small = small_model_complex(M, r, A, top + 1, shape)
                bar_route = cochain_complex(M, r, A, top + 1)
                for n in range(top + 1):
                    assert small.cohomology(n) == bar_route.cohomology(n), (m, q, name, r, n)
                assert cohomology_group(M, r, top, A) == small.cohomology(top), (m, q, name, r)


def test_only_tables_that_are_not_cyclic_build_the_iterated_bar(monkeypatch):
    # cyclic tables never reach the iterated bar, relabelled or not; the
    # Klein four-group does, and a cyclic table with a module that breaks
    # its laws is refused before any bar is built
    def no_bar(*args):
        raise AssertionError("the iterated bar was built")
    monkeypatch.setattr(cohomology, "iterated_bar", no_bar)
    C34, C12r = make_cyclic(3, 4), identity_last(C12)
    assert cohomology_group(C34, 1, 4, constant_module(Z, C34)) == AbGroupInvariants(0, (4,))
    assert cohomology_group(C12r, 2, 3, zm_as_hmodule(C12r)) == AbGroupInvariants(0, (2, 2, 2))
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    C03 = make_cyclic(0, 3)
    breaks_composition = HModule(C03, [zmod(4)] * 3, {
        (x, y): IntMatrix.from_rows([[1 if y == 0 else 2]]) for x in range(3) for y in range(3)})
    with pytest.raises(AssertionError, match="the iterated bar was built"):
        cohomology_group(klein, 1, 2, constant_module(Z, klein))
    with pytest.raises(ModuleError, match="violates the module laws"):
        cohomology_group(C03, 1, 2, breaks_composition)


def test_cone_on_a_relation_basis_with_entries_below_its_pivots():
    # A(x) = Z^2 / <(2, 1), (0, 3)> is Z/6, presented by a staircase with
    # a 1 under its first pivot, so a block solve must clear the rows
    # below each pivot; y acts by +-1 through a parity character, and
    # trivially.  The lattice route and the Z/6 presentation agree
    staircase = FGAbelianGroup(2, IntMatrix.from_rows([[2, 0], [1, 3]]))
    assert staircase.relation_basis.data == [[2, 0], [1, 3]]
    cases = 0
    for M in census((2, 3)) + [make_cyclic(0, 4), C12]:
        elements = range(M.size)
        for chi in [(0,) * M.size] + parity_characters(M)[:1]:
            A, A6 = (HModule(M, [G] * M.size,
                             {(x, y): IntMatrix.diagonal([(-1) ** chi[y]] * G.ngens)
                              for x in elements for y in elements})
                     for G in (staircase, zmod(6)))
            for r in (1, 2):
                cx = cochain_complex(M, r, A, r + 2)
                for n in range(r + 2):
                    assert cohomology_group(M, r, n, A) == lattice_route(cx, n) == \
                        cohomology_group(M, r, n, A6), (M.table, chi, r, n)
                    cases += 1
    assert cases == 91


def test_cone_free_rank_needs_no_second_module(monkeypatch):
    # the free rank comes from ranks the cone already has, and its top
    # rows [d_R | K] from the stored d_F: H^3 dualizes nothing beyond
    # the stored complex
    C04 = make_cyclic(0, 4)
    cx = cochain_complex(C04, 1, twisted_z_z2(C04, (0, 1, 0, 1)), 4)
    calls = []

    def counting(*args):
        calls.append(args[3])
        return dualize(*args)
    monkeypatch.setattr(cohomology, "dualize", counting)
    assert cx.cohomology(3) == AbGroupInvariants(0, (2,))
    assert calls == []


def test_modules_breaking_their_laws_raise():
    # validate_module rejects both, and cohomology_group refuses them with
    # its violations before any complex is built
    C02, C03 = make_cyclic(0, 2), make_cyclic(0, 3)
    one = IntMatrix.from_rows([[1]])
    # 1_*: A(1) = Z/2 -> A(0) = Z/4 maps the relation 2 to 2, outside 4Z;
    # d^1 applies it, which H^2 reads as its d^{n-1}
    keeps_no_relations = HModule(C02, [zmod(4), zmod(2)],
                                 {(x, y): one for x in range(2) for y in range(2)})
    # every non-identity element acts on Z/4 by 2, so 1_* 1_* = 4 = 0 but
    # (1 + 1)_* = 2: d_F d_F leaves the relations and K has no solution
    breaks_composition = HModule(C03, [zmod(4)] * 3, {
        (x, y): IntMatrix.from_rows([[1 if y == 0 else 2]]) for x in range(3) for y in range(3)})
    for A, n in ((keeps_no_relations, 1), (keeps_no_relations, 2), (breaks_composition, 2)):
        bad = validate_module(A)
        assert bad
        with pytest.raises(ModuleError, match=re.escape(
                "tabular module violates the module laws: %r" % (bad[:3],))):
            cohomology_group(A.monoid, 1, n, A)


def lawless_modules(M):
    """Three modules over M that break their laws: Z with e_* = 2 (the
    other translations the identity); Z/4 with every non-unit acting by
    2 (1_* 1_* = 4 = 0 but (1 + 1)_* = 2); and Z/4 at the identity, Z/2
    elsewhere, all translations 1, where M has a unit u other than the
    identity, whose u_*: A(u) = Z/2 -> A(e) = Z/4 maps the relation 2
    outside 4Z."""
    elements, e = range(M.size), M.identity

    def scalars(groups, value):
        return HModule(M, groups, {(x, y): IntMatrix.from_rows([[value(y)]])
                                   for x in elements for y in elements})
    mods = [("Z, e_* = 2", scalars([Z] * M.size, lambda y: 2 if y == e else 1)),
            ("breaks_composition", scalars([zmod(4)] * M.size, lambda y: 1 if y == e else 2))]
    if any(M.op(x, y) == e for x in M.nonunit() for y in elements):
        mods.append(("keeps_no_relations",
                     scalars([zmod(4) if x == e else zmod(2) for x in elements], lambda y: 1)))
    return mods


def test_lawless_modules_are_refused_at_every_entry_point(monkeypatch):
    # every entry point that reads a tabular module refuses one that
    # breaks its laws with the same one-line ModuleError, on cyclic and
    # other tables alike, before any bar or small model is built
    def no_complex(*args):
        raise AssertionError("a complex was built")
    for module, name in ((cohomology, "iterated_bar"), (cohomology, "small_model_complex"),
                         (grillet, "iterated_bar")):
        monkeypatch.setattr(module, name, no_complex)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    C03 = make_cyclic(0, 3)
    cases = []
    for M in (C03, klein, semilattice):
        for name, A in lawless_modules(M):
            calls = [lambda: cohomology_group(M, 1, 1, A), lambda: cohomology_group(M, 2, 3, A),
                     lambda: brute_force_cohomology(M, 1, 2, A),
                     lambda: grillet_cohomology(M, A, 2), lambda: injectivity_check(M, A),
                     lambda: inclusion_chainmap(M, A), lambda: iso_classes(M, A)]
            if M is C03:
                calls += [lambda: leech_groups_cyclic(0, 3, 0, A),
                          lambda: level2_groups_cyclic(0, 3, A), lambda: level3_top(0, 3, A)]
            for call in calls:
                with pytest.raises(ModuleError, match="violates the module laws") as info:
                    call()
                assert "\n" not in str(info.value)
                cases.append((M.size, name))
    assert len(cases) == 3 * 10 + 3 * 7 + 2 * 7


def test_a_product_column_outside_the_relations_names_its_cell():
    # a CochainComplex built directly checks no law, but the cone's own
    # solve of its top rows still refuses a translation that maps a
    # relation outside the relations, naming the element of the cell the
    # column lands on
    C03 = make_cyclic(0, 3)
    one = IntMatrix.from_rows([[1]])
    # 2_*: A(1) = Z/2 -> A(0) = Z/4 maps the relation 2 to 2, outside 4Z
    A = HModule(C03, [zmod(4), zmod(2), zmod(2)],
                {(x, y): one for x in range(3) for y in range(3)})
    with pytest.raises(ModuleError, match="violates the module laws"):
        cohomology_group(C03, 1, 1, A)
    with pytest.raises(ModuleError, match=re.escape(
            "leaves the relations of A(0): the translations break the module laws")):
        cochain_complex(C03, 1, A, 2).cohomology(1)


def test_a_module_flagged_constant_must_be_constant():
    # Z/4 at every element of C(1,2), the non-units acting by 0: a valid
    # module, but not a constant one; the universal coefficient route
    # would read H^1(M,1) as Z/2
    elements = range(C12.size)
    actions = {(x, y): IntMatrix.from_rows([[1 if y == C12.identity else 0]])
               for x in elements for y in elements}
    A = HModule(C12, [zmod(4)] * C12.size, actions)
    assert validate_module(A) == []
    assert not A.constant
    assert cohomology_group(C12, 1, 1, A).is_trivial()
    # one value group with identity translations modulo the relations
    # (5 = 1 in Z/4): the cone gives the constant module's Z/2
    five = IntMatrix.from_rows([[5]])
    B = HModule(C12, [zmod(4)] * C12.size, {key: five for key in actions})
    assert cohomology_group(C12, 1, 1, B) == AbGroupInvariants(0, (2,))
