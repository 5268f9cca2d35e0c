import re
from itertools import product
from math import gcd

import pytest

from monoid_cohomology import cohomology, grillet, zlinalg
from monoid_cohomology.bar import MAX_LEVEL, DGAError, bar_word_diff, iterated_bar, validate_dga
from monoid_cohomology.cohomology import (BruteForceCapError, CochainComplex, TruncationError,
                                          brute_force_cohomology,
                                          cochain_complex, coboundary, cohomology_group,
                                          cochain_group, model, small_model_complex)
from monoid_cohomology.cyclic import (closed_form_top, leech_groups_cyclic, level2_groups_cyclic,
                                      level3_top)
from monoid_cohomology.grillet import grillet_cohomology, inclusion_chainmap, injectivity_check
from monoid_cohomology.groupoid import iso_classes
from monoid_cohomology.hmod import (FGAbelianGroup, HModule, ModuleError, constant_module,
                                    dualize, parse_group_shorthand, prime_exponent,
                                    require_lawful, validate_module, zm_as_hmodule)
from monoid_cohomology.monoid import INFINITE_CYCLIC, make_cyclic, validate_table
from monoid_cohomology.zlinalg import (AbGroupInvariants, IntMatrix, preimage_lattice, rank,
                                       snf_diagonal, subquotient_invariants)

from helpers import (cochain_invariants, explicit_low_degree_differential, identity_last,
                     lawless_modules, product_table, split_whole, zm_mod)
from monoid_census import census

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)
C23 = make_cyclic(2, 3)

Z = FGAbelianGroup.free(1)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


def test_cochain_groups_z2_level2():
    # the complex of a constant module holds the integer cochain groups,
    # one Z per cell; the A-valued ones are built on the same bar
    A = constant_module(zmod(2), Z2)
    cx = cochain_complex(Z2, 2, A, 5)
    cells = [len(cx.dga.generators(n)) for n in range(6)]
    assert [cochain_invariants(cx.group(n)) for n in range(6)] == \
        [AbGroupInvariants(k) for k in cells]
    sizes = [cochain_invariants(cochain_group(cx.dga, n, A)) for n in range(6)]
    assert sizes[0] == AbGroupInvariants(0, (2,))
    assert sizes[1].is_trivial()
    assert sizes[2] == AbGroupInvariants(0, (2,))
    assert sizes[3] == AbGroupInvariants(0, (2,))
    assert sizes[4] == AbGroupInvariants(0, (2, 2))
    assert sizes[5] == AbGroupInvariants(0, (2, 2, 2))


def test_level1_z2_mod2_coboundaries_alternate():
    cx = cochain_complex(Z2, 1, constant_module(zmod(2), Z2), 4)
    # maps alternate between multiplication by 2 and 0 on single cells
    assert [cx.coboundary(n).data for n in range(4)] == \
        [[[0]], [[2]], [[0]], [[2]]]
    for n in range(4):
        assert cohomology_group(Z2, 1, n, constant_module(zmod(2), Z2)) == \
            AbGroupInvariants(0, (2,))


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
    mods = [("ZM", zm_as_hmodule(M)), ("ZM/2", zm_mod(M, 2)), ("ZM+Z/2", zm_plus_z2(M))]
    chis = parity_characters(M)
    if chis:
        mods.append(("Z+Z/2 twisted", twisted_z_z2(M, chis[0])))
    return mods


def lattice_route(cx, n):
    """The oracle: ker d^n / im d^{n-1} as preimage and subquotient
    lattices on the stored coboundaries, the relations adjoined."""
    kernel = preimage_lattice(cx.coboundary(n), cx.group(n + 1).relation_matrix())
    return subquotient_invariants(kernel, cx.coboundary(n - 1).hstack(
        cx.group(n).relation_matrix()))


def test_cohomology_route_needs_no_lattice_algebra(monkeypatch):
    def no_lattice_algebra(*args):
        raise AssertionError("lattice algebra on the cohomology route")
    for name in ("preimage_lattice", "kernel_basis", "subquotient_invariants"):
        monkeypatch.setattr(zlinalg, name, no_lattice_algebra)
        monkeypatch.setattr(cohomology, name, no_lattice_algebra, raising=False)
    # universal coefficients, the cone with no relations (ZM), the F_p
    # route (ZM/2), and the cone with mixed values (free rank and
    # curvature)
    C04 = make_cyclic(0, 4)
    for M, r, n, A, expect in (
            (C12, 2, 4, constant_module(zmod(4), C12), AbGroupInvariants(0, (4,))),
            (C12, 2, 3, zm_as_hmodule(C12), AbGroupInvariants(0, (2, 2, 2))),
            (C12, 2, 3, zm_mod(C12, 2), AbGroupInvariants(0, (2, 2, 2))),
            (C04, 1, 3, twisted_z_z2(C04, (0, 1, 0, 1)), AbGroupInvariants(0, (2,))),
            (C04, 1, 0, twisted_z_z2(C04, (0, 1, 0, 1)), AbGroupInvariants(1, (2,)))):
        assert cohomology_group(M, r, n, A) == expect, (M, r, n)


def test_cohomology_leaves_the_complex_unchanged():
    # the degrees read in descending, then ascending order give the same
    # answers, and the coboundaries the first pass built, d^-1 .. d^4,
    # keep their entries; a complex read in ascending order alone builds
    # the same ones
    for module in (constant_module(zmod(4), C12), zm_as_hmodule(C12)):
        cx = cochain_complex(C12, 2, module, 5)
        first = [cx.cohomology(n) for n in reversed(range(5))][::-1]
        built = [cx.coboundary(n).row_dicts() for n in range(-1, 5)]
        assert [cx.cohomology(n) for n in range(5)] == first
        assert [cx.coboundary(n).row_dicts() for n in range(-1, 5)] == built
        ascending = cochain_complex(C12, 2, module, 5)
        assert [ascending.cohomology(n) for n in range(5)] == first
        assert [ascending.coboundary(n).row_dicts() for n in range(-1, 5)] == built


def test_a_degree_above_the_dga_raises():
    # the DGA's bound is the complex's one range check: H^n reads the
    # cells of degree n + 1, so a DGA that stops at degree n refuses it,
    # naming both, and still answers below
    for M, A in ((C12, constant_module(zmod(4), C12)), (C12, zm_as_hmodule(C12)),
                 (C23, constant_module(Z, C23))):
        for r, n in ((1, 3), (2, 4), (3, 5)):
            cx = cochain_complex(M, r, A, n)
            with pytest.raises(DGAError, match="degree %d above the stored bound %d" % (n + 1, n)):
                cx.cohomology(n)
            assert cx.cohomology(n - 1) == cohomology_group(M, r, n - 1, A)
    cx = small_model_complex(C12, 1, constant_module(Z, C12), 2)
    with pytest.raises(DGAError, match="degree 3 above the stored bound 2"):
        cx.cohomology(2)


def test_wide_leftovers_reach_the_smith_form_as_a_lattice_basis(monkeypatch):
    # the ±1 sweep leaves 12x328, 12x428 and 8x448 of these coboundaries
    # of Klein's iterated bar; snf_diagonal hands the dense Smith form a
    # basis of their column lattice instead, never wider than tall.  ZM/2
    # answers by the F_p route, with no Smith form; its cone, where these
    # leftovers arise, is read on the same complex and must agree
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    smith = zlinalg.smith_normal_form
    shapes = []

    def recording(A):
        shapes.append((A.rows, A.cols))
        return smith(A)
    monkeypatch.setattr(zlinalg, "smith_normal_form", recording)
    for A, r, n, expect in ((zm_as_hmodule(klein), 2, 4, AbGroupInvariants(0)),
                            (zm_mod(klein, 2), 2, 4, AbGroupInvariants(0, (2,) * 12)),
                            (zm_mod(klein, 2), 3, 5, AbGroupInvariants(0, (2,) * 8))):
        cx = cochain_complex(klein, r, A, n + 1)
        assert cx.cohomology(n) == cx._cone_cohomology(n) == expect, (r, n)
    assert max(rows for rows, _ in shapes) >= 12
    assert all(cols <= rows for rows, cols in shapes), shapes


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
    # the infinite cyclic monoid has no iterated bar, finite or truncated
    with pytest.raises(DGAError, match="the bar construction needs a finite monoid"):
        cochain_complex(INFINITE_CYCLIC, 1, constant_module(Z), 2)
    with pytest.raises(DGAError, match="the bar construction needs a finite monoid"):
        cohomology_group(INFINITE_CYCLIC, 1, 1, constant_module(Z))
    # level 1 has no truncation
    assert cohomology_group(Z2, 1, 6, A) == AbGroupInvariants(0, (2,))
    # one guard, one message: H^(r+2) is the last degree every route reads
    for refuse in (lambda: cohomology_group(Z2, 3, 6, A), lambda: cochain_complex(Z2, 3, A, 7),
                   lambda: brute_force_cohomology(Z2, 3, 6, A)):
        with pytest.raises(TruncationError, match=re.escape(
                "H^6 at level 3 lies beyond the truncated range (n <= 5)")):
            refuse()
    # levels below 1 have no cells, and levels above MAX_LEVEL nest
    # deeper than Python recurses: each route refuses them from the level
    top = MAX_LEVEL
    for r in (0, -5, top + 1):
        for refuse in (lambda: cohomology_group(Z2, r, 2, A),
                       lambda: cochain_complex(Z2, r, A, 3),
                       lambda: brute_force_cohomology(Z2, r, 2, A)):
            with pytest.raises(TruncationError, match=re.escape(
                    "level %d lies outside the computed range (1 <= r <= %d)" % (r, top))):
                refuse()
    # H^(r+2)(C(0,2), r; Z/2) = Z/2 at the cap, on every route
    assert cohomology_group(Z2, top, top + 2, A) == AbGroupInvariants(0, (2,))
    assert cochain_complex(Z2, top, A, top + 3).cohomology(top + 2) == AbGroupInvariants(0, (2,))
    assert brute_force_cohomology(Z2, top, top + 2, A)[2] == AbGroupInvariants(0, (2,))


def test_high_degrees_match_the_group_cohomology_of_cyclic_and_klein_groups():
    # the model answers degrees the iterated bar never reached; on groups
    # they are classical (Eilenberg and Mac Lane, On the groups H(Pi, n)):
    # H^2k(Z/q; Z) = Z/q and H^(2k+1) = 0 for k >= 1, and by Kunneth
    # H^2k((Z/2)^2; Z) = (Z/2)^(k+1) and H^(2k+1) = (Z/2)^k
    for q in range(2, 7):
        C = make_cyclic(0, q)
        assert cohomology_group(C, 1, 59, constant_module(Z, C)) == AbGroupInvariants(0)
        assert cohomology_group(C, 1, 60, constant_module(Z, C)) == AbGroupInvariants(0, (q,))
    klein = identity_last(validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)]))
    A = constant_module(Z, klein)
    assert cohomology_group(klein, 1, 59, A) == AbGroupInvariants(0, (2,) * 29)
    assert cohomology_group(klein, 1, 60, A) == AbGroupInvariants(0, (2,) * 31)
    # and a cyclic order whose iterated bar was out of reach in degree 2
    C = make_cyclic(0, 1025)
    G = zmod(2050)
    assert cohomology_group(C, 2, 4, constant_module(G, C)) == closed_form_top(1025, G) \
        == AbGroupInvariants(0, (1025,))


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
                src = cochain_group(dga, n, A)
                tgt = cochain_group(dga, n + 1, A)
                d = {t: explicit_low_degree_differential(M, t) for t in tgt.generators}
                assert dualize(d, src, tgt, M) == coboundary(dga, src, tgt)


def test_level3_top_coboundary_components_z2():
    # over (Z/2, Z/2): the xi row of d^5 is multiplication by -2 and the
    # gamma row carries the g coordinate
    dga, A = iterated_bar(Z2, 3, 6), constant_module(zmod(2), Z2)
    d5 = coboundary(dga, cochain_group(dga, 5, A), cochain_group(dga, 6, A))
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
    # suspension H^n(M, r; A) = H^{n+1}(M, r+1; A) over the whole stable
    # range inside the truncation guard, 1 <= n <= min(2r - 1, r + 2), on
    # the census and the cyclic monoids of order 5-7: the bar, R and
    # R1 (x) R2 routes.  The paper's stability criterion (H^r = H^1(M,1),
    # H^{r+1} = H^3(M,2)) is two iterates of it
    monoids = census() + [make_cyclic(m, k - m) for k in (5, 6, 7) for m in range(k)]
    for M in monoids:
        for A in (constant_module(Z, M), constant_module(zmod(4), M), zm_as_hmodule(M)):
            for r in (1, 2, 3):
                for n in range(1, min(2 * r - 1, r + 2) + 1):
                    assert cohomology_group(M, r, n, A) == \
                        cohomology_group(M, r + 1, n + 1, A), (M.table, r, n)


def _homology_of_k_zq(q, r, n):
    """H_n(K(Z/q, r); Z) for 0 <= n <= r + 2 as cyclic orders, 0 for Z:
    Eilenberg and Mac Lane, On the groups H(Pi, n), II (Ann. of Math.
    1954).  Degree r + 2 holds H_3(Z/q) = Z/q at r = 1, Whitehead's
    Gamma(Z/q) = Z/(q gcd(2, q)) at r = 2 and Z/q (x) Z/2 from r = 3 on."""
    if n == 0:
        return [0]
    if n == r:
        return [q]
    if n < r + 2:
        return []
    return [q] if r == 1 else [q * gcd(2, q)] if r == 2 else [gcd(2, q)]


def _hom(a, b):
    """Hom(Z/a, Z/b) as a cyclic order, 0 standing for Z."""
    return 1 if a and not b else gcd(a, b)


def _ext(a, b):
    """Ext(Z/a, Z/b) as a cyclic order, 0 standing for Z."""
    return gcd(a, b) if a else 1


def test_group_monoids_match_the_homology_of_eilenberg_mac_lane_spaces():
    # H^n(C(0,q), r; A) is the cohomology of K(Z/q, r): the hand-entered
    # integral homology through the universal coefficient theorem,
    # Hom(H_n, A) + Ext(H_{n-1}, A), an oracle independent of the engine
    for q in range(2, 8):
        M = make_cyclic(0, q)
        for b in (0, 2, 3, 4, 6):
            A = constant_module(zmod(b) if b else Z, M)
            for r in range(1, 5):
                for n in range(r + 3):
                    orders = [_hom(a, b) for a in _homology_of_k_zq(q, r, n)]
                    if n:
                        orders += [_ext(a, b) for a in _homology_of_k_zq(q, r, n - 1)]
                    assert cohomology_group(M, r, n, A) == \
                        AbGroupInvariants.from_diagonal(orders), (q, b, r, n)


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


def test_cone_ranks_need_no_smith_form_census():
    # the cone's free rank reads the Z-rank of [I_(n+1) | d_F^n], which
    # zlinalg.rank gives with no Smith form; on every census cone it is
    # the length of the Smith diagonal, for that block and for psi
    cases = 0
    for M in census():
        for name, A in mixed_modules(M):
            if prime_exponent(A):
                continue
            for r in (1, 2):
                cx = small_model_complex(M, r, A, r + 3)
                for n in range(r + 2):
                    for block in (cx._psi(n), cx._with_inclusion(n + 1, cx.coboundary(n))):
                        assert rank(block) == len(snf_diagonal(block)), (M.table, name, r, n)
                        cases += 1
    assert cases == 854


def small_model_matches_the_bar_route(M, deepest):
    """The small model of M against the iterated bar: Z, Z/4, Z+Z/2,
    ZM, ZM/2 and a twisted Z+Z/2 where M has a parity character, at
    levels 1-3 and degrees 0 to r + deepest; cohomology_group answers
    the top degree as the small model does."""
    modules = [(text, constant_module(parse_group_shorthand(text), M))
               for text in ("Z", "Z/4", "Z+Z/2")]
    modules += [("ZM", zm_as_hmodule(M)), ("ZM/2", zm_mod(M, 2))]
    chis = parity_characters(M)
    if chis:
        modules.append(("Z+Z/2 twisted", twisted_z_z2(M, chis[0])))
    for name, A in modules:
        for r in (1, 2, 3):
            top = r + deepest
            small = small_model_complex(M, r, A, top + 1)
            bar_route = cochain_complex(M, r, A, top + 1)
            for n in range(top + 1):
                assert small.cohomology(n) == bar_route.cohomology(n), (M.table, name, r, n)
            assert cohomology_group(M, r, top, A) == small.cohomology(top), (M.table, name, r)


def whole(M):
    return list(range(M.size))


def is_small_resolution(D):
    return D.basis[1] == (("w", 0),)


def index_and_period(R):
    """(m, q) of the small resolution R of C(m,q), read off
    d v_1 = (m + q) w_0 - m w_0 over two distinct translates."""
    coeffs = sorted(R.differential(("v", 1)).values())
    m = -coeffs[0] if coeffs[0] < 0 else 0
    return m, coeffs[-1] - m


def is_tensor_of_small_resolutions(D):
    return D.basis[0] == ((("v", 0), ("v", 0)),)


def test_small_model_matches_the_bar_route_on_cyclic_tables():
    # a cyclic table is answered through Hom(B^(r-1)(R), A), R built in
    # the table's own labels; the iterated bar is the oracle.  Every table
    # is relabelled with its identity last, so the powers of its generator
    # are not its labels.  Degree r + 2 runs on orders 2-4 only: on order 6
    # the bar route alone takes about 15 s there for the twisted module
    cyclic = [M for M in census() if is_small_resolution(model(M, whole(M), 6))]
    assert sorted(index_and_period(model(M, whole(M), 6)) for M in cyclic) == \
        sorted((m, k - m) for k in (2, 3, 4) for m in range(k))
    monoids = cyclic + [make_cyclic(m, k - m) for k in (5, 6, 7) for m in range(k)]
    for M in map(identity_last, monoids):
        R = model(M, whole(M), 6)
        assert is_small_resolution(R) and R.pi[("v", 0)] == M.size - 1
        assert validate_dga(R) == [], M.table
        small_model_matches_the_bar_route(M, 2 if M.size < 5 else 1)


def test_small_model_matches_the_bar_route_on_products_of_cyclic_tables():
    # a product of two cyclic submonoids is answered through
    # Hom(B^(r-1)(R1 (x) R2), A), each R built in the table's own labels:
    # the 3 census products of order 4 and the four of order 6 that are
    # not cyclic (C(0,2) x C(0,3) is C(0,6)) and have a factor of order
    # 3 other than C(0,3) or no parity character, each relabelled with
    # its identity last
    products = [M for M in census() if is_tensor_of_small_resolutions(model(M, whole(M), 6))]
    assert len(products) == 3
    pairs = ((1, 2, 1, 1), (2, 1, 0, 2), (2, 1, 1, 1), (0, 3, 1, 1))
    products += [product_table(make_cyclic(m1, q1), make_cyclic(m2, q2))
                 for m1, q1, m2, q2 in pairs]
    for M in map(identity_last, products):
        tensor = model(M, whole(M), 6)
        assert is_tensor_of_small_resolutions(tensor), M.table
        assert tensor.pi[tensor.unit] == M.size - 1
        assert validate_dga(tensor) == [], M.table
        small_model_matches_the_bar_route(M, 2 if M.size < 5 else 1)


SEMILATTICE = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])


def test_product_models_match_the_bar_route(monkeypatch):
    # (Z/2)^3, the semilattice x C(0,2) and the semilattice squared, each
    # relabelled with its identity last, are answered through the tensor
    # product of their factors' models, R or the bar on ZN, which
    # validate_dga accepts wherever the recursion builds one; the
    # iterated bar is the oracle, at levels 1-3 and degrees up to r + 1
    built = {}

    def recording(M, N, top):
        D = model(M, N, top)
        built.setdefault((M, tuple(N), top), D)
        return D
    monkeypatch.setattr(cohomology, "model", recording)
    R, bar_on_zn = ("v", 0), ()
    cube = product_table(product_table(Z2, Z2), Z2)
    for M, unit in ((cube, (R, (R, R))), (product_table(SEMILATTICE, Z2), (R, bar_on_zn)),
                    (product_table(SEMILATTICE, SEMILATTICE), (bar_on_zn, bar_on_zn))):
        M = identity_last(M)
        small_model_matches_the_bar_route(M, 1)
        assert built[(M, tuple(whole(M)), 3)].unit == unit, M.table
    for D in built.values():
        assert validate_dga(D) == []


def test_cohomology_group_never_builds_the_iterated_bar(monkeypatch):
    # every table reads its model: cyclic tables and products, relabelled
    # or not, and the semilattice, a census monoid of order 4 that splits
    # into no product, (Z/2)^3 and the one-element table, each with the
    # answer of the iterated bar.  A cyclic table with a module that breaks
    # its laws is refused before any model is built.  The iterated bar
    # answers C(3,4) Z H^4(M,1) from its 7776x1296 d^4, and C(2,3) ZM
    # H^2(M,1) from the cone, and the models agree
    C34, C12r = make_cyclic(3, 4), identity_last(C12)
    assert cochain_complex(C34, 1, constant_module(Z, C34), 5).cohomology(4) == \
        AbGroupInvariants(0, (4,))
    assert cochain_complex(C23, 1, zm_as_hmodule(C23), 3).cohomology(2) == \
        AbGroupInvariants(6, (3,))
    semilattice, one = SEMILATTICE, validate_table(1, 0, [[0]])
    no_split = next(M for M in census((4,)) if split_whole(M) is None
                    and not is_small_resolution(model(M, whole(M), 2)))
    cube = product_table(product_table(Z2, Z2), Z2)
    general = [(M, constant_module(Z, M)) for M in (semilattice, no_split, cube, one)]
    general += [(M, zm_as_hmodule(M)) for M in (semilattice, no_split, cube, one)]
    expected = [cochain_complex(M, 2, A, 4).cohomology(3) for M, A in general]

    def no_bar(*args):
        raise AssertionError("the iterated bar was built")
    monkeypatch.setattr(cohomology, "iterated_bar", no_bar)
    assert [cohomology_group(M, 2, 3, A) for M, A in general] == expected
    assert cohomology_group(C34, 1, 4, constant_module(Z, C34)) == AbGroupInvariants(0, (4,))
    assert cohomology_group(C23, 1, 2, zm_as_hmodule(C23)) == AbGroupInvariants(6, (3,))
    assert cohomology_group(C12r, 2, 3, zm_as_hmodule(C12r)) == AbGroupInvariants(0, (2, 2, 2))
    klein = identity_last(validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)]))
    assert cohomology_group(klein, 2, 4, constant_module(zmod(2), klein)) == \
        AbGroupInvariants(0, (2, 2, 2))
    C12xC11 = identity_last(product_table(C12, C11))
    assert cohomology_group(C12xC11, 1, 2, zm_as_hmodule(C12xC11)) == \
        AbGroupInvariants(0, (2, 2, 2))
    C03 = make_cyclic(0, 3)
    breaks_composition = HModule(C03, [zmod(4)] * 3, {
        (x, y): IntMatrix.from_rows([[1 if y == 0 else 2]]) for x in range(3) for y in range(3)})
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


def test_each_cochain_group_of_a_query_is_built_once(monkeypatch):
    # dualize reads the cochain groups its caller built: H^n builds the
    # groups of degrees n - 1, n and n + 1 and dualizes d^(n-1) and d^n,
    # the empty degree -1 included, and H^n_G builds the symmetric
    # ambient and the identities' group of degrees n and n - 1
    # (n - 1 >= 1) and the level-1 group of degree n + 1
    from monoid_cohomology import hmod
    built = []
    init = hmod.CochainGroup.__init__

    def counting(self, generators, pi, module):
        generators = tuple(generators)
        built.append((generators, tuple(pi[g] for g in generators), id(module)))
        init(self, generators, pi, module)
    monkeypatch.setattr(hmod.CochainGroup, "__init__", counting)
    dualized = []

    def counting_dualize(*args):
        dualized.append(args)
        return dualize(*args)
    monkeypatch.setattr(cohomology, "dualize", counting_dualize)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    for M in (C12, klein, semilattice):
        for A in (constant_module(zmod(4), M), zm_as_hmodule(M)):
            for r in (1, 2, 3):
                for n in (0, r + 2):
                    built.clear()
                    dualized.clear()
                    cohomology_group(M, r, n, A)
                    # three builds for three degrees: none twice (at levels
                    # 2 and 3 the groups of degrees -1 and 1 may be equal,
                    # both empty)
                    assert len(built) == 3, (M.table, r, n)
                    assert len(dualized) == 2, (M.table, r, n)
    for A in (constant_module(zmod(2), C12), zm_as_hmodule(C12)):
        for n in (1, 2, 3):
            built.clear()
            grillet_cohomology(C12, A, n)
            assert len(built) == (3 if n == 1 else 5) == len(set(built)), n
        for entry, count in ((injectivity_check, 7), (inclusion_chainmap, 11)):
            built.clear()
            entry(C12, A)
            assert len(built) == count == len(set(built)), entry.__name__


def test_cone_free_rank_needs_no_second_module(monkeypatch):
    # the free rank comes from ranks the cone already has, and its top
    # rows [d_R | K] from the stored d_F: once d^2 and d^3 are built, H^3
    # dualizes nothing more
    C04 = make_cyclic(0, 4)
    cx = cochain_complex(C04, 1, twisted_z_z2(C04, (0, 1, 0, 1)), 4)
    cx.coboundary(2)
    cx.coboundary(3)
    calls = []

    def counting(*args):
        calls.append(args)
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


def test_lawless_modules_are_refused_at_every_entry_point(monkeypatch):
    # every entry point that reads a tabular module refuses one that
    # breaks its laws with the same one-line ModuleError, on cyclic tables,
    # on Klein, a product of two cyclic submonoids that takes the small
    # model route too, and on the semilattice, before any bar or small
    # model is built
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


def test_cohomology_group_checks_the_laws_once_on_every_route(monkeypatch):
    # cochain_complex checks the laws itself, so the bar route, like the
    # small model routes, reads each module once
    calls = []

    def counting(module, M):
        calls.append(M)
        return require_lawful(module, M)
    monkeypatch.setattr(cohomology, "require_lawful", counting)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    for M in (make_cyclic(0, 3), klein, semilattice):
        calls.clear()
        cohomology_group(M, 1, 2, zm_as_hmodule(M))
        assert calls == [M]


def test_a_product_column_outside_the_relations_names_its_cell():
    # cochain_complex refuses a module that breaks its laws, and a
    # CochainComplex built directly checks none, but the cone's own solve
    # of its top rows still refuses a translation that maps a relation
    # outside the relations, naming the element of the cell the column
    # lands on
    C03 = make_cyclic(0, 3)
    one = IntMatrix.from_rows([[1]])
    # 2_*: A(1) = Z/2 -> A(0) = Z/4 maps the relation 2 to 2, outside 4Z
    A = HModule(C03, [zmod(4), zmod(2), zmod(2)],
                {(x, y): one for x in range(3) for y in range(3)})
    for entry in (lambda: cohomology_group(C03, 1, 1, A), lambda: cochain_complex(C03, 1, A, 2)):
        with pytest.raises(ModuleError, match="violates the module laws"):
            entry()
    with pytest.raises(ModuleError, match=re.escape(
            "leaves the relations of A(0): the translations break the module laws")):
        CochainComplex(iterated_bar(C03, 1, 2), A).cohomology(1)


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


def test_prime_exponent_route_matches_the_cone_census(monkeypatch):
    # ZM/2 and ZM/3 take the F_p route (hmod.prime_exponent), which reads
    # no Smith diagonal; the cone on the same complex is its oracle, and
    # so is the brute-force search under its cap, on every table of order
    # 2-4 and on Klein and the semilattice relabelled, at levels 1-3
    diagonals = []

    def recording(A):
        diagonals.append(A)
        return snf_diagonal(A)
    monkeypatch.setattr(cohomology, "snf_diagonal", recording)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    cases, brute = 0, []
    for M in census() + [identity_last(klein), identity_last(semilattice)]:
        for q in (2, 3):
            A = zm_mod(M, q)
            assert prime_exponent(A) == q
            for r in (1, 2, 3):
                cx = small_model_complex(M, r, A, r + 3)
                for n in range(r + 3):
                    diagonals.clear()
                    h = cx.cohomology(n)
                    assert diagonals == [], (M.table, q, r, n)
                    assert h == cx._cone_cohomology(n), (M.table, q, r, n)
                    cases += 1
                    if r == 1 and n <= 2:
                        try:
                            assert brute_force_cohomology(M, r, n, A)[2] == h, (M.table, q, n)
                        except BruteForceCapError:
                            continue
                        brute.append((M.size, q, n))
    assert (cases, len(brute)) == (2 * 28 * 15, 105)


def test_prime_exponent_rule_boundaries():
    # the rule takes one prime p with every A(x) presented by p I; every
    # other presentation takes the cone, with the same answers as the
    # constant module read by universal coefficients
    def tabular(M, groups, value=lambda x, y: 1):
        return HModule(M, groups, {(x, y): IntMatrix.diagonal([value(x, y)] * groups[x].ngens)
                                   if groups[x].ngens == groups[M.op(x, y)].ngens
                                   else IntMatrix(groups[M.op(x, y)].ngens, groups[x].ngens)
                                   for x in range(M.size) for y in range(M.size)})
    C03 = make_cyclic(0, 3)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    # (Z/2)^2 as Z^3 / <(1, 1, 0), (0, 2, 0), (0, 0, 2)>, and as 2 I
    skew = FGAbelianGroup(3, IntMatrix.from_columns([[1, 1, 0], [0, 2, 0], [0, 0, 2]], 3))
    assert skew.invariants() == AbGroupInvariants(0, (2, 2))
    square = parse_group_shorthand("Z/2+Z/2")
    for M in (C12, C03, klein):
        cases = [(skew, None), (square, 2), (zmod(1), None), (zmod(4), None),
                 (zmod(561), None), (parse_group_shorthand("Z/2+Z/3"), None),
                 (zmod(2 ** 61 - 1), 2 ** 61 - 1), (zmod(2 ** 89 - 1), None)]
        for G, p in cases:
            A = tabular(M, [G] * M.size)
            assert validate_module(A) == [] and prime_exponent(A) == p, (G, p)
            for r, n in ((1, 0), (1, 2), (1, 3), (2, 4), (3, 5)):
                expect = cohomology_group(M, r, n, constant_module(G, M))
                cx = small_model_complex(M, r, A, n + 1)
                assert cx.cohomology(n) == cx._cone_cohomology(n) == expect, (M.table, G, r, n)
    # Z/2 at the identity, Z/3 elsewhere, the non-units mapping Z/2 by 0:
    # two primes, so the cone
    e = C12.identity
    mixed = tabular(C12, [zmod(2) if x == e else zmod(3) for x in range(C12.size)],
                    lambda x, y: 0 if x == e and y != e else 1)
    assert validate_module(mixed) == [] and prime_exponent(mixed) is None
    # a value group with no generators passes
    zero = tabular(C12, [zmod(2) if x == e else FGAbelianGroup.free(0) for x in range(C12.size)])
    assert validate_module(zero) == [] and prime_exponent(zero) == 2
    for A in (mixed, zero):
        cx = small_model_complex(C12, 2, A, 5)
        for n in range(5):
            assert cx.cohomology(n) == lattice_route(cx, n), n
    # a module known at finitely many elements of an infinite monoid
    assert prime_exponent(constant_module(zmod(2))) is None


def test_the_prime_route_refuses_a_curved_module():
    # every A(x) = Z/2 on C(0,3), the non-units acting by 0: 1_* 2_* = 0
    # but (1 + 2)_* = e_* = 1, so d_F d_F is not 0 mod 2 from degree 2 on
    # the iterated bar; the entry points refuse the module, and a complex
    # built directly meets the F_p route's check, as it meets the cone's
    C03 = make_cyclic(0, 3)
    e = C03.identity
    A = HModule(C03, [zmod(2)] * 3, {(x, y): IntMatrix.from_rows([[1 if y == e else 0]])
                                     for x in range(3) for y in range(3)})
    assert validate_module(A) and prime_exponent(A) == 2
    with pytest.raises(ModuleError, match="violates the module laws"):
        cohomology_group(C03, 1, 2, A)
    for n in (2, 3):
        cx = CochainComplex(iterated_bar(C03, 1, n + 1), A)
        with pytest.raises(ModuleError, match=re.escape("d_F d_F is not 0 mod 2")):
            cx.cohomology(n)
        with pytest.raises(ModuleError, match="leaves the relations"):
            cx._cone_cohomology(n)
