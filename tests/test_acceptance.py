"""Acceptance suite: the ten exit criteria, one test each.

Every check is exact (group isomorphism types, chain-level identities,
integer counts); there are no numeric tolerances to calibrate.  Each
test prints a single pass/fail line (visible with `pytest -s`).
"""

from itertools import product

from monoid_cohomology.bar import bar, bar_word_diff, iterated_bar, validate_dga
from monoid_cohomology.cohomology import (BRUTE_FORCE_CAP, CochainComplex,
                                          brute_force_cohomology,
                                          cochain_complex, cohomology_group)
from monoid_cohomology.cyclic import (closed_form_top, infinite_cyclic_groups,
                                      leech_groups_cyclic,
                                      level2_groups_cyclic,
                                      small_resolution, small_resolution_inf,
                                      torsion_subgroup_invariants,
                                      verify_contraction,
                                      verify_contraction_inf)
from monoid_cohomology.grillet import (grillet_cohomology, inclusion_chainmap,
                                       injectivity_check)
from monoid_cohomology.groupoid import (check_coherence, cocycle_check,
                                        crossed_product,
                                        enumerate_cochain_tables,
                                        iso_classes)
from monoid_cohomology.hmod import FGAbelianGroup, constant_module
from monoid_cohomology.monoid import make_cyclic
from monoid_cohomology.zlinalg import AbGroupInvariants

from helpers import explicit_low_degree_differential
from monoid_census import census

Z = FGAbelianGroup.free(1)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


GRID_MONOIDS = [make_cyclic(0, 2), make_cyclic(1, 1),
                make_cyclic(1, 2), make_cyclic(2, 3)]
GRID_COEFFS = [Z, zmod(2), zmod(4)]
# the paper's theorems are checked on every monoid of order 2-4 and on C(2,3)
THEOREM_MONOIDS = census() + [make_cyclic(2, 3)]
THEOREM_COEFFS = GRID_COEFFS + [zmod(6)]


def _report(num, ok, text):
    print("criterion %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_1_unit_value_and_vanishing_band():
    checked = 0
    for M in THEOREM_MONOIDS:
        for r in (1, 2, 3):
            for G in THEOREM_COEFFS:
                A = constant_module(G, M)
                assert cohomology_group(M, r, 0, A) == G.invariants(), (M.table, G, r)
                for n in range(1, r):
                    assert cohomology_group(M, r, n, A).is_trivial(), (M.table, G, r, n)
                checked += 1
    _report(1, True, "H^0 = A(e) and H^n = 0 for 0<n<r on %d instances" % checked)


def test_criterion_2_leech_level1_integral():
    for q in (2, 3, 4):
        C = make_cyclic(0, q)
        A = constant_module(Z, C)
        bar_route = cochain_complex(C, 1, A, 7)
        pipeline = {n: bar_route.cohomology(n) for n in range(7)}
        assert pipeline[0] == AbGroupInvariants(1)
        for k in (0, 1, 2):
            odd, even = leech_groups_cyclic(0, q, k, A)
            assert pipeline[2 * k + 1] == odd
            assert pipeline[2 * k + 2] == even
        for n in range(1, 7):
            if n % 2:
                assert pipeline[n].is_trivial()
            else:
                assert pipeline[n] == AbGroupInvariants(0, (q,))
    _report(2, True, "H^n(C_{0,q},1;Z) for q in {2,3,4}, n <= 6, both routes")


def test_criterion_3_stability_isomorphisms():
    checked = 0
    for M in THEOREM_MONOIDS:
        for G in THEOREM_COEFFS:
            A = constant_module(G, M)
            h1 = cohomology_group(M, 1, 1, A)
            h3 = cohomology_group(M, 2, 3, A)
            for r in (2, 3):
                assert cohomology_group(M, r, r, A) == h1, (M.table, G, r)
                assert cohomology_group(M, r, r + 1, A) == h3, (M.table, G, r)
                checked += 2
    _report(3, True, "H^r = H^1(M,1), H^{r+1} = H^3(M,2) for r in {2,3}: "
            "%d isomorphisms" % checked)


def test_criterion_4_h4_three_ways():
    expectations = {
        (2, "Z/2"): AbGroupInvariants(0, (2,)),
        (2, "Z/4"): AbGroupInvariants(0, (4,)),
        (2, "Z/9"): AbGroupInvariants(0,),
        (2, "Z"): AbGroupInvariants(0,),
        (3, "Z/2"): AbGroupInvariants(0,),
        (3, "Z/4"): AbGroupInvariants(0,),
        (3, "Z/9"): AbGroupInvariants(0, (3,)),
        (3, "Z"): AbGroupInvariants(0,),
        (1, "Z/2"): AbGroupInvariants(0,),
        (1, "Z/4"): AbGroupInvariants(0,),
        (1, "Z/9"): AbGroupInvariants(0,),
        (1, "Z"): AbGroupInvariants(0,),
    }
    coeffs = [("Z/2", zmod(2)), ("Z/4", zmod(4)), ("Z/9", zmod(9)), ("Z", Z)]
    for m, q in ((0, 2), (1, 2), (2, 3), (1, 1)):
        C = make_cyclic(m, q)
        for name, G in coeffs:
            A = constant_module(G, C)
            generic = cochain_complex(C, 2, A, 5).cohomology(4)
            _, _, small = level2_groups_cyclic(m, q, A)
            closed = closed_form_top(q, G)
            assert generic == small == closed, (m, q, name, generic, small, closed)
            assert generic == expectations[(q, name)]
    _report(4, True, "H^4(C,2;A) = Hom(Z/(2q,q^2),A) three ways on 16 instances")


def test_criterion_5_contractions():
    cases = []
    for m in range(0, 5):
        for q in range(1, 6 - m):
            if m + q >= 2:
                cases.append((m, q))
    for m, q in cases:
        report = verify_contraction(m, q, 4)
        assert report.all_pass(), (m, q, report.failures())
    inf_report = verify_contraction_inf(4, 5)
    assert inf_report.all_pass(), inf_report.failures()
    _report(5, True, "all contraction identities for %d finite cyclic monoids "
            "and the infinite one" % len(cases))


def test_criterion_6_oracle_equivalence():
    grid = [(make_cyclic(0, 2), zmod(2)), (make_cyclic(1, 1), zmod(2)),
            (make_cyclic(0, 2), zmod(4))]
    for M, G in grid:
        A = constant_module(G, M)
        for r, n in ((2, 3), (2, 4), (3, 5)):
            z, b, inv = brute_force_cohomology(M, r, n, A)
            pipeline = cohomology_group(M, r, n, A)
            assert inv == pipeline, (M, G, r, n, inv, pipeline)
            assert (pipeline.order() or 0) * b == z
    h5 = cohomology_group(make_cyclic(0, 2), 3, 5,
                          constant_module(zmod(2), make_cyclic(0, 2)))
    assert h5.order() == 2
    _report(6, True, "brute force == SNF pipeline on 9 instances; |H^5(Z/2,3;Z/2)| = 2")


def test_criterion_6_oracle_on_the_census():
    # brute force searches C^n and lists C^(n-1), so it runs wherever
    # each of them fits BRUTE_FORCE_CAP: 449 cases
    checked = 0
    for M in census():
        for d in (2, 4, 6):
            A = constant_module(zmod(d), M)
            for r, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4),
                         (3, 3), (3, 4), (3, 5)):
                basis = iterated_bar(M, r, max(n, r)).basis
                if max(d ** len(basis.get(k, ())) for k in (n - 1, n)) > BRUTE_FORCE_CAP:
                    continue
                z, b, inv = brute_force_cohomology(M, r, n, A)
                assert inv == cohomology_group(M, r, n, A), (M, d, r, n, inv)
                checked += 1
    _report(6, checked == 449, "brute force == SNF pipeline on %d census cases" % checked)


def test_criterion_7_grillet_comparison():
    for M in GRID_MONOIDS:
        for G in GRID_COEFFS:
            A = constant_module(G, M)
            assert grillet_cohomology(M, A, 1) == cohomology_group(M, 1, 1, A)
            assert grillet_cohomology(M, A, 2) == cohomology_group(M, 2, 3, A)
    for M in GRID_MONOIDS:
        A = constant_module(zmod(4), M)
        _, report = inclusion_chainmap(M, A)
        assert report.all_pass(), (M, report)
    for M in GRID_MONOIDS:
        for G in GRID_COEFFS:
            ok, witness = injectivity_check(M, constant_module(G, M))
            assert ok, (M, G, witness)
    _report(7, True, "H^1_G, H^2_G isomorphisms, inclusion squares, and "
            "injectivity of H^3_G -> H^5 on the grid")


def test_criterion_8_groupoid_classification():
    M = make_cyclic(0, 2)
    A = constant_module(zmod(2), M)
    pairs = [(g, mu) for g in enumerate_cochain_tables(M, A, 3)
             for mu in enumerate_cochain_tables(M, A, 2)]
    assert len(pairs) == 4
    flags = [(cocycle_check(M, A, g, mu),
              check_coherence(crossed_product(M, A, g, mu)).ok())
             for g, mu in pairs]
    assert all(c == k for c, k in flags)
    assert sum(1 for c, _ in flags if c) == 2
    cocycles, classes = iso_classes(M, A)
    h5 = cohomology_group(M, 3, 5, A)
    assert len(cocycles) == 2 and len(classes) == 2 == h5.order()
    _report(8, True, "2 of 4 pairs are 5-cocycles, coherence matches, "
            "iso classes = |H^5| = 2")


def test_criterion_9_infinite_cyclic():
    samples = {0: Z, 1: Z, 2: zmod(4)}
    for k in (0, 1, 2):
        assert infinite_cyclic_groups(2, 2 * k, samples) == \
            samples[k].invariants()
        if 2 * k + 1 <= 5:
            assert infinite_cyclic_groups(2, 2 * k + 1, samples).is_trivial()
    expected = {"Z": AbGroupInvariants(0), "Z/2": AbGroupInvariants(0, (2,)),
                "Z/4": AbGroupInvariants(0, (2,)), "Z/3": AbGroupInvariants(0)}
    for name, G in (("Z", Z), ("Z/2", zmod(2)), ("Z/4", zmod(4)), ("Z/3", zmod(3))):
        assert infinite_cyclic_groups(3, 5, {2: G}) == expected[name]
        # engine route: Hom(B^2(R), A) for the constant module
        A = constant_module(G)
        cx = CochainComplex(bar(bar(small_resolution_inf(6), 6), 6), A)
        assert cx.cohomology(5) == expected[name]
        assert cx.cohomology(5) == torsion_subgroup_invariants(G, 2)
    A = constant_module(zmod(4))
    cx = CochainComplex(bar(small_resolution_inf(5), 5), A)
    for k in (0, 1, 2):
        assert cx.cohomology(2 * k) == zmod(4).invariants()
    assert cx.cohomology(1).is_trivial() and cx.cohomology(3).is_trivial()
    _report(9, True, "H^{2k}(Cinf,2;A) = A(k), odd vanish, H^5(Cinf,3;A) = "
            "2-torsion of A(2), closed form and engine")


def test_criterion_10_structural_suites():
    # dga axioms (dd = 0, graded commutativity, associativity, unit,
    # Leibniz, projections, augmentation) on every complex in the grid
    for M in GRID_MONOIDS:
        small = M.size <= 3
        for r in (1, 2, 3):
            degmax = r + 3 if small else (r + 3 if r > 1 else 4)
            D = iterated_bar(M, r, degmax)
            bad = validate_dga(D, product_degree_cap=5, triple_degree_cap=4)
            assert bad == [], (M, r, bad[:3])
    for m, q in ((0, 2), (1, 1), (1, 2), (2, 3), (0, 5), (4, 1)):
        R = small_resolution(m, q, 6)
        assert validate_dga(R, product_degree_cap=6, triple_degree_cap=6) == []
        B = bar(R, 5)
        assert validate_dga(B, product_degree_cap=5, triple_degree_cap=5) == []
    Rinf = small_resolution_inf(6)
    assert validate_dga(Rinf) == []
    assert validate_dga(bar(Rinf, 6)) == []
    assert validate_dga(bar(bar(Rinf, 6), 6)) == []
    # the five closed low-degree differential formulas, exactly
    shapes_checked = 0
    for M in GRID_MONOIDS:
        nu = M.nonunit()
        for x in nu:
            cells = [((x,), (), 1)]
            for y in nu:
                cells += [((x, y), (1,), 1), ((x, y), (2,), 2), ((x, y), (3,), 3)]
                for z in nu:
                    cells += [((x, y, z), (1, 1), 1), ((x, y, z), (2, 1), 2),
                              ((x, y, z), (1, 2), 2)]
            for letters, seps, level in cells:
                from monoid_cohomology.bar import BarWord
                w = BarWord(letters, seps, level)
                assert explicit_low_degree_differential(M, w) == \
                    bar_word_diff(M, w)
                shapes_checked += 1
    _report(10, True, "DGA axioms on every grid complex; %d explicit "
            "differential cells match" % shapes_checked)
