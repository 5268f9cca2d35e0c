import pytest

from monoid_cohomology.cohomology import cohomology_group
from monoid_cohomology.groupoid import (GroupoidError, MonoidalFunctorData,
                                        build_monoidal_iso, check_coherence,
                                        cocycle_check, crossed_product,
                                        enumerate_cochain_tables,
                                        extract_triple, iso_classes,
                                        verify_monoidal_iso)
from monoid_cohomology.hmod import (FGAbelianGroup, constant_module,
                                    validate_module)
from monoid_cohomology.monoid import make_cyclic
from monoid_cohomology.zlinalg import IntMatrix

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


A2 = constant_module(zmod(2), Z2)


def test_strict_groupoid_is_coherent():
    G = crossed_product(Z2, A2, {}, {})
    assert check_coherence(G).ok()
    assert cocycle_check(Z2, A2, {}, {})


def test_nontrivially_symmetric_groupoid():
    G = crossed_product(Z2, A2, {}, {(1, 1): (1,)})
    assert check_coherence(G).ok()


def test_non_cocycle_fails_hexagon():
    g = {(1, 1, 1): (1,)}
    G = crossed_product(Z2, A2, g, {})
    report = check_coherence(G)
    assert not report.ok()
    assert {c for c, _ in report.failures} == {"5.3"}
    assert (1, 1, 1) in [w for c, w in report.failures if c == "5.3"]
    assert not cocycle_check(Z2, A2, g, {})


def test_construction_validates_values():
    with pytest.raises(GroupoidError):
        crossed_product(Z2, A2, {(1, 1, 1): (1, 0)}, {})
    with pytest.raises(GroupoidError):
        crossed_product(Z2, A2, {(0, 1, 1): (1,)}, {})  # unit argument
    with pytest.raises(GroupoidError):
        crossed_product(Z2, A2, {}, {(True, 1): (1,)})  # a bool is no element


def test_cocycle_iff_coherent_on_enumeration_grid():
    for M in (Z2, C11):
        for G in (zmod(2), zmod(4)):
            A = constant_module(G, M)
            for g in enumerate_cochain_tables(M, A, 3):
                for mu in enumerate_cochain_tables(M, A, 2):
                    assert cocycle_check(M, A, g, mu) == \
                        check_coherence(crossed_product(M, A, g, mu)).ok()


def test_cocycle_count_z2():
    A = A2
    pairs = [(g, mu) for g in enumerate_cochain_tables(Z2, A, 3)
             for mu in enumerate_cochain_tables(Z2, A, 2)]
    assert len(pairs) == 4
    cocycles = [(g, mu) for g, mu in pairs if cocycle_check(Z2, A, g, mu)]
    assert len(cocycles) == 2
    # exactly the pairs with vanishing associativity table
    assert all(all(v == (0,) for v in g.values()) for g, _ in cocycles)


def _transport_tables(M, f, modulus):
    """(g, mu) of the coboundary of a binary table over a one-generator
    cyclic value group, reduced mod the order."""
    def fv(a, b):
        if a == 0 or b == 0:
            return 0
        return f.get((a, b), (0,))[0]

    g = {}
    mu = {}
    for x in M.nonunit():
        for y in M.nonunit():
            for z in M.nonunit():
                val = (fv(y, z) - fv(M.op(x, y), z)
                       + fv(x, M.op(y, z)) - fv(x, y)) % modulus
                if val:
                    g[(x, y, z)] = (val,)
            val = (fv(y, x) - fv(x, y)) % modulus
            if val:
                mu[(x, y)] = (val,)
    return g, mu


def test_coboundaries_are_cocycles():
    # any coboundary pair is a 5-cocycle, over C_{1,2} where the
    # transport is nonzero
    M = C12
    A = constant_module(zmod(2), M)
    nontrivial = 0
    for f in enumerate_cochain_tables(M, A, 2):
        g, mu = _transport_tables(M, f, 2)
        assert cocycle_check(M, A, g, mu), (f, g, mu)
        if g or mu:
            nontrivial += 1
    assert nontrivial > 0


def test_identity_iso_classes_z2():
    cocycles, classes = iso_classes(Z2, A2)
    assert len(cocycles) == 2
    assert len(classes) == 2
    h5 = cohomology_group(Z2, 3, 5, A2)
    assert h5.order() == len(classes)


def test_no_iso_between_distinct_symmetries():
    src = crossed_product(Z2, A2, {}, {})
    tgt = crossed_product(Z2, A2, {}, {(1, 1): (1,)})
    ident = (0, 1)
    psi = {x: IntMatrix.identity(1) for x in range(2)}
    assert not any(
        verify_monoidal_iso(src, tgt, MonoidalFunctorData(ident, psi, f))[0]
        for f in enumerate_cochain_tables(Z2, A2, 2))


def test_identity_iso_and_builder():
    src = crossed_product(Z2, A2, {}, {})
    ident = (0, 1)
    psi = {x: IntMatrix.identity(1) for x in range(2)}
    data = build_monoidal_iso(src, src, ident, psi, {})
    assert data.f == {}
    with pytest.raises(GroupoidError):
        build_monoidal_iso(src, crossed_product(Z2, A2, {}, {(1, 1): (1,)}),
                           ident, psi, {})


def test_coboundary_gives_isomorphism():
    # pick f nonzero over C_{1,2}; the crossed products of (0,0) and of
    # its f-transport are isomorphic through that very f
    M = C12
    A = constant_module(zmod(2), M)
    f = {(1, 2): (1,)}
    g2, mu2 = _transport_tables(M, f, 2)
    assert g2 or mu2
    assert cocycle_check(M, A, g2, mu2)
    src = crossed_product(M, A, {}, {})
    tgt = crossed_product(M, A, g2, mu2)
    ident = tuple(range(M.size))
    psi = {x: IntMatrix.identity(1) for x in M.elements()}
    ok, witness = verify_monoidal_iso(src, tgt, MonoidalFunctorData(ident, psi, f))
    assert ok, witness


def test_extraction_round_trip():
    mu = {(1, 1): (1,)}
    G = crossed_product(Z2, A2, {}, mu)
    M2, A2x, g2, mu2 = extract_triple(G)
    assert M2 == Z2 and g2 == {} and mu2 == mu
    assert validate_module(A2x) == []
    with pytest.raises(GroupoidError):
        extract_triple(crossed_product(Z2, A2, {(1, 1, 1): (1,)}, {}))


def test_class_count_matches_h5_on_enumeration_grid():
    for M in (Z2, C11):
        for G in (zmod(2), zmod(4)):
            A = constant_module(G, M)
            cocycles, classes = iso_classes(M, A)
            h5 = cohomology_group(M, 3, 5, A)
            assert len(classes) == h5.order(), (M, G, len(classes), h5)


def _per_pair_cocycles(M, A, gs):
    return [(g, mu) for g in gs for mu in enumerate_cochain_tables(M, A, 2)
            if cocycle_check(M, A, g, mu)]


def test_iso_classes_lists_the_per_pair_cocycles_in_order():
    # iso_classes runs each g's pentagon once and the mu components only
    # for a g that passes; its list is the per-pair filter, in order
    for M, n in ((Z2, 2), (Z2, 3), (C11, 2), (C11, 3), (make_cyclic(0, 3), 2),
                 (C12, 2)):
        A = constant_module(zmod(n), M)
        cocycles, _ = iso_classes(M, A)
        assert cocycles == _per_pair_cocycles(
            M, A, enumerate_cochain_tables(M, A, 3)), (M, n)


def test_iso_classes_cocycles_on_sampled_g_tables_c03_z3():
    # C(0,3) with Z/3 has 3^12 pairs, and the per-pair filter over all
    # of them takes minutes; compare it on the g tables of the listed
    # cocycles and on every 243rd g table
    M = make_cyclic(0, 3)
    A = constant_module(zmod(3), M)
    cocycles, classes = iso_classes(M, A)
    assert (len(cocycles), len(classes)) == (9, 1)
    gs = enumerate_cochain_tables(M, A, 3)
    listed = [g for g, _ in cocycles]
    sample = [g for k, g in enumerate(gs) if k % 243 == 0 or g in listed]
    assert len(sample) > 27
    assert [(g, mu) for g, mu in cocycles if g in sample] == \
        _per_pair_cocycles(M, A, sample)


def test_classification_search_is_capped(monkeypatch):
    # |g tables| * |mu tables| is counted from the group orders before
    # anything is listed: C(3,3) with Z/2 has 2^125 * 2^25 pairs
    import monoid_cohomology.groupoid as groupoid

    def no_listing(*args):
        raise AssertionError("tables listed before the size check")

    monkeypatch.setattr(groupoid, "enumerate_cochain_tables", no_listing)
    big = make_cyclic(3, 3)
    for M, A in ((big, constant_module(zmod(2), big)),
                 (C12, constant_module(zmod(4), C12)),  # 4^12 = 2^24 pairs
                 (Z2, constant_module(FGAbelianGroup.free(1), Z2))):
        with pytest.raises(GroupoidError):
            iso_classes(M, A)


def test_automorphism_search_runs():
    from monoid_cohomology.groupoid import monoid_automorphisms
    assert monoid_automorphisms(Z2) == [(0, 1)]
    cocycles, classes = iso_classes(Z2, A2, search_automorphisms=True)
    assert len(classes) == 2
    big = make_cyclic(2, 3)
    with pytest.raises(GroupoidError):
        iso_classes(big, constant_module(zmod(2), big),
                    search_automorphisms=True)
