import random
from itertools import product

import pytest

from monoid_cohomology.cohomology import BRUTE_FORCE_CAP, cohomology_group
from monoid_cohomology.groupoid import (GroupoidError, MonoidalFunctorData, SMAGroupoid,
                                        _is_group_iso,
                                        build_monoidal_iso, check_coherence,
                                        cocycle_check, crossed_product,
                                        enumerate_cochain_tables,
                                        extract_triple, iso_classes,
                                        verify_monoidal_iso)
from monoid_cohomology.hmod import (FGAbelianGroup, HModule, ModuleError, constant_module,
                                    validate_module)
from monoid_cohomology.monoid import make_cyclic
from monoid_cohomology.zlinalg import IntMatrix

from monoid_census import census

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


A2 = constant_module(zmod(2), Z2)


def sign_twisted_z4(M):
    """Z/4 with y acting by (-1)^(y mod 2), a module over C(m, q) for
    even q, where y mod 2 is a monoid map."""
    return HModule(M, [zmod(4)] * M.size,
                   {(x, y): IntMatrix.from_rows([[(-1) ** (y % 2)]])
                    for x in range(M.size) for y in range(M.size)})


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


def test_cocycle_iff_coherent_on_a_sign_twisted_module():
    # a non-constant module tells the translations of d^5 apart from
    # their reverse: random tables, coboundaries of random binary tables,
    # and those coboundaries with one value moved
    rng = random.Random(14)
    for M in (Z2, make_cyclic(0, 4), C12, make_cyclic(2, 2)):
        A = sign_twisted_z4(M)
        assert validate_module(A) == []
        nu = M.nonunit()

        def table(arity):
            return {key: (rng.randrange(4),) for key in product(nu, repeat=arity)}
        verdicts = set()
        for _ in range(15):
            g, mu = _transport_tables(M, A, table(2), 4)
            moved = dict(g)
            key = tuple(rng.choice(nu) for _ in range(3))
            moved[key] = ((moved.get(key, (0,))[0] + rng.randrange(1, 4)) % 4,)
            for pair in ((table(3), table(2)), (g, mu), (moved, mu)):
                verdict = cocycle_check(M, A, *pair)
                assert verdict == check_coherence(crossed_product(M, A, *pair)).ok(), (M, pair)
                verdicts.add(verdict)
        assert verdicts == {True, False}, M


def test_cocycle_count_z2():
    A = A2
    pairs = [(g, mu) for g in enumerate_cochain_tables(Z2, A, 3)
             for mu in enumerate_cochain_tables(Z2, A, 2)]
    assert len(pairs) == 4
    cocycles = [(g, mu) for g, mu in pairs if cocycle_check(Z2, A, g, mu)]
    assert len(cocycles) == 2
    # exactly the pairs with vanishing associativity table
    assert all(all(v == (0,) for v in g.values()) for g, _ in cocycles)


def _transport_tables(M, A, f, modulus):
    """(g, mu) of the coboundary of a binary table over a one-generator
    cyclic value group, reduced mod the order."""
    def fv(a, b):
        if a == 0 or b == 0:
            return 0
        return f.get((a, b), (0,))[0]

    def tr(x, y, v):
        return A.translate(x, y, [v])[0]

    g = {}
    mu = {}
    for x in M.nonunit():
        for y in M.nonunit():
            for z in M.nonunit():
                val = (tr(M.op(y, z), x, fv(y, z)) - fv(M.op(x, y), z)
                       + fv(x, M.op(y, z)) - tr(M.op(x, y), z, fv(x, y))) % modulus
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
        g, mu = _transport_tables(M, A, f, 2)
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


def test_group_isos_are_surjections_between_isomorphic_groups():
    z2_z3 = FGAbelianGroup(2, IntMatrix.diagonal([2, 3]))
    # onto, but Z/4 and Z/2 differ; not onto; onto between isomorphic groups
    assert not _is_group_iso(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
    assert not _is_group_iso(zmod(4), zmod(4), IntMatrix.from_rows([[2]]))
    assert _is_group_iso(z2_z3, zmod(6), IntMatrix.from_rows([[3, 2]]))
    # equal relation lattices in other presentations, or the very same
    # group: the map must still be onto
    z4 = FGAbelianGroup(1, IntMatrix.from_rows([[4, 8]]))
    assert z4 == zmod(4)
    assert _is_group_iso(z4, zmod(4), IntMatrix.from_rows([[3]]))
    assert not _is_group_iso(z4, zmod(4), IntMatrix.from_rows([[2]]))
    z2_z2 = FGAbelianGroup(2, IntMatrix.diagonal([2, 2]))
    assert not _is_group_iso(z2_z2, z2_z2, IntMatrix.from_rows([[1, 1], [1, 1]]))
    free = FGAbelianGroup.free(1)
    assert _is_group_iso(free, free, IntMatrix.from_rows([[-1]]))
    assert not _is_group_iso(free, free, IntMatrix.from_rows([[2]]))


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
    g2, mu2 = _transport_tables(M, A, f, 2)
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


def test_extract_triple_checks_the_laws_once(monkeypatch):
    # the crossed product of the 5-cocycle test checks the extracted
    # action's laws, and extract_triple reads no second check; an action
    # that breaks them is refused there
    from monoid_cohomology import hmod
    G = crossed_product(Z2, sign_twisted_z4(Z2), {}, {(1, 1): (2,)})
    calls = []
    monkeypatch.setattr(hmod, "validate_module", lambda A: calls.append(A) or validate_module(A))
    assert extract_triple(G)[3] == {(1, 1): (2,)}
    assert len(calls) == 1
    lawless = HModule(Z2, [zmod(4)] * 2, {(x, y): IntMatrix.from_rows([[1 if y == 0 else 2]])
                                          for x in range(2) for y in range(2)})
    with pytest.raises(ModuleError, match="violates the module laws"):
        extract_triple(SMAGroupoid(Z2, lawless, {}, {}))


def test_class_count_matches_h5_on_enumeration_grid():
    # every census monoid and Z/d whose (g, mu) pairs, d^(k^3 + k^2) over
    # k non-units, fit BRUTE_FORCE_CAP: 16 cases
    checked = 0
    for M in census():
        k = len(M.nonunit())
        for d in (2, 3, 4):
            if d ** (k ** 3 + k ** 2) > BRUTE_FORCE_CAP:
                continue
            A = constant_module(zmod(d), M)
            cocycles, classes = iso_classes(M, A)
            h5 = cohomology_group(M, 3, 5, A)
            assert len(classes) == h5.order(), (M, d, len(classes), h5)
            checked += 1
    assert checked == 16


def test_tables_are_listed_first_key_slowest():
    # the per-pair filter below reads enumerate_cochain_tables, which is
    # the cochain search; its order is pinned here against itertools
    for M, A in ((Z2, constant_module(zmod(3), Z2)), (C12, constant_module(zmod(2), C12)),
                 (C12, sign_twisted_z4(C12))):
        for arity in (2, 3):
            keys = list(product(M.nonunit(), repeat=arity))
            values = []
            for key in keys:
                x = M.identity
                for y in key:
                    x = M.op(x, y)
                values.append([tuple(v) for v in A.group(x).element_list()])
            assert enumerate_cochain_tables(M, A, arity) == \
                [dict(zip(keys, vals)) for vals in product(*values)], (M, arity)


def _per_pair_cocycles(M, A, gs):
    return [(g, mu) for g in gs for mu in enumerate_cochain_tables(M, A, 2)
            if cocycle_check(M, A, g, mu)]


def test_iso_classes_lists_the_per_pair_cocycles_in_order():
    # iso_classes runs each g's pentagon once and the mu components only
    # for a g that passes; its list is the per-pair filter, in order
    cases = [(M, constant_module(zmod(n), M))
             for M, n in ((Z2, 2), (Z2, 3), (C11, 2), (C11, 3), (make_cyclic(0, 3), 2),
                          (C12, 2))]
    for M, A in cases + [(Z2, sign_twisted_z4(Z2))]:
        cocycles, _ = iso_classes(M, A)
        assert cocycles == _per_pair_cocycles(
            M, A, enumerate_cochain_tables(M, A, 3)), (M, A)


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
    # the cochain search lists anything: C(3,3) with Z/2 has 2^125 * 2^25
    # pairs
    import monoid_cohomology.groupoid as groupoid

    def no_listing(*args):
        raise AssertionError("cochains listed before the size check")

    monkeypatch.setattr(groupoid, "_search", no_listing)
    big = make_cyclic(3, 3)
    for M, A in ((big, constant_module(zmod(2), big)),
                 (C12, constant_module(zmod(4), C12)),  # 4^12 = 2^24 pairs
                 (Z2, constant_module(FGAbelianGroup.free(1), Z2))):
        with pytest.raises(GroupoidError):
            iso_classes(M, A)
    # a search within the cap does reach the patched search
    with pytest.raises(AssertionError):
        iso_classes(Z2, A2)


def test_automorphism_search_runs():
    from monoid_cohomology.groupoid import monoid_automorphisms
    assert monoid_automorphisms(Z2) == [(0, 1)]
    cocycles, classes = iso_classes(Z2, A2, search_automorphisms=True)
    assert len(classes) == 2
    big = make_cyclic(2, 3)
    with pytest.raises(GroupoidError):
        iso_classes(big, constant_module(zmod(2), big),
                    search_automorphisms=True)
