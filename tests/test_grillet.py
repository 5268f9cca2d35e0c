from itertools import product

import pytest

from monoid_cohomology.bar import cells, iterated_bar
from monoid_cohomology.cohomology import cochain_group, cohomology_group
from monoid_cohomology.grillet import (_delta, eleob_equivalent, grillet_cohomology,
                                       inclusion_chainmap, injectivity_check,
                                       symmetric_cochains)
from monoid_cohomology.hmod import FGAbelianGroup, constant_module, dualize, zm_as_hmodule
from monoid_cohomology.monoid import make_cyclic
from monoid_cohomology.zlinalg import AbGroupInvariants, subquotient_invariants
from helpers import explicit_low_degree_differential
from monoid_census import census

Z2 = make_cyclic(0, 2)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)
C23 = make_cyclic(2, 3)

Z = FGAbelianGroup.free(1)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


def tuple_cochains(M, A, n):
    """The cochains on the n-tuples: the degree-n cochain group of a
    level-1 bar."""
    return cochain_group(iterated_bar(M, 1, n), n, A)


def sym_group(M, A, n):
    amb = tuple_cochains(M, A, n)
    return subquotient_invariants(symmetric_cochains(M, amb, n), amb.relation_matrix())


def test_symmetric_cochain_groups_z2():
    A = constant_module(zmod(2), Z2)
    # degree 2: symmetry is vacuous on the diagonal, one free value
    assert sym_group(Z2, A, 2) == AbGroupInvariants(0, (2,))
    # degree 3: 2f = 0 vacuous over Z/2 but 3f = 0 forces f = 0
    assert sym_group(Z2, A, 3).is_trivial()
    # degree 1: unconstrained normalized functions
    assert sym_group(Z2, A, 1) == AbGroupInvariants(0, (2,))
    with pytest.raises(ValueError):
        symmetric_cochains(Z2, tuple_cochains(Z2, A, 5), 5)


def test_grillet_cohomology_examples():
    assert grillet_cohomology(Z2, constant_module(zmod(2), Z2), 2) == \
        AbGroupInvariants(0, (2,))
    assert grillet_cohomology(C12, constant_module(Z, C12), 2) == \
        AbGroupInvariants(0, (2,))
    with pytest.raises(ValueError):
        grillet_cohomology(Z2, constant_module(Z, Z2), 4)


def _grid_monoids():
    return [make_cyclic(m, q) for m in range(5) for q in range(1, 6 - m)
            if m + q >= 2]


def test_h1_grillet_is_kernel_of_level3_d3():
    # H^1_G = ker(delta^1) = ker(d^3 at level 3): both equal H^1(M,1;A)
    for M in _grid_monoids():
        for G in (Z, zmod(2), zmod(4), zmod(6)):
            A = constant_module(G, M)
            assert grillet_cohomology(M, A, 1) == cohomology_group(M, 1, 1, A)


def test_h2_grillet_is_h3_level2():
    for M in _grid_monoids():
        for G in (Z, zmod(2), zmod(4), zmod(6)):
            A = constant_module(G, M)
            assert grillet_cohomology(M, A, 2) == cohomology_group(M, 2, 3, A)


def test_grillet_comparisons_on_the_census():
    # every commutative monoid of order 2-4 up to isomorphism
    for M in census():
        for G in (Z, zmod(2), zmod(4), zmod(6)):
            A = constant_module(G, M)
            assert grillet_cohomology(M, A, 1) == cohomology_group(M, 1, 1, A), (M, G)
            assert grillet_cohomology(M, A, 2) == cohomology_group(M, 2, 3, A), (M, G)
            ok, witness = injectivity_check(M, A)
            assert ok, (M, G, witness)


def _identities_per_tuple(M, n):
    """The symmetry identities written once at every tuple, orbits
    repeated: the oracle for the representatives symmetry_constraints
    reads."""
    rows = []
    for args in product(M.nonunit(), repeat=n):
        if n == 2:
            x, y = args
            if x < y:
                rows.append([(1, (x, y)), (-1, (y, x))])
        elif n == 3:
            x, y, z = args
            rows.append([(1, (x, y, z)), (1, (z, y, x))])
            rows.append([(1, (x, y, z)), (1, (y, z, x)), (1, (z, x, y))])
        elif n == 4:
            x, y, z, t = args
            if z == y and t == x:
                rows.append([(1, (x, y, z, t))])
            rows.append([(1, (t, z, y, x)), (1, (x, y, z, t))])
            rows.append([(1, (x, y, z, t)), (-1, (y, z, t, x)),
                         (1, (z, t, x, y)), (-1, (t, x, y, z))])
            rows.append([(1, (x, y, z, t)), (-1, (y, x, z, t)),
                         (1, (y, z, x, t)), (-1, (y, z, t, x))])
    return rows


def test_one_identity_per_orbit_cuts_out_the_per_tuple_lattice(monkeypatch):
    # on the census of orders 2-4 the symmetric lattices of degrees 1-4
    # are those of the identities written at every tuple, from fewer
    # rows: on an order-4 table, 29 of degree 3 where 54 are written
    from monoid_cohomology import grillet
    for M in census():
        for G in (Z, zmod(2), zmod(4)):
            A = constant_module(G, M)
            for n in (1, 2, 3, 4):
                amb = tuple_cochains(M, A, n)
                lattice = symmetric_cochains(M, amb, n)
                with monkeypatch.context() as patch:
                    patch.setattr(grillet, "_symmetry_identities", _identities_per_tuple)
                    assert symmetric_cochains(M, amb, n) == lattice, (M.table, G, n)
    C04 = make_cyclic(0, 4)
    assert (len(grillet._symmetry_identities(C04, 3)), len(_identities_per_tuple(C04, 3))) \
        == (29, 54)


def test_grillet_coboundary_is_minus_the_closed_level1_formula():
    # delta^n f = -f . d on the (n+1)-tuples: the closed level-1 formula,
    # dualized, checks the templated level-1 bar that _delta reads
    for M in (Z2, C12, C23):
        for A in (constant_module(zmod(6), M), zm_as_hmodule(M)):
            for n in (1, 2, 3):
                level1 = iterated_bar(M, 1, n + 1)
                src, tgt = cochain_group(level1, n, A), cochain_group(level1, n + 1, A)
                d = {t: explicit_low_degree_differential(M, t) for t in tgt.generators}
                delta = _delta(level1, src, tgt)
                expected = dualize(d, src, tgt, M).scaled(-1)
                assert (delta.rows, delta.cols) == (expected.rows, expected.cols)
                assert delta.row_dicts() == expected.row_dicts(), (M, n)


def test_entry_points_build_only_what_they_read(monkeypatch):
    from monoid_cohomology import grillet
    calls = []

    def recording(name, fn, read):
        def wrapped(*args):
            calls.append((name, read(args)))
            return fn(*args)
        monkeypatch.setattr(grillet, name, wrapped)
    recording("symmetric_cochains", grillet.symmetric_cochains, lambda args: args[2])
    recording("iterated_bar", grillet.iterated_bar, lambda args: args[1:])
    A = constant_module(zmod(2), C12)
    # symmetric_cochains is where a symmetric lattice is built; degree n
    # of H^n_G and degree 3 of the injectivity problem read only the
    # constraints.  Each entry point reads delta from one level-1 bar
    for n in (1, 2, 3):
        calls.clear()
        grillet_cohomology(C12, A, n)
        assert calls == [("iterated_bar", (1, n + 1))] + (
            [] if n == 1 else [("symmetric_cochains", n - 1)])
    calls.clear()
    injectivity_check(C12, A)
    assert sorted(calls) == [("iterated_bar", (1, 4)), ("iterated_bar", (3, 5)),
                             ("symmetric_cochains", 2)]
    calls.clear()
    inclusion_chainmap(C12, A)
    assert [c for c in calls if c[0] == "iterated_bar"] == [
        ("iterated_bar", (3, 6)), ("iterated_bar", (1, 4))]


def test_inclusion_squares_commute():
    for M in (Z2, C12):
        for G in (zmod(2), zmod(6)):
            _, squares = inclusion_chainmap(M, constant_module(G, M))
            assert all(squares.values()), (M, G, squares)
    _, squares = inclusion_chainmap(C23, constant_module(zmod(6), C23))
    assert all(squares.values())


def test_i2_is_identity_mod_two():
    mats = inclusion_chainmap(Z2, constant_module(zmod(2), Z2))[0]
    i2 = mats[2]
    assert i2.rows == i2.cols == 1
    assert i2.data[0][0] % 2 == 1  # -1 is the identity in characteristic 2
    # over Z the signs show: i_n is (-1)^(n+1) on the plain words, 0 on
    # the words with a higher separator
    mats = inclusion_chainmap(C12, constant_module(Z, C12))[0]
    for n, mat in mats.items():
        column = {c.letters: j for j, c in enumerate(cells(C12, 1, n))}
        assert mat.row_dicts() == [
            {column[c.letters]: (-1) ** (n + 1)} if c.seps == (1,) * (n - 1) else {}
            for c in cells(C12, 3, n + 2)], n


def test_injectivity_h3g_into_h5():
    for M in (Z2, C11, C12, C23):
        for G in (Z, zmod(2), zmod(4)):
            ok, witness = injectivity_check(M, constant_module(G, M))
            assert ok, (M, G, witness)


def test_eleob_zero_table():
    assert eleob_equivalent(Z2, constant_module(zmod(2), Z2), {}) == \
        (True, True, True)


def test_eleob_exhaustive_equivalence():
    for M, G in ((C11, zmod(4)), (Z2, zmod(4)), (C12, zmod(2))):
        A = constant_module(G, M)
        order = G.order()
        tuples = list(product(M.nonunit(), repeat=3))
        for values in product(range(order), repeat=len(tuples)):
            table = {t: (v,) for t, v in zip(tuples, values)}
            c1, c2, c3 = eleob_equivalent(M, A, table)
            assert c1 == c2 == c3


def test_eleob_randomized_and_constrained_c12():
    import random
    M = C12
    A = constant_module(zmod(4), M)
    tuples = list(product(M.nonunit(), repeat=3))
    rng = random.Random(12)
    for _ in range(500):
        table = {t: (rng.randrange(4),) for t in tuples}
        c1, c2, c3 = eleob_equivalent(M, A, table)
        assert c1 == c2 == c3
    # walk the subgroup of tables satisfying the first condition set and
    # confirm the other two hold on all of it
    amb = tuple_cochains(M, A, 3)
    lat = symmetric_cochains(M, amb, 3)
    index = {c.letters: amb.offsets[i] for i, c in enumerate(amb.generators)}
    seen = {tuple([0] * amb.total)}
    frontier = [tuple([0] * amb.total)]
    gens = [tuple(lat.column(j)) for j in range(lat.cols)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            new = tuple((a + b) % 4 for a, b in zip(cur, g))
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    assert len(seen) >= 1
    for vec in seen:
        table = {t: (vec[index[t]],) for t in tuples}
        assert eleob_equivalent(M, A, table) == (True, True, True)


def test_injectivity_nonvacuous_instances():
    # instances with large symmetric-cochain lattices, so the cocycle,
    # coboundary, and containment solving all do real work
    from monoid_cohomology.zlinalg import subquotient_invariants
    from monoid_cohomology.monoid import validate_table
    c04 = make_cyclic(0, 4)
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    for M, G in ((c04, zmod(4)), (klein, zmod(6))):
        A = constant_module(G, M)
        c3 = sym_group(M, A, 3)
        assert c3.order() == (G.order()) ** 8
        ok, witness = injectivity_check(M, A)
        assert ok, witness
        assert grillet_cohomology(M, A, 1) == cohomology_group(M, 1, 1, A)
        assert grillet_cohomology(M, A, 2) == cohomology_group(M, 2, 3, A)
