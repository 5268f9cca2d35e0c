import random

import pytest

from monoid_cohomology.monoid import (INFINITE_CYCLIC, FiniteCommutativeMonoid, MonoidError,
                                      closure, cyclic_p, cyclic_s, generating_set, make_cyclic,
                                      monoid_from_descriptor, monoid_to_descriptor,
                                      validate_table)

from helpers import identity_last, product_table, relabelled, split_whole
from monoid_census import census


def test_trivial_and_group_tables():
    t = validate_table(1, 0, [[0]])
    assert t.size == 1 and t.identity == 0
    z2 = validate_table(2, 0, [[0, 1], [1, 0]])
    assert z2 == make_cyclic(0, 2)


def test_idempotent_table_is_c11():
    # 1 + 1 = p(2) = 1 in C_{1,1}
    t = validate_table(2, 0, [[0, 1], [1, 1]])
    assert t == make_cyclic(1, 1)


def test_validation_witnesses():
    with pytest.raises(MonoidError, match="unit law"):
        validate_table(2, 0, [[0, 0], [1, 0]])
    with pytest.raises(MonoidError, match="commutativity"):
        validate_table(3, 0, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    # unit and commutativity fine, associativity broken
    with pytest.raises(MonoidError, match="associativity"):
        validate_table(3, 0, [[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    with pytest.raises(MonoidError, match="out of range"):
        validate_table(2, 0, [[0, 1], [1, 7]])
    with pytest.raises(MonoidError):
        validate_table(0, 0, [])


def test_make_cyclic_examples():
    z2 = make_cyclic(0, 2)
    assert z2.op(1, 1) == 0
    c23 = make_cyclic(2, 3)
    assert c23.size == 5
    assert c23.op(3, 4) == 4  # p(7): 2+3 <= 7 < 2+6, so 7 - 3
    c12 = make_cyclic(1, 2)
    assert c12.op(2, 2) == 2  # p(4) = 2


def test_make_cyclic_rejects_zero_monoid():
    with pytest.raises(MonoidError):
        make_cyclic(1, 0)
    with pytest.raises(MonoidError):
        make_cyclic(0, 1)
    with pytest.raises(MonoidError):
        make_cyclic(-1, 3)


def test_cyclic_s_examples():
    assert cyclic_s(2, 3, 3, 4) == 1  # (7 - 4) / 3
    assert cyclic_s(2, 3, 1, 1) == 0  # below the wrap threshold
    assert cyclic_s(1, 2, 2, 2) == 1  # (4 - 2) / 2


def test_p_idempotent_on_elements():
    for m, q in [(0, 2), (1, 1), (2, 3), (3, 4)]:
        for x in range(m + q):
            assert cyclic_p(m, q, x) == x


def test_s_cocycle_property():
    for m, q in [(0, 2), (1, 1), (1, 2), (2, 3), (0, 5), (3, 2)]:
        C = make_cyclic(m, q)
        for x in C.elements():
            for y in C.elements():
                for z in C.elements():
                    lhs = cyclic_s(m, q, y, z) + cyclic_s(m, q, x, C.op(y, z))
                    rhs = cyclic_s(m, q, C.op(x, y), z) + cyclic_s(m, q, x, y)
                    assert lhs == rhs


def test_cyclic_tables_are_valid_monoids():
    for m in range(0, 12):
        for q in range(1, 13 - m):
            if m + q < 2:
                continue
            C = make_cyclic(m, q)
            assert validate_table(C.size, C.identity, C.table) == C


def test_descriptors_round_trip():
    c = make_cyclic(1, 2)
    desc = monoid_to_descriptor(c)
    assert monoid_from_descriptor(desc) == c
    assert monoid_from_descriptor({"kind": "cyclic", "index": 1, "period": 2}) == c
    assert monoid_from_descriptor({"kind": "infinite-cyclic"}) == INFINITE_CYCLIC
    with pytest.raises(MonoidError):
        monoid_from_descriptor({"kind": "weird"})


def test_infinite_cyclic_marker():
    assert INFINITE_CYCLIC.op(3, 4) == 7
    assert INFINITE_CYCLIC.identity == 0


def _generated(M, gens):
    """The submonoid generated by gens, by multiplying until nothing new
    appears."""
    closure = {M.identity}
    while True:
        grown = closure | {M.op(c, s) for c in closure for s in gens}
        if grown == closure:
            return closure
        closure = grown


def test_generating_sets():
    # the greedy generating set generates M on every census monoid; it has
    # one element on every cyclic table of order 2-7 in shuffled
    # labellings, and two on Klein and on the semilattice
    for M in census():
        assert _generated(M, generating_set(M)) == set(range(M.size)), M.table
    rng = random.Random(2022)
    for k in range(2, 8):
        for m in range(k):
            for _ in range(3):
                M = relabelled(make_cyclic(m, k - m), rng.sample(range(k), k))
                gens = generating_set(M)
                assert len(gens) == 1 and _generated(M, gens) == set(range(k)), M.table
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    for M in (klein, semilattice):
        gens = generating_set(M)
        assert len(gens) == 2 and _generated(M, gens) == set(range(M.size))
    assert generating_set(validate_table(1, 0, [[0]])) == ()


def is_factorization(M, N1, N2):
    """N1 and N2 are submonoids of M whose product map onto M is a
    bijection, read off the table."""
    return (all(M.identity in N and {M.op(x, y) for x in N for y in N} <= set(N)
                for N in (N1, N2))
            and len(N1) * len(N2) == M.size
            and len({M.op(x, y) for x in N1 for y in N2}) == M.size)


def test_split_finds_the_direct_products():
    # on the census exactly the 3 products of two cyclic monoids of order
    # 2 split, Z/2 x Z/2, Z/2 x C(1,1) and C(1,1) x C(1,1) (C(1,1) being
    # idempotent), and the other 14 tables that no element generates do
    # not; the four order-6 products split, and so do (Z/2)^3 and (Z/2)^4,
    # whose factors need two generators, the semilattice x C(0,2) and the
    # semilattice squared, each relabelled with its identity last
    def cyclic(M):
        return any(len(closure(M, [M.identity], x)) == M.size for x in range(M.size))
    found = {M: split_whole(M) for M in census()}
    products = [M for M, factors in found.items() if factors]
    assert len(products) == 3 and not any(map(cyclic, products))
    assert len([M for M, factors in found.items() if not factors and not cyclic(M)]) == 14
    idempotent = sorted(sorted(M.op(f[1], f[1]) == f[1] for f in found[M]) for M in products)
    assert idempotent == [[False, False], [False, True], [True, True]]
    for M in products:
        assert is_factorization(M, *found[M])
    C = make_cyclic
    Z2, semilattice = C(0, 2), validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    klein = product_table(Z2, Z2)
    tables = [product_table(C(m1, q1), C(m2, q2))
              for m1, q1, m2, q2 in ((1, 2, 1, 1), (2, 1, 0, 2), (2, 1, 1, 1), (0, 3, 1, 1))]
    tables += [product_table(klein, Z2), product_table(klein, klein),
               product_table(semilattice, Z2), product_table(semilattice, semilattice)]
    for M in map(identity_last, tables):
        factors = split_whole(M)
        assert factors and is_factorization(M, *factors), M.table


class CountingTable(FiniteCommutativeMonoid):
    """A table that counts its reads through op."""

    __slots__ = ("reads",)

    def op(self, x, y):
        self.reads += 1
        return self.table[x][y]


def test_split_reads_a_bounded_part_of_the_table():
    # the null monoid of order 128 (every product of two non-units is the
    # zero) has 7,875 submonoids of order 4, each generated by two
    # elements; bucketed by order and met in the zero, none is paired,
    # and split reads under 4 |N|^2 entries.  C(0,64) x C(0,2), shuffled,
    # is found among the cyclic pairs, under |N|^2 reads, before any
    # two-generator closure.  The tables are built without validate_table,
    # whose |N|^3 reads would dominate the test
    n = 128
    null = CountingTable(n, 0, [[x + y if 0 in (x, y) else 1 for y in range(n)]
                                for x in range(n)])
    perm = random.Random(2024).sample(range(n), n)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[(x // 2 + y // 2) % 64 * 2 + (x + y) % 2]
    cyclic_pair = CountingTable(n, perm[0], table)
    for M, bound in ((null, 4 * n * n), (cyclic_pair, n * n)):
        M.reads = 0
        factors = split_whole(M)
        assert M.reads < bound, (M.reads, bound)
        assert factors is None if M is null else sorted(map(len, factors)) == [2, 64]
