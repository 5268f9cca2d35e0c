import random

import pytest

from monoid_cohomology.monoid import (INFINITE_CYCLIC, MonoidError,
                                      cyclic_p, cyclic_s, generating_set, make_cyclic,
                                      monoid_from_descriptor,
                                      monoid_to_descriptor, validate_table)

from helpers import relabelled
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
