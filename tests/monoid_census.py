"""Every commutative monoid of order 2-4 up to isomorphism, for census
tests: 2, 5 and 19 of them."""

from itertools import permutations, product

from monoid_cohomology.monoid import validate_table


def _is_associative(table, nonunit):
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in nonunit for y in nonunit for z in nonunit)


def _relabelled(table, perm):
    # perm fixes the identity 0; entry (perm x, perm y) is perm(x y)
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            out[perm[x]][perm[y]] = perm[v]
    return tuple(map(tuple, out))


def commutative_monoids(order):
    """One monoid per isomorphism class, identity 0: the least relabelling
    of each associative table of products of the non-units."""
    nonunit = range(1, order)
    pairs = [(x, y) for x in nonunit for y in nonunit if x <= y]
    perms = [(0,) + p for p in permutations(nonunit)]
    classes = set()
    for values in product(range(order), repeat=len(pairs)):
        table = [[x + y if 0 in (x, y) else 0 for y in range(order)]
                 for x in range(order)]
        for (x, y), v in zip(pairs, values):
            table[x][y] = table[y][x] = v
        if _is_associative(table, nonunit):
            classes.add(min(_relabelled(table, p) for p in perms))
    return [validate_table(order, 0, [list(r) for r in t]) for t in sorted(classes)]


def census(orders=(2, 3, 4)):
    return [M for n in orders for M in commutative_monoids(n)]
