"""Finite commutative monoids as validated multiplication tables.

Elements are dense 0-based indices into the table.  Cyclic monoids
C_{m,q} (index m, period q) come with the wrap arithmetic ``cyclic_p``
and the wrap counter ``cyclic_s``.  The infinite cyclic monoid (N, +)
is a separate marker object, not a table.
"""

import json


class MonoidError(ValueError):
    pass


def is_integer(v):
    """An integer of a JSON descriptor: an int that is not a bool, since
    true and false are ints to Python."""
    return isinstance(v, int) and not isinstance(v, bool)


class FiniteCommutativeMonoid:
    """Immutable multiplication table with a two-sided identity."""

    __slots__ = ("size", "identity", "table")

    def __init__(self, size, identity, table):
        self.size = size
        self.identity = identity
        self.table = tuple(tuple(row) for row in table)

    def op(self, x, y):
        return self.table[x][y]

    def elements(self):
        return range(self.size)

    def nonunit(self):
        return [x for x in range(self.size) if x != self.identity]

    def __eq__(self, other):
        return (isinstance(other, FiniteCommutativeMonoid)
                and self.size == other.size
                and self.identity == other.identity
                and self.table == other.table)

    def __hash__(self):
        return hash((self.size, self.identity, self.table))

    def __repr__(self):
        return "FiniteCommutativeMonoid(size=%d, identity=%d)" % (self.size, self.identity)


class InfiniteCyclicMonoid:
    """The additive monoid of natural numbers; only `cyclic` accepts it."""

    __slots__ = ()
    identity = 0

    def op(self, x, y):
        return x + y

    def __repr__(self):
        return "InfiniteCyclicMonoid()"

    def __eq__(self, other):
        return isinstance(other, InfiniteCyclicMonoid)

    def __hash__(self):
        return hash("InfiniteCyclicMonoid")


INFINITE_CYCLIC = InfiniteCyclicMonoid()


def validate_table(size, identity, table):
    """Build a FiniteCommutativeMonoid, checking the unit, commutativity
    and associativity laws.  Raises MonoidError with a witness for the
    first violated law."""
    if not is_integer(size) or size <= 0:
        raise MonoidError("size must be a positive integer, got %r" % (size,))
    if (not isinstance(table, (list, tuple)) or len(table) != size
            or any(not isinstance(row, (list, tuple)) or len(row) != size
                   for row in table)):
        raise MonoidError("table must be %dx%d" % (size, size))
    if not (is_integer(identity) and 0 <= identity < size):
        raise MonoidError("identity %r out of range" % (identity,))
    for x in range(size):
        for y in range(size):
            v = table[x][y]
            if not (is_integer(v) and 0 <= v < size):
                raise MonoidError("entry table[%d][%d]=%r out of range" % (x, y, v))
    e = identity
    for x in range(size):
        if table[e][x] != x or table[x][e] != x:
            raise MonoidError("unit law fails at x=%d: e*x=%d, x*e=%d"
                              % (x, table[e][x], table[x][e]))
    for x in range(size):
        for y in range(x + 1, size):
            if table[x][y] != table[y][x]:
                raise MonoidError("commutativity fails at (%d,%d): %d != %d"
                                  % (x, y, table[x][y], table[y][x]))
    for x in range(size):
        for y in range(size):
            xy = table[x][y]
            for z in range(size):
                if table[xy][z] != table[x][table[y][z]]:
                    raise MonoidError("associativity fails at (%d,%d,%d)" % (x, y, z))
    return FiniteCommutativeMonoid(size, identity, table)


def cyclic_p(m, q, x):
    """The retraction N -> C_{m,q}: identity below m+q, then reduce by
    multiples of q back into [m, m+q)."""
    if x < m + q:
        return x
    return m + (x - m) % q


# the table of C_{m,q} holds (m+q)^2 entries: above this order it would
# need more than 2^32 of them, which no memory holds, so such an order is
# refused before the table is allocated
MAX_CYCLIC_ORDER = 1 << 16


def check_cyclic(m, q):
    """Refuse (m, q) with MonoidError unless C_{m,q} is a monoid whose
    table fits in memory; nothing is built."""
    if m < 0 or q < 1:
        raise MonoidError("need index m >= 0 and period q >= 1, got (%r, %r)" % (m, q))
    if m + q < 2:
        raise MonoidError("the zero monoid (m+q < 2) is excluded")
    if m + q > MAX_CYCLIC_ORDER:
        raise MonoidError("cyclic order m+q = %d is above %d, where the multiplication "
                          "table would not fit in memory" % (m + q, MAX_CYCLIC_ORDER))


def make_cyclic(m, q):
    """The cyclic monoid C_{m,q} on {0,...,m+q-1} with x(+)y = p(x+y)."""
    check_cyclic(m, q)
    n = m + q
    table = [[cyclic_p(m, q, x + y) for y in range(n)] for x in range(n)]
    return FiniteCommutativeMonoid(n, 0, table)


def cyclic_s(m, q, x, y):
    """Number of period wraps in x+y: ((x+y) - (x(+)y)) / q."""
    return (x + y - cyclic_p(m, q, x + y)) // q


def _powers(M, x):
    """M's labels of e, x, x^2, ... up to the first repeat, and the
    position among them of the repeated power: at most |M| table reads."""
    powers = [M.identity]
    index = {M.identity: 0}
    y = x
    while y not in index:
        index[y] = len(powers)
        powers.append(y)
        y = M.op(y, x)
    return powers, index[y]


def cyclic_factors(M):
    """The cyclic factors of the table M as (m, q, powers) triples: for
    the submonoid <x> of an element x, powers lists M's labels of
    e, x, x^2, ... up to the first repeat, m is the index of the first
    repeated power and q = len(powers) - m, so that <x> is C_{m,q} with k
    renamed powers[k].  One triple when some <x> is all of M; two when
    some <x> and <y> have |<x>| |<y>| = |M| and the product map
    <x> x <y> -> M is a bijection, hence an isomorphism of monoids; ()
    for any other monoid, and for the one-element table (C_{m,q} needs
    m + q >= 2).  The powers take at most |M|^2 table reads, and pairs
    are filtered by their orders before any product is read, which keeps
    the search within about |M|^3."""
    if not isinstance(M, FiniteCommutativeMonoid) or M.size < 2:
        return ()
    factors = []
    for x in range(M.size):
        powers, m = _powers(M, x)
        factor = (m, len(powers) - m, powers)
        if len(powers) == M.size:
            return (factor,)
        factors.append(factor)
    for i, first in enumerate(factors):
        for second in factors[i + 1:]:
            xs, ys = first[2], second[2]
            if (len(xs) * len(ys) == M.size
                    and len({M.op(a, b) for a in xs for b in ys}) == M.size):
                return first, second
    return ()


def generating_set(M):
    """A generating set S of the table M, chosen greedily: the elements
    in decreasing order of |<x>| (ties by label), each taken unless the
    submonoid generated so far holds it.  In a commutative monoid that
    submonoid times <x> is the submonoid generated with x, so each step
    reads at most |M|^2 products, |M|^2 |S| in all after the |M|^2 reads
    of the powers.  |S| = 1 on every cyclic table of order 2 or more, in
    any labelling; the Klein four-group and the three-element
    semilattice need 2, and the one-element table none."""
    powers = [_powers(M, x)[0] for x in range(M.size)]
    gens = []
    closure = {M.identity}
    for x in sorted(range(M.size), key=lambda x: -len(powers[x])):
        if x not in closure:
            gens.append(x)
            closure = {M.op(c, p) for c in closure for p in powers[x]}
    return tuple(gens)


def monoid_from_descriptor(desc):
    """Parse the JSON monoid descriptor (dict or JSON string)."""
    if isinstance(desc, str):
        desc = json.loads(desc)
    if not isinstance(desc, dict):
        raise MonoidError("monoid descriptor must be a JSON object")
    kind = desc.get("kind")

    def fields(*names):
        missing = [n for n in names if n not in desc]
        if missing:
            raise MonoidError("%s descriptor lacks %s" % (kind, ", ".join(missing)))
        return [desc[n] for n in names]

    if kind == "table":
        return validate_table(*fields("size", "identity", "table"))
    if kind == "cyclic":
        m, q = fields("index", "period")
        if not (is_integer(m) and is_integer(q)):
            raise MonoidError("cyclic index and period must be integers")
        return make_cyclic(m, q)
    if kind == "infinite-cyclic":
        return INFINITE_CYCLIC
    raise MonoidError("unknown monoid descriptor kind: %r" % (kind,))


def monoid_to_descriptor(M):
    if isinstance(M, InfiniteCyclicMonoid):
        return {"kind": "infinite-cyclic"}
    return {"kind": "table", "size": M.size, "identity": M.identity,
            "table": [list(row) for row in M.table]}
