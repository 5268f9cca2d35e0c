"""Finite commutative monoids as validated multiplication tables.

Elements are dense 0-based indices into the table.  Cyclic monoids
C_{m,q} (index m, period q) come with the wrap arithmetic ``cyclic_p``
and the wrap counter ``cyclic_s``.  The infinite cyclic monoid (N, +)
is a separate marker object, not a table.  A submonoid of a table is a
list of its labels (closure); split finds direct product decompositions.
"""

import json
from itertools import chain


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


# the table of C_{m,q} holds (m+q)^2 entries, about 200 MB at this order
# and 750 MB at twice it, so a larger order is refused before the table
# is allocated; no answer is lost in degrees n >= 1, since above order
# 1025 bar.check_reach already refuses the degree-2 bar
MAX_CYCLIC_ORDER = 1 << 11


def check_cyclic(m, q):
    """Refuse (m, q) with MonoidError unless C_{m,q} is a monoid whose
    table fits in memory; nothing is built."""
    if m < 0 or q < 1:
        raise MonoidError("need index m >= 0 and period q >= 1, got (%r, %r)" % (m, q))
    if m + q < 2:
        raise MonoidError("the zero monoid (m+q < 2) is excluded")
    if m + q > MAX_CYCLIC_ORDER:
        raise MonoidError("cyclic order m+q = %d is above %d, where the multiplication "
                          "table would take more than 200 MB" % (m + q, MAX_CYCLIC_ORDER))


def make_cyclic(m, q):
    """The cyclic monoid C_{m,q} on {0,...,m+q-1} with x(+)y = p(x+y)."""
    check_cyclic(m, q)
    n = m + q
    table = [[cyclic_p(m, q, x + y) for y in range(n)] for x in range(n)]
    return FiniteCommutativeMonoid(n, 0, table)


def cyclic_s(m, q, x, y):
    """Number of period wraps in x+y: ((x+y) - (x(+)y)) / q."""
    return (x + y - cyclic_p(m, q, x + y)) // q


def closure(M, base, y):
    """The submonoid base <y> of the table M, for a submonoid base listed
    in M's labels: base, then breadth first each product with y not yet
    listed, one table read per element.  From [e] it lists the powers of
    y up to the first repeat."""
    found, seen = list(base), set(base)
    for x in found:  # the loop reaches the elements it appends
        z = M.op(x, y)
        if z not in seen:
            seen.add(z)
            found.append(z)
    return found


def _factor_pair(M, n, candidates):
    """Two candidate submonoids whose orders multiply to n, which meet in
    the identity alone and whose product set has n elements, or None;
    only pairs that pass the first two tests read their n products."""
    buckets = {}
    for c in candidates:
        if 1 < len(c) < n and n % len(c) == 0:
            buckets.setdefault(len(c), {}).setdefault(frozenset(c), c)
    for d in sorted(buckets):
        if d * d > n:
            break
        firsts = list(buckets[d].items())
        for i, (a_set, a) in enumerate(firsts):
            seconds = firsts[i + 1:] if d * d == n else buckets.get(n // d, {}).items()
            for b_set, b in seconds:
                if len(a_set & b_set) == 1 and len({M.op(x, y) for x in a for y in b}) == n:
                    return a, b
    return None


def split(M, N, cyclic):
    """Submonoids N1, N2 of the submonoid N of the table M (lists of
    labels) whose product map N1 x N2 -> N is a bijection, hence an
    isomorphism, or None; cyclic lists closure(M, [e], x) for each x of
    N in order.  Cyclic pairs are tried first, then submonoids generated
    by two elements (closures of |N|^3 reads at most); a factor needing
    three generators is missed, costing speed, never an answer."""
    pairs = (closure(M, c, y) for i, c in enumerate(cyclic) for y in N[i + 1:])
    return _factor_pair(M, len(N), cyclic) or _factor_pair(M, len(N), chain(cyclic, pairs))


def generating_set(M):
    """A generating set S of the table M, chosen greedily: the elements
    in decreasing order of |<x>| (ties by label), each taken unless the
    closure of those taken holds it, |M|^2 + |M| table reads at most.
    |S| = 1 on every cyclic table of order 2 or more, in any labelling;
    Klein and the three-element semilattice need 2, {e} none."""
    orders = [len(closure(M, [M.identity], x)) for x in range(M.size)]
    gens, sub = [], [M.identity]
    for x in sorted(range(M.size), key=lambda x: -orders[x]):
        if x not in sub:
            gens.append(x)
            sub = closure(M, sub, x)
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
