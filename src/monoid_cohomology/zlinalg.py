"""Exact integer matrix algebra.

Everything here runs over arbitrary-precision Python ints: Smith normal
form with unimodular transforms, ranks over Z and over Z/p, kernel and
preimage lattices (column Hermite echelon), and invariant factors of
lattice subquotients.  These are the substrate for every
cohomology-group extraction in the package.

One matrix type, IntMatrix, holds one dict col -> value per row with no
zeros stored: the coboundaries are about 1% nonzero, and the small
matrices (module actions, group relations, SNF transforms) lose nothing
by it.  It hands out fresh dicts per row (row_dicts()) or per column
(col_dicts()); .data is a dense view built afresh on every read, for
readers outside the engine.  block_diagonal alone assembles
block-diagonal relations (for cochain groups, symmetry identities and
stacked preimage conditions).

The +-1 unit sweep in front of snf_diagonal, rank and kernel_basis
consumes such dicts.  Given a prime modulus p it is the same sweep over
Z/p, where every nonzero entry is a unit, so it eliminates everything
and its pivots are the rank mod p (the prime case of linear algebra
modulo N: Storjohann and Mulders, Fast algorithms for linear algebra
modulo N, ESA 1998); the cohomology of an F_p-module reads these ranks.
kernel_basis sweeps columns with a tracked transform: the columns it
brings to zero carry the kernel vectors, and a preimage lattice tracks
only the coordinates it keeps.  snf_diagonal sweeps whichever side has
fewer lines: A and its transpose have the same Smith diagonal, and the
coboundaries are tall (degree n+1 has several times the cells of
degree n), so their columns are the short side.

A leftover entry alone in its line and at its index is a 1 x 1 block,
and snf_diagonal reads its Smith factor off directly: the relation
basis q I of (Z/q)^k, or a coboundary that multiplies by q, never
reaches a dense form.  The rest of what the sweep leaves of a
coboundary is short and wide; snf_diagonal replaces it by its
column-Hermite basis (lattice_basis) before the dense Smith form.
rank reads the same three parts, with the basis's column count as the
rank of the rest and no Smith form.
lattice_basis is the one builder of a lattice basis, and it certifies
every basis it returns: the relation bases of the presented groups, the
preimage lattices and subquotients, and this leftover.

Lattices are always given by matrices whose *columns* span them.  Every
question "do these columns lie in the lattice?" is answered by one
elimination, staircase_solve, over the lattice's Hermite staircase
(Cohen, A Course in Computational Algebraic Number Theory) and a whole
block of columns at once; lattice_solve is that solve on one column.
staircase_reduce takes floor quotients down the same staircase.  Both
read each pivot off the staircase: no pivot list leaves this module.
"""

from heapq import heapify, heappop, heappush


class IntMatrix:
    """Integer matrix stored as one dict col -> value per row, no zeros
    stored; zero dimensions allowed.  The constructor keeps the dicts it
    is given, and no method mutates them."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows, cols, row_dicts=None):
        if row_dicts is None:
            row_dicts = [{}] * rows  # one dict serves every row: rows are never mutated
        elif len(row_dicts) != rows:
            raise ValueError("%d row dicts for %d rows" % (len(row_dicts), rows))
        for r in row_dicts:
            if r and (min(r) < 0 or max(r) >= cols or 0 in r.values()):
                raise ValueError("row %r outside %d columns or storing a zero"
                                 % (r, cols))
        self.rows = rows
        self.cols = cols
        self._rows = row_dicts

    @classmethod
    def from_rows(cls, data, cols=None):
        """The matrix whose rows are the lists of ints in data."""
        if cols is None:
            if not data:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError("data does not have the shape %dx%d" % (len(data), cols))
        return cls(len(data), cols, [{j: v for j, v in enumerate(r) if v} for r in data])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows):
        """The matrix whose columns are the given lists of rows ints."""
        return cls(rows, len(columns),
                   _transposed([{i: v for i, v in enumerate(c) if v} for c in columns], rows))

    @classmethod
    def diagonal(cls, entries):
        return cls(len(entries), len(entries),
                   [{i: d} if d else {} for i, d in enumerate(entries)])

    @property
    def data(self):
        """A dense list of rows, built afresh on every read: writing to
        it leaves the matrix alone."""
        return _full_rows(self._rows, self.cols)

    def column(self, j):
        return [r.get(j, 0) for r in self._rows]

    def row_dicts(self):
        """One fresh dict col -> value per row, zeros left out."""
        return [dict(r) for r in self._rows]

    def col_dicts(self):
        """One fresh dict row -> value per column, zeros left out."""
        return _transposed(self._rows, self.cols)

    def mul(self, other):
        _check_shape(self.cols == other.rows, "mul", self, other)
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in other._rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix(self.rows, other.cols, out)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("mul_vector: vector of length %d against %d columns"
                             % (len(vec), self.cols))
        return [sum(v * vec[j] for j, v in r.items()) for r in self._rows]

    def sub(self, other):
        _check_shape((self.rows, self.cols) == (other.rows, other.cols), "sub", self, other)
        out = self.row_dicts()
        for r, o in zip(out, other._rows):
            _dict_submul(r, o, 1)
        return IntMatrix(self.rows, self.cols, out)

    def hstack(self, other):
        _check_shape(self.rows == other.rows, "hstack", self, other)
        out = self.row_dicts()
        for r, o in zip(out, other._rows):
            for j, v in o.items():
                r[self.cols + j] = v
        return IntMatrix(self.rows, self.cols + other.cols, out)

    def scaled(self, c):
        return IntMatrix(self.rows, self.cols,
                         [{j: c * v for j, v in r.items() if c} for r in self._rows])

    def is_zero(self):
        return not any(self._rows)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self._rows)


def _check_shape(ok, op, a, b):
    if not ok:
        raise ValueError("%s: shapes %dx%d and %dx%d do not match"
                         % (op, a.rows, a.cols, b.rows, b.cols))


def _full_rows(rows, n):
    """The rows (dicts col -> value) as lists of n entries each."""
    return [[r.get(j, 0) for j in range(n)] for r in rows]


class AbGroupInvariants:
    """Isomorphism type of a f.g. abelian group: free rank plus the
    invariant-factor chain d1 | d2 | ... with every di >= 2."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        if free_rank < 0:
            raise ValueError("negative free rank %r" % (free_rank,))
        torsion = tuple(int(d) for d in torsion)
        if not all(d >= 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2: %r" % (torsion,))
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion list %r is not a divisibility chain"
                                 % (torsion,))
        self.free_rank = free_rank
        self.torsion = torsion

    @classmethod
    def from_diagonal(cls, diag, free_rank=0):
        """Group Z^free + (+)_d Z/d for d in diag; entries 0 add free
        rank, entries 1 vanish.  diag need not be sorted or chained.

        The distinct values are re-chained with their multiplicities:
        while two neighbours a < b in sorted order have a not dividing b,
        m = min(mult a, mult b) copies of each become m copies of
        gcd(a, b) and of lcm(a, b), as (Z/a + Z/b)^m = (Z/gcd + Z/lcm)^m.
        Each step keeps the product of the entries and raises the sum of
        their squared logarithms, so the steps end; a step moves whole
        multiplicities, so (Z/2)^65536, one value, takes none.  No entry
        is factored."""
        free = free_rank
        mult = {}
        for d in diag:
            d = abs(d)
            if d == 0:
                free += 1
            elif d >= 2:
                mult[d] = mult.get(d, 0) + 1
        values = sorted(mult)
        i = 1
        while i < len(values):
            a, b = values[i - 1], values[i]
            if b % a == 0:
                i += 1
                continue
            m = min(mult[a], mult[b])
            g = gcd(a, b)
            for v, dm in ((a, -m), (b, -m), (g, m), (a * b // g, m)):
                mult[v] = mult.get(v, 0) + dm
                if not mult[v]:
                    del mult[v]
            mult.pop(1, None)
            values, i = sorted(mult), 1
        return cls(free, [v for v in values for _ in range(mult[v])])

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __eq__(self, other):
        return (isinstance(other, AbGroupInvariants)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def xgcd(a, b):
    """g, x, y with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


# Miller-Rabin on the thirteen primes up to 41 has no strong pseudoprime
# below this bound (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 2017); the twelve up to 37 stop at 3.2e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """n is prime, decided by deterministic Miller-Rabin, for n below
    _MR_BOUND; at or above it the test is no proof and the answer is
    False.  No trial division: an entry may be 2^61 - 1."""
    if n < 2 or n >= _MR_BOUND:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smith_normal_form(A):
    """Return (D, U, V) with U*A*V == D, U and V unimodular, and D
    diagonal with d1 | d2 | ... >= 0.  The identity U*A*V == D is
    re-verified before returning."""
    m, n = A.rows, A.cols
    D = _full_rows(A._rows, n)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i1, i2, a, b, c, d):
        # rows i1, i2 <- a*r1 + b*r2, c*r1 + d*r2  (ad - bc = +-1)
        for M_ in (D, U):
            r1, r2 = M_[i1], M_[i2]
            for j in range(len(r1)):
                v1, v2 = r1[j], r2[j]
                r1[j] = a * v1 + b * v2
                r2[j] = c * v1 + d * v2

    def col_op(j1, j2, a, b, c, d):
        for M_ in (D, V):
            for row in M_:
                v1, v2 = row[j1], row[j2]
                row[j1] = a * v1 + b * v2
                row[j2] = c * v1 + d * v2

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]

    def find_pivot(k):
        best = None
        for i in range(k, m):
            row = D[i]
            for j in range(k, n):
                v = row[j]
                if v:
                    if best is None or abs(v) < best[0]:
                        best = (abs(v), i, j)
                        if best[0] == 1:
                            return best
        return best

    k = 0
    while k < m and k < n:
        best = find_pivot(k)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            D[k], D[pi] = D[pi], D[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for M_ in (D, V):
                for row in M_:
                    row[k], row[pj] = row[pj], row[k]
        while True:
            for i in range(k + 1, m):
                b = D[i][k]
                if b:
                    a = D[k][k]
                    if b % a == 0:
                        row_op(k, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_op(k, i, x, y, -(b // g), a // g)
            for j in range(k + 1, n):
                b = D[k][j]
                if b:
                    a = D[k][k]
                    if b % a == 0:
                        col_op(k, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(k, j, x, y, -(b // g), a // g)
            if (all(D[i][k] == 0 for i in range(k + 1, m))
                    and all(D[k][j] == 0 for j in range(k + 1, n))):
                break
        k += 1
    rank = k

    # enforce the divisibility chain d_i | d_{i+1} on the nonzero block
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b and b % a != 0:
                row_op(i, i + 1, 1, 1, 0, 1)  # block becomes [[a, b], [0, b]]
                _rediagonalize_2x2(D, i, row_op, col_op)
                changed = True

    for i in range(rank):
        if D[i][i] < 0:
            negate_row(i)

    Dm = IntMatrix.from_rows(D, n)
    Um = IntMatrix.from_rows(U, m)
    Vm = IntMatrix.from_rows(V, n)
    if Um.mul(A).mul(Vm) != Dm:
        raise ArithmeticError("SNF verification failed")
    return Dm, Um, Vm


def _rediagonalize_2x2(D, i, row_op, col_op):
    # clear the 2x2 block at (i, i); only rows/cols i, i+1 are involved
    while D[i][i + 1] or D[i + 1][i]:
        b = D[i][i + 1]
        if b:
            a = D[i][i]
            if a == 0:
                col_op(i, i + 1, 0, 1, -1, 0)
            elif b % a == 0:
                col_op(i, i + 1, 1, 0, -(b // a), 1)
            else:
                g, x, y = xgcd(a, b)
                col_op(i, i + 1, x, y, -(b // g), a // g)
        c = D[i + 1][i]
        if c:
            a = D[i][i]
            if a == 0:
                row_op(i, i + 1, 0, 1, -1, 0)
            elif c % a == 0:
                row_op(i, i + 1, 1, 0, -(c // a), 1)
            else:
                g, x, y = xgcd(a, c)
                row_op(i, i + 1, x, y, -(c // g), a // g)


def _unit_sweep(lines, tracked=None, modulus=None):
    """Eliminate +-1 pivots from a list of fresh sparse lines (dicts
    index -> value, which the sweep consumes) by adding multiples of one
    line to another.  Fed row_dicts() these are row operations, fed
    col_dicts() column operations.  tracked, if given, is a list of dicts
    parallel to lines that undergo the same operations: subtracting q
    times line p from line i subtracts q times tracked[p] from
    tracked[i].

    With a prime modulus p the lines are read over Z/p (and tracked is
    not given): each is reduced into [0, p) first, so every entry left
    is a unit, the quotient at a pivot is the entry times pval^-1 mod p,
    and the entries a pivot changes are reduced again.  The sweep then
    leaves no line, and the pivots count the rank over Z/p.

    Pivots in short lines and thin columns go first (Markowitz-style) to
    limit fill-in: the shortest line with a unit entry, then among its
    unit entries the one whose index meets the fewest lines, then the
    lowest index.  Returns (rows, pivots): the surviving lines as a dict
    position -> line, none of which touches an eliminated index, and the
    positions of the pivot lines in sweep order.  A line that is neither
    a survivor nor a pivot line has been brought to zero.
    """
    if modulus:
        lines = [{j: v % modulus for j, v in r.items() if v % modulus} for r in lines]
    rows = {i: r for i, r in enumerate(lines) if r}
    # col_index[j] holds exactly the live lines with an entry at j
    col_index = {}
    for i, r in rows.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in rows.items()
            if modulus or 1 in r.values() or -1 in r.values()]
    heapify(heap)
    pivots = []
    while heap:
        rlen, pi = heappop(heap)
        prow = rows.get(pi)
        if prow is None:
            continue
        if len(prow) != rlen:
            heappush(heap, (len(prow), pi))  # stale entry, re-queue
            continue
        pj = None
        for j, v in prow.items():
            if v == 1 or v == -1 or modulus:
                n = len(col_index[j])
                if pj is None or n < best or (n == best and j < pj):
                    pj, best = j, n
        if pj is None:
            continue
        pval = prow[pj]
        pinv = pow(pval, -1, modulus) if modulus else pval  # +-1 is its own inverse
        rest = [(j, v) for j, v in prow.items() if j != pj]
        ptrack = tracked[pi] if tracked is not None else None
        del rows[pi]
        touched = []
        for i in col_index.pop(pj):
            if i == pi:
                continue
            r = rows[i]
            q = r.pop(pj) * pinv  # the entry at pj over pval
            if ptrack:
                _dict_submul(tracked[i], ptrack, q)
            for j, v in rest:
                old = r.get(j)
                if old is None:  # fill-in
                    r[j] = -q * v
                    col_index[j].add(i)
                else:
                    nv = old - q * v
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                        col_index[j].discard(i)
            if modulus:
                for j, _ in rest:
                    v = r.get(j)
                    if v is not None:
                        v %= modulus
                        if v:
                            r[j] = v
                        else:
                            del r[j]
                            col_index[j].discard(i)
            if r:
                touched.append(i)
            else:
                del rows[i]
        # the pivot index is now zero outside the pivot line, so the line
        # leaves the system
        for j, _ in rest:
            col_index[j].discard(pi)
        pivots.append(pi)
        for i in touched:
            r = rows[i]
            if modulus or 1 in r.values() or -1 in r.values():
                heappush(heap, (len(r), i))
    return rows, pivots


def snf_diagonal(A):
    """Nonzero invariant factors of A (chained), without transforms, so
    len() is the rank.

    Sparse-friendly: +-1 entries are swept first (_unit_sweep), on the
    columns when A has more rows than columns and on the rows otherwise;
    A and its transpose have the same Smith diagonal, and the short side
    leaves the smaller leftover.  Clearing a swept pivot line afterwards
    would be operations of the other kind touching only that line, so
    each sweep contributes one factor 1.

    A surviving line with a single entry, at an index no other surviving
    line meets, is a 1 x 1 diagonal block of the leftover, whose Smith
    factor is that entry's absolute value; such lone entries are read
    off directly.  A line of several entries is not: its factor is a gcd,
    left to the certified path below, even when the line stands alone.

    The rest of the leftover L (one row per surviving line) goes to
    smith_normal_form only as lattice_basis(L), a certified basis of its
    column lattice: column operations keep that lattice, and the nonzero
    Smith factors of L are those of Z^r modulo it, so the basis has L's
    Smith diagonal with a k x k column transform (k = rank <= r) instead
    of a c x c one.  The Smith diagonal of a block-diagonal matrix is
    the re-chained union of its blocks' diagonals (from_diagonal), with
    one factor 1 for each factor the re-chaining merges away.
    """
    swept, factors, leftover = _swept(A)
    if leftover is not None:
        Dm, _, _ = smith_normal_form(lattice_basis(leftover))
        factors += [r[i] for i, r in enumerate(Dm._rows) if i in r]
    torsion = AbGroupInvariants.from_diagonal(factors).torsion
    return [1] * (swept + len(factors) - len(torsion)) + list(torsion)


def rank(A, modulus=None):
    """Rank of A over Z, or over Z/p for a prime modulus p, with no
    Smith form: the pivots of the unit sweep, plus the lone entries it
    leaves, plus the rank of the rest, the column count of its lattice
    basis (snf_diagonal reads the same three parts).  Over Z/p the sweep
    leaves nothing, and a rank mod p is not the rank over Z: (2) has rank
    1 over Z and 0 over Z/2."""
    swept, factors, leftover = _swept(A, modulus)
    return swept + len(factors) + (lattice_basis(leftover).cols if leftover is not None else 0)


def _swept(A, modulus=None):
    """The unit sweep of A along its short side, over Z or Z/modulus
    (_unit_sweep), read as (pivots, lone, leftover): the number of pivots
    swept; the absolute values of the lone entries, each alone in its
    surviving line and at an index no other surviving line meets; and
    the other surviving lines as one matrix (a row per line), or None."""
    by_columns = A.rows > A.cols
    rows, pivots = _unit_sweep(A.col_dicts() if by_columns else A.row_dicts(),
                               modulus=modulus)
    meets = {}
    for r in rows.values():
        for j in r:
            meets[j] = meets.get(j, 0) + 1
    lone, rest = [], []
    for r in rows.values():
        j = next(iter(r))
        if len(r) == 1 and meets[j] == 1:
            lone.append(abs(r[j]))
        else:
            rest.append(r)
    leftover = IntMatrix(len(rest), A.rows if by_columns else A.cols, rest) if rest else None
    return len(pivots), lone, leftover


def _transposed(lines, n):
    """The n lines (dicts index -> value) that read the given lines
    across: entry j of line i is entry i of line j."""
    out = [{} for _ in range(n)]
    for j, line in enumerate(lines):
        for i, v in line.items():
            out[i][j] = v
    return out


def _column_echelon(nrows, columns, V=None):
    """Column elimination, shared by lattice_basis and kernel_basis.

    columns: list of dicts row->value (mutated into a staircase).
    Returns (pivots, V, active): pivots is a list of (row, col_index)
    with strictly increasing rows, V[j] (a dict original index ->
    coefficient) expresses final column j in terms of the originals, and
    active holds the indices of the surviving (necessarily zero)
    non-pivot columns.  A given V (one dict per column, mutated) is
    carried through the same column operations instead: V[j] then ends
    as the same combination of the given dicts.
    """
    if V is None:
        V = [{j: 1} for j in range(len(columns))]
    active = set(range(len(columns)))
    pivots = []
    row_cols = {}
    for j, col in enumerate(columns):
        for i in col:
            row_cols.setdefault(i, set()).add(j)

    def col_submul(j, base, q):
        col = columns[j]
        for i, v in columns[base].items():
            old = col.get(i)
            if old is None:  # fill-in, the only entry the index lacks
                col[i] = -q * v
                row_cols.setdefault(i, set()).add(j)
            else:
                nv = old - q * v
                if nv:
                    col[i] = nv
                else:
                    del col[i]

    for r in range(nrows):
        touching = row_cols.pop(r, None)
        if not touching:
            continue
        live = [j for j in touching if j in active and columns[j].get(r)]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(columns[j][r]), j))
            base = live[0]
            bval = columns[base][r]
            nxt = []
            for j in live[1:]:
                q = columns[j][r] // bval
                if q:
                    col_submul(j, base, q)
                    _dict_submul(V[j], V[base], q)
                if columns[j].get(r):
                    nxt.append(j)
            live = [base] + nxt
        pj = live[0]
        if columns[pj][r] < 0:
            columns[pj] = {i: -v for i, v in columns[pj].items()}
            V[pj] = {k: -v for k, v in V[pj].items()}
        active.discard(pj)
        pivots.append((r, pj))
    return pivots, V, active


def _dict_submul(d, src, q):
    for k, v in src.items():
        nv = d.get(k, 0) - q * v
        if nv:
            d[k] = nv
        else:
            d.pop(k, None)


def kernel_basis(A, keep=None):
    """Basis matrix (columns) of {v : A v = 0}; with keep, a spanning
    set of that kernel's image under the projection onto the first keep
    coordinates, which is all a preimage lattice reads.

    Column operations with a tracked transform find the kernel: the
    columns they bring to zero carry kernel vectors (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  The +-1 pivots are
    swept from the columns first (_unit_sweep); a pivot column is the
    only one left nonzero on its pivot row, so no kernel vector uses it,
    and the columns the sweep brings to zero are kernel vectors already.
    The columns that survive go through the column echelon, which takes
    their rows fewest entries first (ties by index), Markowitz-style like
    the sweep: early pivots on short rows spread less fill-in.  The
    transform tracks only the first keep coordinates (all of them by
    default), so with keep < A.cols zero vectors are left out and the
    rest need not be independent.  The basis depends on the row order;
    its lattice does not.
    """
    if keep is None:
        keep = A.cols
    tracked = [{j: 1} if j < keep else {} for j in range(A.cols)]
    rows, pivots = _unit_sweep(A.col_dicts(), tracked)
    swept = set(pivots)
    vectors = [tracked[j] for j in range(A.cols) if j not in rows and j not in swept]
    survivors = sorted(rows)
    lengths = {}
    for j in survivors:
        for i in rows[j]:
            lengths[i] = lengths.get(i, 0) + 1
    rmap = {i: k for k, i in enumerate(sorted(lengths, key=lambda i: (lengths[i], i)))}
    small_cols = [{rmap[i]: v for i, v in rows[j].items()} for j in survivors]
    _, V, active = _column_echelon(len(rmap), small_cols, [tracked[j] for j in survivors])
    for j in sorted(active):
        if small_cols[j]:
            raise ArithmeticError("non-pivot column failed to vanish")
        vectors.append(V[j])
    vectors = [v for v in vectors if v]
    return IntMatrix(keep, len(vectors), _transposed(vectors, keep))


def lattice_basis(B):
    """Canonical column-Hermite basis of the column lattice of B, as an
    IntMatrix with B.rows rows and rank columns: staircase with positive
    pivots, and at each pivot row the entries of the earlier basis
    columns reduced into [0, pivot).

    The tracked column echelon need not be trusted: each basis column is
    checked to be B times its tracked integer combination (so the basis
    lattice lies in B's), and every column of B to solve over the basis
    in one staircase_solve (so B's lies in the basis lattice).  Either
    failure raises ArithmeticError.  The echelon reads only the nonzero
    columns of B, so a short, wide B with few of them costs little.
    """
    by_index = {}
    for a, row in enumerate(B._rows):
        for j, v in row.items():
            by_index.setdefault(j, {})[a] = v
    if not by_index:
        return IntMatrix(B.rows, 0)  # the zero lattice, with nothing to certify
    originals = [by_index[j] for j in sorted(by_index)]
    columns = [dict(col) for col in originals]
    pivots, V, _ = _column_echelon(B.rows, columns)
    basis = [columns[j] for _, j in pivots]
    combos = [V[j] for _, j in pivots]
    for k, (r, _) in enumerate(pivots):
        p = basis[k][r]
        for l in range(k):
            q = basis[l].get(r, 0) // p
            if q:
                _dict_submul(basis[l], basis[k], q)
                _dict_submul(combos[l], combos[k], q)
    for k, combo in enumerate(combos):
        image = {}
        for src, q in combo.items():
            _dict_submul(image, originals[src], -q)
        if image != basis[k]:
            raise ArithmeticError("basis column %d is not its tracked combination" % k)
    H = IntMatrix(B.rows, len(basis), _transposed(basis, B.rows))
    _, outside = staircase_solve(H, B._rows)
    if outside:
        raise ArithmeticError("column %d lies outside its echelon basis" % outside[0])
    return H


def staircase_solve(H, rows):
    """X with H X = B for every column of B in the column lattice of H,
    by one elimination over all columns at once; H is a column staircase
    (lattice_basis output), each nonzero column's pivot its topmost
    entry.  B (a row per row of H) and X (a row per column of H) are
    lists of sparse row dicts.  Also returns the sorted columns of B
    outside the lattice, where X means nothing: those that do not divide
    at a pivot, or have an entry on a row without one, stay behind in B."""
    B = [dict(row) for row in rows]
    X = [{} for _ in range(H.cols)]
    for j, col in enumerate(H.col_dicts()):
        if col:
            r = min(col)
            p = col[r]
            X[j] = quot = {c: v // p for c, v in B[r].items() if v % p == 0}
            for i, h in col.items():
                _dict_submul(B[i], quot, h)
    return X, sorted(set().union(*B))


def staircase_reduce(columns, vec):
    """The canonical representative of vec modulo the lattice of a column
    staircase given by its col_dicts(): floor quotients down the pivots
    leave every pivot row's entry in [0, pivot)."""
    v = list(vec)
    for col in columns:
        if col:
            r = min(col)
            q = v[r] // col[r]
            if q:
                for i, h in col.items():
                    v[i] -= q * h
    return v


def lattice_solve(H, b):
    """Solve H x = b over Z for one vector b: staircase_solve on one
    column.  Returns the coefficient list or None."""
    X, outside = staircase_solve(H, [{0: v} if v else {} for v in b])
    if outside:
        return None
    return [x.get(0, 0) for x in X]


def preimage_lattice(A, L=None):
    """Basis for the lattice {v : A v in column-lattice(L)}: the
    projection onto A's coordinates of the kernel of [A | L] (L's
    lattice is that of -L), which kernel_basis gives without tracking
    L's coordinates, made a certified basis by lattice_basis.

    With L omitted (or with no columns) this is the kernel lattice of A.
    """
    if L is None:
        L = IntMatrix(A.rows, 0)
    _check_shape(L.rows == A.rows, "preimage_lattice", A, L)
    if A.rows == 0 or A.is_zero():
        return IntMatrix.identity(A.cols)
    return lattice_basis(kernel_basis(A.hstack(L), A.cols))


def preimage_lattice_multi(pairs, ncols):
    """{v : A_i v in lattice(L_i) for every (A_i, L_i)}; L_i may be None.
    The conditions are stacked: the A_i one above the other, the L_i
    block-diagonally."""
    pairs = [(A, L if L is not None else IntMatrix(A.rows, 0))
             for A, L in pairs if A.rows]
    if not pairs:
        return IntMatrix.identity(ncols)
    rows = []
    for A, L in pairs:
        if A.cols != ncols:
            raise ValueError("preimage_lattice_multi: %d columns, expected %d"
                             % (A.cols, ncols))
        _check_shape(L.rows == A.rows, "preimage_lattice_multi", A, L)
        rows += A.row_dicts()
    return preimage_lattice(IntMatrix(len(rows), ncols, rows),
                            block_diagonal([L for _, L in pairs]))


def block_diagonal(mats):
    """The block-diagonal matrix with the given blocks in order; blocks
    may have no rows or no columns."""
    rows = []
    c = 0
    for m in mats:
        rows += [{c + j: v for j, v in r.items()} for r in m._rows]
        c += m.cols
    return IntMatrix(len(rows), c, rows)


class LatticeContainmentError(ValueError):
    def __init__(self, column, vector):
        self.column = column
        self.vector = vector
        super().__init__("column %d (%r) is not contained in the outer lattice"
                         % (column, vector))


def subquotient_invariants(K, I):
    """Invariant factors of lattice(K) / lattice(I).

    Requires lattice(I) <= lattice(K); a violation raises
    LatticeContainmentError naming the first column of I outside.
    """
    _check_shape(K.rows == I.rows, "subquotient_invariants", K, I)
    Kb = lattice_basis(K)
    coords = []
    for j in range(I.cols):
        col = I.column(j)
        x = lattice_solve(Kb, col)
        if x is None:
            raise LatticeContainmentError(j, col)
        coords.append(x)
    diag = snf_diagonal(IntMatrix.from_columns(coords, Kb.cols))
    return AbGroupInvariants.from_diagonal(diag, free_rank=Kb.cols - len(diag))
