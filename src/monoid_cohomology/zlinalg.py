"""Exact integer matrix algebra.

Everything here runs over arbitrary-precision Python ints: Smith normal
form with unimodular transforms, kernel and preimage lattices (column
Hermite echelon), and invariant factors of lattice subquotients.  These
are the substrate for every cohomology-group extraction in the package.

Lattices are always given by matrices whose *columns* span them.
"""


class IntMatrix:
    """Dense row-major integer matrix; zero dimensions allowed."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            assert len(data) == rows and all(len(r) == cols for r in data)
            self.data = [list(r) for r in data]

    @classmethod
    def from_rows(cls, data, cols=None):
        rows = len(data)
        if cols is None:
            if rows == 0:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(data[0])
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, columns, rows):
        m = cls(rows, len(columns))
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                m.data[i][j] = v
        return m

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None):
        k = len(entries)
        m = cls(rows if rows is not None else k, cols if cols is not None else k)
        for i, d in enumerate(entries):
            m.data[i][i] = d
        return m

    def copy(self):
        return IntMatrix(self.rows, self.cols, self.data)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def mul(self, other):
        assert self.cols == other.rows
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += a * brow[j]
        return out

    def mul_vector(self, vec):
        assert len(vec) == self.cols
        out = []
        for row in self.data:
            s = 0
            for j, v in enumerate(vec):
                if v and row[j]:
                    s += row[j] * v
            out.append(s)
        return out

    def hstack(self, other):
        assert self.rows == other.rows
        return IntMatrix(self.rows, self.cols + other.cols,
                         [self.data[i] + other.data[i] for i in range(self.rows)])

    def vstack(self, other):
        assert self.cols == other.cols
        return IntMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def scaled(self, c):
        return IntMatrix(self.rows, self.cols,
                         [[c * v for v in row] for row in self.data])

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


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
        rank, entries 1 vanish.  diag need not be sorted or chained."""
        ds = [abs(d) for d in diag]
        free = free_rank + sum(1 for d in ds if d == 0)
        ds = [d for d in ds if d >= 2]
        # pairwise (gcd, lcm) sift re-chains an arbitrary diagonal
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a != 0:
                    g = gcd(a, b)
                    ds[i], ds[j] = g, a * b // g
        ds = sorted(d for d in ds if d >= 2)
        return cls(free, ds)

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


def smith_normal_form(A):
    """Return (D, U, V) with U*A*V == D, U and V unimodular, and D
    diagonal with d1 | d2 | ... >= 0.  The identity U*A*V == D is
    re-verified before returning."""
    m, n = A.rows, A.cols
    D = [list(row) for row in A.data]
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

    Dm = IntMatrix(m, n, D)
    Um = IntMatrix(m, m, U)
    Vm = IntMatrix(n, n, V)
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


def _unit_sweep(A):
    """Eliminate +-1 pivots of A with row operations.

    Pivots in short rows and thin columns go first (Markowitz-style) to
    limit fill-in.  Returns (rows, eliminated): the surviving rows as
    dicts col -> value, none of which touches an eliminated column, and
    the (pivot_row, pivot_col, pivot_val) triples in sweep order.
    """
    from heapq import heappush, heappop

    rows = {}
    col_index = {}
    for i, row in enumerate(A.data):
        r = {j: v for j, v in enumerate(row) if v}
        if r:
            rows[i] = r
            for j in r:
                col_index.setdefault(j, set()).add(i)
    eliminated = []
    heap = []
    for i, r in rows.items():
        if any(abs(v) == 1 for v in r.values()):
            heappush(heap, (len(r), i))
    while heap:
        rlen, pi = heappop(heap)
        prow = rows.get(pi)
        if prow is None:
            continue
        if len(prow) != rlen:
            heappush(heap, (len(prow), pi))  # stale entry, re-queue
            continue
        unit_cols = [j for j, v in prow.items() if abs(v) == 1]
        if not unit_cols:
            continue
        pj = min(unit_cols, key=lambda j: (len(col_index.get(j, ())), j))
        pval = prow[pj]
        touched = []
        for i in list(col_index.get(pj, ())):
            if i == pi or i not in rows:
                continue
            r = rows[i]
            c = r.get(pj)
            if not c:
                continue
            q = c * pval  # == c / pval since pval is +-1
            for j, v in prow.items():
                nv = r.get(j, 0) - q * v
                if nv:
                    r[j] = nv
                    col_index.setdefault(j, set()).add(i)
                else:
                    r.pop(j, None)
                    s = col_index.get(j)
                    if s:
                        s.discard(i)
            if not r:
                del rows[i]
            else:
                touched.append(i)
        # the pivot column is now zero outside the pivot row, so the row
        # leaves the system
        for j in prow:
            s = col_index.get(j)
            if s:
                s.discard(pi)
        del rows[pi]
        eliminated.append((prow, pj, pval))
        for i in touched:
            r = rows.get(i)
            if r and any(abs(v) == 1 for v in r.values()):
                heappush(heap, (len(r), i))
    return rows, eliminated


def snf_diagonal(A):
    """Nonzero invariant factors of A (chained), without transforms.

    Sparse-friendly: +-1 entries are swept first (_unit_sweep); clearing
    a swept pivot row afterwards would be column operations touching only
    that row, so each sweep contributes one factor 1, and the dense
    leftover goes through the full algorithm.
    """
    rows, eliminated = _unit_sweep(A)
    ones = len(eliminated)
    if not rows:
        return [1] * ones
    live_rows = sorted(rows)
    live_cols = sorted({j for r in rows.values() for j in r})
    cmap = {j: k for k, j in enumerate(live_cols)}
    dense = IntMatrix(len(live_rows), len(live_cols))
    for a, i in enumerate(live_rows):
        for j, v in rows[i].items():
            dense.data[a][cmap[j]] = v
    Dm, _, _ = smith_normal_form(dense)
    diag = [Dm.data[i][i] for i in range(min(Dm.rows, Dm.cols))]
    return [1] * ones + [d for d in diag if d]


def matrix_rank(A):
    return len(snf_diagonal(A))


def _column_echelon(nrows, ncols, columns, track):
    """Shared column-elimination core.

    columns: list of dicts row->value (mutated into a staircase).
    Returns (pivots, V, active): pivots is a list of (row, col_index)
    with strictly increasing rows, V (if track) expresses the final
    columns in terms of the originals, active holds the indices of the
    surviving (necessarily zero) non-pivot columns.
    """
    V = [{j: 1} for j in range(ncols)] if track else None
    active = set(range(ncols))
    pivots = []
    row_cols = {}
    for j, col in enumerate(columns):
        for i in col:
            row_cols.setdefault(i, set()).add(j)

    def col_submul(j, base, q):
        col = columns[j]
        for i, v in columns[base].items():
            nv = col.get(i, 0) - q * v
            if nv:
                col[i] = nv
                row_cols.setdefault(i, set()).add(j)
            else:
                col.pop(i, None)

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
                    if track:
                        _dict_submul(V[j], V[base], q)
                if columns[j].get(r):
                    nxt.append(j)
            live = [base] + nxt
        pj = live[0]
        if columns[pj][r] < 0:
            columns[pj] = {i: -v for i, v in columns[pj].items()}
            if track:
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


def _matrix_to_coldicts(A):
    cols = [dict() for _ in range(A.cols)]
    for i, row in enumerate(A.data):
        for j in range(A.cols):
            if row[j]:
                cols[j][i] = row[j]
    return cols


def kernel_basis(A):
    """Basis matrix (columns) of {v : A v = 0}.

    Row operations preserve the kernel, so +-1 pivots are swept first
    (_unit_sweep), the small leftover goes through the tracked column
    echelon, and the eliminated pivot coordinates are recovered by
    back-substitution in reverse sweep order.
    """
    rows, eliminated = _unit_sweep(A)
    pivot_cols = {pj for _, pj, _ in eliminated}
    free_cols = [j for j in range(A.cols) if j not in pivot_cols]
    fmap = {j: k for k, j in enumerate(free_cols)}
    # leftover system lives entirely on the non-pivot columns
    small_cols = [dict() for _ in free_cols]
    live_rows = sorted(rows)
    rmap = {i: k for k, i in enumerate(live_rows)}
    for i in live_rows:
        for j, v in rows[i].items():
            small_cols[fmap[j]][rmap[i]] = v
    pivots, V, active = _column_echelon(len(live_rows), len(free_cols),
                                        small_cols, track=True)
    kernel_cols = []
    for j in sorted(active):
        if small_cols[j]:
            raise ArithmeticError("non-pivot column failed to vanish")
        vec = [0] * A.cols
        for k, v in V[j].items():
            vec[free_cols[k]] = v
        # recover the eliminated coordinates, latest pivot first
        for prow, pj, pval in reversed(eliminated):
            s = 0
            for jj, v in prow.items():
                if jj != pj and vec[jj]:
                    s += v * vec[jj]
            vec[pj] = -s * pval  # -s / pval with pval = +-1
        kernel_cols.append(vec)
    return IntMatrix.from_columns(kernel_cols, A.cols)


def lattice_basis(B):
    """Canonical column-Hermite basis of the column lattice of B:
    staircase with positive pivots, and at each pivot row the entries of
    the earlier basis columns reduced into [0, pivot)."""
    cols = _matrix_to_coldicts(B)
    pivots, _, _ = _column_echelon(B.rows, B.cols, cols, track=False)
    basis = [cols[j] for _, j in pivots]
    for k, (r, _) in enumerate(pivots):
        p = basis[k][r]
        for l in range(k):
            q = basis[l].get(r, 0) // p
            if q:
                _dict_submul(basis[l], basis[k], q)
    out = IntMatrix(B.rows, len(basis))
    for j, col in enumerate(basis):
        for i, v in col.items():
            out.data[i][j] = v
    return out


def staircase_pivots(H):
    """(row, col) of the leading entry of every nonzero column of a
    column staircase (lattice_basis output), rows increasing."""
    pivots = []
    for j in range(H.cols):
        for i in range(H.rows):
            if H.data[i][j]:
                pivots.append((i, j))
                break
    return pivots


def lattice_solve(H, b):
    """Solve H x = b over Z, H a column staircase (lattice_basis
    output).  Returns the coefficient list or None."""
    b = list(b)
    x = [0] * H.cols
    for r, j in staircase_pivots(H):
        p = H.data[r][j]
        q, rem = divmod(b[r], p)
        if rem:
            return None
        if q:
            x[j] = q
            for i in range(r, H.rows):
                if H.data[i][j]:
                    b[i] -= q * H.data[i][j]
    if any(b):
        return None
    return x


def lattice_contains(H, vec):
    return lattice_solve(H, vec) is not None


def preimage_lattice(A, L=None):
    """Basis for the lattice {v : A v in column-lattice(L)}.

    With L omitted (or with no columns) this is the kernel lattice of A.
    """
    if L is None:
        L = IntMatrix(A.rows, 0)
    assert L.rows == A.rows
    if A.rows == 0 or A.is_zero():
        return IntMatrix.identity(A.cols)
    stacked = A.hstack(L.scaled(-1))
    ker = kernel_basis(stacked)
    proj = IntMatrix(A.cols, ker.cols, ker.data[:A.cols])
    return lattice_basis(proj)


def preimage_lattice_multi(pairs, ncols):
    """{v : A_i v in lattice(L_i) for every (A_i, L_i)}; L_i may be None."""
    blocks = [(A, L if L is not None else IntMatrix(A.rows, 0)) for A, L in pairs]
    blocks = [(A, L) for A, L in blocks if A.rows]
    if not blocks:
        return IntMatrix.identity(ncols)
    total_rows = sum(A.rows for A, _ in blocks)
    A_all = IntMatrix(total_rows, ncols)
    lcols = sum(L.cols for _, L in blocks)
    L_all = IntMatrix(total_rows, lcols)
    roff = coff = 0
    for A, L in blocks:
        assert A.cols == ncols
        for i in range(A.rows):
            A_all.data[roff + i] = list(A.data[i])
            for j in range(L.cols):
                L_all.data[roff + i][coff + j] = L.data[i][j]
        roff += A.rows
        coff += L.cols
    return preimage_lattice(A_all, L_all)


class LatticeContainmentError(ValueError):
    def __init__(self, column, vector):
        self.column = column
        self.vector = vector
        super().__init__("column %d (%r) is not contained in the outer lattice"
                         % (column, vector))


def subquotient_invariants(K, I):
    """Invariant factors of lattice(K) / lattice(I).

    Requires lattice(I) <= lattice(K); a violation raises
    LatticeContainmentError naming a witness column of I.
    """
    assert K.rows == I.rows
    Kb = lattice_basis(K)
    X = IntMatrix(Kb.cols, I.cols)
    for j in range(I.cols):
        col = I.column(j)
        x = lattice_solve(Kb, col)
        if x is None:
            raise LatticeContainmentError(j, col)
        for i in range(Kb.cols):
            X.data[i][j] = x[i]
    diag = snf_diagonal(X)
    return AbGroupInvariants.from_diagonal(diag, free_rank=Kb.cols - len(diag))


def determinant(A):
    """Integer determinant via Bareiss fraction-free elimination."""
    assert A.rows == A.cols
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
