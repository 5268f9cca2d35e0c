"""Grillet's symmetric cochain complex in degrees 1-4, its inclusion
into the level-3 complex, and the comparison isomorphisms.

Symmetric n-cochains are normalized functions on n-tuples of non-unit
arguments, cut out inside the full cochain group by the symmetry
identities (degree 2: f(x,y) = f(y,x); degree 3: the two
alternating identities; degree 4: four identities).  The
constraint solution sets are integer lattices in the free cover, so
cohomology of the subcomplex runs through the same preimage-lattice
pipeline as everything else.
"""

from itertools import product

from .bar import BarWord, chain_add_term, iterated_bar
from .cohomology import degree_basis
from .hmod import CochainGroup, FreeBasis, dualize
from .zlinalg import (IntMatrix, lattice_basis, lattice_contains,
                      preimage_lattice_multi, subquotient_invariants)


def _tuple_basis(M, n):
    """Normalized n-tuples over M \\ {e} as a free basis; degree-1 bar
    words are reused as the identifiers so dualize applies unchanged."""
    cells = [BarWord(t, (1,) * (n - 1), 1)
             for t in product(M.nonunit(), repeat=n)]
    return FreeBasis(cells, {c: c.pi(M) for c in cells})


class SymmetricCochainLattice:
    """The lattice of symmetric n-cochains inside the full normalized
    cochain group: C^n_G = {f : constraints(f) = 0 in the value groups}."""

    __slots__ = ("degree", "ambient", "constraints", "lattice")

    def __init__(self, degree, ambient, constraints, lattice):
        self.degree = degree
        self.ambient = ambient
        self.constraints = constraints
        self.lattice = lattice


def _constraint_rows(M, n):
    """The symmetry identities as formal chains: each row is a list of
    (coefficient, argument tuple); rows with an identity argument or
    that degenerate to 0 = 0 are dropped by the caller via cells."""
    tuples = list(product(M.nonunit(), repeat=n))
    rows = []
    if n == 2:
        seen = set()
        for (x, y) in tuples:
            if (y, x) in seen:
                continue
            seen.add((x, y))
            if x != y:
                rows.append([(1, (x, y)), (-1, (y, x))])
    elif n == 3:
        for (x, y, z) in tuples:
            rows.append([(1, (x, y, z)), (1, (z, y, x))])
            rows.append([(1, (x, y, z)), (1, (y, z, x)), (1, (z, x, y))])
    elif n == 4:
        for (x, y, z, t) in tuples:
            if z == y and t == x:
                rows.append([(1, (x, y, z, t))])
            rows.append([(1, (t, z, y, x)), (1, (x, y, z, t))])
            rows.append([(1, (x, y, z, t)), (-1, (y, z, t, x)),
                         (1, (z, t, x, y)), (-1, (t, x, y, z))])
            rows.append([(1, (x, y, z, t)), (-1, (y, x, z, t)),
                         (1, (y, z, x, t)), (-1, (y, z, t, x))])
    return rows


def _constraint_matrix(M, module, n):
    """Stack the symmetry identities into one integer matrix on the
    ambient cochain coordinates, rows blocked by the value groups."""
    basis = _tuple_basis(M, n)
    amb = CochainGroup(basis, module)
    index = {c.letters: i for i, c in enumerate(basis.generators)}
    rows = _constraint_rows(M, n)
    blocks = []
    rel_cols = []
    for row in rows:
        cell = BarWord(row[0][1], (1,) * (n - 1), 1)
        grp = module.group(basis.pi[cell])
        blk = IntMatrix(grp.ngens, amb.total)
        for c, args in row:
            cell_i = index[args]
            off = amb.offsets[cell_i]
            for i in range(grp.ngens):
                blk.data[i][off + i] += c
        blocks.append(blk)
        rel_cols.append(grp.relations)
    if not blocks:
        return amb, IntMatrix(0, amb.total), IntMatrix(0, 0)
    mat = blocks[0]
    for b in blocks[1:]:
        mat = mat.vstack(b)
    total_rel_cols = sum(r.cols for r in rel_cols)
    rel = IntMatrix(mat.rows, total_rel_cols)
    roff = coff = 0
    for blk, r in zip(blocks, rel_cols):
        for i in range(r.rows):
            for j in range(r.cols):
                rel.data[roff + i][coff + j] = r.data[i][j]
        roff += blk.rows
        coff += r.cols
    return amb, mat, rel


def symmetric_cochains(M, module, n):
    """The lattice of symmetric n-cochains, 1 <= n <= 4 (degree 1 is
    unconstrained)."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric cochains are defined for degrees 1..4")
    amb, mat, rel = _constraint_matrix(M, module, n)
    lattice = preimage_lattice_multi([(mat, rel)], amb.total)
    return SymmetricCochainLattice(n, amb, (mat, rel), lattice)


def _grillet_formula(M, n, args):
    """The symmetric-complex coboundary (delta^n f)(args) as a formal chain of
    (translate, argument tuple) terms, value terms with an identity
    argument dropped."""
    e = M.identity
    out = []

    def add(coeff, u, tup):
        if any(a == e for a in tup):
            return
        out.append((coeff, u, tup))

    if n == 1:
        x, y = args
        add(-1, x, (y,))
        add(1, e, (M.op(x, y),))
        add(-1, y, (x,))
    elif n == 2:
        x, y, z = args
        add(-1, x, (y, z))
        add(1, e, (M.op(x, y), z))
        add(-1, e, (x, M.op(y, z)))
        add(1, z, (x, y))
    elif n == 3:
        x, y, z, t = args
        add(-1, x, (y, z, t))
        add(1, e, (M.op(x, y), z, t))
        add(-1, e, (x, M.op(y, z), t))
        add(1, e, (x, y, M.op(z, t)))
        add(-1, t, (x, y, z))
    else:
        raise ValueError("no Grillet coboundary in degree %d" % n)
    return out


def grillet_coboundary(M, module, n):
    """Matrix of delta^n on the full ambient cochain groups (the
    restriction to the symmetric lattices is taken by the callers)."""
    source = _tuple_basis(M, n)
    target = _tuple_basis(M, n + 1)
    d = {}
    for t in target.generators:
        chain = {}
        for coeff, u, tup in _grillet_formula(M, n, t.letters):
            cell = BarWord(tup, (1,) * (len(tup) - 1), 1)
            chain_add_term(chain, (u, cell), coeff)
        d[t] = chain
    return dualize(d, source, target, module, M)


def grillet_cohomology(M, module, n):
    """H^n_G for n in {1, 2, 3}: kernel of delta^n restricted to the
    symmetric lattice modulo delta^{n-1} of the symmetric lattice below
    (plus the coefficient relations)."""
    if not 1 <= n <= 3:
        raise ValueError("Grillet cohomology is computed for degrees 1..3")
    cn = symmetric_cochains(M, module, n)
    cnext = symmetric_cochains(M, module, n + 1)
    d_n = grillet_coboundary(M, module, n)
    rel_next = cnext.ambient.relation_matrix()
    sym_mat, sym_rel = cn.constraints
    kernel = preimage_lattice_multi(
        [(sym_mat, sym_rel), (d_n, rel_next)], cn.ambient.total)
    if n == 1:
        image_cols = IntMatrix(cn.ambient.total, 0)
    else:
        below = symmetric_cochains(M, module, n - 1)
        d_prev = grillet_coboundary(M, module, n - 1)
        image_cols = d_prev.mul(below.lattice)
    image = image_cols.hstack(cn.ambient.relation_matrix())
    return subquotient_invariants(kernel, image)


# -- the inclusion into the level-3 complex ----------------------------------

def inclusion_matrices(M, module):
    """Matrices of i_1..i_4 from the symmetric cochain groups into
    C^3..C^6(M, 3; A): i_1 = id, i_2 = -id, i_3 = (f, 0),
    i_4 = (-f, 0, 0, 0)."""
    mats = {}
    for n, sign in ((1, 1), (2, -1), (3, 1), (4, -1)):
        src = _tuple_basis(M, n)
        amb_src = CochainGroup(src, module)
        dga = iterated_bar(M, 3, n + 3)
        tgt = degree_basis(dga, n + 2)
        amb_tgt = CochainGroup(tgt, module)
        mat = IntMatrix(amb_tgt.total, amb_src.total)
        src_index = {c.letters: i for i, c in enumerate(src.generators)}
        for ti, cell in enumerate(tgt.generators):
            if cell.seps != (1,) * (len(cell.letters) - 1):
                continue  # only the plain-word component is hit
            si = src_index[cell.letters]
            goff = amb_tgt.offsets[ti]
            soff = amb_src.offsets[si]
            k = amb_src.blocks[si].ngens
            for i in range(k):
                mat.data[goff + i][soff + i] = sign
        mats[n] = mat
    return mats


class InclusionReport:
    __slots__ = ("squares", "witnesses")

    def __init__(self):
        self.squares = {}
        self.witnesses = {}

    def record(self, name, ok, witness=None):
        self.squares[name] = ok
        if witness is not None:
            self.witnesses[name] = witness

    def all_pass(self):
        return all(self.squares.values())

    def __repr__(self):
        return "InclusionReport(%r)" % (self.squares,)


def inclusion_chainmap(M, module):
    """Build i_1..i_4 and verify the three commuting squares
    d^(3) . i_n = i_{n+1} . delta^n on every generator of the symmetric
    lattices (the last square is the one that needs the symmetry
    identities)."""
    mats = inclusion_matrices(M, module)
    report = InclusionReport()
    for n in (1, 2, 3):
        lat = symmetric_cochains(M, module, n).lattice
        delta = grillet_coboundary(M, module, n)
        dga = iterated_bar(M, 3, n + 4)
        src = degree_basis(dga, n + 2)
        tgt = degree_basis(dga, n + 3)
        d = {t: dga.differential(t) for t in tgt.generators}
        level3_d = dualize(d, src, tgt, module, M)
        lhs = level3_d.mul(mats[n]).mul(lat)
        rhs = mats[n + 1].mul(delta).mul(lat)
        tgt_amb = CochainGroup(tgt, module)
        rel = lattice_basis(tgt_amb.relation_matrix())
        ok = True
        witness = None
        for j in range(lat.cols):
            diffcol = [a - b for a, b in zip(lhs.column(j), rhs.column(j))]
            if any(diffcol) and not lattice_contains(rel, diffcol):
                ok = False
                witness = ("lattice generator", j)
                break
        report.record("square d.i_%d = i_%d.delta" % (n, n + 1), ok, witness)
    return mats, report


def eleob_equivalent(M, module, table):
    """Evaluate the three symmetry condition sets on a degree-3 table
    (a dict argument-tuple -> value vector).  Returns the triple of
    booleans (conditions (easc1), (easc2), (easc3))."""
    nu = M.nonunit()

    def value(args):
        v = table.get(args)
        if v is not None:
            return list(v)
        pi = M.op(M.op(args[0], args[1]), args[2])
        return module.group(pi).zero()

    def is_zero(args, combo):
        pi = M.op(M.op(args[0], args[1]), args[2])
        grp = module.group(pi)
        acc = [0] * grp.ngens
        for coeff, tup in combo:
            v = value(tup)
            for i in range(grp.ngens):
                acc[i] += coeff * v[i]
        return grp.is_zero_element(acc)

    c1 = c2 = c3 = True
    for x in nu:
        for y in nu:
            for z in nu:
                a = (x, y, z)
                if not is_zero(a, [(1, (x, y, z)), (1, (z, y, x))]):
                    c1 = False
                if not is_zero(a, [(1, (x, y, z)), (1, (y, z, x)), (1, (z, x, y))]):
                    c1 = False
                if not is_zero(a, [(1, (x, y, z)), (-1, (y, x, z)), (1, (y, z, x))]):
                    c2 = False
                if not is_zero(a, [(1, (x, y, z)), (-1, (x, z, y)), (1, (z, x, y))]):
                    c3 = False
    return c1, c2, c3


def injectivity_check(M, module):
    """Verify that H^3_G -> H^5(M,3;A) is injective: every symmetric
    3-cocycle whose inclusion image is a level-3 coboundary is itself a
    symmetric 2-coboundary.  Returns (ok, witness)."""
    mats = inclusion_matrices(M, module)
    sym3 = symmetric_cochains(M, module, 3)
    sym_mat, sym_rel = sym3.constraints
    delta3 = grillet_coboundary(M, module, 3)
    c4 = symmetric_cochains(M, module, 4)
    rel4 = c4.ambient.relation_matrix()

    dga = iterated_bar(M, 3, 6)
    src4 = degree_basis(dga, 4)
    src5 = degree_basis(dga, 5)
    tgt6 = degree_basis(dga, 6)
    d4 = dualize({t: dga.differential(t) for t in src5.generators},
                 src4, src5, module, M)
    amb5 = CochainGroup(src5, module)
    image5 = d4.hstack(amb5.relation_matrix())

    # {f : f symmetric, delta^3 f ~ 0, i_3 f in im d^4 + rel}
    problem = preimage_lattice_multi(
        [(sym_mat, sym_rel), (delta3, rel4), (mats[3], image5)],
        sym3.ambient.total)

    # delta^2(C^2_G) + relations, the symmetric coboundaries
    sym2 = symmetric_cochains(M, module, 2)
    delta2 = grillet_coboundary(M, module, 2)
    target = lattice_basis(
        delta2.mul(sym2.lattice).hstack(sym3.ambient.relation_matrix()))
    for j in range(problem.cols):
        col = problem.column(j)
        if not lattice_contains(target, col):
            return False, col
    return True, None
