"""Cochain complexes of the iterated bar construction and their
cohomology, read off Smith diagonals of sparse integer matrices.

The degree-n cochain group of Hom(B^r(ZM), A) is the direct sum of the
A(pi(cell)) over the generic n-cells; the coboundary is precomposition
with the bar differential.  A(x) = Z^k / L_x is presented, and the
stored coboundary d_F is that of the free cover F (the same translation
matrices, no relations).

For a constant module the complex is K (x) A, with K the integer
cochain complex, and H^n follows from the Smith diagonals of K by the
universal coefficient theorem.

Any other module goes through the mapping cone of the relations
(Weibel, An Introduction to Homological Algebra, 1.5).  The relation
module R has R(x) = L_x on its independent basis B_x, and 0 -> C(R) ->
C(F) -> C(A) -> 0 is exact, with I the block-diagonal inclusion of the
B_x.  The translations need to satisfy the module laws only modulo the
relations, so d_F d_F need not vanish; it lands in I C(R), and the
curvature K^n = I^-1 (d_F^n d_F^(n-1)) corrects the cone:
D(r, f) = (-d_R r - K f, I r + d_F f) on C^(n+1)(R) + C^n(F) squares
to zero and is quasi-isomorphic to C(A).  The torsion of H^n is the
Smith factors above 1 of the one row-sparse matrix

    psi = [[-d_R^n, -K^n], [I_n, d_F^(n-1)]]
        : C^n(R) + C^(n-1)(F) -> C^(n+1)(R) + C^n(F),

which is the cone's D^(n-1).  The free rank is dim cone^n - rank D^n -
rank psi.  The top rows of D^n are -I^-1 d_F^(n+1) times its bottom
rows, since d_F I = I d_R and d_F d_F = I K, so D^n has the rank of
its bottom block [I_(n+1) | d_F^n], and no second module is needed.
Without K the answer is wrong whenever d_F d_F does not vanish: on
C(0,4) with A(x) = Z + Z/2 and y acting by (a, b) -> (a, b + (y mod 2)
a), H^3(M,1) would read (Z/2)^3 instead of Z/2.  A module without
relations (ZM) is its own free cover: psi is d_F^(n-1) and the bottom
block is d_F^n, the stored complex read as is.  For constant A the cone
reduces to the universal coefficient theorem, which stays as its closed
form: it needs only the two Smith diagonals of K and is the faster of
the two there.
"""

from .bar import bar_word_diff, explicit_low_degree_differential, iterated_bar
from .hmod import (CochainGroup, FGAbelianGroup, FreeBasis, ModuleError,
                   constant_module, dualize, relation_module)
from .monoid import FiniteCommutativeMonoid
from .zlinalg import (AbGroupInvariants, IntMatrix, SparseIntMatrix, block_diagonal,
                      gcd, snf_diagonal)


class TruncationError(ValueError):
    pass


def degree_basis(dga, n):
    gens = dga.basis.get(n, ())
    return FreeBasis(gens, {g: dga.pi[g] for g in gens})


class CochainComplex:
    """Groups C^0..C^nmax and coboundaries d^0..d^{nmax-1} of
    Hom(D, A) for a free-based DGA D.  For a constant module the stored
    coboundaries are those of the integer complex K = Hom(D, Z); for
    any other module those of its free cover.  cohomology(n) reads
    H^n from Smith diagonals: the universal coefficient theorem for
    constant A, the mapping cone of the relations otherwise (see the
    module docstring).  The relation module is built on first use and
    kept.  On the cone route a translation that d^{n-1} or d^n applies
    and that does not keep the relations, or a d_F d_F outside them,
    raises ModuleError: the module breaks its laws there."""

    __slots__ = ("dga", "module", "nmax", "groups", "coboundaries", "_relation_module")

    def __init__(self, dga, module, nmax):
        self.dga = dga
        self.module = module
        self.nmax = nmax
        self.groups = {}
        self.coboundaries = {}
        self._relation_module = None
        M = dga.monoid
        coeffs = constant_module(FGAbelianGroup.free(1), M) if module.constant else module
        for n in range(nmax + 1):
            self.groups[n] = CochainGroup(degree_basis(dga, n), module)
        for n in range(nmax):
            self.coboundaries[n] = self._dualize(n, coeffs)

    def _dualize(self, n, module):
        """d^n of Hom(D, module) on this complex's cells."""
        target = self.groups[n + 1].basis
        d = {t: self.dga.differential(t) for t in target.generators}
        return dualize(d, self.groups[n].basis, target, module, self.dga.monoid)

    def cohomology(self, n):
        """ker d^n / im d^{n-1} as invariant factors."""
        if n < 0 or n >= self.nmax:
            raise ValueError("degree %d outside the built range" % n)
        d_n = self.coboundaries[n]
        d_prev = self.coboundaries[n - 1] if n > 0 else IntMatrix(d_n.cols, 0)
        if not self.module.constant:
            self._check_translations(n)
            diag = self._cone_diagonal(n, d_prev)
            return AbGroupInvariants.from_diagonal(
                diag, free_rank=self._free_rank(n, d_n, len(diag)))
        # universal coefficients (Mac Lane, Homology, III): H^n =
        # H^n(K) (x) A + Tor(H^{n+1}(K), A) = A^free (free = rank of
        # H^n(K)) + A/dA per factor d of d^{n-1} + A[d] per factor d
        # of d^n; for A = Z^a + (+)_t Z/t, A/dA = (Z/d)^a + (+) Z/gcd(d, t)
        # and A[d] = (+) Z/gcd(d, t)
        A = self.module.group(0).invariants()
        diag_prev = snf_diagonal(d_prev)
        diag_n = snf_diagonal(d_n)
        free = d_n.cols - len(diag_n) - len(diag_prev)
        tors = list(A.torsion) * free + [d for d in diag_prev if d > 1] * A.free_rank
        tors += [gcd(d, t) for d in diag_prev + diag_n if d > 1 for t in A.torsion]
        return AbGroupInvariants.from_diagonal(tors, free_rank=A.free_rank * free)

    def _relations(self):
        if self._relation_module is None:
            self._relation_module = relation_module(self.module, self.dga.monoid)
        return self._relation_module

    def _has_relations(self, n):
        return any(g.relation_basis.cols for g in self.groups[n].blocks)

    def _check_translations(self, n):
        """Every translation that d^{n-1} or d^n applies keeps the
        relations; the relation module raises ModuleError naming the
        first pair that does not.  Those translations start in degrees
        n-1 and n, so without relations there nothing can break."""
        if not any(self._has_relations(k) for k in (n - 1, n) if k >= 0):
            return
        relations, pi = self._relations(), self.dga.pi
        pairs = {(pi[s], u) for k in (n, n + 1) for t in self.groups[k].basis.generators
                 for u, s in self.dga.differential(t)}
        for x, y in sorted(pairs):
            relations.action(x, y)

    def _with_inclusion(self, n, d):
        """[I_n | d], I_n the block-diagonal inclusion of the degree-n
        relations; d itself when degree n has none."""
        if not self._has_relations(n):
            return d
        return block_diagonal([g.relation_basis for g in self.groups[n].blocks]).hstack(d)

    def _cone_diagonal(self, n, d_prev):
        """Smith diagonal of psi with its top rows negated, which leaves
        the diagonal unchanged: [[d_R^n, K^n], [I_n, d_F^(n-1)]]; with no
        relations in degree n+1 there are no top rows and psi is its
        bottom block."""
        bottom = self._with_inclusion(n, d_prev)
        if not self._has_relations(n + 1):
            return snf_diagonal(bottom)
        d_R = self._dualize(n, self._relations())
        top = d_R.hstack(self._curvature(n, d_prev)).row_dicts()
        return snf_diagonal(SparseIntMatrix(len(top) + bottom.rows, bottom.cols,
                                            top + bottom.row_dicts()))

    def _curvature(self, n, d_prev):
        """K^n = I_{n+1}^-1 (d_F^n d_F^(n-1)), row-sparse over C^(n+1)(R);
        a column of d_F d_F outside the relations, which a module that
        keeps its laws modulo the relations never has, raises
        ModuleError."""
        target = self.groups[n + 1]
        d_n = self.coboundaries[n].row_dicts()
        prev = d_prev.row_dicts()
        rows = []
        for g, off, cell in zip(target.blocks, target.offsets, target.basis.generators):
            block = [{} for _ in range(g.relation_basis.cols)]
            rows += block
            if not block:
                continue
            dd = []
            for i in range(off, off + g.ngens):
                acc = {}
                for k, a in d_n[i].items():
                    for j, b in prev[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                dd.append({j: v for j, v in acc.items() if v})
            for j in sorted(set().union(*dd)):
                c = g.relation_coordinates([r.get(j, 0) for r in dd])
                if c is None:
                    raise ModuleError(
                        "d d of a cochain on a cell over %r leaves the relations of A(%r): "
                        "the translations break the module laws modulo the relations"
                        % (self._source_element(n - 1, j), target.basis.pi[cell]))
                for i, v in enumerate(c):
                    if v:
                        block[i][j] = v
        return SparseIntMatrix(len(rows), d_prev.cols, rows)

    def _source_element(self, n, col):
        """pi of the degree-n cell whose block holds column col."""
        group = self.groups[n]
        for g, off, cell in zip(group.blocks, group.offsets, group.basis.generators):
            if off <= col < off + g.ngens:
                return group.basis.pi[cell]
        raise IndexError(col)

    def _free_rank(self, n, d_n, rank_psi):
        """rank H^n = dim cone^n - rank D^n - rank psi.  The top rows of
        D^n are -I_{n+2}^-1 d_F^(n+1) times its bottom block [I_{n+1} |
        d_F^n], a map on all of cone^n, so D^n has that block's rank.
        0 at once when every A(x) of degree n is finite."""
        if all(g.relation_basis.cols == g.ngens for g in self.groups[n].blocks):
            return 0
        bottom = self._with_inclusion(n + 1, d_n)
        return bottom.cols - len(snf_diagonal(bottom)) - rank_psi


def cochain_complex(M, r, module, nmax):
    """The complex of normalized level-r cochains up to degree nmax.

    For r >= 2 the construction is truncated at degree r+3, matching
    the range where the generic cells are classified.
    """
    if not isinstance(M, FiniteCommutativeMonoid):
        raise TruncationError("finite monoid required")
    if r >= 2 and nmax > r + 3:
        raise TruncationError(
            "level %d cochains are only classified up to degree %d" % (r, r + 3))
    dga = iterated_bar(M, r, max(nmax, r))
    return CochainComplex(dga, module, nmax)


def cohomology_group(M, r, n, module):
    """H^n(M, r; A) as invariant factors."""
    if n < 0:
        raise ValueError("negative degree")
    if r >= 2 and n > r + 2:
        raise TruncationError(
            "H^%d at level %d lies beyond the truncated range (n <= %d)" % (n, r, r + 2))
    return cochain_complex(M, r, module, n + 1).cohomology(n)


# -- closed-form truncated coboundaries ---------------------------------------

# (level, n) of the paper's closed coboundaries d^n: d^3 and d^4 at
# level 2, d^3, d^4 and d^5 at level 3
_TRUNCATED = ((2, 3), (2, 4), (3, 3), (3, 4), (3, 5))


def truncated_formula_chain(M, level, cell):
    """Closed formula for the coboundary d^{deg-1} applied to one
    generic cell of the target degree, as a formal chain (the oracle
    explicit_low_degree_differential); an oracle against the recursive
    bar differential."""
    if cell.level != level or (level, cell.degree - 1) not in _TRUNCATED:
        raise ValueError("no closed formula for level %d target degree %d"
                         % (level, cell.degree))
    return explicit_low_degree_differential(M, cell)


def truncated_coboundaries(M, module):
    """Matrices of the closed-form truncated coboundaries: d^3, d^4 at
    level 2 and d^3, d^4, d^5 at level 3, assembled directly from the
    formulas over the generic-cell bases."""
    out = {}
    for level, n in _TRUNCATED:
        dga = iterated_bar(M, level, n + 1)
        source = degree_basis(dga, n)
        target = degree_basis(dga, n + 1)
        d = {t: explicit_low_degree_differential(M, t) for t in target.generators}
        out[(level, n)] = dualize(d, source, target, module, M)
    return out


# -- brute-force enumeration oracle -------------------------------------------

BRUTE_FORCE_CAP = 1 << 20


class BruteForceCapError(ValueError):
    pass


def _cochain_space(M, basis, module):
    """Element lists for each cell's coefficient group, plus total size;
    the size is checked against the cap before any list is built."""
    groups = [module.group(basis.pi[g]) for g in basis.generators]
    total = 1
    for grp in groups:
        inv = grp.invariants()
        if inv.free_rank:
            raise BruteForceCapError("infinite coefficient group")
        total *= inv.order()
        if total > BRUTE_FORCE_CAP:
            raise BruteForceCapError("cochain space above 2^20 elements")
    return [grp.element_list() for grp in groups], total


def _all_cochains(lists):
    if not lists:
        yield ()
        return
    first, rest = lists[0], lists[1:]
    for tail in _all_cochains(rest):
        for v in first:
            yield (tuple(v),) + tail


def _coboundary_terms(M, module, source_basis, target_cells):
    """Per target cell: (group, [(coeff, action-or-None, source slot)]),
    with the bar differential expanded once up front."""
    index = {s: i for i, s in enumerate(source_basis.generators)}
    e = M.identity
    out = []
    for t in target_cells:
        terms = []
        for (u, s), c in bar_word_diff(M, t).items():
            if s not in index:
                continue  # a normalized-away cell (translated unit letter)
            act = None if u == e else module.action(s.pi(M), u)
            terms.append((c, act, index[s]))
        out.append((module.group(t.pi(M)), terms))
    return out


def _cell_value(tgt_group, tl, f_values):
    """Unreduced (d f)(t) = f(d t) for one target cell t."""
    acc = [0] * tgt_group.ngens
    for c, act, pos in tl:
        val = f_values[pos]
        if act is not None:
            val = act.mul_vector(val)
        for i, v in enumerate(val):
            if v:
                acc[i] += c * v
    return acc


def _apply_coboundary(terms, f_values):
    return tuple(tuple(grp.reduce(_cell_value(grp, tl, f_values)))
                 for grp, tl in terms)


def _is_cocycle(terms, f_values):
    for grp, tl in terms:
        acc = _cell_value(grp, tl, f_values)
        if any(acc) and not grp.is_zero_element(acc):
            return False
    return True


def brute_force_cohomology(M, r, n, module):
    """Exhaustive oracle: enumerate all degree-n cochains, count the
    cocycles and the distinct coboundaries, and recover the invariant
    factors of the quotient from order statistics.

    Returns (cocycle_count, coboundary_count, AbGroupInvariants).
    """
    if n < 0:
        raise ValueError("negative degree")
    if r >= 2 and n > r + 2:
        raise TruncationError("degree beyond the truncated range")
    dga = iterated_bar(M, r, max(n + 1, r))
    basis_prev = degree_basis(dga, n - 1) if n > 0 else FreeBasis((), {})
    basis_n = degree_basis(dga, n)
    basis_next = degree_basis(dga, n + 1)
    lists_n, total_n = _cochain_space(M, basis_n, module)
    lists_prev, total_prev = _cochain_space(M, basis_prev, module)

    cells_n = list(basis_n.generators)
    cells_next = list(basis_next.generators)

    def canonical(f_values):
        # reduce each coordinate for set membership
        return tuple(tuple(module.group(basis_n.pi[c]).reduce(list(v)))
                     for c, v in zip(cells_n, f_values))

    up_terms = _coboundary_terms(M, module, basis_n, cells_next)
    cocycles = []
    for f in _all_cochains(lists_n):
        if _is_cocycle(up_terms, f):
            cocycles.append(canonical(f))
    down_terms = _coboundary_terms(M, module, basis_prev, cells_n)
    boundaries = set()
    for g in _all_cochains(lists_prev):
        boundaries.add(_apply_coboundary(down_terms, g))
    zcount = len(cocycles)
    bcount = len(boundaries)
    if zcount % bcount:
        raise ArithmeticError("%d cocycles do not split into cosets of %d "
                              "coboundaries" % (zcount, bcount))
    qorder = zcount // bcount

    def scaled_in_b(f, d):
        scaled = tuple(tuple(module.group(basis_n.pi[c]).reduce([d * v for v in val]))
                       for c, val in zip(cells_n, f))
        return scaled in boundaries

    def count_killed(d):
        return sum(1 for f in cocycles if scaled_in_b(f, d)) // bcount

    # recover the invariant factors from the counts
    # N(d) = #{q : d q = 0}; for (+) Z/d_i this is prod gcd(d, d_i),
    # so peeling the exponent (the smallest divisor d with N'(d) equal
    # to the residual order) recovers the d_i from largest to smallest
    invariants = []
    stripped = []
    count_cache = {}
    residual_order = qorder
    while residual_order > 1:
        found = None
        for d in sorted(_divisors(residual_order)):
            if d == 1:
                continue
            if d not in count_cache:
                count_cache[d] = count_killed(d)
            nd = count_cache[d]
            for e_ in stripped:
                nd //= gcd(d, e_)
            if nd == residual_order:
                found = d
                break
        if found is None:
            raise ArithmeticError("order statistics do not match an abelian group")
        stripped.append(found)
        invariants.append(found)
        residual_order //= found
    inv = AbGroupInvariants.from_diagonal(invariants)
    if inv.order() != qorder:
        raise ArithmeticError("recovered %r, but the quotient has order %d"
                              % (inv, qorder))
    return zcount, bcount, inv


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
