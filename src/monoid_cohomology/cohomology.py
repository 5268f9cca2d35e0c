"""Cochain complexes of free DGA resolutions and their cohomology, read
off Smith diagonals of sparse integer matrices.

H^n(M, r; A) is the cohomology of Hom(B^(r-1)(D), A) for any free DGA
resolution D of Z over ZM (Eilenberg and Mac Lane, On the groups
H(Pi, n), I/II), and model builds one in the table's labels by one
recursion over submonoids: the small resolution R of a cyclic one, a
handful of cells where the iterated bar has thousands; the tensor
product of the factors' models for a direct product (monoid.split);
the bar construction on ZN for any other N.  The iterated bar
(cochain_complex) stays as the oracle.  R applies fewer translations
than the bar, so the entry points check A's laws first
(hmod.require_lawful, on a generating set S of M, |M|^2 |S| products).

The degree-n cochain group of Hom(B^r(ZM), A) is the direct sum of the
A(pi(cell)) over the generic n-cells; the coboundary is precomposition
with the bar differential.  A(x) = Z^k / L_x is presented, and the
stored coboundary d_F is that of the free cover F (the same translation
matrices, no relations).  H^n builds the groups of degrees n - 1, n
and n + 1 and d^(n-1) and d^n, each once, when it first reads them.

For a constant module the complex is K (x) A, with K the integer
cochain complex (no A-valued group is built), and H^n follows from the
Smith diagonals of d^(n-1) and d^n of K by the universal coefficient
theorem, each read on its own (zlinalg.snf_diagonal).

Any other module goes through the mapping cone of the relations
(Weibel, An Introduction to Homological Algebra, 1.5).  The relation
cochains C(R) are the lattice of F-cochains with values in the L_x,
free on the independent bases B_x of the relations, and 0 -> C(R) ->
C(F) -> C(A) -> 0 is exact, with I the block-diagonal inclusion of the
B_x.  No module is built for R: its coboundary is d_R = I^-1 d_F I.
The translations need to satisfy the module laws only modulo the
relations, so d_F d_F need not vanish; it lands in I C(R), and the
curvature K^n = I^-1 (d_F^n d_F^(n-1)) corrects the cone:
D(r, f) = (-d_R r - K f, I r + d_F f) on C^(n+1)(R) + C^n(F) squares
to zero and is quasi-isomorphic to C(A).  The torsion of H^n is the
Smith factors above 1 of the one row-sparse matrix

    psi = [[-d_R^n, -K^n], [I_n, d_F^(n-1)]]
        : C^n(R) + C^(n-1)(F) -> C^(n+1)(R) + C^n(F),

which is the cone's D^(n-1).  Since d_F I = I d_R and d_F d_F = I K,
its top rows are -I_(n+1)^-1 d_F^n times its bottom block: one sparse
product, solved in each target cell's relation basis.  The free rank
is dim cone^n - rank D^n - rank psi, and by the same rule D^n has the
rank of its bottom block [I_(n+1) | d_F^n].
Without K the answer is wrong whenever d_F d_F does not vanish: on
C(0,4) with A(x) = Z + Z/2 and y acting by (a, b) -> (a, b + (y mod 2)
a), H^3(M,1) would read (Z/2)^3 instead of Z/2.  A module without
relations (ZM) is its own free cover: psi is d_F^(n-1) and the bottom
block is d_F^n, the stored complex read as is.
For constant A the cone reduces to the universal coefficient theorem,
which stays as its closed form: it needs only the two Smith diagonals
of K and is the faster of the two there.

The brute-force oracle reads none of this.  It holds the one cochain
search: depth first and iterative over the cells of a degree in basis
order, each row f(d t) of a cell t one degree up checked as soon as the
last cell it reads holds a value, capped at BRUTE_FORCE_CAP cochains
counted before any is listed.  With no rows the search lists every
cochain, which gives the coboundaries as images.  The groupoid
classification searches its (g, mu) pairs, the level-3 5-cochains,
with it too.
"""

from .bar import (DGAError, bar, bar_word_diff, check_reach, degree_cells, iterated_bar,
                  small_resolution, tensor_dga, zm_dga)
from .hmod import (CochainGroup, FGAbelianGroup, ModuleError, constant_module, dualize,
                   require_lawful)
from .monoid import FiniteCommutativeMonoid, closure, split
from .zlinalg import AbGroupInvariants, IntMatrix, gcd, snf_diagonal, staircase_solve


class TruncationError(ValueError):
    pass


# The model's level-r cells are tuples nested r - 1 deep, compared
# recursively, and bar_word_diff recurses three frames per level: near
# level 1000 on the model and 330 on the iterated bar a query meets
# Python's recursion limit.  No test or example reads above level 4.
MAX_LEVEL = 200


def _check_truncation(r, n):
    """Refuse a level outside 1..MAX_LEVEL, and H^n at level r >= 2 above
    r + 2, where the cells are classified."""
    if not 1 <= r <= MAX_LEVEL:
        raise TruncationError("level %d lies outside the computed range (1 <= r <= %d)"
                              % (r, MAX_LEVEL))
    if r >= 2 and n > r + 2:
        raise TruncationError("H^%d at level %d lies beyond the truncated range (n <= %d)"
                              % (n, r, r + 2))


def cochain_group(dga, n, module):
    """The degree-n cochain group of Hom(dga, module).  A degree above
    the DGA's bound raises DGAError (FreeBasedDGA.generators)."""
    return CochainGroup(dga.generators(n), dga.pi, module)


def coboundary(dga, source, target):
    """d^n of Hom(dga, A) between its cochain groups of degrees n and
    n + 1 (cochain_group): the stored differential of the target's
    cells, dualized."""
    d = {t: dga.differential(t) for t in target.generators}
    return dualize(d, source, target, dga.monoid)


class CochainComplex:
    """Hom(D, A) for a free-based DGA D, built as it is read: group(n)
    and coboundary(n) build the degree-n cochain group and d^n on first
    read and keep them, so cohomology(n) builds degrees n - 1, n, n + 1
    and d^(n-1), d^n only.  A degree above D's bound raises DGAError.
    The groups are those of K = Hom(D, Z) for a constant module, of the
    free cover otherwise.  cohomology(n) reads H^n from Smith diagonals:
    the universal coefficient theorem for constant A, the mapping cone
    of the relations otherwise (see the module docstring).  The module
    is taken to keep its laws, which cohomology_group and cochain_complex
    check first.  Built directly, the cone still raises ModuleError
    where its top rows have no solution: a column of
    d_F^n [I_n | d_F^(n-1)] outside the relations of degree n + 1."""

    __slots__ = ("dga", "module", "_coeffs", "_groups", "_coboundaries")

    def __init__(self, dga, module):
        self.dga = dga
        self.module = module
        self._coeffs = (constant_module(FGAbelianGroup.free(1), dga.monoid)
                        if module.constant else module)
        self._groups = {}
        self._coboundaries = {}

    def group(self, n):
        if n not in self._groups:
            self._groups[n] = cochain_group(self.dga, n, self._coeffs)
        return self._groups[n]

    def coboundary(self, n):
        if n not in self._coboundaries:
            self._coboundaries[n] = coboundary(self.dga, self.group(n), self.group(n + 1))
        return self._coboundaries[n]

    def cohomology(self, n):
        """ker d^n / im d^{n-1} as invariant factors."""
        d_n = self.coboundary(n)
        d_prev = self.coboundary(n - 1)
        if not self.module.constant:
            psi = self._cone_diagonal(n, d_prev)
            return AbGroupInvariants.from_diagonal(psi, free_rank=self._free_rank(n, d_n, psi))
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

    def _has_relations(self, n):
        return any(g.relation_basis.cols for g in self.group(n).blocks)

    def _with_inclusion(self, n, d):
        """[I_n | d], I_n the block-diagonal inclusion of the degree-n
        relations; d itself when degree n has none."""
        if not self._has_relations(n):
            return d
        return self.group(n).relation_matrix().hstack(d)

    def _cone_diagonal(self, n, d_prev):
        """Smith diagonal of psi with its top rows negated, which leaves
        the diagonal unchanged: [[d_R^n, K^n], [I_n, d_F^(n-1)]]; with no
        relations in degree n+1 there are no top rows and psi is its
        bottom block."""
        bottom = self._with_inclusion(n, d_prev)
        if not self._has_relations(n + 1):
            return snf_diagonal(bottom)
        top = self._curvature(n, bottom)
        return snf_diagonal(IntMatrix(len(top) + bottom.rows, bottom.cols,
                                      top + bottom.row_dicts()))

    def _curvature(self, n, bottom):
        """psi's top rows [d_R^n | K^n] = I_{n+1}^-1 (d_F^n [I_n | d_F^(n-1)]),
        solved per target cell in its relation basis.  A product column
        outside the relations, which a module that keeps its laws modulo
        them never has, raises ModuleError."""
        target = self.group(n + 1)
        product = self.coboundary(n).mul(bottom).row_dicts()
        rows = []
        for g, off, cell in zip(target.blocks, target.offsets, target.generators):
            if not g.relation_basis.cols:
                continue
            coords, outside = staircase_solve(g.relation_basis, product[off:off + g.ngens])
            if outside:
                raise ModuleError("d_F [I | d_F] leaves the relations of A(%r): the "
                                  "translations break the module laws modulo the relations"
                                  % (target.pi[cell],))
            rows += coords
        return rows

    def _free_rank(self, n, d_n, psi):
        """rank H^n = dim cone^n - rank D^n - rank psi, given psi's Smith
        diagonal.  The top rows of D^n are -I_{n+2}^-1 d_F^(n+1) times
        its bottom block [I_{n+1} | d_F^n], a map on all of cone^n, so
        D^n has that block's rank.  0 at once when every A(x) of degree
        n is finite."""
        if all(g.relation_basis.cols == g.ngens for g in self.group(n).blocks):
            return 0
        bottom = self._with_inclusion(n + 1, d_n)
        return bottom.cols - len(snf_diagonal(bottom)) - len(psi)


def cochain_complex(M, r, module, nmax):
    """The complex of normalized level-r cochains on the iterated bar to
    degree nmax, which only sets the bar's depth: cohomology(n) reads up
    to n = nmax - 1.  A tabular module that is not a module over M
    keeping its laws is refused first (hmod.require_lawful); for r >= 2,
    nmax stops at r + 3, where H^(r+2) reads it (_check_truncation)."""
    require_lawful(module, M)
    _check_truncation(r, nmax - 1)
    dga = iterated_bar(M, r, max(nmax, r))
    return CochainComplex(dga, module)


def model(M, N, top):
    """A free DGA resolution of Z over the submonoid N (a list of M's
    labels) to degree top, in M's labels: R when some x generates N, the
    tensor product of the factors' models when monoid.split finds
    N = N1 x N2, the bar construction on ZN otherwise.  split reuses
    the cyclic closures read here."""
    cyclic = []
    for x in N:
        powers = closure(M, [M.identity], x)
        if len(powers) == len(N) > 1:
            m = powers.index(M.op(powers[-1], x))
            return small_resolution(m, len(powers) - m, top, M, powers)
        cyclic.append(powers)
    factors = split(M, N, cyclic)
    if factors:
        return tensor_dga(*(model(M, factor, top) for factor in factors))
    return bar(zm_dga(M, N), top)


def small_model_complex(M, r, module, nmax):
    """Hom(B^(r-1)(D), A) for the model D of the table M, in M's labels,
    with B^(r-1)(D) built to degree nmax (at least r - 1).  A bar in
    degree n reads its input only below n, so D and each bar before the
    last stop one degree below the next."""
    if not isinstance(M, FiniteCommutativeMonoid):
        raise DGAError("the bar construction needs a finite monoid")
    top = max(0, nmax - r + 1)
    D = model(M, list(M.elements()), top)
    for k in range(1, r):
        D = bar(D, top + k)
    return CochainComplex(D, module)


def cohomology_group(M, r, n, module):
    """H^n(M, r; A) as invariant factors, read from the model of M
    (small_model_complex).  A tabular A that is not a module over M
    keeping its laws is refused first (hmod.require_lawful); the model is
    refused by the cells it would build, counted before it is built."""
    if n < 0:
        raise ValueError("negative degree")
    _check_truncation(r, n)
    require_lawful(module, M)
    return small_model_complex(M, r, module, n + 1).cohomology(n)


# -- brute-force cochain search -----------------------------------------------

BRUTE_FORCE_CAP = 1 << 20


class BruteForceCapError(ValueError):
    pass


def _cochain_space(M, module, cells):
    """The cells, listed, and the coefficient group of each.  The product
    of the group orders is checked against the cap as the cells are
    read, before any cochain is listed."""
    source, groups = [], []
    total = 1
    for cell in cells:
        grp = module.group(cell.pi(M))
        inv = grp.invariants()
        if inv.free_rank:
            raise BruteForceCapError("infinite coefficient group")
        total *= inv.order()
        if total > BRUTE_FORCE_CAP:
            raise BruteForceCapError("cochain space above 2^20 elements")
        source.append(cell)
        groups.append(grp)
    return source, groups


def _rows(M, module, source, targets):
    """Lazily, for each target cell t: its value group and the terms
    (coefficient, source slot, pi of the source cell, translate or None)
    of f(d t), for a cochain f on the source cells, read off
    bar_word_diff.  A word outside the source (one with a unit letter)
    is normalized away."""
    slot = {s: i for i, s in enumerate(source)}
    e = M.identity
    for t in targets:
        terms = [(c, slot[s], s.pi(M), None if u == e else u)
                 for (u, s), c in bar_word_diff(M, t).items() if s in slot]
        yield module.group(t.pi(M)), terms


def _row_value(module, row, values):
    """f(d t), unreduced, for the row of t and the cochain f holding
    values slot by slot."""
    grp, terms = row
    acc = [0] * grp.ngens
    for c, i, x, u in terms:
        vec = values[i] if u is None else module.translate(x, u, values[i])
        for k, v in enumerate(vec):
            acc[k] += c * v
    return acc


def _vanishes(module, row, values):
    acc = _row_value(module, row, values)
    return not any(acc) or row[0].is_zero_element(acc)


def _search(module, groups, rows):
    """Every cochain with one value per cell from the groups' element
    lists on which each row vanishes, as a tuple of value tuples.  The
    search is depth first and iterative: cell 0 varies slowest, each cell
    runs through its elements in order, and a row is checked as soon as
    the last cell it reads holds a value, so a branch ends at its first
    row that does not vanish.  With no rows it lists every cochain."""
    if not groups:
        yield ()
        return
    lists = [[tuple(v) for v in grp.element_list()] for grp in groups]
    checks = [[] for _ in lists]
    for row in rows:
        if row[1]:
            checks[max(term[1] for term in row[1])].append(row)
    last = len(lists) - 1
    values = [None] * len(lists)
    nxt = [0] * len(lists)
    k = 0
    while k >= 0:
        if nxt[k] == len(lists[k]):
            nxt[k] = 0
            k -= 1
            continue
        values[k] = lists[k][nxt[k]]
        nxt[k] += 1
        if all(_vanishes(module, row, values) for row in checks[k]):
            if k == last:
                yield tuple(values)
            else:
                k += 1


def brute_force_cohomology(M, r, n, module):
    """Exhaustive oracle: search every degree-n cocycle, list every
    coboundary as the image of every degree-(n-1) cochain, and recover
    the invariant factors of the quotient from order statistics.

    The cells of degrees n - 1, n and n + 1 are listed on their own, and
    the rows read bar_word_diff; the bar to degree n + 1 is refused as
    iterated_bar would refuse it (bar.check_reach), since the
    differentials of its cells cost what its templates would.

    A tabular module is refused first unless it keeps its laws over M
    (hmod.require_lawful), as cohomology_group refuses it.

    Returns (cocycle_count, coboundary_count, AbGroupInvariants).
    """
    if n < 0:
        raise ValueError("negative degree")
    _check_truncation(r, n)
    check_reach(M, r, max(n + 1, r))
    require_lawful(module, M)
    source, groups = _cochain_space(M, module, degree_cells(M, r, n))
    prev, prev_groups = _cochain_space(M, module, degree_cells(M, r, n - 1))
    cocycles = list(_search(module, groups, _rows(M, module, source, degree_cells(M, r, n + 1))))
    down = list(_rows(M, module, prev, source))
    boundaries = {tuple(tuple(row[0].reduce(_row_value(module, row, g))) for row in down)
                  for g in _search(module, prev_groups, ())}
    zcount = len(cocycles)
    bcount = len(boundaries)
    if zcount % bcount:
        raise ArithmeticError("%d cocycles do not split into cosets of %d "
                              "coboundaries" % (zcount, bcount))
    qorder = zcount // bcount

    def scaled_in_b(f, d):
        return tuple(tuple(grp.reduce([d * v for v in val]))
                     for grp, val in zip(groups, f)) in boundaries

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
