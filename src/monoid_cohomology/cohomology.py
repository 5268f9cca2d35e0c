"""Cochain complexes of the iterated bar construction and their
cohomology, extracted with exact integer lattice algebra.

The degree-n cochain group of Hom(B^r(ZM), A) is the direct sum of the
A(pi(cell)) over the generic n-cells; the coboundary is precomposition
with the bar differential.  Kernels are preimage lattices in the free
cover with the coefficient relations adjoined to the image lattice, so
presented (non-free) coefficient groups go through the same Smith
normal form pipeline as free ones.
"""

from .bar import BarWord, add_cell_term, bar_word_diff, iterated_bar
from .hmod import CochainGroup, FreeBasis, dualize
from .monoid import FiniteCommutativeMonoid
from .zlinalg import (AbGroupInvariants, IntMatrix, gcd, preimage_lattice,
                      snf_diagonal, subquotient_invariants)


class TruncationError(ValueError):
    pass


def degree_basis(dga, n):
    gens = dga.basis.get(n, ())
    return FreeBasis(gens, {g: dga.pi[g] for g in gens})


class CochainComplex:
    """Groups C^0..C^nmax and coboundaries d^0..d^{nmax-1} of
    Hom(D, A) for a free-based DGA D."""

    __slots__ = ("dga", "module", "nmax", "groups", "coboundaries")

    def __init__(self, dga, module, nmax):
        self.dga = dga
        self.module = module
        self.nmax = nmax
        self.groups = {}
        self.coboundaries = {}
        M = dga.monoid
        for n in range(nmax + 1):
            self.groups[n] = CochainGroup(degree_basis(dga, n), module)
        for n in range(nmax):
            target = degree_basis(dga, n + 1)
            d = {t: dga.differential(t) for t in target.generators}
            self.coboundaries[n] = dualize(
                d, degree_basis(dga, n), target, module, M)

    def coboundary(self, n):
        return self.coboundaries[n]

    def relation_matrix(self, n):
        return self.groups[n].relation_matrix()

    def cohomology(self, n):
        """ker d^n / im d^{n-1} as invariant factors."""
        if n < 0 or n >= self.nmax:
            raise ValueError("degree %d outside the built range" % n)
        d_n = self.coboundaries[n]
        dim = self.groups[n].total
        if n > 0:
            d_prev = self.coboundaries[n - 1]
        else:
            d_prev = IntMatrix(dim, 0)
        rel_n = self.relation_matrix(n)
        if self.module.constant and self.module.group(0).relations.cols == 0:
            # free constant coefficients: C^* is a complex of free
            # groups, so ker d^n splits off and the torsion of H^n is
            # the torsion of coker d^{n-1}
            diag_prev = snf_diagonal(d_prev)
            rank_n = len(snf_diagonal(d_n))
            free = (dim - rank_n) - len(diag_prev)
            return AbGroupInvariants.from_diagonal(
                [d for d in diag_prev if d > 1], free_rank=free)
        rel_next = self.relation_matrix(n + 1)
        kernel = preimage_lattice(d_n, rel_next)
        image = d_prev.hstack(rel_n)
        return subquotient_invariants(kernel, image)


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

def _formula_d3_level2(M, t):
    # target [x|^2 y] pairs with mu; targets [x|y|z] with g
    e = M.identity
    out = {}
    if t.seps == (1, 1):
        x, y, z = t.letters
        add_cell_term(M, out, x, (y, z), (1,), 2, -1)
        add_cell_term(M, out, e, (M.op(x, y), z), (1,), 2, 1)
        add_cell_term(M, out, e, (x, M.op(y, z)), (1,), 2, -1)
        add_cell_term(M, out, z, (x, y), (1,), 2, 1)
    else:
        assert t.seps == (2,)
        x, y = t.letters
        add_cell_term(M, out, e, (x, y), (1,), 2, 1)
        add_cell_term(M, out, e, (y, x), (1,), 2, -1)
    return out


def _formula_d4_level2(M, t):
    e = M.identity
    out = {}
    if t.seps == (1, 1, 1):
        x, y, z, w = t.letters
        add_cell_term(M, out, x, (y, z, w), (1, 1), 2, -1)
        add_cell_term(M, out, e, (M.op(x, y), z, w), (1, 1), 2, 1)
        add_cell_term(M, out, e, (x, M.op(y, z), w), (1, 1), 2, -1)
        add_cell_term(M, out, e, (x, y, M.op(z, w)), (1, 1), 2, 1)
        add_cell_term(M, out, w, (x, y, z), (1, 1), 2, -1)
    elif t.seps == (2, 1):
        x, y, z = t.letters
        add_cell_term(M, out, y, (x, z), (2,), 2, -1)
        add_cell_term(M, out, e, (x, M.op(y, z)), (2,), 2, 1)
        add_cell_term(M, out, z, (x, y), (2,), 2, -1)
        add_cell_term(M, out, e, (x, y, z), (1, 1), 2, 1)
        add_cell_term(M, out, e, (y, x, z), (1, 1), 2, -1)
        add_cell_term(M, out, e, (y, z, x), (1, 1), 2, 1)
    else:
        assert t.seps == (1, 2)
        x, y, z = t.letters
        add_cell_term(M, out, x, (y, z), (2,), 2, -1)
        add_cell_term(M, out, e, (M.op(x, y), z), (2,), 2, 1)
        add_cell_term(M, out, y, (x, z), (2,), 2, -1)
        add_cell_term(M, out, e, (x, y, z), (1, 1), 2, -1)
        add_cell_term(M, out, e, (x, z, y), (1, 1), 2, 1)
        add_cell_term(M, out, e, (z, x, y), (1, 1), 2, -1)
    return out


def _negated(d):
    return {k: -v for k, v in d.items()}


def _formula_d3_level3(M, t):
    # C^3(M,3) = C^1(M,1): target [x|y], source [x]
    e = M.identity
    x, y = t.letters
    out = {}
    add_cell_term(M, out, x, (y,), (), 3, 1)
    add_cell_term(M, out, e, (M.op(x, y),), (), 3, -1)
    add_cell_term(M, out, y, (x,), (), 3, 1)
    return out


def _relevel(chain, level):
    return {(u, BarWord(c.letters, c.seps, level)): v for (u, c), v in chain.items()}


def _formula_d4_level3(M, t):
    # the (h, gamma, delta) blocks are the level-2 d3 ones negated
    t2 = BarWord(t.letters, t.seps, 2)
    return _relevel(_negated(_formula_d3_level2(M, t2)), 3)


def _formula_d5_level3(M, t):
    e = M.identity
    if t.seps == (3,):
        x, y = t.letters
        out = {}
        add_cell_term(M, out, e, (x, y), (2,), 3, -1)
        add_cell_term(M, out, e, (y, x), (2,), 3, -1)
        return out
    t2 = BarWord(t.letters, t.seps, 2)
    return _relevel(_negated(_formula_d4_level2(M, t2)), 3)


_FORMULAS = {
    (2, 3): _formula_d3_level2,
    (2, 4): _formula_d4_level2,
    (3, 3): _formula_d3_level3,
    (3, 4): _formula_d4_level3,
    (3, 5): _formula_d5_level3,
}


def truncated_formula_chain(M, level, cell):
    """Closed formula for the coboundary d^{deg-1} applied to one
    generic cell of the target degree, as a formal chain; an oracle
    against the recursive bar differential."""
    fn = _FORMULAS.get((level, cell.degree - 1))
    if fn is None:
        raise ValueError("no closed formula for level %d target degree %d"
                         % (level, cell.degree))
    return fn(M, cell)


def truncated_coboundaries(M, module):
    """Matrices of the closed-form truncated coboundaries: d^3, d^4 at
    level 2 and d^3, d^4, d^5 at level 3, assembled directly from the
    formulas over the generic-cell bases."""
    out = {}
    for (level, n), fn in _FORMULAS.items():
        dga = iterated_bar(M, level, n + 1)
        source = degree_basis(dga, n)
        target = degree_basis(dga, n + 1)
        d = {t: fn(M, t) for t in target.generators}
        out[(level, n)] = dualize(d, source, target, module, M)
    return out


# -- brute-force enumeration oracle -------------------------------------------

BRUTE_FORCE_CAP = 1 << 20


class BruteForceCapError(ValueError):
    pass


def _cochain_space(M, basis, module):
    """Element lists for each cell's coefficient group, plus total size."""
    lists = []
    total = 1
    for g in basis.generators:
        grp = module.group(basis.pi[g])
        if grp.invariants().free_rank:
            raise BruteForceCapError("infinite coefficient group")
        elems = grp.element_list()
        lists.append(elems)
        total *= len(elems)
        if total > BRUTE_FORCE_CAP:
            raise BruteForceCapError("cochain space above 2^20 elements")
    return lists, total


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
