"""Helpers that only the tests read: an integer determinant, the
paper's closed low-degree bar differentials, the exhaustive module-law
check, a relabelled table, the direct product of two tables,
monoid.split of a whole table, a constant module written out as a
table, ZM reduced mod 2, modules that break their laws, a module
sampled at finitely many elements of the infinite cyclic monoid, and
the invariants of a cochain group."""

from monoid_cohomology.bar import BarWord, chain_add_term
from monoid_cohomology.hmod import FGAbelianGroup, HModule, ModuleError, zm_as_hmodule
from monoid_cohomology.monoid import closure, split, validate_table
from monoid_cohomology.zlinalg import IntMatrix


def determinant(A):
    """Integer determinant via Bareiss fraction-free elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a %dx%d matrix" % (A.rows, A.cols))
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


def add_cell_term(M, chain, u, letters, seps, level, coeff):
    """Add coeff (u, [letters]) to chain; a cell with a unit letter is
    normalized away."""
    if all(x != M.identity for x in letters):
        chain_add_term(chain, (u, BarWord(letters, seps, level)), coeff)


def explicit_low_degree_differential(M, word):
    """Hardcoded low-degree differential formulas, used purely as an
    oracle against the recursive one: the level-1 alternating sum, the
    top shapes [x|^2 y], [x|^2 y|z], [x|y|^2 z] and [x|^3 y], and the
    suspension rule: a level-r word with no separator r is the
    level-(r-1) word suspended, and its differential is minus that
    one's.  Any other shape raises ValueError.
    """
    if word.level >= 2 and word.letters and word.level not in word.seps:
        below = BarWord(word.letters, word.seps, word.level - 1)
        return {(u, w.suspend(word.level)): -c
                for (u, w), c in explicit_low_degree_differential(M, below).items()}
    e = M.identity

    out = {}
    if word.level == 1:
        xs = word.letters
        n = len(xs)
        add_cell_term(M, out, xs[0], xs[1:], (1,) * max(0, n - 2), 1, 1)
        for i in range(n - 1):
            sign = -1 if i % 2 == 0 else 1  # (-1)^{i+1} with 1-based i
            merged = xs[:i] + (M.op(xs[i], xs[i + 1]),) + xs[i + 2:]
            add_cell_term(M, out, e, merged, (1,) * (n - 2), 1, sign)
        sign = 1 if n % 2 == 0 else -1
        add_cell_term(M, out, xs[n - 1], xs[:-1], (1,) * max(0, n - 2), 1, sign)
        return out
    if word.level == 2 and word.seps == (2,):
        x, y = word.letters
        add_cell_term(M, out, e, (x, y), (1,), 2, 1)
        add_cell_term(M, out, e, (y, x), (1,), 2, -1)
        return out
    if word.level == 2 and word.seps == (2, 1):
        x1, x2, x3 = word.letters
        add_cell_term(M, out, x2, (x1, x3), (2,), 2, -1)
        add_cell_term(M, out, e, (x1, M.op(x2, x3)), (2,), 2, 1)
        add_cell_term(M, out, x3, (x1, x2), (2,), 2, -1)
        add_cell_term(M, out, e, (x1, x2, x3), (1, 1), 2, 1)
        add_cell_term(M, out, e, (x2, x1, x3), (1, 1), 2, -1)
        add_cell_term(M, out, e, (x2, x3, x1), (1, 1), 2, 1)
        return out
    if word.level == 2 and word.seps == (1, 2):
        x1, x2, x3 = word.letters
        add_cell_term(M, out, x1, (x2, x3), (2,), 2, -1)
        add_cell_term(M, out, e, (M.op(x1, x2), x3), (2,), 2, 1)
        add_cell_term(M, out, x2, (x1, x3), (2,), 2, -1)
        add_cell_term(M, out, e, (x1, x2, x3), (1, 1), 2, -1)
        add_cell_term(M, out, e, (x1, x3, x2), (1, 1), 2, 1)
        add_cell_term(M, out, e, (x3, x1, x2), (1, 1), 2, -1)
        return out
    if word.level == 3 and word.seps == (3,):
        x1, x2 = word.letters
        add_cell_term(M, out, e, (x1, x2), (2,), 3, -1)
        add_cell_term(M, out, e, (x2, x1), (2,), 3, -1)
        return out
    raise ValueError("no closed formula for the shape of %r" % (word,))


def exhaustive_violations(module):
    """The module laws checked on every element: the independent oracle
    of hmod.validate_module, which reads them on a generating set.  The
    same (kind, args) violations, with relations for every y_* and
    composition for every z (the first per (x, y)); each congruence is
    read column by column through FGAbelianGroup.is_zero_element, not
    through a solve."""
    M = module.monoid
    n, e = M.size, M.identity

    def congruent(group, a, b):
        return all(group.is_zero_element([col.get(i, 0) for i in range(a.rows)])
                   for col in a.sub(b).col_dicts())
    bad = []
    for x in range(n):
        for y in range(n):
            mat, src, tgt = module.action(x, y), module.group(x), module.group(M.op(x, y))
            if mat.rows != tgt.ngens or mat.cols != src.ngens:
                bad.append(("shape", (x, y)))
            elif not congruent(tgt, mat.mul(src.relation_basis),
                               IntMatrix(tgt.ngens, src.relation_basis.cols)):
                bad.append(("relations", (x, y)))
    if any(kind == "shape" for kind, _ in bad):
        return bad
    bad += [("identity", (x,)) for x in range(n)
            if not congruent(module.group(x), module.action(x, e),
                             IntMatrix.identity(module.group(x).ngens))]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # z_* y_* = (yz)_* : A(x) -> A(xyz)
                if not congruent(module.group(M.op(M.op(x, y), z)),
                                 module.action(M.op(x, y), z).mul(module.action(x, y)),
                                 module.action(x, M.op(y, z))):
                    bad.append(("composition", (x, y, z)))
                    break
    return bad


def relabelled(M, perm):
    """M with every element x renamed perm[x]."""
    table = [[0] * M.size for _ in range(M.size)]
    for x in range(M.size):
        for y in range(M.size):
            table[perm[x]][perm[y]] = perm[M.op(x, y)]
    return validate_table(M.size, perm[M.identity], table)


def identity_last(M):
    """M with each element x renamed |M| - 1 - x, so the identity of a
    table with identity 0 moves to the last index."""
    return relabelled(M, range(M.size - 1, -1, -1))


def product_table(M1, M2):
    """M1 x M2 as a table, the pair (a, b) labelled a |M2| + b."""
    n2 = M2.size
    n = M1.size * n2
    table = [[M1.op(x // n2, y // n2) * n2 + M2.op(x % n2, y % n2) for y in range(n)]
             for x in range(n)]
    return validate_table(n, M1.identity * n2 + M2.identity, table)


def split_whole(M):
    """monoid.split of the whole table M, handed the cyclic closures of
    its elements as cohomology.model hands them."""
    N = list(range(M.size))
    return split(M, N, [closure(M, [M.identity], x) for x in N])


def constant_as_tabular(group, monoid):
    """The constant module on group written out as a table, every
    translation the identity."""
    n = monoid.size
    ident = IntMatrix.identity(group.ngens)
    actions = {(x, y): ident for x in range(n) for y in range(n)}
    return HModule(monoid, [group] * n, actions)


def cochain_invariants(group):
    """The invariant factors of a cochain group: its generators modulo
    its block-diagonal relations."""
    return FGAbelianGroup(group.total, group.relation_matrix()).invariants()


def zm_mod(M, q):
    """ZM with every value group reduced mod q."""
    zm = zm_as_hmodule(M)
    groups = [FGAbelianGroup(g.ngens, IntMatrix.diagonal([q] * g.ngens)) for g in zm.groups]
    return HModule(M, groups, zm.actions)


def lawless_modules(M):
    """Three modules over M that break their laws: Z with e_* = 2 (the
    other translations the identity); Z/4 with every element other than
    the identity acting by 2 (1_* 1_* = 4 = 0 but (1 + 1)_* = 2); and
    Z/4 at the identity, Z/2 elsewhere, all translations 1, where M has
    a unit u other than the identity, whose u_*: A(u) = Z/2 -> A(e) =
    Z/4 maps the relation 2 outside 4Z."""
    elements, e = range(M.size), M.identity
    Z, Z2, Z4 = FGAbelianGroup.free(1), FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4)

    def scalars(groups, value):
        return HModule(M, groups, {(x, y): IntMatrix.from_rows([[value(y)]])
                                   for x in elements for y in elements})
    mods = [("Z, e_* = 2", scalars([Z] * M.size, lambda y: 2 if y == e else 1)),
            ("breaks_composition", scalars([Z4] * M.size, lambda y: 1 if y == e else 2))]
    if any(M.op(x, y) == e for x in M.nonunit() for y in elements):
        mods.append(("keeps_no_relations",
                     scalars([Z4 if x == e else Z2 for x in elements], lambda y: 1)))
    return mods


class SampledModule:
    """Coefficient groups known only at finitely many elements, with
    identity translations, for closed-form computations over the
    infinite cyclic monoid.  Missing sample points raise ModuleError."""

    __slots__ = ("monoid", "samples", "constant")

    def __init__(self, samples, monoid=None):
        self.monoid = monoid
        self.samples = dict(samples)
        self.constant = False

    def group(self, x):
        try:
            return self.samples[x]
        except KeyError:
            raise ModuleError("no coefficient group sampled at element %r" % (x,))

    def action(self, x, y):
        if y == 0:
            return IntMatrix.identity(self.group(x).ngens)
        raise ModuleError("sampled modules carry no non-identity translations")

    def translate(self, x, y, vec):
        if y == 0:
            return list(vec)
        raise ModuleError("sampled modules carry no non-identity translations")
