"""Helpers that only the tests read: an integer determinant, the
exhaustive module-law check, a relabelled table, a constant module
written out as a table, ZM reduced mod 2, modules that break their
laws, and a module sampled at finitely many elements of the infinite
cyclic monoid."""

from monoid_cohomology.hmod import FGAbelianGroup, HModule, ModuleError, zm_as_hmodule
from monoid_cohomology.monoid import validate_table
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


def constant_as_tabular(group, monoid):
    """The constant module on group written out as a table, every
    translation the identity."""
    n = monoid.size
    ident = IntMatrix.identity(group.ngens)
    actions = {(x, y): ident for x in range(n) for y in range(n)}
    return HModule(monoid, [group] * n, actions)


def zm_mod2(M):
    """ZM with every value group reduced mod 2."""
    zm = zm_as_hmodule(M)
    groups = [FGAbelianGroup(g.ngens, IntMatrix.diagonal([2] * g.ngens)) for g in zm.groups]
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
