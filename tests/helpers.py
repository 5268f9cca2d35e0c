"""Helpers that only the tests read: an integer determinant, a constant
module written out as a table, and a module sampled at finitely many
elements of the infinite cyclic monoid."""

from monoid_cohomology.hmod import HModule, ModuleError
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


def constant_as_tabular(group, monoid):
    """The constant module on group written out as a table, every
    translation the identity."""
    n = monoid.size
    ident = IntMatrix.identity(group.ngens)
    actions = {(x, y): ident for x in range(n) for y in range(n)}
    return HModule(monoid, [group] * n, actions)


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
