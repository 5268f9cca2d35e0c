import os
import random
import subprocess
import sys
from itertools import product

import pytest

import monoid_cohomology
from monoid_cohomology.zlinalg import (AbGroupInvariants, IntMatrix,
                                       LatticeContainmentError, determinant,
                                       kernel_basis, lattice_basis,
                                       lattice_contains, matrix_rank,
                                       preimage_lattice, smith_normal_form,
                                       snf_diagonal, subquotient_invariants)


def diag_of(D):
    return [D.data[i][i] for i in range(min(D.rows, D.cols))]


def test_snf_identity():
    D, U, V = smith_normal_form(IntMatrix.identity(3))
    assert diag_of(D) == [1, 1, 1]


def test_snf_worked_example():
    D, U, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert diag_of(D) == [2, 4]


def test_snf_zero_matrix():
    D, U, V = smith_normal_form(IntMatrix.zero(2, 3))
    assert D.is_zero()
    assert U == IntMatrix.identity(2) and V == IntMatrix.identity(3)


def sparse_unit_matrices(count, max_dim=12):
    """Mostly +-1 entries, some +-2, about a third of the cells filled:
    the shape of real coboundaries.  The unit sweep meets fill-in and
    stale heap entries on these, which dense draws rarely reach."""
    out = []
    for _ in range(count):
        m = random.randint(1, max_dim)
        n = random.randint(1, max_dim)
        out.append(IntMatrix(m, n, [
            [random.choice((1, -1, 1, -1, 2, -2)) if random.random() < 0.35 else 0
             for _ in range(n)] for _ in range(m)]))
    return out


def test_snf_random_properties():
    random.seed(20240817)
    dense = [IntMatrix(m, n, [[random.randint(-9, 9) for _ in range(n)]
                              for _ in range(m)])
             for m, n in ((random.randint(0, 5), random.randint(0, 5))
                          for _ in range(250))]
    for A in dense + sparse_unit_matrices(60):
        D, U, V = smith_normal_form(A)  # U A V == D re-verified internally
        nz = [d for d in diag_of(D) if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        assert snf_diagonal(A) == nz
        assert matrix_rank(A) == len(nz)


def test_kernel_worked_examples():
    K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert K.cols == 1
    assert sorted(K.column(0)) == [-1, 1]
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


def test_kernel_random_saturated():
    random.seed(7)
    dense = [IntMatrix(m, n, [[random.randint(-7, 7) for _ in range(n)]
                              for _ in range(m)])
             for m, n in ((random.randint(0, 6), random.randint(0, 6))
                          for _ in range(300))]
    for A in dense + sparse_unit_matrices(60):
        K = kernel_basis(A)
        assert A.mul(K).is_zero()
        assert K.cols == A.cols - matrix_rank(A)
        if K.cols:
            # a kernel basis is primitive: the quotient by it is free
            assert all(d == 1 for d in snf_diagonal(K))


def test_preimage_worked_examples():
    P = preimage_lattice(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]))
    assert P.data == [[2]]
    assert preimage_lattice(IntMatrix.zero(2, 3)) == IntMatrix.identity(3)
    P = preimage_lattice(IntMatrix.from_rows([[1, 1]]))
    assert P.cols == 1 and abs(P.data[0][0]) == 1
    assert P.data[0][0] + P.data[1][0] == 0


def test_preimage_is_tight():
    random.seed(99)
    for _ in range(80):
        m = random.randint(1, 3)
        n = random.randint(1, 3)
        k = random.randint(0, 2)
        A = IntMatrix(m, n, [[random.randint(-3, 3) for _ in range(n)]
                             for _ in range(m)])
        L = IntMatrix(m, k, [[random.randint(-3, 3) for _ in range(k)]
                             for _ in range(m)])
        P = preimage_lattice(A, L)
        Lb = lattice_basis(L)
        Pb = lattice_basis(P)
        for j in range(P.cols):
            v = A.mul_vector(P.column(j))
            assert lattice_contains(Lb, v) if Lb.cols else not any(v)
        for v in product(range(-2, 3), repeat=n):
            Av = A.mul_vector(list(v))
            in_l = lattice_contains(Lb, Av) if Lb.cols else not any(Av)
            if in_l:
                assert lattice_contains(Pb, list(v))


def test_subquotient_worked_examples():
    inv = subquotient_invariants(IntMatrix.identity(2),
                                 IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert inv == AbGroupInvariants(0, (6,))
    assert subquotient_invariants(IntMatrix.identity(2),
                                  IntMatrix(2, 0)) == AbGroupInvariants(2)
    assert subquotient_invariants(IntMatrix.identity(2),
                                  IntMatrix.identity(2)).is_trivial()


def test_subquotient_rejects_non_containment():
    with pytest.raises(LatticeContainmentError) as err:
        subquotient_invariants(IntMatrix.from_rows([[2]]),
                               IntMatrix.from_rows([[3]]))
    assert err.value.column == 0


def test_subquotient_order_matches_coset_count():
    # ambient rank <= 3, entries <= 4: |K/I| equals |det| of the
    # change-of-basis matrix, i.e. the brute-force coset count
    random.seed(5)
    done = 0
    while done < 50:
        n = random.randint(1, 3)
        K = IntMatrix(n, n, [[random.randint(-4, 4) for _ in range(n)]
                             for _ in range(n)])
        if matrix_rank(K) < n:
            continue
        X = IntMatrix(n, n, [[random.randint(-2, 2) for _ in range(n)]
                             for _ in range(n)])
        for i in range(n):
            X.data[i][i] += random.randint(1, 3)
        if matrix_rank(X) < n:
            continue
        inv = subquotient_invariants(K, K.mul(X))
        assert inv.order() == abs(determinant(X))
        done += 1


def test_invariants_canonical_form():
    inv = AbGroupInvariants.from_diagonal([2, 3], free_rank=0)
    assert inv == AbGroupInvariants(0, (6,))
    inv = AbGroupInvariants.from_diagonal([4, 6, 1, 0])
    assert inv.free_rank == 1 and inv.torsion == (2, 12)
    assert AbGroupInvariants(0, ()).is_trivial()
    assert AbGroupInvariants(0, (2, 4)).order() == 8
    assert AbGroupInvariants(1, (2,)).order() is None


def test_lattice_basis_is_canonical():
    B1 = IntMatrix.from_rows([[2, 0], [0, 3]])
    B2 = IntMatrix.from_rows([[2, 2], [3, 0]])
    # same lattice up to column operations -> same Hermite basis
    assert lattice_basis(B1) == lattice_basis(B1.copy())
    L1 = lattice_basis(IntMatrix.from_rows([[4, 6]]))
    assert L1.data == [[2]]


def test_preimage_multi_stacks_conditions():
    from monoid_cohomology.zlinalg import preimage_lattice_multi
    # v with 2v in 4Z and v in 3Z simultaneously: lattice 6Z
    A1 = IntMatrix.from_rows([[2]])
    L1 = IntMatrix.from_rows([[4]])
    A2 = IntMatrix.from_rows([[1]])
    L2 = IntMatrix.from_rows([[3]])
    P = preimage_lattice_multi([(A1, L1), (A2, L2)], 1)
    assert P.data == [[6]]
    assert preimage_lattice_multi([], 2) == IntMatrix.identity(2)


def test_trivial_group_edge_cases():
    from monoid_cohomology.hmod import FGAbelianGroup
    g = FGAbelianGroup(0)
    assert g.element_list() == [[]]
    assert g.invariants().is_trivial()
    assert subquotient_invariants(IntMatrix(0, 0), IntMatrix(0, 0)).is_trivial()


def test_large_entry_exactness():
    # intermediate entries blow up; everything must stay exact
    random.seed(424242)
    for _ in range(25):
        m = random.randint(1, 5)
        n = random.randint(1, 5)
        A = IntMatrix(m, n, [[random.randint(-10**20, 10**20)
                              for _ in range(n)] for _ in range(m)])
        D, U, V = smith_normal_form(A)
        nz = [D.data[i][i] for i in range(min(m, n)) if D.data[i][i]]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        K = kernel_basis(A)
        assert A.mul(K).is_zero()
        assert K.cols == n - len(nz)
    huge = IntMatrix.from_rows([[2**64, 0, 0], [0, 3**40, 0], [0, 0, 6]])
    inv = subquotient_invariants(IntMatrix.identity(3), huge)
    assert inv.order() == 2**64 * 3**40 * 6


OPTIMIZED_SELF_CHECKS = """
import sys
from monoid_cohomology import zlinalg

def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return True
    return False

failures = [] if sys.flags.optimize else ["asserts are not stripped"]
for bad in ((-1, ()), (0, (1,)), (0, (2, 3))):
    if not raises(ValueError, zlinalg.AbGroupInvariants, *bad):
        failures.append("AbGroupInvariants%r" % (bad,))
# a broken product makes the self-check U A V == D fail
zlinalg.IntMatrix.mul = lambda self, other: zlinalg.IntMatrix(self.rows, other.cols)
if not raises(ArithmeticError, zlinalg.smith_normal_form,
              zlinalg.IntMatrix.from_rows([[2, 1], [1, 3]])):
    failures.append("smith_normal_form")
print(failures)
sys.exit(1 if failures else 0)
"""


def test_checks_survive_python_O():
    # python -O strips assert statements; the checks guarding answers
    # must still raise there
    src = os.path.dirname(os.path.dirname(monoid_cohomology.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SELF_CHECKS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
