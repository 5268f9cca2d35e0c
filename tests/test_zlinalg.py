import os
import random
import subprocess
import sys
from itertools import product

import pytest

import monoid_cohomology
from monoid_cohomology.bar import iterated_bar
from monoid_cohomology.cohomology import (brute_force_cohomology, cochain_complex,
                                          cochain_group, cohomology_group)
from monoid_cohomology.grillet import (grillet_coboundary, grillet_cohomology,
                                       inclusion_chainmap, injectivity_check,
                                       symmetric_cochains, symmetry_constraints)
from monoid_cohomology.groupoid import (cocycle_check, crossed_product, extract_triple,
                                        iso_classes)
from monoid_cohomology.hmod import (FGAbelianGroup, HModule, constant_module,
                                    module_from_descriptor, zm_as_hmodule)
from monoid_cohomology.monoid import make_cyclic, validate_table
from monoid_cohomology.zlinalg import (AbGroupInvariants, IntMatrix,
                                       LatticeContainmentError,
                                       block_diagonal, gcd, kernel_basis, lattice_basis,
                                       lattice_solve, preimage_lattice,
                                       preimage_lattice_multi,
                                       smith_normal_form, snf_diagonal,
                                       staircase_pivots, staircase_solve,
                                       subquotient_invariants)

from helpers import determinant, zm_mod2
from monoid_census import census


C12 = make_cyclic(1, 2)
Z = FGAbelianGroup.free(1)


def diag_of(D):
    return [D.data[i][i] for i in range(min(D.rows, D.cols))]


def test_snf_identity():
    D, U, V = smith_normal_form(IntMatrix.identity(3))
    assert diag_of(D) == [1, 1, 1]


def test_snf_worked_example():
    D, U, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert diag_of(D) == [2, 4]


def test_snf_zero_matrix():
    D, U, V = smith_normal_form(IntMatrix(2, 3))
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
        out.append(IntMatrix.from_rows([
            [random.choice((1, -1, 1, -1, 2, -2)) if random.random() < 0.35 else 0
             for _ in range(n)] for _ in range(m)], n))
    return out


def snf_draws():
    """250 dense draws up to 5x5 with entries in [-9, 9], then 60 sparse
    unit-heavy ones, from a fixed seed."""
    random.seed(20240817)
    dense = [IntMatrix.from_rows([[random.randint(-9, 9) for _ in range(n)]
                                  for _ in range(m)], n)
             for m, n in ((random.randint(0, 5), random.randint(0, 5))
                          for _ in range(250))]
    return dense + sparse_unit_matrices(60)


def transpose(A):
    return IntMatrix.from_rows([A.column(j) for j in range(A.cols)], A.rows)


def test_snf_random_properties():
    for A in snf_draws():
        D, U, V = smith_normal_form(A)  # U A V == D re-verified internally
        nz = [d for d in diag_of(D) if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        assert snf_diagonal(A) == nz


def random_complex(a, b, c):
    """d: Z^a -> Z^b and e: Z^b -> Z^c with e d = 0, mostly +-1 entries:
    d = U [X; 0] and e = Y [0 | I] U^-1 for a unimodular U built from
    elementary row operations, X of k rows and Y of b - k columns."""
    k = random.randint(0, min(a, b))
    U, Uinv = IntMatrix.identity(b).data, IntMatrix.identity(b).data
    for _ in range(2 * b):
        i, j = random.sample(range(b), 2) if b > 1 else (0, 0)
        q = random.choice((1, -1, 1, -1, 2))
        if i != j:  # row i += q row j, so column j of U^-1 -= q column i
            U[i] = [u + q * v for u, v in zip(U[i], U[j])]
            for row in Uinv:
                row[j] -= q * row[i]
    entries = (0, 0, 0, 1, -1, 1, 2, 3)
    X = IntMatrix.from_rows([[random.choice(entries) for _ in range(a)] if i < k
                             else [0] * a for i in range(b)], a)
    Y = IntMatrix.from_rows([[0] * k + [random.choice(entries) for _ in range(b - k)]
                             for _ in range(c)], b)
    return IntMatrix.from_rows(U, b).mul(X), Y.mul(IntMatrix.from_rows(Uinv, b))


def test_snf_diagonal_matches_sympy_in_both_orientations():
    # sympy's invariant factors as an independent Smith-form oracle; the
    # transposes make snf_diagonal sweep the other side
    pytest.importorskip("sympy")
    random.seed(31)
    shaped = [IntMatrix.from_rows([[random.choice((0, 0, 0, 1, -1, 2, 3))
                                    for _ in range(n)] for _ in range(m)], n)
              for m, n in ((9, 3), (3, 9), (16, 5), (5, 16), (0, 4), (4, 0), (0, 0))]
    # wide draws with no unit entry, which the sweep leaves whole for the
    # column-lattice basis; the even ones keep factors above 1, and the
    # last has a row equal to the sum of two others
    wide = [IntMatrix.from_rows([[random.choice(entries) for _ in range(n)]
                                 for _ in range(m)])
            for m, n in ((1, 40), (4, 30), (6, 60), (8, 90))
            for entries in ((0, 0, 2, -2, 3, -3, 4, 6), (0, 0, 2, -2, 4, 6))]
    rows = wide[-1].data
    rows[5] = [a + b for a, b in zip(rows[0], rows[1])]
    deficient = IntMatrix.from_rows(rows)
    # small shapes up to 6x40 with entries mostly, not always, off +-1
    biased = []
    for _ in range(40):
        m, n = random.randint(1, 6), random.randint(1, 40)
        biased.append(IntMatrix.from_rows([[random.choice((0, 0, 0, 2, -2, 3, -3, 4, 6,
                                                           -6, 9, 1, -1))
                                            for _ in range(n)] for _ in range(m)]))
    # the integer coboundaries d^0 .. d^4 of C(1,2) at levels 1, 2, 3
    coboundaries = []
    for r in (1, 2, 3):
        cx = cochain_complex(C12, r, constant_module(Z, C12), 5)
        coboundaries += [cx.coboundary(n) for n in range(5)]
    # lone non-unit entries, each alone in its row and column, mixed into
    # draws that leave a leftover of their own or none
    lone = [with_lone_entries(A, [random.choice((2, -2, 3, 4, 6, -9, 12))
                                  for _ in range(random.randint(1, 5))])
            for A in biased[:20] + shaped[:4] + sparse_unit_matrices(20)]
    lone += [with_lone_entries(IntMatrix(0, 0), entries)
             for entries in ([2, 3], [4, 2, -6], [3] * 5, [5, 7, 25, 2])]
    for A in snf_draws() + shaped + wide + [deficient] + biased + coboundaries + lone:
        want = sympy_invariant_factors(A)
        for X in (A, transpose(A)):
            before = [dict(r) for r in X.row_dicts()]
            assert snf_diagonal(X) == want
            assert X.row_dicts() == before  # the sweep works on copies
    assert len(sympy_invariant_factors(deficient)) == 7
    assert snf_diagonal(IntMatrix.diagonal([2, 3])) == [1, 6]


def with_lone_entries(A, entries):
    """A beside a diagonal block of the given entries, rows and columns
    shuffled: each entry is then alone in its row and its column."""
    B = block_diagonal([A, IntMatrix.diagonal(entries)]).data
    rows = random.sample(range(len(B)), len(B))
    cols = random.sample(range(A.cols + len(entries)), A.cols + len(entries))
    return IntMatrix.from_rows([[B[i][j] for j in cols] for i in rows], len(cols))


def test_lone_leftover_entries_skip_the_dense_smith_form(monkeypatch):
    # a line the sweep leaves with one entry, at an index no other
    # surviving line meets, is its own Smith factor; a line of several
    # entries, or lines sharing an index, still go through the certified
    # lattice basis to the dense Smith form
    from monoid_cohomology import zlinalg
    shapes = []
    smith = zlinalg.smith_normal_form

    def recording(A):
        shapes.append((A.rows, A.cols))
        return smith(A)
    monkeypatch.setattr(zlinalg, "smith_normal_form", recording)

    def dense_shapes(f, *args):
        del shapes[:]
        return f(*args), list(shapes)
    group = FGAbelianGroup(3, IntMatrix.diagonal([2, 4, 3]))
    assert dense_shapes(group.invariants) == (AbGroupInvariants(0, (2, 12)), [])
    assert dense_shapes(snf_diagonal, IntMatrix.from_rows([[2, 4, 6]])) == ([2], [(1, 1)])
    assert dense_shapes(snf_diagonal, IntMatrix.from_rows([[2, 0], [4, 6]])) == ([2, 6], [(2, 2)])
    # R's coboundaries on C(0,q) multiply by q
    for q in (2, 3, 4, 5):
        M = make_cyclic(0, q)
        for G in (Z, FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4),
                  FGAbelianGroup.cyclic(6)):
            for n in range(7):
                assert dense_shapes(cohomology_group, M, 1, n, constant_module(G, M))[1] == []
    C02 = make_cyclic(0, 2)
    assert dense_shapes(cohomology_group, C02, 1, 2, zm_mod2(C02)) == (
        AbGroupInvariants(0, (2, 2)), [(2, 2)])
    assert dense_shapes(cohomology_group, C12, 2, 4,
                        constant_module(FGAbelianGroup.cyclic(4), C12)) == (
        AbGroupInvariants(0, (4,)), [(1, 1)])


def test_joint_reduction_matches_sympy_in_both_orientations():
    # consecutive coboundaries d, e of one complex, each reduced whole: a
    # tall d is swept along its columns, a wide one along its rows, and
    # e comes out tall and wide; the ranks of d and e share e's source
    pytest.importorskip("sympy")
    random.seed(1998)
    pairs = [random_complex(a, b, c)
             for a, b, c in ((3, 8, 14), (4, 9, 6), (2, 10, 3), (8, 5, 9), (6, 6, 2),
                             (1, 12, 12), (5, 7, 0), (0, 6, 5))
             for _ in range(6)]
    # consecutive integer coboundaries of C(1,2) and C(2,3) at levels 1-3
    for M, nmax in ((C12, 5), (make_cyclic(2, 3), 4)):
        for r in (1, 2, 3):
            cx = cochain_complex(M, r, constant_module(Z, M), nmax)
            pairs += [(cx.coboundary(n - 1), cx.coboundary(n)) for n in range(1, nmax)]
    tall, wide = 0, 0
    for d, e in pairs:
        assert e.mul(d).is_zero()
        prev, want = snf_diagonal(d), sympy_invariant_factors(e)
        assert prev == sympy_invariant_factors(d)
        assert snf_diagonal(e) == want
        assert len(prev) + len(want) <= e.cols
        tall += d.rows > d.cols
        wide += d.rows <= d.cols
    assert tall > 40 and wide > 10


def sympy_invariant_factors(A):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    rows = A.row_dicts()
    dense = Matrix(A.rows, A.cols, [rows[i].get(j, 0)
                                    for i in range(A.rows) for j in range(A.cols)])
    return [abs(d) for d in invariant_factors(dense, domain=ZZ) if d]


def test_kernel_worked_examples():
    K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert K.cols == 1
    assert sorted(K.column(0)) == [-1, 1]
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


def assert_saturated_kernel(A):
    before = A.row_dicts()
    K = kernel_basis(A)
    assert A.row_dicts() == before  # the sweep works on copies
    assert A.mul(K).is_zero()
    assert K.cols == A.cols - len(snf_diagonal(A))
    if K.cols:
        # a kernel basis is primitive: the quotient by it is free
        assert all(d == 1 for d in snf_diagonal(K))


def test_kernel_random_saturated():
    random.seed(7)
    dense = [IntMatrix.from_rows([[random.randint(-7, 7) for _ in range(n)]
                                  for _ in range(m)], n)
             for m, n in ((random.randint(0, 6), random.randint(0, 6))
                          for _ in range(300))]
    for A in dense + sparse_unit_matrices(60):
        assert_saturated_kernel(A)


def grillet_stacked_conditions(M, module, n):
    """The (A, L) that grillet_cohomology stacks for its kernel: the
    symmetry identities over their relations, then delta^n over the
    relations one degree up."""
    amb, (S, rel) = symmetry_constraints(M, module, n)
    d_n = grillet_coboundary(M, module, n)
    rel_next = cochain_group(iterated_bar(M, 1, n + 1), n + 1, module).relation_matrix()
    A = IntMatrix(S.rows + d_n.rows, amb.total, S.row_dicts() + d_n.row_dicts())
    L = block_diagonal([rel, rel_next])
    assert preimage_lattice(A, L) == preimage_lattice_multi([(S, rel), (d_n, rel_next)],
                                                            amb.total)
    return A, L


def test_preimage_lattice_ignores_row_order():
    # kernel_basis feeds the echelon the rows its column sweep leaves,
    # fewest entries first, so its vectors depend on the row order; the
    # canonical preimage basis must not
    random.seed(25)
    cases = []
    for _ in range(40):
        blocks = []
        for _ in range(random.randint(1, 3)):
            m, k = random.randint(1, 3), random.randint(0, 2)
            blocks.append(IntMatrix.from_rows([[random.choice((0, 0, 1, 2, 3, 4))
                                                for _ in range(k)] for _ in range(m)], k))
        L = block_diagonal(blocks)
        A = IntMatrix.from_rows([[random.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(6)]
                                 for _ in range(L.rows)], 6)
        cases.append((A, L))
    klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
    for M in (make_cyclic(0, 4), klein):
        cases.append(grillet_stacked_conditions(M, constant_module(FGAbelianGroup.cyclic(4), M),
                                                3))
    for A, L in cases:
        expected = preimage_lattice(A, L)
        rows, lrows = A.row_dicts(), L.row_dicts()
        for _ in range(4):
            order = list(range(A.rows))
            random.shuffle(order)
            PA = IntMatrix(A.rows, A.cols, [rows[i] for i in order])
            PL = IntMatrix(L.rows, L.cols, [lrows[i] for i in order])
            assert preimage_lattice(PA, PL) == expected
    for A, L in cases[-2:]:
        assert_saturated_kernel(A.hstack(L.scaled(-1)))


def test_preimage_lattice_is_certified_on_grillets_conditions(monkeypatch):
    # Every preimage Grillet's routes ask for on the census of orders 2-4
    # (H^1_G..H^3_G and the injectivity problem, with Z/2 and Z/4; with
    # ZM mod 2 too, but at order 4 only in degrees 1-2, whose degree-3
    # certificates take seconds a table) is checked without kernel_basis.
    # P = preimage_lattice(A, L) spans {v : A v in lat(L)} when (1) every
    # column of A P lies in lat(L) and (2) Z^n / P has the invariants of
    # lat([A | L]) / lat(L).  v -> A v + lat(L) maps Z^n onto that
    # quotient, and its kernel, the preimage, holds P by (1); so Z^n / P
    # maps onto a group isomorphic to it, and a surjection between
    # isomorphic finitely generated abelian groups is injective
    from monoid_cohomology import zlinalg
    seen = {}

    def recording(A, L=None):
        P = seen[A, L] = preimage_lattice(A, L)
        return P
    monkeypatch.setattr(zlinalg, "preimage_lattice", recording)
    for M in census():
        for module, whole in ((constant_module(FGAbelianGroup.cyclic(2), M), True),
                              (constant_module(FGAbelianGroup.cyclic(4), M), True),
                              (zm_mod2(M), M.size < 4)):
            for n in (1, 2, 3) if whole else (1, 2):
                grillet_cohomology(M, module, n)
            if whole:
                injectivity_check(M, module)
    assert len(seen) > 250
    for (A, L), P in seen.items():
        Lb = lattice_basis(L)
        _, outside = staircase_solve(Lb, staircase_pivots(Lb), A.mul(P).row_dicts())
        assert not outside
        diag = snf_diagonal(P)
        quotient = AbGroupInvariants.from_diagonal(diag, free_rank=P.rows - len(diag))
        assert quotient == subquotient_invariants(A.hstack(L), L)


def test_preimage_worked_examples():
    P = preimage_lattice(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]))
    assert P.data == [[2]]
    assert preimage_lattice(IntMatrix(2, 3)) == IntMatrix.identity(3)
    P = preimage_lattice(IntMatrix.from_rows([[1, 1]]))
    assert P.cols == 1 and abs(P.data[0][0]) == 1
    assert P.data[0][0] + P.data[1][0] == 0


def test_preimage_is_tight():
    random.seed(99)
    for _ in range(80):
        m = random.randint(1, 3)
        n = random.randint(1, 3)
        k = random.randint(0, 2)
        A = IntMatrix.from_rows([[random.randint(-3, 3) for _ in range(n)]
                                 for _ in range(m)])
        L = IntMatrix.from_rows([[random.randint(-3, 3) for _ in range(k)]
                                 for _ in range(m)], k)
        P = preimage_lattice(A, L)
        Lb = lattice_basis(L)
        Pb = lattice_basis(P)
        Lp, Pp = staircase_pivots(Lb), staircase_pivots(Pb)
        for j in range(P.cols):
            v = A.mul_vector(P.column(j))
            assert lattice_solve(Lb, v, Lp) is not None if Lb.cols else not any(v)
        for v in product(range(-2, 3), repeat=n):
            Av = A.mul_vector(list(v))
            in_l = lattice_solve(Lb, Av, Lp) is not None if Lb.cols else not any(Av)
            if in_l:
                assert lattice_solve(Pb, list(v), Pp) is not None


def _in_lattice_by_smith(H, b):
    # b lies in the column lattice of H iff adjoining it leaves the Smith
    # diagonal alone: a column outside either raises the rank or lowers
    # the index of the lattice in its saturation, the product of the
    # factors
    return (sorted(snf_diagonal(H.hstack(IntMatrix.from_columns([b], H.rows))))
            == sorted(snf_diagonal(H)))


def test_staircase_solve_matches_the_smith_oracle():
    rng = random.Random(13)
    entries = (0, 1, -1, 2, 3, -4, 6)
    staircases = [IntMatrix.from_rows([[2, 0], [1, 3]]),           # entry below a pivot
                  IntMatrix.from_rows([[0, 0], [2, 0], [1, 0]]),   # rank-deficient
                  IntMatrix(3, 0)]                                 # the empty staircase
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        staircases.append(lattice_basis(IntMatrix.from_rows(
            [[rng.choice(entries) for _ in range(n)] for _ in range(m)])))
    inside_seen = outside_seen = 0
    for H in staircases:
        columns = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                columns.append(H.mul_vector([rng.randint(-3, 3) for _ in range(H.cols)]))
            else:
                columns.append([rng.choice(entries) for _ in range(H.rows)])
        B = IntMatrix.from_columns(columns, H.rows)
        X, outside = staircase_solve(H, staircase_pivots(H), B.row_dicts())
        expected = [j for j, b in enumerate(columns) if not _in_lattice_by_smith(H, b)]
        assert outside == expected, (H, columns)
        for j, b in enumerate(columns):
            if j not in outside:
                assert H.mul_vector([x.get(j, 0) for x in X]) == b, (H, b)
        inside_seen += len(columns) - len(outside)
        outside_seen += len(outside)
    assert inside_seen > 300 and outside_seen > 200


def test_is_zero_element_matches_the_smith_oracle():
    # Z^2 / <(2, 1), (0, 3)> = Z/6, whose relation basis keeps the 1
    # below its first pivot
    g = FGAbelianGroup(2, IntMatrix.from_rows([[2, 0], [1, 3]]))
    assert g.relation_basis.data == [[2, 0], [1, 3]]
    for v in product(range(-6, 7), repeat=2):
        assert g.is_zero_element(list(v)) == _in_lattice_by_smith(g.relation_basis, list(v))


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


def test_containment_error_names_the_first_column_outside():
    # the witness is the first column of I outside lat(K) = 2Z + Z,
    # though later ones lie outside too, and the message carries it
    K = IntMatrix.from_rows([[2, 0], [0, 1]])
    I = IntMatrix.from_columns([[4, 1], [0, 5], [3, 0], [1, 1], [2, 7]], 2)
    with pytest.raises(LatticeContainmentError) as err:
        subquotient_invariants(K, I)
    assert (err.value.column, err.value.vector) == (2, [3, 0])
    assert "column 2 ([3, 0])" in str(err.value)


def test_subquotient_order_matches_coset_count():
    # ambient rank <= 3, entries <= 4: |K/I| equals |det| of the
    # change-of-basis matrix, i.e. the brute-force coset count
    random.seed(5)
    done = 0
    while done < 50:
        n = random.randint(1, 3)
        K = IntMatrix.from_rows([[random.randint(-4, 4) for _ in range(n)]
                                 for _ in range(n)])
        if len(snf_diagonal(K)) < n:
            continue
        X = [[random.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            X[i][i] += random.randint(1, 3)
        X = IntMatrix.from_rows(X)
        if len(snf_diagonal(X)) < n:
            continue
        inv = subquotient_invariants(K, K.mul(X))
        assert inv.order() == abs(determinant(X))
        done += 1


def sifted(diag):
    """The invariant-factor chain of diag by the pairwise (gcd, lcm)
    sift alone, entries 0 and 1 dropped."""
    ds = [abs(d) for d in diag if abs(d) >= 2]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d >= 2)


def test_from_diagonal_matches_the_sift_and_sympy():
    # chained and unchained diagonals, with 0s, 1s and signs, agree
    # with the sift and with sympy
    pytest.importorskip("sympy")
    random.seed(2718)
    draws = []
    for _ in range(150):
        k = random.randint(0, 9)
        chained = [random.choice((2, 3))]
        for _ in range(k):
            chained.append(chained[-1] * random.choice((1, 1, 2, 3)))
        unchained = [random.choice((2, 3, 4, 5, 6, 9, 10, 12)) for _ in range(k)]
        extras = [random.choice((0, 1, -1)) for _ in range(random.randint(0, 3))]
        for diag in (chained, unchained, chained + extras, unchained + extras):
            diag = [random.choice((1, -1)) * d for d in diag]
            random.shuffle(diag)
            draws.append(diag)
    draws += [[], [0], [1], [0, 1, 2], [2] * 300]
    for diag in draws:
        inv = AbGroupInvariants.from_diagonal(diag, free_rank=1)
        assert inv.torsion == sifted(diag), diag
        assert inv.free_rank == 1 + diag.count(0)
        want = sympy_invariant_factors(IntMatrix.diagonal(diag))
        assert [d for d in want if d >= 2] == list(inv.torsion), diag


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
    assert lattice_basis(B1) == lattice_basis(B2)
    L1 = lattice_basis(IntMatrix.from_rows([[4, 6]]))
    assert L1.data == [[2]]


def preimage_multi_cases():
    # v with 2v in 4Z and v in 3Z simultaneously: lattice 6Z
    A1 = IntMatrix.from_rows([[2]])
    L1 = IntMatrix.from_rows([[4]])
    A2 = IntMatrix.from_rows([[1]])
    L2 = IntMatrix.from_rows([[3]])
    # (v1, v2) with v1 + v2 in 2Z, v1 - v2 = 0 and no condition from a
    # block without rows: lattice spanned by (1, 1)
    A3 = IntMatrix.from_rows([[1, 1], [1, -1]])
    L3 = IntMatrix.from_rows([[2], [0]])
    return [preimage_lattice_multi([(A1, L1), (A2, L2)], 1),
            preimage_lattice_multi([(A3, L3), (IntMatrix(0, 2), None)], 2)]


def test_preimage_multi_stacks_conditions():
    assert [P.data for P in preimage_multi_cases()] == [[[6]], [[1], [1]]]
    assert preimage_lattice_multi([], 2) == IntMatrix.identity(2)


def test_block_diagonal_places_blocks_by_offset():
    assert block_diagonal([]) == IntMatrix(0, 0)
    B = IntMatrix.from_rows([[1, 2], [3, 4]])
    no_cols = IntMatrix(2, 0)
    no_rows = IntMatrix(0, 3)
    D = block_diagonal([no_cols, B, no_rows, IntMatrix.from_rows([[5]])])
    assert (D.rows, D.cols) == (5, 6)
    assert D.row_dicts() == [{}, {}, {0: 1, 1: 2}, {0: 3, 1: 4}, {5: 5}]
    assert block_diagonal([no_cols, no_cols]).row_dicts() == [{}] * 4


TWISTED = os.path.join(os.path.dirname(__file__), "data", "twisted_z_z2_c04.json")


def test_no_route_reads_a_dense_view(monkeypatch):
    # every route works on the row dicts: with IntMatrix.data refused,
    # each gives the answer it gave before
    C04, Z2 = make_cyclic(0, 4), make_cyclic(0, 2)
    with open(TWISTED) as f:
        twisted = f.read()
    zm = zm_as_hmodule(C12)
    zm2 = HModule(C12, [FGAbelianGroup(g.ngens, IntMatrix.diagonal([2] * g.ngens))
                        for g in zm.groups], zm.actions)
    A2 = constant_module(FGAbelianGroup.cyclic(2), C12)
    A6 = constant_module(FGAbelianGroup.cyclic(6), C12)
    B2 = constant_module(FGAbelianGroup.cyclic(2), Z2)

    def chainmap():
        mats, report = inclusion_chainmap(C12, A2)
        return mats, report.squares
    routes = {
        "universal coefficients": lambda: cohomology_group(
            C12, 2, 4, constant_module(FGAbelianGroup.cyclic(4), C12)),
        "cone ZM": lambda: cohomology_group(C12, 2, 3, zm),
        "cone ZM/2": lambda: cohomology_group(C12, 2, 3, zm2),
        # the descriptor is only parsed; cohomology_group runs validate_module
        "cone twisted": lambda: [cohomology_group(C04, 1, n, module_from_descriptor(twisted, C04))
                                 for n in (3, 0)],
        "grillet": lambda: [grillet_cohomology(C12, A2, n) for n in (1, 2, 3)],
        "symmetric cochains": lambda: [symmetric_cochains(C12, A, n)[1]
                                       for A in (A6, zm) for n in (1, 2, 3, 4)],
        "injectivity": lambda: injectivity_check(C12, A2),
        "inclusion chain map": chainmap,
        "brute force": lambda: brute_force_cohomology(C12, 1, 2, A2),
        "iso classes": lambda: iso_classes(Z2, B2),
        "cocycle check": lambda: [cocycle_check(Z2, B2, g, mu) for g, mu in
                                  (({(1, 1, 1): (1,)}, {}), ({}, {(1, 1): (1,)}))],
        "extract triple": lambda: extract_triple(
            crossed_product(Z2, B2, {}, {(1, 1): (1,)}))[1].actions,
        "stacked preimage": preimage_multi_cases,
    }
    before = {name: route() for name, route in routes.items()}

    def refuse(mat):
        raise AssertionError("dense view of a %dx%d matrix" % (mat.rows, mat.cols))
    monkeypatch.setattr(IntMatrix, "data", property(refuse))
    for name, route in routes.items():
        assert route() == before[name], name


def test_trivial_group_edge_cases():
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
        A = IntMatrix.from_rows([[random.randint(-10**20, 10**20)
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
from monoid_cohomology import cohomology, cyclic, zlinalg
from monoid_cohomology.bar import BarWord, explicit_low_degree_differential, iterated_bar
from monoid_cohomology.hmod import (CochainGroup, FGAbelianGroup, HModule, ModuleError,
                                    constant_module)
from monoid_cohomology.monoid import make_cyclic, validate_table
from helpers import determinant

def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return True
    return False

failures = [] if sys.flags.optimize else ["asserts are not stripped"]
M = zlinalg.IntMatrix
C = make_cyclic(0, 2)
Zc = constant_module(FGAbelianGroup.free(1), C)
value_checks = {
    "from_rows": (M.from_rows, [[1], [1, 2]]),
    "mul": (M(1, 2).mul, M(1, 2)),
    "mul_vector": (M(1, 2).mul_vector, [1]),
    "sub": (M(1, 2).sub, M(2, 2)),
    "hstack": (M(1, 2).hstack, M(2, 2)),
    "IntMatrix rows": (M, 2, 2, [{}]),
    "IntMatrix column": (M, 1, 2, [{2: 1}]),
    "IntMatrix zero": (M, 1, 2, [{0: 0}]),
    "preimage_lattice": (zlinalg.preimage_lattice, M(2, 1), M(3, 1)),
    "preimage_lattice_multi": (zlinalg.preimage_lattice_multi, [(M(1, 2), None)], 3),
    "preimage_lattice_multi L": (zlinalg.preimage_lattice_multi, [(M(1, 2), M(2, 1))], 2),
    "subquotient_invariants": (zlinalg.subquotient_invariants, M(2, 1), M(3, 1)),
    "determinant": (determinant, M(1, 2)),
    "FGAbelianGroup": (FGAbelianGroup, 2, M(3, 0)),
    "BarWord separator count": (BarWord, (1, 1), (), 1),
    "BarWord separator range": (BarWord, (1, 1), (3,), 2),
    "BarWord separator zero": (BarWord, (1, 1), (0,), 1),
    "BarWord suspend": (BarWord((1, 1), (2,), 2).suspend, 1),
    "CochainGroup duplicates": (CochainGroup, ["a", "a"], {"a": 0}, Zc),
    "CochainGroup pi": (CochainGroup, ["a"], {}, Zc),
    "infinite g_gen": (cyclic.CyclicContraction(infinite=True).g_gen, ("v", 1)),
    "gf_closed_form s": (cyclic.gf_closed_form, 1, 2, 1, 1),
    "explicit formula shape": (explicit_low_degree_differential, C, BarWord((1, 1, 1), (2, 2), 2)),
}
for name, (fn, *args) in value_checks.items():
    if not raises(ValueError, fn, *args):
        failures.append(name)
# modules that validate_module rejects: a translation that leaves the
# relations, a d d outside them (no curvature K), and Z with e_* = 2;
# cohomology_group refuses all of them, and a complex built directly still
# meets the cone's certificate on its top rows
one, C3 = M.from_rows([[1]]), make_cyclic(0, 3)
leaves = HModule(C, [FGAbelianGroup.cyclic(4), FGAbelianGroup.cyclic(2)],
                 {(x, y): one for x in range(2) for y in range(2)})
curved = HModule(C3, [FGAbelianGroup.cyclic(4)] * 3,
                 {(x, y): M.from_rows([[2 if y else 1]]) for x in range(3) for y in range(3)})
doubled = HModule(C3, [FGAbelianGroup.free(1)] * 3,
                  {(x, y): M.from_rows([[1 if y else 2]]) for x in range(3) for y in range(3)})
# Klein and the semilattice need two generators: Z/4 with the elements
# other than the identity acting by 2 breaks composition on both
klein = validate_table(4, 0, [[x ^ y for y in range(4)] for x in range(4)])
semilattice = validate_table(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]])
klein_curved, semilattice_curved = (
    HModule(P, [FGAbelianGroup.cyclic(4)] * P.size,
            {(x, y): M.from_rows([[2 if y else 1]]) for x in range(P.size) for y in range(P.size)})
    for P in (klein, semilattice))
for name, A, n in (("lawless relations", leaves, 1), ("lawless composition", curved, 2),
                   ("lawless identity", doubled, 2),
                   ("lawless composition on Klein", klein_curved, 2),
                   ("lawless composition on the semilattice", semilattice_curved, 2)):
    if not raises(ModuleError, cohomology.cohomology_group, A.monoid, 1, n, A):
        failures.append(name)
# on C(0,3) 2_*: A(1) = Z/2 -> A(0) = Z/4 carries a relation into d^1;
# cochain_complex refuses both modules, so the complexes are built
# directly on the iterated bar, which checks no law
leaves3 = HModule(C3, [FGAbelianGroup.cyclic(4)] + [FGAbelianGroup.cyclic(2)] * 2,
                  {(x, y): one for x in range(3) for y in range(3)})
for name, A, n in (("cone relations", leaves3, 1), ("cone curvature", curved, 2)):
    if not raises(ModuleError, cohomology.cochain_complex, A.monoid, 1, A, n + 1):
        failures.append(name + " entry check")
    cx = cohomology.CochainComplex(iterated_bar(A.monoid, 1, n + 1), A)
    if not raises(ModuleError, cx.cohomology, n):
        failures.append(name)
for bad in ((-1, ()), (0, (1,)), (0, (2, 3))):
    if not raises(ValueError, zlinalg.AbGroupInvariants, *bad):
        failures.append("AbGroupInvariants%r" % (bad,))
# a wrong wrap count breaks the identity x + y == m + s*q + r
cyclic.cyclic_s = lambda m, q, x, y: 5
if not raises(ArithmeticError, cyclic.gf_closed_form, 1, 2, 2, 2):
    failures.append("gf_closed_form identity")
# lattice_basis certifies its echelon basis, for snf_diagonal's leftover
# and a presented group's relations alike: a wrong tracked combination,
# and a dropped basis column that leaves a column outside the basis
# lattice
echelon = zlinalg._column_echelon
def wrong_combination(*args, **kwargs):
    pivots, V, active = echelon(*args, **kwargs)
    V[pivots[0][1]] = {k: 2 * v for k, v in V[pivots[0][1]].items()}
    return pivots, V, active
def dropped_column(*args, **kwargs):
    pivots, V, active = echelon(*args, **kwargs)
    return pivots[:-1], V, active
for name, broken in (("echelon combination", wrong_combination),
                     ("echelon containment", dropped_column)):
    zlinalg._column_echelon = broken
    # snf_diagonal reads the lone entries of [[2, 0], [0, 2]] directly,
    # so its echelon gets a leftover whose lines share an index
    for fn, *args in ((zlinalg.snf_diagonal, M.from_rows([[2, 2], [0, 2]])),
                      (zlinalg.lattice_basis, M.from_rows([[2, 0], [0, 2]])),
                      (FGAbelianGroup, 2, M.from_rows([[2, 0], [0, 2]]))):
        if not raises(ArithmeticError, fn, *args):
            failures.append("%s %s" % (name, fn.__name__))
zlinalg._column_echelon = echelon
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SELF_CHECKS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
