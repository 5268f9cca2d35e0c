import random
import re
import tracemalloc

import pytest

from monoid_cohomology.bar import BarWord
from monoid_cohomology.cohomology import cohomology_group
from monoid_cohomology.hmod import (CochainGroup, FGAbelianGroup, FreeBasis,
                                    HModule, ModuleError, PiMismatchError,
                                    constant_module, dualize,
                                    module_from_descriptor,
                                    parse_group_shorthand, require_lawful,
                                    validate_module, zm_as_hmodule)
from monoid_cohomology.monoid import generating_set, make_cyclic
from monoid_cohomology.zlinalg import AbGroupInvariants, IntMatrix

from helpers import (constant_as_tabular, exhaustive_violations, lawless_modules, relabelled,
                     zm_mod2)
from monoid_census import census

Z2 = make_cyclic(0, 2)
C23 = make_cyclic(2, 3)
C11 = make_cyclic(1, 1)
C12 = make_cyclic(1, 2)


def test_group_presentations():
    z4 = FGAbelianGroup.cyclic(4)
    assert z4.invariants() == AbGroupInvariants(0, (4,))
    z = FGAbelianGroup.free(1)
    assert z.invariants() == AbGroupInvariants(1)
    g = FGAbelianGroup.from_invariants(AbGroupInvariants(1, (2, 4)))
    assert g.invariants() == AbGroupInvariants(1, (2, 4))
    assert len(FGAbelianGroup.cyclic(6).element_list()) == 6
    assert z4.reduce([7]) == [3]
    assert z4.is_zero_element([5 - 1])
    # groups compare by their relation lattice, not by the matrix given
    assert FGAbelianGroup(1, IntMatrix.from_rows([[4, 8]])) == z4
    assert hash(FGAbelianGroup(1, IntMatrix.from_rows([[-4, 12]]))) == hash(z4)
    assert FGAbelianGroup(1, IntMatrix.from_rows([[2, 8]])) != z4


def test_constant_module_shapes():
    A = constant_as_tabular(FGAbelianGroup.cyclic(2), Z2)
    assert validate_module(A) == []
    assert A.group(0).invariants() == AbGroupInvariants(0, (2,))
    B = constant_as_tabular(FGAbelianGroup.free(1), C23)
    assert validate_module(B) == []
    assert all(B.group(x).invariants() == AbGroupInvariants(1) for x in range(5))
    C = constant_as_tabular(FGAbelianGroup.cyclic(4), C11)
    assert validate_module(C) == []


def test_constant_module_builds_its_identity_only_when_read():
    # the universal coefficient route never reads a translation, so a
    # wide constant group costs no k x k identity there (about 70 MB at
    # k = 3000)
    tracemalloc.start()
    try:
        A = constant_module(FGAbelianGroup.free(3000), C12)
        assert cohomology_group(C12, 1, 1, A) == AbGroupInvariants(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_validate_module_catches_bad_action():
    # over Z/2 let 1_* be multiplication by 0 on Z/4: then
    # 1_* 1_* = 0 differs from 0_* = id
    g = FGAbelianGroup.cyclic(4)
    ident = IntMatrix.identity(1)
    zero = IntMatrix.from_rows([[0]])
    actions = {(x, 0): ident for x in range(2)}
    actions.update({(x, 1): zero for x in range(2)})
    bad = validate_module(HModule(Z2, [g, g], actions))
    assert any(kind == "composition" for kind, _ in bad)


def test_a_misshaped_translation_is_a_violation_not_a_crash():
    # a 2x2 matrix for 1_*: Z/4 -> Z/4 is reported as a shape violation;
    # the composition products it would enter are not formed
    g = FGAbelianGroup.cyclic(4)
    actions = {(x, y): IntMatrix.identity(1) for x in range(2) for y in range(2)}
    actions[(1, 1)] = IntMatrix.identity(2)
    A = HModule(Z2, [g, g], actions)
    assert validate_module(A) == [("shape", (1, 1))]
    with pytest.raises(ModuleError, match=re.escape("[('shape', (1, 1))]")):
        require_lawful(A, Z2)
    with pytest.raises(ModuleError, match="another monoid"):
        require_lawful(A, C11)
    require_lawful(constant_module(g, C11), Z2)


def test_the_generating_set_check_agrees_with_the_exhaustive_oracle():
    # validate_module reads the laws on a generating set, the oracle on
    # every element: they agree on lawful vs lawless on every census
    # monoid and on a shuffled labelling of every cyclic table of order
    # 2-7, with ZM, ZM mod 2 and every module of lawless_modules.  Each
    # violation found on the generating set names a pair the oracle
    # finds too
    rng = random.Random(2022)
    monoids = census() + [relabelled(make_cyclic(m, k - m), rng.sample(range(k), k))
                          for k in range(2, 8) for m in range(k)]
    cases = 0
    for M in monoids:
        for name, A in [("ZM", zm_as_hmodule(M)), ("ZM/2", zm_mod2(M))] + lawless_modules(M):
            fast, oracle = validate_module(A), exhaustive_violations(A)
            assert (fast == []) == (oracle == []) == name.startswith("ZM"), (M.table, name)
            assert {(kind, args[:2]) for kind, args in fast} <= \
                {(kind, args[:2]) for kind, args in oracle}, (M.table, name)
            cases += 1
    assert len(monoids) == 26 + 27 and cases == 228


def test_a_violation_off_the_generating_set_is_still_refused():
    # C(0,4) with g, g^2, g^3, e labelled 0, 1, 2, 3 and Z/4 everywhere,
    # g^3 acting by -1 and the other elements by 1: the first violation
    # of the exhaustive check is (g^2)_* g_* = 1 against (g^3)_* = -1 on
    # A(g), at z = g^2, outside the generating set; the check on the
    # generating set still finds one, and cohomology_group refuses the
    # module with the one-line ModuleError
    M = relabelled(make_cyclic(0, 4), [3, 0, 1, 2])
    g, g2, g3 = 0, 1, 2
    assert (M.op(g, g), M.op(g, g2)) == (g2, g3)
    A = HModule(M, [FGAbelianGroup.cyclic(4)] * 4,
                {(x, y): IntMatrix.from_rows([[-1 if y == g3 else 1]])
                 for x in range(4) for y in range(4)})
    assert exhaustive_violations(A)[0] == ("composition", (g, g, g2))
    assert g2 not in generating_set(M)
    bad = validate_module(A)
    assert bad and all(args[2] in generating_set(M) for _, args in bad)
    with pytest.raises(ModuleError, match=re.escape(
            "tabular module violates the module laws: %r" % (bad[:3],))) as info:
        cohomology_group(M, 1, 2, A)
    assert "\n" not in str(info.value)


def test_zm_as_module_is_functorial():
    for M in [Z2, C11, C12]:
        assert validate_module(zm_as_hmodule(M)) == []


def test_cochain_group_examples():
    e_cell = BarWord((), (), 1)
    basis = FreeBasis([e_cell], {e_cell: Z2.identity})
    A = constant_module(FGAbelianGroup.free(1), Z2)
    cg = CochainGroup(basis, A)
    assert cg.total == 1 and cg.invariants() == AbGroupInvariants(1)

    cells = [BarWord((1,) * k, (1,) * (k - 1), 1) for k in (1, 2, 3)]
    basis3 = FreeBasis(cells, {c: c.pi(Z2) for c in cells})
    cg3 = CochainGroup(basis3, constant_module(FGAbelianGroup.cyclic(2), Z2))
    assert cg3.invariants() == AbGroupInvariants(0, (2, 2, 2))

    v1 = BarWord((2,), (), 1)
    basis1 = FreeBasis([v1], {v1: 2})  # pi = m over C_{2,3}
    cg1 = CochainGroup(basis1, constant_module(FGAbelianGroup.cyclic(6), C23))
    assert cg1.invariants() == AbGroupInvariants(0, (6,))


def _one_gen_bases(M, pis):
    cells = [BarWord((i + 1,), (), 1) for i in range(len(pis))]
    # letters are only labels here; pin the projections explicitly
    return FreeBasis(cells, dict(zip(cells, pis))), cells


def assert_sparse_rows(mat):
    # the row dicts store no zeros and agree with the dense view
    rows = mat.row_dicts()
    assert all(0 not in r.values() for r in rows)
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in mat.data]


def test_dualize_examples():
    A = constant_module(FGAbelianGroup.free(1), Z2)
    src, (s,) = _one_gen_bases(Z2, [0])
    tgt, (t,) = _one_gen_bases(Z2, [0])
    zero = dualize({t: {}}, src, tgt, A, Z2)
    assert zero == IntMatrix.from_rows([[0]])
    assert_sparse_rows(zero)
    two = dualize({t: {(0, s): 2}}, src, tgt, A, Z2)
    assert two == IntMatrix.from_rows([[2]])
    assert_sparse_rows(two)
    # (1,s) - (e,s) with constant coefficients: identity actions cancel.
    # Both terms must sit over the same fiber, which forces 1*pi(s) =
    # pi(s); that holds in the idempotent monoid C_{1,1}.
    srcI, (sI,) = _one_gen_bases(C11, [1])
    tgtI, (tI,) = _one_gen_bases(C11, [1])
    diff = dualize({tI: {(1, sI): 1, (0, sI): -1}}, srcI, tgtI,
                   constant_module(FGAbelianGroup.cyclic(2), C11), C11)
    assert diff == IntMatrix.from_rows([[0]])
    assert_sparse_rows(diff)


def test_dualize_pi_mismatch():
    A = constant_module(FGAbelianGroup.free(1), Z2)
    src, (s,) = _one_gen_bases(Z2, [1])
    tgt, (t,) = _one_gen_bases(Z2, [0])
    with pytest.raises(PiMismatchError):
        dualize({t: {(0, s): 1}}, src, tgt, A, Z2)


def _apply_map(M, d, chain):
    out = {}
    for (u, g), c in chain.items():
        for (v, g2), cc in d[g].items():
            key = (M.op(u, v), g2)
            out[key] = out.get(key, 0) + c * cc
    return {k: v for k, v in out.items() if v}


def test_dualize_functorial_on_random_composites():
    # dualize(d o d') == dualize(d') . dualize(d)
    random.seed(11)
    M = C12
    A = zm_as_hmodule(M)  # a genuinely non-constant module
    for _ in range(20):
        sizes = [random.randint(1, 2) for _ in range(3)]
        bases = []
        labels = 0
        for k, sz in enumerate(sizes):
            cells = []
            pis = {}
            for i in range(sz):
                cell = BarWord((1,), (), k + 1)
                cell = BarWord((1,) * (labels + 1), (1,) * labels, 1)
                labels += 1
                cells.append(cell)
                pis[cell] = random.choice(list(M.elements()))
            bases.append(FreeBasis(cells, pis))
        b0, b1, b2 = bases
        d1 = {}
        for t in b1.generators:
            chain = {}
            for s in b0.generators:
                u = random.choice(list(M.elements()))
                coeff = random.randint(-2, 2)
                if coeff and M.op(u, b0.pi[s]) == b1.pi[t]:
                    chain[(u, s)] = coeff
            d1[t] = chain
        d2 = {}
        for t in b2.generators:
            chain = {}
            for s in b1.generators:
                u = random.choice(list(M.elements()))
                coeff = random.randint(-2, 2)
                if coeff and M.op(u, b1.pi[s]) == b2.pi[t]:
                    chain[(u, s)] = coeff
            d2[t] = chain
        composite = {t: _apply_map(M, d1, d2[t]) for t in b2.generators}
        lhs = dualize(composite, b0, b2, A, M)
        rhs = dualize(d2, b1, b2, A, M).mul(dualize(d1, b0, b1, A, M))
        assert lhs == rhs
        assert_sparse_rows(lhs)


def test_module_descriptors():
    A = module_from_descriptor(
        {"kind": "constant", "group": {"free_rank": 0, "torsion": [4]}}, Z2)
    assert A.group(0).invariants() == AbGroupInvariants(0, (4,))
    tab = {
        "kind": "tabular",
        "groups": {"0": {"free_rank": 0, "torsion": [2]},
                   "1": {"free_rank": 0, "torsion": [2]}},
        "actions": {"0,0": [[1]], "0,1": [[1]], "1,0": [[1]], "1,1": [[1]]},
    }
    B = module_from_descriptor(tab, Z2)
    assert validate_module(B) == []
    with pytest.raises(ModuleError):
        module_from_descriptor({"kind": "tabular", "groups": {}, "actions": {}}, Z2)


def test_group_shorthand():
    assert parse_group_shorthand("Z").invariants() == AbGroupInvariants(1)
    assert parse_group_shorthand("Z/6").invariants() == AbGroupInvariants(0, (6,))
    assert parse_group_shorthand("Z^2+Z/2+Z/4").invariants() == \
        AbGroupInvariants(2, (2, 4))
    with pytest.raises(ModuleError):
        parse_group_shorthand("GL2")
