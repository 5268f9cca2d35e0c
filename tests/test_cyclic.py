import pytest

from monoid_cohomology.bar import (BarWord, bar, bar_word_shuffle,
                                   validate_dga)
from monoid_cohomology.cohomology import CochainComplex, cochain_complex
from monoid_cohomology.cyclic import (ContractionReport, CyclicContraction,
                                      _letter_words, _verify, bullet,
                                      closed_form_top, gf_closed_form,
                                      infinite_cyclic_groups,
                                      leech_groups_cyclic,
                                      level2_groups_cyclic, level3_top,
                                      small_resolution, small_resolution_inf,
                                      torsion_subgroup_invariants,
                                      verify_contraction,
                                      verify_contraction_inf)
from monoid_cohomology.hmod import FGAbelianGroup, constant_module
from monoid_cohomology.monoid import MonoidError, cyclic_s, make_cyclic
from monoid_cohomology.zlinalg import AbGroupInvariants

from helpers import SampledModule

Z = FGAbelianGroup.free(1)


def zmod(n):
    return FGAbelianGroup.cyclic(n)


def w1(letters):
    return BarWord(tuple(letters), (1,) * (len(letters) - 1), 1)


def test_resolution_differential_examples():
    R = small_resolution(1, 1, 4)
    assert R.differential(("v", 1)) == {(1, ("w", 0)): 2, (0, ("w", 0)): -1}
    R = small_resolution(0, 2, 4)
    assert R.differential(("v", 1)) == {(1, ("w", 0)): 2}
    assert R.product_fn(("v", 1), ("v", 1)) == {(0, ("v", 2)): 2}
    assert R.product_fn(("w", 0), ("w", 0)) == {}
    assert R.product_fn(("v", 1), ("w", 0)) == {(0, ("w", 1)): 1}
    with pytest.raises(MonoidError):
        small_resolution(0, 1, 3)


def test_resolutions_are_dgas():
    for m, q in [(1, 1), (0, 2), (1, 2), (2, 3), (0, 4), (3, 2)]:
        R = small_resolution(m, q, 6)
        assert validate_dga(R, product_degree_cap=6, triple_degree_cap=6) == []
    assert validate_dga(small_resolution_inf(6)) == []


def test_bullet_product():
    C = make_cyclic(1, 2)
    a = {(0, ("v", 1)): 1}
    b = {(1, ("w", 0)): 3}
    assert bullet(C, a, b) == {(1, ("w", 1)): 3}
    assert bullet(C, b, b) == {}


def test_f_map_examples():
    con = CyclicContraction(1, 2)
    assert con.f_word(()) == {(0, ("v", 0)): 1}
    assert con.f_word((1, 1)) == {}              # 1 + 1 < m + q
    assert con.f_word((2, 2)) == {(1, ("v", 1)): 1}
    assert con.f_word((2,)) == {(1, ("w", 0)): 2}


def test_g_map_examples():
    con = CyclicContraction(0, 2)
    assert con.g_gen(("v", 0)) == {(0, BarWord((), (), 1)): 1}
    assert con.g_gen(("v", 1)) == {(0, w1((1, 1))): 1}
    assert con.g_gen(("w", 0)) == {(0, w1((1,))): 1}


def test_phi_examples():
    con = CyclicContraction(1, 1)
    assert con.phi_word((1,)) == {}  # the only term has a unit letter
    con = CyclicContraction(0, 3)
    # Phi[2] = sum_{t<2} (2-t-1)_* [1|t], t = 0 dropped
    assert con.phi_word((2,)) == {(0, w1((1, 1))): 1}


def test_fg_identity_on_v0():
    for m, q in [(1, 1), (0, 2), (2, 3)]:
        con = CyclicContraction(m, q)
        assert con.f_chain(con.g_gen(("v", 0))) == {(0, ("v", 0)): 1}


def test_contraction_small_grid():
    for m, q in [(1, 1), (0, 2), (1, 2)]:
        report = verify_contraction(m, q, 4)
        assert report.all_pass(), (m, q, report.failures())


def test_contraction_infinite():
    report = verify_contraction_inf(4, 5)
    assert report.all_pass(), report.failures()


def test_closed_gf_formula_oracle():
    # the fully expanded closed formula for g.f on 2-cells, for every
    # index >= 1; with the normalization reading it matches at index 0
    # as well
    for m, q in [(1, 1), (1, 2), (2, 3), (2, 1), (3, 2), (0, 2), (0, 4)]:
        con = CyclicContraction(m, q)
        for x in range(1, m + q):
            for y in range(1, m + q):
                if cyclic_s(m, q, x, y) >= 1:
                    assert con.gf_word((x, y)) == gf_closed_form(m, q, x, y)


def test_bar_resolution_cells_and_differentials():
    # B(R)_4, B(R)_5 and their differentials, written out by hand
    for m, q in [(1, 1), (0, 2), (1, 2), (2, 3)]:
        R = small_resolution(m, q, 6)
        B = bar(R, 6)
        mq1 = m + q - 1
        assert B.basis[2] == ((("w", 0),),)
        assert B.basis[3] == ((("v", 1),),)
        assert set(B.basis[4]) == {(("w", 1),), (("w", 0), ("w", 0))}
        assert set(B.basis[5]) == {(("v", 2),), (("w", 0), ("v", 1)),
                                   (("v", 1), ("w", 0))}
        # d[w0|w0] = w0 . w0 = 0
        assert B.differential((("w", 0), ("w", 0))) == {}
        # d[w0|v1] = w1 - (m+q)((m+q-1)_* [w0|w0]) + m((m-1)_* [w0|w0])
        expected = {(0, (("w", 1),)): 1,
                    (mq1, (("w", 0), ("w", 0))): -(m + q)}
        if m >= 1:
            key = (m - 1, (("w", 0), ("w", 0)))
            expected[key] = expected.get(key, 0) + m
        expected = {k: v for k, v in expected.items() if v}
        assert B.differential((("w", 0), ("v", 1))) == expected
        # d[v1|w0] = -w1 - (m+q)(...) + m(...)
        expected = {(0, (("w", 1),)): -1,
                    (mq1, (("w", 0), ("w", 0))): -(m + q)}
        if m >= 1:
            key = (m - 1, (("w", 0), ("w", 0)))
            expected[key] = expected.get(key, 0) + m
        expected = {k: v for k, v in expected.items() if v}
        assert B.differential((("v", 1), ("w", 0))) == expected


def test_square_bar_resolution_top_cell():
    # the 6-cell [w0 |^2 w0] of B^2(R): its boundary is
    # -([w0] o [w0]) = -2 [w0|w0], forced by the shuffle sign rule
    # (the same -2 that the xi component and the infinite cyclic case
    # carry)
    for m, q in [(0, 2), (1, 1), (0, 3)]:
        R = small_resolution(m, q, 6)
        B = bar(R, 6)
        B2 = bar(B, 6)
        top = ((("w", 0),), (("w", 0),))
        assert top in B2.basis[6]
        inner = B.product_fn((("w", 0),), (("w", 0),))
        assert inner == {(0, (("w", 0), ("w", 0))): 2}
        assert B2.differential(top) == {(0, ((("w", 0), ("w", 0)),)): -2}


def test_square_bar_resolution_infinite():
    # for the infinite cyclic monoid: d[v1 || v1] = -2 v2
    R = small_resolution_inf(6)
    B = bar(R, 6)
    # B(R)_{2k} is spanned by the k-letter word in w0
    assert B.basis[2] == ((("w", 0),),)
    assert B.basis[4] == ((("w", 0), ("w", 0)),)
    v1 = (("w", 0),)
    v2 = (("w", 0), ("w", 0))
    assert B.product_fn(v1, v1) == {(0, v2): 2}
    B2 = bar(B, 6)
    top = (v1, v1)
    assert B2.differential(top) == {(0, (v2,)): -2}


def test_leech_worked_examples():
    C = make_cyclic(0, 2)
    odd, even = leech_groups_cyclic(0, 2, 0, constant_module(Z, C))
    assert odd.is_trivial() and even == AbGroupInvariants(0, (2,))
    odd, even = leech_groups_cyclic(0, 2, 2, constant_module(zmod(2), C))
    assert odd == AbGroupInvariants(0, (2,)) and even == AbGroupInvariants(0, (2,))
    C = make_cyclic(1, 2)
    odd, even = leech_groups_cyclic(1, 2, 0, constant_module(Z, C))
    assert odd.is_trivial() and even == AbGroupInvariants(0, (2,))


def test_leech_agrees_with_level1_pipeline():
    for m, q in [(0, 2), (1, 1), (1, 2)]:
        C = make_cyclic(m, q)
        for G in (Z, zmod(2), zmod(4), zmod(6)):
            A = constant_module(G, C)
            for k in (0, 1):
                cx = cochain_complex(C, 1, A, 2 * k + 3)
                odd, even = leech_groups_cyclic(m, q, k, A)
                assert odd == cx.cohomology(2 * k + 1)
                assert even == cx.cohomology(2 * k + 2)
    # one larger monoid, low degrees
    C = make_cyclic(2, 3)
    for G in (Z, zmod(6)):
        A = constant_module(G, C)
        cx = cochain_complex(C, 1, A, 3)
        odd, even = leech_groups_cyclic(2, 3, 0, A)
        assert odd == cx.cohomology(1)
        assert even == cx.cohomology(2)


def test_level2_worked_examples():
    C = make_cyclic(1, 2)
    h2, h3, h4 = level2_groups_cyclic(1, 2, constant_module(zmod(4), C))
    assert h4 == AbGroupInvariants(0, (4,))
    C = make_cyclic(0, 2)
    h2, h3, _ = level2_groups_cyclic(0, 2, constant_module(zmod(2), C))
    assert h2 == AbGroupInvariants(0, (2,))
    assert h3 == AbGroupInvariants(0, (2,))
    C = make_cyclic(2, 3)
    h2, h3, _ = level2_groups_cyclic(2, 3, constant_module(zmod(6), C))
    assert h2 == AbGroupInvariants(0, (3,))
    assert h3 == AbGroupInvariants(0, (3,))


def test_closed_form_top_examples():
    assert closed_form_top(3, zmod(9)) == AbGroupInvariants(0, (3,))
    assert closed_form_top(2, zmod(4)) == AbGroupInvariants(0, (4,))
    assert closed_form_top(2, Z) == AbGroupInvariants(0)
    assert closed_form_top(1, zmod(8)).is_trivial()


def test_small_complexes_match_generic_pipeline():
    for m, q in [(0, 2), (1, 1), (1, 2)]:
        C = make_cyclic(m, q)
        for G in (Z, zmod(2), zmod(4), zmod(6)):
            A = constant_module(G, C)
            cx = cochain_complex(C, 2, A, 5)
            h2, h3, h4 = level2_groups_cyclic(m, q, A)
            assert h2 == cx.cohomology(2)
            assert h3 == cx.cohomology(3)
            assert h4 == cx.cohomology(4)
            assert level3_top(m, q, A) == cochain_complex(C, 3, A, 6).cohomology(5)


def test_hombc_full_agreement_low_degrees():
    # Hom(B(R), A) computes the level-2 groups in every degree <= 4 and
    # Hom(B^2(R), A) the level-3 ones in every degree <= 5
    for m, q in [(0, 2), (1, 2)]:
        C = make_cyclic(m, q)
        R = small_resolution(m, q, 6)
        for G in (zmod(4), zmod(6)):
            A = constant_module(G, C)
            B = bar(R, 5)
            cx = CochainComplex(B, A, 5)
            generic = cochain_complex(C, 2, A, 5)
            for n in range(5):
                assert cx.cohomology(n) == generic.cohomology(n)
            B2 = bar(bar(R, 6), 6)
            cx2 = CochainComplex(B2, A, 6)
            generic = cochain_complex(C, 3, A, 6)
            for n in range(6):
                assert cx2.cohomology(n) == generic.cohomology(n)


def test_infinite_cyclic_closed_forms():
    samples = {0: Z, 1: Z, 2: zmod(4)}
    assert infinite_cyclic_groups(2, 0, samples) == AbGroupInvariants(1)
    assert infinite_cyclic_groups(2, 4, samples) == AbGroupInvariants(0, (4,))
    assert infinite_cyclic_groups(2, 3, samples).is_trivial()
    assert infinite_cyclic_groups(3, 5, {2: zmod(4)}) == AbGroupInvariants(0, (2,))
    assert infinite_cyclic_groups(3, 5, {2: zmod(2)}) == AbGroupInvariants(0, (2,))
    assert infinite_cyclic_groups(3, 5, {2: zmod(3)}).is_trivial()
    assert infinite_cyclic_groups(3, 5, {2: Z}).is_trivial()
    assert infinite_cyclic_groups(1, 1, {1: zmod(6)}) == AbGroupInvariants(0, (6,))
    with pytest.raises(MonoidError):
        infinite_cyclic_groups(2, 4, {0: Z})


def test_infinite_generic_pipeline_matches():
    for G in (Z, zmod(2), zmod(4), zmod(3)):
        A = constant_module(G)
        B = bar(small_resolution_inf(5), 5)
        cx = CochainComplex(B, A, 5)
        for k in (0, 1, 2):
            assert cx.cohomology(2 * k) == G.invariants()
        for n in (1, 3):
            assert cx.cohomology(n).is_trivial()
        B2 = bar(bar(small_resolution_inf(6), 6), 6)
        cx2 = CochainComplex(B2, A, 6)
        assert cx2.cohomology(5) == torsion_subgroup_invariants(G, 2)
        assert cx2.cohomology(4).is_trivial()
        assert cx2.cohomology(3) == G.invariants()


def test_contraction_maps_on_chains():
    cell = BarWord((2, 2), (1,), 1)
    assert CyclicContraction(1, 2).f_chain({(0, cell): 1}) == {(1, ("v", 1)): 1}
    assert CyclicContraction(0, 2).g_gen(("w", 0)) == {(0, BarWord((1,), (), 1)): 1}
    assert CyclicContraction(1, 1).phi_word((1,)) == {}
    # translates and coefficients carry through the linear extension
    assert CyclicContraction(1, 2).f_chain({(1, cell): 2, (0, w1((2,))): 1}) == {
        (2, ("v", 1)): 2, (1, ("w", 0)): 2}
    assert CyclicContraction(0, 2).g_chain({(1, ("w", 0)): 3, (0, ("v", 1)): 1}) == {
        (1, w1((1,))): 3, (0, w1((1, 1))): 1}
    assert CyclicContraction(0, 3).phi_chain({(1, w1((2,))): 2}) == {
        (1, w1((1, 1))): 2}


def _run_verify(con, degmax):
    # what verify_contraction does, on a given contraction instance
    m, q = con.m, con.q
    report = ContractionReport({"index": m, "period": q, "max_degree": degmax})
    words = _letter_words(m + q - 1, degmax)
    return _verify(con, small_resolution(m, q, degmax + 1), words, degmax, report)


def test_memoized_contraction_reports_a_wrong_homotopy_cell():
    bad = w1((1, 2))

    class WrongPhi(CyclicContraction):
        def phi_word(self, letters):
            out = super().phi_word(letters)
            if tuple(letters) == bad.letters:
                out = dict(out)
                out[(0, w1((1, 1, 2)))] = 1
            return out

    report = _run_verify(WrongPhi(1, 2), 3)
    failures = report.failures()
    assert bad in failures["d.Phi + Phi.d = g.f - id"], failures
    assert "f is multiplicative" not in failures


def test_verifying_twice_on_one_instance_gives_the_same_report():
    # a caller that mutated a cached chain would change the second run
    for m, q in ((1, 2), (0, 3), (2, 2)):
        con = CyclicContraction(m, q)
        first = _run_verify(con, 3).to_json()
        assert _run_verify(con, 3).to_json() == first
        assert first == verify_contraction(m, q, 3).to_json()


def test_each_differential_is_taken_once_per_verification(monkeypatch):
    # the identities meet the same cells again and again; one _verify
    # call takes each cell's differential once, the next call afresh, and
    # a wrong differential still shows in both identities that read it
    from monoid_cohomology import cyclic
    real = cyclic.bar_word_diff
    calls = []
    bad = w1((1, 2))

    def counting(M, w):
        calls.append(w)
        return real(M, w)
    monkeypatch.setattr(cyclic, "bar_word_diff", counting)
    first = verify_contraction(1, 2, 3).to_json()
    assert calls and len(calls) == len(set(calls))
    per_call = len(calls)
    assert verify_contraction(1, 2, 3).to_json() == first
    assert len(calls) == 2 * per_call

    def wrong(M, w):
        out = real(M, w)
        if w == bad:
            out = dict(out)
            out[(0, w1((2,)))] = out.get((0, w1((2,))), 0) + 1
        return out
    monkeypatch.setattr(cyclic, "bar_word_diff", wrong)
    failures = verify_contraction(1, 2, 3).failures()
    assert bad in failures["f is a chain map"], failures
    assert bad in failures["d.Phi + Phi.d = g.f - id"], failures


def test_small_complexes_match_generic_with_tabular_module():
    # a genuinely non-constant module (the monoid algebra itself):
    # both routes go through real translation matrices
    from monoid_cohomology.hmod import zm_as_hmodule
    for m, q in ((0, 2), (1, 2)):
        C = make_cyclic(m, q)
        A = zm_as_hmodule(C)
        cx = CochainComplex(bar(small_resolution(m, q, 5), 5), A, 5)
        generic = cochain_complex(C, 2, A, 5)
        for n in range(5):
            assert cx.cohomology(n) == generic.cohomology(n)


def test_bullet_is_exempt_from_leibniz():
    # the pointwise product drops the binomial coefficients, so it
    # cannot be compatible with the differential; the graded product is
    R = small_resolution(1, 1, 6)
    C = R.monoid
    v1 = {(0, ("v", 1)): 1}
    lhs = R.diff_chain(bullet(C, v1, v1))
    rhs = {}
    for part in (bullet(C, R.differential(("v", 1)), v1),
                 bullet(C, v1, R.differential(("v", 1)))):
        for k, c in part.items():
            rhs[k] = rhs.get(k, 0) + c
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs != rhs
    circ = R.diff_chain(R.product_fn(("v", 1), ("v", 1)))
    assert circ == rhs


def test_sampled_coefficients_over_infinite_cyclic():
    # genuinely non-constant coefficients: a different group at each
    # required sample point
    from monoid_cohomology.hmod import ModuleError
    samples = {0: zmod(6), 1: Z, 2: zmod(4)}
    B = bar(small_resolution_inf(5), 5)
    cx = CochainComplex(B, SampledModule(samples), 5)
    for k, expect in ((0, zmod(6)), (1, Z), (2, zmod(4))):
        assert cx.cohomology(2 * k) == expect.invariants()
    assert cx.cohomology(1).is_trivial()
    assert cx.cohomology(3).is_trivial()
    B2 = bar(bar(small_resolution_inf(6), 6), 6)
    cx2 = CochainComplex(B2, SampledModule({0: Z, 1: Z, 2: zmod(4)}), 6)
    assert cx2.cohomology(5) == AbGroupInvariants(0, (2,))
    with pytest.raises(ModuleError):
        CochainComplex(B, SampledModule({0: Z}), 5)
