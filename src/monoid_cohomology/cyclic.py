"""The explicit contraction between the bar resolution of a cyclic
monoid and its small resolution, and closed-form cohomology groups.

The small resolutions R themselves (bar.small_resolution and
bar.small_resolution_inf) live in bar, below cohomology, which answers
cyclic tables through R.  The chain maps f: B(ZC) -> R and
g: R -> B(ZC) and the homotopy Phi are the explicit recursive ones;
verify_contraction checks every contraction identity on all basis cells
up to a degree bound.  The small-model groups below are calls of
cohomology_group on C_{m,q}, which reads R and refuses what it refuses;
the closed forms (closed_form_top, infinite_cyclic_groups) are the
paper's formulas, kept as oracles.
"""

from .bar import (BarWord, _refuse_above, bar_word_diff, bar_word_shuffle,
                  chain_add_term, chain_sum, extend_bilinear, extend_linear,
                  refuse_above_max_cells, small_resolution, small_resolution_inf)
from .cohomology import cohomology_group
from .monoid import INFINITE_CYCLIC, MonoidError, cyclic_s, make_cyclic
from .zlinalg import AbGroupInvariants, gcd


def bullet(C, a, b):
    """The auxiliary pointwise product on chains of the small
    resolution: v_k . v_l = v_{k+l}, v_k . w_l = w_{k+l}, w . w = 0.
    It deliberately ignores the binomial coefficients and does not
    respect the differential."""
    out = {}
    for (u, (ta, ka)), ca in a.items():
        for (v, (tb, kb)), cb in b.items():
            if ta == "w" and tb == "w":
                continue
            kind = "w" if "w" in (ta, tb) else "v"
            chain_add_term(out, (C.op(u, v), (kind, ka + kb)), ca * cb)
    return out


def _word(letters):
    return BarWord(tuple(letters), (1,) * max(0, len(letters) - 1), 1)


class CyclicContraction:
    """The maps f, g, Phi between B(ZC) and the small resolution for a
    finite or infinite cyclic monoid.  f and Phi are memoized per letters
    tuple and g per generator, on the instance: the recursions reach the
    same tails again and again, and the memo lives as long as the
    instance (one verification), never across queries.  The returned
    chains are the cached ones, so callers must not mutate them."""

    def __init__(self, m=None, q=None, infinite=False):
        self.infinite = infinite
        if infinite:
            self.M = INFINITE_CYCLIC
            self.m = self.q = None
        else:
            self.M = make_cyclic(m, q)
            self.m = m
            self.q = q
        self._f_cache = {}
        self._g_cache = {}
        self._phi_cache = {}

    # -- f ------------------------------------------------------------------

    def f_word(self, letters):
        """f of the bar cell with the given letters, as a chain over the
        resolution generators."""
        letters = tuple(letters)
        out = self._f_cache.get(letters)
        if out is None:
            out = self._f_cache[letters] = self._f_uncached(letters)
        return out

    def _f_uncached(self, letters):
        M = self.M
        if any(x == M.identity for x in letters):
            return {}
        n = len(letters)
        if n == 0:
            return {(M.identity, ("v", 0)): 1}
        if n == 1:
            x = letters[0]
            return {(x - 1, ("w", 0)): x}
        if n == 2:
            if self.infinite:
                return {}
            m, q = self.m, self.q
            x, y = letters
            s = cyclic_s(m, q, x, y)
            if s == 0:
                return {}
            base = M.op(x, y) - m
            out = {}
            for i in range(s):
                chain_add_term(out, (M.op(base, i * q), ("v", 1)), 1)
            return out
        if self.infinite:
            return {}
        head = self.f_word(letters[:2])
        tail = self.f_word(letters[2:])
        return bullet(self.M, head, tail)

    def f_chain(self, chain):
        return extend_linear(self.M, lambda w: self.f_word(w.letters), chain)

    # -- g ------------------------------------------------------------------

    def g_gen(self, gen):
        """g of a resolution generator, as a chain of bar cells."""
        if gen in self._g_cache:
            return self._g_cache[gen]
        M = self.M
        kind, k = gen
        if gen == ("v", 0):
            out = {(M.identity, _word(())): 1}
        elif kind == "w":
            out = {}
            for (u, w), c in self.g_gen(("v", k)).items():
                chain_add_term(out, (u, _word(w.letters + (1,))), c)
        elif self.infinite:
            raise ValueError("the infinite resolution stops at w_0")
        else:
            m, q = self.m, self.q
            out = {}
            gw = self.g_gen(("w", k - 1))
            for t in range(m + q):
                if t == 0:
                    continue  # the appended unit letter kills the cell
                u1 = m + q - t - 1
                for (u, w), c in gw.items():
                    chain_add_term(out, (M.op(u1, u), _word(w.letters + (t,))), c)
            for t in range(m):
                if t == 0:
                    continue
                u1 = m - t - 1
                for (u, w), c in gw.items():
                    chain_add_term(out, (M.op(u1, u), _word(w.letters + (t,))), -c)
        self._g_cache[gen] = out
        return out

    def g_chain(self, chain):
        return extend_linear(self.M, self.g_gen, chain)

    def gf_word(self, letters):
        return self.g_chain(self.f_word(letters))

    # -- Phi ----------------------------------------------------------------

    def phi_word(self, letters):
        """The contracting homotopy on one bar cell."""
        letters = tuple(letters)
        out = self._phi_cache.get(letters)
        if out is None:
            out = self._phi_cache[letters] = self._phi_uncached(letters)
        return out

    def _phi_uncached(self, letters):
        M = self.M
        if any(x == M.identity for x in letters):
            return {}
        n = len(letters)
        if n == 0:
            return {}
        if n == 1:
            x = letters[0]
            out = {}
            for t in range(1, x):  # t = 0 gives a unit letter
                chain_add_term(out, (x - t - 1, _word((1, t))), 1)
            return out
        out = {}
        for (u, w), c in self.phi_word(letters[:1]).items():
            chain_add_term(out, (u, _word(w.letters + letters[1:])), c)
        rest = self.phi_word(letters[2:])
        if rest:
            for (u, w), c in self.gf_word(letters[:2]).items():
                for (v, w2), cc in rest.items():
                    chain_add_term(out, (M.op(u, v), _word(w.letters + w2.letters)),
                                   c * cc)
        return out

    def phi_chain(self, chain):
        return extend_linear(self.M, lambda w: self.phi_word(w.letters), chain)


def gf_closed_form(m, q, x, y):
    """Fully expanded closed formula for g(f[x|y]) when s(x, y) >= 1,
    with no retraction left in any translate; an oracle for the
    compositional route."""
    M = make_cyclic(m, q)
    s = cyclic_s(m, q, x, y)
    if s < 1:
        raise ValueError("gf_closed_form needs s(x, y) >= 1, got %d" % s)
    r = (x + y - m) % q
    if x + y != m + s * q + r:
        raise ArithmeticError("x + y != m + s*q + r for x=%d, y=%d" % (x, y))
    out = {}

    def add(u, a, b, c=1):
        if a == 0 or b == 0:
            return
        chain_add_term(out, (u, _word((a, b))), c)

    for t in range(x + y - m - q, m + q):
        add(x + y - t - 1, 1, t)
    for t in range(r):
        add(m + r - t - 1, 1, t)
    for t in range(m):
        add(m + r - t - 1, 1, t, -1)
    for i in range(1, s):
        for t in range((i - 1) * q + r, i * q + r):
            add(m + i * q + r - t - 1, 1, t)
    for i in range(1, s):
        for t in range(m, m + q):
            add(m + i * q + r - t - 1, 1, t)
    return out


# -- contraction verification -------------------------------------------------

class ContractionReport:
    """Per-identity pass/fail with witnesses."""

    __slots__ = ("params", "results")

    def __init__(self, params):
        self.params = params
        self.results = {}

    def record(self, name, witnesses):
        self.results[name] = (not witnesses, witnesses)

    def all_pass(self):
        return all(ok for ok, _ in self.results.values())

    def failures(self):
        return {name: wit for name, (ok, wit) in self.results.items() if not ok}

    def to_json(self):
        return {name: {"pass": ok, "witnesses": [repr(w) for w in wit[:3]]}
                for name, (ok, wit) in sorted(self.results.items())}

    def __repr__(self):
        return "ContractionReport(%s, %s)" % (
            self.params, "PASS" if self.all_pass() else sorted(self.failures()))


def _resolution_gens(R, degmax):
    return [g for d in sorted(R.basis) if d <= degmax for g in R.basis[d]]


def _verify(con, R, words_by_degree, degmax, report):
    if degmax < 0:
        raise ValueError("max degree must be >= 0, got %d" % degmax)
    M = con.M
    e = M.identity

    # these go through the module globals at each call, so a wrapper put
    # on bar_word_diff or bar_word_shuffle (a profiler, say) sees them.
    # A cell's differential is taken once per call: the identities below
    # meet the same cells again and again.  The memo dies with the call,
    # and its chains are only read.
    diffs = {}

    def bar_diff(w):
        out = diffs.get(w)
        if out is None:
            out = diffs[w] = bar_word_diff(M, w)
        return out

    def bar_shuffle(a, b):
        return bar_word_shuffle(M, a, b)

    gens = _resolution_gens(R, degmax)
    degrees = sorted(words_by_degree)
    all_words = [w for d in degrees for w in words_by_degree[d]]

    wit = []
    for gen in gens:
        if con.f_chain(con.g_gen(gen)) != {(e, gen): 1}:
            wit.append(gen)
    report.record("f.g = id", wit)

    wit = []
    for w in all_words:
        lhs = con.f_chain(bar_diff(w))
        rhs = R.diff_chain(con.f_word(w.letters))
        if lhs != rhs:
            wit.append(w)
    report.record("f is a chain map", wit)

    wit = []
    for gen in gens:
        lhs = con.g_chain(R.differential(gen))
        rhs = extend_linear(M, bar_diff, con.g_gen(gen))
        if lhs != rhs:
            wit.append(gen)
    report.record("g is a chain map", wit)

    wit = []
    if con.f_word(()) != {(e, ("v", 0)): 1}:
        wit.append("f[] != v0")
    if con.g_gen(("v", 0)) != {(e, _word(())): 1}:
        wit.append("g v0 != []")
    report.record("units", wit)

    # b ranges over the buckets that fit next to a, in the order of
    # all_words, so the pairs and witnesses come out as over all pairs
    wit = []
    for a in all_words:
        room = degmax - a.degree
        for d in degrees:
            if d > room:
                break
            for b in words_by_degree[d]:
                lhs = con.f_chain(bar_word_shuffle(M, a, b))
                rhs = R.product(con.f_word(a.letters), con.f_word(b.letters))
                if lhs != rhs:
                    wit.append((a, b))
    report.record("f is multiplicative", wit)

    wit = []
    for a in gens:
        for b in gens:
            if R.degree_of[a] + R.degree_of[b] > degmax:
                continue
            lhs = con.g_chain(R.product_fn(a, b))
            rhs = extend_bilinear(M, bar_shuffle, con.g_gen(a), con.g_gen(b))
            if lhs != rhs:
                wit.append((a, b))
    report.record("g is multiplicative", wit)

    wit = []
    for w in all_words:
        lhs = chain_sum(extend_linear(M, bar_diff, con.phi_word(w.letters)),
                        con.phi_chain(bar_diff(w)))
        rhs = dict(con.gf_word(w.letters))
        chain_add_term(rhs, (e, w), -1)
        if lhs != rhs:
            wit.append(w)
    report.record("d.Phi + Phi.d = g.f - id", wit)

    wit = []
    for gen in gens:
        if con.phi_chain(con.g_gen(gen)) != {}:
            wit.append(gen)
    report.record("Phi.g = 0", wit)

    wit = []
    for w in all_words:
        if con.f_chain(con.phi_word(w.letters)) != {}:
            wit.append(w)
    report.record("f.Phi = 0", wit)

    wit = []
    for w in all_words:
        if con.phi_chain(con.phi_word(w.letters)) != {}:
            wit.append(w)
    report.record("Phi.Phi = 0", wit)
    return report


# The multiplicativity identity shuffles every pair of words that fit
# together, C(i + j, i) terms for words of i and j letters, so over k
# letters total degree s forms k^s (2^s - 2) terms.  Over one letter the
# words are few but the terms are not: degree 16 forms 131,038 of them.
# Above this many the verification is refused before any word is built.
MAX_SHUFFLE_TERMS = 1 << 17


def _letter_words(letters, degmax):
    """The words over letters by degree, 1..degmax; refused from counts
    when the bar holds more than MAX_CELLS cells or the multiplicativity
    check would form more than MAX_SHUFFLE_TERMS shuffle terms."""
    k = len(letters)
    refuse_above_max_cells((k ** n for n in range(1, degmax + 1)),
                           "the bar to degree %d" % degmax)
    _refuse_above((k ** s * (2 ** s - 2) for s in range(2, degmax + 1)), MAX_SHUFFLE_TERMS,
                  "the multiplicativity check to degree %d forms more than %d shuffle "
                  "terms" % (degmax, MAX_SHUFFLE_TERMS))
    by_degree = {}
    pool = [()]
    for n in range(1, degmax + 1):
        pool = [w + (x,) for w in pool for x in letters]
        by_degree[n] = [_word(w) for w in pool]
    return by_degree


def verify_contraction(m, q, degmax):
    """Check every contraction identity for C_{m,q} on all bar cells up
    to the given degree.  Failures land in the report, not exceptions."""
    words = _letter_words([x for x in range(m + q) if x != 0], degmax)
    con = CyclicContraction(m, q)
    R = small_resolution(m, q, degmax + 1)
    report = ContractionReport({"index": m, "period": q, "max_degree": degmax})
    return _verify(con, R, words, degmax, report)


def verify_contraction_inf(degmax, entry_bound):
    """Same for the infinite cyclic monoid, with cell entries bounded."""
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1, got %d" % entry_bound)
    words = _letter_words(list(range(1, entry_bound + 1)), degmax)
    con = CyclicContraction(infinite=True)
    R = small_resolution_inf(degmax + 1)
    report = ContractionReport({"index": "inf", "max_degree": degmax,
                                "entry_bound": entry_bound})
    return _verify(con, R, words, degmax, report)


# -- cohomology of cyclic monoids ---------------------------------------------

def leech_groups_cyclic(m, q, k, module):
    """(H^{2k+1}, H^{2k+2}) of the level-1 (Leech) cohomology of
    C_{m,q}: two calls of cohomology_group on make_cyclic(m, q), which
    reads them from Hom(R, A) for the small resolution R."""
    C = make_cyclic(m, q)
    return cohomology_group(C, 1, 2 * k + 1, module), cohomology_group(C, 1, 2 * k + 2, module)


def level2_groups_cyclic(m, q, module):
    """(H^2, H^3, H^4) of C_{m,q} at level 2: calls of cohomology_group
    on make_cyclic(m, q), which reads them from Hom(B(R), A)."""
    C = make_cyclic(m, q)
    return tuple(cohomology_group(C, 2, n, module) for n in (2, 3, 4))


def level3_top(m, q, module):
    """H^5(C_{m,q}, 3; A): a call of cohomology_group on make_cyclic(m, q),
    which reads it from Hom(B^2(R), A)."""
    return cohomology_group(make_cyclic(m, q), 3, 5, module)


def closed_form_top(q, group):
    """Hom(Z/(2q, q^2), A) for a constant coefficient group: the
    (q gcd(2, q))-torsion subgroup in invariant form."""
    return torsion_subgroup_invariants(group, q * gcd(2, q))


def torsion_subgroup_invariants(group, d):
    """{a : d a = 0} of a constant coefficient group, in invariant form."""
    inv = group.invariants()
    return AbGroupInvariants.from_diagonal([gcd(d, t) for t in inv.torsion])


def infinite_cyclic_groups(r, n, samples):
    """Closed-form H^n(C_inf, r; A) from coefficient groups sampled at
    the finitely many required points (a dict element -> group).

    r = 1: A(0), A(1), then zero.  r = 2: A(k) in degree 2k, zero in
    odd degrees.  r = 3 (n <= 5): A(0), A(1) in degree 3, zero in
    degree 4, the 2-torsion of A(2) in degree 5.
    """
    def group_at(x):
        try:
            g = samples[x]
        except KeyError:
            raise MonoidError("missing coefficient sample at point %d" % x)
        return g.invariants()

    if n == 0:
        return group_at(0)
    if r == 1:
        if n == 1:
            return group_at(1)
        return AbGroupInvariants(0)
    if r == 2:
        if n % 2 == 0:
            return group_at(n // 2)
        return AbGroupInvariants(0)
    if r == 3:
        if 0 < n < 3 or n == 4:
            return AbGroupInvariants(0)
        if n == 3:
            return group_at(1)
        if n == 5:
            g = samples.get(2)
            if g is None:
                raise MonoidError("missing coefficient sample at point 2")
            return torsion_subgroup_invariants(g, 2)
        raise ValueError("level-3 closed forms stop at degree 5")
    raise ValueError("closed forms available for levels 1, 2, 3 only")
