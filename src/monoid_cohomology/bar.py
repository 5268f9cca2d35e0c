"""Bar constructions on free-based commutative differential graded
augmented algebras over a commutative monoid.

Chains are dicts mapping (translate, generator) -> integer coefficient,
always pruned of zero entries; a generator g with projection pi(g)
stands for the element g of the free module at pi(g), and (u, g) for
its translate u_* g.

Level-r cells of the iterated bar construction on the monoid algebra
are stored flat: letters x1..xm from M \\ {e} and separators k1..k_{m-1}
with 1 <= ki <= r.  The word has degree r + sum(ki) (the empty word has
degree 0) and projection x1...xm.  Splitting at the separators equal to
r recovers the top tensor factors, each a level-(r-1) word; a word with
no top separator is the suspension of its single factor, which is why
the flat form is stable under suspension.

The flat and nested bars share _word_diff, the one bar differential
over a factor algebra, and shuffles, the one shuffle product:
bar_word_diff and bar_word_shuffle read a flat word as its top factors,
and bar() reads a word of generators of its input DGA.

iterated_bar runs bar_word_diff once per separator shape (level, seps),
on the generic word whose letter i is the position (i,) of POSITIONS,
the free commutative monoid on the letter positions; each cell of that
shape takes this template with its letters put in.  That is exact:
putting letters in is a monoid map, so it commutes with every product
the recursion forms, and the recursion tests for the identity only on
products of letters, so a product equal to e in M leaves a term with a
unit letter, which the instantiation drops just as bar_word_diff drops
it.  Templates live for one iterated_bar call and are not cached across
calls.

cells(M, r, n) yields the cells of one degree in the order of the
stored basis; iterated_bar, Grillet's tuple bases, the groupoid's
cocycle test, the brute-force oracle (through degree_cells) and the CLI
take their cells from it.  Each builder that grows with its degree
(cells, iterated_bar, small_resolution, tensor_dga, bar) refuses more
than MAX_CELLS cells from a count, before it lists any, and check_reach,
which iterated_bar and the oracle call first, also refuses templates of
more than MAX_TEMPLATE_LETTERS letters, counted from the shapes, before
any template is built.

The small resolutions of the cyclic monoids, the paper's two cells per
degree, and tensor_dga are here too, below cohomology, which builds its
models from them, and cyclic, which checks them against the bar.
"""

from itertools import combinations, product
from math import comb
from operator import itemgetter
from types import SimpleNamespace

from .monoid import (INFINITE_CYCLIC, FiniteCommutativeMonoid, MonoidError, cyclic_p,
                     make_cyclic)


class BarWord(tuple):
    """A flat bar word, the tuple (letters, seps, level): hashing and ==
    are the tuple's own.  It equals no generator of a small model or a
    nested bar, whose generators are pairs or words of generators."""

    __slots__ = ()

    def __new__(cls, letters, seps, level):
        letters = tuple(letters)
        seps = tuple(seps)
        if len(seps) != max(0, len(letters) - 1):
            raise ValueError("%d separators for %d letters" % (len(seps), len(letters)))
        if seps and (min(seps) < 1 or max(seps) > level):
            raise ValueError("separators %r outside 1..%d" % (seps, level))
        return tuple.__new__(cls, (letters, seps, level))

    def __getnewargs__(self):
        return tuple(self)

    letters = property(itemgetter(0))
    seps = property(itemgetter(1))
    level = property(itemgetter(2))

    @property
    def degree(self):
        if not self[0]:
            return 0
        return self[2] + sum(self[1])

    def pi(self, M):
        x = M.identity
        for y in self[0]:
            x = M.op(x, y)
        return x

    def is_empty(self):
        return not self[0]

    def suspend(self, level):
        """The same word seen at a higher level (iterated suspension)."""
        if level < self.level and self.letters:
            raise ValueError("cannot suspend a level-%d word to level %d"
                             % (self.level, level))
        return BarWord(self.letters, self.seps, level)

    def __repr__(self):
        return "BarWord(%r, %r, level=%d)" % self


def render_word(word):
    if not word.letters:
        return "[]"
    out = [str(word.letters[0])]
    for k, x in zip(word.seps, word.letters[1:]):
        out.append(" | " if k == 1 else " |^%d " % k)
        out.append(str(x))
    return "[" + "".join(out) + "]"


def word_to_json(word, M):
    return {"letters": list(word.letters), "separators": list(word.seps),
            "level": word.level, "degree": word.degree, "pi": word.pi(M)}


# -- chain arithmetic ---------------------------------------------------------

def chain_add_term(chain, key, coeff):
    if not coeff:
        return
    new = chain.get(key, 0) + coeff
    if new:
        chain[key] = new
    else:
        del chain[key]


def chain_sum(*chains):
    out = {}
    for ch in chains:
        for key, c in ch.items():
            chain_add_term(out, key, c)
    return out


def chain_scaled(chain, c):
    if not c:
        return {}
    return {key: c * v for key, v in chain.items()}


def chain_translate(M, chain, u):
    if u == M.identity:
        return dict(chain)
    return {(M.op(u, v), g): c for (v, g), c in chain.items()}


def unit_chain(M, gen):
    return {(M.identity, gen): 1}


def extend_linear(M, fn, chain):
    """The translation-linear extension of fn (generator -> chain) to a
    chain: the term c (u, g) contributes c times fn(g) translated by u.
    chain_add_term's sum is written out here: the contraction checks
    make most of their terms in this loop, and a call per term cost them
    about 5% of their time."""
    out = {}
    op = M.op
    for (u, g), c in chain.items():
        for (v, h), cc in fn(g).items():
            key = (op(u, v), h)
            new = out.get(key, 0) + c * cc
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def extend_bilinear(M, fn, chain_a, chain_b):
    """The translation-bilinear extension of fn ((generator, generator)
    -> chain) to a pair of chains."""
    out = {}
    for (u, g), ca in chain_a.items():
        for (v, h), cb in chain_b.items():
            uv = M.op(u, v)
            for (w, k), c in fn(g, h).items():
                chain_add_term(out, (M.op(uv, w), k), ca * cb * c)
    return out


# -- flat bar words over the monoid algebra ----------------------------------

def split_top(word):
    """Top tensor factors of a level-r word, as a tuple of level-(r-1)
    words."""
    r = word.level
    segs = []
    cur_letters = [word.letters[0]]
    cur_seps = []
    for k, x in zip(word.seps, word.letters[1:]):
        if k == r:
            segs.append(BarWord(cur_letters, cur_seps, r - 1))
            cur_letters = [x]
            cur_seps = []
        else:
            cur_seps.append(k)
            cur_letters.append(x)
    segs.append(BarWord(cur_letters, cur_seps, r - 1))
    return tuple(segs)


def join_top(segments, r):
    """Inverse of split_top: the level-r word with the given top factors."""
    letters = []
    seps = []
    for i, seg in enumerate(segments):
        if i:
            seps.append(r)
        letters.extend(seg.letters)
        seps.extend(seg.seps)
    if not letters:
        return BarWord((), (), r)
    return BarWord(letters, seps, r)


def _word_diff(factors, degs, diff, mult, unit, aug, join):
    """The bar differential of the word join(factors), a nonempty tuple
    of factors of degrees degs over some factor algebra: diff(f) and
    mult(f, g) are chains of factors, a term on the unit factor kills the
    word, aug(f) is the (translate, coefficient) of the augmentation of a
    degree-0 factor, and join turns a tuple of factors into a word.

    d = d_tensor + d_mult plus the augmentation edge terms: factor i
    (from 0) is differentiated with sign -(-1)^{e_i}, factors i and i + 1
    are multiplied with sign (-1)^{e_{i+1}}, and a degree-0 factor at
    either end is augmented away, with sign 1 in front and (-1)^{e_p} at
    the back.
    """
    p = len(factors)
    ex = [0]  # e_i = i + deg f_1 + ... + deg f_i
    for d in degs:
        ex.append(ex[-1] + 1 + d)
    out = {}
    for i in range(p):
        sign = -1 if ex[i] % 2 == 0 else 1
        for (u, g), c in diff(factors[i]).items():
            if g != unit:
                chain_add_term(out, (u, join(factors[:i] + (g,) + factors[i + 1:])), sign * c)
    for i in range(p - 1):
        sign = 1 if ex[i + 1] % 2 == 0 else -1
        for (u, g), c in mult(factors[i], factors[i + 1]).items():
            if g != unit:
                chain_add_term(out, (u, join(factors[:i] + (g,) + factors[i + 2:])), sign * c)
    if degs[0] == 0:
        u, c = aug(factors[0])
        chain_add_term(out, (u, join(factors[1:])), c)
    if degs[p - 1] == 0:
        u, c = aug(factors[p - 1])
        chain_add_term(out, (u, join(factors[:-1])), c if ex[p] % 2 == 0 else -c)
    return out


def _no_diff(x):
    return {}


def level1_word(letters):
    """The level-1 word of the letters: every separator is 1, so the
    separators are not checked.  The contraction checks build most of
    their words here, and BarWord's checks cost them about a sixth of
    their time."""
    letters = tuple(letters)
    return tuple.__new__(BarWord, (letters, (1,) * (len(letters) - 1), 1))


def bar_word_diff(M, word):
    """Differential of a level-r cell, as a chain of level-r words.

    The factors are the top factors of the word, whose differential is
    this one a level down and whose product is bar_word_shuffle; at
    level 1 they are the letters, which multiply in the monoid and have
    augmentation 1, so the edge terms appear.
    """
    e = M.identity
    if word.is_empty() or word.level == 0:
        return {}
    if any(x == e for x in word.letters):
        return {}
    r = word.level
    if r == 1:
        return _word_diff(word.letters, (0,) * len(word.letters), _no_diff,
                          lambda x, y: {(e, M.op(x, y)): 1}, e, lambda x: (x, 1),
                          level1_word)
    segs = split_top(word)
    return _word_diff(segs, [s.degree for s in segs], lambda s: bar_word_diff(M, s),
                      lambda a, b: bar_word_shuffle(M, a, b), BarWord((), (), r - 1),
                      None, lambda fs: join_top(fs, r))


def shuffles(e, fa, fb, degs_a, degs_b, join):
    """The shuffle product of the words with factor lists fa and fb, as a
    chain of the words join(merged) at translate e.  A shuffle's sign
    exponent sums (1 + deg a_i)(1 + deg b_j) over the inverted pairs,
    i.e. over each b factor placed before an a factor."""
    p, q = len(fa), len(fb)
    out = {}
    for apos in combinations(range(p + q), p):
        merged = []
        ai = bi = b_before = exponent = 0
        for pos in range(p + q):
            if ai < p and apos[ai] == pos:
                merged.append(fa[ai])
                exponent += (1 + degs_a[ai]) * b_before
                ai += 1
            else:
                merged.append(fb[bi])
                b_before += 1 + degs_b[bi]
                bi += 1
        chain_add_term(out, (e, join(merged)), -1 if exponent % 2 else 1)
    return out


def bar_word_shuffle(M, a, b):
    """Shuffle product of two cells of the same level, as a chain: the
    shuffles of their top factors, whose degrees are those one level
    down.  At level 1 the factors are the letters, of degree 0."""
    if a.level != b.level:
        raise ValueError("shuffle needs words of the same level: %d vs %d"
                         % (a.level, b.level))
    e = M.identity
    if any(x == e for x in a.letters) or any(x == e for x in b.letters):
        return {}
    if a.is_empty():
        return {(e, b): 1}
    if b.is_empty():
        return {(e, a): 1}
    if a.level == 1:
        return shuffles(e, a.letters, b.letters, (0,) * len(a.letters),
                        (0,) * len(b.letters), level1_word)
    segsA = split_top(a)
    segsB = split_top(b)
    r = a.level
    return shuffles(e, segsA, segsB, [s.degree for s in segsA], [s.degree for s in segsB],
                    lambda merged: join_top(merged, r))


# -- free-based DGA container -------------------------------------------------

class DGAError(ValueError):
    pass


class FreeBasedDGA:
    """A commutative DGA-algebra given by free bases in each degree.

    basis: dict degree -> tuple of generator keys (ordered).
    pi: generator -> monoid element.
    diff: generator -> chain over generators one degree down (a
    generator it does not list is a cycle).
    product_fn: (generator, generator) -> chain (sum of the degrees).
    eps_tilde: degree-0 generator -> int augmentation coefficient.
    """

    __slots__ = ("monoid", "degmax", "basis", "pi", "degree_of", "diff",
                 "product_fn", "unit", "eps_tilde")

    def __init__(self, monoid, degmax, basis, pi, diff, product_fn, unit, eps_tilde):
        self.monoid = monoid
        self.degmax = degmax
        self.basis = {d: tuple(gens) for d, gens in basis.items()}
        self.pi = dict(pi)
        self.degree_of = {g: d for d, gens in self.basis.items() for g in gens}
        self.diff = dict(diff)
        self.product_fn = product_fn
        self.unit = unit
        self.eps_tilde = dict(eps_tilde)

    def generators(self, degree):
        if degree > self.degmax:
            raise DGAError("degree %d above the stored bound %d" % (degree, self.degmax))
        return self.basis.get(degree, ())

    def differential(self, gen):
        return self.diff.get(gen, {})

    def diff_chain(self, chain):
        return extend_linear(self.monoid, self.differential, chain)

    def product(self, chain_a, chain_b):
        return extend_bilinear(self.monoid, self.product_fn, chain_a, chain_b)

    def eps_of_chain(self, chain):
        """Augmentation coefficient of a degree-0 chain (translates do
        not change it)."""
        return sum(c * self.eps_tilde.get(g, 0) for (u, g), c in chain.items())


def zm_dga(M, N=None):
    """The monoid algebra as a trivially graded free-based DGA: one
    degree-0 generator per element, g_x . g_y = g_{xy}; with N, a list of
    M's labels of a submonoid, the algebra of N."""
    if not isinstance(M, FiniteCommutativeMonoid):
        raise DGAError("zm_dga needs a finite monoid")
    e = M.identity
    elements = range(M.size) if N is None else N

    def prod(x, y):
        return {(e, M.op(x, y)): 1}

    return FreeBasedDGA(
        monoid=M, degmax=0,
        basis={0: tuple(elements)},
        pi={x: x for x in elements},
        diff={},
        product_fn=prod,
        unit=e,
        eps_tilde={x: 1 for x in elements},
    )


def bar(D, degmax):
    """The bar construction on a free-based DGA, again free-based.

    Generators in degree n are the words of non-unit generators of D
    with (number of letters) + (letter degrees) = n; any word holding a
    translated unit letter is zero.  Above MAX_CELLS words in all, counted
    by c(0) = 1, c(n) = sum over non-unit g of c(n - 1 - |g|), it is refused.
    """
    M = D.monoid
    e = M.identity
    if D.degree_of.get(D.unit) != 0:
        raise DGAError("the unit of the input DGA must be a degree-0 basis generator")
    sizes = {d: len(gens) - (d == 0) for d, gens in D.basis.items()}

    def counts():
        c = [1]
        for n in range(degmax + 1):
            yield c[n]
            c.append(sum(k * c[n - d] for d, k in sizes.items() if d <= n))

    refuse_above_max_cells(counts(), "the bar to degree %d" % degmax)
    reduced = []
    for d in sorted(D.basis):
        for g in D.basis[d]:
            if g != D.unit:
                reduced.append((g, d))

    words = {0: ((),)}

    def build(n):
        if n in words:
            return words[n]
        out = []
        for g, d in reduced:
            if 1 + d <= n:
                for rest in build(n - 1 - d):
                    out.append((g,) + rest)
        words[n] = tuple(out)
        return words[n]

    basis = {}
    for n in range(degmax + 1):
        ws = build(n)
        if ws:
            basis[n] = ws

    def word_pi(wrd):
        x = e
        for g in wrd:
            x = M.op(x, D.pi[g])
        return x

    pi = {w: word_pi(w) for ws in basis.values() for w in ws}

    def aug(g):
        return D.pi[g], D.eps_tilde.get(g, 0)

    def word_diff(wrd):
        if not wrd:
            return {}
        return _word_diff(wrd, [D.degree_of[g] for g in wrd], D.differential, D.product_fn,
                          D.unit, aug, tuple)

    diff = {w: word_diff(w) for ws in basis.values() for w in ws}

    def shuffle(wa, wb):
        return shuffles(e, wa, wb, [D.degree_of[g] for g in wa], [D.degree_of[g] for g in wb],
                        tuple)

    return FreeBasedDGA(
        monoid=M, degmax=degmax, basis=basis, pi=pi, diff=diff,
        product_fn=shuffle, unit=(), eps_tilde={(): 1},
    )


def _compositions(total, parts, maxpart):
    """The compositions of total into parts parts of 1..maxpart, in
    decreasing lexicographic order, without recursion: each one lowers
    the last part that can give one to the parts after it, and refills
    those greedily, largest first."""
    def largest(rest, k):
        out = []
        for j in range(k - 1, -1, -1):
            out.append(min(maxpart, rest - j))
            rest -= out[-1]
        return out

    if not parts <= total <= parts * maxpart:
        return
    comp = largest(total, parts)
    while True:
        yield tuple(comp)
        rest = 0
        for i in range(parts - 1, -1, -1):
            rest += comp[i]
            if comp[i] > 1 and rest - comp[i] + 1 <= (parts - 1 - i) * maxpart:
                comp[i] -= 1
                comp[i + 1:] = largest(rest - comp[i], parts - 1 - i)
                break
        else:
            return


def shapes(r, n):
    """The separator tuples of the level-r cells of degree n >= r: the
    compositions of n - r into parts of at most r, most parts first."""
    total = n - r
    for parts in range(total, -1, -1):
        if total <= parts * r:
            yield from _compositions(total, parts, r)


# The largest bar the tests or the benchmark's pinned queries build has
# 9,330 cells.  Each cell carries a word, a differential chain and at
# least one coboundary row, a kilobyte or more in all, so a bar or model
# above this many cells needs gigabytes of memory and hours of work: it
# is refused before any cell is listed.
MAX_CELLS = 1 << 20


# A shape of m letters has a template of m + 1 terms of m - 1 letters at
# level 1, so building it costs about m^2.  The cell count does not bound
# that sum over a one-letter monoid, whose level-1 degree n holds one cell
# of n letters: the bar to degree N passes the cell cap up to N = 2^20
# while its templates hold about N^3 / 3 letters.  Above this many the bar
# is refused before any template is built; it lets a one-letter level-1
# bar reach degree 464.  Higher levels are truncated at degree r + 3 by
# the cohomology routes, and their shapes stay short.
MAX_TEMPLATE_LETTERS = 1 << 25


# The model's level-r cells are tuples nested r - 1 deep, compared
# recursively, and bar_word_diff recurses three frames per level: near
# level 1000 on the model and 330 on the iterated bar a query meets
# Python's recursion limit.  No test or example reads above level 4.
MAX_LEVEL = 200


def check_level(r, error):
    """Raise error if level r lies outside 1..MAX_LEVEL: below 1 there
    are no cells, above MAX_LEVEL they nest deeper than Python recurses."""
    if not 1 <= r <= MAX_LEVEL:
        raise error("level %d lies outside the computed range (1 <= r <= %d)"
                    % (r, MAX_LEVEL))


def _refuse_above(counts, cap, what):
    """Raise DGAError naming what as soon as the running sum of counts
    passes cap; counts is read no further than that."""
    total = 0
    for c in counts:
        total += c
        if total > cap:
            raise DGAError("%s, out of reach" % what)


def refuse_above_max_cells(counts, what):
    """Refuse a bar whose cell counts sum to more than MAX_CELLS."""
    _refuse_above(counts, MAX_CELLS, "%s has more than %d cells" % (what, MAX_CELLS))


def _template_letters(r, degmax):
    """m^2 for each shape of m letters in degrees r..degmax, counted from
    the shapes without building a template."""
    for n in range(r, degmax + 1):
        for seps in shapes(r, n):
            yield (len(seps) + 1) ** 2


def _degree_counts(k, r, degmax):
    """The number of level-r cells over k letters in each degree
    r..degmax, without listing them.  A cell of degree r + t is a letter
    followed by (separator, letter) pairs whose separators sum to t, so
    there are k w(t) of them, with w(0) = 1 and w(t) = k (w(t-1) + ... +
    w(t-min(t, r)))."""
    w = [1]
    for t in range(degmax - r + 1):
        yield k * w[t]
        w.append(k * sum(w[-r:]))


def _check_range(M, r, degmax):
    if not isinstance(M, FiniteCommutativeMonoid):
        raise DGAError("the bar construction needs a finite monoid")
    check_level(r, DGAError)
    if degmax < r:
        raise DGAError("degree %d below the lowest positive cell degree %d" % (degmax, r))
    refuse_above_max_cells(_degree_counts(len(M.nonunit()), r, degmax),
                           "the level-%d bar to degree %d" % (r, degmax))


def check_reach(M, r, degmax):
    """Refuse a level-r bar to degree degmax before any cell or template
    is built: DGAError above MAX_CELLS cells or MAX_TEMPLATE_LETTERS
    template letters."""
    _check_range(M, r, degmax)
    _refuse_above(_template_letters(r, degmax), MAX_TEMPLATE_LETTERS,
                  "the templates of the level-%d bar to degree %d hold more than %d "
                  "letters" % (r, degmax, MAX_TEMPLATE_LETTERS))


def degree_cells(M, r, n):
    """The basis iterated_bar stores in degree n, as a tuple: the empty
    word in degree 0, no cell in the other degrees below r, and
    cells(M, r, n) from r on."""
    if n < r:
        return (BarWord((), (), r),) if n == 0 else ()
    return tuple(cells(M, r, n))


def cells(M, r, n):
    """Yield the level-r cells of degree n, which are the basis
    iterated_bar stores in degree n: shape by shape in the order of
    shapes(r, n), and within a shape the letters in lexicographic order.
    A level-r bar to degree n of more than MAX_CELLS cells raises
    DGAError before the first cell."""
    _check_range(M, r, n)
    nonunit = M.nonunit()
    for seps in shapes(r, n):
        for letters in product(nonunit, repeat=len(seps) + 1):
            yield BarWord(letters, seps, r)


# The free commutative monoid on letter positions: sorted tuples of
# positions, multiplied by merging.
POSITIONS = SimpleNamespace(identity=(), op=lambda a, b: tuple(sorted(a + b)))


def generic_word(seps, level):
    """The word of the given shape whose letter i is the position (i,)
    of POSITIONS."""
    return BarWord([(i,) for i in range(len(seps) + 1)], seps, level)


def _diff_template(seps, level):
    """The differential of every cell of one shape, read off the generic
    word over POSITIONS.

    A cell's values sit in slots: slot 0 holds the identity, slot i + 1
    letter i, and slot m + 1 + j the product of the letters at the
    positions products[j].  Returns (products, terms), each term being
    (translate slot, gather, separators, coefficient), where gather picks
    the letters of the output word out of the slot list.
    """
    m = len(seps) + 1
    slot = {(): 0}
    for i in range(m):
        slot[(i,)] = i + 1
    products = []

    def slot_of(t):
        if t not in slot:
            slot[t] = m + 1 + len(products)
            products.append(t)
        return slot[t]

    def gatherer(slots):
        if len(slots) > 1:
            return itemgetter(*slots)
        return lambda vals: tuple([vals[i] for i in slots])  # itemgetter(i) is no tuple

    terms = [(slot_of(u), gatherer(tuple(slot_of(t) for t in w.letters)), w.seps, c)
             for (u, w), c in bar_word_diff(POSITIONS, generic_word(seps, level)).items()]
    return products, terms


def iterated_bar(M, r, degmax):
    """The r-fold bar construction on the monoid algebra, with cells
    stored as flat separator words.

    The differential of each cell is its shape's template (see the
    module docstring) with the letters put in: position products are
    multiplied out in M once per cell, terms holding a letter equal to
    the identity are dropped, and each output word is the basis cell
    itself, found by its letters and separators.  The templates live
    for this call only.  Templates of more than MAX_TEMPLATE_LETTERS
    letters in all raise DGAError before the first is built.
    """
    check_reach(M, r, degmax)
    e = M.identity
    empty = BarWord((), (), r)
    basis = {0: (empty,)}
    diff = {empty: {}}
    cells_by_seps = {(): {(): empty}}
    for n in range(r, degmax + 1):
        seps = None
        words = list(cells(M, r, n))
        for word in words:
            letters = word.letters
            if word.seps != seps:
                seps = word.seps
                products, template = _diff_template(seps, r)
                terms = [(u, gather, cells_by_seps[tseps], c)
                         for u, gather, tseps, c in template]
                found = cells_by_seps.setdefault(seps, {})
            vals = [e, *letters]
            for t in products:
                x = letters[t[0]]
                for i in t[1:]:
                    x = M.op(x, letters[i])
                vals.append(x)
            chain = {}
            for u, gather, targets, c in terms:
                out = gather(vals)
                if e not in out:
                    chain_add_term(chain, (vals[u], targets[out]), c)
            found[letters] = word
            diff[word] = chain
        if words:
            basis[n] = tuple(words)
    pi = {w: w.pi(M) for ws in basis.values() for w in ws}

    def shuffle(a, b):
        return bar_word_shuffle(M, a, b)

    return FreeBasedDGA(
        monoid=M, degmax=degmax, basis=basis, pi=pi, diff=diff,
        product_fn=shuffle, unit=empty, eps_tilde={empty: 1},
    )


# -- the small resolutions of cyclic monoids ---------------------------------

def small_resolution(m, q, degmax, monoid=None, powers=None):
    """The small free resolution R of C_{m,q} as a free-based DGA.

    R has one generator v_k in degree 2k (over x^(km)) and one w_k in
    degree 2k+1 (over x^(km+1)), with dv_{k+1} = (m+q)(x^(m+q-1))_* w_k
    - m(x^(m-1))_* w_k and dw_k = 0; the term carrying the coefficient
    m is read as zero when m = 0.  Exponents reduce as in C_{m,q}
    (monoid.cyclic_p).  By default R lies over C_{m,q} itself, where x^k
    is k; given a table monoid and powers[k], its label of x^k
    (monoid.closure), R lies over the submonoid the powers list, in the
    table's own labels.  Above MAX_CELLS cells (degmax + 1) it is refused.
    """
    if m < 0 or q < 1 or m + q < 2:
        raise MonoidError("invalid cyclic parameters (%r, %r)" % (m, q))
    refuse_above_max_cells([degmax + 1], "the small resolution to degree %d" % degmax)
    C = make_cyclic(m, q) if monoid is None else monoid
    label = range(m + q) if powers is None else powers

    def power(k):
        return label[cyclic_p(m, q, k)]

    basis = {}
    pi = {}
    for k in range(0, degmax // 2 + 1):
        basis[2 * k] = (("v", k),)
        pi[("v", k)] = power(k * m)
        if 2 * k + 1 <= degmax:
            basis[2 * k + 1] = (("w", k),)
            pi[("w", k)] = power(k * m + 1)
    diff = {}
    for k in range(0, (degmax - 2) // 2 + 1):
        ch = {}
        chain_add_term(ch, (power(m + q - 1), ("w", k)), m + q)
        if m >= 1:
            chain_add_term(ch, (power(m - 1), ("w", k)), -m)
        diff[("v", k + 1)] = ch

    def prod(a, b):
        (ta, ka), (tb, kb) = a, b
        if ta == "w" and tb == "w":
            return {}
        k = ka + kb
        kind = "w" if "w" in (ta, tb) else "v"
        gen = (kind, k)
        if gen not in pi:
            raise ValueError("product %r leaves the stored degree range" % (gen,))
        return {(C.identity, gen): comb(ka + kb, ka)}

    return FreeBasedDGA(
        monoid=C, degmax=degmax, basis=basis, pi=pi, diff=diff,
        product_fn=prod, unit=("v", 0), eps_tilde={("v", 0): 1},
    )


def small_resolution_inf(degmax):
    """The two-generator resolution of the infinite cyclic monoid: only
    v_0 and w_0 survive, and the differential vanishes."""
    C = INFINITE_CYCLIC
    basis = {0: (("v", 0),)}
    pi = {("v", 0): 0}
    if degmax >= 1:
        basis[1] = (("w", 0),)
        pi[("w", 0)] = 1

    def prod(a, b):
        if a[0] == "w" and b[0] == "w":
            return {}
        gen = ("w", 0) if "w" in (a[0], b[0]) else ("v", 0)
        return {(0, gen): 1}

    return FreeBasedDGA(
        monoid=C, degmax=degmax, basis=basis, pi=pi, diff={},
        product_fn=prod, unit=("v", 0), eps_tilde={("v", 0): 1},
    )


def tensor_dga(D1, D2):
    """The tensor product D1 (x) D2 of two free-based DGAs over one
    monoid M, to the lower of their stored degrees.  Its generators are
    the pairs (g1, g2), of degree |g1| + |g2|, over pi(g1) pi(g2), with
    d(g1 (x) g2) = dg1 (x) g2 + (-1)^|g1| g1 (x) dg2 and
    (a1 (x) a2)(b1 (x) b2) = (-1)^(|a2||b1|) a1b1 (x) a2b2, translates
    multiplied in M.  The unit is the pair of units, and the augmentation
    multiplies.  When D1 and D2 resolve Z over N1 and N2, it resolves Z
    over N1 x N2 (monoid.split): both are free over Z, so the Kunneth
    theorem has no Tor term (Eilenberg and Mac Lane, On the groups
    H(Pi, n), I/II).  Above MAX_CELLS pairs, counted per degree, it is refused."""
    M = D1.monoid
    degmax = min(D1.degmax, D2.degmax)
    s1, s2 = ([len(D.basis.get(d, ())) for d in range(degmax + 1)] for D in (D1, D2))
    counts = (sum(s1[d] * s2[n - d] for d in range(n + 1)) for n in range(degmax + 1))
    refuse_above_max_cells(counts, "the tensor product to degree %d" % degmax)
    basis = {}
    for n in range(degmax + 1):
        gens = tuple((g1, g2) for d in range(n + 1)
                     for g1 in D1.basis.get(d, ()) for g2 in D2.basis.get(n - d, ()))
        if gens:
            basis[n] = gens
    pi = {g: M.op(D1.pi[g[0]], D2.pi[g[1]]) for gens in basis.values() for g in gens}
    diff = {}
    for g1, g2 in pi:
        chain = {}
        for (u, h), c in D1.differential(g1).items():
            chain_add_term(chain, (u, (h, g2)), c)
        sign = -1 if D1.degree_of[g1] % 2 else 1
        for (u, h), c in D2.differential(g2).items():
            chain_add_term(chain, (u, (g1, h)), sign * c)
        diff[(g1, g2)] = chain

    def prod(a, b):
        (a1, a2), (b1, b2) = a, b
        sign = -1 if D2.degree_of[a2] * D1.degree_of[b1] % 2 else 1
        out = {}
        for (u, h1), c1 in D1.product_fn(a1, b1).items():
            for (v, h2), c2 in D2.product_fn(a2, b2).items():
                chain_add_term(out, (M.op(u, v), (h1, h2)), sign * c1 * c2)
        return out

    return FreeBasedDGA(
        monoid=M, degmax=degmax, basis=basis, pi=pi, diff=diff, product_fn=prod,
        unit=(D1.unit, D2.unit),
        eps_tilde={(g1, g2): c1 * c2 for g1, c1 in D1.eps_tilde.items()
                   for g2, c2 in D2.eps_tilde.items()},
    )


# -- structural validation ----------------------------------------------------

def _sample_translate(M):
    if isinstance(M, FiniteCommutativeMonoid):
        return next((x for x in range(M.size) if x != M.identity), None)
    return 1  # infinite cyclic


def validate_dga(D, product_degree_cap=5, triple_degree_cap=5):
    """Check the DGA laws on basis generators: d d = 0, projection
    compatibility, the augmentation killing boundaries, graded
    commutativity, associativity, the unit law, Leibniz, and linearity
    of the product over translations.  Returns a list of violations."""
    M = D.monoid
    e = M.identity
    bad = []
    gens = [(d, g) for d in sorted(D.basis) for g in D.basis[d]]

    if D.degree_of.get(D.unit) != 0:
        bad.append(("unit-degree", D.unit))
    if D.eps_tilde.get(D.unit) != 1:
        bad.append(("unit-augmentation", D.unit))

    for d, g in gens:
        for (u, h), c in D.differential(g).items():
            if D.degree_of[h] != d - 1:
                bad.append(("diff-degree", g))
            if M.op(u, D.pi[h]) != D.pi[g]:
                bad.append(("diff-pi", g))
        if D.diff_chain(D.differential(g)):
            bad.append(("dd", g))
        if d == 1 and D.eps_of_chain(D.differential(g)) != 0:
            bad.append(("eps-boundary", g))

    for d1, g in gens:
        ch = D.product_fn(g, D.unit)
        if ch != unit_chain(M, g):
            bad.append(("unit-law-right", g))
        ch = D.product_fn(D.unit, g)
        if ch != unit_chain(M, g):
            bad.append(("unit-law-left", g))

    pair_cap = min(product_degree_cap, D.degmax)
    triple_cap = min(triple_degree_cap, D.degmax)
    pairs = [(g, h, d1, d2) for d1, g in gens for d2, h in gens
             if d1 + d2 <= pair_cap]
    for g, h, d1, d2 in pairs:
        gh = D.product_fn(g, h)
        for (u, k), c in gh.items():
            if D.degree_of.get(k, d1 + d2) != d1 + d2:
                bad.append(("product-degree", (g, h)))
            if M.op(u, D.pi[k]) != M.op(D.pi[g], D.pi[h]):
                bad.append(("product-pi", (g, h)))
        hg = D.product_fn(h, g)
        sign = -1 if (d1 * d2) % 2 else 1
        if gh != chain_scaled(hg, sign):
            bad.append(("commutativity", (g, h)))
        # Leibniz
        lhs = D.diff_chain(gh)
        rhs = chain_sum(
            D.product(D.differential(g), unit_chain(M, h)),
            chain_scaled(D.product(unit_chain(M, g), D.differential(h)),
                         -1 if d1 % 2 else 1))
        if lhs != rhs:
            bad.append(("leibniz", (g, h)))
        # translation linearity of the product (sample translate)
        u = _sample_translate(M)
        if u is not None:
            lhs2 = D.product({(u, g): 1}, unit_chain(M, h))
            rhs2 = chain_translate(M, gh, u)
            if lhs2 != rhs2:
                bad.append(("translation-linearity", (g, h)))

    triples = [(g, h, k) for d1, g in gens for d2, h in gens for d3, k in gens
               if d1 + d2 + d3 <= triple_cap]
    for g, h, k in triples:
        lhs = D.product(D.product_fn(g, h), unit_chain(M, k))
        rhs = D.product(unit_chain(M, g), D.product_fn(h, k))
        if lhs != rhs:
            bad.append(("associativity", (g, h, k)))
    return bad
