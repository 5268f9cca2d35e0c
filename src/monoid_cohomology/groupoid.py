"""Symmetric monoidal abelian groupoids, represented as totally
disconnected, strictly unitary data: objects are the monoid elements,
the vertex group at x is A(x), the tensor acts on objects through the
monoid and on morphisms by a_x (x) a_y = y_* a_x + x_* a_y, and the
associativity and symmetry constraints are tables g(x,y,z), mu(x,y)
normalized to vanish on the unit.

A crossed product of a 5-cocycle is coherent; conversely coherence of
the tables is exactly the 5-cocycle condition, which is how the
classification by the top truncated cohomology group is exercised.

A (g, mu) pair is exactly a 5-cochain of the level-3 complex: g sits on
the cells [x|y|z] and mu on [x|^2 y].  cocycle_check is d^5 = 0 on it,
read off the bar differential row by row with the rows of the cochain
search in cohomology; the components of d^5 over the cells [x|y|z|t],
[x|^2 y|z], [x|y|^2 z] and [x|^3 y] are the pentagon, the two hexagons
and the involution of mu.  check_coherence evaluates the same
identities as the coherence axioms, written out on their own, as the
independent check of cocycle_check.  iso_classes takes its cocycles
from that cochain search, which checks each row as soon as the cells it
reads hold values (the pentagon rows on the g cells alone), and lists
exactly the pairs the per-pair check accepts, in the same order;
enumerate_cochain_tables lists the tables through it too.  The search
stays brute force, as the independent check of the class count against
|H^5(M,3;A)|, and is capped at BRUTE_FORCE_CAP table pairs.
"""

from .bar import cells
from .cohomology import BruteForceCapError, _cochain_space, _rows, _search, _vanishes
from .hmod import (HModule, IntMatrix, _columns_equal_mod, _matrix_maps_relations,
                   require_lawful)
from .monoid import is_integer, validate_table
from .zlinalg import lattice_basis, staircase_pivots, staircase_solve


class GroupoidError(ValueError):
    pass


class SMAGroupoid:
    """Totally disconnected symmetric monoidal abelian groupoid."""

    __slots__ = ("monoid", "module", "g_table", "mu_table")

    def __init__(self, monoid, module, g_table, mu_table):
        self.monoid = monoid
        self.module = module
        self.g_table = dict(g_table)
        self.mu_table = dict(mu_table)

    def assoc(self, x, y, z):
        return self.g_table.get((x, y, z)) or self._zero(self.monoid.op(self.monoid.op(x, y), z))

    def symm(self, x, y):
        return self.mu_table.get((x, y)) or self._zero(self.monoid.op(x, y))

    def _zero(self, obj):
        return tuple(self.module.group(obj).zero())

    def tensor_obj(self, x, y):
        return self.monoid.op(x, y)

    def tensor_mor(self, x, a, y, b):
        """(a: x -> x) (x) (b: y -> y) = y_* a + x_* b at xy."""
        left = self.module.translate(x, y, list(a))
        right = self.module.translate(y, x, list(b))
        return tuple(l + r for l, r in zip(left, right))


def _normalized_table(M, module, table, arity, name):
    e = M.identity
    out = {}
    for key, val in table.items():
        if len(key) != arity:
            raise GroupoidError("%s table key %r has arity %d" % (name, key, arity))
        if not all(is_integer(x) and 0 <= x < M.size for x in key):
            raise GroupoidError("%s table key %r names a non-element of the monoid"
                                % (name, key))
        pi = e
        for x in key:
            pi = M.op(pi, x)
        grp = module.group(pi)
        val = tuple(val)
        if len(val) != grp.ngens:
            raise GroupoidError("%s value at %r has %d coordinates, group needs %d"
                                % (name, key, len(val), grp.ngens))
        if any(x == e for x in key):
            if not grp.is_zero_element(list(val)):
                raise GroupoidError("%s value at %r must vanish (unit argument)"
                                    % (name, key))
            continue
        out[key] = val
    return out


def crossed_product(M, module, g_table, mu_table):
    """The groupoid with associativity g and symmetry mu; building it
    does not require the cocycle condition, but a tabular module that
    breaks its laws over M is refused (hmod.require_lawful)."""
    require_lawful(module, M)
    g_table = _normalized_table(M, module, g_table, 3, "g")
    mu_table = _normalized_table(M, module, mu_table, 2, "mu")
    return SMAGroupoid(M, module, g_table, mu_table)


class CoherenceReport:
    __slots__ = ("failures",)

    def __init__(self):
        self.failures = []

    def record(self, condition, witness):
        self.failures.append((condition, witness))

    def ok(self):
        return not self.failures

    def __repr__(self):
        return "CoherenceReport(%s)" % ("PASS" if self.ok() else self.failures[:4])


def check_coherence(G):
    """Exhaustively evaluate the pentagon-type identity over M^4, the
    unit identity, the hexagon-type identity and the symmetry involution
    over M^3 and M^2, then the derived unit identities."""
    M = G.monoid
    mod = G.module
    e = M.identity
    report = CoherenceReport()

    def tr(x, y, vec):
        return mod.translate(x, y, list(vec))

    for x in M.elements():
        for y in M.elements():
            for z in M.elements():
                for t in M.elements():
                    terms = [(1, G.assoc(x, y, M.op(z, t))),
                             (1, G.assoc(M.op(x, y), z, t)),
                             (-1, tr(M.op(y, M.op(z, t)), x, G.assoc(y, z, t))),
                             (-1, G.assoc(x, M.op(y, z), t)),
                             (-1, tr(M.op(x, M.op(y, z)), t, G.assoc(x, y, z)))]
                    if not mod.group(M.op(M.op(x, y), M.op(z, t))).vanishes(terms):
                        report.record("5.1", (x, y, z, t))

    for x in M.elements():
        for y in M.elements():
            if not mod.group(M.op(x, y)).vanishes([(1, G.assoc(x, e, y))]):
                report.record("5.2", (x, y))

    for x in M.elements():
        for y in M.elements():
            for z in M.elements():
                terms = [(1, tr(M.op(x, z), y, G.symm(x, z))),
                         (1, G.assoc(y, x, z)),
                         (1, tr(M.op(x, y), z, G.symm(x, y))),
                         (-1, G.assoc(y, z, x)),
                         (-1, G.symm(x, M.op(y, z))),
                         (-1, G.assoc(x, y, z))]
                if not mod.group(M.op(M.op(x, y), z)).vanishes(terms):
                    report.record("5.3", (x, y, z))

    for x in M.elements():
        for y in M.elements():
            if not mod.group(M.op(x, y)).vanishes([(1, G.symm(y, x)), (1, G.symm(x, y))]):
                report.record("5.4", (x, y))

    # derived identities: in the strictly unitary presentation they are
    # further normalization statements and must follow
    for x in M.elements():
        for y in M.elements():
            if not mod.group(M.op(x, y)).vanishes([(1, G.assoc(e, x, y))]):
                report.record("derived-left-unit", (x, y))
            if not mod.group(M.op(x, y)).vanishes([(1, G.assoc(x, y, e))]):
                report.record("derived-right-unit", (x, y))
        if not mod.group(x).vanishes([(1, G.symm(x, e))]):
            report.record("derived-symm-unit", (x,))
        if not mod.group(x).vanishes([(1, G.symm(e, x))]):
            report.record("derived-unit-symm", (x,))
    return report


def cocycle_check(M, module, g_table, mu_table):
    """True iff the pair is a 5-cocycle of the level-3 truncated
    complex: is_cocycle of its crossed product."""
    return is_cocycle(crossed_product(M, module, g_table, mu_table))


def is_cocycle(G):
    """True iff the tables of the crossed product G form a 5-cocycle:
    d^5 of the cochain holding g and mu vanishes on every cell of degree
    6.  Its components over [x|y|z|t], [x|^2 y|z], [x|y|^2 z] and
    [x|^3 y] are the pentagon, the two hexagons and the involution of
    mu.  The rows are those of the cochain search: the cells are taken
    one at a time in the order of cells(M, 3, 6), pentagon cells first,
    each differential computed only when it is reached, up to the first
    cell that does not vanish."""
    M, module = G.monoid, G.module
    source = list(cells(M, 3, 5))
    values = [G.assoc(*c.letters) if c.seps == (1, 1) else G.symm(*c.letters)
              for c in source]
    return all(_vanishes(module, row, values)
               for row in _rows(M, module, source, cells(M, 3, 6)))


def extract_triple(G):
    """Read off (M, A, g, mu) from a strictly unitary totally
    disconnected groupoid: the monoid from the object tensor, the
    module action from tensoring with identity morphisms, and the
    constraint tables.  The tables must form a 5-cocycle, which
    cocycle_check reads after its crossed_product has checked the
    extracted action's laws, the one law check (hmod.require_lawful)."""
    M = G.monoid
    n = M.size
    table = [[G.tensor_obj(x, y) for y in range(n)] for x in range(n)]
    monoid = validate_table(n, M.identity, table)
    groups = [G.module.group(x) for x in range(n)]
    actions = {}
    for x in range(n):
        for y in range(n):
            src = groups[x]
            cols = []
            for i in range(src.ngens):
                basis_vec = [0] * src.ngens
                basis_vec[i] = 1
                cols.append(G.tensor_mor(x, basis_vec, y, groups[y].zero()))
            actions[(x, y)] = IntMatrix.from_columns(cols, groups[monoid.op(x, y)].ngens)
    module = HModule(monoid, groups, actions)
    if not cocycle_check(monoid, module, G.g_table, G.mu_table):
        raise GroupoidError("extracted tables are not a 5-cocycle "
                            "(the input groupoid is not coherent)")
    return monoid, module, dict(G.g_table), dict(G.mu_table)


# -- monoidal functors --------------------------------------------------------

class MonoidalFunctorData:
    """A candidate symmetric monoidal isomorphism: a monoid isomorphism
    i, a natural family of group isomorphisms psi_x: A(x) -> A'(ix),
    and the binary constraint table f(x,y) in A'(i(xy)); the unit
    constraint is the zero morphism."""

    __slots__ = ("i", "psi", "f")

    def __init__(self, i, psi, f):
        self.i = tuple(i)
        self.psi = dict(psi)
        self.f = dict(f)


def _is_monoid_iso(M, Mp, i):
    if sorted(i) != list(range(Mp.size)):
        return False
    if i[M.identity] != Mp.identity:
        return False
    for x in M.elements():
        for y in M.elements():
            if i[M.op(x, y)] != Mp.op(i[x], i[y]):
                return False
    return True


def _is_group_iso(src, tgt, mat):
    """mat: src -> tgt is an isomorphism of the presented groups: it
    maps relations into relations and is bijective."""
    if not _matrix_maps_relations(mat, src, tgt):
        return False
    # surjectivity: every target generator is reachable modulo relations
    H = lattice_basis(mat.hstack(tgt.relation_basis))
    generators = [{i: 1} for i in range(tgt.ngens)]
    if staircase_solve(H, staircase_pivots(H), generators)[1]:
        return False
    # injectivity: f.g. abelian groups are Hopfian (a surjective
    # endomorphism is injective), so a surjection between isomorphic ones
    # is an isomorphism; equal relation lattices need no invariants
    return src == tgt or src.invariants() == tgt.invariants()


def verify_monoidal_iso(src, tgt, data):
    """Check that (i, psi, f) is a symmetric monoidal isomorphism from
    the crossed product src to tgt: i a monoid isomorphism, psi a
    natural family of group isomorphisms, the tables matching through
    the two cocycle-transport identities.  Returns (ok, witness)."""
    M, Mp = src.monoid, tgt.monoid
    A, Ap = src.module, tgt.module
    i = data.i
    if not _is_monoid_iso(M, Mp, i):
        return False, ("monoid-iso",)
    e = M.identity
    for x in M.elements():
        mat = data.psi[x]
        if not _is_group_iso(A.group(x), Ap.group(i[x]), mat):
            return False, ("psi-iso", x)
    # naturality (ea3): psi_{xy} . x_* = (ix)_* . psi_y
    for x in M.elements():
        for y in M.elements():
            xy = M.op(x, y)
            lhs = data.psi[xy].mul(A.action(y, x))
            rhs = Ap.action(i[y], i[x]).mul(data.psi[y])
            if not _columns_equal_mod(Ap.group(i[xy]), lhs, rhs):
                return False, ("psi-naturality", (x, y))

    def f_val(x, y):
        val = data.f.get((x, y))
        if val is None:
            return Ap.group(i[M.op(x, y)]).zero()
        return list(val)

    for x in M.elements():
        fx = Ap.group(i[x])
        if not (fx.vanishes([(1, f_val(x, e))]) and fx.vanishes([(1, f_val(e, x))])):
            return False, ("f-normalization", x)

    def tr(x, y, vec):
        return Ap.translate(x, y, list(vec))

    for x in M.elements():
        for y in M.elements():
            for z in M.elements():
                xyz = M.op(M.op(x, y), z)
                terms = [(1, data.psi[xyz].mul_vector(src.assoc(x, y, z))),
                         (-1, tgt.assoc(i[x], i[y], i[z])),
                         (-1, tr(i[M.op(y, z)], i[x], f_val(y, z))),
                         (1, f_val(M.op(x, y), z)),
                         (-1, f_val(x, M.op(y, z))),
                         (1, tr(i[M.op(x, y)], i[z], f_val(x, y)))]
                if not Ap.group(i[xyz]).vanishes(terms):
                    return False, ("transport-assoc", (x, y, z))
    for x in M.elements():
        for y in M.elements():
            xy = M.op(x, y)
            terms = [(1, data.psi[xy].mul_vector(src.symm(x, y))),
                     (-1, tgt.symm(i[x], i[y])),
                     (1, f_val(x, y)),
                     (-1, f_val(y, x))]
            if not Ap.group(i[xy]).vanishes(terms):
                return False, ("transport-symm", (x, y))
    return True, None


def build_monoidal_iso(src, tgt, i, psi, f):
    """Assemble and verify candidate isomorphism data; raises on
    failure."""
    data = MonoidalFunctorData(i, psi, f)
    ok, witness = verify_monoidal_iso(src, tgt, data)
    if not ok:
        raise GroupoidError("not a symmetric monoidal isomorphism: %r" % (witness,))
    return data


# -- enumeration / classification ---------------------------------------------

def enumerate_cochain_tables(M, module, arity):
    """All normalized tables M*^arity -> A(product), as dicts: the
    cochains on the level-1 cells of degree arity, listed by the cochain
    search, the first key varying slowest."""
    keys, groups = _cochain_space(M, module, cells(M, 1, arity))
    return [{cell.letters: v for cell, v in zip(keys, f)} for f in _search(module, groups, ())]


def monoid_automorphisms(M):
    """All table-preserving permutations fixing the identity; intended
    for the small-object classification search (|M| <= 4)."""
    from itertools import permutations
    out = []
    for perm in permutations(range(M.size)):
        if perm[M.identity] != M.identity:
            continue
        if all(perm[M.op(x, y)] == M.op(perm[x], perm[y])
               for x in range(M.size) for y in range(M.size)):
            out.append(perm)
    return out


def iso_classes(M, module, search_automorphisms=False):
    """Partition the 5-cocycles over (M, A) into isomorphism classes.

    By default only isomorphisms with identity monoid and coefficient
    components are searched; with search_automorphisms the monoid
    component ranges over Aut(M) (kept to |M| <= 4, and to constant
    coefficients so the identity family is natural for every i).  The
    search is capped: more than BRUTE_FORCE_CAP (g, mu) table pairs
    raise GroupoidError, counted before any table is listed.

    A (g, mu) pair is a 5-cochain of the level-3 complex, so the
    cocycles are those the cochain search finds on cells(M, 3, 5) with
    the rows of cells(M, 3, 6): the per-pair cocycle_check filter over
    [(g, mu) for g in gs for mu in mus], in that order.  A tabular
    module that breaks its laws over M is refused first
    (hmod.require_lawful).
    """
    require_lawful(module, M)
    if search_automorphisms:
        if M.size > 4:
            raise GroupoidError("automorphism search is capped at |M| <= 4")
        if not module.constant:
            raise GroupoidError("automorphism search needs constant coefficients")
        isos = monoid_automorphisms(M)
    else:
        isos = [tuple(range(M.size))]
    try:
        source, groups = _cochain_space(M, module, cells(M, 3, 5))
    except BruteForceCapError as ex:
        raise GroupoidError("the classification searches the level-3 5-cochains: %s" % ex)
    cocycles = [({c.letters: v for c, v in zip(source, f) if c.seps == (1, 1)},
                 {c.letters: v for c, v in zip(source, f) if c.seps == (2,)})
                for f in _search(module, groups, _rows(M, module, source, cells(M, 3, 6)))]
    mus = enumerate_cochain_tables(M, module, 2)
    # psi is the identity family; f ranges over the binary tables, the
    # same list as mu
    psi = {x: IntMatrix.identity(module.group(x).ngens) for x in M.elements()}
    classes = []
    representatives = []
    for pair in cocycles:
        src = SMAGroupoid(M, module, *pair)
        for cls, tgt in zip(classes, representatives):
            if any(verify_monoidal_iso(src, tgt, MonoidalFunctorData(i, psi, f))[0]
                   for i in isos for f in mus):
                cls.append(pair)
                break
        else:
            classes.append([pair])
            representatives.append(src)
    return cocycles, classes
