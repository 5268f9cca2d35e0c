"""Modules over the arrow category of a commutative monoid.

A module assigns a finitely presented abelian group A(x) to every
element x and a translation homomorphism y_*: A(x) -> A(xy) to every
pair, with e_* = id and y_* z_* = (yz)_*.  Groups are presented as
Z^k / column-lattice(relations), kept as a certified Hermite basis of
that lattice; homomorphisms are integer matrices compatible with the
relations.

The cochains on one degree of a graded free basis (CochainGroup: the
generators, their projections pi to M and the value groups A(pi g)),
and dualize, the Hom(-, A) functor on free modules, which turns a map
of bases into the matrix between two cochain groups its caller built,
also live here.  Dualization returns a row-sparse matrix:
each bar differential has a few terms, so a coboundary is about 1%
nonzero, and it stays sparse through the linear algebra.
"""

import json

from .monoid import FiniteCommutativeMonoid, generating_set, is_integer
from .zlinalg import (IntMatrix, AbGroupInvariants, block_diagonal, is_prime, lattice_basis,
                      snf_diagonal, staircase_reduce, staircase_solve)


class FGAbelianGroup:
    """Z^ngens modulo the column lattice of the given relations, kept
    only as relation_basis, that lattice's certified canonical staircase
    basis (lattice_basis), whose columns are independent.  Two groups
    are equal when they present the same lattice."""

    __slots__ = ("ngens", "relation_basis", "_columns")

    def __init__(self, ngens, relations=None):
        self.ngens = ngens
        if relations is None:
            relations = IntMatrix(ngens, 0)
        if relations.rows != ngens:
            raise ValueError("relations have %d rows for %d generators"
                             % (relations.rows, ngens))
        self.relation_basis = lattice_basis(relations)
        self._columns = None

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def cyclic(cls, n):
        return cls(1, IntMatrix.from_rows([[n]]))

    @classmethod
    def from_invariants(cls, inv):
        """Canonical presentation Z^free + (+) Z/d: free generators
        first, then one generator per torsion factor."""
        k = inv.free_rank + len(inv.torsion)
        rows = [{} for _ in range(inv.free_rank)] + [{i: d} for i, d in enumerate(inv.torsion)]
        return cls(k, IntMatrix(k, len(inv.torsion), rows))

    def invariants(self):
        diag = snf_diagonal(self.relation_basis)
        return AbGroupInvariants.from_diagonal(diag, free_rank=self.ngens - len(diag))

    def order(self):
        return self.invariants().order()

    def zero(self):
        return [0] * self.ngens

    def is_zero_element(self, vec):
        """vec lies in the relation lattice: it reduces to 0."""
        return not any(self.reduce(vec))

    def vanishes(self, terms):
        """The signed sum of c * vec over the (c, vec) pairs of terms is 0
        in the group: the one test of every identity written out by hand
        (the coherence axioms, the transport identities of a monoidal
        isomorphism, Grillet's symmetry conditions).  An empty sum
        vanishes."""
        acc = [0] * self.ngens
        for c, vec in terms:
            for i, v in enumerate(vec):
                acc[i] += c * v
        return not any(acc) or self.is_zero_element(acc)

    def element_list(self):
        """All elements as canonical coset representatives; requires a
        finite group."""
        if self.relation_basis.cols < self.ngens:
            raise ValueError("group is infinite")
        # a square staircase: representatives in the box below its diagonal
        reps = [[]]
        for i, row in enumerate(self.relation_basis.row_dicts()):
            reps = [r + [v] for r in reps for v in range(row[i])]
        return [self.reduce(r) for r in reps]

    def reduce(self, vec):
        """Canonical representative of vec modulo the relation lattice; the
        basis's columns are built on first use, as few routes reduce."""
        if self._columns is None:
            self._columns = self.relation_basis.col_dicts()
        return staircase_reduce(self._columns, vec)

    def __eq__(self, other):
        return (isinstance(other, FGAbelianGroup) and self.ngens == other.ngens
                and self.relation_basis == other.relation_basis)

    def __hash__(self):
        return hash((self.ngens, self.relation_basis))

    def __repr__(self):
        return "FGAbelianGroup(%r)" % (self.invariants(),)


class ModuleError(ValueError):
    pass


class HModule:
    """Tabular module over a finite commutative monoid: one presented
    group per element plus all translation matrices.  It is never taken
    for constant, whatever its table: ranks over F_p answer it when
    prime_exponent finds a prime, the mapping cone otherwise."""

    __slots__ = ("monoid", "groups", "actions")
    constant = False

    def __init__(self, monoid, groups, actions):
        self.monoid = monoid
        self.groups = list(groups)
        self.actions = dict(actions)

    def group(self, x):
        return self.groups[x]

    def action(self, x, y):
        """Matrix of y_*: A(x) -> A(xy)."""
        return self.actions[(x, y)]

    def translate(self, x, y, vec):
        return self.action(x, y).mul_vector(vec)


class ConstantModule:
    """Constant coefficients: the same group at every element, identity
    translations.  Works over any monoid, including the infinite cyclic
    one."""

    __slots__ = ("monoid", "_group", "_identity", "constant")

    def __init__(self, group, monoid=None):
        self.monoid = monoid
        self._group = group
        self._identity = None
        self.constant = True

    def group(self, x):
        return self._group

    def action(self, x, y):
        """The identity matrix, built on first read (the universal
        coefficient route never reads it) and then one shared object:
        callers must not mutate it."""
        if self._identity is None:
            self._identity = IntMatrix.identity(self._group.ngens)
        return self._identity

    def translate(self, x, y, vec):
        return list(vec)


def constant_module(group, monoid=None):
    """The constant module: A(x) = group, all translations the identity."""
    return ConstantModule(group, monoid)


def _matrix_maps_relations(mat, src, tgt):
    """mat * rel_src lands in the relation lattice of tgt."""
    return not staircase_solve(tgt.relation_basis, mat.mul(src.relation_basis).row_dicts())[1]


def _columns_equal_mod(group, a, b):
    """Every column of a equals the same column of b modulo the
    relations of group: at once when a == b, else one solve on the block
    a - b."""
    return a == b or not staircase_solve(group.relation_basis, a.sub(b).row_dicts())[1]


def _is_identity(mat, group):
    """mat is the identity of group modulo its relations."""
    return (mat.rows == mat.cols == group.ngens
            and _columns_equal_mod(group, mat, IntMatrix.identity(group.ngens)))


def validate_module(module):
    """Check the module laws on a generating set S of M
    (monoid.generating_set).  Returns a list of (kind, args) violations,
    empty when valid.  require_lawful turns them into the one refusal
    every entry point that reads a tabular module makes.

    Checked: every y_*: A(x) -> A(xy) has the shape of one, for all of
    M^2; s_* maps the relations of A(x) into those of A(xs), for every x
    and s in S; e_* = id on every A(x); and the composition law
    s_* y_* = (ys)_* on A(x), for every x, y and s in S; each equality
    holds modulo the relations of its target.  That is every law, for
    every z in place of s, by induction on a word ws for z in S: a
    congruence modulo relations survives applying a map that preserves
    relations on the left and multiplying by any integer matrix on the
    right (the columns of the difference stay in the relation lattice).
    Relations: e_* = id preserves them, a matrix congruent to one that
    does preserves them too, and (ws)_* = s_* w_* is a product of two
    that do.  Composition: e_* y_* = y_* since e_* = id, and
    (yws)_* = s_* (yw)_* = s_* w_* y_* = (ws)_* y_*, by the law for s at
    (x, yw), the law for w applied by s_*, and the law for s at (xy, w)
    multiplied by y_*.  That takes |M|^2 |S| products where checking
    every z takes |M|^3, and |S| = 1 on cyclic tables."""
    M = module.monoid
    if not isinstance(M, FiniteCommutativeMonoid):
        raise ModuleError("validate_module needs a finite base monoid")
    n = M.size
    e = M.identity
    gens = generating_set(M)
    bad = []
    for x in range(n):
        for y in range(n):
            mat = module.action(x, y)
            src = module.group(x)
            tgt = module.group(M.op(x, y))
            if mat.rows != tgt.ngens or mat.cols != src.ngens:
                bad.append(("shape", (x, y)))
            elif y in gens and not _matrix_maps_relations(mat, src, tgt):
                bad.append(("relations", (x, y)))
    if any(kind == "shape" for kind, _ in bad):
        return bad  # the products below would not be defined
    bad += [("identity", (x,)) for x in range(n)
            if not _is_identity(module.action(x, e), module.group(x))]
    for x in range(n):
        for y in range(n):
            xy = M.op(x, y)
            for s in gens:
                # s_* y_* = (ys)_* : A(x) -> A(xys)
                first = module.action(xy, s).mul(module.action(x, y))
                second = module.action(x, M.op(y, s))
                if not _columns_equal_mod(module.group(M.op(xy, s)), first, second):
                    bad.append(("composition", (x, y, s)))
                    break
    return bad


def require_lawful(module, M):
    """Raise ModuleError unless module is a module over M that keeps its
    laws (validate_module finds no violation).  A constant module passes
    at once: it keeps them over any monoid."""
    if module.constant:
        return
    if module.monoid != M:
        raise ModuleError("the coefficient module lies over another monoid")
    bad = validate_module(module)
    if bad:
        raise ModuleError("tabular module violates the module laws: %r" % (bad[:3],))


def prime_exponent(module):
    """The prime p when every A(x) of a module over a finite monoid is
    presented as (Z/p)^k by the relation basis p I_k, an A(x) with no
    generators passing; None otherwise.  p must pass zlinalg.is_prime,
    so 1, 4 or 561 give None, as do mixed primes, any other presentation
    of an F_p-vector space, and a module known at finitely many
    elements of an infinite monoid."""
    M = module.monoid
    if not isinstance(M, FiniteCommutativeMonoid):
        return None
    p = None
    for x in range(M.size):
        g = module.group(x)
        if not g.ngens:
            continue
        if p is None:
            p = g.relation_basis.row_dicts()[0].get(0)
        if p is None or g.relation_basis != IntMatrix.diagonal([p] * g.ngens):
            return None
    return p if p is not None and is_prime(p) else None


def zm_as_hmodule(M):
    """The algebra ZM seen as a tabular module: ZM(x) is free on the
    pairs (u, v) with uv = x, and y_*(u, v) = (yu, v)."""
    n = M.size
    bases = []
    index = []
    for x in range(n):
        pairs = [(u, v) for u in range(n) for v in range(n) if M.op(u, v) == x]
        bases.append(pairs)
        index.append({p: i for i, p in enumerate(pairs)})
    groups = [FGAbelianGroup.free(len(bases[x])) for x in range(n)]
    actions = {}
    shared = {}  # equal rows, all 0/1, are one dict: matrices never mutate them
    for x in range(n):
        for y in range(n):
            xy = M.op(x, y)
            rows = [{} for _ in bases[xy]]
            for col, (u, v) in enumerate(bases[x]):
                rows[index[xy][(M.op(y, u), v)]][col] = 1
            actions[(x, y)] = IntMatrix(len(bases[xy]), len(bases[x]),
                                        [shared.setdefault(tuple(r), r) for r in rows])
    return HModule(M, groups, actions)


# -- cochains on graded free bases -----------------------------------------

class CochainGroup:
    """Hom of the free module on `generators` into a module A: the
    direct sum of the A(pi g), with fixed offsets.  pi, a dict over the
    generators and possibly more (a DGA's own), is read, not copied."""

    __slots__ = ("generators", "pi", "module", "blocks", "offsets", "total")

    def __init__(self, generators, pi, module):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")
        for g in self.generators:
            if g not in pi:
                raise ValueError("generator %r has no pi value" % (g,))
        self.pi = pi
        self.module = module
        self.blocks = [module.group(pi[g]) for g in self.generators]
        self.offsets = []
        total = 0
        for g in self.blocks:
            self.offsets.append(total)
            total += g.ngens
        self.total = total

    def relation_matrix(self):
        """The block-diagonal relation bases of the value groups, itself
        a column-Hermite basis, row-sparse."""
        return block_diagonal([g.relation_basis for g in self.blocks])


class PiMismatchError(ValueError):
    pass


def dualize(d, source, target, monoid):
    """Matrix of f |-> f . d from the cochain group source to the cochain
    group target (CochainGroups over one module A), as an IntMatrix.

    d maps each target generator to a formal combination (a dict
    (u, source_generator) -> coefficient) with u * pi(source_generator)
    equal to pi(target generator) for every term.  Each term applies the
    stored u_*, the stored e_* included, never an identity of its own.
    """
    module = source.module
    if target.module is not module:
        raise ValueError("dualize: source and target cochains take values in different modules")
    src_at = {g: (off, source.pi[g]) for g, off in zip(source.generators, source.offsets)}
    actions = {}  # (x, u) -> (ux, the row dicts of u_* on A(x))
    rows = [{} for _ in range(target.total)]
    for tgen, toff in zip(target.generators, target.offsets):
        chain = d.get(tgen, {})
        tpi = target.pi[tgen]
        for (u, sgen), coeff in chain.items():
            if coeff == 0:
                continue
            soff, spi = src_at[sgen]
            act = actions.get((spi, u))
            if act is None:
                act = actions[(spi, u)] = (monoid.op(u, spi), module.action(spi, u).row_dicts())
            if act[0] != tpi:
                raise PiMismatchError("term %r of d(%r): u*pi(s) = %r but pi(t) = %r"
                                      % ((u, sgen), tgen, act[0], tpi))
            for i, arow in enumerate(act[1]):
                row = rows[toff + i]
                for j, a in arow.items():
                    v = row.get(soff + j, 0) + coeff * a
                    if v:
                        row[soff + j] = v
                    else:
                        del row[soff + j]
    return IntMatrix(target.total, source.total, rows)


# -- descriptors -------------------------------------------------------------

# a group on k generators with k relations gets its certified Hermite
# basis (zlinalg.lattice_basis) in time quadratic in k: (Z/2)^k takes
# 0.5 s to build at k = 2^12, 8.7 s at 2^14 and 149 s at this count (one
# core of a shared 2-core host), so a group above it is refused before
# anything is allocated; a free Z^k has no relations, and
# H^2(C(1,2), 1; Z^k) = (Z/2)^k answers in 0.2 s at this count
MAX_GENERATORS = 1 << 16


def _group_from_orders(free_rank, torsion):
    """Z^free_rank + (+) Z/d for d in torsion; orders below 1 are
    rejected, orders 1 vanish."""
    if not is_integer(free_rank) or free_rank < 0:
        raise ModuleError("free rank must be a non-negative integer, got %r"
                          % (free_rank,))
    if not all(is_integer(d) and d >= 1 for d in torsion):
        raise ModuleError("torsion orders must be integers >= 1, got %r" % (torsion,))
    if free_rank + len(torsion) > MAX_GENERATORS:
        raise ModuleError("%d generators are above %d, where building the group's "
                          "relations takes minutes, growing with their square"
                          % (free_rank + len(torsion), MAX_GENERATORS))
    inv = AbGroupInvariants.from_diagonal(torsion, free_rank=free_rank)
    return FGAbelianGroup.from_invariants(inv)


def group_from_descriptor(desc):
    if not isinstance(desc, dict):
        raise ModuleError("group descriptor must be a JSON object, got %r" % (desc,))
    torsion = desc.get("torsion", [])
    if not isinstance(torsion, list):
        raise ModuleError("torsion must be a list, got %r" % (torsion,))
    return _group_from_orders(desc.get("free_rank", 0), torsion)


def module_from_descriptor(desc, monoid):
    if isinstance(desc, str):
        desc = json.loads(desc)
    if not isinstance(desc, dict):
        raise ModuleError("coefficient descriptor must be a JSON object")
    kind = desc.get("kind")
    if kind == "constant":
        return constant_module(group_from_descriptor(desc.get("group")), monoid)
    if kind == "tabular":
        if not isinstance(monoid, FiniteCommutativeMonoid):
            raise ModuleError("tabular modules need a finite monoid")
        n = monoid.size
        group_descs = desc.get("groups", {})
        action_descs = desc.get("actions", {})
        for name, descs in (("groups", group_descs), ("actions", action_descs)):
            if not isinstance(descs, dict):
                raise ModuleError("tabular %s must be a JSON object, got %r" % (name, descs))
        groups = []
        for x in range(n):
            key = str(x)
            if key not in group_descs:
                raise ModuleError("tabular module missing group at element %d" % x)
            groups.append(group_from_descriptor(group_descs[key]))
        actions = {}
        for x in range(n):
            for y in range(n):
                key = "%d,%d" % (x, y)
                if key not in action_descs:
                    raise ModuleError("tabular module missing action %s" % key)
                rows = action_descs[key]
                tgt = groups[monoid.op(x, y)]
                src = groups[x]
                if (not isinstance(rows, list) or len(rows) != tgt.ngens
                        or any(not isinstance(row, list) or len(row) != src.ngens
                               or not all(is_integer(v) for v in row)
                               for row in rows)):
                    raise ModuleError("action %s must be an integer %dx%d matrix, got %r"
                                      % (key, tgt.ngens, src.ngens, rows))
                actions[(x, y)] = IntMatrix.from_rows(rows, src.ngens)
        # the laws are checked once, by the entry point that reads the
        # module (require_lawful), not here
        return HModule(monoid, groups, actions)
    raise ModuleError("unknown coefficient descriptor kind: %r" % (kind,))


def parse_group_shorthand(text):
    """Coefficient shorthand: Z, Z/n, Z^r, and + - separated sums such
    as Z/2+Z/4 or Z^2+Z/3."""
    free = 0
    torsion = []
    for part in text.split("+"):
        part = part.strip()
        try:
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError
        except ValueError:
            raise ModuleError("cannot parse coefficient shorthand %r" % (part,)) from None
    return _group_from_orders(free, torsion)
