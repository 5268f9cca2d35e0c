"""Modules over the arrow category of a commutative monoid.

A module assigns a finitely presented abelian group A(x) to every
element x and a translation homomorphism y_*: A(x) -> A(xy) to every
pair, with e_* = id and y_* z_* = (yz)_*.  Groups are presented as
Z^k / column-lattice(relations); homomorphisms are integer matrices
compatible with the relations.

Free modules on a graded basis with projection pi, and the dualization
of basis-level maps into coefficient matrices (the Hom(-, A) functor on
free modules), also live here.  Dualization returns a row-sparse matrix:
each bar differential has a few terms, so a coboundary is about 1%
nonzero, and it stays sparse through the linear algebra.
"""

import json

from .monoid import FiniteCommutativeMonoid, is_integer
from .zlinalg import (IntMatrix, AbGroupInvariants, SparseIntMatrix, _dict_submul,
                      block_diagonal, lattice_basis, lattice_contains, snf_diagonal,
                      staircase_pivots)


class FGAbelianGroup:
    """Z^ngens modulo the column lattice of `relations`; relation_basis
    is that lattice's canonical staircase basis (lattice_basis), whose
    columns are independent."""

    __slots__ = ("ngens", "relations", "relation_basis", "_pivots")

    def __init__(self, ngens, relations=None):
        self.ngens = ngens
        if relations is None:
            relations = IntMatrix(ngens, 0)
        if relations.rows != ngens:
            raise ValueError("relations have %d rows for %d generators"
                             % (relations.rows, ngens))
        self.relations = relations
        self.relation_basis = lattice_basis(relations)
        self._pivots = staircase_pivots(self.relation_basis)

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
        rel = IntMatrix(k, len(inv.torsion))
        for i, d in enumerate(inv.torsion):
            rel.data[inv.free_rank + i][i] = d
        return cls(k, rel)

    def invariants(self):
        diag = snf_diagonal(self.relations)
        return AbGroupInvariants.from_diagonal(diag, free_rank=self.ngens - len(diag))

    def order(self):
        return self.invariants().order()

    def zero(self):
        return [0] * self.ngens

    def is_zero_element(self, vec):
        if all(v == 0 for v in vec):
            return True
        return lattice_contains(self.relation_basis, vec, self._pivots)

    def relation_coordinates(self, rows):
        """X with relation_basis * X = B for every column of B, by one
        staircase elimination; B (a row per generator) and X (a row per
        relation) are lists of sparse row dicts.  Also returns the sorted
        columns of B outside the relations, where X means nothing: a
        column that does not divide at a pivot stays behind in B."""
        H = self.relation_basis
        B = [dict(row) for row in rows]
        X = [{} for _ in range(H.cols)]
        for r, j in self._pivots:
            p = H.data[r][j]
            X[j] = quot = {c: v // p for c, v in B[r].items() if v % p == 0}
            for i in range(r, H.rows):
                if H.data[i][j]:
                    _dict_submul(B[i], quot, H.data[i][j])
        return X, sorted(set().union(*B))

    def elements_equal(self, a, b):
        return self.is_zero_element([x - y for x, y in zip(a, b)])

    def element_list(self):
        """All elements as canonical coset representatives; requires a
        finite group."""
        H = self.relation_basis
        if H.cols < self.ngens:
            raise ValueError("group is infinite")
        # H is a square staircase; box of representatives below the pivots
        bounds = [0] * self.ngens
        for i, j in self._pivots:
            bounds[i] = H.data[i][j]
        reps = [[]]
        for b in bounds:
            reps = [r + [v] for r in reps for v in range(b)]
        return [self.reduce(r) for r in reps]

    def reduce(self, vec):
        """Canonical representative of vec modulo the relation lattice."""
        H = self.relation_basis
        v = list(vec)
        for r, j in self._pivots:
            q = v[r] // H.data[r][j]
            if q:
                for i in range(r, H.rows):
                    if H.data[i][j]:
                        v[i] -= q * H.data[i][j]
        return v

    def __eq__(self, other):
        return (isinstance(other, FGAbelianGroup) and self.ngens == other.ngens
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ngens, self.relations))

    def __repr__(self):
        return "FGAbelianGroup(%r)" % (self.invariants(),)


class ModuleError(ValueError):
    pass


class HModule:
    """Tabular module over a finite commutative monoid: one presented
    group per element plus all translation matrices.  The universal
    coefficient route reads group(0) alone, so constant=True is refused
    unless every A(x) is that group and every translation the identity."""

    __slots__ = ("monoid", "groups", "actions", "constant")

    def __init__(self, monoid, groups, actions, constant=False):
        self.monoid = monoid
        self.groups = list(groups)
        self.actions = dict(actions)
        self.constant = constant
        if constant and not self._is_constant():
            raise ModuleError("a module flagged constant needs one value group and "
                              "identity translations modulo its relations")

    def _is_constant(self):
        G = self.groups[0]
        return (all(g == G for g in self.groups)
                and all(_is_identity(a, G) for a in self.actions.values()))

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
        self._identity = IntMatrix.identity(group.ngens)
        self.constant = True

    def group(self, x):
        return self._group

    def action(self, x, y):
        """The identity matrix, one shared object: callers must not
        mutate it."""
        return self._identity

    def translate(self, x, y, vec):
        return list(vec)


class SampledModule:
    """Coefficient groups known only at finitely many elements, with
    identity translations; used for closed-form computations over the
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


def constant_module(group, monoid=None):
    """The constant module: A(x) = group, all translations the identity."""
    return ConstantModule(group, monoid)


def constant_as_tabular(group, monoid):
    """Constant module materialized as an explicit table (mostly for
    validate_module tests)."""
    n = monoid.size
    ident = IntMatrix.identity(group.ngens)
    actions = {(x, y): ident for x in range(n) for y in range(n)}
    return HModule(monoid, [group] * n, actions, constant=True)


def _matrix_maps_relations(mat, src, tgt):
    # mat * rel_src must land in the relation lattice of tgt
    for j in range(src.relations.cols):
        img = mat.mul_vector(src.relations.column(j))
        if not tgt.is_zero_element(img):
            return False
    return True


def _is_identity(mat, group):
    """mat is the identity of group modulo its relations."""
    return mat.rows == mat.cols == group.ngens and all(
        group.is_zero_element([v - int(i == j) for i, v in enumerate(mat.column(j))])
        for j in range(group.ngens))


def validate_module(module):
    """Check the module laws exhaustively over M^2 (and M^3 for the
    composition law).  Returns a list of violations, empty when valid."""
    M = module.monoid
    if not isinstance(M, FiniteCommutativeMonoid):
        raise ModuleError("validate_module needs a finite base monoid")
    n = M.size
    e = M.identity
    bad = []
    for x in range(n):
        for y in range(n):
            mat = module.action(x, y)
            src = module.group(x)
            tgt = module.group(M.op(x, y))
            if mat.rows != tgt.ngens or mat.cols != src.ngens:
                bad.append(("shape", (x, y)))
                continue
            if not _matrix_maps_relations(mat, src, tgt):
                bad.append(("relations", (x, y)))
    bad += [("identity", (x,)) for x in range(n)
            if not _is_identity(module.action(x, e), module.group(x))]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # z_* y_* = (yz)_* : A(x) -> A(xyz)
                first = module.action(M.op(x, y), z).mul(module.action(x, y))
                second = module.action(x, M.op(y, z))
                tgt = module.group(M.op(M.op(x, y), z))
                for j in range(first.cols):
                    if not tgt.elements_equal(first.column(j), second.column(j)):
                        bad.append(("composition", (x, y, z)))
                        break
                else:
                    continue
                break
    return bad


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
    for x in range(n):
        for y in range(n):
            xy = M.op(x, y)
            mat = IntMatrix(len(bases[xy]), len(bases[x]))
            for col, (u, v) in enumerate(bases[x]):
                mat.data[index[xy][(M.op(y, u), v)]][col] = 1
            actions[(x, y)] = mat
    return HModule(M, groups, actions)


# -- free modules on graded bases ------------------------------------------

class FreeBasis:
    """An ordered list of generators with projection values in M."""

    __slots__ = ("generators", "pi")

    def __init__(self, generators, pi):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")
        self.pi = dict(pi)
        for g in self.generators:
            if g not in self.pi:
                raise ValueError("generator %r has no pi value" % (g,))

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


class CochainGroup:
    """Hom of a free module on `basis` into a module A: the direct sum
    of the A(pi s) over the basis, with fixed generator offsets."""

    __slots__ = ("basis", "module", "blocks", "offsets", "total")

    def __init__(self, basis, module):
        self.basis = basis
        self.module = module
        self.blocks = [module.group(basis.pi[g]) for g in basis.generators]
        self.offsets = []
        total = 0
        for g in self.blocks:
            self.offsets.append(total)
            total += g.ngens
        self.total = total

    def relation_matrix(self):
        """The block-diagonal relations of the value groups, row-sparse."""
        return block_diagonal([g.relations for g in self.blocks])

    def invariants(self):
        parts = [g.invariants() for g in self.blocks]
        free = sum(p.free_rank for p in parts)
        tors = [d for p in parts for d in p.torsion]
        return AbGroupInvariants.from_diagonal(tors, free_rank=free)


class PiMismatchError(ValueError):
    pass


def dualize(d, source, target, module, monoid):
    """Matrix of f |-> f . d from hom(source, A) to hom(target, A), as
    a SparseIntMatrix (one dict col -> value per row, no zeros stored).

    d maps each target generator to a formal combination (a dict
    (u, source_generator) -> coefficient) with u * pi(source_generator)
    equal to pi(target generator) for every term.
    """
    src = CochainGroup(source, module)
    tgt = CochainGroup(target, module)
    src_index = {g: i for i, g in enumerate(source.generators)}
    rows = [{} for _ in range(tgt.total)]
    for ti, tgen in enumerate(target.generators):
        chain = d.get(tgen, {})
        toff = tgt.offsets[ti]
        tpi = target.pi[tgen]
        for (u, sgen), coeff in chain.items():
            if coeff == 0:
                continue
            si = src_index[sgen]
            spi = source.pi[sgen]
            if monoid.op(u, spi) != tpi:
                raise PiMismatchError(
                    "term %r of d(%r): u*pi(s) = %r but pi(t) = %r"
                    % ((u, sgen), tgen, monoid.op(u, spi), tpi))
            act = module.action(spi, u)
            soff = src.offsets[si]
            for i in range(act.rows):
                row = rows[toff + i]
                for j, a in enumerate(act.data[i]):
                    if a:
                        v = row.get(soff + j, 0) + coeff * a
                        if v:
                            row[soff + j] = v
                        else:
                            del row[soff + j]
    return SparseIntMatrix(tgt.total, src.total, rows)


# -- descriptors -------------------------------------------------------------

# a group on k generators gets a relation matrix of k rows, and a
# constant module on it a k x k identity translation: above this count
# that identity would need more than 2^32 entries, which no memory holds,
# so such a group is refused before anything is allocated
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
        raise ModuleError("%d generators are above %d, where a constant module's "
                          "identity translation would not fit in memory"
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
                actions[(x, y)] = IntMatrix(tgt.ngens, src.ngens, rows)
        mod = HModule(monoid, groups, actions)
        bad = validate_module(mod)
        if bad:
            raise ModuleError("tabular module violates the module laws: %r" % (bad[:3],))
        return mod
    raise ModuleError("unknown coefficient descriptor kind: %r" % (kind,))


def parse_group_shorthand(text):
    """Coefficient shorthand: Z, Z/n, Z^r, and + - separated sums such
    as Z/2+Z/4 or Z^2+Z/3."""
    free = 0
    torsion = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ModuleError("cannot parse coefficient shorthand %r" % (part,))
    return _group_from_orders(free, torsion)
