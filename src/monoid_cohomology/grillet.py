"""Grillet's symmetric cochain complex in degrees 1-4, its inclusion
into the level-3 complex, and the comparison isomorphisms.

Symmetric n-cochains are normalized functions on n-tuples of non-unit
arguments, cut out inside the full cochain group by the symmetry
identities (degree 2: f(x,y) = f(y,x); degree 3: the two
alternating identities; degree 4: four identities).  An identity whose
instances at the tuples of one orbit of the variables agree up to sign
is written once per orbit, at the orbit's least tuple: f(x,y) = f(y,x)
on {x, y}, the reversal identities of degrees 3 and 4 on {a, reversed
a}, and the cyclic sums of degrees 3 and 4 on the rotations of a (on
an order-4 table, 29 degree-3 rows instead of 54; the lattice they cut
out is the same).  Each identity is a generator of a free basis, over
the product of its tuples, sent to its formal sum of n-tuples; the
constraint matrix is that map dualized (hmod.dualize), next to the
relations of the identities' value groups, so each constraint solution
set is a preimage lattice in the free cover, found on the same sparse
path as everything else.  The inclusion i_n into the level-3 complex
is dualize of a basis map as well.

The n-tuples are the level-1 cells of degree n, and Grillet's
coboundary is minus the level-1 (Leech) coboundary:
(delta^n f)(x_0, ..., x_n) = -f(d[x_0 | ... | x_n]), so delta^n is read
off the level-1 bar to degree n + 1 and no formula of its own is kept.
H^n_G is the preimage lattice of _cocycle_conditions over the lattice
_coboundaries, each written once.

Each entry point builds one level-1 bar and reads every cochain group
on tuples from it; it builds only what it reads, and each cochain group
once (dualize reads the groups its caller built):
- grillet_cohomology(n): the bar to degree n + 1, the symmetry
  constraints of degree n, the symmetric lattice of degree n - 1 (none
  for n = 1), delta^n and delta^(n-1), and of degree n + 1 only the
  relations;
- inclusion_chainmap: the bar to degree 4, delta^1..delta^3, the
  symmetric lattices of degrees 1-3, and one level-3 bar to degree 6
  and i_1..i_4 on it;
- injectivity_check: what grillet_cohomology(3) builds, and one level-3
  bar to degree 5 and i_3 on it.

grillet_cohomology, inclusion_chainmap and injectivity_check first refuse
a tabular module that breaks its laws over M (hmod.require_lawful), as
cohomology_group does.
"""

from itertools import product

from .bar import iterated_bar
from .cohomology import coboundary, cochain_group
from .hmod import CochainGroup, dualize, require_lawful
from .zlinalg import (lattice_basis, preimage_lattice_multi, staircase_solve,
                      subquotient_invariants)


def _symmetry_identities(M, n):
    """The symmetry identities of degree n as formal chains: each is a
    list of (coefficient, argument tuple), all tuples with one product,
    one per orbit where the module docstring says so."""
    tuples = product(M.nonunit(), repeat=n)
    rows = []
    if n == 2:
        for (x, y) in tuples:
            if x < y:
                rows.append([(1, (x, y)), (-1, (y, x))])
    elif n == 3:
        for (x, y, z) in tuples:
            a = (x, y, z)
            if a <= (z, y, x):
                rows.append([(1, a), (1, (z, y, x))])
            if a <= (y, z, x) and a <= (z, x, y):
                rows.append([(1, a), (1, (y, z, x)), (1, (z, x, y))])
    elif n == 4:
        for (x, y, z, t) in tuples:
            a = (x, y, z, t)
            if z == y and t == x:
                rows.append([(1, a)])
            if a <= (t, z, y, x):
                rows.append([(1, (t, z, y, x)), (1, a)])
            if a <= (y, z, t, x) and a <= (z, t, x, y) and a <= (t, x, y, z):
                rows.append([(1, a), (-1, (y, z, t, x)),
                             (1, (z, t, x, y)), (-1, (t, x, y, z))])
            rows.append([(1, a), (-1, (y, x, z, t)),
                         (1, (y, z, x, t)), (-1, (y, z, t, x))])
    return rows


def symmetry_constraints(M, amb, n):
    """The pair (identities, relations) whose preimage lattice in amb,
    the degree-n cochain group of a level-1 bar, is the symmetric
    n-cochains, 1 <= n <= 4 (degree 1 is unconstrained).  Identity k is
    generator k of a free basis over the product of its tuples, taken
    from the tuples since the terms of one may cancel (x = y = z = t in
    degree 4); it maps to its sum of n-tuples, and the identities are
    that map dualized, with the relations of their value groups.
    dualize applies the stored e_*, which for a module that keeps its
    laws is the identity modulo relations, so the lattice is the one the
    identities cut out."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric cochains are defined for degrees 1..4")
    term = {c.letters: (M.identity, c) for c in amb.generators}
    d = {}
    pi = {}
    for k, identity in enumerate(_symmetry_identities(M, n)):
        pi[k] = amb.pi[term[identity[0][1]][1]]
        chain = d[k] = {}
        for c, args in identity:
            key = term[args]
            chain[key] = chain.get(key, 0) + c
    identities = CochainGroup(range(len(d)), pi, amb.module)
    return dualize(d, amb, identities, M), identities.relation_matrix()


def symmetric_cochains(M, amb, n):
    """The lattice of the symmetric n-cochains inside amb, 1 <= n <= 4:
    the preimage lattice of symmetry_constraints."""
    return preimage_lattice_multi([symmetry_constraints(M, amb, n)], amb.total)


def _delta(level1, source, target):
    """delta^n between the degree-n and degree-(n + 1) cochain groups of
    a level-1 bar to degree n + 1 or beyond."""
    return coboundary(level1, source, target).scaled(-1)


def _cocycle_conditions(M, level1, amb, n):
    """The conditions whose preimage lattice in amb, the degree-n
    cochains of level1, is the symmetric n-cocycles: the symmetry
    identities, and delta^n into the relations of degree n + 1."""
    above = cochain_group(level1, n + 1, amb.module)
    return [symmetry_constraints(M, amb, n),
            (_delta(level1, amb, above), above.relation_matrix())]


def _coboundaries(M, level1, amb, n):
    """delta^(n-1)(S^(n-1)) | rel_n, the symmetric n-coboundaries with
    the relations of amb, S^(n-1) the symmetric (n-1)-cochains (only the
    relations for n = 1)."""
    image = amb.relation_matrix()
    if n > 1:
        below = cochain_group(level1, n - 1, amb.module)
        image = _delta(level1, below, amb).mul(symmetric_cochains(M, below, n - 1)).hstack(image)
    return image


def grillet_cohomology(M, module, n):
    """H^n_G for n in {1, 2, 3}: kernel of delta^n restricted to the
    symmetric lattice modulo delta^{n-1} of the symmetric lattice below
    (plus the coefficient relations)."""
    if not 1 <= n <= 3:
        raise ValueError("Grillet cohomology is computed for degrees 1..3")
    require_lawful(module, M)
    level1 = iterated_bar(M, 1, n + 1)
    amb = cochain_group(level1, n, module)
    kernel = preimage_lattice_multi(_cocycle_conditions(M, level1, amb, n), amb.total)
    return subquotient_invariants(kernel, _coboundaries(M, level1, amb, n))


# -- the inclusion into the level-3 complex ----------------------------------

def _inclusion(M, n, src, tgt):
    """Matrix of i_n from the cochains src on the n-tuples into those
    tgt on the level-3 cells of degree n + 2: (-1)^(n+1) f on the plain
    words, 0 on the words with a higher separator.  It is dualize of
    the map sending each plain word to (-1)^(n+1) times its tuple, so it
    applies the stored e_*, the identity modulo relations on a module
    that keeps its laws."""
    tuple_of = {c.letters: c for c in src.generators}
    sign = 1 if n % 2 else -1
    d = {cell: {(M.identity, tuple_of[cell.letters]): sign} for cell in tgt.generators
         if cell.seps == (1,) * (len(cell.letters) - 1)}
    return dualize(d, src, tgt, M)


def inclusion_chainmap(M, module):
    """Build i_1..i_4 (i_1 = id, i_2 = -id, i_3 = (f, 0),
    i_4 = (-f, 0, 0, 0)) and check the three commuting squares
    d^(3) . i_n = i_{n+1} . delta^n on every generator of the symmetric
    lattices (the last square is the one that needs the symmetry
    identities).  Returns (mats, squares): the matrices by n, and each
    square's name mapped to whether it commutes."""
    require_lawful(module, M)
    dga = iterated_bar(M, 3, 6)
    level3 = {k: cochain_group(dga, k, module) for k in range(3, 7)}
    level1 = iterated_bar(M, 1, 4)
    tuples = {n: cochain_group(level1, n, module) for n in (1, 2, 3, 4)}
    mats = {n: _inclusion(M, n, tuples[n], level3[n + 2]) for n in (1, 2, 3, 4)}
    squares = {}
    for n in (1, 2, 3):
        lat = symmetric_cochains(M, tuples[n], n)
        delta = _delta(level1, tuples[n], tuples[n + 1])
        lhs = coboundary(dga, level3[n + 2], level3[n + 3]).mul(mats[n].mul(lat))
        rhs = mats[n + 1].mul(delta.mul(lat))
        _, outside = staircase_solve(level3[n + 3].relation_matrix(), lhs.sub(rhs).row_dicts())
        squares["square d.i_%d = i_%d.delta" % (n, n + 1)] = not outside
    return mats, squares


def eleob_equivalent(M, module, table):
    """Evaluate the three symmetry condition sets on a degree-3 table
    (a dict argument-tuple -> value vector).  Returns the triple of
    booleans (conditions (easc1), (easc2), (easc3))."""
    nu = M.nonunit()

    def is_zero(args, combo):
        # a tuple missing from the table holds 0 and adds no term
        pi = M.op(M.op(args[0], args[1]), args[2])
        return module.group(pi).vanishes((coeff, table.get(tup, ())) for coeff, tup in combo)

    c1 = c2 = c3 = True
    for x in nu:
        for y in nu:
            for z in nu:
                a = (x, y, z)
                if not is_zero(a, [(1, (x, y, z)), (1, (z, y, x))]):
                    c1 = False
                if not is_zero(a, [(1, (x, y, z)), (1, (y, z, x)), (1, (z, x, y))]):
                    c1 = False
                if not is_zero(a, [(1, (x, y, z)), (-1, (y, x, z)), (1, (y, z, x))]):
                    c2 = False
                if not is_zero(a, [(1, (x, y, z)), (-1, (x, z, y)), (1, (z, x, y))]):
                    c3 = False
    return c1, c2, c3


def injectivity_check(M, module):
    """Verify that H^3_G -> H^5(M,3;A) is injective: every symmetric
    3-cocycle whose inclusion image is a level-3 coboundary is itself a
    symmetric 2-coboundary.  Returns (ok, witness)."""
    require_lawful(module, M)
    level1 = iterated_bar(M, 1, 4)
    amb3 = cochain_group(level1, 3, module)
    dga = iterated_bar(M, 3, 5)
    c5 = cochain_group(dga, 5, module)
    image5 = coboundary(dga, cochain_group(dga, 4, module), c5).hstack(c5.relation_matrix())

    # {f : f symmetric, delta^3 f ~ 0, i_3 f in im d^4 + rel}
    problem = preimage_lattice_multi(
        _cocycle_conditions(M, level1, amb3, 3) + [(_inclusion(M, 3, amb3, c5), image5)],
        amb3.total)
    _, outside = staircase_solve(lattice_basis(_coboundaries(M, level1, amb3, 3)),
                                 problem.row_dicts())
    if outside:
        return False, problem.column(outside[0])
    return True, None
