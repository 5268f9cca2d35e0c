"""The benchmark's workloads: fixed query lists, the seeded relabelling
of monoid tables, and the inputs handed to the engine.

A query is identified by its key, which names the monoid up to
isomorphism, so the pinned reference for a key holds for every
relabelling the seed picks.  The engine receives only tables and
modules built here; every call goes through a module attribute at call
time, so the traced run sees the wrapped layer functions.
"""

import contextlib
import importlib
import io
import json
import random
import sys

PACKAGE = "monoid_cohomology"
ENGINE_MODULES = ("monoid", "zlinalg", "hmod", "bar", "cohomology", "cyclic",
                  "grillet", "groupoid", "cli")


def _package_names():
    return [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Engine:
    """The engine's modules, freshly imported."""

    def __init__(self):
        for name in _package_names():
            del sys.modules[name]
        importlib.import_module(PACKAGE)
        for name in ENGINE_MODULES:
            setattr(self, name, importlib.import_module(PACKAGE + "." + name))
        self.modules = [sys.modules[n] for n in _package_names()]


# -- monoid tables --------------------------------------------------------------

def cyclic_params(name):
    """(m, q) of the cyclic monoid named "C(m,q)"."""
    m, q = (int(v) for v in name[2:-1].split(","))
    return m, q


def base_table(name):
    """(size, identity, rows) in the canonical labelling: "C(m,q)" with
    x.y = x+y wrapped into [m, m+q), "klein", or "semilattice"."""
    if name == "klein":
        return 4, 0, [[x ^ y for y in range(4)] for x in range(4)]
    if name == "semilattice":
        return 3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    m, q = cyclic_params(name)
    n = m + q
    return n, 0, [[s if s < n else m + (s - m) % q for s in range(x, x + n)]
                  for x in range(n)]


def relabel(table, perm):
    """The table with element x renamed perm[x]; isomorphic to the input."""
    size, e, rows = table
    out = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            out[perm[x]][perm[y]] = perm[rows[x][y]]
    return size, perm[e], out


def parity_character(name):
    """A monoid map to Z/2 in the canonical labelling, for the twisted module."""
    if name == "klein":
        return lambda x: x & 1
    if cyclic_params(name)[1] % 2:
        raise ValueError("%s has no parity character" % name)
    return lambda x: x % 2


# -- coefficient modules ------------------------------------------------------

def build_module(eng, coeff, monoid_name, M, perm):
    """Coefficients on the relabelled monoid M (perm maps canonical
    elements to M's).  Constant groups use the CLI shorthand; ZM is the
    monoid algebra, ZM/2 the same with every A(x) reduced mod 2, and
    Z/4(sign) is Z/4 with y acting by (-1)^chi(y) for a parity
    character chi."""
    hmod, IntMatrix = eng.hmod, eng.zlinalg.IntMatrix
    if coeff == "ZM":
        return hmod.zm_as_hmodule(M)
    if coeff == "ZM/2":
        zm = hmod.zm_as_hmodule(M)
        groups = [hmod.FGAbelianGroup(g.ngens, IntMatrix.diagonal([2] * g.ngens))
                  for g in zm.groups]
        return hmod.HModule(M, groups, zm.actions)
    if coeff == "Z/4(sign)":
        chi = parity_character(monoid_name)
        sign = {perm[x]: (-1) ** chi(x) for x in range(M.size)}
        group = hmod.FGAbelianGroup.cyclic(4)
        actions = {(x, y): IntMatrix.from_rows([[sign[y]]])
                   for x in range(M.size) for y in range(M.size)}
        return hmod.HModule(M, [group] * M.size, actions)
    return hmod.constant_module(hmod.parse_group_shorthand(coeff), M)


# -- queries ------------------------------------------------------------------

class Query:
    """One call into the public API.  `args` holds monoid names in the
    canonical labelling; `bind` turns it into a call on relabelled inputs."""

    __slots__ = ("kind", "args", "key")

    def __init__(self, kind, *args):
        self.kind = kind
        self.args = args
        self.key = "|".join((kind,) + tuple(str(a) for a in args))


def _relabelled(name, rng):
    """A random renaming of the non-identity elements.  The identity keeps
    index 0: iso_classes' search order, and so its cost, depends on where
    the identity sits (0.3 s against 1.6 s on C(1,2)), which would make
    pass times bimodal.  The tests check answers with the identity moved."""
    table = base_table(name)
    rest = list(range(1, table[0]))
    if rng is not None:
        rng.shuffle(rest)
    perm = [0] + rest
    return relabel(table, perm), perm


def _monoid(eng, name, rng):
    (size, e, rows), perm = _relabelled(name, rng)
    return eng.monoid.validate_table(size, e, rows), perm


def bind(eng, query, rng):
    """A zero-argument callable answering `query` on inputs relabelled by
    rng, or on the canonical labelling when rng is None."""
    kind, a = query.kind, query.args
    if kind in ("cohomology", "brute_force"):
        name, coeff, r, n = a
        M, perm = _monoid(eng, name, rng)
        A = build_module(eng, coeff, name, M, perm)
        if kind == "cohomology":
            return lambda: eng.cohomology.cohomology_group(M, r, n, A)
        return lambda: eng.cohomology.brute_force_cohomology(M, r, n, A)
    if kind == "verify_contraction":
        m, q, degmax = a
        return lambda: eng.cyclic.verify_contraction(m, q, degmax)
    if kind == "verify_contraction_inf":
        degmax, bound = a
        return lambda: eng.cyclic.verify_contraction_inf(degmax, bound)
    if kind in ("grillet", "injectivity", "iso_classes"):
        name, coeff = a[:2]
        M, perm = _monoid(eng, name, rng)
        A = build_module(eng, coeff, name, M, perm)
        if kind == "grillet":
            return lambda: eng.grillet.grillet_cohomology(M, A, a[2])
        if kind == "injectivity":
            return lambda: eng.grillet.injectivity_check(M, A)
        return lambda: eng.groupoid.iso_classes(M, A)
    if kind == "cli":
        name, words = a[0], a[1].split()
        if name != "-":
            (size, e, rows), _ = _relabelled(name, rng)
            desc = json.dumps({"kind": "table", "size": size, "identity": e,
                               "table": rows}, separators=(",", ":"))
            words = [desc if w == "MONOID" else w for w in words]
        argv = ["--json"] + words
        return lambda: _cli(eng, argv)
    raise ValueError("unknown query kind %r" % kind)


def _cli(eng, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eng.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def normalize(kind, raw):
    """The JSON value compared against the pinned reference."""
    if kind in ("cohomology", "grillet"):
        return raw.to_json()
    if kind == "brute_force":
        z, b, inv = raw
        return [z, b, inv.to_json()]
    if kind in ("verify_contraction", "verify_contraction_inf"):
        return {"pass": raw.all_pass(), "identities": raw.to_json()}
    if kind == "injectivity":
        ok, witness = raw
        return [ok, witness]
    if kind == "iso_classes":
        cocycles, classes = raw
        return [len(cocycles), len(classes)]
    if kind == "cli":
        return list(raw)
    raise ValueError("unknown query kind %r" % kind)


# -- the four workloads -------------------------------------------------------

def cyclic_names(orders):
    return ["C(%d,%d)" % (m, n - m) for n in orders for m in range(n)]


TABLES = ["klein", "semilattice"]
SMALL = cyclic_names((2, 3, 4)) + TABLES


def free_coeff():
    """Free constant coefficients: the fast path for free groups, where
    the bar and dualize layers take about half the time."""
    qs = []
    for name in cyclic_names(range(2, 8)) + TABLES:
        for r, n in ((1, 2), (2, 3), (3, 4)):
            qs.append(Query("cohomology", name, "Z", r, n))
        qs.append(Query("cohomology", name, "Z^2", 2, 3))
    for name in cyclic_names((4,)) + TABLES:
        qs.append(Query("cohomology", name, "Z^2", 1, 3))
    for name in cyclic_names((5,)) + ["klein", "C(0,6)"]:
        for r, n in ((2, 4), (3, 5)):
            qs.append(Query("cohomology", name, "Z", r, n))
    for name in cyclic_names((5,)):
        for r, n in ((2, 4), (3, 5)):
            qs.append(Query("cohomology", name, "Z^2", r, n))
    qs.append(Query("cohomology", "C(3,4)", "Z", 1, 4))
    qs.append(Query("cohomology", "klein", "Z", 1, 1))
    return qs


def torsion_coeff():
    """Constant torsion coefficients: the preimage-lattice route, where
    the integer linear algebra does almost all of the work."""
    qs = []
    for name in ["C(1,2)"] + cyclic_names((4,)) + TABLES:
        for coeff in ("Z/4", "Z/6", "Z/9", "Z+Z/2"):
            for r, n in ((1, 4), (2, 4), (3, 5)):
                qs.append(Query("cohomology", name, coeff, r, n))
    for name in cyclic_names((4,)) + ["klein"]:
        for coeff in ("Z/4", "Z/6", "Z+Z/2"):
            qs.append(Query("cohomology", name, coeff, 2, 3))
    for coeff in ("Z/4", "Z/6", "Z/9", "Z+Z/2"):
        qs.append(Query("cohomology", "C(0,5)", coeff, 2, 4))
    qs.append(Query("cohomology", "C(0,6)", "Z/4", 2, 4))
    # Klein with Z/2: values known independently of the engine (pin.py)
    for r, n in ((1, 0), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4)):
        qs.append(Query("cohomology", "klein", "Z/2", r, n))
    return qs


def tabular_coeff():
    """Non-constant modules: they stay on the lattice route whatever
    happens to constant coefficients."""
    qs = []
    for name in SMALL:
        for coeff in ("ZM", "ZM/2"):
            for r, n in ((1, 2), (2, 3), (3, 4)):
                qs.append(Query("cohomology", name, coeff, r, n))
        for r, n in ((1, 3), (2, 4), (3, 5)):
            qs.append(Query("cohomology", name, "ZM", r, n))
            if name not in ("C(1,3)", "C(2,2)", "C(3,1)"):
                qs.append(Query("cohomology", name, "ZM/2", r, n))
    qs.append(Query("cohomology", "C(2,2)", "ZM/2", 2, 4))
    for name in ("C(0,2)", "C(1,2)", "C(0,4)", "C(2,2)", "C(1,4)", "C(3,2)",
                 "klein"):
        for r, n in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)):
            qs.append(Query("cohomology", name, "Z/4(sign)", r, n))
    return qs


CLI_QUERIES = [
    ("C(1,2)", "cohomology --monoid MONOID --level 2 --degree 4 --coeff Z/4"),
    ("C(2,3)", "cohomology --monoid MONOID --level 3 --degree 5 --coeff Z/6"),
    ("klein", "cohomology --monoid MONOID --level 1 --degree 3 --coeff Z/2+Z/4"),
    ("C(0,3)", "oracle --monoid MONOID --level 2 --degree 3 --coeff Z/3"),
    ("C(1,2)", "grillet --monoid MONOID --coeff Z/2 --degree 2"),
    ("C(0,4)", "grillet --monoid MONOID --coeff Z/4"),
    ("C(1,1)", "groupoid classify --monoid MONOID --coeff Z/2"),
    ("-", "cells --monoid cyclic:1,2 --level 2 --degree 4"),
    ("-", "verify contraction --index 2 --period 2 --max-degree 4"),
    ("-", "verify contraction --max-degree 3 --entry-bound 4"),
    ("-", "cyclic groups --index 1 --period 2 --coeff Z/4"),
    ("-", "cyclic groups --index 0 --period 3 --coeff Z/9"),
]


def frontends():
    """The rest of the public surface: the contraction checks, Grillet's
    complex, groupoid classification, the brute-force oracle and the CLI."""
    qs = []
    for m in range(4):
        for q in range(1, 4):
            if m + q >= 2:
                for d in (2, 3, 4):
                    if m + q < 5 or d < 4:
                        qs.append(Query("verify_contraction", m, q, d))
    for d, bound in ((2, 3), (3, 3), (3, 5), (4, 3), (4, 4)):
        qs.append(Query("verify_contraction_inf", d, bound))
    for name in SMALL:
        for coeff in ("Z", "Z/2", "Z/4"):
            for n in (1, 2, 3):
                qs.append(Query("grillet", name, coeff, n))
    for name in cyclic_names((2, 3)) + ["semilattice"]:
        for coeff in ("Z", "Z/2", "Z/4"):
            qs.append(Query("injectivity", name, coeff))
    for name in ("C(0,4)", "klein"):
        qs.append(Query("injectivity", name, "Z/2"))
    for name in ("C(0,2)", "C(1,1)"):
        for coeff in ("Z/2", "Z/3"):
            qs.append(Query("iso_classes", name, coeff))
    qs.append(Query("iso_classes", "C(1,2)", "Z/2"))
    for name in ("C(0,2)", "C(1,1)", "C(0,3)", "C(1,2)", "C(2,1)", "semilattice"):
        for coeff in ("Z/2", "Z/3"):
            for r, n in ((1, 2), (1, 3), (2, 3), (3, 4)):
                qs.append(Query("brute_force", name, coeff, r, n))
    for name, words in CLI_QUERIES:
        qs.append(Query("cli", name, words))
    return qs


WORKLOADS = {
    "free-coeff": free_coeff,
    "torsion-coeff": torsion_coeff,
    "tabular-coeff": tabular_coeff,
    "frontends": frontends,
}


def generate(eng, workload, seed, variants):
    """`variants` independent relabellings of the workload, each a list of
    (query, callable) in its own seeded order."""
    queries = WORKLOADS[workload]()
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for _ in range(variants):
        bound = [(q, bind(eng, q, rng)) for q in queries]
        rng.shuffle(bound)
        out.append(bound)
    return out
