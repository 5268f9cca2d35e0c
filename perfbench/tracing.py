"""Per-layer tracing from outside the engine.

The traced run replaces each layer's public function, in every engine
module that holds it, with a wrapper that records a span.  A span's self
time is its duration minus the durations of the spans nested in it.
Counts are taken from the arguments and return values at the same
boundary; the time spent taking them is booked as tracer bookkeeping,
not charged to any layer.  A name the engine no longer has is skipped,
and every metric derived from it is listed as absent; a metric none of
whose spans ran in the workload is listed as not run.  The result line
carries every metric, so both kinds read 0 there: the lists say which
zeros were never measured.
"""

import time
from collections import Counter, defaultdict


class _BitsCache:
    """lattice_solve is called with one staircase matrix many times in a
    row; scanning it once per object keeps bookkeeping small."""

    def __init__(self):
        self.mat = None
        self.bits = 0

    def __call__(self, mat):
        if mat is not self.mat:
            self.mat, self.bits = mat, matrix_bits(mat)
        return self.bits


class Tracer:
    """Aggregates spans online: self time and calls per span name, plus
    named counts and maxima, and per-query flags."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.bookkeeping = 0.0
        self.queries = Counter()
        self.solve_bits = _BitsCache()
        self._stack = []
        self._seen = set()

    def enter(self, name):
        self._seen.add(name)
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        """Close the innermost span; returns the clock reading at its end."""
        end = self.clock()
        name, start, nested = self._stack.pop()
        span = end - start
        self.self_time[name] += span - nested
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += span
        return end

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def book(self, since):
        """Charge the time from `since` to now to bookkeeping, so that
        the enclosing span does not count it as its own work."""
        spent = self.clock() - since
        self.bookkeeping += spent
        if self._stack:
            self._stack[-1][2] += spent

    def note_max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def begin_query(self):
        self._seen = set()

    def end_query(self):
        for name in self._seen:
            self.queries[name] += 1
        if "cohomology" in self._seen and "zlinalg.preimage_lattice" in self._seen:
            self.queries["cohomology+lattice"] += 1


# -- counts taken at the layer boundaries --------------------------------------

def matrix_bits(mat):
    best = 0
    for row in mat.data:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


def vector_bits(vec):
    return max((abs(v) for v in vec), default=0).bit_length()


def nonzeros(mat):
    return sum(len(row) - row.count(0) for row in mat.data)


def _bits(tr, *values):
    for v in values:
        if v is not None:
            tr.note_max("zlinalg.max_entry_bits",
                        vector_bits(v) if isinstance(v, list) else matrix_bits(v))


def _iterated_bar(tr, args, dga):
    tr.counts["bar.cells"] += sum(len(g) for g in dga.basis.values())
    tr.counts["bar.diff_terms"] += sum(len(c) for c in dga.diff.values())


def _dualize(tr, args, mat):
    tr.counts["hmod.coboundary_entries"] += mat.rows * mat.cols
    tr.counts["hmod.coboundary_nnz"] += nonzeros(mat)


def _snf_diagonal(tr, args, diag):
    tr.counts["zlinalg.rank"] += len(diag)
    _bits(tr, args[0], list(diag))


def _smith_normal_form(tr, args, result):
    A = args[0]
    D = result[0]
    if tr.parent() == "zlinalg.snf_diagonal":
        tr.counts["zlinalg.dense_rank"] += sum(
            1 for i in range(min(D.rows, D.cols)) if D.data[i][i])
        tr.note_max("zlinalg.dense_rows", A.rows)
        tr.note_max("zlinalg.dense_cols", A.cols)
    _bits(tr, A, *result)


def _kernel_basis(tr, args, ker):
    tr.counts["zlinalg.kernel_input_entries"] += nonzeros(args[0])
    _bits(tr, args[0], ker)


def _matrix_in_out(tr, args, result):
    _bits(tr, *args, result)


def _lattice_solve(tr, args, x):
    tr.note_max("zlinalg.max_entry_bits", tr.solve_bits(args[0]))
    _bits(tr, list(args[1]), x)


def _subquotient_invariants(tr, args, result):
    _bits(tr, *args)


# (engine module, attribute, span name, count hook)
LAYERS = [
    ("bar", "iterated_bar", "bar.iterated_bar", _iterated_bar),
    ("bar", "bar", "bar.bar", None),
    ("bar", "bar_word_shuffle", "bar.shuffle", None),
    ("hmod", "dualize", "hmod.dualize", _dualize),
    ("zlinalg", "snf_diagonal", "zlinalg.snf_diagonal", _snf_diagonal),
    ("zlinalg", "smith_normal_form", "zlinalg.smith_normal_form", _smith_normal_form),
    ("zlinalg", "kernel_basis", "zlinalg.kernel_basis", _kernel_basis),
    ("zlinalg", "lattice_basis", "zlinalg.lattice_basis", _matrix_in_out),
    ("zlinalg", "lattice_solve", "zlinalg.lattice_solve", _lattice_solve),
    ("zlinalg", "preimage_lattice", "zlinalg.preimage_lattice", _matrix_in_out),
    ("zlinalg", "subquotient_invariants", "zlinalg.subquotient_invariants",
     _subquotient_invariants),
    ("cohomology", "cohomology_group", "cohomology", None),
    ("cohomology", "brute_force_cohomology", "cohomology.brute_force", None),
    ("cyclic", "verify_contraction", "cyclic.verify_contraction", None),
    ("cyclic", "verify_contraction_inf", "cyclic.verify_contraction", None),
    ("grillet", "injectivity_check", "grillet.injectivity_check", None),
    ("grillet", "grillet_cohomology", "grillet.cohomology", None),
    ("groupoid", "iso_classes", "groupoid.iso_classes", None),
    ("cli", "run", "cli.run", None),
]

LINALG_SPANS = [span for mod, _, span, _ in LAYERS if mod == "zlinalg"]


def _wrap(tr, span, fn, hook):
    def wrapper(*args, **kwargs):
        tr.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tr.exit()
        if hook is not None:
            hook(tr, args, result)
            tr.book(end)
        return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span)
    return wrapper


class Installed:
    """Wrappers installed into an engine; `absent` names the spans whose
    function the engine lacks.  Use as a context manager."""

    def __init__(self, tracer, engine, layers=LAYERS):
        self.patches = []
        self.absent = set()
        for mod_name, attr, span, hook in layers:
            home = getattr(engine, mod_name, None)
            fn = getattr(home, attr, None)
            if fn is None:
                self.absent.add(span)
                continue
            wrapper = _wrap(tracer, span, fn, hook)
            for mod in engine.modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self.patches.append((mod, name, fn))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self.patches):
            setattr(mod, name, fn)
        self.patches = []
        return False


# -- per-layer metrics --------------------------------------------------------

def _self(span):
    return lambda tr, passes: tr.self_time[span] / passes, [span]


def _count(key, spans):
    return lambda tr, passes: tr.counts[key] / passes, spans


def _calls(span):
    return lambda tr, passes: tr.calls[span] / passes, [span]


def _max(key, spans):
    return lambda tr, passes: tr.maxima[key], spans


SNF = ["zlinalg.snf_diagonal", "zlinalg.smith_normal_form"]

# name -> (unit, function of (tracer, traced passes), spans it reads).  A
# metric is absent if any of its spans is, and not run if none was called.
LAYER_METRICS = {
    "bar.iterated_bar_s": ("s",) + _self("bar.iterated_bar"),
    "bar.cells": ("count",) + _count("bar.cells", ["bar.iterated_bar"]),
    "bar.diff_terms": ("count",) + _count("bar.diff_terms", ["bar.iterated_bar"]),
    "bar.bar_s": ("s",) + _self("bar.bar"),
    "bar.shuffle_s": ("s",) + _self("bar.shuffle"),
    "bar.shuffle_calls": ("count",) + _calls("bar.shuffle"),
    "hmod.dualize_s": ("s",) + _self("hmod.dualize"),
    "hmod.dualize_calls": ("count",) + _calls("hmod.dualize"),
    "hmod.coboundary_entries": ("count",) + _count("hmod.coboundary_entries",
                                                   ["hmod.dualize"]),
    "hmod.coboundary_nnz": ("count",) + _count("hmod.coboundary_nnz", ["hmod.dualize"]),
    "zlinalg.snf_diagonal_s": ("s",) + _self("zlinalg.snf_diagonal"),
    "zlinalg.swept_pivots": ("count",
                             lambda tr, p: (tr.counts["zlinalg.rank"]
                                            - tr.counts["zlinalg.dense_rank"]) / p,
                             SNF),
    "zlinalg.smith_normal_form_s": ("s",) + _self("zlinalg.smith_normal_form"),
    "zlinalg.dense_rows": ("count",) + _max("zlinalg.dense_rows", SNF),
    "zlinalg.dense_cols": ("count",) + _max("zlinalg.dense_cols", SNF),
    "zlinalg.dense_share": ("ratio",
                            lambda tr, p: (tr.counts["zlinalg.dense_rank"]
                                           / tr.counts["zlinalg.rank"]
                                           if tr.counts["zlinalg.rank"] else 0.0),
                            SNF),
    "zlinalg.kernel_basis_s": ("s",) + _self("zlinalg.kernel_basis"),
    "zlinalg.kernel_input_entries": ("count",) + _count("zlinalg.kernel_input_entries",
                                                        ["zlinalg.kernel_basis"]),
    "zlinalg.lattice_basis_s": ("s",) + _self("zlinalg.lattice_basis"),
    "zlinalg.lattice_solve_s": ("s",) + _self("zlinalg.lattice_solve"),
    "zlinalg.lattice_solve_calls": ("count",) + _calls("zlinalg.lattice_solve"),
    "zlinalg.preimage_lattice_s": ("s",) + _self("zlinalg.preimage_lattice"),
    "zlinalg.subquotient_invariants_s": ("s",) + _self("zlinalg.subquotient_invariants"),
    "zlinalg.max_entry_bits": ("bits",) + _max("zlinalg.max_entry_bits", LINALG_SPANS),
    "cohomology.self_s": ("s",) + _self("cohomology"),
    "cohomology.lattice_route_share": (
        "ratio",
        lambda tr, p: (tr.queries["cohomology+lattice"] / tr.queries["cohomology"]
                       if tr.queries["cohomology"] else 0.0),
        ["cohomology", "zlinalg.preimage_lattice"]),
    "cohomology.brute_force_s": ("s",) + _self("cohomology.brute_force"),
    "cyclic.verify_contraction_s": ("s",) + _self("cyclic.verify_contraction"),
    "grillet.injectivity_check_s": ("s",) + _self("grillet.injectivity_check"),
    "grillet.cohomology_s": ("s",) + _self("grillet.cohomology"),
    "groupoid.iso_classes_s": ("s",) + _self("groupoid.iso_classes"),
    "cli.run_s": ("s",) + _self("cli.run"),
}


def unavailable_metrics(tracer, absent):
    """The layer metrics that measured nothing: those that need a span
    the engine lacks, and those none of whose spans was called."""
    gone, idle = [], []
    for name, (_, _, spans) in LAYER_METRICS.items():
        if absent.intersection(spans):
            gone.append(name)
        elif not any(tracer.calls[span] for span in spans):
            idle.append(name)
    return {"absent_metrics": gone, "not_run_metrics": idle}


def layer_metrics(tracer, passes, absent):
    """Every per-pass layer metric; the absent and the not run read 0."""
    skip = set().union(*unavailable_metrics(tracer, absent).values())
    return {name: (0 if name in skip else fn(tracer, passes), unit)
            for name, (unit, fn, _) in LAYER_METRICS.items()}


def attributed(tracer):
    """Self time of every span plus bookkeeping: with the unattributed
    remainder this adds up to the traced wall time."""
    return sum(tracer.self_time.values()) + tracer.bookkeeping
