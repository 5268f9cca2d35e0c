"""Run one benchmark workload against the engine in ../src.

    python3 perfbench/run.py --workload free-coeff --seed 1 --seconds 30 --trace 0

One client, one query in flight (a closed loop).  Set-up imports the
engine afresh, builds the seeded inputs and loads the pinned references.
The run answers the workload's whole query list in passes until the time
is up, each pass on another seeded relabelling and in another seeded
order, and checks every answer against its reference.  Set-up is done
SETUPS_PER_PASS times before every pass, so that its samples span the
run as the pass times do, and its median is reported.  Times are scaled
to a fixed machine speed, measured by a probe run between the queries
(see `probe`), so that the host's slow and fast spells do not show as
changes of the program.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes over the same inputs and reports the per-layer
metrics.  The last line of stdout is the JSON result; if any answer is
wrong it carries no metrics and the exit code is 1.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from tracing import (Installed, Tracer, attributed, layer_metrics,  # noqa: E402
                     unavailable_metrics)
from workloads import WORKLOADS, Engine, generate, normalize  # noqa: E402

SETUPS_PER_PASS = 3
VARIANTS = 6
REFERENCES = os.path.join(HERE, "references.json")
# About the probe's median time inside runs on the machine the README's
# baselines come from; times are reported as if the probe had taken
# this long while they were measured.
NOMINAL_PROBE_S = 0.010
PROBE_EVERY_S = 0.2


def probe():
    """A fixed piece of pure-Python work like the engine's own: integer
    row reduction of a small matrix and counting into a tuple-keyed dict.
    It does not touch the engine, so a change of the engine leaves its
    time alone, while a slow spell of a shared host slows it as the
    queries (both by up to a third in the same spells)."""
    rng = random.Random(7)
    n = 40
    a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        pivot_row, pivot = a[c], a[c][c]
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                a[r] = [(x * pivot - y * f) % 1000003 for x, y in zip(a[r], pivot_row)]
    counts = {}
    for i in range(8000):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def probe_time():
    """Seconds the probe takes now, without a garbage collection inside."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["answers"]


def setup(workload, seed):
    """Import, generate and load once; returns the engine, its inputs,
    the references and the time taken, scaled by probes on either side."""
    gc.collect()
    before = probe_time()
    t0 = time.perf_counter()
    engine = Engine()
    variants = generate(engine, workload, seed, VARIANTS)
    references = load_references()
    spent = time.perf_counter() - t0
    return engine, variants, references, spent * NOMINAL_PROBE_S * 2 / (before + probe_time())


class Run:
    """Everything one run measured."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.setup_times = []
        self.query_times = []
        self.pass_times = []
        self.raw_pass_times = []
        self.probe_medians = []
        self.traced_pass_times = []
        self.traced_scaled = []
        self.tracer = None
        self.absent = set()


def run_pass(bound, references, run, tracer=None):
    """Answer every query once, with a probe every PROBE_EVERY_S between
    two queries and one at each end.  Returns the time of each query,
    scaled by the median of the two probes on either side of it, the
    probe times, and the unscaled time spent answering."""
    samples, marks, probes = [], [], [probe_time()]
    last_probe = time.perf_counter()
    for query, call in bound:
        if tracer is not None:
            tracer.begin_query()
        error = None
        t0 = time.perf_counter()
        try:
            raw = call()
        except Exception as ex:  # a failing query is counted, the run goes on
            t1 = time.perf_counter()
            error = "%s: %s" % (type(ex).__name__, ex)
        else:
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_query()
        samples.append(t1 - t0)
        marks.append(len(probes))
        run.attempted += 1
        if error is None:
            got = json.loads(json.dumps(normalize(query.kind, raw)))
            want = references.get(query.key)
            if got != want:
                error = "answer %s, reference %s" % (json.dumps(got), json.dumps(want))
        if error is not None:
            run.failures.append((query.key, error))
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_time())
            last_probe = time.perf_counter()
    probes.append(probe_time())
    return [t * NOMINAL_PROBE_S / statistics.median(probes[max(0, m - 2):m + 2])
            for t, m in zip(samples, marks)], probes, sum(samples)


def measure(workload, seed, seconds, trace):
    """Passes until `seconds` are used up, each after SETUPS_PER_PASS
    fresh set-ups and on the inputs of the last; another pass (or
    untraced plus traced pair) starts only if it should end in time.
    At least one."""
    run = Run()
    if trace:
        run.tracer = Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        start = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            engine, variants, references, spent = setup(workload, seed)
            run.setup_times.append(spent)
        if k == 0:
            missing = sorted({q.key for q, _ in variants[0]} - set(references))
            if missing:
                sys.exit("no pinned reference for %d queries, e.g. %s"
                         % (len(missing), missing[0]))
        bound = variants[k % len(variants)]
        k += 1
        gc.collect()
        samples, probes, raw = run_pass(bound, references, run)
        run.raw_pass_times.append(raw)
        run.probe_medians.append(statistics.median(probes))
        run.pass_times.append(sum(samples))
        run.query_times.extend(samples)
        if trace:
            gc.collect()
            with Installed(run.tracer, engine) as installed:
                samples, _, raw = run_pass(bound, references, run, run.tracer)
            run.absent = installed.absent
            run.traced_pass_times.append(raw)
            run.traced_scaled.append(sum(samples))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return run


def end_to_end(run):
    times = run.query_times
    return {
        "wall_s": (statistics.median(run.pass_times), "s"),
        "query_p50_s": (statistics.median(times), "s"),
        "query_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "setup_s": (statistics.median(run.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run):
    tracer, traced = run.tracer, run.traced_pass_times
    passes = len(traced)
    out = layer_metrics(tracer, passes, run.absent)
    out["trace.overhead_frac"] = (sum(run.traced_scaled) / sum(run.pass_times) - 1, "ratio")
    out["trace.wall_s"] = (sum(traced) / passes, "s")
    out["trace.unattributed_s"] = ((sum(traced) - attributed(tracer)) / passes, "s")
    out["trace.bookkeeping_s"] = (tracer.bookkeeping / passes, "s")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "monoid_cohomology")):
        sys.exit("no engine source under %s" % SRC)

    run = measure(args.workload, args.seed, args.seconds, args.trace)

    failed = len(run.failures)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_times_s": run.raw_pass_times, "probe_medians_s": run.probe_medians,
        "query_samples": len(run.query_times),
        "distinct_queries": len(run.query_times) // len(run.pass_times),
        "setup_samples": len(run.setup_times),
        "error_rate": failed / run.attempted,
        **(unavailable_metrics(run.tracer, run.absent) if args.trace else {}),
    }, sort_keys=True))
    if failed:
        for key, error in run.failures[:20]:
            sys.stderr.write("wrong: %s: %s\n" % (key, error))
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({
        "correct": True, "attempted": run.attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
