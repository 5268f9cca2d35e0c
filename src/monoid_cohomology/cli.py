"""Command-line frontend.

Subcommands: cohomology, cells, verify, grillet, cyclic, groupoid,
oracle.  Monoid descriptors are `cyclic:m,q`, `@file.json`, or inline
JSON, all of a finite monoid (`verify contraction` without --index
covers the infinite cyclic one); coefficients use the shorthand Z, Z/n,
Z^r, sums like Z/2+Z/4, or `@file.json` for tabular modules.

Exit codes: 0 success, 1 verification failure, 2 malformed input.
JSON output (--json) is byte-identical across runs for identical
inputs; timing appears only in the human-readable report.
"""

import argparse
import json
import sys
import time

from .bar import cells, check_reach, render_word, word_to_json
from .cohomology import brute_force_cohomology, cohomology_group, small_model_complex
from .cyclic import verify_contraction, verify_contraction_inf
from .grillet import grillet_cohomology, inclusion_chainmap
from .groupoid import check_coherence, crossed_product, is_cocycle, iso_classes
from .hmod import constant_module, module_from_descriptor, parse_group_shorthand, require_lawful
from .monoid import FiniteCommutativeMonoid, is_integer, monoid_from_descriptor


class InputError(ValueError):
    pass


def parse_monoid(text):
    """The finite monoid of a --monoid descriptor.  Every command that
    reads one needs finite tables, so the infinite cyclic monoid is
    refused here, in whichever form it is named."""
    if text == "infinite-cyclic":
        desc = {"kind": text}
    elif text.startswith("cyclic:"):
        try:
            m, q = (int(v) for v in text[len("cyclic:"):].split(","))
        except ValueError:
            raise InputError("monoid: expected cyclic:m,q, got %r" % text)
        desc = {"kind": "cyclic", "index": m, "period": q}
    elif text.startswith("@"):
        with open(text[1:]) as fh:
            desc = json.load(fh)
    elif text.startswith("{"):
        desc = json.loads(text)
    else:
        raise InputError("monoid: cannot parse descriptor %r" % text)
    M = monoid_from_descriptor(desc)
    if not isinstance(M, FiniteCommutativeMonoid):
        raise InputError("monoid: the commands reading --monoid need a finite one; "
                         "`verify contraction` without --index checks the infinite cyclic one")
    return M


def parse_coefficients(text, monoid):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return module_from_descriptor(json.load(fh), monoid)
    if text.startswith("{"):
        return module_from_descriptor(json.loads(text), monoid)
    return constant_module(parse_group_shorthand(text), monoid)


def emit(args, payload, human_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            print(line)


def cmd_cohomology(args):
    M = parse_monoid(args.monoid)
    A = parse_coefficients(args.coeff, M)
    t0 = time.time()
    inv = cohomology_group(M, args.level, args.degree, A)
    payload = inv.to_json()
    emit(args, payload, [
        "H^%d(M, %d; A) = %r" % (args.degree, args.level, inv),
        "elapsed: %.3fs" % (time.time() - t0),
    ])
    return 0


def cmd_oracle(args):
    M = parse_monoid(args.monoid)
    A = parse_coefficients(args.coeff, M)
    t0 = time.time()
    z, b, inv = brute_force_cohomology(M, args.level, args.degree, A)
    payload = dict(inv.to_json(), cocycle_count=z, coboundary_count=b)
    emit(args, payload, [
        "cocycles: %d, coboundaries: %d" % (z, b),
        "H^%d(M, %d; A) = %r" % (args.degree, args.level, inv),
        "elapsed: %.3fs" % (time.time() - t0),
    ])
    return 0


def cmd_cells(args):
    M = parse_monoid(args.monoid)
    words = list(cells(M, args.level, args.degree))
    payload = {"level": args.level, "degree": args.degree,
               "cells": [word_to_json(w, M) for w in words]}
    emit(args, payload, ["%s  (pi = %d)" % (render_word(w), w.pi(M)) for w in words]
         or ["(no cells)"])
    return 0


def cmd_verify(args):
    t0 = time.time()
    if args.index is None:
        if args.period is not None:
            raise InputError("--index required with --period")
        report = verify_contraction_inf(args.max_degree, args.entry_bound)
    else:
        if args.period is None:
            raise InputError("--period required with --index")
        report = verify_contraction(args.index, args.period, args.max_degree)
    payload = {"params": {k: v for k, v in sorted(report.params.items())},
               "identities": report.to_json(),
               "pass": report.all_pass()}
    lines = ["%-28s %s" % (name + ":", "pass" if ok else "FAIL %r" % wit[:2])
             for name, (ok, wit) in sorted(report.results.items())]
    lines.append("overall: %s" % ("pass" if report.all_pass() else "FAIL"))
    lines.append("elapsed: %.3fs" % (time.time() - t0))
    emit(args, payload, lines)
    return 0 if report.all_pass() else 1


def cmd_grillet(args):
    M = parse_monoid(args.monoid)
    A = parse_coefficients(args.coeff, M)
    if args.degree is not None:
        inv = grillet_cohomology(M, A, args.degree)
        emit(args, inv.to_json(), ["H^%d_G(M; A) = %r" % (args.degree, inv)])
        return 0
    _, report = inclusion_chainmap(M, A)
    payload = {"squares": report.squares, "pass": report.all_pass()}
    lines = ["%-28s %s" % (k + ":", "pass" if v else "FAIL")
             for k, v in sorted(report.squares.items())]
    emit(args, payload, lines)
    return 0 if report.all_pass() else 1


def cmd_cyclic(args):
    M = monoid_from_descriptor({"kind": "cyclic", "index": args.index,
                                "period": args.period})
    A = parse_coefficients(args.coeff, M)
    t0 = time.time()
    # cohomology_group's refusals of the four queries, one law check
    check_reach(M, 2, 3)
    require_lawful(A, M)
    for r, degmax in ((2, 4), (2, 5), (3, 6)):
        check_reach(M, r, degmax)
    level2 = small_model_complex(M, 2, A, 5)
    h2, h3, h4 = (level2.cohomology(n) for n in (2, 3, 4))
    h5 = small_model_complex(M, 3, A, 6).cohomology(5)
    payload = {"H2(C,2)": h2.to_json(), "H3(C,2)": h3.to_json(),
               "H4(C,2)": h4.to_json(), "H5(C,3)": h5.to_json()}
    emit(args, payload, [
        "H^2(C,2;A) = %r" % h2, "H^3(C,2;A) = %r" % h3,
        "H^4(C,2;A) = %r" % h4, "H^5(C,3;A) = %r" % h5,
        "elapsed: %.3fs" % (time.time() - t0),
    ])
    return 0


def _parse_cocycle_file(path):
    """The (g, mu) tables of a cocycle file, keyed by argument tuples."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError("cocycle file must hold a JSON object")
    tables = []
    for name in ("g", "mu"):
        entries = data.get(name, {})
        if not isinstance(entries, dict):
            raise InputError("cocycle table %s must be a JSON object, got %r"
                             % (name, entries))
        table = {}
        for key, coeffs in entries.items():
            try:
                args = tuple(int(v) for v in key.split(","))
            except ValueError:
                raise InputError("cocycle key %s[%s] must list integers" % (name, key))
            if (not isinstance(coeffs, list)
                    or not all(is_integer(v) for v in coeffs)):
                raise InputError("cocycle value %s[%s] must be a list of integers, "
                                 "got %r" % (name, key, coeffs))
            table[args] = tuple(coeffs)
        tables.append(table)
    return tuple(tables)


def cmd_groupoid(args):
    if args.what == "classify":
        return _groupoid_classify(args)
    M = parse_monoid(args.monoid)
    if args.cocycle is None:
        raise InputError("groupoid check needs --cocycle")
    A = parse_coefficients(args.coeff, M)
    g, mu = _parse_cocycle_file(args.cocycle)
    G = crossed_product(M, A, g, mu)
    report = check_coherence(G)
    cocycle = is_cocycle(G)
    payload = {"coherent": report.ok(), "cocycle": cocycle,
               "failures": [[c, list(w)] for c, w in report.failures[:10]]}
    lines = ["coherence: %s" % ("pass" if report.ok() else "FAIL %r" % report.failures[:4]),
             "5-cocycle: %s" % cocycle]
    emit(args, payload, lines)
    return 0 if report.ok() and cocycle else 1


def _groupoid_classify(args):
    M = parse_monoid(args.monoid)
    A = parse_coefficients(args.coeff, M)
    t0 = time.time()
    cocycles, classes = iso_classes(M, A, search_automorphisms=args.automorphisms)
    payload = {"cocycles": len(cocycles), "classes": len(classes),
               "automorphism_search": bool(args.automorphisms)}
    emit(args, payload, [
        "5-cocycles: %d" % len(cocycles),
        "isomorphism classes: %d" % len(classes),
        "elapsed: %.3fs" % (time.time() - t0),
    ])
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="moncoh",
                                description="cohomology of commutative monoids")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cohomology", help="H^n(M, r; A) via the bar pipeline")
    c.add_argument("--monoid", required=True)
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--coeff", required=True)
    c.set_defaults(fn=cmd_cohomology)

    c = sub.add_parser("oracle", help="brute-force enumeration oracle")
    c.add_argument("--monoid", required=True)
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--coeff", required=True)
    c.set_defaults(fn=cmd_oracle)

    c = sub.add_parser("cells", help="generic cells of one degree")
    c.add_argument("--monoid", required=True)
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    c.set_defaults(fn=cmd_cells)

    c = sub.add_parser("verify", help="verify the cyclic contraction identities")
    c.add_argument("what", choices=["contraction"])
    c.add_argument("--index", type=int)
    c.add_argument("--period", type=int)
    c.add_argument("--max-degree", type=int, default=4)
    c.add_argument("--entry-bound", type=int, default=5)
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("grillet", help="symmetric-cochain cohomology and inclusion")
    c.add_argument("--monoid", required=True)
    c.add_argument("--coeff", required=True)
    c.add_argument("--degree", type=int)
    c.set_defaults(fn=cmd_grillet)

    c = sub.add_parser("cyclic", help="H^2..H^4(C, 2; A) and H^5(C, 3; A) of a cyclic monoid C")
    c.add_argument("what", choices=["groups"])
    c.add_argument("--index", type=int, required=True)
    c.add_argument("--period", type=int, required=True)
    c.add_argument("--coeff", required=True)
    c.set_defaults(fn=cmd_cyclic)

    c = sub.add_parser("groupoid",
                       help="coherence of a crossed product / classification")
    c.add_argument("what", choices=["check", "classify"])
    c.add_argument("--monoid", required=True)
    c.add_argument("--coeff", required=True)
    c.add_argument("--cocycle")
    c.add_argument("--automorphisms", action="store_true",
                   help="also search monoid automorphisms (|M| <= 4)")
    c.set_defaults(fn=cmd_groupoid)
    return p


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as ex:
        # InputError and every domain error (monoid, module, groupoid,
        # truncation, degree-range) subclass ValueError; OSError covers
        # unreadable descriptor and cocycle files
        sys.stderr.write("error: %s\n" % ex)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
