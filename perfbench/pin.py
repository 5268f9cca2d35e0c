"""Pin the benchmark's reference answers.

    python3 perfbench/pin.py            # recompute and write references.json
    python3 perfbench/pin.py --check    # recompute and compare, write nothing

Every query of every workload is answered once on the canonical
labelling.  Where a second route exists the answer is reached by it as
well: the small cyclic resolutions (leech_groups_cyclic,
level2_groups_cyclic, level3_top) and the closed form for cyclic
monoids, the brute-force oracle under its cap, the stability
isomorphisms, Grillet's comparison isomorphisms, the classification
count |H^5(M,3;A)|, and the known Klein-group values.  Nothing is
written if two routes disagree.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import REFERENCES  # noqa: E402
from workloads import (WORKLOADS, Engine, base_table, bind,  # noqa: E402
                       build_module, cyclic_params, normalize)

# H^n(K, r; A) for the Klein four-group, known independently of the engine:
# mod-2 group cohomology is polynomial on two degree-one classes, and the
# level-2 groups see the character group and the quadratic construction.
KLEIN_KNOWN = {
    ("Z/2", 1, 0): (0, [2]), ("Z/2", 1, 1): (0, [2, 2]),
    ("Z/2", 1, 2): (0, [2, 2, 2]), ("Z/2", 1, 3): (0, [2, 2, 2, 2]),
    ("Z", 1, 1): (0, []), ("Z", 1, 2): (0, [2, 2]),
    ("Z/2", 2, 3): (0, [2, 2]), ("Z/2", 2, 4): (0, [2, 2, 2]),
    ("Z", 2, 4): (0, []),
}

BRUTE_FORCE_MAX_ORDER = 3


class Pinner:
    def __init__(self, eng):
        self.eng = eng
        self.monoids = {}
        self.modules = {}

    def monoid(self, name):
        if name not in self.monoids:
            self.monoids[name] = self.eng.monoid.validate_table(*base_table(name))
        return self.monoids[name]

    def module(self, coeff, name):
        if (coeff, name) not in self.modules:
            M = self.monoid(name)
            A = build_module(self.eng, coeff, name, M, list(range(M.size)))
            if not A.constant:
                bad = self.eng.hmod.validate_module(A)
                if bad:
                    raise SystemExit("%s over %s breaks the module laws: %r"
                                     % (coeff, name, bad[:3]))
            self.modules[(coeff, name)] = A
        return self.modules[(coeff, name)]

    def cohomology(self, name, coeff, r, n):
        return self.eng.cohomology.cohomology_group(
            self.monoid(name), r, n, self.module(coeff, name)).to_json()

    def answer(self, query):
        """The pipeline's answer on the canonical labelling."""
        return normalize(query.kind, bind(self.eng, query, None)())

    def second_routes(self, kind, args, got):
        """(route name, answer) for every independent route to the query;
        `got` is the pipeline's answer, for parts no other route predicts."""
        eng, out = self.eng, []
        if kind not in ("verify_contraction", "verify_contraction_inf"):
            self.module(args[1], args[0])  # checks the module laws
        if kind == "cohomology":
            name, coeff, r, n = args
            out += self._cyclic_routes(name, coeff, r, n)
            if r == 3 and n == 4:
                out.append(("stability H^4(M,3) = H^3(M,2)",
                            self.cohomology(name, coeff, 2, 3)))
            if name == "klein" and (coeff, r, n) in KLEIN_KNOWN:
                free, tors = KLEIN_KNOWN[(coeff, r, n)]
                out.append(("known Klein value", {"free_rank": free, "torsion": tors}))
            if self.monoid(name).size <= BRUTE_FORCE_MAX_ORDER:
                try:
                    z, b, inv = eng.cohomology.brute_force_cohomology(
                        self.monoid(name), r, n, self.module(coeff, name))
                    out.append(("brute_force_cohomology", inv.to_json()))
                except eng.cohomology.BruteForceCapError:
                    pass
        elif kind == "brute_force":
            name, coeff, r, n = args
            out.append(("cohomology_group",
                        got[:2] + [self.cohomology(name, coeff, r, n)]))
        elif kind == "grillet":
            name, coeff, n = args
            if n == 1:
                out.append(("H^1_G = H^1(M,1)", self.cohomology(name, coeff, 1, 1)))
            if n == 2:
                out.append(("H^2_G = H^3(M,2)", self.cohomology(name, coeff, 2, 3)))
        elif kind in ("verify_contraction", "verify_contraction_inf"):
            out.append(("every identity holds (paper)",
                        {"pass": True,
                         "identities": {name: {"pass": True, "witnesses": []}
                                        for name in got["identities"]}}))
        elif kind == "injectivity":
            out.append(("H^3_G -> H^5(M,3) is injective (paper)", [True, None]))
        elif kind == "iso_classes":
            name, coeff = args
            order = 1
            for d in self.cohomology(name, coeff, 3, 5)["torsion"]:
                order *= d
            out.append(("classes = |H^5(M,3;A)|", [got[0], order]))
        return out

    def _cyclic_routes(self, name, coeff, r, n):
        if not name.startswith("C("):
            return []
        cyc = self.eng.cyclic
        m, q = cyclic_params(name)
        A = self.module(coeff, name)
        out = []
        if r == 1 and n >= 1:
            out.append(("leech_groups_cyclic",
                        cyc.leech_groups_cyclic(m, q, (n - 1) // 2, A)[(n - 1) % 2]))
        if r == 2 and n in (2, 3, 4):
            out.append(("level2_groups_cyclic", cyc.level2_groups_cyclic(m, q, A)[n - 2]))
            if n == 4 and A.constant:
                out.append(("closed_form_top", cyc.closed_form_top(q, A.group(0))))
        if r == 3 and n == 5:
            out.append(("level3_top", cyc.level3_top(m, q, A)))
        return [(route, inv.to_json()) for route, inv in out]

    def cli_routes(self, args):
        """The library call a CLI query reports on, where there is one."""
        words = args[1].split()
        opts = dict(zip(words[1::2], words[2::2]))
        name = args[0]
        if words[0] == "cohomology":
            ans = self.cohomology(name, opts["--coeff"], int(opts["--level"]),
                                  int(opts["--degree"]))
        elif words[0] == "oracle":
            z, b, inv = self.eng.cohomology.brute_force_cohomology(
                self.monoid(name), int(opts["--level"]), int(opts["--degree"]),
                self.module(opts["--coeff"], name))
            ans = dict(inv.to_json(), cocycle_count=z, coboundary_count=b)
        elif words[0] == "grillet" and "--degree" in opts:
            ans = self.eng.grillet.grillet_cohomology(
                self.monoid(name), self.module(opts["--coeff"], name),
                int(opts["--degree"])).to_json()
        else:
            return []
        text = json.dumps(ans, sort_keys=True, separators=(",", ":")) + "\n"
        return [("library call", [0, text, ""])]


def pin():
    eng = Engine()
    pinner = Pinner(eng)
    answers, routes, disagreements = {}, {}, []
    queries = {q.key: q for make in WORKLOADS.values() for q in make()}
    for key, q in sorted(queries.items()):
        got = pinner.answer(q)
        others = (pinner.cli_routes(q.args) if q.kind == "cli"
                  else pinner.second_routes(q.kind, q.args, got))
        answers[key] = got
        routes[key] = ["pipeline"] + [route for route, _ in others]
        for route, other in others:
            if json.loads(json.dumps(other)) != json.loads(json.dumps(got)):
                disagreements.append((key, route, got, other))
        print("%-60s %s" % (key, " + ".join(routes[key])), flush=True)
    return answers, routes, disagreements


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true",
                   help="compare with references.json instead of writing it")
    args = p.parse_args()
    answers, routes, disagreements = pin()
    for key, route, got, other in disagreements:
        sys.stderr.write("DISAGREE %s: pipeline %s, %s %s\n" % (key, got, route, other))
    if disagreements:
        return 1
    payload = {"answers": answers, "routes": routes}
    if args.check:
        with open(REFERENCES) as fh:
            pinned = json.load(fh)
        if pinned != json.loads(json.dumps(payload)):
            sys.stderr.write("references.json differs from a fresh pin\n")
            return 1
        print("references.json matches (%d answers)" % len(answers))
        return 0
    with open(REFERENCES, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d answers" % len(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
