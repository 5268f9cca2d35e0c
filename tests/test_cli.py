import copy
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest

import monoid_cohomology
from monoid_cohomology.cli import run
from monoid_cohomology.monoid import make_cyclic, monoid_to_descriptor


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_cohomology_worked_example():
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "cyclic:0,2",
                           "--level", "2", "--degree", "4", "--coeff", "Z/4"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "torsion": [4]}


TWISTED = os.path.join(os.path.dirname(__file__), "data", "twisted_z_z2_c04.json")
LAWLESS = os.path.join(os.path.dirname(__file__), "data", "lawless_c03.json")


@pytest.mark.parametrize("degree, expected", [
    # the cone without its curvature block would print torsion [2, 2, 2]
    (3, {"free_rank": 0, "torsion": [2]}),
    # the free rank comes from the ranks of the cone's differentials
    (0, {"free_rank": 1, "torsion": [2]}),
])
def test_mixed_tabular_module_pins(degree, expected):
    # A(x) = Z + Z/2 on cyclic:0,4, y acting by (a, b) -> (a, b + (y mod 2) a)
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "cyclic:0,4", "--level", "1",
                           "--degree", str(degree), "--coeff", "@" + TWISTED])
    assert code == 0
    assert json.loads(out) == expected


def test_an_at_file_module_is_validated_once(monkeypatch):
    # the descriptor parse checks shapes only; the laws are checked once,
    # by the entry point that reads the module
    from monoid_cohomology import hmod
    calls = []
    validate = hmod.validate_module
    monkeypatch.setattr(hmod, "validate_module", lambda A: calls.append(A) or validate(A))
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "cyclic:0,4", "--level", "1",
                           "--degree", "3", "--coeff", "@" + TWISTED])
    assert code == 0 and json.loads(out) == {"free_rank": 0, "torsion": [2]}
    assert len(calls) == 1


def test_groupoid_check_validates_an_at_file_module_once(monkeypatch, tmp_path):
    # the 5-cocycle test reads the crossed product the coherence check built
    from monoid_cohomology import hmod
    calls = []
    validate = hmod.validate_module
    monkeypatch.setattr(hmod, "validate_module", lambda A: calls.append(A) or validate(A))
    cocycle = tmp_path / "zero.json"
    cocycle.write_text('{"g": {}, "mu": {}}')
    code, out, _ = invoke(["--json", "groupoid", "check", "--monoid", "cyclic:0,4",
                           "--coeff", "@" + TWISTED, "--cocycle", str(cocycle)])
    assert code == 0
    assert json.loads(out) == {"coherent": True, "cocycle": True, "failures": []}
    assert len(calls) == 1


def test_cyclic_groups_validates_an_at_file_module_once(monkeypatch):
    # the four groups read one law check and one complex per level
    from monoid_cohomology import cli, hmod
    calls, levels = [], []
    validate, complex_of = hmod.validate_module, cli.small_model_complex
    monkeypatch.setattr(hmod, "validate_module", lambda A: calls.append(A) or validate(A))
    monkeypatch.setattr(cli, "small_model_complex",
                        lambda M, r, *rest: levels.append(r) or complex_of(M, r, *rest))
    code, out, _ = invoke(["--json", "cyclic", "groups", "--index", "0", "--period", "4",
                           "--coeff", "@" + TWISTED])
    assert code == 0
    assert out == ('{"H2(C,2)":{"free_rank":0,"torsion":[2]},"H3(C,2)":{"free_rank":0,'
                   '"torsion":[2,4]},"H4(C,2)":{"free_rank":0,"torsion":[2]},"H5(C,3)":'
                   '{"free_rank":0,"torsion":[2]}}\n')
    assert len(calls) == 1 and levels == [2, 3]


def test_cyclic_groups_refuses_as_its_first_refused_query():
    # order 3000 is above MAX_CYCLIC_ORDER (check_cyclic); at order 1025
    # the level-2 bar to degree 3, which H^2 reads, has too many cells, and
    # at order 200 the one to degree 4, which H^3 reads
    for period, level, degree in ((3000, 2, 2), (1025, 2, 2), (200, 2, 3)):
        code, out, err = invoke(["cyclic", "groups", "--index", "0", "--period", str(period),
                                 "--coeff", "Z"])
        assert code == 2 and out == ""
        assert (code, err) == invoke(["cohomology", "--monoid", "cyclic:0,%d" % period,
                                      "--level", str(level), "--degree", str(degree),
                                      "--coeff", "Z"])[::2], period


def test_a_lawless_at_file_module_exits_2_through_every_subcommand(tmp_path):
    cocycle = tmp_path / "zero.json"
    cocycle.write_text('{"g": {}, "mu": {}}')
    on_c03 = ["--monoid", "cyclic:0,3", "--coeff", "@" + LAWLESS]
    for argv in (["cohomology", "--level", "1", "--degree", "1"] + on_c03,
                 ["oracle", "--level", "1", "--degree", "1"] + on_c03,
                 ["grillet", "--degree", "2"] + on_c03,
                 ["grillet"] + on_c03,
                 ["cyclic", "groups", "--index", "0", "--period", "3", "--coeff", "@" + LAWLESS],
                 ["groupoid", "check", "--cocycle", str(cocycle)] + on_c03,
                 ["groupoid", "classify"] + on_c03):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: tabular module violates the module laws"), (argv, err)
        assert err.count("\n") == 1, err


def test_vanishing_band_example():
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "cyclic:0,2",
                           "--level", "2", "--degree", "1", "--coeff", "Z"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "torsion": []}


def test_verify_contraction_passes():
    code, out, _ = invoke(["verify", "contraction", "--index", "1",
                           "--period", "1", "--max-degree", "4"])
    assert code == 0
    assert "overall: pass" in out


def test_verify_contraction_infinite():
    code, out, _ = invoke(["--json", "verify", "contraction",
                           "--max-degree", "3", "--entry-bound", "3"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cells_output_deterministic():
    argv = ["--json", "cells", "--monoid", "cyclic:1,2", "--level", "2",
            "--degree", "4"]
    _, out1, _ = invoke(argv)
    _, out2, _ = invoke(argv)
    assert out1 == out2
    cells = json.loads(out1)["cells"]
    assert all(c["degree"] == 4 for c in cells)
    # three-letter plain cells precede the two-letter separator cells
    assert [len(c["letters"]) for c in cells] == sorted(
        [len(c["letters"]) for c in cells], reverse=True)


def test_oracle_matches_cohomology():
    argv_tail = ["--monoid", "cyclic:0,2", "--level", "3", "--degree", "5",
                 "--coeff", "Z/2"]
    code, out, _ = invoke(["--json", "oracle"] + argv_tail)
    assert code == 0
    data = json.loads(out)
    assert data["cocycle_count"] == 2 and data["coboundary_count"] == 1
    code, out, _ = invoke(["--json", "cohomology"] + argv_tail)
    assert json.loads(out) == {"free_rank": 0, "torsion": [2]}


def test_oracle_with_trivial_coefficients_searches_many_cells():
    # Z/1 adds nothing to the cap's count, so all 1,024 cells of C^5 are
    # searched, one level of the iterative search each
    code, out, _ = invoke(["--json", "oracle", "--monoid", "cyclic:2,3", "--level", "1",
                           "--degree", "5", "--coeff", "Z/1"])
    assert code == 0
    assert out == '{"coboundary_count":1,"cocycle_count":1,"free_rank":0,"torsion":[]}\n'


def test_cells_of_one_long_shape():
    # over one letter, level-1 degree 5000 is one cell of 5000 letters
    code, out, _ = invoke(["--json", "cells", "--monoid", "cyclic:0,2", "--level", "1",
                           "--degree", "5000"])
    assert code == 0
    (cell,) = json.loads(out)["cells"]
    assert cell["letters"] == [1] * 5000


def test_grillet_subcommand():
    code, out, _ = invoke(["--json", "grillet", "--monoid", "cyclic:0,2",
                           "--coeff", "Z/2", "--degree", "2"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "torsion": [2]}
    code, out, _ = invoke(["--json", "grillet", "--monoid", "cyclic:1,1",
                           "--coeff", "Z/4"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cyclic_groups_subcommand():
    code, out, _ = invoke(["--json", "cyclic", "groups", "--index", "0",
                           "--period", "2", "--coeff", "Z/4"])
    assert code == 0
    data = json.loads(out)
    assert data["H4(C,2)"] == {"free_rank": 0, "torsion": [4]}
    assert data["H5(C,3)"] == {"free_rank": 0, "torsion": [2]}


def test_groupoid_check_subcommand(tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"g": {}, "mu": {"1,1": [1]}}))
    code, out, _ = invoke(["--json", "groupoid", "check", "--monoid",
                           "cyclic:0,2", "--coeff", "Z/2",
                           "--cocycle", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["coherent"] is True and data["cocycle"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"g": {"1,1,1": [1]}, "mu": {}}))
    code, out, _ = invoke(["--json", "groupoid", "check", "--monoid",
                           "cyclic:0,2", "--coeff", "Z/2",
                           "--cocycle", str(bad)])
    assert code == 1
    data = json.loads(out)
    assert data["coherent"] is False


def test_groupoid_classify_output_and_search_cap():
    code, out, _ = invoke(["--json", "groupoid", "classify", "--monoid",
                           "cyclic:1,2", "--coeff", "Z/2"])
    assert code == 0
    assert out == '{"automorphism_search":false,"classes":2,"cocycles":8}\n'
    # 2^125 g tables on C(3,3): refused before any table is listed
    code, out, err = invoke(["groupoid", "classify", "--monoid", "cyclic:3,3",
                             "--coeff", "Z/2"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_torsion_one_descriptor_is_the_trivial_group():
    argv = ["--json", "cohomology", "--monoid", "cyclic:0,2", "--level", "2",
            "--degree", "2", "--coeff"]
    code, out, _ = invoke(argv + [_z2_tabular({"torsion": [1]}, [])])
    assert code == 0
    assert invoke(argv + ["Z/1"])[1] == out


def test_monoid_descriptor_file(tmp_path):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"kind": "table", "size": 2, "identity": 0,
                                "table": [[0, 1], [1, 0]]}))
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "@" + str(path),
                           "--level", "1", "--degree", "2", "--coeff", "Z"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "torsion": [2]}


def _tabular(groups, actions):
    return json.dumps({"kind": "tabular", "groups": groups, "actions": actions})


def _z2_tabular(group, action):
    # the same group at both elements of Z/2, every action `action`
    return _tabular({"0": group, "1": group},
                    {"%d,%d" % (x, y): action for x in (0, 1) for y in (0, 1)})


def test_malformed_inputs_exit_2(tmp_path):
    def exits_2(monoid, coeff="Z"):
        code, out, err = invoke(["cohomology", "--monoid", monoid, "--level",
                                 "1", "--degree", "1", "--coeff", coeff])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    exits_2('{"kind":"table","size":2,"identity":0}')
    exits_2('{"kind":"cyclic","index":0}')
    exits_2("@" + str(tmp_path))  # a directory, not a descriptor file
    # torsion orders below 1 are rejected; Z/1 has no generators, so a
    # 1x1 action on it has the wrong shape
    exits_2("cyclic:0,2", _z2_tabular({"torsion": [0]}, []))
    exits_2("cyclic:0,2", _z2_tabular({"torsion": [1]}, [[1]]))
    assert "action" in exits_2("cyclic:0,2", _tabular(
        {"0": {"free_rank": 1}, "1": {"free_rank": 1}},
        {"0,0": [[1, 0]], "0,1": [[1]], "1,0": [[1]], "1,1": [[1]]}))
    # tabular groups or actions that are not JSON objects
    assert "groups" in exits_2("cyclic:1,2", _tabular(-5, {}))
    assert "actions" in exits_2("cyclic:1,2", _tabular(
        {str(x): {"torsion": [2]} for x in range(3)}, 0))
    # JSON true and false are ints to Python; every integer field of
    # every descriptor kind refuses them
    for table in ({"size": True, "identity": 0, "table": [[0]]},
                  {"size": 2, "identity": False, "table": [[0, 1], [1, 0]]},
                  {"size": 2, "identity": 0, "table": [[0, True], [True, 0]]}):
        exits_2(json.dumps(dict(table, kind="table")))
    exits_2('{"kind":"cyclic","index":true,"period":2}')
    exits_2('{"kind":"cyclic","index":1,"period":true}')
    exits_2("cyclic:1,2", '{"kind":"constant","group":{"torsion":[4],"free_rank":true}}')
    exits_2("cyclic:1,2", '{"kind":"constant","group":{"torsion":[true]}}')
    exits_2("cyclic:0,2", _z2_tabular({"torsion": [2]}, [[True]]))
    exits_2("cyclic:0,2", _z2_tabular({"free_rank": True}, [[1]]))
    # Z/4 on cyclic:0,3, the elements other than the identity acting by 2:
    # 1_* 1_* = 4 = 0 but 2_* = 2
    assert "violates the module laws" in exits_2("cyclic:0,3", "@" + LAWLESS)
    # sizes no computation can reach are refused before any allocation
    assert "cyclic order" in exits_2('{"kind":"cyclic","index":%d,"period":2}' % 2 ** 64)
    assert "generators" in exits_2("cyclic:1,2", "Z^%d" % 2 ** 64)
    assert "generators" in exits_2(
        "cyclic:1,2", '{"kind":"constant","group":{"free_rank":%d}}' % 2 ** 64)

    code, _, err = invoke(["cohomology", "--monoid", "cyclic:9", "--level", "1",
                           "--degree", "1", "--coeff", "Z"])
    assert code == 2 and "monoid" in err
    # every command reading --monoid needs a finite monoid, named once
    # in parse_monoid with the command that checks the infinite one
    for argv in (["cohomology", "--level", "1", "--degree", "1", "--coeff", "Z"],
                 ["oracle", "--level", "1", "--degree", "1", "--coeff", "Z/2"],
                 ["cells", "--level", "1", "--degree", "1"],
                 ["grillet", "--coeff", "Z/2", "--degree", "2"],
                 ["groupoid", "check", "--coeff", "Z/2", "--cocycle", "/nonexistent.json"],
                 ["groupoid", "classify", "--coeff", "Z/2"]):
        for monoid in ("infinite-cyclic", '{"kind":"infinite-cyclic"}'):
            code, out, err = invoke(argv + ["--monoid", monoid])
            assert code == 2 and out == "", argv
            assert err.count("\n") == 1 and "`verify contraction` without --index" in err, err
    code, _, err = invoke(["cohomology", "--monoid", "cyclic:0,2", "--level",
                           "1", "--degree", "1", "--coeff", "Q/Z"])
    assert code == 2 and "coefficient" in err
    code, _, err = invoke(["cohomology", "--monoid", "cyclic:0,2", "--level",
                           "2", "--degree", "9", "--coeff", "Z"])
    assert code == 2
    code, _, err = invoke(["groupoid", "check", "--monoid", "cyclic:0,2",
                           "--coeff", "Z/2", "--cocycle", "/nonexistent.json"])
    assert code == 2

    def cocycle_exits_2(tables):
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(tables))
        code, out, err = invoke(["groupoid", "check", "--monoid", "cyclic:0,2",
                                 "--coeff", "Z/2", "--cocycle", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    cocycle_exits_2({"g": {"1,1,1": 5}})
    cocycle_exits_2({"g": []})
    cocycle_exits_2({"g": {"7,7,7": [1]}})
    cocycle_exits_2({"mu": {"1,1": ["a"]}})
    cocycle_exits_2({"g": {"1,1,1": [True]}})

    # a negative degree or bound, and a period without an index, would
    # otherwise print an answer or a vacuous pass
    for argv in (["oracle", "--monoid", "cyclic:0,2", "--level", "1",
                  "--degree", "-1", "--coeff", "Z/2"],
                 ["verify", "contraction", "--max-degree", "-2"],
                 ["verify", "contraction", "--entry-bound", "0"],
                 ["verify", "contraction", "--period", "2"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err

    # degrees no computation can reach: the cells are counted, not
    # listed, and the count is refused before anything is built, on a
    # product of two cyclic submonoids (Klein, identity 3) as on a
    # cyclic table, though neither would build the iterated bar
    klein = json.dumps({"kind": "table", "size": 4, "identity": 3,
                        "table": [[3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2], [0, 1, 2, 3]]})
    for argv in (["cells", "--monoid", "cyclic:1,2", "--level", "3", "--degree", "60"],
                 ["cohomology", "--monoid", "cyclic:2,3", "--level", "1",
                  "--degree", "60", "--coeff", "Z"],
                 ["cohomology", "--monoid", klein, "--level", "1", "--degree", "60", "--coeff", "Z"],
                 ["oracle", "--monoid", "cyclic:2,3", "--level", "1",
                  "--degree", "60", "--coeff", "Z/2"],
                 ["verify", "contraction", "--index", "1", "--period", "2",
                  "--max-degree", "60"],
                 ["verify", "contraction", "--max-degree", "60", "--entry-bound", "5"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "cells" in err, err

    # over a one-letter monoid the cells are few and long: degree 100000
    # passes the cell cap, and its templates are refused from the shapes,
    # and the contraction check's shuffle terms from the word counts
    for argv, cause in ((["cohomology", "--monoid", "cyclic:0,2", "--level", "1",
                          "--degree", "100000", "--coeff", "Z"], "templates"),
                        (["oracle", "--monoid", "cyclic:0,2", "--level", "1",
                          "--degree", "100000", "--coeff", "Z/2"], "templates"),
                        (["verify", "contraction", "--index", "0", "--period", "2",
                          "--max-degree", "100000"], "shuffle terms")):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert cause in err, err


def test_huge_contraction_queries_exit_2_before_listing_letters():
    # the cyclic parameters and the word counts are refused before any
    # letter is listed; listing 10^9 letters raises MemoryError under
    # the child's 1 GB address-space limit, and 2^64 of them would not
    # fit in a range's length
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(monoid_cohomology.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for huge in ("1000000000", str(2 ** 64)):
        for argv in (["--index", huge, "--period", "2", "--max-degree", "1"],
                     ["--max-degree", "1", "--entry-bound", huge]):
            proc = subprocess.run([sys.executable, "-m", "monoid_cohomology.cli", "verify",
                                   "contraction"] + argv, env=env, capture_output=True,
                                  text=True, timeout=20, preexec_fn=limit_memory)
            assert proc.returncode == 2 and proc.stdout == "", (argv, proc.stderr)
            assert proc.stderr.startswith("error: "), proc.stderr
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr


def test_large_cyclic_orders_exit_2_before_building_the_table():
    # an order of 20,000 passes the parameter checks; its table of 4 * 10^8
    # entries raises MemoryError under the child's 1 GB address-space
    # limit unless the order is refused first
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(monoid_cohomology.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["cohomology", "--monoid", "cyclic:20000,1", "--level", "1", "--degree", "0",
                  "--coeff", "Z"],
                 ["verify", "contraction", "--index", "20000", "--period", "1",
                  "--max-degree", "1"]):
        proc = subprocess.run([sys.executable, "-m", "monoid_cohomology.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=limit_memory)
        assert proc.returncode == 2 and proc.stdout == "", (argv, proc.stderr)
        assert proc.stderr.startswith("error: cyclic order"), proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr


ODD_VALUES = [None, True, 1.5, "", [], {}, 2 ** 32, 2 ** 64, 10 ** 100, -1]


def _fuzz_bases():
    """Valid (monoid, module, cocycle) descriptors on C(0,2), C(1,1) and
    C(1,2), each monoid as a table and as an index and period.  The
    cocycle entries sit at unit arguments, where a value must vanish, so
    every mutation leaves a zero cocycle or malformed input and exit 1 is
    wrong on every case.  A huge free rank or cyclic order is refused
    before anything is allocated, so the mutations reach both."""
    out = []
    for m, q in ((0, 2), (1, 1), (1, 2)):
        M = make_cyclic(m, q)
        elements = range(M.size)

        def tabular(torsion, action):
            return {"kind": "tabular",
                    "groups": {str(x): {"torsion": torsion} for x in elements},
                    "actions": {"%d,%d" % (x, y): action(y) for x in elements
                                for y in elements}}

        modules = [{"kind": "constant", "group": {"torsion": [2]}},
                   {"kind": "constant", "group": {"torsion": [2, 4]}},
                   {"kind": "constant", "group": {"free_rank": 1, "torsion": [2]}},
                   tabular([2], lambda y: [[1]])]
        if m == 0:
            modules.append(tabular([4], lambda y: [[(-1) ** y]]))
        for module in modules:
            group = module.get("group", {"torsion": [2]})
            zero = [0] * (group.get("free_rank", 0) + len(group["torsion"]))
            cocycle = {"g": {"0,1,1": zero, "1,0,1": zero}, "mu": {"1,0": zero}}
            for monoid in (monoid_to_descriptor(M),
                           {"kind": "cyclic", "index": m, "period": q}):
                out.append((monoid, module, cocycle))
    return out


def _mutate(doc, rng):
    """doc with one entry deleted, duplicated (a list element repeated, a
    key copied to a new name) or replaced by an odd value, at any depth."""
    def paths(node, prefix):
        yield prefix
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for k, v in children:
            yield from paths(v, prefix + (k,))

    doc = copy.deepcopy(doc)
    path = rng.choice(list(paths(doc, ()))[1:])
    holder = doc
    for k in path[:-1]:
        holder = holder[k]
    key = path[-1]
    op = rng.choice(("delete", "duplicate", "replace", "replace"))
    if op == "delete":
        del holder[key]
    elif op == "duplicate" and isinstance(holder, list):
        holder.insert(key, copy.deepcopy(holder[key]))
    elif op == "duplicate":
        holder[key + "0"] = copy.deepcopy(holder[key])
    else:
        holder[key] = rng.choice(ODD_VALUES)
    return doc


def test_unparsable_coefficient_shorthand_names_its_part():
    # a count that is no integer is refused like an unknown group, by the
    # part it sits in, not by int()'s message
    for coeff, part in (("Z^abc", "'Z^abc'"), ("Z^", "'Z^'"), ("Z/", "'Z/'"),
                        ("Z/2+Z^x", "'Z^x'"), ("GL2", "'GL2'")):
        code, out, err = invoke(["cohomology", "--monoid", "cyclic:1,2", "--level", "1",
                                 "--degree", "1", "--coeff", coeff])
        assert code == 2 and out == ""
        assert err == "error: cannot parse coefficient shorthand %s\n" % part, err


def test_fuzzed_descriptors_exit_0_or_2(tmp_path):
    # one mutation of one descriptor per case, through every subcommand
    # that reads descriptors; a traceback propagates out of run
    rng = random.Random(0)
    bases = _fuzz_bases()
    cocycle_path = tmp_path / "cocycle.json"
    for case in range(400):
        docs = list(rng.choice(bases))
        which = rng.randrange(3)
        docs[which] = _mutate(docs[which], rng)
        monoid, coeff = json.dumps(docs[0]), json.dumps(docs[1])
        command = rng.choice(("cohomology", "oracle", "grillet", "groupoid"))
        if command == "groupoid":
            cocycle_path.write_text(json.dumps(docs[2]))
            argv = ["groupoid", "check", "--monoid", monoid, "--coeff", coeff,
                    "--cocycle", str(cocycle_path)]
        elif command == "grillet":
            argv = ["grillet", "--monoid", monoid, "--coeff", coeff,
                    "--degree", str(rng.choice((1, 2)))]
        else:
            level = 1 if command == "oracle" else rng.choice((1, 2))
            argv = [command, "--monoid", monoid, "--level", str(level),
                    "--degree", str(rng.choice((1, 2))), "--coeff", coeff]
        code, out, err = invoke(["--json"] + argv)
        assert code in (0, 2), (case, argv, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, \
                (case, argv, err)
