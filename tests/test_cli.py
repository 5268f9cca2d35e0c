import io
import json
import os
import sys

import pytest

from monoid_cohomology.cli import run


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


@pytest.mark.parametrize("degree, expected", [
    # the cone without its curvature block would print torsion [2, 2, 2]
    (3, {"free_rank": 0, "torsion": [2]}),
    # the free rank comes from the torsion-free quotient A/tors
    (0, {"free_rank": 1, "torsion": [2]}),
])
def test_mixed_tabular_module_pins(degree, expected):
    # A(x) = Z + Z/2 on cyclic:0,4, y acting by (a, b) -> (a, b + (y mod 2) a)
    code, out, _ = invoke(["--json", "cohomology", "--monoid", "cyclic:0,4", "--level", "1",
                           "--degree", str(degree), "--coeff", "@" + TWISTED])
    assert code == 0
    assert json.loads(out) == expected


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

    code, _, err = invoke(["cohomology", "--monoid", "cyclic:9", "--level", "1",
                           "--degree", "1", "--coeff", "Z"])
    assert code == 2 and "monoid" in err
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
