import ast
import os
import re

import monoid_cohomology

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start_snippet():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    # the snippet imports from the package root, whose trimmed exports
    # must still cover it; its last line is the expression it documents
    tree = ast.parse(quick_start_snippet())
    *body, last = tree.body
    env = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), env)
    result = eval(compile(ast.Expression(last.value), "README.md", "eval"), env)
    assert repr(result) == "Z/4"
    assert monoid_cohomology.cohomology_group is env["cohomology_group"]
