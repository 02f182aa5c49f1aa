"""No function in the package calls itself, so no input's size sets a recursion depth.

The check catches direct self-calls only: a function whose body calls its
own bare name.  Mutual recursion, and a method calling itself through self,
pass it unseen.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "homleibniz")


def calls_itself(fn):
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
        for node in ast.walk(fn)
    )


def test_package_has_no_directly_recursive_functions():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls_itself(node)
        ]
    assert found == []
