"""No module in src/ loops over every tuple of basis indices.

The package reads tensors off their supports.  A call
itertools.product(range(d), repeat=k) walks all d^k tuples whatever the
tensors hold; the references in tests/oracles.py keep such loops, the
package does not.  One all-input walk stays by design, and it is not such
a call: a cochain space reads every column of its twist constraint, each
row of alpha^{tensor k} built by one Kronecker step on its prefix's,
because the kernel basis needs every ambient coordinate anyway.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "homleibniz")


def _all_tuples_call(node):
    """Whether node is product(range(..), .., repeat=..), itertools. or bare."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if not (
        isinstance(f, ast.Attribute) and f.attr == "product" and isinstance(f.value, ast.Name) and f.value.id == "itertools"
        or isinstance(f, ast.Name) and f.id == "product"
    ):
        return False
    ranged = any(isinstance(a, ast.Call) and isinstance(a.func, ast.Name) and a.func.id == "range" for a in node.args)
    return ranged and any(k.arg == "repeat" for k in node.keywords)


def test_no_module_in_src_loops_over_all_basis_tuples():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree) if _all_tuples_call(node)]
    assert found == []
