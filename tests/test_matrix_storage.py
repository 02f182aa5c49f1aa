"""Only linalg knows how a Matrix stores its cells.

A Matrix keeps one form, int numerator rows over one int den, and no
package module branches on another: none compares a den with None.  Other
modules read the stored ints through Matrix.numerators() and never touch
Matrix._data; they read Fractions through Matrix.row and Matrix.column.
documents, which writes a Matrix as a dense grid, is the one other reader
of its dense `.entries` view.

Cochains are sparse too: a Cochain holds its sparse ambient vector, and
dense lists are built only for linalg's dense views, Cochain.coeffs and the
coordinate list that MorphismComplex.coords hands the witness for solve.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "homleibniz")


def package_trees():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def attribute_reads(attr, skip):
    return [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        if name not in skip
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_only_linalg_and_documents_read_matrix_entries():
    assert attribute_reads("entries", ("linalg.py", "documents.py")) == []


def test_only_linalg_reads_the_stored_cells():
    assert attribute_reads("_data", ("linalg.py",)) == []


def test_no_module_compares_a_den_with_none():
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                names = [s.attr if isinstance(s, ast.Attribute) else getattr(s, "id", None) for s in sides]
                if "den" in names and any(isinstance(s, ast.Constant) and s.value is None for s in sides):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def dense_vector_calls(node):
    return sum(
        isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "dense_vector"
        for n in ast.walk(node)
    )


def test_dense_vectors_are_built_only_for_the_dense_views():
    found = []
    for name, tree in package_trees():
        scopes = [("", tree.body)] + [(f"{c.name}.", c.body) for c in tree.body if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for fn in body:
                if isinstance(fn, ast.FunctionDef):
                    found += [f"{name}:{prefix}{fn.name}"] * dense_vector_calls(fn)
        found += [f"{name}:<outside a function>"] * (dense_vector_calls(tree) - sum(f.startswith(f"{name}:") for f in found))
    assert sorted(found) == [
        "cochain.py:Cochain.coeffs",
        "linalg.py:Matrix.entries",
        "linalg.py:SubspaceBasis.vectors",
        "morphism_complex.py:MorphismComplex.coords",
    ]
