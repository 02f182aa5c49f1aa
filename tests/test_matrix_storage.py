"""Only linalg knows how a Matrix stores its cells.

Other package modules read a Matrix through Matrix.column; documents, which
write a Matrix as a dense grid, is the one other reader of its dense
`.entries` view.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "homleibniz")


def test_only_linalg_and_documents_read_matrix_entries():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        if os.path.basename(path) in ("linalg.py", "documents.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "entries"
        ]
    assert found == []
