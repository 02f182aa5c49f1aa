#!/usr/bin/env python3
"""Print one sha256 over the CLI's reports on the fixture documents.

    python3 scripts/report_digests.py [DOCUMENT ...]

Each document, a path under fixtures/ relative to the root of the checkout (default: every
fixtures/*.json and fixtures/deform/*.json), goes through these in-process
CLI calls:

* cohomology and morphism-cohomology at degrees 1..2, 1..3 and 3, in table
  and json form;
* deform check;
* deform extend at orders 1, 2 and 3, emitting the extended document.

A call on a document of the wrong kind ends in an input error, which is
hashed like any report.  The digest covers each call's arguments, exit
code, standard output, standard error and emitted document.  The calls run
in a temporary copy of fixtures/, so the echoed paths are the same in every
checkout, and two checkouts that print the same digest gave byte-identical
reports.  The last line of output is "<calls> calls  sha256 <hex digest>".
"""

import contextlib
import glob
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from homleibniz.cli import main as cli_main  # noqa: E402

EMITTED = "emitted.json"


def commands(doc):
    for cmd in ("cohomology", "morphism-cohomology"):
        for degrees in ("1..2", "1..3", "3"):
            for fmt in ("table", "json"):
                yield [cmd, doc, "--degrees", degrees, "--format", fmt]
    yield ["deform", "check", doc]
    for order in ("1", "2", "3"):
        yield ["deform", "extend", doc, "--order", order, "--emit", EMITTED]


def run(argv):
    """(exit code, stdout, stderr, emitted bytes or b"") of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    emitted = b""
    if os.path.exists(EMITTED):
        with open(EMITTED, "rb") as f:
            emitted = f.read()
        os.remove(EMITTED)
    return code, out.getvalue(), err.getvalue(), emitted


def digest(docs):
    """(number of calls, sha256 hex digest) over every command on docs."""
    h, calls = hashlib.sha256(), 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "fixtures"), os.path.join(tmp, "fixtures"))
        os.chdir(tmp)
        try:
            for doc in docs:
                for argv in commands(doc):
                    code, out, err, emitted = run(argv)
                    for part in (" ".join(argv), str(code), out, err):
                        h.update(part.encode() + b"\0")
                    h.update(emitted + b"\0")
                    calls += 1
        finally:
            os.chdir(here)
    return calls, h.hexdigest()


def main(argv=None):
    docs = list(sys.argv[1:] if argv is None else argv)
    if not docs:
        pattern = [os.path.join("fixtures", "*.json"), os.path.join("fixtures", "deform", "*.json")]
        docs = [os.path.relpath(p, ROOT) for pat in pattern for p in sorted(glob.glob(os.path.join(ROOT, pat)))]
    calls, hexdigest = digest(docs)
    print(f"{calls} calls  sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
