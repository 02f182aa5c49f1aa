"""The four benchmark workloads: seeded inputs, timed calls, output checks.

Each workload is built in three steps.  ``generate`` makes the inputs from
the seed in memory, together with the reference each output is checked
against.  ``Inputs.write`` serialises them as documents and ``validate``
runs ``homleibniz validate`` on every document; these belong to set-up.
``run_pass`` then makes the workload's calls back to back, one caller and
one thread, and returns what each call printed and how long it took; ``check`` compares that to
the references afterwards, outside the timed region.

Most calls go through ``homleibniz.cli.main`` in-process with ``--format
json``.  The package keeps no cache across calls, so every pass builds its
objects afresh, exactly as a user pays on every command.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field

from homleibniz import cli, cochain, documents, fixtures
from homleibniz.algebra import HomNaryAlgebra, yau_twist
from homleibniz.deformation import MorphismDeformation, TruncatedDeformation
from homleibniz.linalg import Matrix, Q

import oracle

WORKLOADS = ("cohomology", "twisted", "calibration", "deform_chain")

# Battery of order-1 deformations whose order-2 verdicts every seed reproduces.
BATTERY_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures", "deform_battery.json"
)

# deform_chain runs every other entry of the battery: 27 chains and about 100
# calls, so that p90 has ten calls beyond it and a pass fits three times in
# a run.  All five base morphisms and the battery's one order-3 obstruction
# (entry 34) stay in.
CHAIN_SCALES = (1, -1, 2, -2, Q(1, 2), Q(-1, 2))

# The four conventions under which delta o delta vanishes on the whole
# calibration battery; the first is the shipped default.
CALIBRATION_SURVIVORS = (
    "A+B+C+D+|xy|hat-twisted|c-full",
    "A+B+C+D+|xy|hat-bare|c-full",
    "A-B-C-D-|xy|hat-twisted|c-full",
    "A-B-C-D-|xy|hat-bare|c-full",
)


@dataclass
class Call:
    """One timed operation and what it returned."""

    label: str
    seconds: float
    code: int | None  # exit code; None when the call raised
    output: object  # captured stdout, a library result, or the traceback
    problems: list = field(default_factory=list)
    meta: tuple = ()  # what the check needs to know about the call
    start: float = 0.0  # time.perf_counter() when the call began


def cli_call(label, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return Call(label, time.perf_counter() - t0, None, traceback.format_exc(), start=t0)
    return Call(label, time.perf_counter() - t0, code, out.getvalue() + err.getvalue(), start=t0)


def _report(call, expect_code=0):
    """Parsed JSON report of a CLI call, or None with the problem recorded."""
    if call.code is None:
        call.problems.append(f"raised: {call.output.strip().splitlines()[-1]}")
        return None
    if call.code != expect_code:
        call.problems.append(f"exit code {call.code}, expected {expect_code}")
    try:
        return json.loads(call.output)
    except ValueError:
        call.problems.append("output is not a JSON report")
        return None


def _failed_checks(report):
    return [c["name"] for c in report["checks"] if c["verdict"] != "pass"]


# ---------------------------------------------------------------------------
# inputs


def h3(c=1):
    """The Heisenberg algebra [x, y] = c z, alpha = id; isomorphic to h3 for c != 0."""
    return HomNaryAlgebra(
        2, 3, ("x", "y", "z"), {(0, 1): {2: Q(c)}, (1, 0): {2: Q(-c)}}, Matrix.identity(3)
    )


def ternary(c=1):
    """[f, f, f] = c e, alpha = id; isomorphic to fixtures.ternary_fff_e for c != 0."""
    return HomNaryAlgebra(3, 2, ("e", "f"), {(1, 1, 1): {0: Q(c)}}, Matrix.identity(2))


def rescaled(md, c):
    """The order-1 deformation md with its order-1 terms multiplied by c."""

    def scale(mm):
        return {key: {k: c * v for k, v in out.items()} for key, out in mm.items()}

    return MorphismDeformation(
        md.phi,
        TruncatedDeformation.from_higher(md.xi.base, [scale(md.xi.coeffs[1])]),
        TruncatedDeformation.from_higher(md.eta.base, [scale(md.eta.coeffs[1])]),
        [md.phis[0], md.phis[1].scaled(c)],
    )


@dataclass
class Inputs:
    """Generated documents (name -> serialisable object) plus the pass plan."""

    workload: str
    workdir: str
    docs: dict = field(default_factory=dict)  # file name -> (kind, object)
    plan: list = field(default_factory=list)  # workload-specific call plan
    refs: dict = field(default_factory=dict)  # reference values for the checks
    setup_calls: list = field(default_factory=list)  # the validate call of set-up

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self):
        """Serialise every generated object with documents.serialize_*."""
        os.makedirs(self.workdir, exist_ok=True)
        for name, (kind, obj) in self.docs.items():
            serialize = getattr(documents, f"serialize_{kind}")
            documents.dump_json(serialize(obj), self.path(name))
        return [self.path(name) for name in self.docs]


def _cohomology_plan(inputs, rows, small):
    """rows: (label, subcommand, file, degrees, small degrees, expected H)."""
    for label, cmd, name, degrees, small_degrees, expected in rows:
        hi = small_degrees if small else degrees
        argv = [cmd, inputs.path(name), "--degrees", f"1..{hi}", "--format", "json"]
        inputs.plan.append((label, argv))
        inputs.refs[label] = list(expected[:hi])


def generate(workload, seed, workdir, small=False):
    """Inputs and references of a workload; the same seed gives the same inputs.

    Seeds only move scalars within a class that leaves the work per pass
    unchanged: bracket constants of isomorphic algebras, distinct primes
    of a generic twist, and the scale of the battery's deformations.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workload, workdir)

    if workload == "cohomology":
        c = rng.choice([1, 2, 3, 5, 7]) * rng.choice([1, -1])
        k = rng.choice([1, 2, 3, 5, 7]) * rng.choice([1, -1])
        a = h3(c)
        inputs.docs["h3.json"] = ("algebra", a)
        inputs.docs["h3_twisted.json"] = ("algebra", yau_twist(a, fixtures.diag(1, -1, -1)))
        inputs.docs["ternary_identity.json"] = ("morphism", fixtures.identity_morphism(ternary(k)))
        _cohomology_plan(inputs, [
            ("h3", "cohomology", "h3.json", 3, 2, [6, 8, 17]),
            ("h3 diag(1,-1,-1)", "cohomology", "h3_twisted.json", 3, 2, [3, 4, 9]),
            ("ternary identity", "morphism-cohomology", "ternary_identity.json", 2, 2, [2, 3]),
        ], small)
        # H^1(h3; h3) with alpha = id is Der(h3): an independent count
        inputs.refs["der(h3)"] = oracle.derivation_dim(a.dim, a.bracket)

    elif workload == "twisted":
        p, q = rng.sample([2, 3, 5, 7], 2)
        s = rng.randint(2, 7)
        inputs.docs["h3_generic.json"] = ("algebra", yau_twist(h3(), fixtures.diag(p, q, p * q)))
        inputs.docs["ternary_twisted.json"] = ("algebra", fixtures.twisted_ternary_fff_e(s))
        inputs.docs["aff1_twisted.json"] = ("algebra", fixtures.twisted_aff1(s))
        _cohomology_plan(inputs, [
            (f"h3 diag({p},{q},{p * q})", "cohomology", "h3_generic.json", 3, 2, [2, 1, 0]),
            (f"ternary diag({s ** 3},{s})", "cohomology", "ternary_twisted.json", 4, 2, [1, 0, 0, 0]),
            (f"aff1 diag({s},1)", "cohomology", "aff1_twisted.json", 6, 2, [1] + [0] * 5),
        ], small)

    elif workload == "calibration":
        # the seed is unused: the battery and the convention space are fixed
        for i, alg in enumerate(fixtures.battery_algebras()):
            inputs.docs[f"battery_{i}.json"] = ("algebra", alg)
        conventions = list(cochain.all_conventions())
        survivors = list(CALIBRATION_SURVIVORS)
        if small:
            flags = "|xy|hat-twisted|c-full"
            conventions = [cv for cv in conventions if cv.label().endswith(flags)]
            survivors = [s for s in survivors if s.endswith(flags)]
        inputs.plan.append(("calibration_report", conventions))
        inputs.refs["survivors"] = survivors

    elif workload == "deform_chain":
        with open(BATTERY_FILE, encoding="utf-8") as fh:
            battery = json.load(fh)["entries"][::2][: 5 if small else None]
        # t -> c t: every order-l equation is homogeneous of weight l in t and
        # the extension solve is linear in its right-hand side, so each entry
        # keeps its verdict at every order, and its chain depth
        c = rng.choice(CHAIN_SCALES)
        verdicts = []
        for k, entry in enumerate(battery):
            path = os.path.join(os.path.dirname(BATTERY_FILE), entry["file"])
            md = documents.parse_deformation(documents.load_json(path), os.path.dirname(path))
            inputs.docs[f"d{2 * k:02d}.json"] = ("deformation", rescaled(md, c))
            verdicts.append(entry["extends"])
        inputs.plan = list(inputs.docs)
        inputs.refs["extends"] = verdicts
        inputs.refs["top_order"] = 3 if small else 6

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def validate(paths):
    """`homleibniz validate` over every generated document, one call."""
    call = cli_call("validate", ["validate", *paths, "--format", "json"])
    report = _report(call)
    if report is not None:
        bad = _failed_checks(report)
        if bad:
            call.problems.append(f"failed checks: {bad}")
        if len(report["digests"]) != len(paths):
            call.problems.append("not every document was validated")
    return call


# ---------------------------------------------------------------------------
# one pass


def run_pass(inputs, between=lambda: None):
    """Every call of one pass, back to back; outputs are checked later.

    between() runs before each call, outside the call's timing.
    """
    if inputs.workload in ("cohomology", "twisted"):
        calls = []
        for label, argv in inputs.plan:
            between()
            calls.append(cli_call(label, argv))
        return calls
    if inputs.workload == "calibration":
        (label, conventions), = inputs.plan
        between()
        t0 = time.perf_counter()
        try:
            out = cochain.calibration_report(fixtures.calibration_battery(), conventions)
            code = 0
        except Exception:
            out, code = traceback.format_exc(), None
        return [Call(label, time.perf_counter() - t0, code, out, start=t0)]
    return _deform_chain(inputs, between)


def _deform_chain(inputs, between):
    """extend --order l --emit for l = 2.., each emitted file feeding the next
    call, stopping at the first obstruction; then deform check on the last file."""
    calls = []
    for k, name in enumerate(inputs.plan):
        src = inputs.path(name)
        for l in range(2, inputs.refs["top_order"] + 1):
            out = inputs.path(f"ext_{k:02d}_order{l}.json")
            argv = ["deform", "extend", src, "--order", str(l), "--emit", out, "--format", "json"]
            between()
            call = cli_call(f"extend {name} order {l}", argv)
            call.meta = (k, l, src, out)
            calls.append(call)
            if call.code != 0:
                break
            src = out
        between()
        calls.append(cli_call(f"check {name}", ["deform", "check", src, "--format", "json"]))
    return calls


# ---------------------------------------------------------------------------
# output checks


def check(inputs, calls):
    """Record in each call's problems where its output departs from the reference."""
    for call in calls:
        if inputs.workload in ("cohomology", "twisted"):
            _check_cohomology(inputs, call)
        elif inputs.workload == "calibration":
            _check_calibration(inputs, call)
        elif call.label.startswith("extend"):
            _check_extend(inputs, call)
        else:
            _check_deform_check(call)
    # the next pass must emit its own extensions
    for call in calls:
        if call.meta and os.path.exists(call.meta[3]):
            os.remove(call.meta[3])
    return calls


def _check_cohomology(inputs, call):
    report = _report(call)
    if report is None:
        return
    bad = _failed_checks(report)
    if bad:
        call.problems.append(f"failed checks: {bad}")
    if not any("squares to zero" in c["name"] for c in report["checks"]):
        call.problems.append("no squares-to-zero check in the report")
    expected = inputs.refs[call.label]
    rows = report["tables"][0]["rows"] if report["tables"] else []
    got = [r[-1] for r in rows]
    if [r[0] for r in rows] != list(range(1, len(expected) + 1)) or got != expected:
        call.problems.append(f"H table {got}, expected {expected}")
    if call.label == "h3" and got[:1] != [inputs.refs["der(h3)"]]:
        call.problems.append(f"H^1 {got[:1]} differs from dim Der(h3) = {inputs.refs['der(h3)']}")


def _check_calibration(inputs, call):
    if call.code is None:
        call.problems.append(f"raised: {call.output.strip().splitlines()[-1]}")
        return
    got = sorted(cv.label() for cv in call.output)
    expected = sorted(inputs.refs["survivors"])
    if got != expected:
        call.problems.append(f"survivors {got}, expected {expected}")
    if cochain.DEFAULT_CONVENTION.label() not in got:
        call.problems.append("the shipped default convention did not survive")


def _check_extend(inputs, call):
    k, l, src, out = call.meta
    if l == 2 and call.code in (0, 1) and (call.code == 0) != inputs.refs["extends"][k]:
        call.problems.append(f"order-2 verdict {call.code == 0}, battery says {inputs.refs['extends'][k]}")
    # exit 1 is the expected answer for an obstructed extension
    report = _report(call, expect_code=1 if call.code == 1 else 0)
    if report is None:
        return
    verdicts = {c["name"]: c for c in report["checks"]}
    if verdicts.get(f"valid through order {l - 1}", {}).get("verdict") != "pass":
        call.problems.append(f"input not valid through order {l - 1}")
    ext = verdicts.get(f"extension to order {l}", {})
    if call.code == 0:
        if ext.get("verdict") != "pass" or not os.path.exists(out):
            call.problems.append("success without a verified, emitted extension")
    elif ext.get("details") != "obstructed":
        call.problems.append(f"exit 1 without an obstruction: {_failed_checks(report)}")
    elif l > 2:
        # no stored verdict above order 2: ask the brute-force oracle
        md = documents.parse_deformation(documents.load_json(src), os.path.dirname(src))
        if oracle.extends(md, l):
            call.problems.append(f"reported obstructed, but the order-{l} equations are solvable")


def _check_deform_check(call):
    report = _report(call)
    if report is None:
        return
    bad = _failed_checks(report)
    if bad or not report["checks"]:
        call.problems.append(f"emitted extension fails deform check: {bad}")
