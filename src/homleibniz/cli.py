"""Command-line surface.

Subcommands: validate | cohomology | morphism-cohomology | deform.
Exit status: 0 all checks pass, 1 mathematical failure (violated identity,
nonzero residual, obstruction), 2 input error (unreadable file, malformed
document, bad flags).  Reports embed the active sign convention and the
sha256 digests of the input documents, and render deterministically.

--convention is an option of the two cohomology commands only, whose answers
depend on it.  validate checks identities no convention enters, and deform
solves equations whose linear part is d^2 under DEFAULT_CONVENTION, so both
run under the default.

main(argv) may be called any number of times in one process.  Every call
parses with the one parser build_parser makes per process, gets a fresh
namespace, and keeps nothing across calls that is derived from an input.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (
    check_hom_leibniz,
    check_morphism,
    check_multiplicative,
    check_representation,
    adjoint_representation,
)
from .cochain import (
    CochainComplex,
    DEFAULT_CONVENTION,
    NotACochainComplex,
    SignConvention,
    ambient_dim,
)
from .deformation import (
    NotValidBelow,
    morphism_order_residual,
    obstruction,
    solve_extension,
)
from .documents import (
    DocumentError,
    digest,
    dump_json,
    load_json,
    parse_algebra,
    parse_deformation,
    parse_morphism,
    parse_representation,
    serialize_deformation,
)
from .morphism_complex import MorphismComplex
from .report import RunReport

EXIT_INPUT_ERROR = 2

# Largest ambient dimension of delta^p2's images, p2 a command's top degree.  It
# admits dim 4 at degree 4 (4 * 4^5), the largest a benchmark rung has measured;
# the limit stands until a rung at a larger space backs a higher one.
MAX_AMBIENT = 4096
# Largest cohomology degree and deformation order a command takes.  Above
# degree 11 only the spaces of 1-dim algebras and modules stay within
# MAX_AMBIENT, and their work still grows with the degree; the work of a
# deformation grows with its order whatever its dimension.
MAX_DEGREE = 64

FIXTURES_ENV = "HOMLEIBNIZ_FIXTURES"


def _convention(args):
    if args.convention is None:
        return DEFAULT_CONVENTION
    try:
        return SignConvention.from_label(args.convention)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _degrees(spec, ambient_at):
    """The degrees p1..p2 of spec; refused when delta^p2's images live in an
    ambient above MAX_AMBIENT, ambient_at(q) being the largest in degree q
    (no space is built there), or when p2 is above MAX_DEGREE."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise DocumentError(f"cannot parse degree range {spec!r}; use 'p' or 'p1..p2'")
    if lo < 1 or hi < lo:
        raise DocumentError("degrees must satisfy 1 <= p1 <= p2")
    # an ambient dimension is constant in the degree q (all dimensions 1) or
    # grows with it from at least 2^q, so degree MAX_DEGREE decides every
    # higher one and no power with thousands of digits is built or printed
    q = min(hi + 1, MAX_DEGREE)
    if ambient_at(q) > MAX_AMBIENT:
        size = f"{'' if q == hi + 1 else 'at least '}{ambient_at(q)}"
        raise DocumentError(
            f"degree {hi} needs a cochain space of ambient dimension {size}, "
            f"above the limit of {MAX_AMBIENT}"
        )
    if hi > MAX_DEGREE:
        raise DocumentError(f"degree {hi} is above the limit of {MAX_DEGREE}")
    return range(lo, hi + 1)


def _violation_details(report):
    return "; ".join(str(v) for v in report[:5]) + ("; ..." if len(report) > 5 else "")


def _doc_kind(obj):
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    if "xi" in obj:
        return "deformation"
    if "actions" in obj:
        return "representation"
    if "matrix" in obj and "source" in obj:
        return "morphism"
    return "algebra"


# ---------------------------------------------------------------------------
# validate


def _validate_algebra(report, label, a):
    bad = check_hom_leibniz(a)
    report.add_check(f"{label}: hom-leibniz identity", not bad, _violation_details(bad))
    bad = check_multiplicative(a)
    report.add_check(f"{label}: multiplicativity", not bad, _violation_details(bad))


def _validate_morphism(report, name, phi, row="morphism identities"):
    _validate_algebra(report, f"{name}:source", phi.source)
    _validate_algebra(report, f"{name}:target", phi.target)
    bad = check_morphism(phi)
    report.add_check(row, not bad, _violation_details(bad))


def cmd_validate(args):
    paths = list(args.files)
    if not paths and os.environ.get(FIXTURES_ENV):
        root = os.environ[FIXTURES_ENV]
        try:
            names = os.listdir(root)
        except OSError as exc:
            raise DocumentError(f"cannot list {root}: {exc}") from None
        paths = sorted(os.path.join(root, f) for f in names if f.endswith(".json"))
        if not paths:
            raise DocumentError(f"no .json documents under {root}")
    if not paths:
        raise DocumentError(f"no files given and {FIXTURES_ENV} is not set")
    report = RunReport(command=_echo(args), convention=DEFAULT_CONVENTION.label())
    for path in paths:
        obj = load_json(path)
        report.digests[os.path.basename(path)] = digest(obj)
        kind = _doc_kind(obj)
        base_dir = os.path.dirname(path)
        name = os.path.basename(path)
        if kind == "algebra":
            _validate_algebra(report, name, parse_algebra(obj))
        elif kind == "morphism":
            phi = parse_morphism(obj, base_dir)
            _validate_morphism(report, name, phi, f"{name}: morphism identities")
        elif kind == "representation":
            rep, _ = parse_representation(obj, base_dir)
            _validate_algebra(report, f"{name}:algebra", rep.algebra)
            bad = check_representation(rep)
            report.add_check(f"{name}: representation identities", not bad, _violation_details(bad))
        else:
            md = parse_deformation(obj, base_dir)
            _validate_morphism(report, name, md.phi, f"{name}: morphism identities")
            for l in range(md.order + 1):
                r1, r2, r3 = morphism_order_residual(md, l)
                ok = not (r1 or r2 or r3)
                report.add_check(
                    f"{name}: order-{l} residuals",
                    ok,
                    "" if ok else f"{len(r1)}+{len(r2)}+{len(r3)} nonzero entries",
                )
    return report


# ---------------------------------------------------------------------------
# cohomology


def cmd_cohomology(args):
    conv = _convention(args)
    obj = load_json(args.algebra)
    a = parse_algebra(obj)
    report = RunReport(command=_echo(args), convention=conv.label())
    report.digests[os.path.basename(args.algebra)] = digest(obj)
    _validate_algebra(report, os.path.basename(args.algebra), a)
    if args.module == "adjoint":
        rep = adjoint_representation(a)
    else:
        rep_obj = load_json(args.module)
        rep, _ = parse_representation(rep_obj, os.path.dirname(args.module))
        if rep.algebra != a:
            raise DocumentError("representation document is over a different algebra")
        report.digests[os.path.basename(args.module)] = digest(rep_obj)
        bad = check_representation(rep)
        report.add_check(
            f"{os.path.basename(args.module)}: representation identities",
            not bad,
            _violation_details(bad),
        )
    if report.exit_code:
        return report
    degrees = _degrees(args.degrees, lambda q: ambient_dim(a, rep, q))
    cx = CochainComplex(a, rep, conv)

    def row(p):
        return p, cx.space(p).dim, cx.rank(p), cx.cohomology_dim(p)

    headers = ["p", "dim C^p", "rank delta^p", "dim H^p"]
    return _cohomology_table(report, degrees, row, "coboundary squares to zero", "cohomology", headers)


def cmd_morphism_cohomology(args):
    conv = _convention(args)
    obj = load_json(args.morphism)
    phi = parse_morphism(obj, os.path.dirname(args.morphism))
    report = RunReport(command=_echo(args), convention=conv.label())
    name = os.path.basename(args.morphism)
    report.digests[name] = digest(obj)
    _validate_morphism(report, name, phi)
    if report.exit_code:
        return report
    mc = MorphismComplex(phi, conv)
    degrees = _degrees(args.degrees, lambda q: max(mc.ambient_dims(q)))

    def row(p):
        hp = mc.cohomology_dim(p)
        if p >= 2 and not any([mc.left.cohomology_dim(p), mc.right.cohomology_dim(p), mc.mixed.cohomology_dim(p - 1)]):
            report.add_check(f"vanishing transfer at p={p} (hypotheses hold)", hp == 0, f"H^{p}(phi)={hp}")
        return p, mc.total_dim(p), mc.rank(p), hp

    headers = ["p", "dim C^p(phi)", "rank d^p", "dim H^p(phi)"]
    return _cohomology_table(report, degrees, row, "differential squares to zero", "morphism cohomology", headers)


def _cohomology_table(report, degrees, row, check, title, headers):
    """report with the table of row(p) over degrees after the check that
    every square vanished; a NotACochainComplex fails it and adds no table."""
    try:
        rows = [row(p) for p in degrees]
    except NotACochainComplex as exc:
        report.add_check(check, False, str(exc))
        return report
    report.add_check(check, True)
    report.add_table(title, headers, rows)
    return report


# ---------------------------------------------------------------------------
# deform


def _tensor_support(keyed):
    return sum(len(v) for v in keyed.values())


def cmd_deform(args):
    obj = load_json(args.deformation)
    md = parse_deformation(obj, os.path.dirname(args.deformation))
    report = RunReport(command=_echo(args), convention=DEFAULT_CONVENTION.label())
    name = os.path.basename(args.deformation)
    report.digests[name] = digest(obj)
    order = args.order if args.order is not None else md.order + (args.mode != "check")
    if args.mode == "check" and order < 0:
        raise DocumentError("--order must be at least 0 for check")
    if args.mode != "check" and order < 1:
        raise DocumentError("--order must be at least 1 for obstruct/extend")
    if order > MAX_DEGREE:
        raise DocumentError(f"--order {order} is above the limit of {MAX_DEGREE}")
    if args.mode != "check" and md.order < order - 1:
        raise DocumentError(
            f"deformation carries coefficients through order {md.order}; "
            f"order-{order} {args.mode} needs order {order - 1}"
        )
    _validate_morphism(report, name, md.phi)
    if report.exit_code:
        return report

    if args.mode == "check":
        rows = []
        for l in range(order + 1):
            r1, r2, r3 = morphism_order_residual(md, l)
            ok = not (r1 or r2 or r3)
            rows.append((l, _tensor_support(r1), _tensor_support(r2), _tensor_support(r3)))
            report.add_check(f"order-{l} residuals vanish", ok)
        report.add_table(
            "residual support",
            ["order", "source entries", "target entries", "morphism entries"],
            rows,
        )
        return report

    # obstruction and solve_extension check validity below the order themselves
    try:
        if args.mode == "obstruct":
            f = obstruction(md, order)
        else:
            extended = solve_extension(md, order)
    except NotValidBelow:
        report.add_check(f"valid through order {order - 1}", False)
        return report
    report.add_check(f"valid through order {order - 1}", True)

    if args.mode == "obstruct":
        report.add_check(f"obstruction F_{order} vanishes", f.is_zero())
        report.add_table(
            "obstruction support",
            ["component", "nonzero entries"],
            [
                ("source (O1)", _tensor_support(f.o1)),
                ("target (O2)", _tensor_support(f.o2)),
                ("morphism (O3)", _tensor_support(f.o3)),
            ],
        )
        return report

    if extended is None:
        report.add_check(f"extension to order {order}", False, "obstructed")
        return report
    report.add_check(f"extension to order {order}", True, "residuals re-verified")
    report.add_table(
        "extended coefficient support",
        ["component", "nonzero entries"],
        [
            ("xi", _tensor_support(extended.xi.coeffs[order])),
            ("eta", _tensor_support(extended.eta.coeffs[order])),
            ("phi", sum(map(len, extended.phis[order].numerators()[0]))),
        ],
    )
    if args.emit:
        dump_json(serialize_deformation(extended), args.emit)
        report.note(f"extended deformation written to {args.emit}")
    return report


# ---------------------------------------------------------------------------
# wiring


def _echo(args):
    return [args.prog_name] + args.raw_argv


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="homleibniz",
        description="Exact cohomology and deformations of n-Hom-Leibniz algebras and morphisms.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--format", default="table", choices=["table", "csv", "json"])

    sp = sub.add_parser("validate", help="check the defining identities of documents")
    sp.add_argument("files", nargs="*", help=f"documents; defaults to ${FIXTURES_ENV}/*.json")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("cohomology", help="cohomology of an algebra with coefficients")
    sp.add_argument("algebra")
    sp.add_argument("--module", default="adjoint", help="'adjoint' or a representation document")
    sp.add_argument("--degrees", default="1..2", help="'p' or 'p1..p2'")
    sp.add_argument("--convention", default=None, help="sign convention label override")
    common(sp)
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("morphism-cohomology", help="cohomology of a morphism")
    sp.add_argument("morphism")
    sp.add_argument("--degrees", default="1..2")
    sp.add_argument("--convention", default=None, help="sign convention label override")
    common(sp)
    sp.set_defaults(func=cmd_morphism_cohomology)

    sp = sub.add_parser("deform", help="check, obstruct or extend a morphism deformation")
    sp.add_argument("mode", choices=["check", "obstruct", "extend"])
    sp.add_argument("deformation")
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--emit", default=None, help="write the extended deformation here")
    common(sp)
    sp.set_defaults(func=cmd_deform)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error contract
        return int(exc.code or 0)
    args.raw_argv = argv
    args.prog_name = parser.prog
    try:
        report = args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(report.render(args.format), end="")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
