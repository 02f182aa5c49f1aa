"""The traced benchmark (perfbench/spans.py) wraps package callables named in
its TARGETS table; a rename in the package must fail here, in the test suite,
and not first in a traced benchmark run."""

import importlib
import os
import sys
import types

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "spans.py")


def load_spans():
    """perfbench/spans.py as a fresh module, compiled from its source, so
    nothing is written next to it and sys.modules is left alone."""
    module = types.ModuleType("spans")
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def resolve(module, attr):
    obj = sys.modules[f"homleibniz.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def package_bindings():
    """{(module, class or None, name): value} over every homleibniz module and its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "homleibniz" or name.startswith("homleibniz."):
            for key, value in vars(module).items():
                out[name, None, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[name, key, attr] = member
    return out


def test_every_traced_target_resolves_and_no_wrapper_is_left_behind():
    spans = load_spans()
    for module in {module for _, module, *_ in spans.TARGETS}:
        importlib.import_module(f"homleibniz.{module}")
    originals = [resolve(module, attr) for _, module, attr, _, _ in spans.TARGETS]
    before = package_bindings()
    recorder = spans.Recorder()
    try:
        recorder.install()
        for (_, module, attr, _, _), orig in zip(spans.TARGETS, originals):
            assert getattr(resolve(module, attr), "__wrapped__", None) is orig, f"{module}.{attr}"
    finally:
        recorder.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_every_probe_runs_under_the_recorder(capsys, tmp_path):
    # the probes read package internals (a deformation's coefficient lists,
    # Matrix.entries, an operator's columns); one small call of each kind the
    # traced benchmark makes must run through them, writing nothing next to them
    from homleibniz import cli, cochain, fixtures

    spans = load_spans()
    perfbench = os.path.dirname(SPANS)
    before = sorted(os.listdir(perfbench))
    fx = os.path.join(os.path.dirname(perfbench), "fixtures")
    emitted = str(tmp_path / "ext.json")
    recorder = spans.Recorder()
    try:
        recorder.install()
        assert cli.main(["deform", "extend", os.path.join(fx, "deform", "d01.json"), "--order", "2", "--emit", emitted]) == 0
        assert cli.main(["deform", "check", emitted]) == 0
        assert cli.main(["cohomology", os.path.join(fx, "leibniz_ff_e.json")]) == 0
        # a diagonal twist's space is read off its weights: only a non-diagonal one reaches kernel_basis
        assert cli.main(["cohomology", os.path.join(fx, "h3_sheared.json")]) == 0
        assert cli.main(["morphism-cohomology", os.path.join(fx, "identity_leibniz.json")]) == 0
        conventions = [cochain.DEFAULT_CONVENTION, cochain.SignConvention.from_label("A-B+C+D+|xy|hat-twisted|c-full")]
        assert cochain.calibration_report(fixtures.calibration_battery(), conventions) == conventions[:1]
    finally:
        recorder.uninstall()
    capsys.readouterr()
    names = {span[0] for span in recorder.spans}
    for name in ("deformation.residual", "deformation.solve_extension", "cochain.coboundary_operator", "linalg.kernel_basis"):
        assert name in names, name
    assert recorder.metrics()["deformation.residual.distinct_ratio"][0] > 0
    assert sorted(os.listdir(perfbench)) == before
