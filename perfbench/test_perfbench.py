"""Tests of the benchmark itself: each workload at its smallest rung.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Each workload must pass its own output checks on the package as it is,
and a deliberately wrong reference value must show up as a failed
operation, so that failed_frac rises above 0.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from homleibniz import documents, fixtures  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _corrupt(inputs):
    """Change one reference value of the workload."""
    if inputs.workload in ("cohomology", "twisted"):
        label = inputs.plan[0][0]
        inputs.refs[label] = [h + 1 for h in inputs.refs[label]]
    elif inputs.workload == "calibration":
        inputs.refs["survivors"] = inputs.refs["survivors"][:-1]
    else:
        inputs.refs["extends"] = [not v for v in inputs.refs["extends"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_rung_passes_and_a_wrong_reference_fails(workload, tmp_path):
    inputs = run.set_up(workload, 7, str(tmp_path / "good"), small=True)
    result = run.measure(inputs, seconds=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) | {"setup_s"} == {m["name"] for m in _spec()["end_to_end"]}

    inputs = run.set_up(workload, 7, str(tmp_path / "bad"), small=True)
    _corrupt(inputs)
    result = run.measure(inputs, seconds=0)
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    recorder = spans.Recorder()
    inputs = run.set_up("cohomology", 1, str(tmp_path), recorder=recorder, small=True)
    result = run.measure(inputs, seconds=0, recorder=recorder)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 4  # validate + three calls
    # every wrapper is gone again
    from homleibniz import cochain, linalg

    assert not hasattr(linalg.rank, "__wrapped__") and not hasattr(cochain.rank, "__wrapped__")
    assert not hasattr(linalg.Matrix.__matmul__, "__wrapped__")


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("deform_chain", 11, str(tmp_path), small=True)
    b = workloads.generate("deform_chain", 11, str(tmp_path), small=True)
    ser = documents.serialize_deformation
    assert [ser(md) for _, md in a.docs.values()] == [ser(md) for _, md in b.docs.values()]


def test_rescaled_battery_keeps_the_checked_in_verdicts():
    with open(workloads.BATTERY_FILE, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"][:6]
    fixture_dir = os.path.dirname(workloads.BATTERY_FILE)
    for entry in entries:
        path = os.path.join(fixture_dir, entry["file"])
        md = documents.parse_deformation(documents.load_json(path), os.path.dirname(path))
        for c in (1, workloads.CHAIN_SCALES[-1]):
            assert oracle.extends(workloads.rescaled(md, c), 2) == entry["extends"]


def test_derivations_of_the_heisenberg_algebra():
    assert oracle.derivation_dim(3, workloads.h3(5).bracket) == 6
    assert oracle.derivation_dim(2, fixtures.aff1().bracket) == 2


def test_no_result_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "twisted", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_speed_sampler_removes_ticks_and_scales_to_the_reference():
    sampler = run.SpeedSampler()
    ref = run.REFERENCE_TICK_S
    # a tick before the call at reference speed, two inside at half speed
    sampler.ticks = [(0.5, 0.5 + ref, ref), (1.2, 1.2 + 2 * ref, 2 * ref), (1.6, 1.6 + 2 * ref, 2 * ref)]
    net = 1.0 - 4 * ref
    assert sampler.reference_seconds(1.0, 2.0) == pytest.approx(net * (1 + 0.5 + 0.5) / 3)
    # a call shorter than a tick interval takes the speed of the tick before it
    assert sampler.reference_seconds(1.7, 1.71) == pytest.approx(0.01 * 0.5)
