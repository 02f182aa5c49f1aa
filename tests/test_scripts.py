import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_cohomology_table_script_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "cohomology_table.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "morphism cohomology" in result.stdout


def test_calibrate_script_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "calibrate.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "4 of 128 conventions pass" in result.stdout
    assert "A+B+C+D+|xy|hat-twisted|c-full  <- default" in result.stdout


def test_report_digests_script_is_deterministic():
    def digest(*docs):
        result = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"), *docs],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    docs = ["fixtures/identity_leibniz.json", "fixtures/abelian_ff_e_deformation.json"]
    first = digest(*docs)
    assert first.startswith("32 calls  sha256 ")
    assert digest(*docs) == first
    assert digest(*docs[::-1]) != first


def test_ladder_script_prints_one_json_line_per_rung():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ladder.py"), "--top", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert [line["rung"] for line in lines] == ["h3", "ternary_identity", "h3_sheared"]
    assert [line["dims"] for line in lines] == [[6, 8, 17], [2, 3, 6], [3, 3, 6]]
    assert all(line["degrees"] == [1, 3] and line["seconds"] >= 0 and line["ru_maxrss_mb"] > 0 for line in lines)
    one = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ladder.py"), "--rung", "h3_sheared", "--top", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert one.returncode == 0 and json.loads(one.stdout)["dims"] == [3, 3]
