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
