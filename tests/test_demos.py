"""The quick demos run to completion.  Each runs from a copy in a temporary
directory, so the files demo 05 writes land there.  Demos 02-04 spend 5-15 s
each in the optimizer and are left to be run by hand."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_correlator_demo_runs(tmp_path):
    assert run_demo("01_correlators.py", tmp_path)


def test_marginal_demo_writes_its_heatmaps(tmp_path):
    run_demo("05_marginals.py", tmp_path)
    assert len(list((tmp_path / "out").glob("*.svg"))) == 6


def test_marginal_demo_output_does_not_name_its_directory(tmp_path):
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        outputs.append(run_demo("05_marginals.py", tmp_path / name))
    assert outputs[0] == outputs[1]
    assert "  wrote out/q_marginal_n1.svg" in outputs[0].splitlines()


def test_fock_oracle_demo_errors_are_small(tmp_path):
    out = run_demo("06_fock_oracle.py", tmp_path)
    errors = [float(x) for x in re.findall(r"(?:error|defect|coherent state:) ([-+.e\d]+)", out)]
    assert len(errors) == 7
    assert max(errors) < 1e-10
