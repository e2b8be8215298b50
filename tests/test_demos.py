"""Each demo runs to exit 0 in its own process, from the repository root
as tier-1 runs. Demo 03 reads a generated Electricity-shaped ARFF named by
ELECTRICITY_DATA, since the real file is not in the repository."""
import os
import subprocess
import sys

import pytest
from conftest import REPO_ROOT

from streamaudit.cli import main


@pytest.fixture(scope="module")
def elec_arff(tmp_path_factory):
    path = tmp_path_factory.mktemp("demos") / "elec.arff"
    assert main(["synth", "markov", "--n", "2000", "--prior", "0.42",
                 "--acf1", "0.8", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("demo", ["01_autocorrelated_stream.py",
                                  "02_iid_null_experiment.py",
                                  "03_electricity.py"])
def test_demo_exits_0(elec_arff, demo):
    env = {**os.environ, "ELECTRICITY_DATA": str(elec_arff)}
    proc = subprocess.run([sys.executable, f"demos/{demo}"],
                          capture_output=True, cwd=REPO_ROOT, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
