"""Each demo runs to exit 0 in its own process, from the repository root
as tier-1 runs. Demo 03 reads a generated Electricity-shaped ARFF named by
ELECTRICITY_DATA, since the real file is not in the repository. The
README's Python example runs the same way, in a directory whose
data/elec.arff is that generated ARFF, so the README cannot drift from
the code."""
import os
import re
import shutil
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


def readme_example():
    """The README's one python code block."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("demo", ["01_autocorrelated_stream.py",
                                  "02_iid_null_experiment.py",
                                  "03_electricity.py", "README.md"])
def test_demo_exits_0(elec_arff, tmp_path, demo):
    env = {**os.environ, "ELECTRICITY_DATA": str(elec_arff)}
    if demo == "README.md":  # its example reads data/elec.arff
        (tmp_path / "data").mkdir()
        shutil.copy(elec_arff, tmp_path / "data" / "elec.arff")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        argv, cwd = ["-c", readme_example()], tmp_path
    else:
        argv, cwd = [f"demos/{demo}"], REPO_ROOT
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
