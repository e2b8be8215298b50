import os
from pathlib import Path

import pytest

from streamaudit import parse_arff, parse_csv
from streamaudit.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

# The Electricity (NSW) benchmark is not redistributed with this package.
# Point ELECTRICITY_DATA at a local copy (ARFF or CSV, 45312 rows, class
# values UP/DOWN in the last column) or drop one at data/elec.arff.
CANDIDATES = [
    "data/elec.arff",
    "data/elec.csv",
    "data/electricity.arff",
    "data/electricity-normalized.arff",
    "data/electricity-normalized.csv",
]


def electricity_path():
    env = os.environ.get("ELECTRICITY_DATA")
    if env:
        return Path(env)
    for rel in CANDIDATES:
        p = REPO_ROOT / rel
        if p.exists():
            return p
    return None


@pytest.fixture(scope="session")
def electricity():
    path = electricity_path()
    if path is None or not path.exists():
        pytest.skip("Electricity dataset not available; set ELECTRICITY_DATA "
                    "or place it under data/ (see README)")
    if path.suffix.lower() == ".csv":
        return parse_csv(str(path))
    return parse_arff(str(path))


@pytest.fixture(scope="session")
def electricity_labels(electricity):
    return electricity.labels()


def run(capsys, argv):
    """cli.main in process: its exit code, stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err
