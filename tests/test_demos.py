"""Each demo script prints the same bytes: sha256 of its stdout, run in a
fresh interpreter with the package source on PYTHONPATH.  A change that
means to alter a demo's output updates its pin."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grlcodes

SRC = Path(grlcodes.__file__).resolve().parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"

DEMO_SHA256 = {
    "01_field_arithmetic.py":
        "4343bd923a21699290d36b6059e60af7066ea9f055a2764675602dc119080bed",
    "02_build_and_classify.py":
        "f02964cadc7e4d23cbbc7efea13e296e4f5eee1dbe38f5e21ba873267ffa1a16",
    "03_theorem_audits.py":
        "967ed810cf157afc24f354b6434dd4896362101c360f54332cad3ddd011e4137",
    "04_quadric_counting.py":
        "a959bd190c483fe9cc96d3962fc46cb69e929a0f7d3a1018922a600c9ab23d33",
    "05_nongrs_certificates.py":
        "eafaf66352450b44be205e475505f6db6a351aa17add557597a7dc0f8da02e6a",
    "06_reference_tables_and_eaqecc.py":
        "2f088bbdb51e0f1e8d84212665fad7d284f28c336baa36ffb32056842d0d626c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name,sha256", DEMO_SHA256.items(),
                         ids=DEMO_SHA256.keys())
def test_demo_stdout_is_byte_identical(name, sha256):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256
