"""The demo scripts run against the public API and demo 03 reproduces the
committed charts in ``demos/out/``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("[0-9]*.py"))


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    work = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(DEMOS, work, ignore=shutil.ignore_patterns("out", "__pycache__"))
    return work


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(demo_copy, script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, script], cwd=demo_copy, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if script.startswith("03_"):
        committed = sorted(p.name for p in (DEMOS / "out").iterdir())
        assert committed == ["fir16_aware.csv", "fir16_aware.svg", "fir16_blind.svg"]
        for name in committed:
            assert (demo_copy / "out" / name).read_bytes() == (DEMOS / "out" / name).read_bytes()
