"""The example scripts import the package API; running each with --help
catches an API removal that tier-1 would otherwise never see."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["ring_capture_demo.py",
                                    "shooting_scan.py",
                                    "portrait_gallery.py",
                                    "bench.py"])
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
