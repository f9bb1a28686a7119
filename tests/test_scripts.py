"""The scripts import the package API; running each with --help catches an
API removal that tier-1 would otherwise never see.  Each runs in this
process, as `python3 scripts/<name>` would run it."""

import os
import runpy
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(monkeypatch, script, *argv):
    path = os.path.join(ROOT, "scripts", script)
    monkeypatch.setattr(sys, "argv", [path, *argv])
    runpy.run_path(path, run_name="__main__")


@pytest.mark.parametrize("script", ["bench.py", "global_error.py"])
def test_script_help(monkeypatch, capsys, script):
    with pytest.raises(SystemExit) as exc:
        _run_script(monkeypatch, script, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_global_error_smoke(monkeypatch, capsys):
    # a short window and one rel_tol: a title line, the header and one row
    _run_script(monkeypatch, "global_error.py",
                "--a", "10", "--r-max", "10", "--rel-tols", "1e-8")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].split()[0] == "1e-08"
    psi_end, beta_end, psi_max, beta_max = map(float, lines[2].split()[2:])
    assert 0.0 <= psi_end <= psi_max < 1e-5
    assert 0.0 <= beta_end <= beta_max < 1e-5
