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
                                    "bench.py", "global_error.py"])
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_global_error_smoke():
    # a short window and one rel_tol: a title line, the header and one row
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "global_error.py"),
         "--a", "10", "--r-max", "10", "--rel-tols", "1e-8"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[2].split()[0] == "1e-08"
    psi_end, beta_end, psi_max, beta_max = map(float, lines[2].split()[2:])
    assert 0.0 <= psi_end <= psi_max < 1e-5
    assert 0.0 <= beta_end <= beta_max < 1e-5


def _counted_scan(monkeypatch, *argv):
    """The shooting_scan script's main with argv, and the list that its
    classify_shot calls append their start values to."""
    import importlib.util

    from vortexplane import analysis
    spec = importlib.util.spec_from_file_location(
        "shooting_scan", os.path.join(ROOT, "scripts", "shooting_scan.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    shots = []
    classify = analysis.classify_shot

    def counted(model, a, rel_tol=1e-9):
        shots.append(a)
        return classify(model, a, rel_tol)

    monkeypatch.setattr(analysis, "classify_shot", counted)
    monkeypatch.setattr(script, "classify_shot", counted)
    monkeypatch.setattr(sys, "argv", ["shooting_scan.py", *argv])
    return script.main, shots


def test_shooting_scan_shoots_each_start_once(monkeypatch, capsys):
    # the table comes from the scan's history plus the shots past the
    # bracket, so no start value is classified twice; the solve adds the
    # two shots that confirm the arrival fit (bisection to 1e-3 took 10)
    main, shots = _counted_scan(monkeypatch, "--tol", "1e-3")
    main()
    out = capsys.readouterr().out
    table = out.split("\n\n")[0].splitlines()[1:]
    assert [float(line.split()[0]) for line in table] == shots[:11]
    assert len(shots) == len(set(shots)) == 11 + 2
    assert "arrival radius R = 6.92234" in out


def test_shooting_scan_prints_the_table_without_a_bracket(monkeypatch,
                                                           capsys):
    # with no bracket in [--lo, --hi] the table is printed before the error
    # (its starts shot again: a failed scan returns no history)
    from vortexplane import NoBracketError
    main, shots = _counted_scan(monkeypatch, "--lo", "2", "--hi", "3")
    with pytest.raises(NoBracketError):
        main()
    assert capsys.readouterr().out == (
        "       a   outcome      r_stop         min R\n"
        "   2.000     right       1.873      1.606889\n"
        "   3.000     right       5.509      0.079583\n")
    assert shots == [2.0, 3.0, 2.0, 3.0]
