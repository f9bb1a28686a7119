import dataclasses
import hashlib
import json
import re

import pytest

from vortexplane import (RingSpec, cli, crossing_sequence, e_region_entry,
                         rate_onset_radius, ring_entry, verify,
                         verify_crossing_bounds)
from vortexplane.cli import main

_BASE = {"--out", "--config"}
_MODEL = _BASE | {"--model", "--c2", "--alpha"}
_REL = _MODEL | {"--tol-rel"}
_ORBIT = _REL | {"--tol-abs", "--rmax", "--ring"}
# the long flags of each subcommand: exactly the ones its cmd_* reads
FLAGS = {
    "check": _MODEL | {"--a", "--seed"},
    "simulate": _ORBIT | {"--a"},
    "portrait": _ORBIT | {"--a", "--clip"},
    "shoot": _REL | {"--a"},
    "picard": _MODEL | {"--a"},
    "banach": _MODEL | {"--psiT", "--betaT", "--T"},
    "verify-paper": _BASE,
}
# a value each flag itself would accept
VALUES = {"--out": "elsewhere", "--config": "run.cfg", "--model": "example",
          "--c2": "0.02", "--alpha": "0.3", "--tol-rel": "1e-9",
          "--tol-abs": "1e-12", "--rmax": "20", "--ring": "0.05:0.1",
          "--a": "2", "--seed": "3", "--clip": "3", "--psiT": "1",
          "--betaT": "0", "--T": "6"}


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_check_rejects_out_of_range_parameter(capsys, tmp_path):
    code = main(["check", "--model", "example", "--c2", "0.1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "parameter error" in capsys.readouterr().err


def test_check_writes_report(tmp_path, capsys):
    code = main(["check", "--model", "constantin", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out or "pass" in out
    reports = list(tmp_path.glob("check_*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert payload["schema_version"] == 1
    assert payload["overall"] is True


def test_simulate_constant_orbit(tmp_path, capsys):
    # a = u0 = 1 is integrated like any start: the stepper keeps the exact
    # equilibrium on all 87 rows of every family.  The cubic Hermite of a
    # constant rounds the sampled radius 1 ulp low
    for name in ("constantin", "example", "powerlaw"):
        out = tmp_path / name
        code = main(["simulate", "--model", name, "--a", "1",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        csvs = list(out.glob("trajectory_*.csv"))
        assert len(csvs) == 1
        lines = csvs[0].read_text().splitlines()
        assert lines[0] == "r,psi,beta,R,theta,E"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 87
        assert rows[0][0] == 0.0 and rows[-1][0] == 100.0
        assert all(row[1:5] == [1.0, 0.0, 1.0, 0.0] for row in rows)
        assert len({row[5] for row in rows}) == 1
        events = list(out.glob("events_*.json"))
        assert len(events) == 1
        payload = json.loads(events[0].read_text())
        # 3 since simulate's events gained rotation and rotation_note, 4
        # since picard's payload dropped n
        assert payload["schema_version"] == 4
        assert payload["samples"] == 87
        assert payload["termination"] == "reached_rmax"
        assert payload["min_radius"] == 0.9999999999999999
        assert payload["min_radius_r"] == 0.01875


def test_simulate_within_the_head(tmp_path, capsys):
    # an r_max below the handoff radius is the Picard head alone, on 17
    # rows of [0, r_max]
    assert main(["simulate", "--rmax", "0.5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    assert payload["samples"] == 17
    assert payload["termination"] == "reached_rmax"


def test_simulate_amplitude_below_one(tmp_path, capsys):
    assert main(["simulate", "--a", "0.5", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--tol-rel", "0"], ["--tol-rel", "-1"], ["--tol-abs", "nan"],
    ["--rmax", "inf"], ["--rmax", "nan"], ["--a", "nan"], ["--a", "inf"],
    ["--tol-rel", "1"],
])
def test_simulate_rejects_bad_numbers(tmp_path, capsys, flags):
    assert main(["simulate", *flags, "--out", str(tmp_path)]) == 2
    assert "parameter error" in capsys.readouterr().err
    assert not list(tmp_path.glob("trajectory_*.csv"))


@pytest.mark.parametrize("argv", [
    ["check", "--a", "nan"], ["shoot", "--a", "nan:5"],
    ["shoot", "--a", "2:inf"],
    ["picard", "--a", "nan"], ["picard", "--a", "0.5"],
    ["portrait", "--a", "2,nan"], ["portrait", "--a", "1", "--rmax", "inf"],
    ["check", "--a", "0"], ["check", "--a", "-5"], ["check", "--a", "1e-20"],
    ["check", "--model", "constantin", "--c2", "0.5"],
    ["check", "--model", "example", "--alpha", "0.3"],
    ["check", "--model", "constantin", "--c2", "0.5", "--alpha", "7"],
    ["simulate", "--model", "powerlaw", "--c2", "0.02"],
    ["shoot", "--a", "5:2"], ["shoot", "--a", "2:2"],
    ["shoot", "--a", "0.5:3"],
    ["portrait", "--clip", "0"], ["portrait", "--clip", "-1"],
    ["check", "--a", "1e308"],
    ["banach", "--T", "1e8", "--psiT", "2", "--betaT", "0.1"],
    ["check", "--seed", "1" + "0" * 400],
    # the ball end overflows: without the ball-centre check a sweep budget
    # ran on NaN (exit 3)
    ["picard", "--a", "1e308"],
])
def test_bad_start_or_range_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "parameter error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["check", "--a", "0.001"], 1),     # the growth bound fails at a tiny a
    (["shoot", "--a", "2:3"], 3),       # both shots fall right: no bracket
])
def test_exit_code_contract(tmp_path, capsys, argv, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--c2", "nan"], ["simulate", "--alpha", "inf"],
    ["simulate", "--tol-rel", "nan"], ["simulate", "--tol-abs=-inf"],
    ["simulate", "--rmax", "nan"], ["portrait", "--clip", "nan"],
    ["banach", "--psiT", "nan"], ["banach", "--betaT", "inf"],
    ["banach", "--T", "nan"],
])
def test_float_flags_reject_non_finite(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_flag_table_counts_51_slots():
    assert set().union(*FLAGS.values()) == set(VALUES)
    assert sum(len(flags) for flags in FLAGS.values()) == 51


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_exactly_the_command_flags(capsys, command):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed - {"--help"} == FLAGS[command]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_foreign_flag_or_config_key_is_usage_error(tmp_path, capsys,
                                                    command):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    for flag in sorted(set(VALUES) - FLAGS[command]):
        assert main([command, flag, VALUES[flag], "--out", str(out)]) == 2
        cfg.write_text(f"{flag[2:].replace('-', '_')} = {VALUES[flag]}\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists(), flag
    capsys.readouterr()


def test_config_value_must_be_finite(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = nan\n")
    out = tmp_path / "out"
    assert main(["banach", "--config", str(cfg), "--out", str(out)]) == 2
    assert "parameter error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_byte_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert main(["simulate", "--a", "2", "--rmax", "20",
                     "--out", str(d)]) == 0
    capsys.readouterr()
    for name in [p.name for p in d1.iterdir()]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_reports_energy_entry(tmp_path, capsys):
    code = main(["simulate", "--a", "10", "--rmax", "100",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    assert abs(payload["energy_entry"]["r_cross"] - 60.41671079364288) < 1e-6


def test_simulate_ring_entry(tmp_path, capsys, constantin, run10):
    # the CLI's orbit is run10's: same a, r_max and tolerances
    code = main(["simulate", "--a", "10", "--rmax", "100", "--ring",
                 "0.05:0.1", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    entry = ring_entry(run10, ring)
    assert payload["ring_entry"] == {
        "r_entry": entry.r_entry, "min_radius_after": entry.min_radius_after,
        "min_radius_r": entry.min_radius_r}
    assert payload["ring_note"] is None
    # the rotation audit as criterion 10 calls it
    r_onset = rate_onset_radius(run10, ring)
    seq = crossing_sequence(run10, r_start=r_onset,
                            r_end=e_region_entry(run10).r_cross)
    audit = verify_crossing_bounds(run10, seq, ring, slack=1e-3)
    assert payload["rotation"] == {
        "r_onset": r_onset, "eta_hat": audit.eta_hat, "count": seq.count,
        "min_gap": audit.gaps.min(), "max_gap": audit.gaps.max(),
        "audit_ok": audit.ok}
    assert payload["rotation_note"] is None


def test_simulate_ring_note(tmp_path, capsys):
    # R(0) = 5 does not exceed 8 (1 + delta): the capture is not attempted;
    # the orbit crosses E = 0 near r = 13.3 and ends at r = 20, short of the
    # rate onset radius, so the rotation audit is not either
    code = main(["simulate", "--a", "5", "--rmax", "20", "--ring",
                 "0.05:0.1", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    assert payload["ring_entry"] is None
    assert "must exceed 8 (1 + delta)" in payload["ring_note"]
    assert payload["energy_entry"] is not None
    assert payload["rotation"] is None
    assert "ends before the rate onset radius" in payload["rotation_note"]


@pytest.mark.parametrize("eps, note", [
    # a narrower inner circle moves the rate onset radius out: to r = 71.0,
    # past the E = 0 crossing at r = 60.4, and to r = 59.0, less than one
    # rotation before it
    ("0.035", "is not before E = 0"),
    ("0.038", "no window passage before E = 0")])
def test_simulate_rotation_note(tmp_path, capsys, eps, note):
    code = main(["simulate", "--a", "10", "--rmax", "100", "--ring",
                 f"{eps}:0.1", "--out", str(tmp_path)])
    assert code == 0
    assert "rotation=none" in capsys.readouterr().out.splitlines()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    assert payload["ring_entry"] is not None
    assert payload["rotation"] is None
    assert note in payload["rotation_note"]


@pytest.mark.parametrize("model", ["constantin", "example", "powerlaw"])
def test_simulate_refuses_start_without_finite_energy(tmp_path, capsys,
                                                      model):
    # a^2 overflows: the power law raised a raw OverflowError (exit 1) and
    # constantin wrote an E column of NaN (exit 0)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--a", "1e300", "--rmax",
                 "2", "--out", str(out)]) == 2
    assert "finite energy" in capsys.readouterr().err
    assert not out.exists()


def test_verify_paper_writes_the_pinned_report(tmp_path, capsys,
                                               monkeypatch,
                                               acceptance_results):
    monkeypatch.setattr(verify, "run_all", lambda: acceptance_results)
    assert main(["verify-paper", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 and lines[13] == "overall: PASS"
    assert lines[14] == f"wrote {tmp_path / 'verify_report.json'}"
    text = (tmp_path / "verify_report.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "6567a2340d292ef91194353c94abe6d113e1faa5d9578983da3c9391f8b6bb0d")
    failed = [dataclasses.replace(acceptance_results[0], passed=False),
              *acceptance_results[1:]]
    monkeypatch.setattr(verify, "run_all", lambda: failed)
    assert main(["verify-paper", "--out", str(tmp_path / "failed")]) == 1
    assert capsys.readouterr().out.splitlines()[13] == "overall: FAIL"


def test_portrait_requires_amplitudes(tmp_path, capsys):
    assert main(["portrait", "--a", "", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_portrait_writes_svg(tmp_path, capsys):
    code = main(["portrait", "--a", "2,5", "--rmax", "40",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    svgs = list(tmp_path.glob("portrait_*.svg"))
    assert len(svgs) == 1
    assert svgs[0].read_text().startswith("<svg")


@pytest.mark.parametrize("clip", ["0", "-1"])
def test_portrait_refuses_clip_before_integrating(tmp_path, capsys,
                                                  monkeypatch, clip):
    calls = []
    real = cli.integrate

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(cli, "integrate", counted)
    assert main(["portrait", "--a", "2,5", "--clip", clip,
                 "--out", str(tmp_path / "out")]) == 2
    assert "clip_radius must be finite and positive" in \
        capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_picard_command(tmp_path, capsys):
    code = main(["picard", "--a", "2", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("picard_*.json")).read_text())
    # 4 since the result is the collocation nodes, with no sampling grid n
    assert payload["schema_version"] == 4 and "n" not in payload
    assert payload["residual"] < 1e-8
    assert payload["sweeps"] >= 1 and payload["last_change"] <= 1e-13 * 2


def test_banach_command(tmp_path, capsys):
    code = main(["banach", "--psiT", "2", "--betaT", "0.1",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("banach_*.json")).read_text())
    assert payload["observed_factor"] < payload["zeta"] < 1.0
    assert payload["sweeps"] >= 2 and payload["last_change"] <= 1e-12 * 2


def test_banach_rejects_steep_anchor(tmp_path, capsys):
    assert main(["banach", "--psiT", "1", "--betaT", "5",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_bad_ring_format(tmp_path, capsys):
    assert main(["simulate", "--a", "100", "--ring", "nonsense",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\nmodel = constantin\na = 1\n"
                   "rmax = 50\n")
    # the flag wins over the config value for rmax
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--rmax", "30",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = next(out.glob("trajectory_*.csv")).read_text().splitlines()
    assert float(lines[-1].split(",")[0]) == 30.0
    # an abbreviated flag is a usage error, not a prefix of --rmax
    assert main(["simulate", "--config", str(cfg), "--rm", "30",
                 "--out", str(tmp_path / "abbrev")]) == 2
    capsys.readouterr()


def test_no_option_abbreviations(tmp_path, capsys):
    # --a is a prefix of banach's --alpha only
    assert main(["banach", "--model", "powerlaw", "--a", "0.4",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


def test_config_keys_read_underscore_as_dash(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_rel = 1e-9  # relative\ntol-abs = 1e-11\n")
    code = main(["simulate", "--a", "2", "--rmax", "20", "--config",
                 str(cfg), "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(next(tmp_path.glob("events_*.json")).read_text())
    assert (payload["rel_tol"], payload["abs_tol"]) == (1e-9, 1e-11)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model constantin\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_config_missing_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_shoot_command(tmp_path, capsys):
    code = main(["shoot", "--a", "2:6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(next(tmp_path.glob("shoot_*.json")).read_text())
    assert payload["schema_version"] == 4
    assert abs(payload["a_star"] - 3.0013413429260254) < 1e-3
    assert abs(payload["arrival_radius"] - 6.92234) < 1e-5
    assert 0.0 <= payload["fit_residual"] <= 1e-8
    # the two bracket ends and the two shots that confirm the fit
    assert payload["classification_shots"] == 4
    assert "bisection_evaluations" not in payload
    assert f"arrival_radius={payload['arrival_radius']!r}" in out


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--ring", "0.1"],
     "parameter error: --ring must look like eps:delta, got '0.1'"),
    (["shoot", "--a", "2"],
     "parameter error: --a must look like lo:hi, got '2'"),
])
def test_pair_flags_name_their_form(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == message
