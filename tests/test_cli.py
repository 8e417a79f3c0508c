"""CLI behavior: exit codes, output determinism, environment overrides."""

import json
import subprocess
import sys

import numpy as np
import pytest

from skcprobe.cli import main

SMALL_EVAL = """
name: point
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 1, v_b: 1,
         noise_ea: 0.5}
mc: {trials: 60, seed: 2}
quantities: [pilot_mi, bounds]
"""

SMALL_SWEEP = """
name: curve
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 1, v_b: 1,
         noise_ea: 0.5}
cases:
  - {name: narrow, overrides: {n_e: 1}}
  - {name: wide, overrides: {n_e: 4}}
sweep: {parameter: power_a, values: [0.5, 2.0, 8.0]}
mc: {trials: 60, seed: 2}
quantities: [floor]
svg: true
"""

SMALL_DOF = """
name: slope
config: {n_a: 2, n_b: 1, n_e: 1, phi_a: 8, phi_b: 8, v_a: 1, v_b: 0}
power_grid: [1.0, 10.0, 100.0, 1000.0]
mc: {trials: 40, seed: 1}
quantities: [floor]
"""

VERIFY_SET = """
name: tiny-verify
mc: {trials: 500, seed: 1}
identity_realizations: 110
configs:
  - {n_a: 2, n_b: 2, n_e: 2, v_a: 1, v_b: 1, phi_a: 8, phi_b: 8,
     noise_ea: 0.5, noise_eb: 2.0, rho: 0.8}
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_eval_success(self, tmp_path, capsys):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pilot_mi" in out and (tmp_path / "point.csv").exists()

    def test_missing_config_is_parse_error(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "gone.yaml"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        spec = write(tmp_path, "config: {n_a: 4, n_b: 2, n_e: 2, phi_a: 2}",
                     "bad.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3

    def test_numeric_failure_exit_code(self, tmp_path):
        text = """
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 1, v_b: 1,
         noise_eb: 0.0}
mc: {trials: 20, seed: 1}
quantities: [gap]
"""
        spec = write(tmp_path, text, "diverges.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 4

    def test_non_finite_power_is_validation_error(self, tmp_path):
        spec = write(tmp_path, "config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, "
                               "power_a: .nan}", "nan.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3

    def test_non_finite_integrand_is_numeric_error(self, tmp_path, capsys):
        # finite inputs whose Gram matrices overflow give a NaN floor
        spec = write(tmp_path, "config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, "
                               "power_a: 1.0e+308}\nmc: {trials: 300}\n"
                               "quantities: [floor]\n", "overflow.yaml")
        with np.errstate(all="ignore"):
            code = main(["eval", "--config", spec, "--out", str(tmp_path)])
        assert code == 4
        assert "trial 0: floor integrand is nan" in capsys.readouterr().err

    def test_pilot_mi_finite_at_extreme_power(self, tmp_path, capsys):
        spec = write(tmp_path, "config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, "
                               "power_a: 1.0e+160, power_b: 1.0e+160}\n"
                               "quantities: [pilot_mi]\n", "strong.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 0
        assert "nan" not in capsys.readouterr().out
        header, row = (tmp_path / "strong.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert np.isfinite(float(fields["pilot_mi_mean"]))

    def test_fractional_trials_is_validation_error(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL.replace("trials: 60", "trials: 1.5"), "frac.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3

    def test_fractional_verify_settings_are_validation_errors(self, tmp_path):
        for old, new in (("seed: 1", "seed: 2.9"),
                         ("identity_realizations: 110", "identity_realizations: 110.5")):
            spec = write(tmp_path, VERIFY_SET.replace(old, new), "verify.yaml")
            assert main(["verify", "--config", spec, "--out", str(tmp_path)]) == 3

    def test_zero_threads_is_validation_error(self, tmp_path, monkeypatch, capsys):
        specs = {"eval": SMALL_EVAL, "sweep": SMALL_SWEEP, "dof": SMALL_DOF,
                 "verify": VERIFY_SET}
        for command, text in specs.items():
            argv = [command, "--config", write(tmp_path, text, f"{command}.yaml"),
                    "--out", str(tmp_path / command)]
            assert main(argv + ["--threads", "0"]) == 3, command
            assert "--threads" in capsys.readouterr().err
            monkeypatch.setenv("SKCPROBE_THREADS", "0")
            assert main(argv) == 3, command
            assert "SKCPROBE_THREADS" in capsys.readouterr().err
            monkeypatch.delenv("SKCPROBE_THREADS")
            assert main(argv + ["--threads", "1"]) == 0, command

    @pytest.mark.parametrize("command,text,old,new,key", [
        ("eval", SMALL_EVAL, "mc: {trials: 60, seed: 2}", "mc: {trails: 60, sead: 2}",
         "sead"),
        ("sweep", SMALL_SWEEP, "{name: wide, overrides: {n_e: 4}}",
         "{name: wide, overide: {n_e: 4}}", "overide"),
        ("sweep", SMALL_SWEEP, "values: [0.5, 2.0, 8.0]}",
         "values: [0.5, 2.0, 8.0], scale: log}", "scale"),
        ("verify", VERIFY_SET, "identity_realizations: 110", "identity_realisations: 110",
         "identity_realisations"),
    ], ids=["mc", "case", "sweep", "verify-set"])
    def test_unknown_spec_key_is_parse_error(self, tmp_path, capsys, command, text, old,
                                             new, key):
        assert old in text
        spec = write(tmp_path, text.replace(old, new), "typo.yaml")
        assert main([command, "--config", spec, "--out", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_verify_pass_and_mutation_control(self, tmp_path, capsys):
        spec = write(tmp_path, VERIFY_SET, "verify.yaml")
        assert main(["verify", "--config", spec, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify-report.json").read_text())
        assert report["passed"] is True
        assert main(["verify", "--config", spec, "--out", str(tmp_path),
                     "--mutation-control"]) == 5
        out = capsys.readouterr().out
        assert "pilot-mi-exact" in out and "FAIL" in out
        report = json.loads((tmp_path / "verify-report.json").read_text())
        assert report["passed"] is False
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any("pilot-mi-exact" in name for name in failing)


class TestDeterminism:
    def test_eval_byte_identical_across_runs(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        main(["eval", "--config", spec, "--out", str(tmp_path / "a")])
        main(["eval", "--config", spec, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "point.csv").read_bytes() == \
            (tmp_path / "b" / "point.csv").read_bytes()

    def test_sweep_byte_identical_across_thread_counts(self, tmp_path):
        spec = write(tmp_path, SMALL_SWEEP, "spec.yaml")
        main(["sweep", "--config", spec, "--threads", "1", "--out", str(tmp_path / "t1")])
        main(["sweep", "--config", spec, "--threads", "4", "--out", str(tmp_path / "t4")])
        assert (tmp_path / "t1" / "curve.csv").read_bytes() == \
            (tmp_path / "t4" / "curve.csv").read_bytes()
        assert (tmp_path / "t1" / "curve.svg").read_bytes() == \
            (tmp_path / "t4" / "curve.svg").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        main(["eval", "--config", spec, "--seed", "2", "--out", str(tmp_path / "s2")])
        main(["eval", "--config", spec, "--seed", "3", "--out", str(tmp_path / "s3")])
        assert (tmp_path / "s2" / "point.csv").read_bytes() != \
            (tmp_path / "s3" / "point.csv").read_bytes()


class TestEnvironmentOverrides:
    def test_seed_env_used_when_flag_absent(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_SEED", "7")
        main(["eval", "--config", spec, "--out", str(tmp_path / "env")])
        row = (tmp_path / "env" / "point.csv").read_text().splitlines()[1]
        assert row.endswith(",7")

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_SEED", "7")
        main(["eval", "--config", spec, "--seed", "9", "--out", str(tmp_path / "env")])
        row = (tmp_path / "env" / "point.csv").read_text().splitlines()[1]
        assert row.endswith(",9")

    def test_file_seed_used_without_flag_or_env(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.delenv("SKCPROBE_SEED", raising=False)
        main(["eval", "--config", spec, "--out", str(tmp_path / "plain")])
        row = (tmp_path / "plain" / "point.csv").read_text().splitlines()[1]
        assert row.endswith(",2")

    def test_threads_env_accepted(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_THREADS", "3")
        main(["eval", "--config", spec, "--out", str(tmp_path / "thr")])
        assert (tmp_path / "thr" / "point.csv").exists()

    def test_bad_env_value_is_validation_error(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_SEED", "not-a-number")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3


class TestOneWayReport:
    def test_gap_zero_and_bounds_coincide_in_output(self, tmp_path, capsys):
        text = """
name: oneway-test
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 2, v_b: 0,
         noise_ea: 0.5, rho: 0.9}
mc: {trials: 100, seed: 4}
quantities: [gap, bounds]
"""
        spec = write(tmp_path, text, "oneway.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 0
        header, row = (tmp_path / "oneway-test.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["gap_mean"] == "0" and fields["gap_stderr"] == "0"
        assert fields["lower_mean"] == fields["upper_mean"]


class TestDegenerateConfig:
    def test_uncorrelated_pilot_only_scenario_reports_zeros(self, tmp_path):
        text = """
name: nothing
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 0, v_b: 0, rho: 0.0}
mc: {trials: 50, seed: 1}
quantities: [pilot_mi, gap, bounds]
"""
        spec = write(tmp_path, text, "nothing.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 0
        header, row = (tmp_path / "nothing.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        for column in ("pilot_mi_mean", "gap_mean", "lower_mean", "upper_mean"):
            assert fields[column] == "0"


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        proc = subprocess.run(
            [sys.executable, "-m", "skcprobe.cli", "eval", "--config", spec,
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
