"""CLI behavior: exit codes, output determinism, environment overrides."""

import atexit
import functools
import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from skcprobe import cli, config_at_power, experiments, secrecy_floor_sample
from skcprobe.cli import main
from skcprobe.errors import GridTooSmall, SkcError, ValidationError
from skcprobe.experiments import apply_parameter, load_spec
from skcprobe.montecarlo import trial_blocks
from skcprobe.verify import VerificationSummary

from conftest import child_env, shifted_forms

SMALL_EVAL = """
name: point
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 1, v_b: 1,
         noise_ea: 0.5}
mc: {trials: 60, seed: 2}
quantities: [pilot_mi, bounds]
"""

SWEEP_CASES = """cases:
  - {name: narrow, overrides: {n_e: 1}}
  - {name: wide, overrides: {n_e: 4}}
"""

SMALL_SWEEP = """
name: curve
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, v_a: 1, v_b: 1,
         noise_ea: 0.5}
""" + SWEEP_CASES + """sweep: {parameter: power_a, values: [0.5, 2.0, 8.0]}
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

OVERFLOW_SWEEP = """
config: {n_a: 4, n_b: 2, n_e: 2}
sweep: {parameter: power_a, values: [1.0, 1.0e+308]}
mc: {trials: 60, seed: 2}
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

# one config whose floor has its closed form (gamma_ea = 316, gamma_ba = 10)
CLOSED_FORM_SET = """
name: closed-form-verify
mc: {trials: 1000, seed: 1}
identity_realizations: 110
configs:
  - {n_a: 4, n_b: 4, n_e: 4, v_a: 1, v_b: 0, phi_a: 8, phi_b: 8,
     power_a: 10.0, power_b: 10.0, noise_ea: 0.0316227766017, rho: 0.0}
"""


def first_non_finite_floor(config, mc):
    """Lowest trial of the engine's draws whose per-sample floor is not
    finite, or None."""
    with np.errstate(all="ignore"):
        for start, block in trial_blocks(config, mc):
            for j in range(block.trials_shape[0]):
                if not np.isfinite(secrecy_floor_sample(block[j], config)):
                    return start + j
    return None


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

    @pytest.mark.parametrize("error", [GridTooSmall("too few points"), SkcError("base")],
                             ids=["grid-too-small", "base-class"])
    def test_every_other_program_error_is_numeric(self, tmp_path, monkeypatch, capsys,
                                                  error):
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_eval", fails)
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == f"error (numeric): {error}\n"

    def test_dof_of_a_diverging_alice_bound_is_validation_error(self, tmp_path,
                                                                monkeypatch, capsys):
        # lower_alice is -inf at every power where Eve hears Alice noiselessly
        monkeypatch.setattr(experiments, "evaluate_quantities", None)
        text = SMALL_DOF.replace("v_b: 0}", "v_b: 0, noise_ea: 0.0}").replace(
            "quantities: [floor]", "quantities: [lower_alice]")
        spec = write(tmp_path, text, "alice.yaml")
        assert main(["dof", "--config", spec, "--out", str(tmp_path)]) == 3
        assert "case 'base': dof of lower_alice needs noise_ea > 0 or v_a = 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "slope-dof.csv").exists()

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

    def test_zero_threads_is_validation_error(self, tmp_path, capsys):
        specs = {"eval": SMALL_EVAL, "sweep": SMALL_SWEEP, "dof": SMALL_DOF,
                 "verify": VERIFY_SET}
        for command, text in specs.items():
            argv = [command, "--config", write(tmp_path, text, f"{command}.yaml"),
                    "--out", str(tmp_path / command)]
            assert main(argv + ["--threads", "0"]) == 3, command
            assert "--threads" in capsys.readouterr().err
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

    @pytest.mark.parametrize("command,text,old,new,named", [
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: 1000.0", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: {p: 1.0}", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1, ten, 100, 1000]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         'power_grid: [1.0, "10", 100.0, 1000.0]', "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [true, 10.0, 100.0, 1000.0]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1.0, 100.0, 1000.0]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1.0, 100.0, 10.0, 1000.0]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [-1.0, 10.0, 100.0, 1000.0]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1.0, 10.0, 100.0, 900.0]", "'power_grid'"),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1.0, 10.0, 100.0, .inf]", "'power_grid'"),
        ("sweep", SMALL_SWEEP, "  - {name: narrow, overrides: {n_e: 1}}\n"
         "  - {name: wide, overrides: {n_e: 4}}\n", " 3\n", "'cases'"),
        ("sweep", SMALL_SWEEP, "  - {name: narrow, overrides: {n_e: 1}}\n"
         "  - {name: wide, overrides: {n_e: 4}}\n", " {name: wide}\n", "'cases'"),
        ("sweep", SMALL_SWEEP, "values: [0.5, 2.0, 8.0]}", "values: 5}", "'sweep.values'"),
        ("sweep", SMALL_SWEEP, "{name: wide, overrides: {n_e: 4}}",
         "{name: wide, overrides: [1]}", "case 'wide'"),
        ("eval", SMALL_EVAL, "quantities: [pilot_mi, bounds]", "quantities: bounds",
         "'quantities'"),
        ("sweep", SMALL_SWEEP, "svg: true", 'svg: "no"', "'svg'"),
        ("sweep", SMALL_SWEEP, "values: [0.5, 2.0, 8.0]}", "values: [0.0, 2.0, 8.0]}",
         "'sweep.values'"),
        ("verify", VERIFY_SET, VERIFY_SET[VERIFY_SET.index("configs:"):], "configs: 5\n",
         "'configs'"),
    ], ids=["grid-scalar", "grid-mapping", "grid-entry", "grid-quoted", "grid-bool",
            "grid-points", "grid-order", "grid-positive", "grid-decades", "grid-infinite",
            "cases-scalar", "cases-mapping", "sweep-values", "case-overrides",
            "quantities-string", "svg-string", "svg-log-axis-zero", "verify-configs"])
    def test_malformed_spec_section_is_validation_error(self, tmp_path, capsys, command,
                                                        text, old, new, named):
        assert old in text
        spec = write(tmp_path, text.replace(old, new), "malformed.yaml")
        assert main([command, "--config", spec, "--out", str(tmp_path)]) == 3
        assert named in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["malformed.yaml"]

    @pytest.mark.parametrize("old,new,plotted", [
        # every point of case 'wide' is -inf: only 'narrow' is drawn
        ("values: [0.5, 2.0, 8.0]", "values: [0.5, 2.0, 8.0]", {"narrow": 3}),
        # at v_a = 0 the Alice-side bound is finite again
        ("parameter: power_a, values: [0.5, 2.0, 8.0]", "parameter: v_a, values: [0, 1, 2]",
         {"narrow": 3, "wide": 1}),
    ], ids=["whole-curve", "some-points"])
    def test_sweep_chart_leaves_out_non_finite_points(self, tmp_path, capsys, old, new,
                                                      plotted):
        text = SMALL_SWEEP.replace(old, new).replace(
            "{name: wide, overrides: {n_e: 4}}",
            "{name: wide, overrides: {n_e: 4, noise_ea: 0.0}}").replace(
            "quantities: [floor]", "quantities: [lower_alice]")
        spec = write(tmp_path, text, "noiseless.yaml")
        assert main(["sweep", "--config", spec, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert sum(r.startswith("wide,") and ",-inf," in r for r in rows) == 3 - plotted.get("wide", 0)
        svg = (tmp_path / "curve.svg").read_text()
        polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
        assert [line.split('"')[1].count(",") for line in polylines] == list(plotted.values())
        assert "nan" not in svg and "inf" not in svg
        for name in ("narrow", "wide"):
            assert (f">{name}</text>" in svg) == (name in plotted)

    @pytest.mark.parametrize("command,text,outputs", [
        ("sweep", SMALL_SWEEP, ("curve.csv", "curve.svg")),
        ("dof", SMALL_DOF, ("slope-dof.csv",)),
    ], ids=["sweep", "dof"])
    def test_duplicate_case_name_is_validation_error(self, tmp_path, capsys, command,
                                                     text, outputs):
        cases = ("cases:\n  - {name: a, overrides: {n_e: 1}}\n"
                 "  - {name: a, overrides: {n_e: 3}}\n")
        text = text.replace(SWEEP_CASES, "") + cases
        spec = write(tmp_path, text, "twins.yaml")
        assert main([command, "--config", spec, "--out", str(tmp_path)]) == 3
        assert "duplicate case name 'a'" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in outputs)

    @pytest.mark.parametrize("command,text,old,new,named", [
        ("sweep", SMALL_SWEEP, "values: [0.5, 2.0, 8.0]", "values: [1.0, 1.0e+308]",
         "case 'narrow', power_a = 1e+308: floor integrand is "),
        ("dof", SMALL_DOF, "power_grid: [1.0, 10.0, 100.0, 1000.0]",
         "power_grid: [1.0, 10.0, 100.0, 1.0e+308]",
         "case 'base', power 1e+308: floor integrand is "),
    ], ids=["sweep", "dof"])
    def test_failing_point_is_named(self, tmp_path, capsys, command, text, old, new, named):
        assert old in text
        spec = write(tmp_path, text.replace(old, new), "overflow.yaml")
        with np.errstate(all="ignore"):
            code = main([command, "--config", spec, "--out", str(tmp_path)])
        assert code == 4
        # the failing point is the first case at 1e+308
        loaded = load_spec(spec)
        base = loaded.cases[0].config
        failing = apply_parameter(base, "power_a", 1e308) if command == "sweep" \
            else config_at_power(base, 1e308)
        trial = first_non_finite_floor(failing, loaded.mc)
        assert trial is not None
        assert f"trial {trial}: {named}" in capsys.readouterr().err

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # at 1e308 several numpy operations overflow; the only line on stderr
        # is the program's own error, which names the point
        spec = write(tmp_path, OVERFLOW_SWEEP, "overflow.yaml")
        proc = subprocess.run(
            [sys.executable, "-m", "skcprobe.cli", "sweep", "--config", spec,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 4
        loaded = load_spec(spec)
        failing = apply_parameter(loaded.cases[0].config, "power_a", 1e308)
        trial = first_non_finite_floor(failing, loaded.mc)
        assert trial is not None
        assert proc.stderr.splitlines() == [
            f"error (numeric): trial {trial}: case 'base', power_a = 1e+308: "
            "floor integrand is nan"]

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

    def test_verify_checks_the_closed_floor_and_fails_a_shifted_one(self, tmp_path, capsys,
                                                                     monkeypatch):
        import skcprobe.verify as verify
        spec = write(tmp_path, CLOSED_FORM_SET, "closed.yaml")
        assert main(["verify", "--config", spec, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify-report.json").read_text())
        [check] = [c for c in report["checks"] if c["name"] == "cfg0:floor-closed-form"]
        assert check["passed"] is True
        # the form shifted by twice the check's tolerance fails it
        config = experiments.config_from_mapping(yaml.safe_load(CLOSED_FORM_SET)["configs"][0])
        monkeypatch.setattr(verify, "_floor_forms", shifted_forms(
            config, lambda form: form + 2.0 * check["tolerance"]))
        assert main(["verify", "--config", spec, "--out", str(tmp_path)]) == 5
        assert "floor-closed-form" in capsys.readouterr().out


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


    # sha256 of what the bundled specs write at --trials 60 --seed 1
    BUNDLED_SHA256 = {
        "oneway.csv": "332f2fcdf60fe717de61e7bbb245c002372bbf175c238a4c66d0a02edcb98126",
        "fig1.csv": "e59a126da43f16553fbd7a29f1771693cd637f222916b45184618b977320d38f",
        "fig1.svg": "fb2ad8f2562c5d5af609ff1c9da8403207e58b8dfc6f947c881209356bb22955",
        "fig2.csv": "e7c51abb43831579da7317e0582e3e9e665e4494e2ccc266761bc4a914260cfc",
        "fig2.svg": "5a25089b2f0c9a476db3f27409eeeb201874b6184b350d14f6f8dd8cec9e8b9c",
        "fig2-dof.csv": "46898ba1c6d5f1de30b2962805fc71d3e9e1c76371c6ee482e0876461a490fdd",
    }

    def test_bundled_spec_outputs_are_pinned(self, tmp_path, capsys):
        for command, name in (("eval", "oneway"), ("sweep", "fig1"), ("sweep", "fig2"),
                              ("dof", "fig2")):
            assert main([command, "--config", name, "--trials", "60", "--seed", "1",
                         "--out", str(tmp_path)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == self.BUNDLED_SHA256


    # sha256 of fig2's outputs at its own trials and seed: fig2 runs at
    # noise_ea = noise_b, where the floor is exact and nothing is drawn
    FIG2_SHA256 = {
        "fig2.csv": "27074e273a07fd037914b4810fc4b66892fc86ab5f53dd4b0504442c921ae74d",
        "fig2.svg": "5a25089b2f0c9a476db3f27409eeeb201874b6184b350d14f6f8dd8cec9e8b9c",
        "fig2-dof.csv": "ea0730a7a487879e0e0520fa363d1e9212bf891de002b04d089be7ab92d0310f",
    }

    def test_fig2_outputs_at_the_spec_trials_are_pinned(self, tmp_path):
        for command in ("sweep", "dof"):
            assert main([command, "--config", "fig2", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == self.FIG2_SHA256


    # sha256 of outputs fitted over several blocks, at seed 1: oneway at
    # 3000 trials (12 blocks) and fig1 at 600 (3 blocks, the last partial)
    MULTI_BLOCK_SHA256 = {
        "oneway.csv": "74c14989da3e82abd5577ca543871e214c39c2e051f8f035c3c7e918f86bd02e",
        "fig1.csv": "aa3ea9c337f830bb147180dcefd3e6f87b2d53beb15381f0d942a25ae92b2230",
        "fig1.svg": "ba8f0b9a74186af007bf03f6e48587dcda73cbbb137eda5766f3f7d424799c13",
    }

    def test_multi_block_outputs_are_pinned(self, tmp_path):
        for command, name, trials in (("eval", "oneway", "3000"), ("sweep", "fig1", "600")):
            assert main([command, "--config", name, "--trials", trials, "--seed", "1",
                         "--out", str(tmp_path)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == self.MULTI_BLOCK_SHA256

    # sha256 of the benchmark's two-way spec at 2000 trials (8 blocks), seed
    # 1: the one pinned output where the floor's correction flows into
    # lower_bob at v_b > 0 and upper is lower_bob + gap
    TWOWAY_SHA256 = {
        "twoway.csv": "b15cfdad7098b1f599b565b9254d3fd228c2657922f0450caa91e8baa2e76606",
    }

    def test_two_way_outputs_are_pinned(self, tmp_path):
        spec = Path(__file__).resolve().parents[1] / "perfbench" / "twoway.yaml"
        assert main(["eval", "--config", str(spec), "--trials", "2000", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == self.TWOWAY_SHA256


class TestEngineTraffic:
    """What the bundled figures ask of the engine: fig2's exact floors take
    no Monte Carlo pass, and fig1 fits each point whose floor it samples in
    one regression of its own, and no exact point."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("command", ["sweep", "dof"])
    def test_fig2_makes_no_monte_carlo_pass(self, tmp_path, monkeypatch, command):
        import skcprobe.capacity as capacity
        calls = self.count_calls(monkeypatch, capacity, "collect")
        assert main([command, "--config", "fig2", "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_fig1_fits_each_sampled_point_once(self, tmp_path, monkeypatch):
        import skcprobe.capacity as capacity
        spec = load_spec("fig1")
        sampled = [config for case in spec.cases for config in (
            apply_parameter(case.config, "noise_ea", v) for v in spec.sweep.values)
            if capacity._floor_plan(config)[0] is None]
        calls = self.count_calls(monkeypatch, capacity, "_control_corrections")
        assert main(["sweep", "--config", "fig1", "--trials", "60", "--out",
                     str(tmp_path)]) == 0
        assert len(calls) == len(sampled) == 6
        # each call is one sampled point's (k + 1, trials) rows on its k means
        assert sorted(tuple(means) for _, means, _ in calls) == sorted(
            tuple(plan.means.values()) for plan in capacity._plan(sampled, {"floor"}, 60))
        assert [rows.shape for rows, means, _ in calls] == [
            (len(means) + 1, 60) for _, means, _ in calls]


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

    def test_bad_env_value_is_validation_error(self, tmp_path, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_SEED", "not-a-number")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3


class TestSeedRange:
    """A master seed keys a 64-bit stream: one outside [0, 2**64) would draw
    what its value modulo 2**64 draws, so every route to it rejects it."""

    RULE = "seed must be in [0, 2**64)"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_flag(self, tmp_path, capsys, seed):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        assert main(["eval", "--config", spec, "--seed", seed, "--out", str(tmp_path)]) == 3
        assert self.RULE in capsys.readouterr().err
        assert not (tmp_path / "point.csv").exists()

    def test_environment(self, tmp_path, capsys, monkeypatch):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        monkeypatch.setenv("SKCPROBE_SEED", "-1")
        assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 3
        assert self.RULE in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,old", [
        ("eval", SMALL_EVAL, "seed: 2"),
        ("verify", VERIFY_SET, "seed: 1"),
    ], ids=["spec", "verify-set"])
    def test_spec_file(self, tmp_path, capsys, command, text, old):
        assert old in text
        spec = write(tmp_path, text.replace(old, f"seed: {2**64}"), "spec.yaml")
        assert main([command, "--config", spec, "--out", str(tmp_path)]) == 3
        assert self.RULE in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        seed = str(2**64 - 1)
        assert main(["eval", "--config", spec, "--seed", seed, "--out", str(tmp_path)]) == 0
        row = (tmp_path / "point.csv").read_text().splitlines()[1]
        assert row.endswith("," + seed)


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

    def test_bundled_means_are_pinned(self, tmp_path):
        # the twelve-digit means of the bundled spec at its own seed and
        # trials: a change to the reported standard errors alone leaves
        # them byte for byte
        assert main(["eval", "--config", "oneway", "--seed", "1", "--trials", "10000",
                     "--out", str(tmp_path)]) == 0
        header, row = (tmp_path / "oneway.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert {k: v for k, v in fields.items() if k.endswith("_mean")} == {
            "pilot_mi_mean": "19.1306071068", "floor_mean": "7.68742800699",
            "gap_mean": "0", "lower_mean": "49.8803191347", "upper_mean": "49.8803191347"}


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
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout


FREEZE_PROBE = """
import atexit, gc, sys
# registered before main, so it runs after main's exit hook
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from skcprobe.cli import main
code = main(sys.argv[1:])
print("frozen on return:", gc.get_freeze_count() > 0)
sys.exit(code)
"""


class TestHeapFrozenAtExit:
    def test_subprocess_heap_is_frozen_at_shutdown(self, tmp_path):
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        proc = subprocess.run(
            [sys.executable, "-c", FREEZE_PROBE, "eval", "--config", spec,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2:] == ["frozen on return: False", "frozen at exit: True"]
        assert (tmp_path / "point.csv").read_text().count("\n") == 2

    def test_in_process_main_only_registers_the_hook(self, tmp_path, capsys,
                                                     monkeypatch):
        # main freezes nothing itself, and however often it runs, the
        # process gets one exit hook
        spec = write(tmp_path, SMALL_EVAL, "spec.yaml")
        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        # a fresh once-per-process registration, as in a new process
        monkeypatch.setattr(cli, "_freeze_heap_at_exit",
                            functools.cache(cli._freeze_heap_at_exit.__wrapped__))
        frozen = gc.get_freeze_count()
        for _ in range(2):
            assert main(["eval", "--config", spec, "--out", str(tmp_path)]) == 0
            assert gc.get_freeze_count() == frozen
        assert registered == [gc.freeze]


class TestOutputPlacement:
    """The spec name and --out decide where the files go, so both are
    checked before anything runs: a refused run writes nothing."""

    @pytest.mark.parametrize("name", ['"sub/dir"', '"../escaped"', '""', '"."', '".."',
                                      r'"a\\b"', r'"a\0b"'])
    def test_name_must_be_a_plain_file_stem(self, tmp_path, capsys, name):
        spec = write(tmp_path, SMALL_EVAL.replace("name: point", f"name: {name}"),
                     "spec.yaml")
        assert main(["eval", "--config", spec, "--out", str(tmp_path / "out")]) == 3
        assert "'name' must be a plain file stem" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.yaml"]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command,text", [
        ("eval", SMALL_EVAL), ("sweep", SMALL_SWEEP), ("dof", SMALL_DOF),
        ("verify", VERIFY_SET)], ids=["eval", "sweep", "dof", "verify"])
    def test_out_must_not_be_a_file(self, tmp_path, capsys, monkeypatch, command, text,
                                    under):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("a refused --out ran the computation")

        monkeypatch.setattr(experiments, "evaluate_many", no_monte_carlo)
        monkeypatch.setattr(experiments, "run_suite", no_monte_carlo)
        spec = write(tmp_path, text, "spec.yaml")
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / "sub" if under else taken
        assert main([command, "--config", spec, "--out", str(out)]) == 3
        assert f"--out must be a directory, but {str(taken)!r} is an existing file" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.yaml", "taken"]
        assert taken.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("command,text", [
        ("eval", SMALL_EVAL), ("sweep", SMALL_SWEEP), ("dof", SMALL_DOF),
        ("verify", VERIFY_SET)], ids=["eval", "sweep", "dof", "verify"])
    def test_run_functions_check_the_output_directory_first(self, tmp_path, monkeypatch,
                                                            command, text):
        # a library caller gets the rule before the computation runs
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("a refused output directory ran the computation")

        monkeypatch.setattr(experiments, "evaluate_many", no_monte_carlo)
        monkeypatch.setattr(experiments, "run_suite", no_monte_carlo)
        spec = write(tmp_path, text, "spec.yaml")
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="--out must be a directory"):
            if command == "verify":
                experiments.run_verify(spec, taken / "sub")
            else:
                getattr(experiments, f"run_{command}")(load_spec(spec), taken)
        assert taken.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("name", [r'"a,b"', r"'a\"b'", r'"a\rb"', r'"a\nb"', "[1, 2]", "7"],
                             ids=["comma", "quote", "cr", "lf", "list", "number"])
    def test_case_name_must_be_a_csv_field(self, tmp_path, capsys, name):
        old = "{name: narrow,"
        assert old in SMALL_SWEEP
        spec = write(tmp_path, SMALL_SWEEP.replace(old, f"{{name: {name},"), "spec.yaml")
        assert main(["sweep", "--config", spec, "--out", str(tmp_path / "out")]) == 3
        assert "a case 'name' must be a string without ',', '\"', CR or LF" in \
            capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.yaml"]

    def test_verify_set_name_is_the_report_suite(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "run_suite",
                            lambda *args, **kwargs: VerificationSummary(outcomes=()))
        spec = write(tmp_path, VERIFY_SET, "spec.yaml")
        _, report = experiments.run_verify(spec, tmp_path / "named")
        assert json.loads(report.read_text(encoding="utf-8"))["suite"] == "tiny-verify"
        # without a name, the file stem
        spec = write(tmp_path, VERIFY_SET.replace("name: tiny-verify\n", ""), "plain.yaml")
        _, report = experiments.run_verify(spec, tmp_path / "plain")
        assert json.loads(report.read_text(encoding="utf-8"))["suite"] == "plain"

    @pytest.mark.parametrize("name", ['"sub/dir"', '"../escaped"', '""', '".."'])
    def test_verify_set_name_must_be_a_plain_file_stem(self, tmp_path, capsys, name):
        spec = write(tmp_path, VERIFY_SET.replace("name: tiny-verify", f"name: {name}"),
                     "spec.yaml")
        assert main(["verify", "--config", spec, "--out", str(tmp_path / "out")]) == 3
        assert "'name' must be a plain file stem" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.yaml"]


class TestRhoPairs:
    def test_pair_sweep_value_is_written_as_its_complex(self, tmp_path, monkeypatch):
        labels = []
        evaluate_many = experiments.evaluate_many

        def recording(configs, mc, quantities, point_labels):
            labels.extend(point_labels)
            return evaluate_many(configs, mc, quantities, point_labels)

        monkeypatch.setattr(experiments, "evaluate_many", recording)
        old = "parameter: power_a, values: [0.5, 2.0, 8.0]"
        assert old in SMALL_SWEEP
        spec = write(tmp_path, SMALL_SWEEP.replace(
            old, 'parameter: rho, values: [[0.3, 0.4], 0.5, "0.1 + 0.2j", [0.6, 0]]'),
            "rho.yaml")
        assert main(["sweep", "--config", spec, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        written = ["0.3+0.4j", "0.5", "0.1 + 0.2j", "0.6"]
        assert [row.split(",")[2] for row in rows] == written * 2
        assert labels == [f"case {case!r}, rho = {value}"
                          for case in ("narrow", "wide") for value in written]

    @pytest.mark.parametrize("old,new,named", [
        ("noise_ea: 0.5}", 'noise_ea: 0.5, rho: [0.3, "x"]}', "rho[1] must be a number"),
        ("noise_ea: 0.5}", "noise_ea: 0.5, rho: [true, 0]}", "rho[0] must be a number"),
        ("noise_ea: 0.5}", "noise_ea: 0.5, rho: true}", "rho must be a number"),
        ("parameter: power_a, values: [0.5, 2.0, 8.0]",
         "parameter: rho, values: [[0.3, .nan]]", "rho must be finite"),
    ], ids=["pair-string", "pair-bool", "bool", "pair-nan"])
    def test_malformed_rho_is_validation_error(self, tmp_path, capsys, old, new, named):
        assert old in SMALL_SWEEP
        spec = write(tmp_path, SMALL_SWEEP.replace(old, new), "rho.yaml")
        assert main(["sweep", "--config", spec, "--out", str(tmp_path)]) == 3
        assert named in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["rho.yaml"]
