"""Experiment specs, CSV emission, and SVG determinism."""

import math

import pytest

from skcprobe.errors import ParseError, ValidationError
from skcprobe.experiments import (
    apply_parameter,
    expand_quantities,
    format_number,
    load_spec,
    run_dof,
    run_eval,
    run_sweep,
)
from skcprobe.svgplot import line_chart

MINIMAL = """
config:
  n_a: 2
  n_b: 2
  n_e: 2
"""

SMALL_SWEEP = """
name: demo
config: {n_a: 2, n_b: 2, n_e: 2, v_a: 1, v_b: 0, phi_a: 8, phi_b: 8,
         noise_ea: 0.5}
sweep:
  parameter: power_a
  values: [1.0, 4.0, 16.0]
mc: {trials: 120, seed: 3}
quantities: [floor]
svg: true
"""


def write(tmp_path, text, name="spec.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadSpec:
    def test_minimal_config_gets_defaults(self, tmp_path):
        spec = load_spec(write(tmp_path, MINIMAL))
        assert spec.base.n_a == 2
        assert spec.base.v_a == 1 and spec.base.v_b == 0
        assert spec.base.phi_a == 200  # large-pilot default
        assert spec.mc.trials == 10_000 and spec.mc.master_seed == 1
        assert spec.quantities == ("bounds",)
        assert spec.cases[0].name == "base"

    def test_pilot_rule_violation_is_named(self, tmp_path):
        text = "config: {n_a: 4, n_b: 2, n_e: 2, phi_a: 2}"
        with pytest.raises(ValidationError, match="phi_a < n_a"):
            load_spec(write(tmp_path, text))

    def test_unknown_quantity_rejected(self, tmp_path):
        text = MINIMAL + "quantities: [entropy]\n"
        with pytest.raises(ValidationError, match="unknown quantity"):
            load_spec(write(tmp_path, text))

    def test_unknown_config_key_rejected(self, tmp_path):
        text = "config: {n_a: 2, n_b: 2, n_e: 2, bandwidth: 7}"
        with pytest.raises(ValidationError, match="unknown config keys"):
            load_spec(write(tmp_path, text))

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_spec("/nonexistent/nope.yaml")

    def test_invalid_yaml_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_spec(write(tmp_path, "config: [unclosed"))

    @pytest.mark.parametrize("name", ["fig1", "fig2", "oneway", "verify-default"])
    def test_spec_loader_matches_the_pure_python_safe_loader(self, name):
        # specs parse with libyaml where PyYAML has it; the objects must be
        # those of yaml.SafeLoader (numbers, exponents, booleans, rho strings)
        import yaml
        from skcprobe.experiments import _YAML_LOADER, bundled_config_text
        extra = "\nextra: {a: 1.0e+308, b: -2, c: true, d: '0.5+0.5j', e: [1, 2.5e-3]}\n"
        text = bundled_config_text(name) + extra
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("mc", ["{trials: 1.5}", "{seed: 2.9}", "{trials: true}",
                                    "{seed: '3'}"])
    def test_mc_integers_are_strict(self, tmp_path, mc):
        with pytest.raises(ValidationError, match="must be an integer"):
            load_spec(write(tmp_path, MINIMAL + f"mc: {mc}\n"))

    @pytest.mark.parametrize("entry", ["power_a: .nan", "noise_ea: .inf", "rho: .nan"])
    def test_non_finite_config_values_rejected(self, tmp_path, entry):
        with pytest.raises(ValidationError, match="must be finite"):
            load_spec(write(tmp_path, MINIMAL + f"  {entry}\n"))

    def test_exponent_notation_is_a_number_in_every_section(self, tmp_path):
        # YAML 1.1 reads these as strings; the spec loader takes YAML 1.2's
        # floats
        text = """
config: {n_a: 2, n_b: 2, n_e: 2, power_a: 1e5, power_b: 1.0e5, noise_ea: 1e-4}
cases:
  - {name: a, overrides: {noise_eb: 5E-1}}
sweep: {parameter: noise_ea, values: [1e-4, .5e1, 2.e0]}
power_grid: [1e0, 1e1, 1E2, 1e3]
quantities: [floor]
"""
        spec = load_spec(write(tmp_path, text))
        assert (spec.base.power_a, spec.base.power_b, spec.base.noise_ea) == (1e5, 1e5, 1e-4)
        assert spec.cases[0].config.noise_eb == 0.5
        assert spec.sweep.values == (1e-4, 5.0, 2.0)
        assert all(type(v) is float for v in spec.sweep.values)
        assert spec.power_grid == (1.0, 10.0, 100.0, 1000.0)
        # integers stay integers, so mc counts in exponent notation are refused
        assert type(spec.base.n_a) is int
        with pytest.raises(ValidationError, match="mc.trials must be an integer"):
            load_spec(write(tmp_path, MINIMAL + "mc: {trials: 1e3}\n"))

    @pytest.mark.parametrize("entry,rule", [
        ("power_a: 1e5x", "must be a number"), ("power_a: e5", "must be a number"),
        ("noise_ea: 1e", "must be a number"), ("noise_ea: '1e-4'", "must be a number"),
        ("power_a: 1e400", "must be finite"), ("power_a: -.inf", "must be finite"),
        ("noise_ea: .NaN", "must be finite")])
    def test_non_numbers_and_non_finite_values_keep_their_rules(self, tmp_path, entry, rule):
        with pytest.raises(ValidationError, match=rule):
            load_spec(write(tmp_path, MINIMAL + f"  {entry}\n"))

    def test_overrides_beat_file(self, tmp_path):
        spec = load_spec(write(tmp_path, SMALL_SWEEP), seed_override=9,
                         trials_override=50)
        assert spec.mc.master_seed == 9 and spec.mc.trials == 50

    def test_bundled_fig2_power_sweep_spans_three_decades(self):
        spec = load_spec("fig2")
        assert spec.sweep is not None and spec.sweep.parameter == "power_a"
        values = [float(v) for v in spec.sweep.values]
        assert max(values) / min(values) >= 1000.0
        assert len(spec.power_grid) >= 4
        assert {c.name for c in spec.cases} == {"na8-nb4-ne6", "na8-nb4-ne10"}

    def test_bundled_fig1_ratio_grid_spans_three_decades(self):
        spec = load_spec("fig1")
        assert spec.sweep.parameter == "noise_ea"
        values = [float(v) for v in spec.sweep.values]
        assert max(values) / min(values) >= 1000.0 * (1 - 1e-9)
        assert spec.quantities == ("floor",)


class TestApplyParameter:
    def test_numeric_and_integer_paths(self):
        spec_cfg = load_spec_config()
        assert apply_parameter(spec_cfg, "noise_ea", 0.25).noise_ea == 0.25
        assert apply_parameter(spec_cfg, "n_e", 5).n_e == 5
        assert apply_parameter(spec_cfg, "rho", "0.5+0.5j").rho == 0.5 + 0.5j

    def test_type_errors_are_named(self):
        spec_cfg = load_spec_config()
        with pytest.raises(ValidationError, match="v_a"):
            apply_parameter(spec_cfg, "v_a", 1.5)
        with pytest.raises(ValidationError, match="unsupported sweep parameter"):
            apply_parameter(spec_cfg, "phi_a", 32)


def load_spec_config():
    from conftest import make_config
    return make_config()


class TestFormatNumber:
    def test_twelve_significant_digits(self):
        assert format_number(math.pi) == "3.14159265359"
        assert format_number(1.0) == "1"
        assert format_number(0.5 + 0.25j) == "0.5+0.25j"
        assert format_number(7) == "7"


class TestRunEval:
    def test_csv_schema_and_determinism(self, tmp_path):
        text = """
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8}
mc: {trials: 80, seed: 5}
quantities: [pilot_mi, floor, bounds]
"""
        spec = load_spec(write(tmp_path, text))
        _, csv_path = run_eval(spec, tmp_path / "out1")
        header = csv_path.read_text().splitlines()[0]
        assert header == ("pilot_mi_mean,pilot_mi_stderr,floor_mean,floor_stderr,"
                          "lower_mean,lower_stderr,upper_mean,upper_stderr,trials,seed")
        _, csv_path2 = run_eval(spec, tmp_path / "out2")
        assert csv_path.read_bytes() == csv_path2.read_bytes()

    def test_rejects_sweep_spec(self, tmp_path):
        spec = load_spec(write(tmp_path, SMALL_SWEEP))
        with pytest.raises(ValidationError):
            run_eval(spec, tmp_path)


class TestRunSweep:
    def test_schema_and_row_count(self, tmp_path):
        spec = load_spec(write(tmp_path, SMALL_SWEEP))
        csv_path, svg_path = run_sweep(spec, tmp_path / "out")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("case,sweep_param,sweep_value,floor_mean,floor_stderr,"
                            "trials,seed")
        assert len(lines) == 1 + 3
        assert all(line.startswith("base,power_a,") for line in lines[1:])
        assert svg_path is not None and svg_path.read_text().startswith("<svg")

    def test_single_value_sweep_matches_eval_row(self, tmp_path):
        base = """
name: point
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8, power_a: 4.0,
         noise_ea: 0.5}
mc: {trials: 100, seed: 11}
quantities: [floor]
"""
        sweep = base + "sweep: {parameter: power_a, values: [4.0]}\n"
        eval_spec = load_spec(write(tmp_path, base, "eval.yaml"))
        sweep_spec = load_spec(write(tmp_path, sweep, "sweep.yaml"))
        _, eval_csv = run_eval(eval_spec, tmp_path / "e")
        sweep_csv, _ = run_sweep(sweep_spec, tmp_path / "s")
        eval_row = eval_csv.read_text().splitlines()[1].split(",")
        sweep_row = sweep_csv.read_text().splitlines()[1].split(",")
        # quantity/trials/seed fields agree byte for byte; the sweep row
        # carries its extra case and parameter columns in front
        assert sweep_row[3:] == eval_row

    def test_requires_sweep_section(self, tmp_path):
        spec = load_spec(write(tmp_path, MINIMAL))
        with pytest.raises(ValidationError):
            run_sweep(spec, tmp_path)


class TestRunDof:
    def test_requires_power_grid(self, tmp_path):
        spec = load_spec(write(tmp_path, SMALL_SWEEP))
        with pytest.raises(ValidationError, match="power_grid"):
            run_dof(spec, tmp_path)

    def test_small_fit(self, tmp_path):
        text = """
name: tiny
config: {n_a: 2, n_b: 1, n_e: 1, v_a: 1, v_b: 0, phi_a: 64, phi_b: 64}
power_grid: [4, 32, 256, 2048, 16384]
mc: {trials: 300, seed: 13}
quantities: [floor]
"""
        spec = load_spec(write(tmp_path, text))
        results, csv_path = run_dof(spec, tmp_path / "out")
        assert results["base"].formula_value == 1
        assert results["base"].slope == pytest.approx(1.0, abs=0.2)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "case,quantity,p,log2_p,mean,stderr,trials,seed"
        assert len(lines) == 1 + 5


class TestCaseHandling:
    def test_case_overrides_apply(self, tmp_path):
        text = """
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8}
cases:
  - {name: wide, overrides: {n_e: 6}}
  - {name: base}
"""
        spec = load_spec(write(tmp_path, text))
        assert spec.cases[0].config.n_e == 6
        assert spec.cases[1].config.n_e == 2

    def test_unset_pilot_length_follows_the_case_antenna_count(self, tmp_path):
        # a case is the spec's config as written, updated by its overrides:
        # the same scenario as the one written as the base
        as_case = """
config: {n_a: 2, n_b: 2, n_e: 1, rho: 0.9}
cases:
  - {name: big, overrides: {n_a: 8}}
sweep: {parameter: rho, values: [0.9]}
quantities: [pilot_mi]
"""
        as_base = "config: {n_a: 8, n_b: 2, n_e: 1, rho: 0.9}\nquantities: [pilot_mi]\n"
        case_spec = load_spec(write(tmp_path, as_case, "case.yaml"))
        base_spec = load_spec(write(tmp_path, as_base, "base.yaml"))
        sweep_csv, _ = run_sweep(case_spec, tmp_path / "s")
        _, eval_csv = run_eval(base_spec, tmp_path / "e")
        case_row = sweep_csv.read_text().splitlines()[1].split(",")
        assert case_row[3] == eval_csv.read_text().splitlines()[1].split(",")[0] \
            == "37.7309958392"
        assert case_spec.cases[0].config == base_spec.base
        assert base_spec.base.phi_a == 800

    def test_invalid_case_override_caught_at_load(self, tmp_path):
        text = """
config: {n_a: 2, n_b: 2, n_e: 2, phi_a: 8, phi_b: 8}
cases:
  - {name: broken, overrides: {n_a: 16}}
"""
        # n_a=16 > phi_a=8 violates the pilot rule at load time
        with pytest.raises(ValidationError, match="phi_a < n_a"):
            load_spec(write(tmp_path, text))


class TestExpandQuantities:
    def test_bounds_expansion(self):
        assert expand_quantities(["bounds"]) == ["lower", "upper"]
        assert expand_quantities(["floor", "bounds", "floor"]) == \
            ["floor", "lower", "upper"]


class TestSvg:
    def test_byte_determinism(self):
        series = [("a", [1.0, 10.0, 100.0], [0.5, 1.5, 2.5]),
                  ("b", [1.0, 10.0, 100.0], [0.2, 0.4, 0.6])]
        first = line_chart(series, "x", "y", log_x=True, title="t")
        second = line_chart(series, "x", "y", log_x=True, title="t")
        assert first == second
        assert first.count("<polyline") == 2
        assert "rotate(-90" in first

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart([("a", [0.0, 1.0], [1.0, 2.0])], "x", "y", log_x=True)
