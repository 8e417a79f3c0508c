"""Experiment specs, sweeps, and deterministic CSV/SVG emission.

A spec is a single YAML file: a base scenario, optional named cases (config
overrides, one curve each), an optional one-parameter sweep, Monte Carlo
settings, and the list of quantities to report.  All numeric CSV fields are
written with 12 significant digits and '.' as the decimal separator, so a
given spec and seed always produce byte-identical output.  Every mapping
in a spec is checked for unknown keys, so a misspelt key is an error
rather than a silent default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .capacity import DofResult, Estimate, dof_slope, evaluate, pilot_mi
from .channel import ProbingConfig
from .errors import ParseError, ValidationError
from .montecarlo import McSettings
from .svgplot import line_chart
from .verify import VerificationSummary, run_suite

SWEEP_PARAMETERS = ("noise_ea", "noise_eb", "power_a", "power_b",
                    "rho", "v_a", "v_b", "n_e")
INT_PARAMETERS = ("v_a", "v_b", "n_e")
LOG_AXIS_PARAMETERS = ("noise_ea", "noise_eb", "power_a", "power_b")

QUANTITIES = ("pilot_mi", "floor", "gap", "lower_bob", "lower_alice",
              "upper", "bounds")
# 'bounds' is shorthand for the reported lower bound (the larger of the two
# side bounds) together with the upper bound
BOUNDS_COLUMNS = ("lower", "upper")

CONFIG_KEYS = ("n_a", "n_b", "n_e", "v_a", "v_b", "phi_a", "phi_b",
               "power_a", "power_b", "noise_a", "noise_b",
               "noise_ea", "noise_eb", "rho")
REQUIRED_CONFIG_KEYS = ("n_a", "n_b", "n_e")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class CaseSpec:
    name: str
    overrides: Mapping


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: ProbingConfig
    mc: McSettings
    quantities: tuple[str, ...]
    sweep: SweepSpec | None = None
    cases: tuple[CaseSpec, ...] = (CaseSpec("base", {}),)
    svg: bool = False
    power_grid: tuple[float, ...] = ()


def _parse_rho(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"rho not parseable as complex: {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValidationError(f"rho must be a number, 'a+bj' string, or [re, im]: {value!r}")


def config_from_mapping(mapping: Mapping) -> ProbingConfig:
    """Build a validated ProbingConfig from a YAML mapping."""
    if not isinstance(mapping, Mapping):
        raise ValidationError(f"config section must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in REQUIRED_CONFIG_KEYS if k not in mapping]
    if missing:
        raise ValidationError(f"missing required config keys: {missing}")
    kwargs = {}
    for key, value in mapping.items():
        if key == "rho":
            kwargs[key] = _parse_rho(value)
        elif key in ("n_a", "n_b", "n_e", "v_a", "v_b", "phi_a", "phi_b"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
            kwargs[key] = value
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{key} must be a number, got {value!r}")
            kwargs[key] = float(value)
    return ProbingConfig(**kwargs)


def apply_parameter(config: ProbingConfig, parameter: str, value) -> ProbingConfig:
    """Set one sweepable parameter on a config."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValidationError(
            f"unsupported sweep parameter {parameter!r}; supported: {SWEEP_PARAMETERS}")
    if parameter == "rho":
        return dataclasses.replace(config, rho=_parse_rho(value))
    if parameter in INT_PARAMETERS:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{parameter} sweep values must be integers, got {value!r}")
        return dataclasses.replace(config, **{parameter: value})
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{parameter} sweep values must be numbers, got {value!r}")
    return dataclasses.replace(config, **{parameter: float(value)})


def bundled_config_text(name: str) -> str | None:
    """Text of a bundled spec by bare name, or None if not bundled."""
    candidate = resources.files("skcprobe").joinpath("configs", f"{name}.yaml")
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    return None


def read_spec_text(path_or_name: str) -> tuple[str, str]:
    """Resolve a --config argument to (text, default name).

    A path that exists on disk wins; otherwise a bare name is looked up
    among the bundled configs.
    """
    p = Path(path_or_name)
    if p.is_file():
        return p.read_text(encoding="utf-8"), p.stem
    if "/" not in path_or_name and "\\" not in path_or_name:
        bundled = bundled_config_text(p.stem if p.suffix == ".yaml" else path_or_name)
        if bundled is not None:
            return bundled, (p.stem if p.suffix == ".yaml" else path_or_name)
    raise ParseError(f"config file not found: {path_or_name}")


def _strict_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _mc_int(mc_raw: Mapping, key: str, default: int) -> int:
    return _strict_int(mc_raw.get(key, default), f"mc.{key}")


_SPEC_KEYS = {"name", "config", "cases", "sweep", "mc", "quantities", "svg",
              "power_grid"}
_MC_KEYS = {"trials", "seed"}
_CASE_KEYS = {"name", "overrides"}
_SWEEP_KEYS = {"parameter", "values"}
_VERIFY_KEYS = {"name", "mc", "identity_realizations", "configs"}


def _reject_unknown(mapping: Mapping, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"unknown keys in {where}: {sorted(unknown)}")


def _mc_section(raw: Mapping) -> Mapping:
    mc_raw = raw.get("mc", {}) or {}
    if not isinstance(mc_raw, Mapping):
        raise ParseError("'mc' section must be a mapping")
    _reject_unknown(mc_raw, _MC_KEYS, "'mc'")
    return mc_raw


def load_spec(path_or_name: str, seed_override: int | None = None,
              trials_override: int | None = None) -> ExperimentSpec:
    """Load and validate an experiment spec.

    Defaults: 10^4 trials, seed 1, quantities ['bounds'], a single 'base'
    case, no sweep, no SVG.  ParseError covers missing files and YAML-level
    problems; ValidationError names the violated rule.
    """
    text, default_name = read_spec_text(path_or_name)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path_or_name}: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ParseError(f"top level of {path_or_name} must be a mapping")
    _reject_unknown(raw, _SPEC_KEYS, f"the top level of {path_or_name}")
    if "config" not in raw:
        raise ParseError(f"{path_or_name} has no 'config' section")

    base = config_from_mapping(raw["config"])
    name = str(raw.get("name", default_name))

    mc_raw = _mc_section(raw)
    trials = trials_override if trials_override is not None else \
        _mc_int(mc_raw, "trials", 10_000)
    seed = seed_override if seed_override is not None else _mc_int(mc_raw, "seed", 1)
    mc = McSettings(trials=trials, master_seed=seed)

    quantities = tuple(raw.get("quantities", ["bounds"]))
    if not quantities:
        raise ValidationError("quantities must be nonempty")
    for q in quantities:
        if q not in QUANTITIES:
            raise ValidationError(f"unknown quantity {q!r}; supported: {QUANTITIES}")

    sweep = None
    if raw.get("sweep") is not None:
        sweep_raw = raw["sweep"]
        if not isinstance(sweep_raw, Mapping) or \
                "parameter" not in sweep_raw or "values" not in sweep_raw:
            raise ParseError("'sweep' needs 'parameter' and 'values'")
        _reject_unknown(sweep_raw, _SWEEP_KEYS, "'sweep'")
        values = tuple(sweep_raw["values"])
        if not values:
            raise ValidationError("sweep values must be nonempty")
        for v in values:
            apply_parameter(base, sweep_raw["parameter"], v)  # type/validity check
        sweep = SweepSpec(parameter=str(sweep_raw["parameter"]), values=values)

    cases: tuple[CaseSpec, ...]
    if raw.get("cases"):
        parsed = []
        for entry in raw["cases"]:
            if not isinstance(entry, Mapping) or "name" not in entry:
                raise ParseError("each case needs a 'name'")
            _reject_unknown(entry, _CASE_KEYS, f"case {entry['name']!r}")
            overrides = entry.get("overrides", {}) or {}
            merged = dict_config(base)
            merged.update(overrides)
            config_from_mapping(merged)  # validate the merge now, not mid-run
            parsed.append(CaseSpec(name=str(entry["name"]), overrides=dict(overrides)))
        cases = tuple(parsed)
    else:
        cases = (CaseSpec("base", {}),)

    power_grid = tuple(float(p) for p in raw.get("power_grid", []) or [])

    return ExperimentSpec(name=name, base=base, mc=mc, quantities=quantities,
                          sweep=sweep, cases=cases, svg=bool(raw.get("svg", False)),
                          power_grid=power_grid)


def dict_config(config: ProbingConfig) -> dict:
    """Round-trippable mapping form of a config (rho as 'a+bj' string when
    complex)."""
    out = {}
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        if key == "rho":
            out[key] = value.real if value.imag == 0 else f"{value.real}{value.imag:+}j"
        else:
            out[key] = value
    return out


def case_config(spec: ExperimentSpec, case: CaseSpec) -> ProbingConfig:
    merged = dict_config(spec.base)
    merged.update(case.overrides)
    return config_from_mapping(merged)


def format_number(x) -> str:
    """Fixed 12-significant-digit, locale-independent numeric formatting."""
    if isinstance(x, str):
        return x
    if isinstance(x, complex):
        if x.imag == 0:
            return f"{x.real:.12g}"
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def expand_quantities(quantities: Sequence[str]) -> list[str]:
    """Replace the 'bounds' shorthand with its column quantities."""
    out: list[str] = []
    for q in quantities:
        cols = BOUNDS_COLUMNS if q == "bounds" else (q,)
        for c in cols:
            if c not in out:
                out.append(c)
    return out


def evaluate_quantities(config: ProbingConfig, mc: McSettings,
                        quantities: Sequence[str]) -> dict[str, Estimate]:
    """Evaluate the requested quantities, and only those, on shared draws."""
    expanded = expand_quantities(quantities)
    mc_quantities = [q for q in expanded if q != "pilot_mi"]
    values = evaluate(config, mc, mc_quantities) if mc_quantities else {}
    if "pilot_mi" in expanded:
        values["pilot_mi"] = Estimate.exact(pilot_mi(config))
    return values


def _quantity_header(expanded: Sequence[str]) -> list[str]:
    cols = []
    for q in expanded:
        cols.extend([f"{q}_mean", f"{q}_stderr"])
    cols.extend(["trials", "seed"])
    return cols


def _quantity_fields(values: Mapping[str, Estimate], expanded: Sequence[str],
                     mc: McSettings) -> list[str]:
    fields = []
    for q in expanded:
        fields.extend([format_number(values[q].mean), format_number(values[q].stderr)])
    fields.extend([str(mc.trials), str(mc.master_seed)])
    return fields


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run_eval(spec: ExperimentSpec, out_dir: Path) -> tuple[dict[str, Estimate], Path]:
    """Single-point evaluation of the base config: one CSV row plus the
    values for printing."""
    if spec.sweep is not None:
        raise ValidationError("eval does not accept a sweep; use the sweep command")
    expanded = expand_quantities(spec.quantities)
    values = evaluate_quantities(spec.base, spec.mc, spec.quantities)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.name}.csv"
    _write_csv(csv_path, _quantity_header(expanded),
               [_quantity_fields(values, expanded, spec.mc)])
    return values, csv_path


def run_sweep(spec: ExperimentSpec, out_dir: Path) -> tuple[Path, Path | None]:
    """One CSV row per (case, swept value); common draws across rows.

    The optional SVG plots the first requested quantity, one polyline per
    case, with a log x-axis for power and noise sweeps.
    """
    if spec.sweep is None:
        raise ValidationError("sweep command requires a 'sweep' section")
    expanded = expand_quantities(spec.quantities)
    header = ["case", "sweep_param", "sweep_value"] + _quantity_header(expanded)
    rows = []
    curves: dict[str, tuple[list[float], list[float]]] = {}
    for case in spec.cases:
        base = case_config(spec, case)
        xs: list[float] = []
        ys: list[float] = []
        for value in spec.sweep.values:
            config = apply_parameter(base, spec.sweep.parameter, value)
            values = evaluate_quantities(config, spec.mc, spec.quantities)
            rows.append([case.name, spec.sweep.parameter, format_number(value)]
                        + _quantity_fields(values, expanded, spec.mc))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                xs.append(float(value))
                ys.append(values[expanded[0]].mean)
        curves[case.name] = (xs, ys)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.name}.csv"
    _write_csv(csv_path, header, rows)
    svg_path = None
    if spec.svg:
        log_x = spec.sweep.parameter in LOG_AXIS_PARAMETERS
        series = [(name, xs, ys) for name, (xs, ys) in curves.items() if xs]
        if series:
            svg_path = out_dir / f"{spec.name}.svg"
            svg_path.write_text(
                line_chart(series, x_label=spec.sweep.parameter,
                           y_label=f"{expanded[0]} (bits)", log_x=log_x,
                           title=spec.name),
                encoding="utf-8", newline="\n")
    return csv_path, svg_path


DOF_QUANTITIES = ("floor", "gap", "lower_bob", "lower_alice", "upper")


def run_dof(spec: ExperimentSpec, out_dir: Path) -> tuple[dict[str, DofResult], Path]:
    """Fit the high-power slope of one quantity per case.

    Needs a 'power_grid' (>= 4 increasing values over >= 3 decades); both
    transmit powers are scaled together by each grid value.  Prints the
    closed-form pre-log next to the fit, plus the window-split table for
    the config's total probing budget.
    """
    if not spec.power_grid:
        raise ValidationError("dof command requires a 'power_grid' list in the spec")
    quantity_name = next((q for q in spec.quantities if q in DOF_QUANTITIES), None)
    if quantity_name is None:
        raise ValidationError(
            f"dof needs one quantity from {DOF_QUANTITIES}, got {spec.quantities}")

    def make_evaluator(name):
        def evaluator(config: ProbingConfig) -> Estimate:
            return evaluate_quantities(config, spec.mc, [name])[name]
        return evaluator

    results: dict[str, DofResult] = {}
    rows = []
    for case in spec.cases:
        config = case_config(spec, case)
        result = dof_slope(make_evaluator(quantity_name), config, spec.power_grid)
        results[case.name] = result
        for p, mean, stderr in zip(result.p_grid, result.means, result.stderrs):
            rows.append([case.name, quantity_name, format_number(p),
                         format_number(math.log2(p)),
                         format_number(mean), format_number(stderr),
                         str(spec.mc.trials), str(spec.mc.master_seed)])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.name}-dof.csv"
    _write_csv(csv_path, ["case", "quantity", "p", "log2_p", "mean", "stderr",
                          "trials", "seed"], rows)
    return results, csv_path


def run_verify(path_or_name: str, mc_overrides: Mapping,
               out_dir: Path, mutation_control: bool = False
               ) -> tuple[VerificationSummary, Path]:
    """Run the verification suite from a config-set file.

    The file holds 'configs' (list of scenario mappings) plus optional 'mc'
    and 'identity_realizations'.  A JSON report is always written; the
    mutation-control flag corrupts the closed-form pilot MI so the suite
    must fail (negative control for the oracle itself).
    """
    text, name = read_spec_text(path_or_name)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path_or_name}: {exc}") from exc
    if not isinstance(raw, Mapping) or "configs" not in raw:
        raise ParseError(f"{path_or_name} must be a mapping with a 'configs' list")
    _reject_unknown(raw, _VERIFY_KEYS, f"the top level of {path_or_name}")
    configs = [config_from_mapping(entry) for entry in raw["configs"]]
    mc_raw = dict(_mc_section(raw))
    mc_raw.update({k: v for k, v in mc_overrides.items() if v is not None})
    mc = McSettings(trials=_mc_int(mc_raw, "trials", 2000),
                    master_seed=_mc_int(mc_raw, "seed", 1))
    realizations = _strict_int(raw.get("identity_realizations", 300),
                               "identity_realizations")
    summary = run_suite(configs, mc, identity_realizations=realizations,
                        corrupt_pilot_mi=mutation_control)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "verify-report.json"
    payload = {
        "suite": name,
        "passed": summary.passed,
        "checks": [
            {
                "name": o.check_name,
                "reference": o.reference_value,
                "computed": o.computed_value,
                "tolerance": o.tolerance,
                "passed": o.passed,
                "detail": o.detail,
            }
            for o in summary.outcomes
        ],
    }
    report_path.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8", newline="\n")
    return summary, report_path
