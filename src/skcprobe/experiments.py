"""Experiment specs, sweeps, and deterministic CSV/SVG emission.

A spec is a single YAML file: a base scenario, optional named cases (config
overrides, one curve each), an optional one-parameter sweep, Monte Carlo
settings, and the list of quantities to report.  All numeric CSV fields are
written with 12 significant digits and '.' as the decimal separator, so a
given spec and seed always produce byte-identical output.  Every mapping
in a spec is checked for unknown keys, so a misspelt key is an error
rather than a silent default.  A spec is resolved once, at load: each case
holds its validated ProbingConfig.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import yaml

from . import capacity
from .capacity import DofResult, Estimate, checked_power_grid, dof_slope, evaluate_many
from .channel import ProbingConfig
from .errors import GridTooSmall, ParseError, ValidationError
from .montecarlo import McSettings
from .svgplot import line_chart

if TYPE_CHECKING:
    from .verify import VerificationSummary

SWEEP_PARAMETERS = ("noise_ea", "noise_eb", "power_a", "power_b",
                    "rho", "v_a", "v_b", "n_e")
LOG_AXIS_PARAMETERS = ("noise_ea", "noise_eb", "power_a", "power_b")

# 'bounds' is shorthand for the reported lower bound (the larger side bound)
# and the upper bound; a spec names 'lower' only through it
BOUNDS_COLUMNS = ("lower", "upper")
QUANTITIES = tuple(q for q in capacity.QUANTITIES if q != "lower") + ("bounds",)

CONFIG_KEYS = ("n_a", "n_b", "n_e", "v_a", "v_b", "phi_a", "phi_b",
               "power_a", "power_b", "noise_a", "noise_b",
               "noise_ea", "noise_eb", "rho")
INT_CONFIG_KEYS = ("n_a", "n_b", "n_e", "v_a", "v_b", "phi_a", "phi_b")
REQUIRED_CONFIG_KEYS = ("n_a", "n_b", "n_e")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class CaseSpec:
    name: str
    config: ProbingConfig


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: ProbingConfig
    mc: McSettings
    quantities: tuple[str, ...]
    cases: tuple[CaseSpec, ...]
    sweep: SweepSpec | None = None
    svg: bool = False
    power_grid: tuple[float, ...] = ()


def _integer(value, what: str) -> int:
    """The integer rule of every spec value: an int, and a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """The number rule of every spec value: an int or a float, not a bool."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _parse_rho(value) -> complex:
    """rho as a number, an 'a+bj' string or [re, im]; a complex is taken as
    parsed."""
    if isinstance(value, complex):
        return value
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"rho not parseable as complex: {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], "rho[0]"), _number(value[1], "rho[1]"))
    return complex(_number(value, "rho"))


def _config_value(key: str, value):
    """One config value under its key's rule."""
    if key == "rho":
        return _parse_rho(value)
    if key in INT_CONFIG_KEYS:
        return _integer(value, key)
    return _number(value, key)


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
    return ProbingConfig(**{key: _config_value(key, value) for key, value in mapping.items()})


def apply_parameter(config: ProbingConfig, parameter: str, value) -> ProbingConfig:
    """Set one sweepable parameter on a config."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValidationError(
            f"unsupported sweep parameter {parameter!r}; supported: {SWEEP_PARAMETERS}")
    return dataclasses.replace(config, **{parameter: _config_value(parameter, value)})


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


class _SpecLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's parser where PyYAML has it (it
    feeds the same safe constructor as the pure-Python loader, so a spec
    parses to the same objects), plus YAML 1.2's floats in exponent
    notation: YAML 1.1 reads 1e5, 1.0e5 and 1e-4 as strings, as it needs a
    dot and a signed exponent (1.0e+5)."""


# tried after YAML 1.1's own int and float rules, so it only adds numbers
_SpecLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))
_YAML_LOADER = _SpecLoader


def _parse_yaml(text: str, path_or_name: str):
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path_or_name}: {exc}") from exc


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


def _list_section(raw: Mapping, key: str, default: list) -> list:
    value = raw.get(key)
    if value is None:
        return default
    if not isinstance(value, list):
        raise ValidationError(f"'{key}' must be a list, got {value!r}")
    return value


def _mc_settings(raw: Mapping, seed_override: int | None, trials_override: int | None,
                 default_trials: int) -> McSettings:
    """The 'mc' section of a spec or verify set, under the --seed and
    --trials overrides where given."""
    mc_raw = raw.get("mc", {}) or {}
    if not isinstance(mc_raw, Mapping):
        raise ParseError("'mc' section must be a mapping")
    _reject_unknown(mc_raw, _MC_KEYS, "'mc'")
    trials = trials_override if trials_override is not None else \
        _integer(mc_raw.get("trials", default_trials), "mc.trials")
    seed = seed_override if seed_override is not None else \
        _integer(mc_raw.get("seed", 1), "mc.seed")
    return McSettings(trials=trials, master_seed=seed)


def _file_stem(name: str) -> str:
    """A spec name names its output files, so it must be a plain file stem."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError(
            f"'name' must be a plain file stem (not '', '.' or '..', and without "
            f"'/', '\\' or NUL), got {name!r}")
    return name


def _case_name(name) -> str:
    """A case name is written unquoted into the CSV's 'case' column."""
    if not isinstance(name, str) or any(c in name for c in ',"\r\n'):
        raise ValidationError(
            f"a case 'name' must be a string without ',', '\"', CR or LF, got {name!r}")
    return name


def _check_out_dir(out_dir: Path) -> None:
    """The output directory (--out) must be a directory or a path that can
    become one: neither an existing file nor a path under one.  Every run_*
    function checks it before any Monte Carlo pass."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"--out must be a directory, but {str(path)!r} "
                                      f"is an existing file (--out {str(out_dir)!r})")
            return


def _sweep_section(raw: Mapping, base: ProbingConfig) -> SweepSpec | None:
    sweep_raw = raw.get("sweep")
    if sweep_raw is None:
        return None
    if not isinstance(sweep_raw, Mapping) or \
            "parameter" not in sweep_raw or "values" not in sweep_raw:
        raise ParseError("'sweep' needs 'parameter' and 'values'")
    _reject_unknown(sweep_raw, _SWEEP_KEYS, "'sweep'")
    parameter, values = sweep_raw["parameter"], sweep_raw["values"]
    if not isinstance(values, list):
        raise ValidationError(f"'sweep.values' must be a list, got {values!r}")
    if not values:
        raise ValidationError("sweep values must be nonempty")
    for v in values:
        apply_parameter(base, parameter, v)  # type/validity check
    if parameter == "rho":
        # an [re, im] pair is written out as the complex it parses to
        values = [_parse_rho(v) if isinstance(v, list) else v for v in values]
    return SweepSpec(parameter=str(parameter), values=tuple(values))


def _cases_section(raw: Mapping, base: ProbingConfig) -> tuple[CaseSpec, ...]:
    """Each case's config: the spec's 'config' mapping as written, updated by
    the case's overrides, so that a pilot length left unset follows the
    case's own antenna counts."""
    entries = _list_section(raw, "cases", [])
    if not entries:
        return (CaseSpec("base", base),)
    cases: list[CaseSpec] = []
    for entry in entries:
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise ParseError("each case needs a 'name'")
        name = _case_name(entry["name"])
        _reject_unknown(entry, _CASE_KEYS, f"case {name!r}")
        overrides = entry.get("overrides", {}) or {}
        if not isinstance(overrides, Mapping):
            raise ValidationError(
                f"overrides of case {name!r} must be a mapping, got {overrides!r}")
        if any(case.name == name for case in cases):
            raise ValidationError(f"duplicate case name {name!r}: case names "
                                  "key the output rows and curves")
        cases.append(CaseSpec(name, config_from_mapping({**raw["config"], **overrides})))
    return tuple(cases)


def load_spec(path_or_name: str, seed_override: int | None = None,
              trials_override: int | None = None) -> ExperimentSpec:
    """Load and validate an experiment spec.

    Defaults: 10^4 trials, seed 1, quantities ['bounds'], a single 'base'
    case, no sweep, no SVG.  ParseError covers missing files and YAML-level
    problems; ValidationError names the violated rule.
    """
    text, default_name = read_spec_text(path_or_name)
    raw = _parse_yaml(text, path_or_name)
    if not isinstance(raw, Mapping):
        raise ParseError(f"top level of {path_or_name} must be a mapping")
    _reject_unknown(raw, _SPEC_KEYS, f"the top level of {path_or_name}")
    if "config" not in raw:
        raise ParseError(f"{path_or_name} has no 'config' section")

    base = config_from_mapping(raw["config"])
    name = _file_stem(str(raw.get("name", default_name)))
    mc = _mc_settings(raw, seed_override, trials_override, 10_000)

    quantities = tuple(_list_section(raw, "quantities", ["bounds"]))
    if not quantities:
        raise ValidationError("quantities must be nonempty")
    for q in quantities:
        if q not in QUANTITIES:
            raise ValidationError(f"unknown quantity {q!r}; supported: {QUANTITIES}")

    sweep = _sweep_section(raw, base)
    cases = _cases_section(raw, base)

    grid = [_number(p, "'power_grid' entries") for p in _list_section(raw, "power_grid", [])]
    try:
        power_grid = checked_power_grid(grid) if grid else ()
    except GridTooSmall as exc:
        raise ValidationError(f"'power_grid': {exc}") from exc

    svg = raw.get("svg", False)
    if not isinstance(svg, bool):
        raise ValidationError(f"'svg' must be true or false, got {svg!r}")
    if svg and sweep is not None and sweep.parameter in LOG_AXIS_PARAMETERS:
        for v in sweep.values:
            if not v > 0:
                raise ValidationError(
                    f"'sweep.values': the SVG plots {sweep.parameter} on a log axis, "
                    f"which needs positive values, got {v!r}")

    return ExperimentSpec(name=name, base=base, mc=mc, quantities=quantities,
                          cases=cases, sweep=sweep, svg=svg, power_grid=power_grid)


def format_number(x) -> str:
    """Fixed 12-significant-digit, locale-independent numeric formatting."""
    if isinstance(x, str):
        return x
    if isinstance(x, complex):
        if x.imag == 0:
            return f"{x.real:.12g}"
        return f"{x.real:.12g}{x.imag:+.12g}j"
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


def evaluate_quantities(configs: Sequence[ProbingConfig], mc: McSettings,
                        quantities: Sequence[str],
                        labels: Sequence[str] | None = None) -> list[dict[str, Estimate]]:
    """Evaluate the spec quantities, 'bounds' expanded, at every config; the
    configs with identical draws share one pass (see evaluate_many)."""
    return evaluate_many(configs, mc, expand_quantities(quantities), labels)


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
    _check_out_dir(out_dir)
    expanded = expand_quantities(spec.quantities)
    (values,) = evaluate_quantities([spec.base], spec.mc, spec.quantities)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.name}.csv"
    _write_csv(csv_path, _quantity_header(expanded),
               [_quantity_fields(values, expanded, spec.mc)])
    return values, csv_path


def run_sweep(spec: ExperimentSpec, out_dir: Path) -> tuple[Path, Path | None]:
    """One CSV row per (case, swept value); common draws across rows, and
    one Monte Carlo pass per case unless the sweep changes the draws (n_e
    or rho).

    The optional SVG plots the first requested quantity, one polyline per
    case, with a log x-axis for power and noise sweeps.  A point whose mean
    is not finite (lower_alice is -inf with a noiseless Eve) is in the CSV
    but not in the chart.
    """
    if spec.sweep is None:
        raise ValidationError("sweep command requires a 'sweep' section")
    _check_out_dir(out_dir)
    expanded = expand_quantities(spec.quantities)
    header = ["case", "sweep_param", "sweep_value"] + _quantity_header(expanded)
    rows = []
    curves: dict[str, tuple[list[float], list[float]]] = {}
    parameter = spec.sweep.parameter
    for case in spec.cases:
        xs: list[float] = []
        ys: list[float] = []
        configs = [apply_parameter(case.config, parameter, value)
                   for value in spec.sweep.values]
        labels = [f"case {case.name!r}, {parameter} = {format_number(value)}"
                  for value in spec.sweep.values]
        points = evaluate_quantities(configs, spec.mc, spec.quantities, labels)
        for value, values in zip(spec.sweep.values, points):
            rows.append([case.name, parameter, format_number(value)]
                        + _quantity_fields(values, expanded, spec.mc))
            y = values[expanded[0]].mean
            if isinstance(value, (int, float)) and math.isfinite(y):
                xs.append(float(value))
                ys.append(y)
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


# the Monte Carlo quantities a spec can name
DOF_QUANTITIES = tuple(q for q in QUANTITIES if q not in ("pilot_mi", "bounds"))


def run_dof(spec: ExperimentSpec, out_dir: Path) -> tuple[dict[str, DofResult], Path]:
    """Fit the high-power slope of one quantity per case.

    Needs a 'power_grid' (>= 4 increasing values over >= 3 decades); both
    transmit powers are scaled together by each grid value.  Prints the
    closed-form pre-log next to the fit, plus the window-split table for
    the config's total probing budget.  Each case's grid takes one Monte
    Carlo pass.  lower_alice is refused, before any pass, for a case where
    it is -inf.
    """
    if not spec.power_grid:
        raise ValidationError("dof command requires a 'power_grid' list in the spec")
    quantity_name = next((q for q in spec.quantities if q in DOF_QUANTITIES), None)
    if quantity_name is None:
        raise ValidationError(
            f"dof needs one quantity from {DOF_QUANTITIES}, got {spec.quantities}")
    for case in spec.cases:
        # the power grid scales neither noise_ea nor v_a, so such a case is
        # -inf at every grid point
        if quantity_name == "lower_alice" and capacity._alice_bound_diverges(case.config):
            raise ValidationError(
                f"case {case.name!r}: dof of lower_alice needs noise_ea > 0 or v_a = 0 "
                "(the Alice-side bound is -inf where Eve hears Alice noiselessly)")
    _check_out_dir(out_dir)

    def evaluator(case: CaseSpec):
        labels = [f"case {case.name!r}, power {format_number(p)}" for p in spec.power_grid]
        return lambda configs: [
            values[quantity_name] for values in
            evaluate_quantities(configs, spec.mc, [quantity_name], labels)]

    results: dict[str, DofResult] = {}
    rows = []
    for case in spec.cases:
        result = dof_slope(evaluator(case), case.config, spec.power_grid)
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


def run_suite(*args, **kwargs) -> VerificationSummary:
    """verify.run_suite, imported on the first call, so that eval, sweep
    and dof never load the verification suite."""
    from .verify import run_suite as suite
    return suite(*args, **kwargs)


def run_verify(path_or_name: str, out_dir: Path, seed_override: int | None = None,
               trials_override: int | None = None, mutation_control: bool = False
               ) -> tuple[VerificationSummary, Path]:
    """Run the verification suite from a config-set file.

    The file holds 'configs' (list of scenario mappings) plus optional
    'name' (the report's 'suite', by default the file stem, under a spec
    name's rule), 'mc' and 'identity_realizations'; the overrides work as in
    load_spec.  A JSON report is always written; the mutation-control flag
    corrupts the closed-form pilot MI so the suite must fail (negative
    control for the oracle itself).
    """
    _check_out_dir(out_dir)
    text, default_name = read_spec_text(path_or_name)
    raw = _parse_yaml(text, path_or_name)
    if not isinstance(raw, Mapping) or "configs" not in raw:
        raise ParseError(f"{path_or_name} must be a mapping with a 'configs' list")
    _reject_unknown(raw, _VERIFY_KEYS, f"the top level of {path_or_name}")
    name = _file_stem(str(raw.get("name", default_name)))
    configs = [config_from_mapping(entry) for entry in _list_section(raw, "configs", [])]
    mc = _mc_settings(raw, seed_override, trials_override, 2000)
    realizations = _integer(raw.get("identity_realizations", 300), "identity_realizations")
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
