"""Import budget and the attribute names the benchmark and the README rely on.

Only the quadrature oracles of `verify` load scipy, and only `verify` (or a
verify name taken from the package) loads the verification suite.  Nothing
loads numpy.polynomial: the closed-form Wishart means of `capacity` use
numpy's core only.  Each case runs in a fresh interpreter, so modules
imported by earlier tests in the same pytest process cannot hide or fake an
import.
"""

import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skcprobe.capacity import CV_MIN_TRIALS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
VERIFY = "skcprobe.verify"

# runs the given statement, then prints the loaded scipy and numpy.polynomial
# modules and the verification suite, if loaded, as JSON on the last line of
# stdout
PROBE = """
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "%s"
                        or m.split(".")[:2] == ["numpy", "polynomial"])))
""" % VERIFY


def loaded_modules(statement: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_scipy(statement: str) -> list[str]:
    return [m for m in loaded_modules(statement) if m != VERIFY]


def cli_statement(argv: list[str]) -> str:
    return (f"from skcprobe.cli import main\n"
            f"assert main({argv!r}) == 0")


@pytest.fixture(scope="module")
def cli_probes(tmp_path_factory):
    """(output directory, {case: modules loaded}) of a fresh interpreter
    that imports the package or runs one of eval, sweep and dof."""
    out = tmp_path_factory.mktemp("cli")
    # enough trials for the control variates, so that every run evaluates
    # the closed-form means of the floor's controls
    trials = str(CV_MIN_TRIALS)
    cases = {
        "import": "import skcprobe, skcprobe.cli",
        "eval": cli_statement(["eval", "--config", "oneway", "--trials", trials,
                               "--out", str(out)]),
        "sweep": cli_statement(["sweep", "--config", "fig1", "--trials", trials,
                                "--out", str(out)]),
        "dof": cli_statement(["dof", "--config", "fig2", "--trials", trials,
                              "--out", str(out)]),
    }
    return out, {name: loaded_modules(statement) for name, statement in cases.items()}


def test_only_the_quadrature_oracle_loads_scipy(cli_probes):
    out, loaded = cli_probes
    for name, modules in loaded.items():
        assert [m for m in modules if m != VERIFY] == [], \
            f"{name} loaded scipy or numpy.polynomial"
    for name in ("oneway.csv", "fig1.csv", "fig2-dof.csv"):
        assert (out / name).exists()

    # the oracle itself still imports scipy on first use and keeps its value
    # (e * E1(1) / ln 2, 30-digit mpmath, frozen)
    modules = loaded_scipy(
        "from skcprobe import siso_ergodic_capacity\n"
        "value = siso_ergodic_capacity(1.0)\n"
        "assert abs(value - 0.86034738227088595) <= 1e-10, value")
    assert "scipy.integrate" in modules and "scipy.special" in modules


def test_eval_sweep_dof_do_not_load_the_verify_suite(cli_probes):
    _, loaded = cli_probes
    for name, modules in loaded.items():
        assert VERIFY not in modules, f"{name} loaded the verification suite"
    # the package still exports the suite's names, loading it on first use
    modules = loaded_modules(
        "from skcprobe import run_suite, VerificationSummary\n"
        "import skcprobe, skcprobe.experiments\n"
        "assert run_suite.__module__ == 'skcprobe.verify'\n"
        "assert {'run_suite', 'VerificationSummary'} <= set(skcprobe.__all__)\n"
        "assert callable(skcprobe.experiments.run_suite)")
    assert modules == [VERIFY]


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py loaded as a module, registered for the test only
    (its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the benchmark tracer wraps each (module, attribute) at install and
    # fails there if one is gone; loading launch.py only defines names
    launch = _perfbench_module("launch", monkeypatch)
    targets = [t for places in launch.TRACE_TARGETS.values() for t in places]
    assert ("skcprobe.numerics", "RngStream.generator") in targets
    for module, attribute in targets:
        obj = functools.reduce(getattr, attribute.split("."),
                               importlib.import_module(module))
        assert callable(obj), f"{module}.{attribute}"


# the workloads perfbench/run.py runs (test_benchmark_traced_integrands_are_called
# checks that this is all of them)
BENCHMARK_WORKLOADS = ("oneway-bounds", "twoway-bounds", "fig1-floor-sweep", "verify-default")


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_traced_integrands_are_called(workload, monkeypatch, tmp_path):
    # a span that a traced run never enters has no per-call time, and
    # `perfbench/run.py --trace 1` then reports correct: false; so each
    # span that a workload's layers divide by its call count is called
    # when that workload's command runs, here at a few trials (verify at its
    # own, whatever the suite's verdict), counted at the places the tracer
    # wraps
    from skcprobe.cli import main
    run = _perfbench_module("run", monkeypatch)
    launch = _perfbench_module("launch", monkeypatch)
    assert set(run.WORKLOADS) == set(BENCHMARK_WORKLOADS)
    wl = run.WORKLOADS[workload]
    spans = {m.group(1) for layer in wl.layers
             if (m := re.fullmatch(r"(\w+\.\w+)\.(?:self_)?us_per_call", layer))}
    assert "capacity.secrecy_floor_sample" in spans
    calls = dict.fromkeys(spans, 0)

    def counting(span, real):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return real(*args, **kwargs)
        return wrapper

    for span in spans:
        for module, attribute in launch.TRACE_TARGETS[span]:
            *path, leaf = attribute.split(".")
            owner = functools.reduce(getattr, path, importlib.import_module(module))
            monkeypatch.setattr(owner, leaf, counting(span, getattr(owner, leaf)))
    monkeypatch.chdir(ROOT)
    trials = () if workload == "verify-default" else ("--trials", "60")
    status = main([*wl.command, *trials, "--out", str(tmp_path)])
    if workload != "verify-default":
        assert status == 0
    assert all(calls.values()), calls


@pytest.mark.parametrize("workload", ["oneway-bounds", "fig1-floor-sweep"])
def test_traced_launch_gives_every_listed_layer_a_finite_value(workload, monkeypatch, tmp_path):
    # a per-layer metric that reads NaN makes the last line of a traced
    # `perfbench/run.py --trace 1` run non-strict JSON (a bare NaN), and
    # run.py drops it and reports correct: false; so a traced launch of the
    # workload's command, here at 60 trials, turned into metrics by run.py's
    # own layer_metrics, gives each per-layer metric that BENCHMARK.json
    # lists for the workload a finite value.  trace_overhead_s compares the
    # wall times of traced and untraced processes, so no one sidecar holds it
    run = _perfbench_module("run", monkeypatch)
    wl = dataclasses.replace(run.WORKLOADS[workload], trials=60)
    sidecar = tmp_path / "sidecar.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(sidecar), "1",
         *wl.command, "--trials", str(wl.trials), "--out", str(tmp_path)],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(sidecar.read_text(encoding="utf-8"))
    marks = payload["marks"]
    inv = run.Invocation(wall_s=marks["end"] - marks["start"], setup_s=math.nan,
                         import_s=marks["imported"] - marks["start"], rss_mb=math.nan,
                         out=tmp_path, sidecar=payload, problems=[])
    metrics, _ = run.layer_metrics(inv, run.realizations(wl, tmp_path, wl.values(tmp_path)))
    listed = [m["name"].split(".", 1)[1]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if m["name"].startswith(f"{workload}.")]
    assert "capacity.secrecy_floor_sample.calls_per_trial" in listed
    values = {m: metrics[m] for m in listed if m != "trace_overhead_s"}
    assert [m for m, v in values.items() if not math.isfinite(v)] == []
    json.dumps(values, allow_nan=False)


def test_readme_names_resolve():
    # every `sk.<name>` the README shows (it imports skcprobe as sk) exists;
    # the names are resolved, not called, since some README lines are slow
    import skcprobe
    names = sorted(set(re.findall(r"\bsk\.(\w+(?:\.\w+)*)",
                                  (ROOT / "README.md").read_text())))
    assert "evaluate" in names and "capacity.QUANTITIES" in names
    missing = []
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), skcprobe)
        except AttributeError:
            missing.append(name)
    assert missing == []
