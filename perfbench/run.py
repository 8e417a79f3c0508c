"""End-to-end and per-layer benchmark of the skcprobe CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is not installed, so
every CLI process gets PYTHONPATH=src.  The BLAS/OpenMP thread variables are
pinned to 1 in every child, and recorded in the manifest line, so that two
commits are compared under identical settings.

Workloads (each a closed loop: one CLI process at a time, the next one
launched when the previous has exited):

* oneway-bounds     `eval --config oneway`: every quantity on shared draws,
                    4x2 antennas.  Per-trial Python overhead, channel
                    sampling and the capacity integrands dominate; the
                    Alice-side bound re-samples every channel.
* twoway-bounds     `eval` on perfbench/twoway.yaml: v_a, v_b > 0, rho != 0,
                    (6, 4, 5) antennas.  The only workload where the gap and
                    both sides' probe terms run through the Monte Carlo engine.
* fig1-floor-sweep  `sweep --config fig1 --threads 2`: 39 single-quantity
                    runs through the standalone floor path, the thread pool,
                    per-point summaries and CSV/SVG output.  Bypasses the
                    shared-draw report.
* verify-default    `verify --config verify-default` at the spec's own seed:
                    the per-sample reference forms, the covariance oracle,
                    the pilot MMSE check and quadrature.  Bypasses the Monte
                    Carlo engine.

BENCHMARK.json lists oneway-bounds and fig1-floor-sweep, so that each gets a
long run; twoway-bounds and verify-default are measured per layer by every
traced run and can be run end to end by hand.

With --trace 0 the run first launches the workload's command once untimed
(warm-up, and the bytes the first timed process must repeat), then again and
again for --seconds seconds, each time with the next Monte Carlo seed derived
from --seed (except verify-default), starting a process only while a typical
one still ends inside the window.

The shared host runs each vCPU at full speed or up to about half of it, in
spells of seconds to minutes, each vCPU on its own.  A run therefore keeps
itself and every process it starts on one CPU (the last allowed one; the
sweep's two threads share it) and times a fixed numpy calibration loop on
that CPU before and after each timed process.  Each process's times are
scaled by CAL_REF_S over the mean of its two calibration samples: they are
reported at a fixed CPU speed.  The output prints the measured medians beside
the scaled ones.  The run reports medians of the end-to-end metrics:

* wall_s            launch to exit of the CLI process
* setup_s           launch until skcprobe.cli is imported and the spec is
                    loaded and validated
* trials_per_s      channel realizations the spec asks for / (wall - setup)
* time_to_stderr_s  (wall - setup) * (stderr / target)^2 on the workload's
                    headline quantity: the time to reach a fixed accuracy
* peak_rss_mb       the child's ru_maxrss

Every output is checked (identities, finiteness, the verify suite, a
statistical comparison against reference.json, byte-identical repeats), and
failed/attempted counts every CLI process whose exit code or output check
failed.

With --trace 1 the run traces every workload, whatever --workload names, so
that each per-layer metric is read on the workload it belongs to and every
traced run reports the same metrics.  Each round launches each workload once
untraced and once traced (see launch.py); rounds repeat for --seconds
seconds, at least twice.  Call counts must repeat exactly across rounds.
Once per traced run, verify --mutation-control must exit 5: a negative
control that stops failing means the oracle is broken.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

CHILD_TIMEOUT_S = 60.0
MIN_INVOCATIONS = 3
MIN_TRACE_ROUNDS = 2
# Monte Carlo seeds of benchmark runs start here; reference.json is taken at
# a seed below it, so a run never reproduces the reference draws
SEED_BASE = 1 << 40
# a run's mean may differ from the reference mean by this many combined
# standard errors
REFERENCE_SIGMAS = 6.0
EXACT_RTOL = 1e-9
# loop iterations of one calibration sample: 0.6-1 s on the reference host,
# depending on how fast the host runs its CPUs at the time
CAL_ITERATIONS = 12000
# about the median calibration sample on the reference host (2-vCPU VM,
# Python 3.11, numpy 2.4): the CPU speed the end-to-end times are scaled to
CAL_REF_S = 0.8

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds this process's CPU takes for a fixed piece of work of the
    CLI's kind: Philox generators, small complex products and Cholesky
    factorizations, and the Python loop around them.  It calls numpy only,
    never skcprobe, so no change to the program moves it."""
    acc = 0.0
    t0 = clock()
    for i in range(CAL_ITERATIONS):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        m = h @ h.conj().T + np.eye(4)
        chol = np.linalg.cholesky((m + m.conj().T) / 2.0)
        acc += float(np.sum(np.log2(np.real(np.diag(chol)))))
    elapsed = clock() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration produced a non-finite value")
    return elapsed


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKCPROBE_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = "src"
    return env


# --------------------------------------------------------------------------
# outputs of one CLI process

def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def eval_values(out: Path, name: str) -> dict[str, tuple[float, float]]:
    (row,) = read_csv(out / f"{name}.csv")
    return {col[:-5]: (float(row[col]), float(row[col[:-5] + "_stderr"]))
            for col in row if col.endswith("_mean")}


def sweep_values(out: Path, name: str) -> dict[str, tuple[float, float]]:
    return {f"{row['case']}@{row['sweep_value']}": (float(row["floor_mean"]),
                                                    float(row["floor_stderr"]))
            for row in read_csv(out / f"{name}.csv")}


def verify_report(out: Path) -> dict:
    return json.loads((out / "verify-report.json").read_text(encoding="utf-8"))


def verify_values(out: Path) -> dict[str, tuple[float, float]]:
    values = {}
    for check in verify_report(out)["checks"]:
        name = check["name"]
        if name.startswith("scalar-capacity"):
            # the suite's tolerance is 3 standard errors
            values[name] = (check["computed"], check["tolerance"] / 3.0)
        elif name.endswith("pilot-mi-exact"):
            values[name] = (check["computed"], 0.0)
    return values


def all_finite(values: dict[str, tuple[float, float]]) -> list[str]:
    return [f"{k} is not finite: {v}" for k, v in values.items()
            if not all(math.isfinite(x) for x in v)]


def check_oneway(out: Path, values) -> list[str]:
    problems = all_finite(values)
    if values["lower"][0] != values["upper"][0]:
        problems.append(f"lower_mean {values['lower'][0]} != upper_mean {values['upper'][0]}")
    if values["gap"][0] != 0.0:
        problems.append(f"gap_mean {values['gap'][0]} is not exactly 0")
    return problems


def check_twoway(out: Path, values) -> list[str]:
    problems = all_finite(values)
    gap, upper, bob = values["gap"][0], values["upper"][0], values["lower_bob"][0]
    if gap < 0:
        problems.append(f"gap_mean {gap} < 0")
    # the CSV holds 12 significant digits
    if abs(upper - (bob + gap)) > 1e-10 * max(1.0, abs(upper)):
        problems.append(f"upper_mean {upper} != lower_bob_mean + gap_mean {bob + gap}")
    return problems


def check_sweep(out: Path, values) -> list[str]:
    problems = all_finite(values)
    problems += [f"floor_mean at {k} is {m}, not > 0" for k, (m, _) in values.items()
                 if not m > 0]
    if not (out / "fig1.svg").is_file():
        problems.append("fig1.svg was not written")
    return problems


def check_verify(out: Path, values) -> list[str]:
    report = verify_report(out)
    problems = [f"verify check {c['name']} FAILED" for c in report["checks"]
                if not c["passed"]]
    if not report["passed"]:
        problems.append("verify report says the suite failed")
    return problems + all_finite(values)


# --------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    trials: int
    spec: str                 # spec file, relative to the root
    outputs: tuple[str, ...]  # files whose bytes must repeat at one seed
    values: object            # (out dir) -> {key: (mean, stderr)}
    check: object             # (out dir, values) -> [problem, ...]
    headline: object          # values -> stderr of the headline quantity
    target_stderr: float      # accuracy that time_to_stderr_s is scaled to
    layers: tuple[str, ...]   # per-layer metrics read on this workload
    # False: run at the spec's own seed instead of seeds derived from --seed
    seeded: bool = True


MC_LAYERS = (
    "channel.sample_channels.calls_per_trial",
    "channel.sample_channels.us_per_call",
    "numerics.rng_generator.us_per_call",
    "numerics.logdet_hermitian_pd.calls_per_trial",
    "numerics.logdet_hermitian_pd.us_per_call",
    "capacity.secrecy_floor_sample.calls_per_trial",
    "capacity.secrecy_floor_sample.self_us_per_call",
    "montecarlo.collect.self_s",
    "montecarlo.summarize.us_per_value",
    "experiments.load_spec.s",
    "experiments.evaluate_quantities.point_s_p50",
    "experiments.io.s",
    "cli.import.s",
    "trace_overhead_s",
)
EVAL_LAYERS = MC_LAYERS + (
    "capacity.lower_bound_bob_sample.self_us_per_call",
    "capacity.lower_bound_alice.s",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="oneway-bounds",
        command=("eval", "--config", "oneway"),
        trials=3000,
        spec="src/skcprobe/configs/oneway.yaml",
        outputs=("oneway.csv",),
        values=lambda out: eval_values(out, "oneway"),
        check=check_oneway,
        headline=lambda v: v["lower"][1],
        target_stderr=0.02,
        layers=EVAL_LAYERS,
    ),
    Workload(
        name="twoway-bounds",
        command=("eval", "--config", "perfbench/twoway.yaml"),
        trials=2000,
        spec="perfbench/twoway.yaml",
        outputs=("twoway.csv",),
        values=lambda out: eval_values(out, "twoway"),
        check=check_twoway,
        headline=lambda v: v["lower"][1],
        target_stderr=0.02,
        layers=EVAL_LAYERS + (
            "capacity.bound_gap_sample.calls_per_trial",
            "capacity.bound_gap_sample.self_us_per_call",
        ),
    ),
    Workload(
        name="fig1-floor-sweep",
        command=("sweep", "--config", "fig1", "--threads", "2"),
        trials=200,
        spec="src/skcprobe/configs/fig1.yaml",
        outputs=("fig1.csv", "fig1.svg"),
        values=lambda out: sweep_values(out, "fig1"),
        check=check_sweep,
        headline=lambda v: max(se for _, se in v.values()),
        target_stderr=0.02,
        layers=MC_LAYERS + (
            "experiments.evaluate_quantities.point_s_p90",
            "svgplot.line_chart.s",
        ),
    ),
    Workload(
        name="verify-default",
        command=("verify", "--config", "verify-default"),
        trials=4000,
        spec="src/skcprobe/configs/verify-default.yaml",
        outputs=("verify-report.json",),
        values=verify_values,
        check=check_verify,
        # the suite's Monte Carlo headline: the scalar ergodic capacity
        headline=lambda v: v["scalar-capacity-snr-10"][1],
        target_stderr=0.01,
        layers=(
            "verify.determinant_identity_suite.s",
            "verify.pilot_estimation_check.s",
            "verify.scalar_capacity_check.s",
            "verify.pilot_mi_check.s",
            "channel.sample_channels.us_per_call",
            "numerics.rng_generator.us_per_call",
            "capacity.secrecy_floor_sample.self_us_per_call",
            "capacity.lower_bound_bob_sample.self_us_per_call",
            "capacity.bound_gap_sample.self_us_per_call",
            "montecarlo.summarize.us_per_value",
            "experiments.io.s",
            "cli.import.s",
            "trace_overhead_s",
        ),
        # The suite runs as shipped, at the spec's seed and trials, which the
        # tier-1 tests assert passes.  Its Monte Carlo checks compare at fixed
        # 3-standard-error tolerances, so at an arbitrary seed one of them
        # fails by chance in about 1% of seeds; fresh seeds would report
        # those false alarms as failures of the program.
        seeded=False,
    ),
)}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "time_to_stderr_s": "s",
    "peak_rss_mb": "MB",
}
# power of the CPU speed factor that scales each metric
SPEED_EXPONENT = {
    "wall_s": 1,
    "setup_s": 1,
    "trials_per_s": -1,
    "time_to_stderr_s": 1,
    "peak_rss_mb": 0,
}


def realizations(wl: Workload, out: Path, values) -> int:
    """Channel realizations the command asks for."""
    if wl.name == "fig1-floor-sweep":
        return wl.trials * len(values)
    if wl.name == "verify-default":
        import yaml  # the spec is YAML; the benchmark reads only this key
        identity = int(yaml.safe_load((ROOT / wl.spec).read_text())
                       .get("identity_realizations", 300))
        names = [c["name"] for c in verify_report(out)["checks"]]
        scalar = sum(n.startswith("scalar-capacity") for n in names)
        configs = sum(n.endswith("pilot-mi-exact") for n in names)
        # scalar-capacity and pilot-MMSE Monte Carlo trials + identity draws
        return (scalar + configs) * wl.trials + configs * identity
    return wl.trials


# --------------------------------------------------------------------------
# one CLI process

@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    import_s: float
    rss_mb: float
    out: Path
    sidecar: dict
    problems: list


def invoke(wl: Workload, seed: int | None, tag: str, trace: bool = False,
           extra: tuple[str, ...] = (), expect_exit: int = 0) -> Invocation:
    """Run the workload's command once; seed None keeps the spec's seed."""
    out = WORK / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sidecar_path = out / "sidecar.json"
    argv = [sys.executable, str(BENCH / "launch.py"), str(sidecar_path),
            "1" if trace else "0", *wl.command, "--trials", str(wl.trials),
            *(("--seed", str(seed)) if seed is not None else ()),
            "--out", str(out), *extra]
    with (out / "stdout.txt").open("wb") as so, (out / "stderr.txt").open("wb") as se:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = clock()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    problems = []
    sidecar = {}
    if code != expect_exit:
        err = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
        problems.append(f"exit code {code}, expected {expect_exit}"
                        + (f": {err[-1]}" if err else ""))
    elif sidecar_path.is_file():
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        sidecar_path.unlink()
    else:
        problems.append("no sidecar written")
    marks = sidecar.get("marks", {})
    return Invocation(
        wall_s=t1 - t0,
        setup_s=marks.get("spec", math.nan) - t0,
        import_s=marks.get("imported", math.nan) - marks.get("start", math.nan),
        rss_mb=usage.ru_maxrss / 1024.0, out=out, sidecar=sidecar,
        problems=problems)


def checked_values(wl: Workload, inv: Invocation, reference: dict):
    """Output values of a successful invocation; problems go to inv.problems."""
    if inv.problems:
        return None
    try:
        values = wl.values(inv.out)
    except (OSError, KeyError, ValueError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")
        return None
    inv.problems += wl.check(inv.out, values)
    inv.problems += compare_reference(values, reference.get(wl.name))
    return values


def compare_reference(values, ref) -> list[str]:
    """Each mean within REFERENCE_SIGMAS combined standard errors of the
    reference, or to EXACT_RTOL where both sides are exact."""
    if ref is None:
        return ["no reference values for this workload"]
    problems = []
    for key, (ref_mean, ref_se) in ref["values"].items():
        if key not in values:
            problems.append(f"{key} missing from the output")
            continue
        mean, se = values[key]
        tol = REFERENCE_SIGMAS * math.hypot(se, ref_se) + EXACT_RTOL * max(1.0, abs(ref_mean))
        if not abs(mean - ref_mean) <= tol:
            problems.append(f"{key} = {mean:.6g} +- {se:.2g}, reference "
                            f"{ref_mean:.6g} +- {ref_se:.2g} (tolerance {tol:.2g})")
    return problems


def same_bytes(a: Invocation, b: Invocation, names) -> list[str]:
    problems = []
    for name in names:
        if (a.out / name).read_bytes() != (b.out / name).read_bytes():
            problems.append(f"{name} differs between {a.out.name} and {b.out.name}")
    return problems


# --------------------------------------------------------------------------
# statistics and reporting

def tail(xs) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    rank = len(xs) - 11
    if rank < 0:
        return None
    pct = 100.0 * rank / (len(xs) - 1)
    return f"p{pct:.0f}", xs[rank]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


MANIFEST_SCRIPT = """
import json, platform
import numpy, scipy
import skcprobe.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def manifest(seed: int, wls) -> dict:
    """What ran.  The child also imports skcprobe, which compiles its
    bytecode before any timed process starts."""
    versions = subprocess.run([sys.executable, "-c", MANIFEST_SCRIPT], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    if versions.returncode != 0:
        raise RuntimeError(f"cannot import skcprobe from src: {versions.stderr.strip()}")
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        **json.loads(versions.stdout),
        "thread_env": {k: child_env()[k] for k in THREAD_ENV},
        "seed": seed,
        "workloads": {wl.name: {"trials": wl.trials, "spec": wl.spec,
                                "spec_sha256": sha256(ROOT / wl.spec)} for wl in wls},
    }


def mutation_control(wl: Workload, seed: int) -> Invocation:
    """Negative control: with a corrupted closed form the suite must fail."""
    return invoke(wl, mc_seed(wl, seed, 0), f"{wl.name}-mutation",
                  extra=("--mutation-control",), expect_exit=5)


def mc_seed(wl: Workload, seed: int, k: int) -> int | None:
    """Monte Carlo seed of the k-th process of a run at benchmark seed `seed`."""
    return SEED_BASE + 1000 * seed + k if wl.seeded else None


# --------------------------------------------------------------------------
# end-to-end run

def run_end_to_end(wl: Workload, seed: int, seconds: float, reference: dict):
    # this process and every child it starts run on one CPU, calibrated
    # before and after each timed process (see the module docstring)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    calibrate()  # warm-up
    # Untimed: the first seed once, which warms the page cache and gives the
    # bytes that the first timed process must repeat; for the sweep it runs
    # with one thread instead of two.
    one_thread = wl.name == "fig1-floor-sweep"
    first = invoke(wl, mc_seed(wl, seed, 0), f"{wl.name}-first",
                   extra=("--threads", "1") if one_thread else ())
    checked_values(wl, first, reference)
    checks = [first]
    if wl.name == "verify-default":
        checks.append(mutation_control(wl, seed))

    runs: list[Invocation] = []
    cal = [calibrate()]
    raw = {name: [] for name in END_TO_END_UNITS}
    samples = {name: [] for name in END_TO_END_UNITS}
    start = clock()
    # a process is started only if a typical one and its calibration still
    # end within the window; mc_seed leaves room for 1000 processes per run
    while len(runs) < MIN_INVOCATIONS or (
            clock() - start + statistics.median(i.wall_s for i in runs)
            + statistics.median(cal) < seconds and len(runs) < 1000):
        inv = invoke(wl, mc_seed(wl, seed, len(runs)), f"{wl.name}-{len(runs)}")
        cal.append(calibrate())
        runs.append(inv)
        values = checked_values(wl, inv, reference)
        if len(runs) == 1 and not (first.problems or inv.problems):
            inv.problems += same_bytes(first, inv, wl.outputs)
        if inv.problems:
            continue
        compute = inv.wall_s - inv.setup_s
        measured = {
            "wall_s": inv.wall_s,
            "setup_s": inv.setup_s,
            "trials_per_s": realizations(wl, inv.out, values) / compute,
            "time_to_stderr_s": compute * (wl.headline(values) / wl.target_stderr) ** 2,
            "peak_rss_mb": inv.rss_mb,
        }
        speed = CAL_REF_S / ((cal[-2] + cal[-1]) / 2.0)
        for name, value in measured.items():
            raw[name].append(value)
            samples[name].append(value * speed ** SPEED_EXPONENT[name])
    measured_s = clock() - start
    at = f"seed {mc_seed(wl, seed, 0)}" if wl.seeded else "the spec's seed"
    if one_thread:
        print(f"  at {at}: --threads 1 wall {first.wall_s:.3f} s, setup {first.setup_s:.3f} s; "
              f"--threads 2 wall {runs[0].wall_s:.3f} s, setup {runs[0].setup_s:.3f} s")

    everything = runs + checks
    failed = [inv for inv in everything if inv.problems]
    for inv in failed:
        for problem in inv.problems:
            print(f"  FAILED {inv.out.name}: {problem}")
    seeds = f"seeds {mc_seed(wl, seed, 0)}..{mc_seed(wl, seed, len(runs) - 1)}" \
        if wl.seeded else "the spec's seed"
    print(f"workload {wl.name}: {len(runs)} timed processes in {measured_s:.1f} s, "
          f"{len(checks)} check processes, Monte Carlo {seeds}, {wl.trials} trials")
    if not runs[0].problems:
        for name in wl.outputs:
            print(f"  {name} sha256 at {at}: {sha256(runs[0].out / name)}")
    print(f"  failed_ratio {len(failed)}/{len(everything)} = "
          f"{len(failed) / len(everything):.3f}")
    print(f"  calibration on CPU {cpu}: median {statistics.median(cal):.4f} s, "
          f"reference {CAL_REF_S} s (n={len(cal)})")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        xs = samples[name]
        if not xs:
            continue
        metrics[name] = {"value": statistics.median(xs), "unit": unit}
        line = (f"  {name:<17} median {statistics.median(xs):.6g} {unit} at the reference "
                f"speed, {statistics.median(raw[name]):.6g} {unit} measured  (n={len(xs)}")
        if name in ("wall_s", "setup_s") and tail(xs):
            label, value = tail(xs)
            line += f", {label} {value:.6g} {unit} at the reference speed"
        print(line + ")")
    return metrics, len(everything), len(failed)


# --------------------------------------------------------------------------
# traced run

@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


def span_stats(names: list[str], spans: list[list]):
    """Per-name call counts, total and self time, and item counts.

    Self time is a span's duration minus the part of it that its child spans
    cover; with the thread pool, children may overlap each other.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name_idx, parent, t0, t1, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    stats: dict[str, SpanStats] = {}
    durations: dict[str, list[float]] = {}
    for idx, (name_idx, _, t0, t1, items) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        st = stats.setdefault(names[name_idx], SpanStats())
        st.calls += 1
        st.total_s += t1 - t0
        st.self_s += (t1 - t0) - covered
        st.items += items
        durations.setdefault(names[name_idx], []).append(t1 - t0)
    return stats, durations


def layer_metrics(inv: Invocation, trials: int):
    """Per-layer metrics of one traced process, and its call count per span."""
    stats, durations = span_stats(inv.sidecar["names"], inv.sidecar["spans"])

    def st(name):
        return stats.get(name, SpanStats())

    def per_call_us(name, attr="total_s"):
        s = st(name)
        return 1e6 * getattr(s, attr) / s.calls if s.calls else math.nan

    points = sorted(durations.get("experiments.evaluate_quantities", [math.nan]))
    out = {
        "montecarlo.collect.self_s": st("montecarlo.collect").self_s,
        "montecarlo.summarize.us_per_value":
            1e6 * st("montecarlo.summarize").total_s / max(1, st("montecarlo.summarize").items),
        "experiments.load_spec.s": st("experiments.load_spec").total_s,
        "experiments.evaluate_quantities.point_s_p50": statistics.median(points),
        "experiments.evaluate_quantities.point_s_p90":
            points[min(len(points) - 1, math.ceil(0.9 * len(points)) - 1)],
        "experiments.io.s": sum(st(f"experiments.run_{c}").self_s
                                for c in ("eval", "sweep", "verify")),
        "svgplot.line_chart.s": st("svgplot.line_chart").total_s,
        "capacity.lower_bound_alice.s": st("capacity.lower_bound_alice").total_s,
        "cli.import.s": inv.import_s,
    }
    for name in ("channel.sample_channels", "numerics.logdet_hermitian_pd",
                 "capacity.secrecy_floor_sample", "capacity.bound_gap_sample"):
        out[f"{name}.calls_per_trial"] = st(name).calls / trials
    for name in ("channel.sample_channels", "numerics.rng_generator",
                 "numerics.logdet_hermitian_pd"):
        out[f"{name}.us_per_call"] = per_call_us(name)
    for name in ("capacity.secrecy_floor_sample", "capacity.lower_bound_bob_sample",
                 "capacity.bound_gap_sample"):
        out[f"{name}.self_us_per_call"] = per_call_us(name, "self_s")
    for name in ("determinant_identity_suite", "pilot_estimation_check",
                 "scalar_capacity_check", "pilot_mi_check"):
        out[f"verify.{name}.s"] = st(f"verify.{name}").total_s
    return out, {name: s.calls for name, s in stats.items()}


def layer_unit(metric: str) -> str:
    if metric.endswith("calls_per_trial"):
        return "count"
    if metric.endswith(("us_per_call", "us_per_value")):
        return "us"
    return "s"


def run_traced(seed: int, seconds: float, reference: dict):
    plain = {name: [] for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    samples = {name: {} for name in WORKLOADS}
    counts = {name: [] for name in WORKLOADS}
    control = mutation_control(WORKLOADS["verify-default"], seed)
    attempted, failed = 1, int(bool(control.problems))
    for problem in control.problems:
        print(f"  FAILED {control.out.name}: {problem}")
    start = clock()
    rounds = 0
    while rounds < MIN_TRACE_ROUNDS or clock() - start < seconds:
        for wl in WORKLOADS.values():
            for trace in (False, True):
                inv = invoke(wl, mc_seed(wl, seed, 0), f"trace-{wl.name}-{rounds}-{int(trace)}",
                             trace=trace)
                values = checked_values(wl, inv, reference)
                attempted += 1
                if not inv.problems and (traced[wl.name] or plain[wl.name]):
                    earlier = (traced[wl.name] or plain[wl.name])[0]
                    inv.problems += same_bytes(earlier, inv, wl.outputs)
                if inv.problems:
                    failed += 1
                    for problem in inv.problems:
                        print(f"  FAILED {inv.out.name}: {problem}")
                    continue
                if not trace:
                    plain[wl.name].append(inv)
                    continue
                traced[wl.name].append(inv)
                metrics, calls = layer_metrics(inv, realizations(wl, inv.out, values))
                counts[wl.name].append(calls)
                for m in wl.layers:
                    samples[wl.name].setdefault(m, []).append(metrics.get(m, math.nan))
        rounds += 1

    result = {}
    correct = True
    for wl in WORKLOADS.values():
        if not traced[wl.name] or not plain[wl.name]:
            correct = False
            continue
        if any(c != counts[wl.name][0] for c in counts[wl.name]):
            correct = False
            print(f"  FAILED {wl.name}: call counts differ between traced runs")
        samples[wl.name]["trace_overhead_s"] = [
            statistics.median(i.wall_s for i in traced[wl.name])
            - statistics.median(i.wall_s for i in plain[wl.name])]
        print(f"traced {wl.name}: {len(traced[wl.name])} traced and "
              f"{len(plain[wl.name])} untraced processes")
        for m in wl.layers:
            value = statistics.median(samples[wl.name][m])
            if not math.isfinite(value):
                correct = False
                print(f"  FAILED {wl.name}: {m} was not measured")
                continue
            result[f"{wl.name}.{m}"] = {"value": value, "unit": layer_unit(m)}
            print(f"  {m:<48} {value:.6g} {layer_unit(m)}")
    return result, attempted, failed, correct


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "skcprobe" / "cli.py").is_file():
        print(f"error: no skcprobe sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    wl = WORKLOADS[args.workload]
    try:
        info = manifest(args.seed, WORKLOADS.values() if args.trace else [wl])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("manifest " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, correct = run_traced(args.seed, args.seconds, reference)
        correct = correct and failed == 0
    else:
        metrics, attempted, failed = run_end_to_end(wl, args.seed, args.seconds, reference)
        correct = failed == 0 and len(metrics) == len(END_TO_END_UNITS)
    if not metrics:
        print("error: no process succeeded; nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
