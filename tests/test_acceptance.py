"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Where a criterion rests on an expected value, that value is computed here
through an arithmetic path independent of the library (LU/slogdet instead
of Cholesky, frozen 30-digit mpmath constants for the quadrature oracle).

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

import itertools
import math
import time

import numpy as np
import pytest

from skcprobe import (
    McSettings,
    ProbingConfig,
    RngStream,
    derive_gammas,
    bound_gap_sample,
    lower_bound_bob_sample,
    pilot_mi,
    pilot_mi_from_covariance,
    sample_channels,
    secrecy_floor,
    secrecy_floor_sample,
    siso_ergodic_capacity,
    skc_report,
    pilot_estimation_check,
)
from skcprobe.cli import main
from skcprobe.experiments import load_spec, run_dof

# e * E1(1) / ln 2, 30-digit mpmath, frozen before the build
SCALAR_CAPACITY_AT_ONE = 0.86034738227088595


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")


def _lu_logdet2(m: np.ndarray) -> float:
    return float(np.linalg.slogdet(m)[1] / math.log(2.0))


def test_acceptance_1_pilot_mi_exactness():
    """Exact covariance evaluation equals the closed form across a grid."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n_a, n_b in itertools.product((1, 2, 3), repeat=2):
        for phi_a in (n_a, 2 * n_a + 2):
            for phi_b in (n_b, 2 * n_b + 2):
                for rho in (0.0, 0.5, 0.9, 1.0):
                    for prod_a, prod_b in itertools.product((0.1, 1.0, 10.0), repeat=2):
                        cfg = ProbingConfig(
                            n_a=n_a, n_b=n_b, n_e=1,
                            phi_a=phi_a, phi_b=phi_b,
                            power_a=prod_a / phi_a, power_b=prod_b / phi_b,
                            rho=rho)
                        closed = pilot_mi(cfg)
                        exact = pilot_mi_from_covariance(cfg)
                        scale = max(abs(closed), abs(exact), 1e-6)
                        worst = max(worst, abs(closed - exact) / scale)
                        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "pilot-MI exactness", ok,
            f"{count} configs, worst relative deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_acceptance_2_determinant_identities():
    """Paired evaluation forms agree within 1e-9 over 1000 random draws."""
    start = time.perf_counter()
    picker = np.random.default_rng(20240612)
    worst_gap = worst_floor = worst_cb = 0.0
    gap_min = math.inf
    zero_gap_violation = 0.0
    total = 0
    for _ in range(40):
        cfg = ProbingConfig(
            n_a=int(picker.integers(1, 9)), n_b=int(picker.integers(1, 9)),
            n_e=int(picker.integers(1, 9)),
            v_a=int(picker.integers(0, 4)), v_b=int(picker.integers(0, 4)),
            phi_a=64, phi_b=64,
            power_a=float(picker.uniform(0.25, 4.0)),
            power_b=float(picker.uniform(0.25, 4.0)),
            noise_a=float(picker.uniform(0.5, 2.0)),
            noise_b=float(picker.uniform(0.5, 2.0)),
            noise_ea=float(picker.uniform(0.25, 4.0)),
            noise_eb=float(picker.uniform(0.25, 4.0)),
            rho=float(picker.choice([0.0, 0.5, 0.9, 1.0])))
        gam = derive_gammas(cfg)
        for trial in range(25):
            r = sample_channels(cfg, RngStream(777, total))
            total += 1
            # gap: both library forms plus this test's LU-based Gram form
            g_stacked = bound_gap_sample(r, cfg, "stacked")
            g_inverse = bound_gap_sample(r, cfg, "inverse")
            hh = r.h_ab.conj().T @ r.h_ab
            gg = r.g_b.conj().T @ r.g_b
            w = cfg.noise_a / cfg.noise_eb
            g_oracle = cfg.v_b * (
                _lu_logdet2(np.eye(cfg.n_b) + gam.gamma_ab * (hh + w * gg))
                - _lu_logdet2(np.eye(cfg.n_b) + gam.gamma_ab * hh))
            worst_gap = max(worst_gap, abs(g_stacked - g_inverse),
                            abs(g_stacked - g_oracle))
            gap_min = min(gap_min, g_stacked, g_inverse)
            if cfg.v_b == 0:
                zero_gap_violation = max(zero_gap_violation,
                                         abs(g_stacked), abs(g_inverse))
            # floor: direct vs inverse vs LU oracle
            f_direct = secrecy_floor_sample(r, cfg, "direct")
            f_inverse = secrecy_floor_sample(r, cfg, "inverse")
            ge = r.g_a.conj().T @ r.g_a
            hb = r.h_ba.conj().T @ r.h_ba
            f_oracle = (
                _lu_logdet2(gam.gamma_ea * (ge + (cfg.noise_ea / cfg.noise_b) * hb)
                            + np.eye(cfg.n_a))
                - _lu_logdet2(gam.gamma_ea * ge + np.eye(cfg.n_a)))
            worst_floor = max(worst_floor, abs(f_direct - f_inverse),
                              abs(f_direct - f_oracle))
            # Bob-side bound: square vs rectangular
            cb_square = lower_bound_bob_sample(r, cfg, "square")
            cb_rect = lower_bound_bob_sample(r, cfg, "rectangular")
            worst_cb = max(worst_cb, abs(cb_square - cb_rect))
    elapsed = time.perf_counter() - start
    ok = (max(worst_gap, worst_floor, worst_cb) <= 1e-9
          and gap_min >= 0.0 and zero_gap_violation == 0.0 and elapsed < 30.0)
    _report(2, "determinant identities", ok,
            f"{total} realizations, worst deviations gap {worst_gap:.2e} / "
            f"floor {worst_floor:.2e} / bound {worst_cb:.2e}, "
            f"min gap {gap_min:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-9
    assert worst_floor <= 1e-9
    assert worst_cb <= 1e-9
    assert gap_min >= 0.0
    assert zero_gap_violation == 0.0
    assert elapsed < 30.0


def test_acceptance_3_one_way_coincidence():
    """v_a=1, v_b=0: integrand identity is bitwise; reported bounds coincide."""
    cfg = ProbingConfig(n_a=3, n_b=2, n_e=2, v_a=1, v_b=0, phi_a=300, phi_b=200,
                        power_a=4.0, power_b=4.0, noise_ea=0.5, noise_eb=1.0,
                        rho=0.8)
    exact = True
    for trial in range(300):
        r = sample_channels(cfg, RngStream(99, trial))
        lhs = lower_bound_bob_sample(r, cfg, "square")
        rhs = pilot_mi(cfg) + cfg.v_a * secrecy_floor_sample(r, cfg, "direct")
        if lhs != rhs:
            exact = False
            break
    report = skc_report(cfg, McSettings(trials=400, master_seed=5))
    coincide = (report.gap.stderr == 0.0 and report.gap.mean == 0.0
                and report.lower.mean == report.upper.mean)
    ok = exact and coincide
    _report(3, "one-way coincidence", ok,
            f"bitwise integrand identity over 300 draws; lower == upper "
            f"== {report.upper.mean:.6f}")
    assert exact
    assert coincide


def test_acceptance_4_dof_slopes():
    """Floor vs log2(power): slope 2.0 +- 0.15 for (8,4,6), 0.0 +- 0.10 for
    (8,4,10), at 10^4 trials per grid point."""
    start = time.perf_counter()
    spec = load_spec("fig2", trials_override=10_000)
    results, _ = run_dof(spec, __import__("pathlib").Path("/tmp/skcprobe-acceptance"))
    slope6 = results["na8-nb4-ne6"].slope
    slope10 = results["na8-nb4-ne10"].slope
    elapsed = time.perf_counter() - start
    ok = abs(slope6 - 2.0) <= 0.15 and abs(slope10) <= 0.10 and elapsed < 180.0
    _report(4, "high-power slopes", ok,
            f"slopes {slope6:.3f} (target 2) and {slope10:.3f} (target 0), "
            f"{elapsed:.0f}s")
    assert slope6 == pytest.approx(2.0, abs=0.15)
    assert slope10 == pytest.approx(0.0, abs=0.10)
    assert elapsed < 180.0


def test_acceptance_5_floor_positive_and_monotone():
    """Floor stays significant and nonincreasing over 3 decades of the
    noise-variance ratio."""
    mc = McSettings(trials=10_000, master_seed=1)
    ratios = np.logspace(-1.5, 1.5, 13)
    means, stderrs = [], []
    for ratio in ratios:
        cfg = ProbingConfig(n_a=8, n_b=4, n_e=6, v_a=1, v_b=0,
                            power_a=10.0, power_b=10.0,
                            noise_b=1.0, noise_ea=1.0 / ratio, rho=0.0)
        est = secrecy_floor(cfg, mc)
        means.append(est.mean)
        stderrs.append(est.stderr)
    positive = all(m > 3 * s for m, s in zip(means, stderrs))
    monotone = all(
        means[i + 1] - means[i] <= 3 * math.hypot(stderrs[i], stderrs[i + 1])
        for i in range(len(means) - 1))
    ok = positive and monotone
    _report(5, "floor positivity and monotonicity", ok,
            f"floor from {means[0]:.3f} down to {means[-1]:.3f} bits over "
            f"ratio 10^-1.5..10^1.5")
    assert positive
    assert monotone


def test_acceptance_6_scalar_cross_oracle():
    """Monte Carlo scalar capacity matches quadrature; quadrature matches
    the frozen independent constant at snr=1."""
    quad_ok = abs(siso_ergodic_capacity(1.0) - SCALAR_CAPACITY_AT_ONE) <= 1e-8
    cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, phi_a=1, phi_b=1)
    devs = []
    mc_ok = True
    for snr in (0.1, 1.0, 10.0):
        vals = []
        for trial in range(10_000):
            r = sample_channels(cfg, RngStream(1, trial))
            vals.append(math.log2(1.0 + snr * abs(r.h_ba[0, 0]) ** 2))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        dev = abs(mean - siso_ergodic_capacity(snr))
        devs.append(dev / stderr)
        mc_ok = mc_ok and dev <= 3 * stderr
    ok = quad_ok and mc_ok
    _report(6, "scalar capacity cross-oracle", ok,
            f"MC deviations {', '.join(f'{d:.2f}' for d in devs)} stderr units; "
            f"quadrature at snr=1 within 1e-8 of frozen oracle")
    assert quad_ok
    assert mc_ok


def test_acceptance_7_pilot_estimation_error():
    """Measured pilot-estimation error variance within 5% of 1/(gamma*psi+1)
    over a grid, decreasing with pilot length."""
    mc = McSettings(trials=10_000, master_seed=3)
    worst_rel = 0.0
    all_pass = True
    by_gamma: dict[float, list[float]] = {}
    for gamma in (0.5, 1.0, 4.0):
        for psi in (16, 64, 256):
            cfg = ProbingConfig(n_a=2, n_b=2, n_e=1, phi_a=psi, phi_b=64,
                                power_a=gamma, noise_b=1.0)
            outcome = pilot_estimation_check(cfg, mc)
            rel = abs(outcome.computed_value - outcome.reference_value) \
                / outcome.reference_value
            worst_rel = max(worst_rel, rel)
            all_pass = all_pass and outcome.passed
            by_gamma.setdefault(gamma, []).append(outcome.computed_value)
    decreasing = all(vals[0] > vals[1] > vals[2] for vals in by_gamma.values())
    ok = all_pass and worst_rel <= 0.05 and decreasing
    _report(7, "pilot estimation error", ok,
            f"worst relative deviation {worst_rel:.3f}; "
            f"variance decreasing in pilot length for every SNR")
    assert all_pass
    assert worst_rel <= 0.05
    assert decreasing


def test_acceptance_8_cli_determinism(tmp_path):
    """Identical spec and seed give byte-identical CSVs at any thread count."""
    spec_text = """
name: det
config: {n_a: 3, n_b: 2, n_e: 2, phi_a: 12, phi_b: 8, v_a: 2, v_b: 1,
         noise_ea: 0.5, rho: 0.7}
cases:
  - {name: a, overrides: {n_e: 1}}
  - {name: b, overrides: {n_e: 4}}
sweep: {parameter: power_a, values: [0.5, 2.0, 8.0, 32.0]}
mc: {trials: 300, seed: 17}
quantities: [floor, bounds]
svg: true
"""
    spec_path = tmp_path / "det.yaml"
    spec_path.write_text(spec_text, encoding="utf-8")
    outputs = []
    for run, threads in (("r1", "1"), ("r2", "6"), ("r3", "1")):
        out = tmp_path / run
        code = main(["sweep", "--config", str(spec_path), "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outputs.append(((out / "det.csv").read_bytes(),
                        (out / "det.svg").read_bytes()))
    identical = outputs[0] == outputs[1] == outputs[2]
    _report(8, "CLI byte-determinism", identical,
            "three runs, thread counts 1/6/1, CSV and SVG identical")
    assert identical
