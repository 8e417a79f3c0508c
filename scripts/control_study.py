"""How much each of the floor's control variates buys at every bundled point
whose floor is sampled, and how far each regression is from singular.

    PYTHONPATH=src python3 scripts/control_study.py [--trials N] [--seed S]

For each point (oneway, fig1's six sampled points, the two-way benchmark
spec and verify-default's cfg0 and cfg1) it draws the floor and all of its
controls on the engine's draws and fits the floor on them with the engine's
regression (capacity._control_corrections).  It prints:

* the residual variance of that fit;
* for each control, the residual variance of the fit without it over that
  of the fit with all of them, and the same for each ring of edges
  (capacity.EDGE_RINGS, e.g. "ring 5" for fl5 and fh5), for all the edges
  together ("edges") and for the nearer edge of the inner ring alone
  ("near edge only"), and, where the point has t4 (n_e < n_a), for the fit
  with t4 put back in beside the edges ("with t4");
* the smallest squared Cholesky pivot of the regression system scaled to a
  unit diagonal (capacity._smallest_pivot), which capacity.CV_SINGULAR_PIVOT
  bounds from below.

numpy and skcprobe only; about half a minute at the default 20,000 trials.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
import yaml

from skcprobe import McSettings
from skcprobe.capacity import (CV_MIN_TRIALS, EDGE_RINGS, _control_corrections, _control_means,
                               _controls, _plan, _smallest_pivot, trial_values_many)
from skcprobe.channel import derive_gammas
from skcprobe.experiments import apply_parameter, config_from_mapping, load_spec, read_spec_text

ROOT = Path(__file__).resolve().parents[1]


def sampled_points():
    """(label, config) of every bundled point whose floor is sampled:
    oneway, fig1's six (labelled case-noise_ea), the two-way benchmark spec
    and verify-default's cfg0 and cfg1."""
    points = [("oneway", load_spec("oneway").base)]
    for case in load_spec("fig1").cases:
        points += [(f"{case.name}-{v:.3g}", apply_parameter(case.config, "noise_ea", v))
                   for v in (1.77827941004, 0.562341325190)]
    points.append(("twoway", load_spec(str(ROOT / "perfbench" / "twoway.yaml")).base))
    text, _ = read_spec_text("verify-default")
    points += [(f"verify-cfg{i}", config_from_mapping(mapping))
               for i, mapping in enumerate(yaml.safe_load(text)["configs"][:2])]
    return points


def residual_variance(values, means, kept) -> float:
    """Residual variance of the engine's fit of the floor on `kept`, or nan
    where that system is singular."""
    fit = _control_corrections(np.array([values[q] for q in kept] + [values["floor"]]),
                               np.array([means[q] for q in kept]))
    return float("nan") if fit is None else float(np.var(values["floor"] - fit[0]))


def smallest_pivot(values, names) -> float:
    """capacity._smallest_pivot of the controls' centred sums of products."""
    centred = np.array([values[q] - np.mean(values[q]) for q in names])
    return _smallest_pivot(centred @ centred.T)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    mc = McSettings(trials=args.trials, master_seed=args.seed)
    for label, config in sampled_points():
        means = _plan([config], {"floor"}, CV_MIN_TRIALS)[0].means
        t4 = {} if "t4" in means or "t4" not in _controls(config) else \
            _control_means(config, ["t4"])
        values = trial_values_many([(config, ("floor",) + tuple(means) + tuple(t4))], mc)[0]
        full = residual_variance(values, means, list(means))
        gam = derive_gammas(config)
        print(f"{label}: (n_a, n_b, n_e) = ({config.n_a}, {config.n_b}, {config.n_e}), "
              f"gamma_ea {gam.gamma_ea:.4g}, gamma_ba {gam.gamma_ba:.4g}")
        print(f"  residual variance {full:.3e} on {len(means)} controls; "
              f"smallest pivot^2 {smallest_pivot(values, list(means)):.2e}")
        edges = [q for q in means if _controls(config)[q].mean.kind == "floor"]
        near = "fh" if gam.gamma_ea > gam.gamma_ba else "fl"
        drops = [(q, (q,)) for q in means]
        drops += [(f"ring {ratio:g}", (low, high)) for low, high, ratio in EDGE_RINGS]
        drops += [("edges", tuple(edges)), ("near edge only", tuple(q for q in edges if q != near))]
        ratios = {name: residual_variance(values, means, [q for q in means if q not in out]) / full
                  for name, out in drops if out and set(out) <= set(means)}
        if t4:
            ratios["with t4"] = residual_variance(values, {**means, **t4}, list(means) + ["t4"]) / full
        print("  without: " + ", ".join(f"{name} {ratio:.3g}" for name, ratio in ratios.items()))


if __name__ == "__main__":
    main()
