"""Command-line interface.

Subcommands: eval (single point), sweep (one-parameter curves), dof
(high-power slope fits), verify (cross-verification suite).  Exit codes are
a contract: 0 success, 2 parse error, 3 validation error, 4 numeric
failure, 5 verification failure.

The default seed can be overridden with the SKCPROBE_SEED environment
variable; an explicit flag beats the environment, which beats the spec
file, which beats built-ins.  --threads is accepted for compatibility
only: it must be an integer >= 1, and it does not reach the computation,
which runs on one thread.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import dof_formula, dof_window_split
from .errors import ParseError, SkcError, ValidationError
from .experiments import (
    expand_quantities,
    load_spec,
    run_dof,
    run_eval,
    run_sweep,
    run_verify,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_VERIFY_FAILED = 5

SEED_ENV = "SKCPROBE_SEED"


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skcprobe",
        description="Secret-key capacity bounds from MIMO channel probing.")
    parser.add_argument("--version", action="version", version=f"skcprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="path to a YAML spec, or the name of a bundled one "
                            "(fig1, fig2, oneway, verify-default)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: {SEED_ENV} or the spec file)")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials per point (default: spec file or 10000)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility only: must be >= 1 "
                            "and has no effect")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    add_common(sub.add_parser("eval", help="evaluate one configuration"))
    add_common(sub.add_parser("sweep", help="sweep one parameter, write CSV/SVG"))
    add_common(sub.add_parser("dof", help="fit the high-power slope"))
    verify = sub.add_parser("verify", help="run the cross-verification suite")
    add_common(verify)
    verify.add_argument("--mutation-control", action="store_true",
                        help="corrupt the closed form on purpose; the suite "
                             "must then fail (negative control)")
    return parser


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    return _env_int(SEED_ENV)


def _check_threads(args) -> None:
    """--threads, when given, must be >= 1; the value is not used."""
    if args.threads is not None and args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")


def _print_estimate_table(values, expanded) -> None:
    width = max(len(q) for q in expanded)
    for q in expanded:
        est = values[q]
        line = f"  {q:<{width}}  {est.mean: .6f} bits"
        if est.method == "monte-carlo":
            line += f"  (stderr {est.stderr:.2e}, {est.trials} trials)"
        else:
            line += "  (exact)"
        print(line)


def _cmd_eval(args) -> int:
    spec = load_spec(args.config, seed_override=_resolve_seed(args),
                     trials_override=args.trials)
    values, csv_path = run_eval(spec, Path(args.out))
    print(f"{spec.name}: n_a={spec.base.n_a} n_b={spec.base.n_b} n_e={spec.base.n_e} "
          f"v_a={spec.base.v_a} v_b={spec.base.v_b}")
    _print_estimate_table(values, expand_quantities(spec.quantities))
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_spec(args.config, seed_override=_resolve_seed(args),
                     trials_override=args.trials)
    csv_path, svg_path = run_sweep(spec, Path(args.out))
    print(f"wrote {csv_path}")
    if svg_path is not None:
        print(f"wrote {svg_path}")
    return EXIT_OK


def _cmd_dof(args) -> int:
    spec = load_spec(args.config, seed_override=_resolve_seed(args),
                     trials_override=args.trials)
    results, csv_path = run_dof(spec, Path(args.out))
    for case in spec.cases:
        result = results[case.name]
        config = case.config
        formula = result.formula_value
        formula_txt = str(formula) if formula is not None else \
            f"{dof_formula(config, auto_swap=True)} (roles swapped: n_a < n_b)"
        print(f"{case.name}: fitted slope {result.slope:.4f} "
              f"(rms residual {result.fit_residual:.3e}), "
              f"closed-form key-capacity pre-log {formula_txt}")
        budget = config.v_a + config.v_b
        best_va, best_vb, best, table = dof_window_split(config, budget)
        split_txt = ", ".join(f"({va},{vb})->{d}" for va, vb, d in table)
        print(f"  window splits of budget {budget}: {split_txt}")
        print(f"  maximizer: v_a={best_va} v_b={best_vb} with pre-log {best}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary, report_path = run_verify(args.config, Path(args.out),
                                      seed_override=_resolve_seed(args),
                                      trials_override=args.trials,
                                      mutation_control=args.mutation_control)
    name_w = max(len(o.check_name) for o in summary.outcomes)
    for o in summary.outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(f"  {status}  {o.check_name:<{name_w}}  "
              f"ref={o.reference_value:.6g} got={o.computed_value:.6g} "
              f"tol={o.tolerance:.3g}" + (f"  [{o.detail}]" if o.detail else ""))
    verdict = "all checks passed" if summary.passed else \
        f"{len(summary.failures())} check(s) FAILED"
    print(f"verification: {verdict}")
    print(f"wrote {report_path}")
    return EXIT_OK if summary.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "dof": _cmd_dof,
    "verify": _cmd_verify,
}


@functools.cache
def _freeze_heap_at_exit() -> None:
    """At interpreter exit, move every live object into the collector's
    permanent generation, so that shutdown does not walk the import-time
    object graph (numpy, PyYAML, scipy after verify) to free memory the OS
    takes back anyway.  Registered once per process; in-process callers
    keep a normal collector until their own interpreter exits.

    Frozen objects in reference cycles are never finalized, so everything
    the CLI writes must be closed before main returns: today every output
    goes through Path.write_text.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = build_parser().parse_args(argv)
    try:
        _check_threads(args)
        # an overflow or NaN ends the run as the program's own named error
        # (exit 4), so numpy's floating-point warnings would only print
        # ahead of that line
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # every other error of the program's own is numeric
    except SkcError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
