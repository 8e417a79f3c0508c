"""Child-process launcher: runs one `skcprobe` CLI command as a user would.

    python3 perfbench/launch.py <sidecar.json> <trace 0|1> <cli args...>

It does what the installed `skcprobe` console script does (import
`skcprobe.cli`, call `main`), plus three clock marks: when this file starts,
when `skcprobe.cli` is imported, and when the spec is loaded and validated.
The marks use CLOCK_MONOTONIC, which is system-wide on Linux, so the parent
can subtract its own launch time from them.

With trace 1 it also wraps the public functions of each module at the module
attribute their callers look up, and records one span per call
(name, parent span, start, end, item count), timed with perf_counter.  Spans
stay in memory and are written to the sidecar when the command ends; `run.py`
turns them into per-layer metrics.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = now()

# span name -> the (module, attribute) places its callers look it up.
# Attributes with a dot are methods looked up on a class.
TRACE_TARGETS = {
    "numerics.rng_generator": [("skcprobe.numerics", "RngStream.generator")],
    "channel.sample_channels": [("skcprobe.montecarlo", "sample_channels"),
                                ("skcprobe.verify", "sample_channels")],
    # integrand calls only; verify's dense covariance oracle is not counted
    "numerics.logdet_hermitian_pd": [("skcprobe.capacity", "logdet_hermitian_pd")],
    "capacity.secrecy_floor_sample": [("skcprobe.capacity", "secrecy_floor_sample"),
                                      ("skcprobe.verify", "secrecy_floor_sample")],
    "capacity.lower_bound_bob_sample": [("skcprobe.capacity", "lower_bound_bob_sample"),
                                        ("skcprobe.verify", "lower_bound_bob_sample")],
    "capacity.bound_gap_sample": [("skcprobe.capacity", "bound_gap_sample"),
                                  ("skcprobe.verify", "bound_gap_sample")],
    "capacity.lower_bound_alice": [("skcprobe.capacity", "lower_bound_alice")],
    "montecarlo.collect": [("skcprobe.capacity", "collect"),
                           ("skcprobe.montecarlo", "collect")],
    "montecarlo.summarize": [("skcprobe.capacity", "summarize"),
                             ("skcprobe.verify", "summarize"),
                             ("skcprobe.montecarlo", "summarize")],
    "experiments.load_spec": [("skcprobe.cli", "load_spec")],
    "experiments.run_eval": [("skcprobe.cli", "run_eval")],
    "experiments.run_sweep": [("skcprobe.cli", "run_sweep")],
    "experiments.run_verify": [("skcprobe.cli", "run_verify")],
    "experiments.evaluate_quantities": [("skcprobe.experiments", "evaluate_quantities")],
    "svgplot.line_chart": [("skcprobe.experiments", "line_chart")],
    "verify.run_suite": [("skcprobe.experiments", "run_suite")],
    "verify.pilot_mi_check": [("skcprobe.verify", "pilot_mi_check")],
    "verify.pilot_estimation_check": [("skcprobe.verify", "pilot_estimation_check")],
    "verify.scalar_capacity_check": [("skcprobe.verify", "scalar_capacity_check")],
    "verify.determinant_identity_suite": [("skcprobe.verify", "determinant_identity_suite")],
}

# spans whose first argument is a sequence; its length is recorded as the
# span's item count
COUNTED = {"montecarlo.summarize"}


class SpanRecorder:
    """In-memory spans [name index, parent index, start, end, items].

    The parent is the innermost open span of the same thread.  A span opened
    on a worker thread with no open span of its own takes the innermost open
    span of the main thread as parent, so the trials that the Monte Carlo
    thread pool runs are children of the `collect` call that dispatched them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        counted = name in COUNTED
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            items = len(args[0]) if counted else 0
            span = [name_idx, parent, clock(), 0.0, items]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self) -> None:
        for name, places in TRACE_TARGETS.items():
            for module_name, attr in places:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))


def main(argv: list[str]) -> int:
    sidecar, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    import skcprobe.cli as cli
    import skcprobe.experiments as experiments

    marks = {"start": T_START, "imported": now()}

    def mark_spec(owner, attr, on_return):
        # records the moment the spec is loaded and validated: eval/sweep
        # return from load_spec; verify enters run_suite with parsed configs
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not on_return:
                marks["spec"] = now()
            result = fn(*args, **kwargs)
            if on_return:
                marks["spec"] = now()
            return result

        setattr(owner, attr, marked)

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.install()
    mark_spec(cli, "load_spec", on_return=True)
    mark_spec(experiments, "run_suite", on_return=False)

    code = cli.main(cli_args)
    marks["end"] = now()
    payload = {"marks": marks, "exit": code}
    if recorder is not None:
        payload["names"] = recorder.names
        payload["spans"] = recorder.spans
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
