"""One workload's closed loop, run in its own child process by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE

Generates the workload's inputs from the seed, then runs pipeline
iterations back to back for about ``--seconds``, and past it until at
least ``MIN_ITERATIONS`` untraced iterations are measured.  Each
iteration gets a fresh output directory, which is removed after its
output checks.  With ``--trace 1`` the first iteration is a warm-up and
the rest alternate traced and untraced, so the run measures the tracer's
overhead on the same inputs and conditions, with at least
``MIN_ITERATIONS`` of each; spans are written to ``DIR/spans.npz`` when
the run ends.  The per-iteration timings, step counts and failures go to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import Tracer
from workloads import WORKLOADS

# Untraced, non-warm-up iterations every run measures at least, so that
# no reported median rests on one or two shots.
MIN_ITERATIONS = 5
MAX_PROBLEMS = 20


def _blas_build() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas, lapack = deps["blas"], deps["lapack"]
        return (f"blas {blas['name']} {blas['version']}; "
                f"lapack {lapack['name']} {lapack['version']}")
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _run_iteration(steps, tracer, k):
    """Time each step; stop at the first step that raises."""
    times, outcomes = [], []
    sink = io.StringIO()
    if tracer is not None:
        tracer.iteration = k
        tracer.install()
    try:
        with contextlib.redirect_stdout(sink):
            start = perf_counter()
            for step in steps:
                t0 = perf_counter()
                try:
                    outcomes.append((step.run(), None))
                except Exception:  # a failed step is counted, not fatal
                    outcomes.append((None, traceback.format_exc(limit=3)))
                times.append(perf_counter() - t0)
                if outcomes[-1][1] is not None:
                    break
            wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, times, outcomes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    importlib.import_module(wl.imports)
    lib = types.SimpleNamespace(fc=sys.modules["fieldcorrespond"],
                                cli=sys.modules.get("fieldcorrespond.cli"))
    ctx = wl.prepare(args.seed, inputs, lib)

    tracer = Tracer() if args.trace else None
    iterations, problems = [], []
    attempted = failed = 0
    loop_start = perf_counter()
    k = 0
    while True:
        it_start = perf_counter()
        traced = tracer is not None and k % 2 == 1
        it_dir = workdir / f"iter_{k:03d}"
        it_dir.mkdir()
        steps = wl.steps(ctx, it_dir, lib)
        wall, times, outcomes = _run_iteration(steps, tracer if traced else None, k)

        for i, step in enumerate(steps):
            attempted += 1
            if i >= len(outcomes):
                found = ["not run: an earlier step raised"]
            elif outcomes[i][1] is not None:
                found = [outcomes[i][1]]
            else:
                try:
                    found = step.check(outcomes[i][0])
                except Exception:  # a check that cannot read the output fails the step
                    found = [traceback.format_exc(limit=3)]
            if found:
                failed += 1
                problems += [f"iteration {k} step {i} ({step.label}): {m}" for m in found]
        shutil.rmtree(it_dir)

        iterations.append({
            "warmup": tracer is not None and k == 0,
            "traced": traced,
            "wall_s": wall,
            "steps": [[s.label, t] for s, t in zip(steps, times)],
            "total_s": perf_counter() - it_start,
        })
        k += 1
        elapsed = perf_counter() - loop_start
        typical = statistics.median(it["total_s"] for it in iterations)
        measured = sum(1 for it in iterations if not (it["traced"] or it["warmup"]))
        # Stop where the next iteration would end more than half an
        # iteration past the deadline, so runs end near it on average.
        if measured >= MIN_ITERATIONS and elapsed + typical / 2 > args.seconds:
            break

    result = {
        "iterations": iterations,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fieldcorrespond": lib.fc.__version__,
            "blas_build": _blas_build(),
        },
    }
    if tracer is not None:
        tracer.measure_alloc_peak()
        traced_n = sum(1 for it in iterations if it["traced"])
        result["layer_metrics"] = tracer.layer_metrics(traced_n)
        result["absent_spans"] = tracer.absent
        result["hook_errors"] = sorted(tracer.hook_errors)
        tracer.save(workdir / "spans.npz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
