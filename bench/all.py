"""Run every workload, untraced and traced, and print every metric.

    python3 bench/all.py [--seed N]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``, as the
single-workload runs of ``run.py`` do.

For each workload this prints the end-to-end metrics, the per-step
medians ``step_s.<step>``, the error rate with its counts, and the
per-layer metrics of the traced run, among them the tracing overhead
``trace.overhead_s``, each by name with its unit.  Exits with 1 if any
output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, run_workload, save_record
from workloads import WORKLOADS


def _line(name, value, unit):
    print(f"  {name:36s} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    all_ok = True
    for name, wl in WORKLOADS.items():
        plain = run_workload(name, args.seed, seconds, 0)
        traced = run_workload(name, args.seed, seconds, 1)
        save_record(plain)
        save_record(traced)
        print(f"{name}: {wl.why}")
        print(f"  stresses: {wl.stresses}; bypasses: {wl.bypasses}")
        for metric, m in plain["metrics"].items():
            _line(metric, m["value"], m["unit"])
        for label, value in plain["step_s"].items():
            _line(f"step_s.{label}", value, "s")
        _line("error_rate", plain["error_rate"], "ratio")
        _line("attempted", plain["attempted"], "count")
        _line("failed", plain["failed"], "count")
        for metric, m in traced["metrics"].items():
            if not metric.startswith("step_s."):  # printed above, from the untraced run
                _line(metric, m["value"], m["unit"])
        for problem in plain["problems"] + traced["problems"]:
            print(f"  FAILED {problem}")
        all_ok &= plain["correct"] and traced["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
