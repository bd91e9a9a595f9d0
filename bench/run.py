"""Benchmark entry point: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` (nothing is installed).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing:

* ``setup_s``     median wall time of a fresh interpreter importing the
                  workload's entry module (``SETUP_SAMPLES`` processes);
* ``wall_s``      median time of one pipeline iteration, after import;
* ``peak_rss_mb`` peak resident memory of the workload's child process.

The per-step medians ``step_s.<step>`` (time per iteration summed over
the workload's calls of one CLI command or library phase), the error rate
and the provenance go to the run record in ``.bench_out/results/``.

With ``--trace 1`` the metrics are the per-layer ones of ``tracer.py``,
the cumulative import time of each module (``python -X importtime``), the
``step_s.<step>`` medians of the run's untraced iterations (0 for steps
the workload does not run), and the tracer's own figures: traced wall
time, its overhead over the untraced iterations of the same run, and the
share of the traced wall time that the layers' self times account for.
Spans go to ``.bench_out/spans/``.

Each workload runs in its own child process (``worker.py``) with BLAS
pinned to ``BLAS_THREADS`` thread(s), never more than ``nproc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS
from workloads import STEP_LABELS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# One BLAS thread, like the library's own default of one worker.  A second
# thread competes with whatever else shares the machine: on a 2-core box
# the fou-cli `fou` step swung between 3.2 and 4.3 s with two threads,
# against a steady 4.8 s with one.
BLAS_THREADS = 1
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("FIELD_CORRESPOND_THREADS", None)
    return env


def measure_setup(module: str, env: dict) -> list:
    """Wall time of fresh interpreters that only import ``module``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*fieldcorrespond\.(\w+)\s*$")


def measure_imports(env: dict) -> dict:
    """Median cumulative import time of each module, from -X importtime."""
    samples = {m: [] for m in LAYERS}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fieldcorrespond.cli"],
            env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def provenance(wl, seed: int, seconds: int, trace: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": wl.name,
        "why": wl.why,
        "stresses": wl.stresses,
        "bypasses": wl.bypasses,
        "params": wl.params,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "library_threads": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _median_of(iterations, key) -> float:
    return statistics.median(key(i) for i in iterations)


def _step_medians(iterations, labels=None) -> dict:
    """Median per-iteration time of each step label (0 if never run).

    ``labels`` defaults to the labels of the steps the iterations ran.
    """
    if labels is None:
        labels = dict.fromkeys(lab for i in iterations for lab, _ in i["steps"])
    return {
        label: _median_of(iterations, lambda i: sum(t for lab, t in i["steps"] if lab == label))
        for label in labels
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; return the full record (metrics plus provenance)."""
    started = perf_counter()
    wl = WORKLOADS[name]
    env = _child_env()
    record = {"provenance": provenance(wl, seed, seconds, trace, env)}
    if trace:
        imports = measure_imports(env)
    else:
        setup = measure_setup(wl.imports, env)

    workdir = OUT / "work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    try:
        budget = max(30.0, RUN_DEADLINE_S - (perf_counter() - started))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
             "--result", str(result_path)],
            env=env, cwd=ROOT, timeout=budget)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(result_path.read_text())
        if trace:
            spans = OUT / "spans" / f"{name}-seed{seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(workdir / "spans.npz"), spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["provenance"]["versions"] = res["versions"]
    its = res["iterations"]
    plain = [i for i in its if not i["traced"]]
    record.update({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "iterations": its,
    })
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": _median_of(plain, lambda i: i["wall_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        record["setup_samples_s"] = setup
        record["step_s"] = _step_medians(plain)
    else:
        plain = [i for i in plain if not i["warmup"]]
        traced = [i for i in its if i["traced"]]
        layer = res["layer_metrics"]
        traced_wall = _median_of(traced, lambda i: i["wall_s"])
        mean_wall = statistics.fmean(i["wall_s"] for i in traced)
        attributed = sum(v["value"] for k, v in layer.items() if k.endswith(".self_s"))
        unattributed = mean_wall - attributed - layer["trace.bookkeeping_s"]["value"]
        extra = {
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - _median_of(plain, lambda i: i["wall_s"]), "s"),
            "trace.attributed_ratio": (attributed / mean_wall, "ratio"),
            "trace.unattributed_s": (unattributed, "s"),
        }
        for module, seconds_ in imports.items():
            extra[f"{module}.import_s"] = (seconds_, "s")
        for label, seconds_ in _step_medians(plain, STEP_LABELS).items():
            extra[f"step_s.{label}"] = (seconds_, "s")
        layer.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
        record["metrics"] = layer
        record["absent_spans"] = res["absent_spans"]
        record["hook_errors"] = res["hook_errors"]
    return record


def save_record(record: dict) -> Path:
    p = record["provenance"]
    path = OUT / "results" / f"{p['workload']}-seed{p['seed']}-trace{p['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "fieldcorrespond" / "cli.py").is_file():
        print(f"bench: no library source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    path = save_record(record)
    for problem in record["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
