"""Span tracer that wraps the library's public entry points from outside.

``Tracer.install()`` replaces each entry point named in ``TARGETS`` with a
wrapper that records one span per call: id, parent id, name, start, end
and the pipeline iteration it belongs to.  Every namespace of the package
that holds the original object gets the wrapper, so calls through
``from .algebra import spectral_norm`` in other modules are seen too.
``uninstall()`` puts the originals back.  An entry point that does not
exist (a later version may delete it) is skipped and listed in
``absent``; its span is then simply missing.

Self time is computed online: a span's duration minus the time its direct
child spans cover.  Counters are updated after a span's end time is
taken.  The wrapper's own work and the counters are charged to no layer;
they are summed in ``bookkeeping``, so that layer self times plus
bookkeeping add up to the traced wall time.

Spans stay in memory (compact arrays) and are written by ``save()`` when
the traced run ends.  The allocation peak of ``TRACK_ALLOC`` is taken by
``measure_alloc_peak()`` from a repeat of its last call, outside any span.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "fieldcorrespond"
# The one entry point whose peak allocation is measured (with tracemalloc,
# on an untimed repeat of its last traced call).
TRACK_ALLOC = "stats.empirical_moments"
_HOOK_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError)
LAYERS = ("algebra", "gaussian", "fields", "transforms", "ar1", "fou", "stats", "cli")


# -- counters computed from a call's arguments and result (outside the span)

def _count(key):
    def hook(c, args, kwargs, result):
        c[key] = c.get(key, 0) + 1
    return hook


def _gram(c, args, kwargs, result):
    m = int(result.shape[0])
    c["gram_sites"] = c.get("gram_sites", 0) + m
    c["gram_bytes"] = c.get("gram_bytes", 0) + 8 * m * m


def _factor(c, args, kwargs, result):
    v = int(result.shape[0])
    c["factor_flops"] = c.get("factor_flops", 0) + v ** 3


def _sites(field) -> int:
    return math.prod(field.window.shape)


def _draw(c, args, kwargs, result):
    c["draws"] = c.get("draws", 0) + 1
    c["sampled_sites"] = c.get("sampled_sites", 0) + _sites(result)


def _batch_out(c, args, kwargs, result):
    sites = result.replications * _sites(result.fields[0])
    c["output_sites"] = c.get("output_sites", 0) + sites


def _file_bytes(files_key, bytes_key, path_index):
    def hook(c, args, kwargs, result):
        c[files_key] = c.get(files_key, 0) + 1
        c[bytes_key] = c.get(bytes_key, 0) + os.path.getsize(args[path_index])
    return hook


def _transform(c, args, kwargs, result):
    c["transform_calls"] = c.get("transform_calls", 0) + 1
    c["transform_sites"] = c.get("transform_sites", 0) + _sites(args[0])


def _minv(c, args, kwargs, result):
    _transform(c, args, kwargs, result)
    depth = result.meta["transforms"][-1]["depth"]
    box = math.prod(s + d for s, d in zip(result.window.shape, depth))
    c["minv_out_sites"] = c.get("minv_out_sites", 0) + _sites(result)
    c["minv_box_sites"] = c.get("minv_box_sites", 0) + box


def _comparisons(c, args, kwargs, result):
    c["comparisons"] = c.get("comparisons", 0) + result.n_comparisons


def _cli(c, args, kwargs, result):
    c["commands"] = c.get("commands", 0) + 1
    if result != 0:
        c["exit_nonzero"] = c.get("exit_nonzero", 0) + 1


# (module, attribute path, metric group, counter hook).  The metric group
# names the per-layer time metric the span's self time feeds; None means
# the span counts only toward its layer's total self time.
TARGETS = (
    ("algebra", "ThetaTuple.__init__", "theta_build", None),
    ("algebra", "ThetaTuple.exp", "exp", _count("exp_calls")),
    ("algebra", "spectral_norm", "spectral_norm", _count("spectral_norm_calls")),
    ("algebra", "commutation_defect", None, None),
    ("gaussian", "build_cov_matrix", "gram_build", _gram),
    ("gaussian", "factor_covariance", "factor", _factor),
    ("gaussian", "SheetSampler.__init__", None, None),
    ("gaussian", "SheetSampler.sample", "draw", _draw),
    ("gaussian", "sample_sheet_batch", None, _batch_out),
    ("gaussian", "SampleBatch.save", None, None),
    ("gaussian", "load_batch", None, None),
    ("fields", "write_csv", "csv_write", _file_bytes("files_written", "bytes_written", 1)),
    ("fields", "read_csv", "csv_read", _file_bytes("files_read", "bytes_read", 0)),
    ("fields", "unit_increment_field", "increment", None),
    ("fields", "save_field", None, None),
    ("fields", "load_field", None, None),
    ("transforms", "lamperti", "lamperti", _transform),
    ("transforms", "lamperti_inv", "lamperti_inv", _transform),
    ("transforms", "m_forward", "m_forward", _transform),
    ("transforms", "m_inverse_truncated", "m_inverse", _minv),
    ("ar1", "stationary_solution", "stationary_solution", None),
    ("ar1", "noise_from_stationary", "noise_extract", None),
    ("ar1", "verify_ar1", "verify", None),
    ("ar1", "ar1_residual", "verify", None),
    ("ar1", "drift_field", "verify", None),
    ("fou", "FouConfig.__init__", "config", None),
    ("fou", "derive_theta", "config", None),
    ("fou", "mixing_commutes", "config", None),
    ("fou", "fou_batch", "batch", _batch_out),
    ("stats", "stationarity_check", "check", _comparisons),
    ("stats", "increment_stationarity_check", "check", _comparisons),
    ("stats", "self_similarity_check", "check", _comparisons),
    ("stats", "fidelity_check", "check", _comparisons),
    ("stats", "empirical_moments", "moments", None),
    ("cli", "main", None, _cli),
)

# Per-layer metrics: name -> (unit, how to compute it from the trace).
# ("self", layer, group) sums the self time of that group's spans, or of
# the whole layer when group is None; ("count", key) reads a counter;
# ("once", key) reads a value measured once per run; ("ratio", num, den)
# divides two counters (0 when nothing was counted).  Times and counts are
# per traced iteration.
LAYER_METRICS = {
    "algebra.theta_build_s": ("s", ("self", "algebra", "theta_build")),
    "algebra.exp_calls": ("count", ("count", "exp_calls")),
    "algebra.exp_s": ("s", ("self", "algebra", "exp")),
    "algebra.spectral_norm_calls": ("count", ("count", "spectral_norm_calls")),
    "algebra.spectral_norm_s": ("s", ("self", "algebra", "spectral_norm")),
    "gaussian.gram_build_s": ("s", ("self", "gaussian", "gram_build")),
    "gaussian.factor_s": ("s", ("self", "gaussian", "factor")),
    "gaussian.gram_sites": ("count", ("count", "gram_sites")),
    "gaussian.factor_flops_computed": ("flop", ("count", "factor_flops")),
    "gaussian.gram_bytes_computed": ("B", ("count", "gram_bytes")),
    "gaussian.useful_site_ratio": ("ratio", ("ratio", "output_sites", "sampled_sites")),
    "gaussian.draw_s": ("s", ("self", "gaussian", "draw")),
    "gaussian.draws": ("count", ("count", "draws")),
    "fields.csv_write_s": ("s", ("self", "fields", "csv_write")),
    "fields.files_written": ("count", ("count", "files_written")),
    "fields.bytes_written": ("B", ("count", "bytes_written")),
    "fields.csv_read_s": ("s", ("self", "fields", "csv_read")),
    "fields.files_read": ("count", ("count", "files_read")),
    "fields.bytes_read": ("B", ("count", "bytes_read")),
    "fields.increment_s": ("s", ("self", "fields", "increment")),
    "transforms.lamperti_s": ("s", ("self", "transforms", "lamperti")),
    "transforms.lamperti_inv_s": ("s", ("self", "transforms", "lamperti_inv")),
    "transforms.m_forward_s": ("s", ("self", "transforms", "m_forward")),
    "transforms.m_inverse_s": ("s", ("self", "transforms", "m_inverse")),
    "transforms.calls": ("count", ("count", "transform_calls")),
    "transforms.sites": ("count", ("count", "transform_sites")),
    "transforms.minv_useful_ratio": ("ratio", ("ratio", "minv_out_sites", "minv_box_sites")),
    "ar1.stationary_solution_s": ("s", ("self", "ar1", "stationary_solution")),
    "ar1.noise_extract_s": ("s", ("self", "ar1", "noise_extract")),
    "ar1.verify_s": ("s", ("self", "ar1", "verify")),
    "fou.config_s": ("s", ("self", "fou", "config")),
    "fou.batch_self_s": ("s", ("self", "fou", "batch")),
    "stats.check_s": ("s", ("self", "stats", "check")),
    "stats.comparisons": ("count", ("count", "comparisons")),
    "stats.moments_s": ("s", ("self", "stats", "moments")),
    "stats.moments_alloc_peak_mb": ("MB", ("once", "moments_alloc_peak_mb")),
    "cli.commands": ("count", ("count", "commands")),
    "cli.exit_nonzero": ("count", ("count", "exit_nonzero")),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", ("self", _layer, None))


def _resolve(module, path):
    """(owner, attribute, original) for ``module.path``, or None if absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.group_of = {}          # span name -> (layer, metric group)
        self.absent = []
        self.iteration = -1
        # Span columns, appended when a span ends.
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.span_iter = array("i")
        self._next_id = 0
        self._stack = []            # open spans: [id, child time]
        self.self_time = {}         # span name -> summed self time
        self.counts = {}
        self.bookkeeping = 0.0      # tracer time inside traced calls
        self.hook_errors = set()
        self._patches = []
        self._alloc_call = None     # last TRACK_ALLOC call: (fn, args, kwargs)

    # -- instrumentation

    def install(self):
        if self._patches:
            return
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for module, path, group, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            name = f"{module}.{path}"
            self.group_of[name] = (module, group)
            wrapper = self._wrap(original, name, hook, name == TRACK_ALLOC)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, name, hook, track_alloc):
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(frame, parent, nid, name, t0, t1)
                if parent is not None:
                    parent[1] += t1 - entered
            if track_alloc:
                tracer._alloc_call = (fn, args, kwargs)
            if hook is not None:
                try:
                    hook(tracer.counts, args, kwargs, result)
                except _HOOK_ERRORS:
                    # A changed signature or result type loses the counter,
                    # never the traced call.
                    tracer.hook_errors.add(name)
            # The wrapper's own work and the counter hook are charged to no
            # layer: the parent sees them as child time.
            done = perf_counter()
            tracer.bookkeeping += (t0 - entered) + (done - t1)
            if parent is not None:
                parent[1] += done - t1
            return result

        return wrapper

    def _record(self, frame, parent, nid, name, t0, t1):
        self.span_id.append(frame[0])
        self.parent_id.append(-1 if parent is None else parent[0])
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.span_iter.append(self.iteration)
        self.self_time[name] = self.self_time.get(name, 0.0) + (t1 - t0 - frame[1])

    def measure_alloc_peak(self):
        """Repeat the last ``TRACK_ALLOC`` call under tracemalloc, untimed.

        Allocation tracing slows every allocation, so it stays out of the
        traced spans; call this after the timed iterations.
        """
        if self._alloc_call is None:
            return
        fn, args, kwargs = self._alloc_call
        self._alloc_call = None
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.counts["moments_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- results

    def layer_metrics(self, iterations: int) -> dict:
        """Per-layer metrics per traced iteration (self times and counts)."""
        per = max(iterations, 1)
        out = {}
        for metric, (unit, (kind, *spec)) in LAYER_METRICS.items():
            if kind == "self":
                layer, group = spec
                value = sum(
                    t for name, t in self.self_time.items()
                    if self.group_of[name][0] == layer
                    and (group is None or self.group_of[name][1] == group)
                ) / per
            elif kind == "count":
                value = self.counts.get(spec[0], 0) / per
            elif kind == "once":
                value = self.counts.get(spec[0], 0.0)
            else:
                num, den = (self.counts.get(k, 0) for k in spec)
                value = num / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        for metric, value, unit in (
            ("trace.bookkeeping_s", self.bookkeeping / per, "s"),
            ("trace.spans", len(self.span_id) / per, "count"),
            ("trace.absent_spans", len(self.absent), "count"),
            ("trace.hook_errors", len(self.hook_errors), "count"),
        ):
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.array(self.span_id, dtype=np.int64),
            parent_id=np.array(self.parent_id, dtype=np.int64),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            iteration=np.array(self.span_iter, dtype=np.int32),
        )
