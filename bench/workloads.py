"""The benchmark's four workloads: inputs, pipeline steps and output checks.

Each workload is one closed-loop pipeline, run back to back by a single
client with the library's default ``--threads 1``.  ``prepare`` makes
every input from the workload seed before any timing starts; ``steps``
lists one iteration's calls into the library, each writing under a fresh
iteration directory.  Output checks run after the iteration, outside the
timed region, against references that do not go through
``fieldcorrespond.algebra``.

Statistical checks use ``z_max = 4.5`` instead of the CLI default 3.  At
the default a correct sampler fails a Bonferroni-corrected check with
probability 0.27 %, and the 30-row fidelity check (no correction) with
about 8 %; over the hundred-odd runs of one benchmark evaluation that
would report spurious failures.  At 4.5 the false-alarm rate is about
7e-6 per check (2e-4 for fidelity), while a wrong covariance still gives
|z| far beyond it at these replication counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

Z_MAX = 4.5
# Every Step label of every workload: the ``step_s.<label>`` figures.
STEP_LABELS = ("fou", "simulate", "transform", "ar1-verify", "stats",
               "sample", "checks", "moments")
Z_MAX_ARG = ["--z-max", str(Z_MAX)]

H = [[0.3, 0.7], [0.6, 0.4]]
A = [[1.0, 0.3], [0.3, 1.0]]


@dataclass
class Step:
    """One timed call.  ``label`` names the ``step_s.<label>`` figure it
    adds to; ``check`` gets the call's return value and returns a list of
    problems.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    imports: str            # module a user of this workload imports first
    params: dict
    prepare: Callable       # (seed, inputs dir, lib) -> context dict
    steps: Callable         # (context, iteration dir, lib) -> [Step]


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _cli_step(label, lib, argv, check):
    def run():
        return lib.cli.main(argv)

    def checked(code):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        return check()

    return Step(label, run, checked)


_NUMERIC = b"0123456789.,-+e\n"


def _check_batch_dir(directory: Path, replications: int, window: dict) -> list:
    """R replication files, a matching manifest, and only finite numbers."""
    try:
        man = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    if man.get("R") != replications:
        problems.append(f"manifest R={man.get('R')}, expected {replications}")
    if man.get("window") != window:
        problems.append(f"manifest window {man.get('window')}, expected {window}")
    files = sorted(directory.glob("rep_*.csv"))
    if len(files) != replications:
        problems.append(f"{len(files)} replication files, expected {replications}")
    volume = int(np.prod([h - l + 1 for l, h in zip(window["lo"], window["hi"])]))
    for path in files:
        body = path.read_bytes().split(b"\n", 1)[1]
        rows = body.count(b"\n")
        if rows != volume:
            problems.append(f"{path.name}: {rows} rows, expected {volume}")
        elif body.translate(None, _NUMERIC):
            problems.append(f"{path.name}: holds a non-finite or non-numeric value")
        if len(problems) > 5:
            break
    return problems


def _check_report(path: Path) -> list:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    if report.get("passed") is not True:
        return [f"{report.get('check')} check did not pass (max |z| {report.get('max_abs_z')})"]
    return []


def _read_field(path: Path, lo) -> np.ndarray:
    """Field CSV as a dense (shape..., n) array; lo is the window's low corner."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = rows[:, :2].astype(int)
    shape = tuple(t.max(axis=0) - np.asarray(lo) + 1)
    out = np.full(shape + (rows.shape[1] - 2,), np.nan)
    out[t[:, 0] - lo[0], t[:, 1] - lo[1]] = rows[:, 2:]
    return out


def _corners(values, lo, t, mats=None):
    """[(sign, v_{t-i})] over the corners i of the unit cube ending at t.

    With ``mats`` each value is first mapped by scipy's
    ``expm((t-i) * Theta)``.
    """
    terms = []
    for i in ((0, 0), (1, 0), (0, 1), (1, 1)):
        s = (t[0] - i[0], t[1] - i[1])
        v = values[s[0] - lo[0], s[1] - lo[1]]
        if mats is not None:
            v = expm(s[0] * mats[0] + s[1] * mats[1]) @ v
        terms.append(((-1) ** sum(i), v))
    return terms


def _delta(terms) -> np.ndarray:
    return sum(sign * v for sign, v in terms)


def _largest(terms) -> float:
    return max(float(np.abs(v).max()) for _, v in terms)


# ---------------------------------------------------------------------------
# fou-cli


def _fou_prepare(seed, inputs: Path, lib) -> dict:
    p = FOU_CLI.params
    config = {
        "kind": "first", "H": H, "A": A,
        "theta": _write_json(inputs / "theta.json", p["theta"]),
        "window": p["window"],
        "seed": int(np.random.default_rng(seed).integers(2**31)),
        "replications": p["R"],
    }
    return {"config": _write_json(inputs / "fou.json", config)}


def _fou_steps(ctx, it: Path, lib) -> list:
    p = FOU_CLI.params
    batch, report = it / "fou", it / "stats"
    return [
        _cli_step("fou", lib,
                  ["fou", "--config", ctx["config"], "--kind", "first", "--out", str(batch)],
                  lambda: _check_batch_dir(batch, p["R"], p["window"])),
        _cli_step("stats", lib,
                  ["stats", "--batch", str(batch), "--check", "stationarity",
                   "--shift", "1,0", "--shift", "0,1", *Z_MAX_ARG, "--out", str(report)],
                  lambda: _check_report(report / "stats_report.json")),
    ]


FOU_CLI = Workload(
    name="fou-cli",
    why=("first-kind fou with a 1,600-site Gram factorization per component, then "
         "stationarity stats: stresses gaussian factorization and algebra spectral_norm"),
    stresses="gaussian (Gram build, factorization) and the spectral_norm checks in algebra",
    bypasses="stats does little; transforms reuse one cached exponential stack",
    imports="fieldcorrespond.cli",
    params={
        "H": H, "A": A,
        "theta": {"n": 2, "N": 2, "mats": [[0.9, 0.0, 0.0, 1.2], [1.1, 0.0, 0.0, 1.0]]},
        "window": {"lo": [0, 0], "hi": [15, 15]}, "eps": "default (1e-8, depth 23)",
        "padded_window": "40 x 40", "R": 200,
        "stats": "stationarity --shift 1,0 --shift 0,1", "z_max": Z_MAX,
    },
    prepare=_fou_prepare,
    steps=_fou_steps,
)


# ---------------------------------------------------------------------------
# sheet-cli


def _sheet_prepare(seed, inputs: Path, lib) -> dict:
    p = SHEET_CLI.params
    config = {
        "H": H, "A": A, "window": p["window"], "clock": "integer",
        "seed": int(np.random.default_rng(seed).integers(2**31)),
        "replications": p["R"],
    }
    return {"config": _write_json(inputs / "sim.json", config)}


def _sheet_steps(ctx, it: Path, lib) -> list:
    p = SHEET_CLI.params
    batch, inc, fid = it / "sim", it / "incr", it / "fid"
    return [
        _cli_step("simulate", lib,
                  ["simulate", "--config", ctx["config"], "--out", str(batch)],
                  lambda: _check_batch_dir(batch, p["R"], p["window"])),
        _cli_step("stats", lib,
                  ["stats", "--batch", str(batch), "--check", "increment-stationarity",
                   "--shift", "1,1", *Z_MAX_ARG, "--out", str(inc)],
                  lambda: _check_report(inc / "stats_report.json")),
        _cli_step("stats", lib,
                  ["stats", "--batch", str(batch), "--check", "fidelity",
                   *Z_MAX_ARG, "--out", str(fid)],
                  lambda: _check_report(fid / "stats_report.json")),
    ]


SHEET_CLI = Workload(
    name="sheet-cli",
    why=("simulate 2,000 small sheets to CSV, then two stats checks that read them back: "
         "stresses fields CSV I/O and gaussian draws, bypasses factorization"),
    stresses="fields (CSV writes and reads) and per-replication draws in gaussian",
    bypasses="the Gram factorization (64 sites) and the transforms",
    imports="fieldcorrespond.cli",
    params={
        "H": H, "A": A, "clock": "integer",
        "window": {"lo": [1, 1], "hi": [8, 8]}, "R": 2000,
        "stats": ["increment-stationarity --shift 1,1", "fidelity"], "z_max": Z_MAX,
    },
    prepare=_sheet_prepare,
    steps=_sheet_steps,
)


# ---------------------------------------------------------------------------
# transform-cli

TRANSFORM_LO = (-64, -64)
TRANSFORM_HI = (63, 63)
TRANSFORM_DEPTH = 4
TRANSFORM_CHECK_SITES = 16
TRANSFORM_RTOL = 1e-10


def _transform_prepare(seed, inputs: Path, lib) -> dict:
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.1, np.pi / 2 - 0.1)
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    mats = []
    for _ in range(2):
        m = (q * rng.uniform(0.02, 0.06, size=2)) @ q.T
        mats.append((m + m.T) / 2.0)
    theta = {"n": 2, "N": 2, "mats": [m.reshape(-1).tolist() for m in mats]}
    shape = tuple(h - l + 1 for l, h in zip(TRANSFORM_LO, TRANSFORM_HI))
    x = rng.standard_normal(shape + (2,))
    field_csv = inputs / "field.csv"
    with open(field_csv, "w", encoding="utf-8") as fh:
        fh.write("t_1,t_2,x_1,x_2\n")
        for a in range(shape[0]):
            for b in range(shape[1]):
                v = x[a, b]
                fh.write(f"{a + TRANSFORM_LO[0]},{b + TRANSFORM_LO[1]},"
                         f"{float(v[0])!r},{float(v[1])!r}\n")
    _write_json(inputs / "field.json", {
        "N": 2, "n": 2, "lo": list(TRANSFORM_LO), "hi": list(TRANSFORM_HI),
        "clock": "integer", "seed": None,
    })
    # Check sites t need t - 1 inside the round trip's output window.
    low = TRANSFORM_LO[0] + TRANSFORM_DEPTH + 2
    sites = rng.integers(low, TRANSFORM_HI[0] + 1, size=(TRANSFORM_CHECK_SITES, 2))
    return {
        "theta": _write_json(inputs / "theta.json", theta),
        "field": str(field_csv),
        "x": x,
        "mats": mats,
        "sites": [tuple(int(v) for v in s) for s in sites],
    }


def _check_forward(ctx, path: Path) -> list:
    """Unit increments of G = M(L(x)) equal e^{-t Theta} Delta(e^{s Theta} x_s)_t.

    That checks the L output e^{t Theta} x_t, through M, against scipy's
    expm at sampled sites; the gap is relative to the largest term.
    """
    g = _read_field(path, TRANSFORM_LO)
    mats = ctx["mats"]
    worst = 0.0
    for t in ctx["sites"]:
        terms = _corners(ctx["x"], TRANSFORM_LO, t, mats)
        back = expm(-(t[0] * mats[0] + t[1] * mats[1]))
        gap = np.abs(_delta(_corners(g, TRANSFORM_LO, t)) - back @ _delta(terms)).max()
        worst = max(worst, gap / (np.linalg.norm(back, 2) * _largest(terms)))
    if worst > TRANSFORM_RTOL:
        return [f"L,M output off the expm reference by relative {worst:.3e}"]
    return []


def _check_round_trip(ctx, path: Path) -> list:
    """Minv,Linv output X' has Delta(e^{s Theta} X'_s)_t = Delta(e^{s Theta} x_s)_t."""
    lo = tuple(l + TRANSFORM_DEPTH + 1 for l in TRANSFORM_LO)
    xr = _read_field(path, lo)
    worst = 0.0
    for t in ctx["sites"]:
        got = _corners(xr, lo, t, ctx["mats"])
        ref = _corners(ctx["x"], TRANSFORM_LO, t, ctx["mats"])
        gap = np.abs(_delta(got) - _delta(ref)).max()
        worst = max(worst, gap / max(_largest(got), _largest(ref)))
    if worst > TRANSFORM_RTOL:
        return [f"Minv,Linv increments off the expm reference by relative {worst:.3e}"]
    return []


def _check_ar1(report_path: Path) -> list:
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"ar1 report unreadable: {exc}"]
    if not (report.get("pass") is True and report.get("max_residual", 1.0) <= 1e-10):
        return [f"ar1 max residual {report.get('max_residual')} above 1e-10"]
    return []


def _transform_steps(ctx, it: Path, lib) -> list:
    fwd, back, ar1 = it / "fwd", it / "back", it / "ar1"
    fwd_csv = fwd / "transformed.csv"
    return [
        _cli_step("transform", lib,
                  ["transform", "--input", ctx["field"], "--theta", ctx["theta"],
                   "--chain", "L,M", "--out", str(fwd)],
                  lambda: _check_forward(ctx, fwd_csv)),
        _cli_step("transform", lib,
                  ["transform", "--input", str(fwd_csv), "--theta", ctx["theta"],
                   "--chain", "Minv,Linv", "--depth", str(TRANSFORM_DEPTH),
                   "--out", str(back)],
                  lambda: _check_round_trip(ctx, back / "transformed.csv")),
        _cli_step("ar1-verify", lib,
                  ["ar1-verify", "--x", ctx["field"], "--theta", ctx["theta"],
                   "--extract-noise", "--out", str(ar1)],
                  lambda: _check_ar1(ar1 / "ar1_report.json")),
    ]


TRANSFORM_CLI = Workload(
    name="transform-cli",
    why=("L,M then Minv,Linv then ar1-verify on a 16,384-site field: one matrix "
         "exponential per site in algebra and transforms; gaussian and stats idle"),
    stresses="algebra (per-site exponentials) and transforms",
    bypasses="gaussian and stats do no work",
    imports="fieldcorrespond.cli",
    params={
        "window": {"lo": list(TRANSFORM_LO), "hi": list(TRANSFORM_HI)}, "n": 2,
        "theta": "rotated pair, shared non-diagonal eigenbasis, eigenvalues in [0.02, 0.06]",
        "commands": ["transform --chain L,M",
                     f"transform --chain Minv,Linv --depth {TRANSFORM_DEPTH}",
                     "ar1-verify --extract-noise"],
        "check_sites": TRANSFORM_CHECK_SITES, "rtol": TRANSFORM_RTOL,
    },
    prepare=_transform_prepare,
    steps=_transform_steps,
)


# ---------------------------------------------------------------------------
# moments-lib

MOMENTS_SHIFTS = [(1, 0), (0, 1), (1, 1)]


def _moments_prepare(seed, inputs: Path, lib) -> dict:
    fc = lib.fc
    p = MOMENTS_LIB.params
    seeds = np.random.default_rng(seed).integers(2**31, size=2)
    return {
        "hurst": fc.HurstSpec(np.array(H)),
        "mixing": np.diag(p["A_diag"]),
        "window": fc.Window(tuple(p["window"]["lo"]), tuple(p["window"]["hi"])),
        "seeds": [int(s) for s in seeds],
    }


def _check_lib_batch(batch, replications) -> list:
    if batch.replications != replications:
        return [f"{batch.replications} replications, expected {replications}"]
    data = np.stack([f.values for f in batch.fields])
    if not np.all(np.isfinite(data)):
        return ["batch holds non-finite values"]
    return []


def _check_passed(report) -> list:
    if report.passed:
        return []
    return [f"{report.check} check did not pass (max |z| {report.max_abs_z:.2f})"]


def _check_moments(summary, batch) -> list:
    data = np.stack([f.values for f in batch.fields])
    flat = data.reshape(data.shape[0], -1)
    ref = np.cov(flat, rowvar=False)
    gap = float(np.abs(summary.cov - ref).max() / np.abs(ref).max())
    if gap > 1e-10:
        return [f"empirical_moments cov off np.cov by relative {gap:.3e}"]
    return []


def _moments_steps(ctx, it: Path, lib) -> list:
    fc = lib.fc
    p = MOMENTS_LIB.params
    r = p["R"]
    out = {}

    def sample_fou():
        cfg = fc.FouConfig(kind="second", hurst=ctx["hurst"], mixing=ctx["mixing"],
                           window=ctx["window"], seed=ctx["seeds"][0], replications=r)
        out["fou"] = fc.fou_batch(cfg)
        return out["fou"]

    def sample_sheet():
        out["sheet"] = fc.sample_sheet_batch(ctx["mixing"], ctx["hurst"], ctx["window"],
                                             "exponential", ctx["seeds"][1], r)
        return out["sheet"]

    def batch_ok(batch):
        return _check_lib_batch(batch, r)

    def stationarity():
        return fc.stationarity_check(out["fou"], MOMENTS_SHIFTS, z_max=Z_MAX)

    def increment_stationarity():
        return fc.increment_stationarity_check(out["fou"], MOMENTS_SHIFTS, z_max=Z_MAX)

    def self_similarity():
        theta = fc.derive_theta(ctx["hurst"])
        return fc.self_similarity_check(out["sheet"], (1, 1), theta, z_max=Z_MAX)

    def moments():
        return fc.empirical_moments(out["fou"])

    return [
        Step("sample", sample_fou, batch_ok),
        Step("sample", sample_sheet, batch_ok),
        Step("checks", stationarity, _check_passed),
        Step("checks", increment_stationarity, _check_passed),
        Step("checks", self_similarity, _check_passed),
        Step("moments", moments, lambda s: _check_moments(s, out["fou"])),
    ]


MOMENTS_LIB = Workload(
    name="moments-lib",
    why=("in-process fou_batch and sheet sampling at R=10^4, stats checks and "
         "empirical_moments: stresses stats and per-call overhead, bypasses cli and fields"),
    stresses="stats (empirical_moments builds an R x q x q tensor) and per-call overhead",
    bypasses="cli and fields (no CLI, no disk I/O)",
    imports="fieldcorrespond",
    params={
        "H": H, "A_diag": [1.0, 0.5], "window": {"lo": [-2, -2], "hi": [2, 2]}, "R": 10_000,
        "sample": ["fou_batch kind=second", "sample_sheet_batch clock=exponential"],
        "checks": ["stationarity shifts (1,0),(0,1),(1,1)",
                   "increment_stationarity shifts (1,0),(0,1),(1,1)",
                   "self_similarity shift (1,1), derived theta"],
        "moments": "empirical_moments over all 25 sites (q=50)", "z_max": Z_MAX,
    },
    prepare=_moments_prepare,
    steps=_moments_steps,
)


WORKLOADS = {w.name: w for w in (FOU_CLI, SHEET_CLI, TRANSFORM_CLI, MOMENTS_LIB)}
