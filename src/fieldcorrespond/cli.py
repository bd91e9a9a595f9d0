"""Command-line interface.

Subcommands: simulate | transform | ar1-verify | fou | stats.  Runs are
configured by JSON files with flag overrides.  Each subcommand only
computes; main writes its outputs plus a resolved-config snapshot into a
hidden staging directory and only then moves them to --out (a new --out
is the staging sibling renamed; an existing empty one is kept and filled
from a stage inside it), so --out appears only once complete, a failed
run leaves nothing behind, and a failed check (exit 4) still publishes
its report.  Exit codes:

    0  success / checks passed
    2  configuration or schema error
    3  numeric or window error
    4  verification failure

One rule sets the exit code of a bad input: while a command turns its
config, flags and input files into library objects, a value that a
library constructor or reader refuses is a configuration error (2),
whichever one refuses it; malformed JSON in any input file is one, and so
is an input path that cannot be read (missing, a directory, no
permission), a batch directory without values.npy, and an --out path that
is not a new or empty directory, which is refused before any input is
read: a run never merges into, or leaves stale files beside, earlier
output; so is an OSError while --out is made, filled or renamed.  Two
refusals keep exit 3: NumericRangeError (GRID_CAP, the exponential-clock
limit, overflow, a batch too large to allocate) and faults in the data of
an input file: the data-line errors of a field CSV from read_csv, and a
batch's values.npy that load_batch finds truncated, foreign or
non-finite.

--threads is still accepted, validated and recorded in
resolved_config.json so that existing scripts keep working, but it has
no effect: every command runs on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._jsonio import dump_json, load_json
from .algebra import ThetaTuple
from .ar1 import noise_from_stationary, verify_ar1
from .errors import (
    CommutationError,
    ConfigError,
    DimensionMismatchError,
    NumericRangeError,
    WindowError,
    check_threshold,
)
from .fields import CLOCKS, Window, load_field, read_csv, save_field, sidecar_path
from .fou import FouConfig, derive_theta, fou_batch
from .gaussian import HurstSpec, as_mixing, load_batch, read_manifest, sample_sheet_batch
from .stats import (
    STATS_VERSION,
    fidelity_check,
    increment_stationarity_check,
    self_similarity_check,
    stationarity_check,
)
from .transforms import (
    TRANSFORMS_VERSION,
    TruncationPolicy,
    lamperti,
    lamperti_inv,
    m_forward,
    m_inverse_truncated,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


@contextlib.contextmanager
def _refused(what: str):
    """The exit-code rule: a refusal while ``what`` is built is a ConfigError.

    NumericRangeError passes unchanged; a missing key names the key.
    """
    try:
        yield
    except NumericRangeError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} has no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


@contextlib.contextmanager
def _input_file():
    """An OSError while an input path is read is a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read input: {exc}") from exc


def _threads(args) -> int:
    try:
        t = int(args.threads)
    except ValueError:
        raise ConfigError(f"thread count must be an integer, got {args.threads!r}") from None
    if t < 1:
        raise ConfigError(f"thread count must be >= 1, got {t}")
    return t


@_input_file()
def _load_config(path) -> dict:
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, required: set, what: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{what} config has unknown keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{what} config is missing keys: {sorted(missing)}")


def _sheet_inputs(args, cfg: dict) -> tuple:
    """``(hurst, window, mixing, seed, replications)`` of a simulate or fou run.

    A missing ``A`` is the identity; the seed and count flags override the
    config, and the library checks them when it draws.
    """
    with _refused("Hurst spec"):
        hurst = HurstSpec(cfg["H"])
    with _refused("window"):
        window = Window.from_dict(cfg["window"])
    if window.N != hurst.N:
        raise ConfigError(f"window has N={window.N}, Hurst spec has N={hurst.N}")
    with _refused("mixing matrix"):
        a = cfg.get("A")
        mixing = as_mixing(np.eye(hurst.n) if a is None else a, hurst.n)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    reps = args.replications if args.replications is not None else cfg.get("replications")
    if seed is None or reps is None:
        raise ConfigError(
            f"{args.command} needs 'seed' and 'replications' (config or flags)")
    return hurst, window, mixing, seed, reps


@_input_file()
def _load_field_arg(path):
    """Field CSV with its JSON sidecar, or a batch replication.

    Batch replications carry no per-file sidecar; their geometry lives in
    the batch-level manifest.json next to them.
    """
    if os.path.exists(sidecar_path(path)):
        return load_field(path)
    try:
        _, window, clock, n = read_manifest(os.path.dirname(os.path.abspath(path)))
    except FileNotFoundError:
        raise ConfigError(
            f"{path} has neither a JSON sidecar nor a batch manifest.json beside it"
        ) from None
    return read_csv(path, window, n, clock)


@_input_file()
@_refused("tuple")
def _parse_theta(spec) -> tuple:
    """A tuple from a JSON file path or an inline object, and its reference."""
    if isinstance(spec, str):
        return ThetaTuple.load(spec), spec
    if isinstance(spec, dict):
        return ThetaTuple.from_dict(spec), "inline"
    raise ConfigError(f"theta must be a file path or an inline object, got {spec!r}")


def _check_out(out: Path) -> None:
    """Refuse an --out path that is a non-empty directory, or that is, or
    lies under, an existing file, so that the command fails before it
    reads or draws anything."""
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out {out}: {p} exists and is not a directory")
            if p == out:
                try:
                    entries = os.listdir(out)
                except OSError as exc:
                    raise ConfigError(f"--out {out}: {exc}") from None
                if entries:
                    raise ConfigError(f"--out {out} is not empty; give a new or "
                                      f"empty directory")
            return


def _publish(out: str, write, resolved: dict) -> None:
    """Write the outputs into a hidden stage directory, then move them to ``out``.

    A new ``out`` is staged as a sibling, made with its missing parents by
    a plain mkdir (so with the mode the umask gives), and renamed to
    ``out``.  An existing, empty ``out`` (a mount point, say, or a
    directory in a parent the user cannot write) is kept with its inode,
    mode and owner: the stage is made inside it and each entry is moved
    up, resolved_config.json last.  On any exception the stage, the
    entries moved and the parents made here are removed, so ``out`` is
    left as it was; an OSError becomes a ConfigError naming ``out``.
    """
    target = Path(os.path.realpath(out))
    fresh = not target.exists()
    made = [p for p in target.parents if not p.exists()]
    home = target.parent if fresh else target
    stage = home / f".{target.name}.{os.urandom(4).hex()}.partial"
    moved = []
    try:
        if fresh:
            target.parent.mkdir(parents=True, exist_ok=True)
        stage.mkdir()
        write(stage)
        dump_json(resolved, stage / "resolved_config.json")
        if fresh:
            stage.rename(target)
            return
        for name in sorted(os.listdir(stage), key="resolved_config.json".__eq__):
            os.replace(stage / name, target / name)
            moved.append(target / name)
        stage.rmdir()
    except BaseException as exc:
        shutil.rmtree(stage, ignore_errors=True)
        for p in moved:
            with contextlib.suppress(OSError):
                p.unlink()
        for p in made:
            with contextlib.suppress(OSError):
                p.rmdir()
        if isinstance(exc, OSError):
            raise ConfigError(f"--out {out}: {exc}") from None
        raise


def _int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{what} must be a comma list of integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands.  Each maps args to what it computed, which main publishes:
# (its resolved_config.json entries after "command" and "threads", a writer
# of its files into a given directory, its summary line, and the text of a
# failed check or None).


def cmd_simulate(args) -> tuple:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        allowed={"H", "A", "window", "clock", "seed", "replications"},
        required={"H", "window"},
        what="simulate",
    )
    hurst, window, mixing, seed, reps = _sheet_inputs(args, cfg)
    clock = cfg.get("clock", "integer")
    if clock not in CLOCKS:
        raise ConfigError(f"clock must be one of {CLOCKS}, got {clock!r}")
    batch = sample_sheet_batch(mixing, hurst, window, clock, seed, reps)
    summary = f"simulate: wrote {batch.replications} replications to {Path(args.out)}"
    return {"config": batch.manifest()}, batch.save, summary, None


def cmd_transform(args) -> tuple:
    x = _load_field_arg(args.input)
    theta, theta_ref = _parse_theta(args.theta)
    steps = [s.strip() for s in args.chain.split(",") if s.strip()]
    valid = {"L", "Linv", "M", "Minv"}
    if not steps or not set(steps) <= valid:
        raise ConfigError(f"chain must list steps from {sorted(valid)}, got {args.chain!r}")
    depth = None if args.depth is None else _int_list(args.depth, "--depth")
    # One depth is broadcast to every axis.
    policy = TruncationPolicy(eps=args.eps,
                              depth=depth[0] if depth and len(depth) == 1 else depth)
    for step in steps:
        if step == "L":
            x = lamperti(x, theta, theta_ref)
        elif step == "Linv":
            x = lamperti_inv(x, theta, theta_ref)
        elif step == "M":
            x = m_forward(x, theta, theta_ref)
        else:
            x = m_inverse_truncated(x, theta, policy, theta_ref=theta_ref)
    resolved = {
        "input": str(args.input),
        "theta": theta_ref,
        "chain": steps,
        "policy": {"eps": policy.eps, "depth": None if depth is None else list(depth)},
        "output_window": x.window.to_dict(),
        "clock": x.clock,
        "transforms": TRANSFORMS_VERSION,
    }
    summary = f"transform: {','.join(steps)} -> window {x.window} ({x.clock} clock)"
    return resolved, lambda d: save_field(x, d / "transformed.csv"), summary, None


def cmd_ar1_verify(args) -> tuple:
    check_threshold(args.tolerance, "--tolerance", zero_ok=True)
    x = _load_field_arg(args.x)
    theta, theta_ref = _parse_theta(args.theta)
    if args.extract_noise:
        g = noise_from_stationary(x, theta)
    elif args.g:
        g = _load_field_arg(args.g)
    else:
        raise ConfigError("ar1-verify needs --g FIELD or --extract-noise")
    report = verify_ar1(x, g, theta, args.tolerance)

    def write(directory: Path) -> None:
        if args.extract_noise:
            save_field(g, directory / "noise.csv")
        dump_json(report, directory / "ar1_report.json")

    resolved = {
        "x": str(args.x),
        "g": str(args.g) if args.g else "extracted",
        "theta": theta_ref,
        "tolerance": args.tolerance,
        "transforms": TRANSFORMS_VERSION,
    }
    status = "PASS" if report["pass"] else "FAIL"
    summary = (
        f"ar1-verify: {status} max residual {report['max_residual']:.3e} over "
        f"{report['sites']} sites (tolerance {report['tolerance']:g})"
    )
    failure = None if report["pass"] else (
        f"AR(1) residual {report['max_residual']:.3e} exceeds tolerance "
        f"{report['tolerance']:g} at {len(report['offending_sites'])} listed sites"
    )
    return resolved, write, summary, failure


def _build_fou_config(args) -> FouConfig:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        allowed={"kind", "H", "A", "theta", "window", "policy", "seed", "replications"},
        required={"H", "window"},
        what="fou",
    )
    kind = args.kind if args.kind is not None else cfg.get("kind")
    if kind is None:
        raise ConfigError("fou needs 'kind' (config or --kind)")
    hurst, window, mixing, seed, reps = _sheet_inputs(args, cfg)
    theta = None if cfg.get("theta") is None else _parse_theta(cfg["theta"])[0]
    policy = cfg.get("policy")
    with _refused("fou config"):
        return FouConfig(
            kind=kind,
            hurst=hurst,
            mixing=mixing,
            window=window,
            theta=theta,
            policy=TruncationPolicy(**({} if policy is None else policy)),
            seed=seed,
            replications=reps,
        )


def cmd_fou(args) -> tuple:
    cfg = _build_fou_config(args)
    batch = fou_batch(cfg)
    summary = f"fou: kind={cfg.kind} wrote {batch.replications} replications to {Path(args.out)}"
    return {"config": batch.manifest()}, batch.save, summary, None


def cmd_stats(args) -> tuple:
    check_threshold(args.z_max, "--z-max")
    with _input_file():
        batch = load_batch(args.batch)
    shifts = [_int_list(s, "shift") for s in args.shift or []]
    if any(len(s) != batch.window.N for s in shifts):
        raise ConfigError(f"every shift needs N={batch.window.N} entries, got {shifts}")
    if args.check == "stationarity":
        if not shifts:
            raise ConfigError("stationarity needs at least one --shift")
        report = stationarity_check(batch, shifts, z_max=args.z_max)
    elif args.check == "increment-stationarity":
        if not shifts:
            raise ConfigError("increment-stationarity needs at least one --shift")
        report = increment_stationarity_check(batch, shifts, z_max=args.z_max)
    elif args.check == "self-similarity":
        if len(shifts) != 1:
            raise ConfigError("self-similarity needs exactly one --shift")
        if args.theta:
            theta, _ = _parse_theta(args.theta)
        else:
            with _refused("batch manifest"):
                theta = derive_theta(HurstSpec(batch.config["H"]))
        report = self_similarity_check(batch, shifts[0], theta, z_max=args.z_max)
    elif args.check == "fidelity":
        with _refused("batch manifest"):
            hurst, a = HurstSpec(batch.config["H"]), batch.config["A"]
        with _refused("mixing matrix"):
            mixing = as_mixing(a, hurst.n)
        report = fidelity_check(batch, hurst, mixing, z_max=args.z_max)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown check {args.check!r}")
    resolved = {
        "batch": str(args.batch),
        "check": args.check,
        "shifts": [list(s) for s in shifts],
        "z_max": args.z_max,
        "stats": STATS_VERSION,
    }
    status = "PASS" if report.passed else "FAIL"
    mz = report.max_abs_z
    summary = (
        f"stats[{report.check}]: {status} ({report.n_comparisons} comparisons, "
        f"max |z| = {'inf' if mz == float('inf') else f'{mz:.2f}'}, "
        f"threshold {report.z_threshold:.2f})"
    )
    failure = None if report.passed else f"{report.check} check failed"
    return (resolved, lambda d: dump_json(report.to_dict(), d / "stats_report.json"),
            summary, failure)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="field-correspond",
        description="Stationary / self-similar / stationary-increment field toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--threads", default="1",
                        help="thread count, recorded but without effect")

    sp = sub.add_parser("simulate", help="sample a fractional sheet batch")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--replications", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("transform", help="apply a transform chain to a field file")
    sp.add_argument("--input", required=True, help="field CSV (sidecar JSON expected)")
    sp.add_argument("--theta", required=True, help="tuple JSON file")
    sp.add_argument("--chain", required=True, help="comma list of L,Linv,M,Minv")
    sp.add_argument("--eps", type=float, default=1e-8)
    sp.add_argument("--depth", default=None, help="per-axis depth, comma list")
    common(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("ar1-verify", help="check the AR(1) identity per path")
    sp.add_argument("--x", required=True, help="stationary field CSV")
    sp.add_argument("--g", default=None, help="noise field CSV")
    sp.add_argument("--extract-noise", action="store_true",
                    help="derive the noise from --x instead of reading --g")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--tolerance", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(func=cmd_ar1_verify)

    sp = sub.add_parser("fou", help="sample a fractional Ornstein-Uhlenbeck batch")
    sp.add_argument("--config", required=True)
    sp.add_argument("--kind", choices=("first", "second"), default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--replications", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_fou)

    sp = sub.add_parser("stats", help="distributional checks on a saved batch")
    sp.add_argument("--batch", required=True, help="batch directory (manifest.json)")
    sp.add_argument(
        "--check",
        required=True,
        choices=("stationarity", "increment-stationarity", "self-similarity", "fidelity"),
    )
    sp.add_argument("--shift", action="append", default=None,
                    help="comma list of per-axis offsets; repeatable")
    sp.add_argument("--theta", default=None,
                    help="tuple JSON for self-similarity (default: derived from H)")
    sp.add_argument("--z-max", type=float, default=3.0)
    common(sp)
    sp.set_defaults(func=cmd_stats)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(Path(args.out))
        threads = _threads(args)
        resolved, write, summary, failure = args.func(args)
        _publish(args.out, write, {"command": args.command, "threads": threads, **resolved})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        WindowError,
        NumericRangeError,
        CommutationError,
        DimensionMismatchError,
        np.linalg.LinAlgError,
        OverflowError,
        FloatingPointError,
    ) as exc:
        print(f"numeric/window error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(summary)
    if failure is not None:
        print(f"verification failure: {failure}", file=sys.stderr)
    return EXIT_OK if failure is None else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
