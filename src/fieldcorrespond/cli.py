"""Command-line interface.

Subcommands: simulate | transform | ar1-verify | fou | stats.  Runs are
configured by JSON files with flag overrides, write their outputs plus a
resolved-config snapshot into --out, and use exit codes

    0  success / checks passed
    2  configuration or schema error
    3  numeric or window error
    4  verification failure

A thread count from --threads or the FIELD_CORRESPOND_THREADS environment
variable is still accepted, validated and recorded in resolved_config.json
so that existing scripts keep working, but it has no effect: every command
runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
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
    VerificationError,
    WindowError,
)
from .fields import CLOCKS, Window, load_field, read_csv, save_field, sidecar_path
from .fou import FouConfig, derive_theta, fou_batch
from .gaussian import HurstSpec, load_batch, sample_sheet_batch
from .stats import (
    fidelity_check,
    increment_stationarity_check,
    self_similarity_check,
    stationarity_check,
)
from .transforms import (
    TRANSFORMS_VERSION,
    TruncationPolicy,
    check_threshold,
    lamperti,
    lamperti_inv,
    m_forward,
    m_inverse_truncated,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

ENV_THREADS = "FIELD_CORRESPOND_THREADS"


def _threads(args) -> int:
    raw = args.threads
    if raw is None:
        raw = os.environ.get(ENV_THREADS, "1")
    try:
        t = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"thread count must be an integer, got {raw!r}")
    if t < 1:
        raise ConfigError(f"thread count must be >= 1, got {t}")
    return t


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
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


def _parse_window(spec) -> Window:
    if not (isinstance(spec, dict) and set(spec) == {"lo", "hi"}):
        raise ConfigError(f"window must be an object with 'lo' and 'hi', got {spec!r}")
    try:
        return Window(tuple(spec["lo"]), tuple(spec["hi"]))
    except (WindowError, DimensionMismatchError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad window {spec!r}: {exc}")


def _load_field_arg(path):
    """Field CSV with its JSON sidecar, or a batch replication.

    Batch replications carry no per-file sidecar; their geometry lives in
    the batch-level manifest.json next to them.
    """
    if os.path.exists(sidecar_path(path)):
        return load_field(path)
    manifest = os.path.join(os.path.dirname(os.path.abspath(path)), "manifest.json")
    if not os.path.exists(manifest):
        raise ConfigError(
            f"{path} has neither a JSON sidecar nor a batch manifest.json beside it"
        )
    man = load_json(manifest)
    try:
        window = Window(tuple(man["window"]["lo"]), tuple(man["window"]["hi"]))
        clock = man["clock"]
        n = len(man["A"])
    except (KeyError, TypeError, ValueError, WindowError) as exc:
        raise ConfigError(f"malformed batch manifest {manifest}: {exc}")
    return read_csv(path, window, n, clock)


def _parse_theta(spec) -> tuple:
    """Accept a path to a tuple JSON file or an inline object."""
    try:
        if isinstance(spec, str):
            return ThetaTuple.load(spec), spec
        if isinstance(spec, dict):
            return ThetaTuple.from_dict(spec), "inline"
    except FileNotFoundError:
        raise ConfigError(f"tuple file not found: {spec}")
    except DimensionMismatchError as exc:
        raise ConfigError(f"bad tuple: {exc}")
    raise ConfigError(f"theta must be a file path or an inline object, got {spec!r}")


def _parse_policy(spec) -> TruncationPolicy:
    if spec is None:
        return TruncationPolicy()
    if not isinstance(spec, dict) or not set(spec) <= {"eps", "depth"}:
        raise ConfigError(f"policy must be an object with 'eps'/'depth', got {spec!r}")
    eps = spec.get("eps", 1e-8)
    depth = spec.get("depth")
    if isinstance(depth, list):
        depth = tuple(depth)
    return TruncationPolicy(eps=eps, depth=depth)


def _parse_hurst(spec) -> HurstSpec:
    try:
        return HurstSpec(np.asarray(spec, dtype=float))
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad Hurst spec {spec!r}: {exc}")


def _parse_mixing(spec, n: int) -> np.ndarray:
    if spec is None:
        return np.eye(n)
    try:
        a = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mixing matrix {spec!r}: {exc}")
    if a.shape != (n, n):
        raise ConfigError(f"mixing matrix must be {n} x {n}, got shape {a.shape}")
    return a


def _manifest_entry(batch, key: str):
    try:
        return batch.config[key]
    except KeyError:
        raise ConfigError(f"batch manifest has no {key!r}") from None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(out: Path, payload: dict) -> None:
    dump_json(payload, out / "resolved_config.json")


def _parse_shift(text: str, nn: int) -> tuple:
    try:
        s = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"shift must be comma-separated integers, got {text!r}")
    if len(s) != nn:
        raise ConfigError(f"shift {s} has length {len(s)}, window has N={nn}")
    return s


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    threads = _threads(args)
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        allowed={"H", "A", "window", "clock", "seed", "replications"},
        required={"H", "window"},
        what="simulate",
    )
    hurst = _parse_hurst(cfg["H"])
    window = _parse_window(cfg["window"])
    clock = cfg.get("clock", "integer")
    if clock not in CLOCKS:
        raise ConfigError(f"clock must be one of {CLOCKS}, got {clock!r}")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    reps = args.replications if args.replications is not None else cfg.get("replications")
    if seed is None or reps is None:
        raise ConfigError("simulate needs 'seed' and 'replications' (config or flags)")
    mixing = _parse_mixing(cfg.get("A"), hurst.n)
    batch = sample_sheet_batch(mixing, hurst, window, clock, seed, reps)
    out = _outdir(args)
    batch.save(out)
    _write_resolved(
        out,
        {
            "command": "simulate",
            "threads": threads,
            "config": batch.manifest(),
        },
    )
    print(f"simulate: wrote {batch.replications} replications to {out}")
    return EXIT_OK


def cmd_transform(args) -> int:
    threads = _threads(args)
    x = _load_field_arg(args.input)
    theta, theta_ref = _parse_theta(args.theta)
    steps = [s.strip() for s in args.chain.split(",") if s.strip()]
    valid = {"L", "Linv", "M", "Minv"}
    if not steps or not set(steps) <= valid:
        raise ConfigError(f"chain must list steps from {sorted(valid)}, got {args.chain!r}")
    depth = None
    if args.depth is not None:
        try:
            depth = tuple(int(v) for v in args.depth.split(","))
        except ValueError:
            raise ConfigError(
                f"--depth must be a comma list of integers, got {args.depth!r}"
            )
        if len(depth) == 1:
            depth = depth[0]
    policy = TruncationPolicy(eps=args.eps, depth=depth)
    for step in steps:
        if step == "L":
            x = lamperti(x, theta, theta_ref)
        elif step == "Linv":
            x = lamperti_inv(x, theta, theta_ref)
        elif step == "M":
            x = m_forward(x, theta, theta_ref)
        else:
            x = m_inverse_truncated(x, theta, policy, theta_ref=theta_ref)
    out = _outdir(args)
    save_field(x, out / "transformed.csv")
    _write_resolved(
        out,
        {
            "command": "transform",
            "threads": threads,
            "input": str(args.input),
            "theta": theta_ref,
            "chain": steps,
            "policy": {"eps": policy.eps,
                       "depth": None if policy.depth is None else list(
                           policy.depth if isinstance(policy.depth, tuple)
                           else [policy.depth])},
            "output_window": x.window.to_dict(),
            "clock": x.clock,
            "transforms": TRANSFORMS_VERSION,
        },
    )
    print(f"transform: {','.join(steps)} -> window {x.window} ({x.clock} clock)")
    return EXIT_OK


def cmd_ar1_verify(args) -> int:
    threads = _threads(args)
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
    out = _outdir(args)
    if args.extract_noise:
        save_field(g, out / "noise.csv")
    dump_json(report, out / "ar1_report.json")
    _write_resolved(
        out,
        {
            "command": "ar1-verify",
            "threads": threads,
            "x": str(args.x),
            "g": str(args.g) if args.g else "extracted",
            "theta": theta_ref,
            "tolerance": args.tolerance,
            "transforms": TRANSFORMS_VERSION,
        },
    )
    status = "PASS" if report["pass"] else "FAIL"
    print(
        f"ar1-verify: {status} max residual {report['max_residual']:.3e} over "
        f"{report['sites']} sites (tolerance {report['tolerance']:g})"
    )
    if not report["pass"]:
        raise VerificationError(
            f"AR(1) residual {report['max_residual']:.3e} exceeds tolerance "
            f"{report['tolerance']:g} at {len(report['offending_sites'])} listed sites"
        )
    return EXIT_OK


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
    hurst = _parse_hurst(cfg["H"])
    window = _parse_window(cfg["window"])
    seed = args.seed if args.seed is not None else cfg.get("seed")
    reps = args.replications if args.replications is not None else cfg.get("replications")
    if seed is None or reps is None:
        raise ConfigError("fou needs 'seed' and 'replications' (config or flags)")
    theta = None
    if cfg.get("theta") is not None:
        theta, _ = _parse_theta(cfg["theta"])
    mixing = _parse_mixing(cfg.get("A"), hurst.n)
    policy = _parse_policy(cfg.get("policy"))
    try:
        return FouConfig(
            kind=kind,
            hurst=hurst,
            mixing=mixing,
            window=window,
            theta=theta,
            policy=policy,
            seed=seed,
            replications=reps,
        )
    except CommutationError as exc:
        raise ConfigError(str(exc))


def cmd_fou(args) -> int:
    threads = _threads(args)
    cfg = _build_fou_config(args)
    batch = fou_batch(cfg)
    out = _outdir(args)
    batch.save(out)
    _write_resolved(
        out,
        {"command": "fou", "threads": threads, "config": batch.manifest()},
    )
    print(
        f"fou: kind={cfg.kind} wrote {batch.replications} replications to {out}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    threads = _threads(args)
    check_threshold(args.z_max, "--z-max")
    batch = load_batch(args.batch)
    shifts = [_parse_shift(s, batch.window.N) for s in (args.shift or [])]
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
            theta = derive_theta(_parse_hurst(_manifest_entry(batch, "H")))
        report = self_similarity_check(batch, shifts[0], theta, z_max=args.z_max)
    elif args.check == "fidelity":
        hurst = _parse_hurst(_manifest_entry(batch, "H"))
        mixing = _parse_mixing(_manifest_entry(batch, "A"), hurst.n)
        report = fidelity_check(batch, hurst, mixing, z_max=args.z_max)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown check {args.check!r}")
    out = _outdir(args)
    dump_json(report.to_dict(), out / "stats_report.json")
    _write_resolved(
        out,
        {
            "command": "stats",
            "threads": threads,
            "batch": str(args.batch),
            "check": args.check,
            "shifts": [list(s) for s in shifts],
            "z_max": args.z_max,
        },
    )
    status = "PASS" if report.passed else "FAIL"
    mz = report.max_abs_z
    print(
        f"stats[{report.check}]: {status} ({report.n_comparisons} comparisons, "
        f"max |z| = {'inf' if mz == float('inf') else f'{mz:.2f}'}, "
        f"threshold {report.z_threshold:.2f})"
    )
    if not report.passed:
        raise VerificationError(f"{report.check} check failed")
    return EXIT_OK


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
        sp.add_argument("--threads", default=None,
                        help=f"thread count, recorded but without effect "
                             f"(default ${ENV_THREADS} or 1)")

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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
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
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
