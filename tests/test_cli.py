"""End-to-end CLI tests: exit codes, file outputs, determinism.

Each run goes through cli.main(argv) so the mapping from exception to
exit code is exercised exactly as the console entry point would.
"""

import copy
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcorrespond import (
    FieldWindow,
    ThetaTuple,
    TruncationPolicy,
    Window,
    save_field,
)
from fieldcorrespond.cli import main
from fieldcorrespond.stats import STATS_VERSION


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def sheet_config(tmp_path, **overrides):
    cfg = {
        "H": [[0.3, 0.7]],
        "window": {"lo": [0, 0], "hi": [3, 3]},
        "clock": "integer",
        "seed": 11,
        "replications": 5,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "sim.json", cfg)


def theta_file(tmp_path, mats):
    path = tmp_path / "theta.json"
    ThetaTuple(mats).save(path)
    return str(path)


def read_tree(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_batch(tmp_path, capsys):
    cfg = sheet_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "values.npy").exists()
    assert (out / "rep_00004.csv").exists()
    assert (out / "resolved_config.json").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 11 and man["R"] == 5
    assert man["sampler"] == "kron-v3"
    assert "wrote 5 replications" in capsys.readouterr().out


def test_simulate_flag_overrides(tmp_path):
    cfg = sheet_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", cfg, "--out", str(out),
          "--seed", "99", "--replications", "2"])
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 99 and man["R"] == 2


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = sheet_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2)])
    assert read_tree(out1) == read_tree(out2)


def test_simulate_threads_byte_identical(tmp_path):
    cfg = sheet_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1), "--threads", "1"])
    main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "4"])
    tree1, tree2 = read_tree(out1), read_tree(out2)
    # resolved_config records the thread count; everything else is identical
    tree1.pop("resolved_config.json")
    tree2.pop("resolved_config.json")
    assert tree1 == tree2


def test_simulate_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_unknown_key_exits_2(tmp_path):
    cfg = sheet_config(tmp_path, fast=True)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_missing_key_exits_2(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"H": [[0.5]]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_bad_clock_exits_2(tmp_path):
    cfg = sheet_config(tmp_path, clock="sidereal")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_bad_hurst_exits_2(tmp_path):
    cfg = sheet_config(tmp_path, H=[[1.5, 0.5]])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_non_numeric_mixing_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--config", sheet_config(tmp_path, A=[["x"]]),
                 "--out", str(out)]) == 2
    assert "bad mixing matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("H, window", [
    pytest.param([[0.5]], {"lo": [0.5], "hi": [3.9]}, id="float-corners"),
    pytest.param([[0.5]], {"lo": [True], "hi": [3]}, id="bool-corner"),
    pytest.param([[0.3, 0.7]], {"lo": [0], "hi": [3]}, id="H-has-2-axes"),
])
def test_simulate_bad_window_exits_2_before_writing(tmp_path, capsys, H, window):
    out = tmp_path / "o"
    assert main(["simulate", "--config", sheet_config(tmp_path, H=H, window=window),
                 "--out", str(out)]) == 2
    assert "window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fou-first", "fou-second"])
def test_nan_mixing_exits_2_before_writing(tmp_path, capsys, command):
    out = tmp_path / "o"
    if command == "simulate":
        cfg = sheet_config(tmp_path, A=[[float("nan")]])
    else:
        theta = theta_file(tmp_path, [np.array([[1.0]])]) if command == "fou-first" else None
        cfg = fou_config(tmp_path, theta, kind=command[4:], A=[[float("nan")]])
    assert main([command.split("-")[0], "--config", cfg, "--out", str(out)]) == 2
    assert "mixing matrix" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_exp_window_too_wide_exits_3(tmp_path, capsys):
    cfg = sheet_config(
        tmp_path, clock="exponential",
        window={"lo": [0, 0], "hi": [31, 1]},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numeric/window error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", True), ("seed", 1.5),
    ("replications", True), ("replications", 2.7),
])
def test_simulate_bad_seed_or_count_exits_2_before_writing(tmp_path, capsys, key, value):
    out = tmp_path / "o"
    assert main(["simulate", "--config", sheet_config(tmp_path, **{key: value}),
                 "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_simulate_negative_seed_flag_exits_2_before_writing(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--config", sheet_config(tmp_path), "--seed", "-4",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("H, A", [([[True, 0.5]], None), ([[0.3, 0.7]], [[False]]),
                                  ([[0.3, 0.7], [0.5, 0.5]], [[1, 0], [True, 1]])])
def test_simulate_bool_hurst_or_mixing_exits_2_before_writing(tmp_path, capsys, H, A):
    cfg = sheet_config(tmp_path, H=H, **({} if A is None else {"A": A}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "entries must be numbers, not booleans" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["simulate-config", "fou-config", "theta",
                                    "batch-values"])
def test_unreadable_input_path_exits_2_before_writing(tmp_path, capsys, target):
    # An input path that names a directory cannot be read: a config error
    # naming the path, like a missing file, not a traceback.
    adir = tmp_path / "adir"
    adir.mkdir()
    if target == "batch-values":
        batch = Path(make_batch(tmp_path, reps=3, name="bd"))
        adir = batch / "values.npy"
        adir.unlink()
        adir.mkdir()
        argv = ["stats", "--batch", str(batch), *STATIONARITY]
    else:
        argv = {
            "simulate-config": ["simulate", "--config", str(adir)],
            "fou-config": ["fou", "--config", str(adir), "--kind", "second"],
            "theta": ["transform", "--input", str(tmp_path / "f.csv"), "--theta",
                      str(adir), "--chain", "L"],
        }[target]
        if target == "theta":
            save_field(FieldWindow(Window((0,), (3,)), np.ones(4), "exponential"),
                       tmp_path / "f.csv")
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read input" in err and str(adir) in err
    assert not out.exists()


def test_bad_threads_exits_2(tmp_path):
    cfg = sheet_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "zero"]) == 2
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


# ---------------------------------------------------------------------------
# transform


@pytest.fixture
def field_and_theta(tmp_path):
    rng = np.random.default_rng(5)
    w = Window((-2, -2), (2, 2))
    vals = rng.normal(size=w.shape + (1,))
    x = FieldWindow(w, vals)
    path = tmp_path / "x.csv"
    save_field(x, path)
    theta = theta_file(tmp_path, [np.array([[0.8]]), np.array([[1.1]])])
    return str(path), theta, x


def test_transform_lamperti_roundtrip(tmp_path, field_and_theta):
    path, theta, x = field_and_theta
    out1 = tmp_path / "fwd"
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L", "--out", str(out1)]) == 0
    out2 = tmp_path / "back"
    assert main(["transform", "--input", str(out1 / "transformed.csv"),
                 "--theta", theta, "--chain", "Linv", "--out", str(out2)]) == 0
    from fieldcorrespond import load_field

    back = load_field(out2 / "transformed.csv")
    assert back.clock == "integer"
    np.testing.assert_allclose(back.values, x.values, rtol=1e-9, atol=1e-12)
    res = json.loads((out1 / "resolved_config.json").read_text())
    assert res["chain"] == ["L"]
    assert res["transforms"] == "eigenbasis-v1"


def test_transform_records_sidecar_chain(tmp_path, field_and_theta):
    path, theta, _ = field_and_theta
    out = tmp_path / "o"
    main(["transform", "--input", path, "--theta", theta,
          "--chain", "L,M", "--out", str(out)])
    side = json.loads((out / "transformed.json").read_text())
    steps = [c["transform"] for c in side["transforms"]]
    assert steps == ["L", "M"]
    assert side["transforms"][0]["theta_ref"] == theta


def test_transform_bad_chain_exits_2(tmp_path, field_and_theta):
    path, theta, _ = field_and_theta
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L,Q", "--out", str(tmp_path / "o")]) == 2


def test_transform_wrong_clock_exits_3(tmp_path, field_and_theta):
    # M needs the exponential clock; a raw integer-clock field cannot feed it.
    path, theta, _ = field_and_theta
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "M", "--out", str(tmp_path / "o")]) == 3


def test_transform_depth_too_deep_exits_3(tmp_path, field_and_theta):
    path, theta, _ = field_and_theta
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L,M,Minv", "--depth", "40",
                 "--out", str(tmp_path / "o")]) == 3


def test_transform_non_integer_depth_exits_2(tmp_path, field_and_theta, capsys):
    path, theta, _ = field_and_theta
    out = tmp_path / "o"
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L,M,Minv", "--depth", "a,b", "--out", str(out)]) == 2
    assert "--depth" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_transform_bad_eps_exits_2_before_writing(tmp_path, field_and_theta, eps):
    path, theta, _ = field_and_theta
    out = tmp_path / "o"
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L", f"--eps={eps}", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("row", ["-2,-2,0.5", "-2,-1,nan", "-2,-1.5,0.5"])
def test_transform_bad_input_rows_exit_3(tmp_path, field_and_theta, capsys, row):
    # duplicate site, non-finite value, non-integer site
    path, theta, _ = field_and_theta
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[2] = row
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["transform", "--input", path, "--theta", theta,
                 "--chain", "L", "--out", str(out)]) == 3
    assert "line 3" in capsys.readouterr().err
    assert not out.exists()


def test_transform_batch_rep_via_manifest(tmp_path):
    # batch replications have no per-file sidecar; geometry must come
    # from the manifest.json next to them
    cfg = sheet_config(tmp_path)
    run = tmp_path / "run"
    main(["simulate", "--config", cfg, "--out", str(run)])
    theta = theta_file(tmp_path, [np.array([[0.7]]), np.array([[0.9]])])
    out = tmp_path / "o"
    assert main(["transform", "--input", str(run / "rep_00001.csv"),
                 "--theta", theta, "--chain", "L,Linv", "--out", str(out)]) == 0
    from fieldcorrespond import load_field, read_csv

    orig = read_csv(run / "rep_00001.csv", Window((0, 0), (3, 3)), 1)
    back = load_field(out / "transformed.csv")
    np.testing.assert_allclose(back.values, orig.values, rtol=1e-9, atol=1e-12)


def test_transform_orphan_csv_exits_2(tmp_path, field_and_theta):
    _, theta, x = field_and_theta
    orphan = tmp_path / "bare" / "field.csv"
    orphan.parent.mkdir()
    from fieldcorrespond import write_csv

    write_csv(x, orphan)
    assert main(["transform", "--input", str(orphan), "--theta", theta,
                 "--chain", "L", "--out", str(tmp_path / "o")]) == 2


def test_ar1_verify_fou_batch_rep(tmp_path):
    # first-kind FOU replications satisfy the AR(1) identity per path
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    cfg = fou_config(tmp_path, theta, replications=2)
    run = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--out", str(run)]) == 0
    out = tmp_path / "rep"
    assert main(["ar1-verify", "--x", str(run / "rep_00001.csv"),
                 "--extract-noise", "--theta", theta, "--out", str(out)]) == 0
    report = json.loads((out / "ar1_report.json").read_text())
    assert report["pass"] is True


def test_transform_overflow_exits_3_before_writing(tmp_path, capsys):
    # e^{5} * 1e307 overflows: a clean exit 3, not a crash while writing.
    x = FieldWindow(Window((0,), (5,)), np.full((6, 1), 1e307))
    path = tmp_path / "big.csv"
    save_field(x, path)
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    out = tmp_path / "o"
    assert main(["transform", "--input", str(path), "--theta", theta,
                 "--chain", "L", "--out", str(out)]) == 3
    assert "double range" in capsys.readouterr().err
    assert not out.exists()


def test_ar1_verify_extract_noise_overflow_exits_3_before_writing(tmp_path, capsys):
    # Extracting the noise applies L first, and e^{5} * 1e307 overflows.
    x = FieldWindow(Window((0,), (5,)), np.full((6, 1), 1e307))
    path = tmp_path / "big.csv"
    save_field(x, path)
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    out = tmp_path / "o"
    assert main(["ar1-verify", "--x", str(path), "--extract-noise",
                 "--theta", theta, "--out", str(out)]) == 3
    assert "double range" in capsys.readouterr().err
    assert not out.exists()


def test_transform_bad_theta_file_exits_2(tmp_path, field_and_theta):
    path, _, _ = field_and_theta
    assert main(["transform", "--input", path,
                 "--theta", str(tmp_path / "missing.json"),
                 "--chain", "L", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("target", ["theta", "sidecar", "transform-manifest",
                                    "stats-manifest"])
def test_malformed_json_input_exits_2_before_writing(tmp_path, field_and_theta, capsys,
                                                     target):
    # Every JSON input file goes through one reader: text that is not JSON
    # is a config error naming the file, whichever file it is.
    path, theta, _ = field_and_theta
    batch = Path(make_batch(tmp_path, reps=2, name="bj"))
    bad, argv = {
        "theta": (theta, ["transform", "--input", path]),
        "sidecar": (str(tmp_path / "x.json"), ["transform", "--input", path]),
        "transform-manifest": (str(batch / "manifest.json"),
                               ["transform", "--input", str(batch / "rep_00000.csv")]),
        "stats-manifest": (str(batch / "manifest.json"),
                           ["stats", "--batch", str(batch), *STATIONARITY]),
    }[target]
    if argv[0] == "transform":
        argv += ["--theta", theta, "--chain", "L"]
    Path(bad).write_text("{not json")
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{bad} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ar1-verify


@pytest.fixture
def ar1_files(tmp_path):
    rng = np.random.default_rng(9)
    theta = ThetaTuple([np.array([[0.9]])])
    g = FieldWindow(Window((-10,), (3,)), rng.normal(size=(14, 1)))
    from fieldcorrespond import Ar1System, stationary_solution

    x = stationary_solution(
        Ar1System(theta, g, TruncationPolicy(depth=5)), Window((-3,), (3,))
    )
    x_path = tmp_path / "x.csv"
    g_path = tmp_path / "g.csv"
    save_field(x, x_path)
    save_field(g, g_path)
    th_path = tmp_path / "theta.json"
    theta.save(th_path)
    return str(x_path), str(g_path), str(th_path), x


def test_ar1_verify_passes(tmp_path, ar1_files, capsys):
    x_path, g_path, th_path, _ = ar1_files
    out = tmp_path / "rep"
    assert main(["ar1-verify", "--x", x_path, "--g", g_path,
                 "--theta", th_path, "--out", str(out)]) == 0
    report = json.loads((out / "ar1_report.json").read_text())
    assert report["pass"] is True
    assert "PASS" in capsys.readouterr().out
    res = json.loads((out / "resolved_config.json").read_text())
    assert res["transforms"] == "eigenbasis-v1"


def test_ar1_verify_extract_noise(tmp_path, ar1_files):
    x_path, _, th_path, _ = ar1_files
    out = tmp_path / "rep"
    assert main(["ar1-verify", "--x", x_path, "--extract-noise",
                 "--theta", th_path, "--out", str(out)]) == 0
    assert (out / "noise.csv").exists()
    report = json.loads((out / "ar1_report.json").read_text())
    assert report["max_residual"] <= 1e-12


def test_ar1_verify_corrupted_exits_4(tmp_path, ar1_files, capsys):
    x_path, g_path, th_path, x = ar1_files
    vals = np.array(x.values)
    vals[4] += 0.3
    save_field(FieldWindow(x.window, vals), tmp_path / "bad.csv")
    out = tmp_path / "rep"
    code = main(["ar1-verify", "--x", str(tmp_path / "bad.csv"), "--g", g_path,
                 "--theta", th_path, "--out", str(out)])
    assert code == 4
    report = json.loads((out / "ar1_report.json").read_text())
    assert report["pass"] is False
    assert report["offending_sites"]
    err = capsys.readouterr().err
    assert "verification failure" in err


def test_ar1_verify_bad_noise_header_exits_3_before_writing(tmp_path, ar1_files):
    x_path, g_path, th_path, _ = ar1_files
    with open(g_path) as fh:
        lines = fh.read().splitlines()
    lines[0] = "t_1,bad_1"
    with open(g_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "rep"
    assert main(["ar1-verify", "--x", x_path, "--g", g_path,
                 "--theta", th_path, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("noise", ["extract", "file"])
def test_ar1_verify_bad_tolerance_exits_2_before_writing(tmp_path, ar1_files, capsys,
                                                        tolerance, noise):
    x_path, g_path, th_path, _ = ar1_files
    source = ["--extract-noise"] if noise == "extract" else ["--g", g_path]
    out = tmp_path / "rep"
    assert main(["ar1-verify", "--x", x_path, *source, "--theta", th_path,
                 "--tolerance", tolerance, "--out", str(out)]) == 2
    assert not out.exists()
    assert "--tolerance must be a non-negative finite number" in capsys.readouterr().err


def test_ar1_verify_needs_noise_source(tmp_path, ar1_files):
    x_path, _, th_path, _ = ar1_files
    assert main(["ar1-verify", "--x", x_path, "--theta", th_path,
                 "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# fou


def fou_config(tmp_path, theta_path, **overrides):
    cfg = {
        "kind": "first",
        "H": [[0.4]],
        "window": {"lo": [-1], "hi": [2]},
        "theta": theta_path,
        "policy": {"depth": 5},
        "seed": 3,
        "replications": 4,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "fou.json", cfg)


def test_fou_first_kind_runs(tmp_path):
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    cfg = fou_config(tmp_path, theta)
    out = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["kind"] == "first"
    assert man["policy"]["depth"] == [5]
    assert man["sampler"] == "kron-v3"
    assert (out / "rep_00003.csv").exists()


def test_fou_second_kind_runs(tmp_path):
    cfg = write_json(tmp_path / "fou2.json", {
        "kind": "second",
        "H": [[0.4]],
        "window": {"lo": [-1], "hi": [2]},
        "seed": 3,
        "replications": 4,
    })
    out = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["kind"] == "second"
    assert man["sampler"] == "kron-v3"


def test_fou_kind_flag_overrides(tmp_path):
    cfg = write_json(tmp_path / "fou3.json", {
        "H": [[0.4]],
        "window": {"lo": [-1], "hi": [2]},
        "seed": 3,
        "replications": 2,
    })
    out = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--kind", "second",
                 "--out", str(out)]) == 0


def test_fou_second_with_theta_exits_2(tmp_path):
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    cfg = fou_config(tmp_path, theta, kind="second")
    assert main(["fou", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_fou_noncommuting_mixing_exits_2(tmp_path):
    cfg = write_json(tmp_path / "fou4.json", {
        "kind": "second",
        "H": [[0.2], [0.9]],
        "A": [[1.0, 1.0], [0.0, 1.0]],
        "window": {"lo": [-1], "hi": [2]},
        "seed": 3,
        "replications": 2,
    })
    assert main(["fou", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("depth", [True, [True, 2], 1.5, [1.5, 2]])
def test_fou_non_integer_policy_depth_exits_2(tmp_path, depth):
    theta = theta_file(tmp_path, [np.array([[1.0]]), np.array([[1.2]])])
    cfg = fou_config(tmp_path, theta, H=[[0.4, 0.6]],
                     window={"lo": [-1, -1], "hi": [1, 1]}, policy={"depth": depth})
    out = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("eps", [True, False, "1e-8", None, 0, -1e-8])
def test_fou_bad_policy_eps_exits_2(tmp_path, capsys, eps):
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    cfg = fou_config(tmp_path, theta, policy={"eps": eps})
    out = tmp_path / "run"
    assert main(["fou", "--config", cfg, "--out", str(out)]) == 2
    assert "eps must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", True), ("seed", 1.5),
    ("replications", True), ("replications", 2.7),
])
def test_fou_bad_seed_or_count_exits_2_before_writing(tmp_path, capsys, kind, key, value):
    cfg = {"kind": kind, "H": [[0.4]], "window": {"lo": [-1], "hi": [2]},
           "seed": 3, "replications": 2, key: value}
    if kind == "first":
        cfg["theta"] = theta_file(tmp_path, [np.array([[1.0]])])
    out = tmp_path / "o"
    assert main(["fou", "--config", write_json(tmp_path / "fou.json", cfg),
                 "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_fou_threads_byte_identical(tmp_path):
    theta = theta_file(tmp_path, [np.array([[1.0]])])
    cfg = fou_config(tmp_path, theta)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["fou", "--config", cfg, "--out", str(out1), "--threads", "1"])
    main(["fou", "--config", cfg, "--out", str(out2), "--threads", "4"])
    t1, t2 = read_tree(out1), read_tree(out2)
    t1.pop("resolved_config.json")
    t2.pop("resolved_config.json")
    assert t1 == t2


def count_argv(tmp_path, command, count, out):
    """simulate or fou argv asking for ``count`` replications."""
    if command == "simulate":
        cfg = sheet_config(tmp_path)
    else:
        cfg = fou_config(tmp_path, theta_file(tmp_path, [np.array([[1.0]])]))
    return [command, "--config", cfg, "--replications", str(count), "--out", str(out)]


@pytest.mark.parametrize("command", ["simulate", "fou"])
def test_count_beyond_numpy_dimensions_exits_3_before_writing(tmp_path, capsys, command):
    # numpy refuses the batch shape itself: a NumericRangeError naming the
    # count and the bytes, not a ValueError traceback.
    out, count = tmp_path / "o", 99999999999999999999
    assert main(count_argv(tmp_path, command, count, out)) == 3
    err = capsys.readouterr().err
    assert f"{count} replications" in err and "bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fou"])
def test_batch_out_of_memory_exits_3_before_writing(tmp_path, capsys, monkeypatch,
                                                     command):
    # A MemoryError from the batch allocation, simulated: nothing this
    # large is allocated.
    out, count, empty = tmp_path / "o", 10**6, np.empty

    def refuse(shape, *args, **kwargs):
        if isinstance(shape, tuple) and shape[:1] == (count,):
            raise MemoryError("simulated")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    assert main(count_argv(tmp_path, command, count, out)) == 3
    err = capsys.readouterr().err
    assert f"{count} replications" in err and "bytes" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats


def make_batch(tmp_path, clock="integer", window=None, reps=400, name="batch"):
    cfg = sheet_config(
        tmp_path, clock=clock,
        window=window or {"lo": [0, 0], "hi": [2, 2]},
        replications=reps,
        H=[[0.5, 0.5]],
    )
    out = tmp_path / name
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


def test_stats_increment_stationarity_passes(tmp_path, capsys):
    batch = make_batch(tmp_path)
    out = tmp_path / "rep"
    code = main(["stats", "--batch", batch, "--check", "increment-stationarity",
                 "--shift", "1,0", "--shift", "0,1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "stats_report.json").read_text())
    assert report["passed"] is True
    assert "PASS" in capsys.readouterr().out
    # The SE arithmetic is tagged like the sampler and the transforms.
    assert json.loads((out / "resolved_config.json").read_text())["stats"] == STATS_VERSION


def test_stats_stationarity_fails_on_sheet_exits_4(tmp_path, capsys):
    batch = make_batch(tmp_path, name="b2")
    out = tmp_path / "rep"
    code = main(["stats", "--batch", batch, "--check", "stationarity",
                 "--shift", "1,0", "--out", str(out)])
    assert code == 4
    report = json.loads((out / "stats_report.json").read_text())
    assert report["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_stats_fidelity_passes(tmp_path):
    batch = make_batch(tmp_path, reps=1500, name="b3")
    out = tmp_path / "rep"
    assert main(["stats", "--batch", batch, "--check", "fidelity",
                 "--out", str(out)]) == 0


def test_stats_self_similarity_derived_theta(tmp_path):
    batch = make_batch(
        tmp_path, clock="exponential",
        window={"lo": [-1, -1], "hi": [1, 1]}, reps=600, name="b4",
    )
    out = tmp_path / "rep"
    assert main(["stats", "--batch", batch, "--check", "self-similarity",
                 "--shift", "1,1", "--out", str(out)]) == 0


def test_stats_self_similarity_wrong_theta_exits_4(tmp_path):
    batch = make_batch(
        tmp_path, clock="exponential",
        window={"lo": [-1, -1], "hi": [1, 1]}, reps=600, name="b5",
    )
    theta = theta_file(tmp_path, [np.array([[0.1]]), np.array([[0.1]])])
    out = tmp_path / "rep"
    code = main(["stats", "--batch", batch, "--check", "self-similarity",
                 "--shift", "1,1", "--theta", theta, "--out", str(out)])
    assert code == 4


def test_stats_missing_shift_exits_2(tmp_path):
    batch = make_batch(tmp_path, name="b6")
    assert main(["stats", "--batch", batch, "--check", "stationarity",
                 "--out", str(tmp_path / "o")]) == 2


def test_stats_malformed_shift_exits_2(tmp_path):
    batch = make_batch(tmp_path, name="b7")
    assert main(["stats", "--batch", batch, "--check", "stationarity",
                 "--shift", "1;0", "--out", str(tmp_path / "o")]) == 2
    assert main(["stats", "--batch", batch, "--check", "stationarity",
                 "--shift", "1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("z_max", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("check", ["stationarity", "fidelity"])
def test_stats_bad_z_max_exits_2_before_writing(tmp_path, capsys, z_max, check):
    batch = make_batch(tmp_path, reps=5, name="bz")
    out = tmp_path / "rep"
    shift = ["--shift", "1,0"] if check == "stationarity" else []
    assert main(["stats", "--batch", batch, "--check", check, *shift,
                 "--z-max", z_max, "--out", str(out)]) == 2
    assert not out.exists()
    assert "--z-max must be a positive finite number" in capsys.readouterr().err


MISSING = object()
STATIONARITY = ["--check", "stationarity", "--shift", "1,0"]


@pytest.mark.parametrize("key, value, check, message", [
    *[pytest.param("R", v, STATIONARITY, "manifest R must be", id=str(v))
      for v in (2.7, "3", True, -1)],
    pytest.param("H", MISSING, ["--check", "fidelity"], "manifest has no 'H'",
                 id="no-H-fidelity"),
    pytest.param("H", MISSING, ["--check", "self-similarity", "--shift", "1,1"],
                 "manifest has no 'H'", id="no-H-self-similarity"),
    pytest.param("A", MISSING, ["--check", "fidelity"], "manifest has no 'A'",
                 id="no-A-fidelity"),
    pytest.param("A", [["x"]], ["--check", "fidelity"], "bad mixing matrix",
                 id="text-A-fidelity"),
])
def test_stats_bad_manifest_count_exits_2_before_writing(tmp_path, capsys, key, value,
                                                         check, message):
    # A manifest entry the checks need (the count R, the Hurst spec H, the
    # mixing matrix A) that is missing or malformed is a config error.
    batch = make_batch(tmp_path, reps=5, name="bm")
    man_path = tmp_path / "bm" / "manifest.json"
    man = json.loads(man_path.read_text())
    if value is MISSING:
        del man[key]
    else:
        man[key] = value
    man_path.write_text(json.dumps(man))
    out = tmp_path / "rep"
    assert main(["stats", "--batch", batch, *check, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["nan", "truncated", "fewer replications"])
def test_stats_bad_values_npy_exits_3_before_writing(tmp_path, capsys, fault):
    batch = Path(make_batch(tmp_path, reps=9, name="b7"))
    path = batch / "values.npy"
    values = np.load(path)
    if fault == "nan":
        values[6, 1, 2, 0] = np.nan
        np.save(path, values)
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:-100])
    else:
        np.save(path, values[:8])
    out = tmp_path / "rep"
    assert main(["stats", "--batch", str(batch), *STATIONARITY, "--out", str(out)]) == 3
    assert f"numeric/window error: {path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layout", ["npy-v1", "csv-only"])
def test_stats_missing_values_npy_exits_2_before_writing(tmp_path, capsys, layout):
    batch = Path(make_batch(tmp_path, reps=3, name="bv"))
    (batch / "values.npy").unlink()
    if layout == "csv-only":
        man = json.loads((batch / "manifest.json").read_text())
        del man["layout"]
        write_json(batch / "manifest.json", man)
    out = tmp_path / "rep"
    assert main(["stats", "--batch", str(batch), *STATIONARITY, "--out", str(out)]) == 2
    assert ("has no layout tag" if layout == "csv-only" else "has no values.npy") \
        in capsys.readouterr().err
    assert not out.exists()


def test_stats_missing_batch_exits_2(tmp_path):
    assert main(["stats", "--batch", str(tmp_path / "nope"),
                 "--check", "stationarity", "--shift", "1,0",
                 "--out", str(tmp_path / "o")]) == 2


def command_argv(tmp_path, command):
    """A valid argv, without --out, of each command; its inputs live in
    ``tmp_path``."""
    if command == "stats":
        return ["stats", "--batch", make_batch(tmp_path, name="bf"),
                "--check", "increment-stationarity", "--shift", "1,1"]
    if command in ("transform", "ar1-verify"):
        clock = "exponential" if command == "transform" else "integer"
        save_field(FieldWindow(Window((0,), (3,)), np.ones(4), clock), tmp_path / "f.csv")
        theta = theta_file(tmp_path, [np.array([[1.0]])])
        if command == "transform":
            return ["transform", "--input", str(tmp_path / "f.csv"), "--chain", "Linv",
                    "--theta", theta]
        return ["ar1-verify", "--x", str(tmp_path / "f.csv"), "--extract-noise",
                "--theta", theta]
    if command == "fou":
        return ["fou", "--kind", "second", "--config", write_json(
            tmp_path / "fou.json",
            {"H": [[0.4]], "window": {"lo": [-1], "hi": [2]}, "seed": 3,
             "replications": 2})]
    return ["simulate", "--config", sheet_config(tmp_path)]


COMMANDS = ["simulate", "fou", "stats", "transform", "ar1-verify"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_out_naming_a_file_exits_2_before_reading_inputs(tmp_path, capsys, command,
                                                         where):
    # --out that is, or lies under, an existing file is refused before any
    # input is parsed or any replication drawn; the file is left alone.
    afile = tmp_path / "afile"
    afile.write_text("keep")
    argv = command_argv(tmp_path, command)
    out = afile / "sub" if where == "under-file" else afile
    with mock.patch("builtins.open", side_effect=AssertionError("an input was opened")):
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: --out {out}: {afile} exists and is not a directory" in err
    assert afile.read_text() == "keep"


@pytest.mark.parametrize("command", COMMANDS)
def test_non_empty_out_exits_2_before_reading_inputs(tmp_path, capsys, command):
    # An existing --out that holds anything, a hidden file included, is
    # refused before any input is parsed; nothing in it changes.
    argv = command_argv(tmp_path, command)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".keep").write_text("keep")
    with mock.patch("builtins.open", side_effect=AssertionError("an input was opened")):
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: --out {out} is not empty" in err
    assert read_tree(out) == {".keep": b"keep"}


@pytest.mark.parametrize("command", COMMANDS)
def test_empty_existing_out_is_used(tmp_path, command):
    argv = command_argv(tmp_path, command)
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "resolved_config.json").exists()


def test_rerun_into_used_out_leaves_no_stale_replications(tmp_path, capsys):
    # A second simulate with fewer replications into the same --out would
    # leave rep_00002..4.csv beside a manifest with "R": 2; it is refused
    # and the first run's files stay as they were.
    cfg = sheet_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    before = read_tree(out)
    assert json.loads(before["manifest.json"])["R"] == 5
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--replications", "2",
                 "--out", str(out)]) == 2
    assert "is not empty" in capsys.readouterr().err
    assert read_tree(out) == before


# ---------------------------------------------------------------------------
# broken configs (property)


VALID_RUNS = {
    "simulate": {"H": [[0.3, 0.7], [0.6, 0.4]], "A": [[1.0, 0.0], [0.5, 1.0]],
                 "window": {"lo": [0, -1], "hi": [2, 1]}, "clock": "integer",
                 "seed": 1, "replications": 2},
    "fou-first": {"kind": "first", "H": [[0.3, 0.7], [0.6, 0.4]],
                  "A": [[1.0, 0.0], [0.0, 1.0]], "window": {"lo": [0, -1], "hi": [2, 1]},
                  "theta": {"n": 2, "N": 2, "mats": [[0.9, 0.0, 0.0, 1.2],
                                                     [1.1, 0.0, 0.0, 1.0]]},
                  "policy": {"depth": 3}, "seed": 1, "replications": 2},
    "fou-second": {"kind": "second", "H": [[0.3, 0.7], [0.6, 0.4]],
                   "A": [[1.0, 0.0], [0.0, 1.0]], "window": {"lo": [0, -1], "hi": [2, 1]},
                   "seed": 1, "replications": 2},
}
NOT_A_NUMBER = st.sampled_from([float("nan"), float("inf"), -float("inf"), "x", ""])


def break_one_field(data, cfg: dict) -> None:
    """Break one field of a valid simulate or fou config in place."""
    how = data.draw(st.sampled_from(
        ["corner", "extra-key", "not-a-window", "wrong-N", "entry", "ragged"]))
    if how == "corner":
        corner = cfg["window"][data.draw(st.sampled_from(["lo", "hi"]))]
        corner[data.draw(st.integers(0, 1))] = data.draw(st.one_of(st.booleans(), st.floats()))
    elif how == "extra-key":
        cfg["window"][data.draw(st.text(min_size=1).filter(
            lambda k: k not in ("lo", "hi")))] = [0, 0]
    elif how == "not-a-window":
        cfg["window"] = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
            st.lists(st.integers(), max_size=3)))
    elif how == "wrong-N":
        axes = data.draw(st.sampled_from([1, 3]))
        cfg["window"] = {"lo": [0] * axes, "hi": [2] * axes}
    else:
        key = data.draw(st.sampled_from(["H", "A"]))
        row = data.draw(st.integers(0, 1))
        if how == "entry":
            cfg[key][row][data.draw(st.integers(0, 1))] = data.draw(NOT_A_NUMBER)
        else:
            cfg[key][row].append(0.5)


def run_config(cfg: dict, command: str, directory: Path) -> tuple:
    path = directory / "run.json"
    path.write_text(json.dumps(cfg))
    out = directory / "out"
    return main([command.split("-")[0], "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("command", sorted(VALID_RUNS))
def test_property_base_configs_run(tmp_path, command):
    code, out = run_config(VALID_RUNS[command], command, tmp_path)
    assert code == 0 and (out / "manifest.json").exists()


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(sorted(VALID_RUNS)), data=st.data())
def test_broken_config_exits_2_or_3_before_writing(command, data):
    # One broken field of a valid config (a float or bool corner, an extra
    # window key, a non-window, a window of the wrong N, a NaN, infinite or
    # text entry of H or A, a ragged H or A) is refused with exit 2 or 3:
    # no traceback and no --out directory.
    cfg = copy.deepcopy(VALID_RUNS[command])
    break_one_field(data, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_config(cfg, command, Path(tmp))
        assert code in (2, 3)
        assert not out.exists()


# ---------------------------------------------------------------------------
# argparse surface


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
