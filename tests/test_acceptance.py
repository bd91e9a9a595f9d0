"""Release acceptance gate.

Nine numbered criteria: algebraic round trips, the increment-sum identity,
the structure and invertibility of the increment-reweighting maps, the
AR(1) pathwise identity, the truncation error budget, Gaussian sampling
fidelity, the distributional test battery, and byte-level determinism.

Each criterion prints exactly one PASS/FAIL line, routed past pytest's
capture so the gate summary is always visible in the run log.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fieldcorrespond import (
    FieldWindow,
    HurstSpec,
    SheetSampler,
    ThetaTuple,
    TruncationPolicy,
    Window,
    ar1_residual,
    build_cov_matrix,
    derive_theta,
    fou_batch,
    FouConfig,
    increment_stationarity_check,
    lamperti,
    lamperti_inv,
    m_forward,
    m_inverse_truncated,
    noise_from_stationary,
    rect_increment,
    rect_from_units,
    sample_sheet_batch,
    self_similarity_check,
    sheet_points,
    spectral_norm,
    stationarity_check,
    fidelity_check,
    unit_increment_field,
)
from fieldcorrespond.cli import main as cli_main

from conftest import anchored_field, random_commuting_theta, random_field, random_window


@pytest.fixture
def criterion(capfd):
    """One PASS/FAIL summary line per criterion, emitted past capture."""

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    @contextmanager
    def gate(num, label):
        rec = {}
        try:
            yield rec
        except BaseException:
            emit(f"FAIL criterion {num}: {label}")
            raise
        detail = rec.get("detail", "")
        emit(f"PASS criterion {num}: {label}" + (f" [{detail}]" if detail else ""))

    return gate


def rel_err(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def test_criterion_1_lamperti_round_trips(criterion):
    rng = np.random.default_rng(101)
    with criterion(1, "Lamperti round trips are the identity to rel 1e-10") as rec:
        start = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            theta = random_commuting_theta(rng, N, n)
            w = random_window(rng, N)
            x = random_field(rng, w, n)
            back = lamperti_inv(lamperti(x, theta), theta)
            worst = max(worst, rel_err(back.values, x.values))
            y = random_field(rng, w, n, clock="exponential")
            fwd = lamperti(lamperti_inv(y, theta), theta)
            worst = max(worst, rel_err(fwd.values, y.values))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 10.0
        rec["detail"] = f"max rel err {worst:.2e}, {elapsed:.2f}s"


def test_criterion_2_increment_sum_identity(criterion):
    rng = np.random.default_rng(102)
    with criterion(2, "rectangular increments equal unit-cube sums") as rec:
        worst = 0.0
        for _ in range(100):
            N = int(rng.integers(1, 4))
            w = random_window(rng, N, max_side=4, span=3)
            x = random_field(rng, w, int(rng.integers(1, 3)))
            s = tuple(int(rng.integers(w.lo[l], w.hi[l])) for l in range(N))
            t = tuple(int(rng.integers(s[l] + 1, w.hi[l] + 1)) for l in range(N))
            a = rect_increment(x, s, t)
            b = rect_from_units(x, s, t)
            worst = max(worst, float(np.max(np.abs(a - b))))
            axis = int(rng.integers(0, N))
            t_deg = t[:axis] + (s[axis],) + t[axis + 1:]
            assert np.all(rect_increment(x, s, t_deg) == 0.0)
            swap = rng.integers(0, 2, size=N).astype(bool)
            s2 = tuple(t[l] if swap[l] else s[l] for l in range(N))
            t2 = tuple(s[l] if swap[l] else t[l] for l in range(N))
            m = int(np.sum(swap))
            assert np.array_equal(rect_increment(x, s2, t2), (-1.0) ** m * a)
        assert worst <= 1e-12
        rec["detail"] = f"max |diff| {worst:.2e} over 100 windows"


def test_criterion_3_forward_map_structure(criterion):
    rng = np.random.default_rng(103)
    with criterion(3, "forward map rescales unit increments and vanishes at zero") as rec:
        worst = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            theta = random_commuting_theta(rng, N, n)
            lo = tuple(-int(v) for v in rng.integers(1, 3, size=N))
            hi = tuple(int(v) for v in rng.integers(1, 3, size=N))
            y = random_field(rng, Window(lo, hi), n, clock="exponential")
            g = m_forward(y, theta)
            dg = unit_increment_field(g).values.reshape(-1, n)
            dy = unit_increment_field(y).values.reshape(-1, n)
            inner = Window(tuple(l + 1 for l in lo), hi)
            for idx, t in enumerate(inner.sites()):
                want = theta.exp(tuple(-v for v in t)) @ dy[idx]
                worst = max(worst, float(np.max(np.abs(dg[idx] - want))))
            for axis in range(N):
                sl = [slice(None)] * (N + 1)
                sl[axis] = -lo[axis]
                assert np.all(g.values[tuple(sl)] == 0.0)
        assert worst <= 1e-12
        rec["detail"] = f"max increment defect {worst:.2e} over 50 fields"


def test_criterion_4_bijection_round_trips(criterion):
    rng = np.random.default_rng(104)
    with criterion(4, "inverse and forward maps invert each other to rel 1e-10") as rec:
        worst = 0.0
        policy = TruncationPolicy(depth=0)
        for _ in range(20):
            N = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            theta = random_commuting_theta(rng, N, n)
            w = Window((-2,) * N, (2,) * N)
            inner = Window((-1,) * N, (2,) * N)
            sub = tuple(slice(1, None) for _ in range(N))

            y = anchored_field(rng, w, n, clock="exponential")
            back = m_inverse_truncated(m_forward(y, theta), theta, policy, inner)
            worst = max(worst, rel_err(back.values, y.values[sub]))

            g = random_field(rng, w, n)
            vals = np.array(g.values)
            for axis in range(N):
                sl = [slice(None)] * (N + 1)
                sl[axis] = 2
                vals[tuple(sl)] = 0.0
            g = FieldWindow(w, vals)
            fwd = m_forward(m_inverse_truncated(g, theta, policy, inner), theta)
            worst = max(worst, rel_err(fwd.values, g.values[sub]))

            x = anchored_field(rng, w, n)
            chain = lamperti_inv(
                m_inverse_truncated(m_forward(lamperti(x, theta), theta),
                                    theta, policy, inner),
                theta,
            )
            worst = max(worst, rel_err(chain.values, x.values[sub]))
        assert worst <= 1e-10
        rec["detail"] = f"max rel err {worst:.2e} over 20 draws x 3 chains"


def test_criterion_5_ar1_pathwise_identity(criterion):
    rng = np.random.default_rng(105)
    with criterion(5, "AR(1) residuals vanish pathwise") as rec:
        worst_ext = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            theta = random_commuting_theta(rng, N, n)
            # the noise extraction runs through the forward map, which
            # needs the origin inside the window
            lo = tuple(-int(v) for v in rng.integers(1, 3, size=N))
            hi = tuple(int(v) for v in rng.integers(1, 3, size=N))
            x = random_field(rng, Window(lo, hi), n)
            g = noise_from_stationary(x, theta)
            res = ar1_residual(x, g, theta)
            scale = max(1.0, float(np.max(np.abs(x.values))))
            worst_ext = max(worst_ext, float(np.max(np.abs(res.values))) / scale)
        assert worst_ext <= 1e-12

        from fieldcorrespond import Ar1System, stationary_solution

        worst_con = 0.0
        policy = TruncationPolicy(eps=1e-4)
        for _ in range(10):
            N = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            theta = random_commuting_theta(rng, N, n, lo=0.8, hi=1.4)
            depth = max(policy.resolve(theta))
            out = Window((0,) * N, (2,) * N)
            gw = Window((-depth - 1,) * N, (2,) * N)
            g = random_field(rng, gw, n)
            x = stationary_solution(Ar1System(theta, g, policy), out)
            res = ar1_residual(x, g, theta)
            worst_con = max(worst_con, float(np.max(np.abs(res.values))))
        assert worst_con <= 10.0 * policy.eps
        rec["detail"] = (f"extracted {worst_ext:.2e} (<= 1e-12), "
                         f"constructed {worst_con:.2e} (<= {10 * policy.eps:.0e})")


def test_criterion_6_truncation_tail_bound(criterion):
    rng = np.random.default_rng(106)
    with criterion(6, "doubling the depth stays within the recorded tail bound") as rec:
        worst_ratio = 0.0
        for inst in range(20):
            N = int(rng.integers(1, 3))
            theta = random_commuting_theta(rng, N, 1, lo=0.8, hi=1.3)
            out = Window((1,) * N, (3,) * N)
            gw = Window((-8,) * N, (3,) * N)
            hurst = HurstSpec([[float(h) for h in rng.uniform(0.3, 0.9, size=N)]])
            g = SheetSampler(np.eye(1), hurst, gw, "integer").sample(7000 + inst)
            shallow = m_inverse_truncated(g, theta, TruncationPolicy(depth=4), out)
            deep = m_inverse_truncated(g, theta, TruncationPolicy(depth=8), out)
            diff = float(np.max(np.abs(shallow.values - deep.values)))
            # relative bound times the noise increment scale and the
            # largest output magnitude factor e^{hi*Theta}
            scale = (float(np.max(np.abs(unit_increment_field(g).values)))
                     * spectral_norm(theta.exp(out.hi)))
            bound = shallow.meta["transforms"][-1]["tail_bound"] * scale
            assert diff <= bound
            worst_ratio = max(worst_ratio, diff / bound)
        rec["detail"] = f"20 sheet-driven instances, worst diff/bound {worst_ratio:.3f}"


def test_criterion_7_sheet_sampling_fidelity(criterion):
    with criterion(7, "empirical sheet covariance matches the closed form") as rec:
        start = time.perf_counter()
        hurst = HurstSpec([[0.3, 0.7]])
        window = Window((1, 1), (4, 4))
        batch = sample_sheet_batch(np.eye(1), hurst, window, "integer",
                                   seed=777, replications=10_000)
        report = fidelity_check(batch, hurst, np.eye(1), n_pairs=10, z_max=3.0)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 60.0

        pts = sheet_points(Window((1,), (6,)), "integer")
        cov = build_cov_matrix(pts, [0.5])
        grid = np.arange(1.0, 7.0)
        assert np.array_equal(cov, np.minimum.outer(grid, grid))
        rec["detail"] = (f"max |z| {report.max_abs_z:.2f} over {report.n_comparisons} rows "
                         f"(every variance, 10 pairs) at R=10000, "
                         f"{elapsed:.1f}s; H=1/2 covariance is min(t,s) exactly")


def test_criterion_8_distributional_suite(criterion):
    with criterion(8, "distributional battery sorts the classes correctly") as rec:
        start = time.perf_counter()
        R = 10_000
        shifts = [(1, 0), (0, 1)]

        first = fou_batch(FouConfig(
            kind="first",
            hurst=HurstSpec([[0.35, 0.65]]),
            mixing=np.eye(1),
            window=Window((0, 0), (2, 2)),
            theta=ThetaTuple([np.array([[0.9]]), np.array([[1.1]])]),
            policy=TruncationPolicy(depth=10),
            seed=81,
            replications=R,
        ))
        rep_first = stationarity_check(first, shifts)
        assert rep_first.passed

        second = fou_batch(FouConfig(
            kind="second",
            hurst=HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
            mixing=np.eye(2),
            window=Window((-1, -1), (1, 1)),
            seed=82,
            replications=R,
        ))
        rep_second = stationarity_check(second, shifts)
        assert rep_second.passed

        sheet = sample_sheet_batch(np.eye(1), HurstSpec([[0.55, 0.45]]),
                                   Window((1, 1), (3, 3)), "integer",
                                   seed=83, replications=R)
        assert not stationarity_check(sheet, shifts).passed
        assert increment_stationarity_check(sheet, shifts).passed

        exp_sheet = sample_sheet_batch(np.eye(1), HurstSpec([[0.3, 0.7]]),
                                       Window((-1, -1), (1, 1)), "exponential",
                                       seed=84, replications=R)
        theta_true = derive_theta(HurstSpec([[0.3, 0.7]]))
        assert self_similarity_check(exp_sheet, (1, 1), theta_true).passed
        theta_half = ThetaTuple([m / 2.0 for m in theta_true.mats])
        assert not self_similarity_check(exp_sheet, (1, 1), theta_half).passed

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        rec["detail"] = f"4 batches at R={R}, {elapsed:.1f}s"


def test_criterion_9_byte_determinism(criterion, tmp_path):
    with criterion(9, "identical seed and config give byte-identical outputs") as rec:
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({
            "H": [[0.4, 0.6]],
            "window": {"lo": [0, 0], "hi": [2, 2]},
            "clock": "integer",
            "seed": 5,
            "replications": 8,
        }))
        fou_cfg = tmp_path / "fou.json"
        fou_cfg.write_text(json.dumps({
            "kind": "second",
            "H": [[0.4]],
            "window": {"lo": [-1], "hi": [1]},
            "seed": 6,
            "replications": 8,
        }))

        def run(cmd, cfg, out, threads):
            code = cli_main([cmd, "--config", str(cfg), "--out", str(out),
                             "--threads", str(threads)])
            assert code == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        for cmd, cfg in (("simulate", sim_cfg), ("fou", fou_cfg)):
            a = run(cmd, cfg, tmp_path / f"{cmd}_a", 3)
            b = run(cmd, cfg, tmp_path / f"{cmd}_b", 3)
            assert a == b
            serial = run(cmd, cfg, tmp_path / f"{cmd}_c", 1)
            serial.pop("resolved_config.json")
            b.pop("resolved_config.json")
            assert serial == b
        rec["detail"] = "simulate and fou reruns, threads 1 vs 3"
